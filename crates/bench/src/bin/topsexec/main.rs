//! `topsexec`: the measurement CLI of the reproduced software stack,
//! playing the role `trtexec` plays in §VI-A of the paper.
//!
//! ```text
//! topsexec --model resnet50 --profile           # one model, end to end
//! topsexec serve --generative --gen-model tiny  # continuous batching
//! topsexec sweep --check-golden tests/golden/figures.json
//! topsexec fleet top --chips 8 --once           # fleet dashboard
//! topsexec <command> --help                     # any command's flags
//! ```
//!
//! Every command's flags, defaults and usage text come from one table,
//! [`dtu_bench::cli`]. Each module here turns one command's parsed
//! flags into a run; this file picks the command and holds the set-up
//! they share.

mod faults;
mod fleet;
mod generative;
mod profile;
mod serve;
mod slo;
mod sweep;
mod top;

use dtu::serve::ArrivalProcess;
use dtu::telemetry::{AlertEvent, AlertKind, FlightDump};
use dtu::{Accelerator, ChipConfig};
use dtu_bench::cli::{self, Args, Command};
use dtu_harness::{HarnessError, SweepModel};
use dtu_models::Model;
use std::io::Write;
use std::process::ExitCode;

/// Why a command failed.
enum Failure {
    /// Bad input: reported with the command's usage.
    Input(String),
    /// A run that could not finish.
    Run(String),
}

/// What every command returns.
type Outcome = Result<(), Failure>;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--generative` (or `--llm`) anywhere selects the token-level engine.
    let generative = argv.iter().any(|a| a == "--generative" || a == "--llm");
    let word = |i: usize| argv.get(i).map(String::as_str);
    let (command, skip, run): (&'static Command, usize, fn(&Args) -> Outcome) = match word(0) {
        Some("profile") => (&cli::PROFILE, 1, profile::run),
        Some("serve") if generative => (&cli::GEN_SERVE, 1, generative::serve),
        Some("serve") => (&cli::SERVE, 1, serve::run),
        Some("sweep") => (&cli::SWEEP, 1, sweep::run),
        Some("faults") => (&cli::FAULTS, 1, faults::run),
        Some("top") if generative => (&cli::GEN_TOP, 1, top::generative),
        Some("top") => (&cli::TOP, 1, top::run),
        Some("slo") => (&cli::SLO, 1, slo::run),
        Some("fleet") if word(1) == Some("top") => (&cli::FLEET_TOP, 2, fleet::top),
        Some("fleet") => (&cli::FLEET, 1, fleet::run),
        _ => (&cli::RUN, 0, profile::measure),
    };
    match run(&cli::parse_or_exit(command, 1 + skip)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Input(e)) => cli::exit_with_usage(command, &e),
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A harness error: a malformed plan or grid is bad input.
fn harness_failure(e: HarnessError) -> Failure {
    match e {
        HarnessError::Config(_) => Failure::Input(e.to_string()),
        e => Failure::Run(e.to_string()),
    }
}

/// The chip `--chip` names.
fn chip_config(args: &Args) -> ChipConfig {
    match args.get::<String>("--chip").as_str() {
        "i20" => ChipConfig::dtu20(),
        "i10" => ChipConfig::dtu10(),
        other => unreachable!("--chip {other} passed its choice kind"),
    }
}

/// An accelerator built on `cfg`.
fn accelerator(cfg: ChipConfig) -> Result<Accelerator, Failure> {
    Accelerator::with_config(cfg).map_err(|e| Failure::Run(e.to_string()))
}

/// `--models` as (name as given, model) pairs.
fn models(args: &Args) -> Vec<(String, Model)> {
    let names: Vec<String> = args.list("--models");
    names
        .into_iter()
        .map(|name| {
            let model = cli::model_by_name(&name).expect("--models passed its model kind");
            (name, model)
        })
        .collect()
}

/// `--models` as the rows of an experiment grid.
fn grid(args: &Args) -> Vec<SweepModel<'static>> {
    models(args)
        .into_iter()
        .map(|(name, m)| SweepModel::new(name, move |b| m.build(b)))
        .collect()
}

/// Poisson arrivals at `--qps` over `--duration`, or with `--bursty` a
/// Markov-modulated stream switching between half and 2.5x that rate.
fn arrival(args: &Args) -> ArrivalProcess {
    let qps: f64 = args.get("--qps");
    if args.switch("--bursty") {
        ArrivalProcess::Bursty {
            base_qps: 0.5 * qps,
            burst_qps: 2.5 * qps,
            mean_dwell_ms: args.get::<f64>("--duration") / 8.0,
        }
    } else {
        ArrivalProcess::Poisson { qps }
    }
}

/// Whether an alert is firing at simulated time `t_ns`, replayed from
/// its alert log (a tracker holds only end-of-run state).
fn firing_at<'a>(alerts: impl Iterator<Item = &'a AlertEvent>, t_ns: f64) -> bool {
    alerts
        .filter(|a| a.t_ns <= t_ns)
        .fold(false, |firing, a| match a.kind {
            AlertKind::BurnRate => true,
            AlertKind::Resolved => false,
            AlertKind::Fault => firing,
        })
}

/// The simulated times a dashboard replays: each whole second, then
/// the end of the run.
fn frame_times(end_ns: f64) -> impl Iterator<Item = f64> {
    let frames = (end_ns / 1e9).ceil().max(1.0) as u64;
    (1..frames).map(|f| f as f64 * 1e9).chain([end_ns])
}

/// Shows an already simulated run's dashboard: with `--once` only the
/// final frame, otherwise every frame, `--refresh-ms` apart.
fn replay<T>(args: &Args, frames: impl IntoIterator<Item = T>, render: impl Fn(T) -> String) {
    let frames = frames.into_iter();
    if args.switch("--once") {
        if let Some(last) = frames.last() {
            print!("{}", render(last));
        }
        return;
    }
    let pause = std::time::Duration::from_millis(args.get("--refresh-ms"));
    for frame in frames {
        print!("\x1b[2J\x1b[H{}", render(frame));
        let _ = std::io::stdout().flush();
        std::thread::sleep(pause);
    }
}

/// Writes `contents` to `path`.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Outcome {
    std::fs::write(path, contents).map_err(|e| Failure::Run(format!("cannot write {path}: {e}")))
}

/// Writes a flight dump to `path` as a Chrome trace and says so on
/// stderr under `tag`.
fn write_dump(tag: &str, path: &str, dump: &FlightDump) -> Outcome {
    write_file(path, dump.to_chrome_trace(true))?;
    eprintln!(
        "[{tag}] flight dump `{}` ({} spans at t={:.2}s) written to {path}",
        dump.reason,
        dump.spans.len(),
        dump.at_ns / 1e9
    );
    Ok(())
}
