//! Host wall-clock benchmark of the Cloudblazer i20 simulator.
//!
//! `dtu-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//! sets one workload up, measures it in this process, and prints its
//! metrics on stdout, one `name value unit` line each, then one JSON
//! result line last: the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. This is the command line `BENCHMARK.json` describes.
//! Without `--workload` it runs every workload, each in a child process
//! of its own, and prints a table; `--repeat N` runs that set N times in
//! alternating order and prints each metric's spread against its bound.
//!
//! The clock is the host's: the simulator's own wall time, never the
//! simulated time it reports.

mod error;
mod metrics;
mod procfs;
mod stats;
mod trace;
mod traced;
mod workload;

use error::BenchError;
use metrics::{Metric, RunResult, TracedWalls, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Checker, Fixture, Outcome, Runner, Workload};

const USAGE: &str = "dtu-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
                     dtu-benchmark [--seed N] [--trace | --repeat N]\n  workloads: sweep_cold \
                     sweep_reload serve_mix gen_chat fleet16 fleet16_monitored";
const DEFAULT_SEED: u64 = 7;
/// Length of a timed phase: the `run_seconds` of BENCHMARK.json, whose
/// command line passes it back as `--seconds`.
const RUN_SECONDS: u64 = 12;
/// Timed iterations a run makes at least.
const MIN_TIMED: usize = 30;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A timed phase stops here even short of its iteration count, so a
/// run ends well inside three minutes.
const MAX_PHASE: Duration = Duration::from_secs(120);
/// Traced iterations a traced run makes at least.
const MIN_TRACED: u32 = 5;
/// Traced iterations a traced run makes at most, which bounds the spans
/// held in memory (serve_mix records 13k per iteration).
const MAX_TRACED: u32 = 20;
/// Traced iterations written to the Chrome trace (all of them feed the
/// metrics).
const EXPORTED_ITERATIONS: u32 = 3;
/// Failure reasons printed per run before the rest are only counted.
const SHOWN_FAILURES: u64 = 5;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, BenchError> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut it = args.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| BenchError::Usage(format!("{flag} needs a value")))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| BenchError::Usage(format!("{flag} needs a whole number, got `{v}`")))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(Workload::parse(&value()?)?),
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?,
            "--repeat" => out.repeat = number(value()?)? as usize,
            // `--trace 0|1`, or a bare `--trace` for the traced suite.
            "--trace" => match it.peek().map(String::as_str) {
                Some("0" | "1") => out.trace = it.next().as_deref() == Some("1"),
                _ => out.trace = true,
            },
            _ => return Err(BenchError::Usage(format!("unknown flag `{flag}`"))),
        }
    }
    if out.seconds == 0 || out.repeat == 0 {
        return Err(BenchError::Usage(
            "--seconds and --repeat must be at least 1".into(),
        ));
    }
    if out.workload.is_none() && out.seconds != RUN_SECONDS {
        return Err(BenchError::Usage(format!(
            "--seconds needs --workload; the suite always runs {RUN_SECONDS} s"
        )));
    }
    if out.repeat > 1 && (out.trace || out.workload.is_some()) {
        return Err(BenchError::Usage(
            "--repeat runs the untraced suite; drop --trace and --workload".into(),
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => single(w, &args),
        None => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where builds, work files and traces go: the cargo target directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

/// One workload in this process; prints its result line. Returns
/// whether every output checked out.
fn single(w: Workload, args: &Args) -> Result<bool, BenchError> {
    let target = target_dir();
    let work = target
        .join("work")
        .join(format!("{}-{}", w.name(), std::process::id()));
    let result = if args.trace {
        traced_run(w, args, &work, &target)
    } else {
        timed_run(w, args, &work)
    };
    // The work directory goes whatever happened; a leftover is harmless.
    let _ = std::fs::remove_dir_all(&work);
    let result = result?;
    print!("{}", result.to_text());
    println!("{}", result.to_json());
    Ok(result.correct())
}

/// Checks one iteration's result, counting and showing failures.
fn tally(checker: &mut Checker, result: Result<Outcome, BenchError>, failed: &mut u64) {
    if let Err(why) = checker.check(result) {
        *failed += 1;
        if *failed <= SHOWN_FAILURES {
            eprintln!("iteration failed: {why}");
        }
    }
}

/// The end-to-end run: set up [`SETUP_REPEATS`] times, then iterate for
/// `seconds`, and at least [`MIN_TIMED`] times.
fn timed_run(w: Workload, args: &Args, work: &Path) -> Result<RunResult, BenchError> {
    let mut checker = Checker::new(w, args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    // All but the last set-up are measured, then dropped untimed.
    for _ in 1..SETUP_REPEATS {
        let start = Instant::now();
        let fx = Fixture::new(w, args.seed, work)?;
        let runner = Runner::set_up(&fx, &mut checker)?;
        setups.push(start.elapsed().as_secs_f64());
        drop(runner);
        drop(fx);
    }
    let start = Instant::now();
    let fx = Fixture::new(w, args.seed, work)?;
    let mut runner = Runner::set_up(&fx, &mut checker)?;
    setups.push(start.elapsed().as_secs_f64());

    let seconds = Duration::from_secs(args.seconds);
    let (mut walls, mut failed) = (Vec::new(), 0);
    let phase = Instant::now();
    while (walls.len() < MIN_TIMED || phase.elapsed() < seconds) && phase.elapsed() < MAX_PHASE {
        let (result, ms) = wall_ms(|| runner.run_plain());
        walls.push(ms);
        runner.after_iteration()?;
        tally(&mut checker, result, &mut failed);
    }
    // The tail is printed, not reported: on a shared two-core machine
    // its spread across runs (up to 24% for p90) is wider than a useful
    // regression bound.
    if let Ok((q, ms)) = stats::tail(&walls) {
        eprintln!("[{}] tail p{:.0}: {ms:.4} ms", w.name(), q * 100.0);
    }
    let values = [
        stats::median(&walls),
        stats::median(&setups),
        procfs::peak_rss_mb()?,
    ];
    Ok(RunResult {
        attempted: walls.len() as u64,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name.into(),
                unit: m.unit.into(),
                value,
            })
            .collect(),
    })
}

fn wall_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The traced run: set up once, then cycle (plain, traced, twin)
/// iterations for `seconds`, tracing only the first [`MAX_TRACED`]
/// cycles. Writes `trace-<workload>.json` into `target` and prints the
/// self-time table.
fn traced_run(
    w: Workload,
    args: &Args,
    work: &Path,
    target: &Path,
) -> Result<RunResult, BenchError> {
    let mut checker = Checker::new(w, args.seed);
    let fx = Fixture::new(w, args.seed, work)?;
    let mut runner = Runner::set_up(&fx, &mut checker)?;
    let tracer = Tracer::default();
    let mut walls = TracedWalls::default();
    let mut failed = 0;
    let seconds = Duration::from_secs(args.seconds);
    let phase = Instant::now();
    let mut k = 0;
    while (k < MIN_TRACED || phase.elapsed() < seconds) && phase.elapsed() < MAX_PHASE {
        k += 1;
        let (result, ms) = wall_ms(|| runner.run_plain());
        walls.plain.push(ms);
        runner.after_iteration()?;
        tally(&mut checker, result, &mut failed);

        if k <= MAX_TRACED {
            let (result, ms) = wall_ms(|| {
                let _iteration = tracer.iteration(k);
                traced::run_traced(&mut runner, &tracer)
            });
            walls.traced.push(ms);
            runner.after_iteration()?;
            tally(&mut checker, result, &mut failed);
        }

        let (result, ms) = wall_ms(|| runner.run_twin());
        if let Some(result) = result.transpose() {
            walls.twin.push(ms);
            tally(&mut checker, result, &mut failed);
        }
    }
    let (spans, counts) = tracer.finish();
    let shown: Vec<_> = spans
        .iter()
        .filter(|s| s.iteration <= EXPORTED_ITERATIONS)
        .cloned()
        .collect();
    let path = target.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, trace::chrome_trace(&shown))
        .map_err(|e| BenchError::Io(format!("{}: {e}", path.display())))?;
    eprintln!(
        "[{}] self time by layer ({} spans; first {EXPORTED_ITERATIONS} iterations in {}):\n{}",
        w.name(),
        spans.len(),
        path.display(),
        metrics::self_time_table(&spans, &walls)
    );
    let attempted = (walls.plain.len() + walls.traced.len() + walls.twin.len()) as u64;
    Ok(RunResult {
        attempted,
        failed,
        metrics: metrics::per_layer(w, &spans, &counts, &walls),
    })
}

/// Runs every workload in a child process (`--repeat` times, the order
/// reversed on every other round) and prints the results. Returns
/// whether every child succeeded with correct output.
fn suite(args: &Args) -> Result<bool, BenchError> {
    let exe = std::env::current_exe().map_err(|e| BenchError::Io(e.to_string()))?;
    let mut results: Vec<Vec<RunResult>> = vec![Vec::new(); Workload::ALL.len()];
    let mut ok = true;
    for round in 0..args.repeat {
        let mut order: Vec<usize> = (0..Workload::ALL.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let w = Workload::ALL[i];
            let out = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| BenchError::Child(format!("{}: {e}", w.name())))?;
            match RunResult::from_text(&String::from_utf8_lossy(&out.stdout)) {
                Ok(r) => {
                    ok &= out.status.success() && r.correct();
                    results[i].push(r);
                }
                Err(e) => {
                    ok = false;
                    eprintln!("{}: no result ({}): {e}", w.name(), out.status);
                }
            }
        }
    }
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    println!("{}", table(&names, &results));
    if args.repeat > 1 {
        println!("{}", spreads(&results));
    }
    Ok(ok)
}

/// Metrics down, workloads across (each workload's last round).
fn table(names: &[(&str, &str)], results: &[Vec<RunResult>]) -> String {
    use std::fmt::Write;
    let mut out = format!("{:<26} {:<7}", "metric", "unit");
    for w in Workload::ALL {
        let _ = write!(out, " {:>17}", w.name());
    }
    for (name, unit) in names {
        let _ = write!(out, "\n{name:<26} {unit:<7}");
        for runs in results {
            let _ = match runs.last().and_then(|r| r.get(name)) {
                Some(v) => write!(out, " {v:>17.4}"),
                None => write!(out, " {:>17}", "-"),
            };
        }
    }
    out.push_str("\nfailed iterations:              ");
    for runs in results {
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let _ = write!(out, " {failed:>17}");
    }
    out
}

/// Each (metric, workload) pair's spread across rounds — (max − min) ÷
/// median — against the metric's bound.
fn spreads(results: &[Vec<RunResult>]) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "{:<18} {:<12} {:>9} {:>7}  verdict",
        "workload", "metric", "spread", "bound"
    );
    for (w, runs) in Workload::ALL.iter().zip(results) {
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.get(m.name)).collect();
            if values.len() < 2 {
                continue;
            }
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let spread = (hi - lo) / stats::median(&values);
            let verdict = if spread <= m.bound {
                "ok"
            } else {
                "UNRESOLVED"
            };
            let _ = write!(
                out,
                "\n{:<18} {:<12} {:>8.1}% {:>6.0}%  {verdict}",
                w.name(),
                m.name,
                100.0 * spread,
                100.0 * m.bound
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, BenchError> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn single_run_flags_parse() {
        let a = args(&[
            "--workload",
            "gen_chat",
            "--seed",
            "11",
            "--seconds",
            "4",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::GenChat));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 4, true));
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        // A bare --trace is the traced suite.
        let bare = args(&["--trace", "--seed", "3"]).unwrap();
        assert!(bare.trace && bare.seed == 3);
        assert_eq!(args(&[]).unwrap().seconds, RUN_SECONDS);
    }

    #[test]
    fn bad_input_is_a_typed_error() {
        assert_eq!(
            args(&["--workload", "nope"]),
            Err(BenchError::UnknownWorkload("nope".into()))
        );
        assert!(matches!(args(&["--seed"]), Err(BenchError::Usage(_))));
        assert!(matches!(args(&["--seed", "x"]), Err(BenchError::Usage(_))));
        assert!(matches!(
            args(&["--workload", "gen_chat", "--seconds", "0"]),
            Err(BenchError::Usage(_))
        ));
        // The suite's run length is fixed.
        assert!(matches!(
            args(&["--seconds", "4"]),
            Err(BenchError::Usage(_))
        ));
        assert!(matches!(args(&["--frob"]), Err(BenchError::Usage(_))));
        assert!(matches!(
            args(&["--repeat", "2", "--trace"]),
            Err(BenchError::Usage(_))
        ));
    }
}
