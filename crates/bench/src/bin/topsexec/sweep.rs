//! `topsexec sweep`: a model x batch grid on the parallel experiment
//! engine, or the fig. 12-15 golden-figure gate.

use crate::{accelerator, chip_config, grid, harness_failure, write_file, Failure, Outcome};
use dtu_bench::cli::{self, Args};
use dtu_harness::run_sweep;

/// The `--write-golden` / `--check-golden` modes: regenerate the fig.
/// 12–15 figure data through the shared cache and either commit it as
/// the golden or gate against it at [`dtu_harness::GOLDEN_RTOL`].
fn golden(args: &Args, write: Option<String>, check: Option<String>) -> Outcome {
    let regenerated = dtu_bench::figures_json(&cli::session_cache(args), cli::jobs(args));
    let path = match (write, check) {
        (Some(path), None) => {
            write_file(&path, format!("{regenerated}\n"))?;
            println!("golden figures written to {path}");
            return Ok(());
        }
        (None, Some(path)) => path,
        _ => {
            return Err(Failure::Input(
                "--check-golden and --write-golden are mutually exclusive".into(),
            ))
        }
    };
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| Failure::Run(format!("cannot read golden {path}: {e}")))?;
    dtu_harness::compare_golden(golden.trim_end(), &regenerated, dtu_harness::GOLDEN_RTOL)
        .map_err(|e| {
            Failure::Run(format!(
                "golden figure regression against {path}: {e}\n\
                 if the change is intentional, regenerate with\n\
                 \x20 topsexec sweep --write-golden {path}\n\
                 and commit the diff (see docs/CLI.md)"
            ))
        })?;
    println!("golden figures OK: {path} matches within 1e-9 relative tolerance");
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let accel = accelerator(chip_config(args))?;
    let (write, check) = (args.opt("--write-golden"), args.opt("--check-golden"));
    if write.is_some() || check.is_some() {
        return golden(args, write, check);
    }
    let cache = cli::session_cache(args);
    let jobs = cli::jobs(args);
    let batches: Vec<usize> = args.list("--batches");
    let started = std::time::Instant::now();
    let report = run_sweep(&accel, &grid(args), &batches, &cache, jobs).map_err(harness_failure)?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // The report itself is schedule-independent and goes to stdout;
    // anything wall-clock-dependent stays on stderr so json output can
    // be compared byte-for-byte between runs.
    match args.get::<String>("--format").as_str() {
        "json" => println!("{}", report.to_json()),
        _ => print!("{}", report.to_table()),
    }
    eprintln!(
        "[sweep] {} points ({} models x {} batches) on {jobs} workers \
         in {wall_ms:.0} ms; cache: {} memory + {} disk hits, {} misses",
        report.points.len(),
        report.models.len(),
        report.batches.len(),
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );
    Ok(())
}
