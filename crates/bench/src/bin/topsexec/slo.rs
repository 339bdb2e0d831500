//! `topsexec slo`: SLO compliance over self-calibrating serving runs.

use crate::{accelerator, chip_config, grid, harness_failure, write_dump, Outcome};
use dtu_bench::cli::{self, Args};
use dtu_harness::{run_slo_scenario, run_slo_sweep, slo_point_seed, SloScenario};

pub fn run(args: &Args) -> Outcome {
    let accel = accelerator(chip_config(args))?;
    let grid = grid(args);
    let plans: Vec<String> = args.list("--plans");
    let plans: Vec<&str> = plans.iter().map(String::as_str).collect();
    let severities: Vec<f64> = args.list("--severities");
    let seed: u64 = args.get("--seed");
    let cache = cli::session_cache(args);
    let jobs = cli::jobs(args);
    let scenario = SloScenario::default();

    let started = std::time::Instant::now();
    let report = run_slo_sweep(
        &accel,
        &grid,
        &plans,
        &severities,
        seed,
        &scenario,
        &cache,
        jobs,
    )
    .map_err(harness_failure)?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // The report is schedule-independent and goes to stdout, so two
    // runs of the same grid and seed are byte-identical; wall-clock
    // chatter stays on stderr.
    match args.get::<String>("--format").as_str() {
        "table" => print!("{}", report.to_table()),
        _ => println!("{}", report.to_json()),
    }
    eprintln!(
        "[slo] {} points ({} models x {} plans x {} severities) on {jobs} workers in \
         {elapsed_ms:.0} ms; compliance {:.1}%; cache: {} memory + {} disk hits, {} misses",
        report.points.len(),
        report.models.len(),
        report.plans.len(),
        report.severities.len(),
        report.compliance() * 100.0,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );

    if let Some(path) = args.opt::<String>("--flight-out") {
        // Re-run the first grid point with its content-derived seed
        // (warm cache, so this is cheap) to recover the monitor and
        // its flight recorder.
        let point_seed = slo_point_seed(grid[0].name(), plans[0], severities[0], seed);
        let (_, mut mon) = run_slo_scenario(
            &accel,
            &grid[0],
            plans[0],
            severities[0],
            point_seed,
            &scenario,
            &cache,
        )
        .map_err(harness_failure)?;
        if mon.flight.dumps().is_empty() {
            // Nothing went wrong: snapshot the ring at end of run so
            // the flag always produces a trace.
            let end_ns = mon.now_ns();
            mon.flight.trigger("end-of-run snapshot", end_ns);
        }
        write_dump("slo", &path, &mon.flight.dumps()[0])?;
    }
    Ok(())
}
