//! `topsexec faults`: the model x fault-plan x severity degradation
//! grid.

use crate::{accelerator, chip_config, grid, harness_failure, Outcome};
use dtu_bench::cli::{self, Args};
use dtu_harness::run_fault_sweep;

pub fn run(args: &Args) -> Outcome {
    let accel = accelerator(chip_config(args))?;
    let plans: Vec<String> = args.list("--plans");
    let plans: Vec<&str> = plans.iter().map(String::as_str).collect();
    let severities: Vec<f64> = args.list("--severities");
    let cache = cli::session_cache(args);
    let jobs = cli::jobs(args);

    let started = std::time::Instant::now();
    let report = run_fault_sweep(
        &accel,
        &grid(args),
        &plans,
        &severities,
        args.get("--seed"),
        &cache,
        jobs,
    )
    .map_err(harness_failure)?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // Like `sweep`: the report is schedule-independent and goes to
    // stdout, so two runs of the same grid and seed are byte-identical;
    // wall-clock chatter stays on stderr.
    match args.get::<String>("--format").as_str() {
        "table" => print!("{}", report.to_table()),
        _ => println!("{}", report.to_json()),
    }
    eprintln!(
        "[faults] {} points ({} models x {} plans x {} severities) on {jobs} workers in \
         {elapsed_ms:.0} ms; availability {:.1}%; cache: {} memory + {} disk hits, {} misses",
        report.points.len(),
        report.models.len(),
        report.plans.len(),
        report.severities.len(),
        report.availability() * 100.0,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );
    Ok(())
}
