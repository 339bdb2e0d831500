//! `topsexec serve`: the multi-tenant dynamic-batching scenario, and
//! the scenario set-up `top` shares with it.

use crate::{accelerator, arrival, chip_config, models, write_file, Failure, Outcome};
use dtu::serve::{
    faults::FaultPlan, run_serving, BatchPolicy, CompiledModel, RequestOutcome, ScalePolicy,
    ServeConfig, ServeError, ServiceModel, SlaPolicy, TenantSpec,
};
use dtu::telemetry::chrome;
use dtu::Accelerator;
use dtu_bench::cli::{self, Args};
use dtu_harness::SessionCache;

/// Every `--models` entry compiled through `cache` on `accel`.
pub fn compiled<'c>(
    args: &Args,
    accel: &'c Accelerator,
    cache: &'c SessionCache,
) -> Vec<CompiledModel<'c>> {
    models(args)
        .into_iter()
        .map(|(name, m)| {
            CompiledModel::new(accel.chip(), name, move |b| m.build(b)).with_source(cache)
        })
        .collect()
}

/// The scenario `serve` and `top` run: one tenant per model, named by
/// `names`, under the flags' arrival, batching, SLA and scaling
/// policies, with `faults` injected.
pub fn scenario(
    args: &Args,
    accel: &Accelerator,
    names: Vec<String>,
    faults: FaultPlan,
) -> ServeConfig {
    let max_batch: usize = args.get("--max-batch");
    let deadline: f64 = args.get("--deadline");
    let gpc = accel.config().groups_per_cluster;
    ServeConfig {
        duration_ms: args.get("--duration"),
        seed: args.get("--seed"),
        record_requests: false,
        faults,
        retry: Default::default(),
        tenants: names
            .into_iter()
            .enumerate()
            .map(|(model, name)| TenantSpec {
                name,
                model,
                arrival: arrival(args),
                batch: BatchPolicy::dynamic(max_batch, args.get("--batch-timeout")),
                sla: SlaPolicy::new(deadline, args.get("--queue-depth")),
                scale: if args.switch("--no-autoscale") {
                    ScalePolicy::none()
                } else {
                    ScalePolicy::elastic(deadline / 4.0, deadline / 20.0, gpc)
                },
                cluster: None,
                initial_groups: 1,
            })
            .collect(),
    }
}

/// A serving error: a rejected scenario is bad input.
pub fn serve_failure(e: ServeError) -> Failure {
    match e {
        ServeError::Config(_) => Failure::Input(e.to_string()),
        e => Failure::Run(e.to_string()),
    }
}

pub fn run(args: &Args) -> Outcome {
    let accel = accelerator(chip_config(args))?;
    // The artifact cache outlives the per-tenant models so every
    // tenant compiles through it — and, with the disk tier on, reuses
    // sessions a previous `serve` or `sweep` run already lowered.
    let cache = cli::session_cache(args);
    let mut models = compiled(args, &accel, &cache);
    let names = (0..models.len()).map(|i| format!("tenant{i}")).collect();
    // A .json trace goes through the telemetry exporter (request/batch
    // spans on the shared clock); anything else stays JSONL.
    let trace: Option<String> = args.opt("--trace-out");
    let chrome_trace = trace.as_deref().is_some_and(|p| p.ends_with(".json"));
    let mut cfg = scenario(args, &accel, names, FaultPlan::default());
    // Request spans need the per-request outcomes.
    cfg.record_requests = chrome_trace;

    let mut refs: Vec<&mut dyn ServiceModel> = models
        .iter_mut()
        .map(|m| m as &mut dyn ServiceModel)
        .collect();
    let out = run_serving(&cfg, accel.config(), &mut refs).map_err(serve_failure)?;

    // The header waits for the run, so a rejected scenario prints
    // nothing on stdout.
    let qps: f64 = args.get("--qps");
    let bursty = args.switch("--bursty");
    println!("=== topsexec serve ===");
    println!("accelerator : {accel}");
    println!(
        "tenants     : {} ({}), {qps:.0} qps each{}, {:.0} ms horizon",
        cfg.tenants.len(),
        args.list::<String>("--models").join(", "),
        if bursty { " (bursty)" } else { "" },
        cfg.duration_ms
    );
    println!(
        "policies    : max batch {}, timeout {:.1} ms, deadline {:.0} ms, queue cap {}, autoscale {}",
        args.get::<usize>("--max-batch"),
        args.get::<f64>("--batch-timeout"),
        args.get::<f64>("--deadline"),
        args.get::<usize>("--queue-depth"),
        if args.switch("--no-autoscale") { "off" } else { "on" }
    );
    println!("\n--- report ---");
    print!("{}", out.report);
    println!("\n--- session cache ---");
    for m in &models {
        let s = m.cache_stats();
        println!(
            "  {}: {} sessions compiled, {} hits / {} misses",
            m.name(),
            m.cached_sessions(),
            s.hits,
            s.misses
        );
    }
    let s = cache.stats();
    println!(
        "  shared artifacts: {} memory + {} disk hits, {} misses",
        s.memory_hits, s.disk_hits, s.misses
    );

    if let Some(path) = &trace {
        if chrome_trace {
            let mut spans = out.trace.to_spans();
            spans.extend(out.requests.iter().map(RequestOutcome::to_span));
            write_file(path, chrome::export(&spans, true))?;
        } else {
            write_file(path, out.trace.to_jsonl())?;
        }
        println!("\ntrace written to {path} ({} events)", out.trace.len());
    }
    Ok(())
}
