//! `topsexec serve --generative`: continuous-batching LLM serving, and
//! the set-up `top --generative` shares with it.

use crate::{
    accelerator, arrival, chip_config, harness_failure, write_dump, write_file, Failure, Outcome,
};
use dtu::serve::{GenLiveConfig, GenMonitor, GenerativeScenario, KvCacheConfig};
use dtu::telemetry::{chrome, SloSpec};
use dtu::Accelerator;
use dtu_bench::cli::{self, Args};
use dtu_models::GenerativeConfig;

/// The accelerator, transformer and scenario both generative commands
/// run.
pub fn setup(args: &Args) -> Result<(Accelerator, GenerativeConfig, GenerativeScenario), Failure> {
    let gen_cfg = cli::gen_model_by_name(&args.get::<String>("--gen-model"))
        .expect("--gen-model passed its kind");
    let accel = accelerator(chip_config(args))?;
    let kv = KvCacheConfig::for_chip_with_budget(
        accel.config(),
        gen_cfg.kv_bytes_per_token(),
        args.get("--kv-budget"),
    );
    let scenario = GenerativeScenario {
        duration_ms: args.get("--duration"),
        seed: args.get("--seed"),
        arrival: arrival(args),
        prompt_tokens: args.get("--prompt"),
        min_new_tokens: args.get("--min-new"),
        max_new_tokens: args.get("--max-new"),
        max_concurrency: args.get("--max-concurrency"),
        queue_depth: args.get("--queue-depth"),
        ttft_deadline_ms: args.get("--ttft-deadline"),
        tpot_deadline_ms: args.get("--tpot-deadline"),
        kv,
    };
    Ok((accel, gen_cfg, scenario))
}

/// The deadline-derived burn-rate objectives of a generative run: a
/// p99 objective per finite deadline (an infinite deadline means "no
/// SLO", matching the engine's violation accounting).
pub fn live_config(args: &Args, scenario: &GenerativeScenario) -> GenLiveConfig {
    let spec = |metric: &str, deadline_ms: f64| {
        deadline_ms.is_finite().then(|| {
            SloSpec::new(
                format!("{metric}_p99<{deadline_ms:.0}ms"),
                0.99,
                deadline_ms,
            )
        })
    };
    GenLiveConfig {
        ttft_slo: spec("ttft", scenario.ttft_deadline_ms),
        tpot_slo: spec("tpot", scenario.tpot_deadline_ms),
        tenant: args.get("--gen-model"),
    }
}

/// `topsexec serve --generative`.
pub fn serve(args: &Args) -> Outcome {
    let (accel, gen_cfg, scenario) = setup(args)?;
    let gen_model: String = args.get("--gen-model");
    eprintln!(
        "[serve --generative] {gen_model} ({} prompt tokens, {}..{} new), {:.0} qps{} over \
         {:.0} ms, concurrency {}, KV pool {} pages ({} L2-resident)",
        scenario.prompt_tokens,
        scenario.min_new_tokens,
        scenario.max_new_tokens,
        args.get::<f64>("--qps"),
        if args.switch("--bursty") {
            " (bursty)"
        } else {
            ""
        },
        scenario.duration_ms,
        scenario.max_concurrency,
        scenario.kv.total_pages,
        scenario.kv.l2_pages,
    );

    let cache = cli::session_cache(args);
    let trace: Option<String> = args.opt("--trace-out");
    let flight_out: Option<String> = args.opt("--flight-out");
    let chrome_trace = trace.as_deref().is_some_and(|p| p.ends_with(".json"));
    let slo = args.switch("--slo");
    let monitored = args.switch("--monitor") || slo || flight_out.is_some();
    let mut mon = monitored.then(|| GenMonitor::new(live_config(args, &scenario)));
    let started = std::time::Instant::now();
    // The monitor is observational, so stdout stays byte-identical to
    // the plain run.
    let out = dtu_harness::run_generative_serve(&accel, &gen_cfg, &scenario, &cache, mon.as_mut())
        .map_err(harness_failure)?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // The stdout payload is schedule-independent so two runs (warm or
    // cold cache, monitored or not) compare byte-for-byte; wall-clock
    // chatter stays on stderr.
    match (&mon, args.get::<String>("--format").as_str()) {
        (Some(mon), _) if slo => println!("{}", mon.compliance_json()),
        (_, "prom") => print!("{}", out.report.to_prometheus(&gen_model)),
        _ => println!("{}", out.report.to_json()),
    }
    let s = cache.stats();
    eprintln!(
        "[serve --generative] {} prefill + {} decode steps in {elapsed_ms:.0} ms; \
         cache: {} memory + {} disk hits, {} misses",
        out.report.prefill_steps, out.report.decode_steps, s.memory_hits, s.disk_hits, s.misses
    );
    if let Some(mon) = mon.as_mut() {
        for a in &mon.alerts {
            eprintln!(
                "[serve --generative] t={:.2}s {} alert `{}` (burn fast {:.1} / slow {:.1})",
                a.t_ns / 1e9,
                a.kind.name(),
                a.slo,
                a.burn_fast,
                a.burn_slow
            );
        }
        eprintln!(
            "[serve --generative] monitor: {} preemptions, {} kv exhaustions; \
             flight recorder: {} spans in ring, {} dumps ({} triggers)",
            mon.preempts.total() as u64,
            mon.exhausts.total() as u64,
            mon.flight.len(),
            mon.flight.dumps().len(),
            mon.flight.triggers()
        );
        if let Some(path) = &flight_out {
            if mon.flight.dumps().is_empty() {
                // Nothing went wrong: snapshot the ring at end of run
                // so the flag always produces a trace.
                let end_ns = mon.now_ns();
                mon.flight.trigger("end-of-run snapshot", end_ns);
            }
            // Prefer the KV-pressure dump (it names the preempted
            // request), then the first burn-rate page, then whatever
            // came first.
            let dumps = mon.flight.dumps();
            let dump = dumps
                .iter()
                .find(|d| d.reason.starts_with("kv-exhaustion"))
                .or_else(|| dumps.iter().find(|d| d.reason.starts_with("alert")))
                .unwrap_or(&dumps[0]);
            write_dump("serve --generative", path, dump)?;
        }
    }

    if let Some(path) = &trace {
        if chrome_trace {
            write_file(path, chrome::export(&out.trace.to_spans(), true))?;
        } else {
            write_file(path, out.trace.to_jsonl())?;
        }
        eprintln!(
            "[serve --generative] trace written to {path} ({} events)",
            out.trace.len()
        );
    }
    Ok(())
}
