//! The generative-serving scenario runner behind
//! `topsexec serve --generative`.
//!
//! A continuous-batching run touches a small, *predictable* set of
//! compiled sessions: prefill at each power-of-two batch bucket, and
//! decode at each (batch bucket, context bucket) the token range can
//! reach. [`gen_session_grid`] enumerates that closure and
//! [`run_generative_serve`] pre-compiles it through the shared
//! [`SessionCache`] on `jobs` workers *before* the (single-threaded,
//! deterministic) engine runs. Because compiled latencies are a pure
//! function of (graph, chip, placement, compiler config), warming the
//! cache in any order — or not at all — yields byte-identical reports:
//! `--jobs` and cache temperature only change wall-clock, exactly like
//! every other sweep in this crate.

use crate::{ExperimentPlan, HarnessError, SessionCache};
use dtu::Accelerator;
use dtu_compiler::Fnv1a;
use dtu_models::{GenerativeConfig, GenerativeModel};
use dtu_serve::{
    run_generative, run_generative_live, CompiledTokenModel, GenMonitor, GenOutcome,
    GenerativeScenario, TokenModel,
};

/// The compiled-session closure of a generative scenario: every
/// `(phase, batch_bucket, context_bucket)` the engine can request.
/// Phase is `"prefill"` (context bucket = 0) or `"decode"`.
///
/// Batch buckets are the powers of two up to the concurrency cap;
/// decode context buckets are the powers of two from the first decode
/// context (prompt + 1) to the largest reachable (prompt + max new
/// tokens).
pub fn gen_session_grid(sc: &GenerativeScenario) -> Vec<(&'static str, usize, usize)> {
    let mut grid = Vec::new();
    let max_batch = sc.max_concurrency.max(1).next_power_of_two();
    let mut batch = 1usize;
    while batch <= max_batch {
        grid.push(("prefill", batch, 0));
        let first_ctx = (sc.prompt_tokens + 1).next_power_of_two();
        let last_ctx = (sc.prompt_tokens + sc.max_new_tokens.max(1)).next_power_of_two();
        let mut ctx = first_ctx;
        while ctx <= last_ctx {
            grid.push(("decode", batch, ctx));
            ctx *= 2;
        }
        batch *= 2;
    }
    grid
}

/// Runs one generative serving scenario end-to-end: checks the
/// scenario, warms the session grid through `cache` on `jobs` workers,
/// then runs the continuous batcher against the compiled token model,
/// with `mon` riding along when one is supplied.
///
/// The returned outcome is byte-identical for any `jobs` value, any
/// prior cache contents, and with or without a monitor (monitoring is
/// strictly observational).
///
/// # Errors
///
/// [`HarnessError::Config`] for a scenario
/// [`GenerativeScenario::validate`] rejects, before anything compiles;
/// compile or simulation failures from any session, wrapped as
/// [`HarnessError::Job`] with the offending (phase, batch, context)
/// label.
pub fn run_generative_serve(
    accel: &Accelerator,
    config: &GenerativeConfig,
    scenario: &GenerativeScenario,
    cache: &SessionCache,
    jobs: usize,
    mon: Option<&mut GenMonitor>,
) -> Result<GenOutcome, HarnessError> {
    scenario
        .validate()
        .map_err(|e| HarnessError::Config(e.to_string()))?;
    let workload = GenerativeModel::new(*config, scenario.prompt_tokens);

    // Warm-up: compile the whole session grid in parallel into the
    // shared cache. Each point uses a throwaway token model; only the
    // cached programs survive, and the engine below recompiles nothing.
    if jobs > 1 {
        let mut plan: ExperimentPlan<'_, ()> = ExperimentPlan::new();
        for (phase, batch, ctx) in gen_session_grid(scenario) {
            let mut key = Fnv1a::new();
            key.write_str("genserve/");
            key.write_str(phase);
            key.write_u64(batch as u64);
            key.write_u64(ctx as u64);
            let label = format!("{phase} b{batch} c{ctx}");
            let prompt = scenario.prompt_tokens;
            plan.add_point(key.finish(), label.clone(), &[], move |_| {
                let mut m =
                    CompiledTokenModel::new(accel.chip(), workload, prompt).with_source(cache);
                let r = match phase {
                    "prefill" => m.prefill_ms(batch, prompt),
                    _ => m.decode_ms(batch, ctx),
                };
                r.map(|_| ()).map_err(|e| HarnessError::Job {
                    label: label.clone(),
                    message: e.to_string(),
                })
            });
        }
        for result in plan.run(jobs) {
            result?;
        }
    }

    // The run itself is single-threaded and deterministic; every
    // session it asks for is already in the cache.
    let mut model =
        CompiledTokenModel::new(accel.chip(), workload, scenario.prompt_tokens).with_source(cache);
    let out = match mon {
        Some(mon) => run_generative_live(scenario, &mut model, mon),
        None => run_generative(scenario, &mut model),
    };
    out.map_err(|e| HarnessError::Job {
        label: "generative".into(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_serve::{ArrivalProcess, KvCacheConfig};

    fn scenario() -> GenerativeScenario {
        let cfg = GenerativeConfig::tiny();
        GenerativeScenario {
            duration_ms: 40.0,
            seed: 7,
            arrival: ArrivalProcess::Poisson { qps: 400.0 },
            prompt_tokens: 32,
            min_new_tokens: 2,
            max_new_tokens: 12,
            max_concurrency: 4,
            queue_depth: 64,
            ttft_deadline_ms: f64::INFINITY,
            tpot_deadline_ms: f64::INFINITY,
            kv: KvCacheConfig::for_chip(&dtu_sim::ChipConfig::dtu20(), cfg.kv_bytes_per_token()),
        }
    }

    #[test]
    fn session_grid_covers_the_reachable_buckets() {
        let grid = gen_session_grid(&scenario());
        // Batch buckets 1, 2, 4; prefill + decode contexts 64 (33..=44
        // rounds to 64) per batch.
        assert!(grid.contains(&("prefill", 1, 0)));
        assert!(grid.contains(&("prefill", 4, 0)));
        assert!(grid.contains(&("decode", 4, 64)));
        assert!(!grid.iter().any(|&(_, b, _)| b > 4));
    }

    #[test]
    fn live_monitoring_is_observational_across_jobs() {
        let accel = Accelerator::cloudblazer_i20();
        let sc = scenario();
        let cfg = GenerativeConfig::tiny();
        let plain_cache = SessionCache::memory_only();
        let plain = run_generative_serve(&accel, &cfg, &sc, &plain_cache, 1, None).unwrap();
        let live_cache = SessionCache::memory_only();
        let mut mon = GenMonitor::with_defaults();
        let live = run_generative_serve(&accel, &cfg, &sc, &live_cache, 4, Some(&mut mon)).unwrap();
        assert_eq!(plain.report.to_json(), live.report.to_json());
        assert_eq!(plain.trace, live.trace);
        assert!(mon.completions.total() > 0.0, "monitor saw the run");
    }

    #[test]
    fn bad_scenario_is_rejected_before_the_warm_up() {
        let accel = Accelerator::cloudblazer_i20();
        let cfg = GenerativeConfig::tiny();
        let mut sc = scenario();
        sc.ttft_deadline_ms = -1.0;
        let cache = SessionCache::memory_only();
        let err = run_generative_serve(&accel, &cfg, &sc, &cache, 2, None).unwrap_err();
        assert!(matches!(err, HarnessError::Config(_)), "{err}");
        assert!(err.to_string().contains("ttft_deadline_ms"), "{err}");
        assert_eq!(cache.stats().misses, 0, "nothing compiled");
    }

    #[test]
    fn outcome_is_byte_identical_across_jobs_and_cache_temperature() {
        let accel = Accelerator::cloudblazer_i20();
        let sc = scenario();
        let cfg = GenerativeConfig::tiny();
        let cold = SessionCache::memory_only();
        let a = run_generative_serve(&accel, &cfg, &sc, &cold, 1, None).unwrap();
        let warm = SessionCache::memory_only();
        let _ = run_generative_serve(&accel, &cfg, &sc, &warm, 4, None).unwrap();
        let b = run_generative_serve(&accel, &cfg, &sc, &warm, 4, None).unwrap();
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.trace, b.trace);
        assert!(a.report.completed > 0);
        assert!(a.report.balanced());
    }
}
