//! The generative-serving scenario runner behind
//! `topsexec serve --generative` and `topsexec top --generative`.
//!
//! The continuous batcher compiles each (phase, batch bucket, context
//! bucket) session the first time a step asks for it, through the
//! shared [`SessionCache`], so a run compiles only the sessions it
//! uses. Compiled latencies are a pure function of (graph, chip,
//! placement, compiler config), so cache temperature changes only
//! wall-clock, never the report.

use crate::{HarnessError, SessionCache};
use dtu::Accelerator;
use dtu_models::{GenerativeConfig, GenerativeModel};
use dtu_serve::{
    run_generative, run_generative_live, CompiledTokenModel, GenMonitor, GenOutcome,
    GenerativeScenario, ServeError,
};

/// Runs one generative serving scenario end-to-end: the continuous
/// batcher, which checks the scenario first, against a token model that
/// compiles through `cache`, with `mon` riding along when one is
/// supplied.
///
/// The returned outcome is byte-identical for any prior cache contents
/// and with or without a monitor (monitoring is strictly
/// observational).
///
/// # Errors
///
/// [`HarnessError::Config`] for a scenario
/// [`GenerativeScenario::validate`] rejects, before anything compiles;
/// compile or simulation failures, wrapped as [`HarnessError::Job`].
pub fn run_generative_serve(
    accel: &Accelerator,
    config: &GenerativeConfig,
    scenario: &GenerativeScenario,
    cache: &SessionCache,
    mon: Option<&mut GenMonitor>,
) -> Result<GenOutcome, HarnessError> {
    let workload = GenerativeModel::new(*config, scenario.prompt_tokens);
    let mut model =
        CompiledTokenModel::new(accel.chip(), workload, scenario.prompt_tokens).with_source(cache);
    let out = match mon {
        Some(mon) => run_generative_live(scenario, &mut model, mon),
        None => run_generative(scenario, &mut model),
    };
    out.map_err(|e| match e {
        ServeError::Config(_) => HarnessError::Config(e.to_string()),
        e => HarnessError::Job {
            label: "generative".into(),
            message: e.to_string(),
        },
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
    fn live_monitoring_is_observational() {
        let accel = Accelerator::cloudblazer_i20();
        let sc = scenario();
        let cfg = GenerativeConfig::tiny();
        let plain_cache = SessionCache::memory_only();
        let plain = run_generative_serve(&accel, &cfg, &sc, &plain_cache, None).unwrap();
        let live_cache = SessionCache::memory_only();
        let mut mon = GenMonitor::with_defaults();
        let live = run_generative_serve(&accel, &cfg, &sc, &live_cache, Some(&mut mon)).unwrap();
        assert_eq!(plain.report.to_json(), live.report.to_json());
        assert_eq!(plain.trace, live.trace);
        assert!(mon.completions.total() > 0.0, "monitor saw the run");
    }

    /// Every rule `run_generative` enforces, one row per bad value: each
    /// is a config error naming the field and the value, before
    /// anything compiles.
    #[test]
    fn bad_scenario_is_rejected_before_anything_compiles() {
        let accel = Accelerator::cloudblazer_i20();
        let cfg = GenerativeConfig::tiny();
        let with = |edit: &dyn Fn(&mut GenerativeScenario)| {
            let mut sc = scenario();
            edit(&mut sc);
            sc
        };
        let rows = [
            (
                with(&|sc| sc.ttft_deadline_ms = -1.0),
                "ttft_deadline_ms must be positive (inf for none), got -1",
            ),
            (
                with(&|sc| sc.max_concurrency = 0),
                "max_concurrency must be at least 1, got 0",
            ),
            (
                with(&|sc| sc.min_new_tokens = 0),
                "min_new_tokens must be at least 1, got 0",
            ),
            (
                with(&|sc| (sc.min_new_tokens, sc.max_new_tokens) = (8, 4)),
                "max_new_tokens must be at least min_new_tokens (8), got 4",
            ),
        ];
        for (sc, want) in rows {
            let cache = SessionCache::memory_only();
            let err = run_generative_serve(&accel, &cfg, &sc, &cache, None).unwrap_err();
            assert!(matches!(err, HarnessError::Config(_)), "{err}");
            assert!(err.to_string().contains(want), "{err}");
            assert_eq!(cache.stats().misses, 0, "`{want}`: nothing compiled");
        }
    }

    /// The disk-tier twin of `tests/generative.rs`'s memory-tier check:
    /// the warm run loads every session from its JSON artifact.
    #[test]
    fn outcome_is_byte_identical_across_cache_temperature() {
        let dir = std::env::temp_dir().join(format!("dtu-genserve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let accel = Accelerator::cloudblazer_i20();
        let sc = scenario();
        let cfg = GenerativeConfig::tiny();
        let cache = SessionCache::with_disk(&dir);
        let cold = run_generative_serve(&accel, &cfg, &sc, &cache, None).unwrap();
        let compiled = cache.stats();
        assert!(compiled.misses > 0);
        // A fresh process: memory gone, disk intact.
        cache.clear_memory();
        let warm = run_generative_serve(&accel, &cfg, &sc, &cache, None).unwrap();
        let reloaded = cache.stats().delta_since(compiled);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(reloaded.misses, 0, "warm run compiled nothing");
        assert!(reloaded.disk_hits > 0, "warm run read the disk tier");
        assert_eq!(cold.report.to_json(), warm.report.to_json());
        assert_eq!(cold.trace, warm.trace);
        assert!(cold.report.completed > 0);
        assert!(cold.report.balanced());
    }
}
