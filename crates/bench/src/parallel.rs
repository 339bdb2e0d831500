//! Harness-backed evaluation: deduplicated parallel grid evaluation for
//! the `repro_*` binaries that simulate.
//!
//! Each of them parses the same three flags through [`crate::cli::REPRO`]
//! (`--jobs`, `--cache-dir`, `--no-disk-cache`), builds one
//! [`SessionCache`], and routes its experiment points through an
//! `ExperimentPlan` so identical (chip, model, batch) points are
//! simulated once and compiled sessions are shared — within a run via
//! the in-memory tier and across runs via the on-disk artifact tier.

use crate::LatencyRow;
use dtu::{Accelerator, ChipConfig, SessionOptions};
use dtu_compiler::Fnv1a;
use dtu_harness::{ExperimentPlan, HarnessError, SessionCache};
use dtu_models::Model;
use gpu_baseline::{PlatformSpec, RooflineModel};

/// One (chip, model, batch) point of an experiment grid.
#[derive(Debug, Clone)]
pub struct ChipPoint {
    /// Chip configuration the point runs on.
    pub cfg: ChipConfig,
    /// Model to evaluate.
    pub model: Model,
    /// Batch size (0 is treated as 1).
    pub batch: usize,
}

impl ChipPoint {
    /// A batch-1 point.
    pub fn new(cfg: ChipConfig, model: Model) -> Self {
        ChipPoint {
            cfg,
            model,
            batch: 1,
        }
    }
}

/// Content key of one grid point: structural chip config + model + batch.
fn point_key(cfg: &ChipConfig, model: Model, batch: usize) -> u64 {
    let mut key = Fnv1a::new();
    key.write_str("chip-point/");
    key.write_debug(cfg);
    key.write_str(model.name());
    key.write_u64(batch as u64);
    key.finish()
}

/// Compile (through `cache`) and simulate one grid point.
fn point_latency_ms(
    cfg: &ChipConfig,
    model: Model,
    batch: usize,
    cache: &SessionCache,
) -> Result<f64, HarnessError> {
    let accel = Accelerator::with_config(cfg.clone())?;
    let graph = model.build(batch.max(1));
    let options = if batch > 1 {
        SessionOptions::batched(batch)
    } else {
        SessionOptions::default()
    };
    let (session, _) = cache.compile_session(&accel, &graph, &options)?;
    Ok(session.run()?.latency_ms())
}

/// Evaluates every point's latency (ms) on `jobs` workers, compiling
/// through `cache`. Results align with `points` by index; duplicated
/// points are planned — and simulated — once.
///
/// # Panics
///
/// Panics on compile/run failure, like the rest of the harness: a
/// point that cannot run is an experiment-setup bug.
pub fn chip_latencies(points: &[ChipPoint], cache: &SessionCache, jobs: usize) -> Vec<f64> {
    let mut plan: ExperimentPlan<'_, f64> = ExperimentPlan::new();
    let ids: Vec<_> = points
        .iter()
        .map(|p| {
            let (cfg, model, batch) = (p.cfg.clone(), p.model, p.batch);
            let label = format!("{} b{} on {}", model.name(), batch.max(1), cfg.name);
            plan.add_point(point_key(&cfg, model, batch), label, &[], move |_| {
                point_latency_ms(&cfg, model, batch, cache)
            })
        })
        .collect();
    let results = plan.run(jobs);
    ids.iter()
        .map(|id| match &results[id.index()] {
            Ok(ms) => *ms,
            Err(e) => panic!("experiment point failed: {e}"),
        })
        .collect()
}

/// Evaluates one model on all three platforms through `cache` (batch 1,
/// FP16 — the Fig. 13 configuration).
fn try_evaluate_model(model: Model, cache: &SessionCache) -> Result<LatencyRow, HarnessError> {
    let roofline_err = |gpu: &str, e: &dyn std::fmt::Display| HarnessError::Job {
        label: model.name().to_string(),
        message: format!("{gpu} estimate failed: {e}"),
    };
    let graph = model.build(1);
    let t4 = RooflineModel::t4()
        .estimate(&graph)
        .map_err(|e| roofline_err("T4", &e))?;
    let a10 = RooflineModel::a10()
        .estimate(&graph)
        .map_err(|e| roofline_err("A10", &e))?;
    Ok(LatencyRow {
        model,
        i20_ms: point_latency_ms(&ChipConfig::dtu20(), model, 1, cache)?,
        t4_ms: t4.latency_ms,
        a10_ms: a10.latency_ms,
    })
}

/// Evaluates the full Table III suite on `jobs` workers, compiling
/// through `cache`. Row order matches [`Model::ALL`].
///
/// # Panics
///
/// As for [`chip_latencies`].
pub fn evaluate_suite_with(cache: &SessionCache, jobs: usize) -> Vec<LatencyRow> {
    let mut plan: ExperimentPlan<'_, LatencyRow> = ExperimentPlan::new();
    let ids: Vec<_> = Model::ALL
        .iter()
        .map(|&m| {
            let mut key = Fnv1a::new();
            key.write_str("suite/");
            key.write_str(m.name());
            plan.add_point(key.finish(), m.name().to_string(), &[], move |_| {
                try_evaluate_model(m, cache)
            })
        })
        .collect();
    let results = plan.run(jobs);
    ids.iter()
        .map(|id| match &results[id.index()] {
            Ok(row) => row.clone(),
            Err(e) => panic!("suite evaluation failed: {e}"),
        })
        .collect()
}

/// The four Table IV platform sheets, in the order the spec-table
/// binaries destructure them: (i10, i20, T4, A10).
pub fn platform_specs() -> (PlatformSpec, PlatformSpec, PlatformSpec, PlatformSpec) {
    (
        gpu_baseline::i10_spec(),
        gpu_baseline::i20_spec(),
        gpu_baseline::t4_spec(),
        gpu_baseline::a10_spec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_latencies_dedups_identical_points() {
        let cache = SessionCache::memory_only();
        let points = vec![
            ChipPoint::new(ChipConfig::dtu20(), Model::Resnet50),
            ChipPoint::new(ChipConfig::dtu20(), Model::Resnet50),
        ];
        let lat = chip_latencies(&points, &cache, 2);
        assert_eq!(lat.len(), 2);
        assert_eq!(lat[0], lat[1]);
        assert!(lat[0] > 0.0);
        // One planned point, one compile: the duplicate never reached
        // the cache, let alone the simulator.
        assert_eq!(cache.stats().lookups(), 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn chip_latencies_matches_serial_helper() {
        let cache = SessionCache::memory_only();
        let points = vec![ChipPoint::new(ChipConfig::dtu20(), Model::Resnet50)];
        let lat = chip_latencies(&points, &cache, 1);
        assert_eq!(
            lat[0],
            crate::chip_latency_ms(ChipConfig::dtu20(), Model::Resnet50, 1)
        );
    }
}
