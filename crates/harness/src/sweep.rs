//! The model × batch sweep runner behind `topsexec sweep`.
//!
//! A sweep evaluates every (model, batch) point of a grid through the
//! [`ExperimentPlan`] pool and the [`SessionCache`], then reports
//! per-point latency/throughput plus the sweep's own cache delta. The
//! report renders two ways:
//!
//! * [`SweepReport::to_json`] — the full machine-readable report.
//!   Deliberately free of wall-clock times, worker counts, and any
//!   other schedule-dependent quantity, so two runs of the same grid
//!   at the same cache temperature are **byte-identical** whatever
//!   `--jobs` was.
//! * [`SweepReport::points_json`] — just the numerical results (no
//!   cache provenance), identical even *across* cache temperatures;
//!   this is what the determinism tests compare between cold and warm
//!   runs.

use crate::{CacheStats, ExperimentPlan, HarnessError, SessionCache};
use dtu::{Accelerator, SessionOptions};
use dtu_compiler::Fnv1a;
use dtu_graph::Graph;
use dtu_telemetry::json::{array, number, JsonObject};

/// One model of the sweep grid: a name plus a batch → graph builder.
pub struct SweepModel<'m> {
    name: String,
    build: Box<dyn Fn(usize) -> Graph + Send + Sync + 'm>,
}

impl std::fmt::Debug for SweepModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepModel")
            .field("name", &self.name)
            .finish()
    }
}

impl<'m> SweepModel<'m> {
    /// A grid model whose graph is rebuilt per batch size.
    pub fn new(name: impl Into<String>, build: impl Fn(usize) -> Graph + Send + Sync + 'm) -> Self {
        SweepModel {
            name: name.into(),
            build: Box::new(build),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the model's graph at `batch`.
    pub fn build(&self, batch: usize) -> Graph {
        (self.build)(batch)
    }
}

/// The measured result of one (model, batch) grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// End-to-end latency of one batch, ms.
    pub latency_ms: f64,
    /// Samples per second at this batch.
    pub throughput_sps: f64,
    /// Energy per batch, joules.
    pub energy_j: f64,
    /// Where the compiled session came from (`memory`/`disk`/`miss`).
    pub cache: &'static str,
}

/// The outcome of a sweep: points in grid order plus the cache delta.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Model names, in grid order.
    pub models: Vec<String>,
    /// Batch sizes, in grid order.
    pub batches: Vec<usize>,
    /// One point per (model, batch), models-major.
    pub points: Vec<SweepPoint>,
    /// Cache hits/misses attributable to this sweep alone.
    pub cache: CacheStats,
}

impl SweepReport {
    /// The full deterministic JSON report (schedule-independent: no
    /// wall-clock, no worker count).
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(|p| point_json(p, true)).collect();
        JsonObject::new()
            .raw(
                "grid",
                &JsonObject::new()
                    .raw(
                        "models",
                        &array(
                            &self
                                .models
                                .iter()
                                .map(|m| format!("\"{}\"", dtu_telemetry::json::escape(m)))
                                .collect::<Vec<_>>(),
                        ),
                    )
                    .raw(
                        "batches",
                        &array(
                            &self
                                .batches
                                .iter()
                                .map(|b| b.to_string())
                                .collect::<Vec<_>>(),
                        ),
                    )
                    .build(),
            )
            .raw("points", &array(&points))
            .raw(
                "cache",
                &JsonObject::new()
                    .int("memory_hits", self.cache.memory_hits as i64)
                    .int("disk_hits", self.cache.disk_hits as i64)
                    .int("misses", self.cache.misses as i64)
                    .num("hit_rate", self.cache.hit_rate())
                    .build(),
            )
            .build()
    }

    /// Only the numerical results (no cache provenance): identical
    /// across cache temperatures as well as job counts.
    pub fn points_json(&self) -> String {
        array(
            &self
                .points
                .iter()
                .map(|p| point_json(p, false))
                .collect::<Vec<_>>(),
        )
    }

    /// A human-readable fixed-width table.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>12} {:>14} {:>10} {:>7}",
            "model", "batch", "latency(ms)", "thruput(s/s)", "energy(J)", "cache"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<14} {:>5} {:>12.3} {:>14.1} {:>10.4} {:>7}",
                p.model, p.batch, p.latency_ms, p.throughput_sps, p.energy_j, p.cache
            );
        }
        let _ = writeln!(
            out,
            "cache: {} memory + {} disk hits, {} misses ({:.0}% hit rate)",
            self.cache.memory_hits,
            self.cache.disk_hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0
        );
        out
    }
}

fn point_json(p: &SweepPoint, with_cache: bool) -> String {
    let obj = JsonObject::new()
        .string("model", &p.model)
        .int("batch", p.batch as i64)
        .raw("latency_ms", &number(p.latency_ms))
        .raw("throughput_sps", &number(p.throughput_sps))
        .raw("energy_j", &number(p.energy_j));
    if with_cache {
        obj.string("cache", p.cache).build()
    } else {
        obj.build()
    }
}

/// Runs a model × batch grid (models-major order) on `jobs` workers,
/// compiling every session through `cache`.
///
/// # Errors
///
/// [`HarnessError::Config`] for an empty grid or a zero batch;
/// otherwise the first failing point's [`HarnessError`] (grid order),
/// so a bad model name or an uncompilable batch fails the sweep loudly
/// rather than dropping rows silently.
pub fn run_sweep(
    accel: &Accelerator,
    models: &[SweepModel<'_>],
    batches: &[usize],
    cache: &SessionCache,
    jobs: usize,
) -> Result<SweepReport, HarnessError> {
    if models.is_empty() || batches.is_empty() {
        return Err(HarnessError::Config(
            "sweep needs at least one model and one batch".into(),
        ));
    }
    if batches.contains(&0) {
        return Err(HarnessError::Config(
            "sweep batches must be at least 1".into(),
        ));
    }
    let stats_before = cache.stats();
    let mut plan: ExperimentPlan<'_, SweepPoint> = ExperimentPlan::new();
    for model in models {
        for &batch in batches {
            let mut key = Fnv1a::new();
            key.write_str("sweep/");
            key.write_str(model.name());
            key.write_u64(batch as u64);
            let label = format!("{} b{batch}", model.name());
            plan.add_point(key.finish(), label, &[], move |_| {
                let graph = (model.build)(batch);
                let options = SessionOptions::batched(batch);
                let (session, outcome) = cache.compile_session(accel, &graph, &options)?;
                let report = session.run()?;
                Ok(SweepPoint {
                    model: model.name().to_string(),
                    batch,
                    latency_ms: report.latency_ms(),
                    throughput_sps: report.throughput(),
                    energy_j: report.energy_joules(),
                    cache: outcome.label(),
                })
            });
        }
    }
    let mut points = Vec::with_capacity(plan.len());
    for result in plan.run(jobs) {
        points.push(result?);
    }
    Ok(SweepReport {
        models: models.iter().map(|m| m.name().to_string()).collect(),
        batches: batches.to_vec(),
        points,
        cache: cache.stats().delta_since(stats_before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_graph::{Op, TensorType};

    fn toy_model(name: &str) -> SweepModel<'static> {
        let scale = name.len();
        SweepModel::new(name.to_string(), move |batch| {
            let mut g = Graph::new("toy");
            let x = g.input("x", TensorType::fixed(&[batch, 8 * scale.max(1), 16, 16]));
            let c = g.add_node(Op::conv2d(16, 3, 1, 1), vec![x]).unwrap();
            g.mark_output(c);
            g
        })
    }

    #[test]
    fn sweep_reports_every_grid_point_in_order() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        let models = [toy_model("aa"), toy_model("bbb")];
        let report = run_sweep(&accel, &models, &[1, 2], &cache, 2).unwrap();
        let labels: Vec<(String, usize)> = report
            .points
            .iter()
            .map(|p| (p.model.clone(), p.batch))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("aa".into(), 1),
                ("aa".into(), 2),
                ("bbb".into(), 1),
                ("bbb".into(), 2)
            ]
        );
        assert_eq!(report.cache.misses, 4);
        assert!(report.points.iter().all(|p| p.latency_ms > 0.0));
    }

    #[test]
    fn report_json_is_schedule_independent() {
        let accel = Accelerator::cloudblazer_i20();
        let models = [toy_model("aa"), toy_model("bbb")];
        let cache1 = SessionCache::memory_only();
        let r1 = run_sweep(&accel, &models, &[1, 2, 4], &cache1, 1).unwrap();
        let cache8 = SessionCache::memory_only();
        let r8 = run_sweep(&accel, &models, &[1, 2, 4], &cache8, 8).unwrap();
        assert_eq!(r1.to_json(), r8.to_json());
        assert_eq!(r1.points_json(), r8.points_json());
        assert!(r1.to_json().contains("\"cache\""));
        assert!(!r1.points_json().contains("miss"));
    }

    #[test]
    fn warm_sweep_hits_everything() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        let models = [toy_model("aa")];
        let cold = run_sweep(&accel, &models, &[1, 2], &cache, 2).unwrap();
        let warm = run_sweep(&accel, &models, &[1, 2], &cache, 2).unwrap();
        assert_eq!(cold.cache.misses, 2);
        assert_eq!(warm.cache.memory_hits, 2);
        assert_eq!(warm.cache.hit_rate(), 1.0);
        // Numerical results identical whatever the cache did.
        assert_eq!(cold.points_json(), warm.points_json());
    }

    #[test]
    fn empty_grid_is_a_config_error() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        assert!(run_sweep(&accel, &[], &[1], &cache, 1).is_err());
        let models = [toy_model("aa")];
        assert!(run_sweep(&accel, &models, &[], &cache, 1).is_err());
    }

    #[test]
    fn zero_batch_is_a_config_error_not_batch_one() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        let models = [toy_model("aa")];
        for batches in [&[0][..], &[1, 0], &[0, 2]] {
            assert!(
                matches!(
                    run_sweep(&accel, &models, batches, &cache, 1),
                    Err(HarnessError::Config(_))
                ),
                "batches {batches:?} must be rejected"
            );
        }
        assert_eq!(cache.stats().misses, 0, "nothing compiled before rejecting");
    }
}
