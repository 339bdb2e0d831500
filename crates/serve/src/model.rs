//! Service models: what it costs to run one batch on a set of groups.
//!
//! The engine is generic over [`ServiceModel`] so its scheduling
//! policies can be unit-tested against an analytical cost curve
//! ([`AnalyticModel`]) and deployed against the real compiled stack
//! ([`CompiledModel`]), which compiles and caches one session per
//! (model, batch, placement) — the serving-time analogue of an
//! inference server's engine cache.
//!
//! The engine asks its model once per dispatch, so a repeat question
//! must be cheap: [`PriceMemo`] answers it by matching the placement's
//! groups as a set against the sessions priced so far, without
//! allocating, sorting or hashing. Only a miss copies and sorts the
//! placement.

use crate::ServeError;
use dtu_compiler::{compile, CompilerConfig, Mode, Placement};
use dtu_graph::Graph;
use dtu_sim::{Chip, ChipConfig, GroupId, Program};
use std::sync::Arc;

/// External provider of compiled programs.
///
/// The serving engine's per-model session cache memoizes *latencies*
/// within one engine. A `ProgramSource` lets the *programs* underneath
/// come from a wider artifact cache shared with sweeps and repro runs
/// (`dtu-harness`'s `SessionCache` implements this), so a serving
/// run can reuse what a sweep already compiled — across binaries,
/// when the source has a disk tier.
pub trait ProgramSource {
    /// Returns the compiled program for the given compilation inputs.
    ///
    /// # Errors
    ///
    /// Compilation failures surface as [`ServeError::Compile`].
    fn compiled_program(
        &self,
        graph: &Graph,
        chip: &ChipConfig,
        placement: &Placement,
        compiler: &CompilerConfig,
        batch: usize,
    ) -> Result<Arc<Program>, ServeError>;
}

/// A model the serving engine can dispatch batches against.
pub trait ServiceModel {
    /// Human-readable model name (used in reports and traces).
    fn name(&self) -> &str;

    /// Latency of serving `batch` requests on `placement`'s groups, ms.
    ///
    /// Called once per dispatch; implementations are expected to cache
    /// whatever compilation the answer requires.
    ///
    /// # Errors
    ///
    /// Compilation or simulation failures surface as [`ServeError`].
    fn service_ms(&mut self, batch: usize, placement: &Placement) -> Result<f64, ServeError>;
}

/// Closed-form cost curve for scheduler unit tests and capacity math.
///
/// Batch cost follows a fixed-plus-marginal model and group speedup
/// follows Amdahl's law:
///
/// ```text
/// service(b, g) = base_ms · (overhead + (1 − overhead) · b)
///                         · ((1 − parallel) + parallel / g)
/// ```
///
/// With `overhead = 0.7`, a batch of 8 costs 3.1× a batch of 1 — i.e.
/// batching raises peak throughput ~2.6× — which is the curve shape
/// the dynamic-batching acceptance test exercises.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticModel {
    /// Name used in reports.
    pub name: String,
    /// Cost of a single-request batch on one group, ms.
    pub base_ms: f64,
    /// Fraction of `base_ms` that is per-dispatch overhead (weight
    /// staging, kernel launch) rather than per-sample work.
    pub batch_overhead: f64,
    /// Amdahl parallel fraction governing multi-group speedup.
    pub parallel_fraction: f64,
}

impl AnalyticModel {
    /// A model with the default batching/scaling curve.
    pub fn new(name: impl Into<String>, base_ms: f64) -> Self {
        AnalyticModel {
            name: name.into(),
            base_ms,
            batch_overhead: 0.7,
            parallel_fraction: 0.7,
        }
    }
}

impl ServiceModel for AnalyticModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn service_ms(&mut self, batch: usize, placement: &Placement) -> Result<f64, ServeError> {
        if batch == 0 {
            return Err(ServeError::Config("batch must be at least 1".into()));
        }
        let groups = placement.len().max(1) as f64;
        let batch_cost = self.batch_overhead + (1.0 - self.batch_overhead) * batch as f64;
        let group_speed = (1.0 - self.parallel_fraction) + self.parallel_fraction / groups;
        Ok(self.base_ms * batch_cost * group_speed)
    }
}

/// Session prices: the service time of a batch on a set of groups,
/// however the placement orders them.
///
/// A serving model meets few sessions (a handful of compiled batch
/// sizes on the few group sets its tenant scales through), so a lookup
/// scans them. It matches the placement's groups against each entry's
/// sorted copy as a multiset, without allocating, sorting or hashing;
/// only [`PriceMemo::insert`] copies and sorts.
#[derive(Debug, Default)]
pub struct PriceMemo {
    entries: Vec<PriceEntry>,
}

#[derive(Debug)]
struct PriceEntry {
    batch: usize,
    /// Sorted.
    groups: Box<[GroupId]>,
    service_ms: f64,
}

impl PriceMemo {
    /// An empty memo.
    pub fn new() -> Self {
        PriceMemo::default()
    }

    /// The price of `batch` on `placement`'s groups, if known.
    pub fn get(&self, batch: usize, placement: &Placement) -> Option<f64> {
        let groups = placement.groups();
        self.entries
            .iter()
            .find(|e| e.batch == batch && same_groups(&e.groups, groups))
            .map(|e| e.service_ms)
    }

    /// Records the price of `batch` on `placement`'s groups.
    pub fn insert(&mut self, batch: usize, placement: &Placement, service_ms: f64) {
        let mut groups: Box<[GroupId]> = placement.groups().into();
        groups.sort_unstable();
        self.entries.push(PriceEntry {
            batch,
            groups,
            service_ms,
        });
    }

    /// Number of sessions priced.
    pub fn sessions(&self) -> usize {
        self.entries.len()
    }
}

/// Whether `groups` holds exactly the groups of `sorted`, in any order:
/// a group listed twice must be listed twice in both.
fn same_groups(sorted: &[GroupId], groups: &[GroupId]) -> bool {
    sorted.len() == groups.len()
        && (sorted == groups
            || groups.iter().all(|g| {
                let count = |list: &[GroupId]| list.iter().filter(|x| *x == g).count();
                count(sorted) == count(groups)
            }))
}

/// Hit/miss accounting for the session cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Dispatches answered from cache.
    pub hits: u64,
    /// Dispatches that compiled a fresh session.
    pub misses: u64,
}

/// A real model served through the compiled stack.
///
/// Holds a graph builder (batch size → graph), compiles one session
/// per distinct (batch, placement) it is asked about, simulates it once
/// to measure the deterministic service latency, and caches that
/// latency: the program itself is dropped once priced.
pub struct CompiledModel<'c> {
    chip: &'c Chip,
    name: String,
    build: Box<dyn Fn(usize) -> Result<Graph, ServeError> + 'c>,
    prices: PriceMemo,
    source: Option<&'c dyn ProgramSource>,
    stats: CacheStats,
}

impl std::fmt::Debug for CompiledModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledModel")
            .field("name", &self.name)
            .field("cached_sessions", &self.prices.sessions())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'c> CompiledModel<'c> {
    /// A model whose graph is rebuilt per batch size by `build`.
    pub fn new(
        chip: &'c Chip,
        name: impl Into<String>,
        build: impl Fn(usize) -> Graph + 'c,
    ) -> Self {
        CompiledModel {
            chip,
            name: name.into(),
            build: Box::new(move |b| Ok(build(b))),
            prices: PriceMemo::new(),
            source: None,
            stats: CacheStats::default(),
        }
    }

    /// Routes this model's program compilation through an external
    /// [`ProgramSource`] (builder-style). Latency memoization stays
    /// local to this model; only the compile step is delegated.
    pub fn with_source(mut self, source: &'c dyn ProgramSource) -> Self {
        self.source = Some(source);
        self
    }

    /// Session-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of distinct sessions compiled so far.
    pub fn cached_sessions(&self) -> usize {
        self.prices.sessions()
    }
}

impl ServiceModel for CompiledModel<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn service_ms(&mut self, batch: usize, placement: &Placement) -> Result<f64, ServeError> {
        if batch == 0 {
            return Err(ServeError::Config("batch must be at least 1".into()));
        }
        if let Some(service_ms) = self.prices.get(batch, placement) {
            self.stats.hits += 1;
            return Ok(service_ms);
        }
        self.stats.misses += 1;
        let graph = (self.build)(batch)?;
        let chip_cfg = self.chip.config();
        let mut compiler = CompilerConfig::for_chip(chip_cfg);
        if batch > 1 {
            compiler.mode = Mode::ThroughputBatched;
        }
        let program = match self.source {
            Some(source) => {
                source.compiled_program(&graph, chip_cfg, placement, &compiler, batch)?
            }
            None => Arc::new(compile(&graph, chip_cfg, placement, &compiler)?),
        };
        let service_ms = self.chip.run(&program)?.latency_ms();
        self.prices.insert(batch, placement, service_ms);
        Ok(service_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_graph::{Op, TensorType};
    use dtu_sim::ChipConfig;

    fn toy(batch: usize) -> Graph {
        let mut g = Graph::new("toy");
        let x = g.input("x", TensorType::fixed(&[batch, 8, 32, 32]));
        let c = g.add_node(Op::conv2d(16, 3, 1, 1), vec![x]).unwrap();
        let r = g.add_node(Op::Relu, vec![c]).unwrap();
        g.mark_output(r);
        g
    }

    #[test]
    fn analytic_curve_shapes() {
        let mut m = AnalyticModel::new("m", 1.0);
        let one = Placement::explicit(vec![GroupId::new(0, 0)]);
        let s1 = m.service_ms(1, &one).unwrap();
        let s8 = m.service_ms(8, &one).unwrap();
        assert!((s1 - 1.0).abs() < 1e-12);
        // Batch 8 is sublinear: throughput 8/s8 beats 1/s1 by >= 2x.
        assert!(8.0 / s8 >= 2.0 / s1);
        // More groups, faster (Amdahl).
        let three = Placement::explicit(vec![
            GroupId::new(0, 0),
            GroupId::new(0, 1),
            GroupId::new(0, 2),
        ]);
        assert!(m.service_ms(1, &three).unwrap() < s1);
    }

    #[test]
    fn compiled_model_caches_per_batch_and_placement() {
        let chip = Chip::new(ChipConfig::dtu20());
        let mut m = CompiledModel::new(&chip, "toy", toy);
        let p0 = Placement::explicit(vec![GroupId::new(0, 0)]);
        let p1 = Placement::explicit(vec![GroupId::new(0, 1)]);
        let a = m.service_ms(1, &p0).unwrap();
        let b = m.service_ms(1, &p0).unwrap();
        assert_eq!(a, b);
        assert_eq!(m.cache_stats(), CacheStats { hits: 1, misses: 1 });
        // New placement or batch -> new session.
        m.service_ms(1, &p1).unwrap();
        m.service_ms(4, &p0).unwrap();
        assert_eq!(m.cached_sessions(), 3);
        assert!(a > 0.0);
    }

    #[test]
    fn price_memo_matches_groups_as_a_multiset() {
        let at = |groups: &[(usize, usize)]| {
            Placement::explicit(groups.iter().map(|&(c, g)| GroupId::new(c, g)).collect())
        };
        let mut memo = PriceMemo::new();
        memo.insert(4, &at(&[(0, 2), (0, 0)]), 1.5);
        assert_eq!(memo.get(4, &at(&[(0, 0), (0, 2)])), Some(1.5));
        assert_eq!(memo.get(4, &at(&[(0, 2), (0, 0)])), Some(1.5));
        assert_eq!(memo.get(2, &at(&[(0, 0), (0, 2)])), None, "another batch");
        assert_eq!(memo.get(4, &at(&[(0, 0)])), None, "a subset");
        assert_eq!(memo.get(4, &at(&[(0, 0), (0, 0)])), None, "a repeat");
        memo.insert(4, &at(&[(0, 0), (0, 0), (0, 2)]), 2.5);
        assert_eq!(memo.get(4, &at(&[(0, 2), (0, 0), (0, 2)])), None);
        assert_eq!(memo.get(4, &at(&[(0, 0), (0, 2), (0, 0)])), Some(2.5));
        assert_eq!(memo.sessions(), 2);
    }

    #[test]
    fn batched_compilation_is_sublinear_for_real_models() {
        let chip = Chip::new(ChipConfig::dtu20());
        let mut m = CompiledModel::new(&chip, "toy", toy);
        let p = Placement::explicit(vec![GroupId::new(0, 0)]);
        let s1 = m.service_ms(1, &p).unwrap();
        let s8 = m.service_ms(8, &p).unwrap();
        assert!(
            s8 < 8.0 * s1,
            "batch 8 ({s8} ms) should amortise launch/staging vs 8 x batch 1 ({s1} ms)"
        );
    }

    #[test]
    fn zero_batch_is_an_error() {
        let mut m = AnalyticModel::new("m", 1.0);
        let p = Placement::explicit(vec![GroupId::new(0, 0)]);
        assert!(m.service_ms(0, &p).is_err());
    }
}
