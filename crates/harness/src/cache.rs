//! The compiled-session artifact cache.
//!
//! Compiling a model graph into a [`Program`] dominates the cost of an
//! experiment point, and sweeps re-derive the *same* program many
//! times (batch curves revisit configs, ablations share baselines,
//! serving warms up the sessions a sweep just built). The cache keys
//! each compiled program by `dtu_compiler::session_fingerprint` — a
//! content hash of (graph, chip config, placement, compiler config,
//! batch, compiler version) — so a lookup can never return a program
//! compiled for different inputs.
//!
//! Two tiers:
//!
//! * **memory** — an always-on `HashMap` behind a mutex, shared by all
//!   worker threads of a process;
//! * **disk** — optional, one JSON file per program (see
//!   `dtu_sim::program_to_json`) under a directory such as
//!   `target/dtu-cache/`, serving repeats across processes. Artifacts
//!   are self-invalidating: the key is the file name, so any input
//!   change produces a different name, and a corrupt or truncated file
//!   fails to parse and is treated as a miss (then overwritten by the
//!   recompiled artifact). Disk writes are best-effort; an unwritable
//!   cache directory degrades to memory-only behaviour.
//!
//! Hits and misses are exported both as plain [`CacheStats`] and as
//! `dtu-telemetry` counters ([`Counter::SessionCacheHits`] /
//! [`Counter::SessionCacheMisses`]).
//!
//! [`Program`]: dtu_sim::Program
//! [`Counter::SessionCacheHits`]: dtu_telemetry::Counter::SessionCacheHits
//! [`Counter::SessionCacheMisses`]: dtu_telemetry::Counter::SessionCacheMisses

use dtu::{Accelerator, DtuError, Session, SessionOptions};
use dtu_compiler::{compile, session_fingerprint, CompileError, CompilerConfig, Placement};
use dtu_graph::Graph;
use dtu_serve::{ProgramSource, ServeError};
use dtu_sim::{program_from_json, program_to_json, ChipConfig, Program};
use dtu_telemetry::{Counter, CounterSet};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version of the on-disk artifact schema, embedded in file names.
///
/// Bumping it orphans (rather than misreads) artifacts written by
/// older builds; stale files are simply never looked up again. Any
/// change to the bytes `dtu_sim::program_to_json` writes needs a bump;
/// `dtu-sim`'s `v1_bytes_are_pinned` test holds those bytes fixed.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Where a compiled session came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-process memory tier.
    MemoryHit,
    /// Served from an on-disk artifact (and promoted to memory).
    DiskHit,
    /// Compiled fresh (and stored in both tiers).
    Miss,
}

impl CacheOutcome {
    /// Short lowercase label (`memory` / `disk` / `miss`).
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::MemoryHit => "memory",
            CacheOutcome::DiskHit => "disk",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Aggregate hit/miss accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the memory tier.
    pub memory_hits: u64,
    /// Lookups served from the disk tier.
    pub disk_hits: u64,
    /// Lookups that compiled fresh.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(self) -> u64 {
        self.memory_hits + self.disk_hits + self.misses
    }

    /// Hits across both tiers.
    pub fn hits(self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Fraction of lookups served without compiling (0 when idle).
    pub fn hit_rate(self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups() as f64
        }
    }

    /// The accounting accumulated since `before` was sampled — the
    /// slice of cache traffic attributable to one sweep or fleet run
    /// against a longer-lived cache.
    pub fn delta_since(self, before: CacheStats) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits - before.memory_hits,
            disk_hits: self.disk_hits - before.disk_hits,
            misses: self.misses - before.misses,
        }
    }
}

/// The two-tier compiled-session cache. Shareable across threads
/// (`&SessionCache` is all the worker pool needs).
#[derive(Debug)]
pub struct SessionCache {
    memory: Mutex<HashMap<u64, Arc<Program>>>,
    disk_dir: Option<PathBuf>,
    stats: Mutex<CacheStats>,
}

impl SessionCache {
    /// A cache with only the in-process memory tier.
    pub fn memory_only() -> Self {
        SessionCache {
            memory: Mutex::new(HashMap::new()),
            disk_dir: None,
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// A cache whose disk tier lives under `dir` (created on first
    /// write; unreadable/unwritable directories degrade gracefully).
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        SessionCache {
            memory: Mutex::new(HashMap::new()),
            disk_dir: Some(dir.into()),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// The conventional disk-tier location, `target/dtu-cache/`.
    pub fn default_disk_dir() -> PathBuf {
        PathBuf::from("target").join("dtu-cache")
    }

    /// The disk-tier directory, if the cache has one.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    fn artifact_path(&self, key: u64) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.v{CACHE_FORMAT_VERSION}.json")))
    }

    /// Compiles (or recalls) the session for `(graph, options)` on
    /// `accel`, reporting where it came from.
    ///
    /// Resolution happens exactly as in [`Session::compile`]
    /// (via [`SessionOptions::resolve`]), so the returned session is
    /// indistinguishable from an uncached compile.
    ///
    /// Concurrent lookups of the same key may both compile (last
    /// write wins); the result is identical either way, so the race is
    /// only a little wasted work, never wrong data.
    ///
    /// # Errors
    ///
    /// Compilation failures surface as [`DtuError`], exactly as from
    /// [`Session::compile`]. Disk-tier problems never error: a
    /// missing, corrupt, or unparsable artifact is a miss, and a
    /// failed write leaves the memory tier authoritative.
    pub fn compile_session<'a>(
        &self,
        accel: &'a Accelerator,
        graph: &Graph,
        options: &SessionOptions,
    ) -> Result<(Session<'a>, CacheOutcome), DtuError> {
        let (placement, compiler, batch) = options.resolve(accel);
        let (program, outcome) =
            self.lookup_or_compile(graph, accel.config(), &placement, &compiler, batch)?;
        Ok((
            Session::from_program(accel, (*program).clone(), batch),
            outcome,
        ))
    }

    /// The tier walk itself, on raw compilation inputs: memory, then
    /// disk, then [`compile`]. This is the layer shared with the
    /// serving engine (via the [`ProgramSource`] impl), which resolves
    /// its own placements and cannot go through [`SessionOptions`].
    ///
    /// # Errors
    ///
    /// Compilation failures as [`CompileError`]; cache tiers never
    /// error (see [`SessionCache::compile_session`]).
    pub fn lookup_or_compile(
        &self,
        graph: &Graph,
        chip: &ChipConfig,
        placement: &Placement,
        compiler: &CompilerConfig,
        batch: usize,
    ) -> Result<(Arc<Program>, CacheOutcome), CompileError> {
        let key = session_fingerprint(graph, chip, placement, compiler, batch);

        if let Some(program) = self.memory.lock().expect("cache lock").get(&key).cloned() {
            self.bump(CacheOutcome::MemoryHit);
            return Ok((program, CacheOutcome::MemoryHit));
        }

        if let Some(program) = self.load_artifact(key) {
            let program = Arc::new(program);
            self.memory
                .lock()
                .expect("cache lock")
                .insert(key, Arc::clone(&program));
            self.bump(CacheOutcome::DiskHit);
            return Ok((program, CacheOutcome::DiskHit));
        }

        let program = Arc::new(compile(graph, chip, placement, compiler)?);
        self.store_artifact(key, &program);
        self.memory
            .lock()
            .expect("cache lock")
            .insert(key, Arc::clone(&program));
        self.bump(CacheOutcome::Miss);
        Ok((program, CacheOutcome::Miss))
    }

    fn load_artifact(&self, key: u64) -> Option<Program> {
        let path = self.artifact_path(key)?;
        let text = std::fs::read_to_string(path).ok()?;
        program_from_json(&text).ok()
    }

    fn store_artifact(&self, key: u64, program: &Program) {
        let Some(path) = self.artifact_path(key) else {
            return;
        };
        let Ok(json) = program_to_json(program) else {
            // Unserializable programs just stay memory-only.
            return;
        };
        if let Some(dir) = path.parent() {
            if std::fs::create_dir_all(dir).is_err() {
                return;
            }
        }
        // Write-then-rename so a concurrent reader never sees a
        // half-written artifact (it sees either nothing or the whole
        // file; a torn leftover tmp file is ignored by lookups).
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, json).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn bump(&self, outcome: CacheOutcome) {
        let mut stats = self.stats.lock().expect("stats lock");
        match outcome {
            CacheOutcome::MemoryHit => stats.memory_hits += 1,
            CacheOutcome::DiskHit => stats.disk_hits += 1,
            CacheOutcome::Miss => stats.misses += 1,
        }
    }

    /// Aggregate hit/miss accounting so far.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().expect("stats lock")
    }

    /// The accounting as `dtu-telemetry` counters
    /// (`dtu_session_cache_hits_total` / `dtu_session_cache_misses_total`).
    pub fn counters(&self) -> CounterSet {
        let stats = self.stats();
        let mut set = CounterSet::new();
        set.add(Counter::SessionCacheHits, stats.hits() as f64);
        set.add(Counter::SessionCacheMisses, stats.misses as f64);
        set
    }

    /// Drops every memory-tier entry (disk artifacts stay).
    pub fn clear_memory(&self) {
        self.memory.lock().expect("cache lock").clear();
    }

    /// Number of programs currently held in the memory tier.
    pub fn memory_entries(&self) -> usize {
        self.memory.lock().expect("cache lock").len()
    }
}

/// Lets the serving engine's `CompiledModel::with_source` compile
/// through this cache, so a serving run reuses what sweeps already
/// built (and vice versa, across processes when a disk tier is set).
impl ProgramSource for SessionCache {
    fn compiled_program(
        &self,
        graph: &Graph,
        chip: &ChipConfig,
        placement: &Placement,
        compiler: &CompilerConfig,
        batch: usize,
    ) -> Result<Arc<Program>, ServeError> {
        self.lookup_or_compile(graph, chip, placement, compiler, batch)
            .map(|(program, _)| program)
            .map_err(ServeError::Compile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_graph::{Op, TensorType};

    fn toy(batch: usize) -> Graph {
        let mut g = Graph::new("toy");
        let x = g.input("x", TensorType::fixed(&[batch, 8, 32, 32]));
        let c = g.add_node(Op::conv2d(16, 3, 1, 1), vec![x]).unwrap();
        g.mark_output(c);
        g
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dtu-cache-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn memory_tier_hits_and_matches_uncached_compile() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        let (s1, o1) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        let (s2, o2) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::MemoryHit);
        assert_eq!(s1.program(), s2.program());
        let direct = Session::compile(&accel, &toy(1), SessionOptions::default()).unwrap();
        assert_eq!(s2.program(), direct.program());
        assert_eq!(
            s2.run().unwrap().latency_ms(),
            direct.run().unwrap().latency_ms()
        );
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn different_options_are_different_entries() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        cache
            .compile_session(&accel, &toy(4), &SessionOptions::batched(4))
            .unwrap();
        let (_, o) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        assert_eq!(cache.memory_entries(), 2);
        assert_eq!(o, CacheOutcome::MemoryHit);
    }

    #[test]
    fn disk_tier_survives_memory_clear() {
        let dir = temp_dir("disk");
        let _ = std::fs::remove_dir_all(&dir);
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::with_disk(&dir);
        let (_, o1) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        // Simulate a fresh process: memory gone, disk intact.
        cache.clear_memory();
        let (s, o2) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        assert_eq!(o2, CacheOutcome::DiskHit);
        assert!(s.run().unwrap().latency_ms() > 0.0);
        // And promoted back to memory.
        let (_, o3) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        assert_eq!(o3, CacheOutcome::MemoryHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compiled_programs_round_trip_through_the_artifact_codec() {
        use dtu_models::Model;
        let accel = Accelerator::cloudblazer_i20();
        for model in [Model::Resnet50, Model::BertLarge] {
            let session =
                Session::compile(&accel, &model.build(1), SessionOptions::default()).unwrap();
            let program = session.program();
            let json = program_to_json(program).unwrap();
            assert_eq!(
                &program_from_json(&json).unwrap(),
                program,
                "{model:?} changed across the disk tier"
            );
        }
    }

    #[test]
    fn corrupt_artifacts_recompile_without_panicking() {
        let dir = temp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::with_disk(&dir);
        cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        // Truncate every artifact in the directory.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        }
        cache.clear_memory();
        let (s, outcome) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "corrupt artifact is a miss");
        assert!(s.run().unwrap().latency_ms() > 0.0);
        // The recompile rewrote a healthy artifact.
        cache.clear_memory();
        let (_, healed) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        assert_eq!(healed, CacheOutcome::DiskHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_disk_dir_degrades_to_memory_only() {
        // A path that cannot be created (parent is a file).
        let file = temp_dir("plainfile");
        std::fs::write(&file, "not a directory").unwrap();
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::with_disk(file.join("sub"));
        let (_, o1) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        let (_, o2) = cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::MemoryHit);
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn serving_engine_compiles_through_the_shared_cache() {
        use dtu_serve::{CompiledModel, ServiceModel};
        use dtu_sim::{Chip, GroupId};
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        // A sweep-style compile seeds the cache...
        let full = Placement::explicit(vec![GroupId::new(0, 0)]);
        let chip_cfg = accel.config().clone();
        let compiler = CompilerConfig::for_chip(&chip_cfg);
        cache
            .lookup_or_compile(&toy(1), &chip_cfg, &full, &compiler, 1)
            .unwrap();
        assert_eq!(cache.stats().misses, 1);
        // ...and the serving engine's session compile hits it.
        let chip = Chip::new(chip_cfg);
        let mut model = CompiledModel::new(&chip, "toy", toy).with_source(&cache);
        let ms = model
            .service_ms(1, &Placement::explicit(vec![GroupId::new(0, 0)]))
            .unwrap();
        assert!(ms > 0.0);
        assert_eq!(cache.stats().hits(), 1, "serve reused the sweep's program");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn counters_flow_into_the_registry() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        cache
            .compile_session(&accel, &toy(1), &SessionOptions::default())
            .unwrap();
        let counters = cache.counters();
        assert_eq!(counters.get(Counter::SessionCacheHits), 1.0);
        assert_eq!(counters.get(Counter::SessionCacheMisses), 1.0);
    }
}
