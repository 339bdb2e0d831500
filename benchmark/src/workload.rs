//! The six workloads: their inputs, set-up, one iteration, and the
//! check of its output.
//!
//! Every knob is spelled out here rather than taken from a library
//! default, so a later change of default (say, the fleet's offered
//! load) does not change what the benchmark measures.

use crate::error::{run_err, BenchError};
use dtu::Accelerator;
use dtu_compiler::Fnv1a;
use dtu_fleet::{
    run_fleet, run_fleet_monitored, FleetConfig, FleetReport, FleetTenant, FleetTopology,
};
use dtu_graph::Graph;
use dtu_harness::{run_sweep, SessionCache, SweepModel, SweepReport};
use dtu_models::{GenerativeConfig, GenerativeModel, Model};
use dtu_serve::{
    run_generative, run_generative_live, run_serving, run_serving_live, ArrivalProcess,
    BatchPolicy, CompiledModel, CompiledTokenModel, GenMonitor, GenReport, GenerativeScenario,
    KvCacheConfig, LiveConfig, LiveMonitor, ScalePolicy, ServeConfig, ServeReport, ServiceModel,
    SlaPolicy, TenantSpec,
};
use std::path::{Path, PathBuf};

/// Worker threads of every pooled phase. One: on a shared two-core
/// machine a single competing process nearly doubles a two-worker
/// sweep's wall time (57 to 106 ms) and leaves a one-worker sweep as it
/// was (98 to 94 ms), so the benchmark times one worker.
pub const JOBS: usize = 1;
/// Iterations run at the end of set-up, before anything is timed.
pub const WARMUP: usize = 3;
/// Batch sizes of the sweep grid.
pub const BATCHES: [usize; 4] = [1, 2, 4, 8];
/// Models of the sweep grid.
const SWEEP_MODELS: [(&str, Model); 3] = [
    ("resnet50", Model::Resnet50),
    ("vgg16", Model::Vgg16),
    ("bert", Model::BertLarge),
];
/// Points of the sweep grid.
const SWEEP_POINTS: u64 = (SWEEP_MODELS.len() * BATCHES.len()) as u64;

/// serve_mix: (tenant model, Poisson rate in requests/s).
const SERVE_TENANTS: [(&str, Model, f64); 2] = [
    ("resnet50", Model::Resnet50, 400.0),
    ("bert", Model::BertLarge, 80.0),
];
const SERVE_HORIZON_MS: f64 = 60_000.0;
const SERVE_MAX_BATCH: usize = 8;
const SERVE_BATCH_TIMEOUT_MS: f64 = 2.0;
const SERVE_DEADLINE_MS: f64 = 50.0;
const SERVE_QUEUE: usize = 64;

/// gen_chat: a gpt1b chat mix with a KV pool small enough to preempt.
const GEN_QPS: f64 = 16.0;
const GEN_HORIZON_MS: f64 = 200_000.0;
const GEN_PROMPT: usize = 64;
const GEN_MIN_NEW: usize = 4;
const GEN_MAX_NEW: usize = 128;
const GEN_CONCURRENCY: usize = 16;
const GEN_QUEUE: usize = 64;
const GEN_TTFT_DEADLINE_MS: f64 = 100.0;
const GEN_TPOT_DEADLINE_MS: f64 = 20.0;
const GEN_KV_BUDGET: f64 = 0.015;

/// fleet16: 4 cards x 4 chips serving resnet50 below saturation.
const FLEET_CARDS: usize = 4;
const FLEET_CHIPS_PER_CARD: usize = 4;
const FLEET_QPS: f64 = 16_000.0;
const FLEET_HORIZON_MS: f64 = 5_000.0;
const FLEET_EPOCH_MS: f64 = 500.0;
const FLEET_CELLS_PER_REPLICA: usize = 2;
const FLEET_MAX_BATCH: usize = 16;
const FLEET_BATCH_TIMEOUT_MS: f64 = 2.0;
const FLEET_DEADLINE_MS: f64 = 50.0;
const FLEET_QUEUE: usize = 256;
const FLEET_INITIAL_GROUPS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 12-point grid compiled into an empty disk cache.
    SweepCold,
    /// The 12-point grid loaded back from a filled disk cache.
    SweepReload,
    /// Two-tenant single-shot serving on one chip.
    ServeMix,
    /// Continuous-batching gpt1b serving.
    GenChat,
    /// A 16-chip fleet.
    Fleet16,
    /// The same fleet with the fleet monitor attached.
    Fleet16Monitored,
}

impl Workload {
    /// Every workload, in suite order.
    pub const ALL: [Workload; 6] = [
        Workload::SweepCold,
        Workload::SweepReload,
        Workload::ServeMix,
        Workload::GenChat,
        Workload::Fleet16,
        Workload::Fleet16Monitored,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::SweepReload => "sweep_reload",
            Workload::ServeMix => "serve_mix",
            Workload::GenChat => "gen_chat",
            Workload::Fleet16 => "fleet16",
            Workload::Fleet16Monitored => "fleet16_monitored",
        }
    }

    /// Looks a workload up by name.
    ///
    /// # Errors
    ///
    /// [`BenchError::UnknownWorkload`] for any other name.
    pub fn parse(name: &str) -> Result<Workload, BenchError> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| BenchError::UnknownWorkload(name.to_string()))
    }

    /// FNV-1a digest of the workload's output at seed 7 (the sweeps do
    /// not depend on the seed). A change that moves a simulated number
    /// moves this digest.
    pub fn seed7_digest(self) -> u64 {
        match self {
            Workload::SweepCold | Workload::SweepReload => 0x7625_80b8_f7d6_ff52,
            Workload::ServeMix => 0x710c_ef81_2289_5c37,
            Workload::GenChat => 0xe674_971e_05d3_c807,
            Workload::Fleet16 | Workload::Fleet16Monitored => 0x6b95_0f8d_5e56_dc85,
        }
    }
}

/// What one iteration produced: its output digest and, if an invariant
/// broke, which one.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a over the iteration's deterministic output.
    pub digest: u64,
    /// The first broken invariant, if any.
    pub broken: Option<String>,
}

/// Checks each iteration's output against the committed seed-7 digest
/// and against the run's first iteration.
#[derive(Debug)]
pub struct Checker {
    committed: Option<u64>,
    first: Option<u64>,
}

impl Checker {
    /// A checker for `workload` run at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let sweep = matches!(workload, Workload::SweepCold | Workload::SweepReload);
        Checker {
            committed: (seed == 7 || sweep).then(|| workload.seed7_digest()),
            first: None,
        }
    }

    /// Accepts an iteration's result, or says why it is wrong.
    ///
    /// # Errors
    ///
    /// A description of the error, broken invariant, or digest mismatch.
    pub fn check(&mut self, result: Result<Outcome, BenchError>) -> Result<(), String> {
        let out = result.map_err(|e| e.to_string())?;
        if let Some(why) = out.broken {
            return Err(why);
        }
        if let Some(want) = self.committed {
            if out.digest != want {
                return Err(format!(
                    "output digest {:016x} differs from the committed {want:016x}",
                    out.digest
                ));
            }
        }
        match self.first {
            Some(first) if first != out.digest => Err(format!(
                "output digest {:016x} differs from the first iteration's {first:016x}",
                out.digest
            )),
            _ => {
                self.first = Some(out.digest);
                Ok(())
            }
        }
    }
}

/// A workload's inputs and caches.
pub struct Fixture {
    /// Which workload this is.
    pub workload: Workload,
    /// The simulated accelerator (i20).
    pub accel: Accelerator,
    /// The sweep grid's models.
    pub sweep_models: Vec<SweepModel<'static>>,
    /// The memory-tier session cache of the serving workloads.
    pub cache: SessionCache,
    /// The sweeps' disk-tier directory.
    pub dir: PathBuf,
    /// serve_mix's scenario.
    pub serve: ServeConfig,
    /// gen_chat's model.
    pub gen_model: GenerativeConfig,
    /// gen_chat's scenario.
    pub gen: GenerativeScenario,
    /// The fleet's chips.
    pub topology: FleetTopology,
    /// The fleet's run settings.
    pub fleet: FleetConfig,
}

impl Fixture {
    /// The inputs of `workload` at `seed`, with empty caches; the disk
    /// tier goes under `work`.
    ///
    /// # Errors
    ///
    /// A topology the simulator refuses.
    pub fn new(workload: Workload, seed: u64, work: &Path) -> Result<Fixture, BenchError> {
        let accel = Accelerator::cloudblazer_i20();
        let gen_model = GenerativeConfig::gpt_1b();
        let gen = GenerativeScenario {
            duration_ms: GEN_HORIZON_MS,
            seed,
            arrival: ArrivalProcess::Poisson { qps: GEN_QPS },
            prompt_tokens: GEN_PROMPT,
            min_new_tokens: GEN_MIN_NEW,
            max_new_tokens: GEN_MAX_NEW,
            max_concurrency: GEN_CONCURRENCY,
            queue_depth: GEN_QUEUE,
            ttft_deadline_ms: GEN_TTFT_DEADLINE_MS,
            tpot_deadline_ms: GEN_TPOT_DEADLINE_MS,
            kv: KvCacheConfig::for_chip_with_budget(
                accel.config(),
                gen_model.kv_bytes_per_token(),
                GEN_KV_BUDGET,
            ),
        };
        Ok(Fixture {
            workload,
            sweep_models: SWEEP_MODELS
                .iter()
                .map(|&(name, m)| SweepModel::new(name, move |b| m.build(b)))
                .collect(),
            cache: SessionCache::memory_only(),
            dir: work.join("cache"),
            serve: serve_config(&accel, seed),
            gen_model,
            gen,
            topology: FleetTopology::homogeneous(FLEET_CARDS, FLEET_CHIPS_PER_CARD, accel.config())
                .map_err(run_err)?,
            fleet: FleetConfig {
                duration_ms: FLEET_HORIZON_MS,
                epoch_ms: FLEET_EPOCH_MS,
                seed,
                cells_per_replica: FLEET_CELLS_PER_REPLICA,
                roll: None,
                kill: None,
            },
            accel,
        })
    }

    /// The fleet's one tenant, building graphs with `build`.
    pub fn fleet_tenants<'a>(
        &self,
        build: impl Fn(usize) -> Graph + Send + Sync + 'a,
    ) -> Vec<FleetTenant<'a>> {
        let mut tenant = FleetTenant::new(SweepModel::new("resnet50", build), FLEET_QPS);
        tenant.replicas = 0;
        tenant.max_batch = FLEET_MAX_BATCH;
        tenant.batch_timeout_ms = FLEET_BATCH_TIMEOUT_MS;
        tenant.deadline_ms = FLEET_DEADLINE_MS;
        tenant.queue_depth = FLEET_QUEUE;
        tenant.initial_groups = FLEET_INITIAL_GROUPS;
        tenant.autoscale = false;
        vec![tenant]
    }

    /// A sweep's outcome: every point a miss (cold) or a disk hit
    /// (reload).
    pub fn sweep_outcome(&self, report: &SweepReport) -> Outcome {
        let c = report.cache;
        let (want, got) = match self.workload {
            Workload::SweepCold => ("misses", c.misses),
            _ => ("disk hits", c.disk_hits),
        };
        Outcome {
            digest: digest_str(&report.points_json()),
            broken: (got != SWEEP_POINTS || c.lookups() != SWEEP_POINTS).then(|| {
                format!(
                    "expected {SWEEP_POINTS} {want}, got {} misses, {} disk and {} memory hits",
                    c.misses, c.disk_hits, c.memory_hits
                )
            }),
        }
    }
}

/// Removes the disk tier, so a set-up never pays for the one before it.
impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A workload ready to iterate: caches filled, cost models warm.
///
/// The serving workloads keep their compiled models across iterations,
/// so an iteration runs the engine alone. Fresh models would re-walk
/// every (batch, placement) session they meet, and which sessions a run
/// meets depends on the seed's arrivals: at a 10 s horizon serve_mix met
/// 8 to 12 sessions across ten seeds, which moved its iteration time by
/// up to 40%. Fresh-model pricing is still timed, per chip-epoch, by the
/// fleet workloads.
pub struct Runner<'f> {
    /// The inputs.
    pub fx: &'f Fixture,
    /// serve_mix's tenants, in tenant order.
    pub serve_models: Vec<CompiledModel<'f>>,
    /// gen_chat's priced prefill and decode steps.
    pub gen_model: CompiledTokenModel<'f, GenerativeModel>,
}

impl<'f> Runner<'f> {
    /// Fills `fx`'s caches, warms its cost models, and runs the warm-up
    /// iterations through `checker`.
    ///
    /// # Errors
    ///
    /// Simulator failures, and any warm-up iteration that fails its
    /// check.
    pub fn set_up(fx: &'f Fixture, checker: &mut Checker) -> Result<Runner<'f>, BenchError> {
        let chip = fx.accel.chip();
        let mut runner = Runner {
            fx,
            serve_models: SERVE_TENANTS
                .iter()
                .map(|&(name, m, _)| {
                    CompiledModel::new(chip, name, move |b| m.build(b)).with_source(&fx.cache)
                })
                .collect(),
            gen_model: CompiledTokenModel::new(
                chip,
                GenerativeModel::new(fx.gen_model, fx.gen.prompt_tokens),
                fx.gen.prompt_tokens,
            )
            .with_source(&fx.cache),
        };
        // Pre-fill: the reload sweep needs its artifacts on disk; the
        // serving workloads need every session their run asks for
        // compiled and priced. The cold sweep starts from nothing.
        match fx.workload {
            Workload::SweepCold => {}
            Workload::SweepReload => {
                let cache = SessionCache::with_disk(&fx.dir);
                run_sweep(&fx.accel, &fx.sweep_models, &BATCHES, &cache, JOBS).map_err(run_err)?;
            }
            _ => checker.check(runner.run_plain()).map_err(BenchError::Run)?,
        }
        for _ in 0..WARMUP {
            let result = runner.run_plain();
            runner.after_iteration()?;
            checker.check(result).map_err(BenchError::Run)?;
        }
        Ok(runner)
    }

    /// One untraced iteration.
    ///
    /// # Errors
    ///
    /// Simulator failures.
    pub fn run_plain(&mut self) -> Result<Outcome, BenchError> {
        let fx = self.fx;
        match fx.workload {
            Workload::SweepCold | Workload::SweepReload => {
                let cache = SessionCache::with_disk(&fx.dir);
                let report = run_sweep(&fx.accel, &fx.sweep_models, &BATCHES, &cache, JOBS)
                    .map_err(run_err)?;
                Ok(fx.sweep_outcome(&report))
            }
            Workload::ServeMix => {
                let mut refs = self.serve_refs();
                let out = run_serving(&fx.serve, fx.accel.config(), &mut refs).map_err(run_err)?;
                Ok(serve_outcome(&out.report))
            }
            Workload::GenChat => {
                let out = run_generative(&fx.gen, &mut self.gen_model).map_err(run_err)?;
                Ok(gen_outcome(&out.report))
            }
            Workload::Fleet16 => self.fleet_plain(),
            Workload::Fleet16Monitored => self.fleet_monitored(),
        }
    }

    /// The monitored (or, for fleet16_monitored, the plain) twin of an
    /// iteration, for the monitor-cost ratios; `None` for the sweeps.
    /// Its output must equal the iteration's: monitors only observe.
    ///
    /// # Errors
    ///
    /// Simulator failures.
    pub fn run_twin(&mut self) -> Result<Option<Outcome>, BenchError> {
        let fx = self.fx;
        let out = match fx.workload {
            Workload::SweepCold | Workload::SweepReload => return Ok(None),
            Workload::ServeMix => {
                let mut refs = self.serve_refs();
                let mut live = LiveMonitor::new(LiveConfig::default());
                let out = run_serving_live(&fx.serve, fx.accel.config(), &mut refs, &mut live)
                    .map_err(run_err)?;
                serve_outcome(&out.report)
            }
            Workload::GenChat => {
                let mut mon = GenMonitor::with_defaults();
                let out =
                    run_generative_live(&fx.gen, &mut self.gen_model, &mut mon).map_err(run_err)?;
                gen_outcome(&out.report)
            }
            Workload::Fleet16 => self.fleet_monitored()?,
            Workload::Fleet16Monitored => self.fleet_plain()?,
        };
        Ok(Some(out))
    }

    /// Untimed clean-up after an iteration: the cold sweep's cache
    /// directory must be empty again before the next one.
    ///
    /// # Errors
    ///
    /// A directory that cannot be removed.
    pub fn after_iteration(&self) -> Result<(), BenchError> {
        match self.fx.workload {
            Workload::SweepCold => remove_dir(&self.fx.dir),
            _ => Ok(()),
        }
    }

    fn serve_refs(&mut self) -> Vec<&mut dyn ServiceModel> {
        self.serve_models
            .iter_mut()
            .map(|m| m as &mut dyn ServiceModel)
            .collect()
    }

    fn fleet_plain(&self) -> Result<Outcome, BenchError> {
        let fx = self.fx;
        let tenants = fx.fleet_tenants(|b| Model::Resnet50.build(b));
        let report =
            run_fleet(&fx.topology, &tenants, &fx.fleet, &fx.cache, JOBS).map_err(run_err)?;
        Ok(fleet_outcome(&report))
    }

    fn fleet_monitored(&self) -> Result<Outcome, BenchError> {
        let fx = self.fx;
        let tenants = fx.fleet_tenants(|b| Model::Resnet50.build(b));
        let (report, _monitor) =
            run_fleet_monitored(&fx.topology, &tenants, &fx.fleet, &fx.cache, JOBS)
                .map_err(run_err)?;
        Ok(fleet_outcome(&report))
    }
}

fn serve_config(accel: &Accelerator, seed: u64) -> ServeConfig {
    let gpc = accel.config().groups_per_cluster;
    ServeConfig {
        duration_ms: SERVE_HORIZON_MS,
        seed,
        record_requests: false,
        faults: Default::default(),
        retry: Default::default(),
        tenants: SERVE_TENANTS
            .iter()
            .enumerate()
            .map(|(i, &(name, _, qps))| TenantSpec {
                name: name.to_string(),
                model: i,
                arrival: ArrivalProcess::Poisson { qps },
                batch: BatchPolicy::dynamic(SERVE_MAX_BATCH, SERVE_BATCH_TIMEOUT_MS),
                sla: SlaPolicy::new(SERVE_DEADLINE_MS, SERVE_QUEUE),
                scale: ScalePolicy::elastic(SERVE_DEADLINE_MS / 4.0, SERVE_DEADLINE_MS / 20.0, gpc),
                cluster: None,
                initial_groups: 1,
            })
            .collect(),
    }
}

fn remove_dir(dir: &Path) -> Result<(), BenchError> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(BenchError::Io(format!("{}: {e}", dir.display())))
        }
        _ => Ok(()),
    }
}

/// FNV-1a of a string.
pub fn digest_str(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(s);
    h.finish()
}

/// serve_mix's outcome: per-tenant counts and the exact bits of every
/// latency statistic; every request must be accounted for.
pub fn serve_outcome(r: &ServeReport) -> Outcome {
    let mut h = Fnv1a::new();
    let mut broken = None;
    for t in &r.tenants {
        h.write_str(&t.name);
        for v in [
            t.offered,
            t.completed,
            t.shed,
            t.violations,
            t.fault_dropped,
        ] {
            h.write_u64(v);
        }
        let l = &t.latency;
        h.write_u64(l.count);
        for v in [l.mean_ms, l.p50_ms, l.p95_ms, l.p99_ms, l.max_ms] {
            h.write_u64(v.to_bits());
        }
        if t.offered != t.completed + t.shed + t.fault_dropped {
            broken.get_or_insert_with(|| format!("tenant {} does not balance", t.name));
        }
    }
    if r.offered != r.completed + r.shed + r.fault_dropped {
        broken.get_or_insert_with(|| "offered != completed + shed + fault_dropped".to_string());
    }
    Outcome {
        digest: h.finish(),
        broken,
    }
}

/// gen_chat's outcome: the report JSON; the books must balance.
pub fn gen_outcome(r: &GenReport) -> Outcome {
    Outcome {
        digest: digest_str(&r.to_json()),
        broken: (!r.balanced()).then(|| "generative report does not balance".to_string()),
    }
}

/// A fleet's outcome: the report JSON; fleet-wide accounting must hold.
pub fn fleet_outcome(r: &FleetReport) -> Outcome {
    Outcome {
        digest: digest_str(&r.to_json()),
        broken: (!r.accounting_balances()).then(|| "fleet accounting does not balance".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_unknown_names_are_typed_errors() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert_eq!(
            Workload::parse("sweep_warm"),
            Err(BenchError::UnknownWorkload("sweep_warm".into()))
        );
    }

    #[test]
    fn digests_are_stable_fnv1a() {
        // The FNV-1a reference values for "" and "a".
        assert_eq!(digest_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest_str("[1]"), digest_str("[2]"));
    }

    #[test]
    fn checker_compares_to_committed_and_first_digest() {
        let ok = |digest| {
            Ok(Outcome {
                digest,
                broken: None,
            })
        };
        // Seed 7 compares against the committed digest.
        let mut c = Checker::new(Workload::ServeMix, 7);
        let committed = Workload::ServeMix.seed7_digest();
        assert!(c.check(ok(committed)).is_ok());
        assert!(c.check(ok(committed ^ 1)).is_err());
        // Another seed compares against its own first iteration.
        let mut c = Checker::new(Workload::ServeMix, 8);
        assert!(c.check(ok(42)).is_ok());
        assert!(c.check(ok(42)).is_ok());
        assert!(c.check(ok(43)).unwrap_err().contains("first iteration"));
        let broken = Outcome {
            digest: 42,
            broken: Some("books".into()),
        };
        assert_eq!(c.check(Ok(broken)), Err("books".into()));
        assert!(c.check(Err(BenchError::Run("x".into()))).is_err());
    }
}
