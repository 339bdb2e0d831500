//! The traced iteration of each workload: the same work as the plain
//! one, with a span around every call into a layer.
//!
//! Spans are recorded here, outside the simulator crates:
//!
//! * the sweeps compose `run_sweep`'s per-point work from public calls
//!   — graph build, the session cache's tier walk (fingerprint, artifact
//!   read + `program_from_json`, or `compile_recorded` +
//!   `program_to_json` + write, under the cache's own artifact names),
//!   and `Chip::run` — on an `ExperimentPlan` with the same `JOBS`;
//! * the serving engines price through wrappers of their warm
//!   `ServiceModel` / `TokenModel`, so each pricing call is a span and
//!   the engine's own time is the rest of its run;
//! * the fleet runs are timed as a whole, with only their graph builds
//!   inside.

use crate::error::{run_err, BenchError};
use crate::trace::Tracer;
use crate::workload::{
    fleet_outcome, gen_outcome, serve_outcome, Fixture, Outcome, Runner, Workload, BATCHES, JOBS,
};
use dtu::{Session, SessionOptions};
use dtu_compiler::{
    compile_recorded, session_fingerprint, CompileError, CompilerConfig, Fnv1a, Placement,
};
use dtu_fleet::{run_fleet, run_fleet_monitored};
use dtu_graph::Graph;
use dtu_harness::{
    CacheOutcome, CacheStats, ExperimentPlan, HarnessError, SweepPoint, SweepReport,
    CACHE_FORMAT_VERSION,
};
use dtu_models::Model;
use dtu_serve::{run_generative, run_serving, ServeError, ServiceModel, TokenModel};
use dtu_sim::{program_from_json, program_to_json, ChipConfig, Program};
use dtu_telemetry::TraceBuffer;
use std::path::Path;

/// One traced iteration of the runner's workload.
///
/// # Errors
///
/// Simulator and work-directory failures.
pub fn run_traced(r: &mut Runner<'_>, t: &Tracer) -> Result<Outcome, BenchError> {
    let fx = r.fx;
    match fx.workload {
        Workload::SweepCold | Workload::SweepReload => {
            let report = traced_sweep(fx, t)?;
            Ok(fx.sweep_outcome(&report))
        }
        Workload::ServeMix => {
            let before = fx.cache.stats();
            let mut timed: Vec<Timed<'_, dyn ServiceModel>> = r
                .serve_models
                .iter_mut()
                .map(|m| Timed {
                    inner: m as &mut dyn ServiceModel,
                    tracer: t,
                })
                .collect();
            let mut refs: Vec<&mut dyn ServiceModel> = timed
                .iter_mut()
                .map(|m| m as &mut dyn ServiceModel)
                .collect();
            let out = t
                .time("serve", "run", || {
                    run_serving(&fx.serve, fx.accel.config(), &mut refs)
                })
                .map_err(run_err)?;
            count_cache(t, fx.cache.stats().delta_since(before));
            t.count("serve.requests", out.report.offered as f64);
            Ok(serve_outcome(&out.report))
        }
        Workload::GenChat => {
            let before = fx.cache.stats();
            let mut timed = Timed {
                inner: &mut r.gen_model,
                tracer: t,
            };
            let out = t
                .time("gen", "run", || run_generative(&fx.gen, &mut timed))
                .map_err(run_err)?;
            count_cache(t, fx.cache.stats().delta_since(before));
            t.count("gen.tokens", out.report.decode_tokens as f64);
            t.count("gen.preemptions", out.report.preemptions as f64);
            Ok(gen_outcome(&out.report))
        }
        Workload::Fleet16 | Workload::Fleet16Monitored => {
            let tenants =
                fx.fleet_tenants(|b| t.time("models", "build", || Model::Resnet50.build(b)));
            let report = if fx.workload == Workload::Fleet16 {
                t.time("fleet", "run", || {
                    run_fleet(&fx.topology, &tenants, &fx.fleet, &fx.cache, JOBS)
                })
            } else {
                t.time("fleet", "run_monitored", || {
                    run_fleet_monitored(&fx.topology, &tenants, &fx.fleet, &fx.cache, JOBS)
                        .map(|(report, _monitor)| report)
                })
            }
            .map_err(run_err)?;
            count_cache(t, report.cache);
            // Chip-epoch slots. Every chip holds a replica and none is
            // killed, so a slot goes unsimulated only when routing sends
            // its chip no load.
            t.count("fleet.chip_epochs", (report.epochs * report.chips) as f64);
            t.count("fleet.requests", report.offered as f64);
            t.count("fleet.routed_cells", report.routed_cells as f64);
            Ok(fleet_outcome(&report))
        }
    }
}

fn count_cache(t: &Tracer, c: CacheStats) {
    t.count("cache.misses", c.misses as f64);
    t.count("cache.disk_hits", c.disk_hits as f64);
    t.count("cache.memory_hits", c.memory_hits as f64);
}

/// `run_sweep` composed from its public parts, one span per call.
fn traced_sweep(fx: &Fixture, t: &Tracer) -> Result<SweepReport, BenchError> {
    let accel = &fx.accel;
    let dir = fx.dir.as_path();
    let plan_span = t.span("plan", "run");
    let parent = plan_span.id();
    let mut plan: ExperimentPlan<'_, (SweepPoint, CacheOutcome)> = ExperimentPlan::new();
    for model in &fx.sweep_models {
        for &batch in &BATCHES {
            // The same dedup key `run_sweep` plans with.
            let mut key = Fnv1a::new();
            key.write_str("sweep/");
            key.write_str(model.name());
            key.write_u64(batch as u64);
            let label = format!("{} b{batch}", model.name());
            plan.add_point(key.finish(), label.clone(), &[], move |_| {
                let _point = t.span_under(parent, "plan", "point");
                let job_err = |e: String| HarnessError::Job {
                    label: label.clone(),
                    message: e,
                };
                let graph = t.time("models", "build", || model.build(batch));
                let (placement, compiler, batch) = SessionOptions::batched(batch).resolve(accel);
                let (program, outcome) =
                    tier_walk(t, dir, &graph, accel.config(), &placement, &compiler, batch)
                        .map_err(job_err)?;
                t.count("sim.commands_walked", program.total_commands() as f64);
                let session = Session::from_program(accel, program, batch);
                let report = t
                    .time("sim", "walk", || session.run())
                    .map_err(|e| job_err(e.to_string()))?;
                Ok((
                    SweepPoint {
                        model: model.name().to_string(),
                        batch,
                        latency_ms: report.latency_ms(),
                        throughput_sps: report.throughput(),
                        energy_j: report.energy_joules(),
                        cache: outcome.label(),
                    },
                    outcome,
                ))
            });
        }
    }
    let mut points = Vec::with_capacity(plan.len());
    let mut cache = CacheStats::default();
    for result in plan.run(JOBS) {
        let (point, outcome) = result.map_err(run_err)?;
        match outcome {
            CacheOutcome::Miss => cache.misses += 1,
            CacheOutcome::DiskHit => cache.disk_hits += 1,
            CacheOutcome::MemoryHit => cache.memory_hits += 1,
        }
        points.push(point);
    }
    drop(plan_span);
    count_cache(t, cache);
    Ok(SweepReport {
        models: fx
            .sweep_models
            .iter()
            .map(|m| m.name().to_string())
            .collect(),
        batches: BATCHES.to_vec(),
        points,
        cache,
    })
}

/// The disk tier's walk for a fresh `SessionCache::with_disk(dir)`:
/// load the artifact, or compile and store it.
fn tier_walk(
    t: &Tracer,
    dir: &Path,
    graph: &Graph,
    chip: &ChipConfig,
    placement: &Placement,
    compiler: &CompilerConfig,
    batch: usize,
) -> Result<(Program, CacheOutcome), String> {
    let _lookup = t.span("cache", "lookup");
    let key = session_fingerprint(graph, chip, placement, compiler, batch);
    let path = dir.join(format!("{key:016x}.v{CACHE_FORMAT_VERSION}.json"));
    let loaded = t.time("cache", "load", || {
        let text = std::fs::read_to_string(&path).ok()?;
        t.count("cache.artifact_mb", text.len() as f64 / 1e6);
        program_from_json(&text).ok()
    });
    if let Some(program) = loaded {
        return Ok((program, CacheOutcome::DiskHit));
    }
    let program = compile_traced(t, graph, chip, placement, compiler).map_err(|e| e.to_string())?;
    t.time("cache", "store", || store_artifact(t, &path, &program))?;
    Ok((program, CacheOutcome::Miss))
}

/// `compile_recorded`, with its phase spans moved onto the tracer.
fn compile_traced(
    t: &Tracer,
    graph: &Graph,
    chip: &ChipConfig,
    placement: &Placement,
    compiler: &CompilerConfig,
) -> Result<Program, CompileError> {
    let mut phases = TraceBuffer::new();
    let start = t.now_ns();
    let program = compile_recorded(graph, chip, placement, compiler, &mut phases)?;
    for s in phases.spans() {
        let (layer, name) = match s.label.as_str() {
            "optimize" => ("graph", "optimize"),
            "infer-shapes" => ("graph", "infer_shapes"),
            "fuse" => ("graph", "fuse"),
            "lower" => ("compiler", "lower"),
            "emit-streams" => ("compiler", "emit_streams"),
            _ => ("compiler", "other"),
        };
        t.record(layer, name, start + s.start_ns, start + s.end_ns);
    }
    t.count("compiler.commands", program.total_commands() as f64);
    Ok(program)
}

/// Writes an artifact the way the session cache does: serialize, then
/// write a temporary file and rename it into place.
fn store_artifact(t: &Tracer, path: &Path, program: &Program) -> Result<(), String> {
    let json = program_to_json(program).map_err(|e| e.to_string())?;
    t.count("cache.artifact_mb", json.len() as f64 / 1e6);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, json).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// A warm cost model whose every pricing call is a span.
struct Timed<'a, M: ?Sized> {
    inner: &'a mut M,
    tracer: &'a Tracer,
}

impl<M: ServiceModel + ?Sized> ServiceModel for Timed<'_, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn service_ms(&mut self, batch: usize, placement: &Placement) -> Result<f64, ServeError> {
        let _span = self.tracer.span("serve", "pricing");
        self.inner.service_ms(batch, placement)
    }
}

impl<M: TokenModel + ?Sized> TokenModel for Timed<'_, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn prefill_ms(&mut self, batch: usize, tokens: usize) -> Result<f64, ServeError> {
        let _span = self.tracer.span("gen", "prefill");
        self.inner.prefill_ms(batch, tokens)
    }

    fn decode_ms(&mut self, batch: usize, context: usize) -> Result<f64, ServeError> {
        let _span = self.tracer.span("gen", "decode");
        self.inner.decode_ms(batch, context)
    }
}
