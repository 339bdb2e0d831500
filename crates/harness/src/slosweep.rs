//! The model × fault-plan × severity SLO-grading sweep behind
//! `topsexec slo`.
//!
//! Where [`crate::run_fault_sweep`] grades fault presets by *latency
//! degradation* of a single session, this sweep grades them by the
//! damage they do to a *serving objective*: each grid point runs a
//! calibrated single-tenant serving scenario under a preset
//! [`FaultPlan`] with a [`LiveMonitor`] riding along, and reports how
//! much of the SLO's error budget the preset burned, and whether the
//! multi-window burn-rate alert paged.
//!
//! The scenario is self-calibrating so one set of knobs works across
//! models of very different speeds: the tenant's arrival rate is a
//! fixed utilisation of its measured two-group batched capacity, and
//! the SLO deadline is a fixed margin over the p99 of a fault-free
//! calibration run with the *same* seed. Per-point seeds derive from
//! the point's content key (like every other sweep), so reports are
//! byte-identical across `--jobs` and cache temperature.

use crate::{CacheStats, ExperimentPlan, HarnessError, SessionCache, SweepModel};
use dtu::Accelerator;
use dtu_compiler::{Fnv1a, Placement};
use dtu_serve::faults::FaultPlan;
use dtu_serve::{
    run_serving, run_serving_live, ArrivalProcess, BatchPolicy, CompiledModel, LiveConfig,
    LiveMonitor, RetryPolicy, ScalePolicy, ServeConfig, ServeError, ServiceModel, SlaPolicy,
    TenantSpec,
};
use dtu_telemetry::json::{array, escape, number, JsonObject};
use dtu_telemetry::{AlertKind, SloSpec};

/// Knobs of the calibrated serving scenario every grid point runs.
///
/// All quantities are relative to the model under test, so the
/// defaults hold for anything from a toy graph to BERT: arrivals at
/// [`SloScenario::utilization`] of measured capacity, deadline at
/// [`SloScenario::deadline_margin`] × calibrated fault-free p99.
#[derive(Debug, Clone, PartialEq)]
pub struct SloScenario {
    /// Simulated arrival horizon, ms. The default (10 simulated
    /// seconds) spans enough 1 s burn-rate evaluations for the
    /// multi-window rule to fire and settle.
    pub duration_ms: f64,
    /// Offered load as a fraction of the tenant's measured two-group
    /// full-batch capacity.
    pub utilization: f64,
    /// SLO deadline as a multiple of the calibrated fault-free p99.
    pub deadline_margin: f64,
    /// Target percentile of the SLO (error budget = 1 − percentile).
    pub percentile: f64,
    /// Dynamic-batching cap.
    pub max_batch: usize,
    /// Dynamic-batching timeout, ms.
    pub batch_timeout_ms: f64,
    /// Admission queue cap; arrivals beyond it shed.
    pub queue_depth: usize,
    /// Hard cap on the calibrated arrival rate, queries per simulated
    /// second. Bounds the event count for very fast models; a capped
    /// model runs below the target utilisation, so its grades reflect
    /// a lighter load.
    pub max_qps: f64,
}

impl Default for SloScenario {
    fn default() -> Self {
        SloScenario {
            duration_ms: 10_000.0,
            utilization: 0.75,
            deadline_margin: 1.6,
            percentile: 0.99,
            max_batch: 4,
            batch_timeout_ms: 1.0,
            queue_depth: 256,
            max_qps: 20_000.0,
        }
    }
}

/// The measured outcome of one (model, fault plan, severity) point.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPoint {
    /// Model name.
    pub model: String,
    /// Fault-plan preset name (see `dtu::faults::PRESETS`).
    pub plan: String,
    /// Severity in `[0, 1]` the plan was built at.
    pub severity: f64,
    /// Per-point seed (derived from the point's content key).
    pub seed: u64,
    /// Calibrated offered load, queries per simulated second.
    pub qps: f64,
    /// Calibrated SLO deadline, ms.
    pub deadline_ms: f64,
    /// False when the faults killed the tenant's last group and the
    /// run aborted (graded as an outage, not a sweep failure).
    pub ok: bool,
    /// Requests completed.
    pub completed: u64,
    /// Completions that missed the SLO deadline.
    pub violated: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Multiples of the error budget consumed over the run
    /// (`(violated/completed) / (1 − percentile)`; 1.0 = budget gone).
    pub budget_consumed: f64,
    /// Burn-rate alerts that fired.
    pub burn_alerts: usize,
    /// Injected-fault alerts observed (fault markers, group losses).
    pub fault_alerts: usize,
    /// Burn-rate alerts that resolved before the end of the run.
    pub resolved: usize,
    /// Simulated time of the first burn-rate alert, ms.
    pub first_alert_ms: Option<f64>,
    /// p50 latency over the run, ms.
    pub p50_ms: f64,
    /// p99 latency over the run, ms.
    pub p99_ms: f64,
}

impl SloPoint {
    /// A coarse grade: `outage` (run died), `paging` (burn-rate alert
    /// fired), `degraded` (budget gone but no page), `within-budget`.
    pub fn grade(&self) -> &'static str {
        if !self.ok {
            "outage"
        } else if self.burn_alerts > 0 {
            "paging"
        } else if self.budget_consumed >= 1.0 {
            "degraded"
        } else {
            "within-budget"
        }
    }
}

/// The outcome of an SLO sweep: points in grid order plus the cache
/// delta attributable to the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSweepReport {
    /// Model names, in grid order.
    pub models: Vec<String>,
    /// Fault-plan preset names, in grid order.
    pub plans: Vec<String>,
    /// Severities, in grid order.
    pub severities: Vec<f64>,
    /// The sweep seed every point key mixes in.
    pub seed: u64,
    /// One point per (model, plan, severity), models-major.
    pub points: Vec<SloPoint>,
    /// Cache hits/misses attributable to this sweep alone.
    pub cache: CacheStats,
}

impl SloSweepReport {
    /// Fraction of grid points that stayed within their error budget
    /// without paging.
    pub fn compliance(&self) -> f64 {
        if self.points.is_empty() {
            return 1.0;
        }
        self.points
            .iter()
            .filter(|p| p.grade() == "within-budget")
            .count() as f64
            / self.points.len() as f64
    }

    /// The full deterministic JSON report: no wall-clock, no worker
    /// count, no cache provenance — two runs of the same grid and seed
    /// are byte-identical whatever `--jobs` was and however warm the
    /// artifact cache is.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(point_json).collect();
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
                                .map(|m| format!("\"{}\"", escape(m)))
                                .collect::<Vec<_>>(),
                        ),
                    )
                    .raw(
                        "plans",
                        &array(
                            &self
                                .plans
                                .iter()
                                .map(|p| format!("\"{}\"", escape(p)))
                                .collect::<Vec<_>>(),
                        ),
                    )
                    .raw(
                        "severities",
                        &array(
                            &self
                                .severities
                                .iter()
                                .map(|s| number(*s))
                                .collect::<Vec<_>>(),
                        ),
                    )
                    .build(),
            )
            .int("seed", self.seed as i64)
            .raw("compliance", &number(self.compliance()))
            .raw("points", &array(&points))
            .build()
    }

    /// A human-readable fixed-width table.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:<14} {:>4} {:>8} {:>10} {:>9} {:>6} {:>6} {:>9} {:<13}",
            "model",
            "plan",
            "sev",
            "qps",
            "p99(ms)",
            "budget",
            "pages",
            "faults",
            "first(ms)",
            "grade"
        );
        for p in &self.points {
            let first = p
                .first_alert_ms
                .map_or_else(|| "-".to_string(), |t| format!("{t:.0}"));
            let _ = writeln!(
                out,
                "{:<14} {:<14} {:>4.2} {:>8.0} {:>10.3} {:>9.2} {:>6} {:>6} {:>9} {:<13}",
                p.model,
                p.plan,
                p.severity,
                p.qps,
                p.p99_ms,
                p.budget_consumed,
                p.burn_alerts,
                p.fault_alerts,
                first,
                p.grade()
            );
        }
        let _ = writeln!(
            out,
            "compliance: {:.1}% of {} points within budget; cache: {} memory + {} disk hits, {} misses",
            self.compliance() * 100.0,
            self.points.len(),
            self.cache.memory_hits,
            self.cache.disk_hits,
            self.cache.misses
        );
        out
    }
}

fn point_json(p: &SloPoint) -> String {
    let mut obj = JsonObject::new()
        .string("model", &p.model)
        .string("plan", &p.plan)
        .raw("severity", &number(p.severity))
        .int("seed", p.seed as i64)
        .raw("qps", &number(p.qps))
        .raw("deadline_ms", &number(p.deadline_ms))
        .raw("ok", if p.ok { "true" } else { "false" })
        .int("completed", p.completed as i64)
        .int("violated", p.violated as i64)
        .int("shed", p.shed as i64)
        .raw("budget_consumed", &number(p.budget_consumed))
        .int("burn_alerts", p.burn_alerts as i64)
        .int("fault_alerts", p.fault_alerts as i64)
        .int("resolved", p.resolved as i64);
    obj = match p.first_alert_ms {
        Some(t) => obj.raw("first_alert_ms", &number(t)),
        None => obj.raw("first_alert_ms", "null"),
    };
    obj.raw("p50_ms", &number(p.p50_ms))
        .raw("p99_ms", &number(p.p99_ms))
        .string("grade", p.grade())
        .build()
}

/// The serving configuration every point runs: one tenant pinned to
/// two groups of cluster 0 (matching the fault plan's target space),
/// autoscaling off so capacity loss is not silently repaired.
fn scenario_cfg(
    name: &str,
    scenario: &SloScenario,
    qps: f64,
    deadline_ms: f64,
    seed: u64,
    faults: FaultPlan,
) -> ServeConfig {
    ServeConfig {
        duration_ms: scenario.duration_ms,
        seed,
        record_requests: false,
        faults,
        retry: RetryPolicy::default(),
        tenants: vec![TenantSpec {
            name: name.to_string(),
            model: 0,
            arrival: ArrivalProcess::Poisson { qps },
            batch: BatchPolicy::dynamic(scenario.max_batch, scenario.batch_timeout_ms),
            sla: SlaPolicy::new(deadline_ms, scenario.queue_depth),
            scale: ScalePolicy::none(),
            cluster: Some(0),
            initial_groups: 2,
        }],
    }
}

/// The per-point seed [`run_slo_sweep`] derives for a grid point: a
/// content hash of (model, plan, severity, sweep seed), so a point's
/// arrivals and fault schedule do not depend on its execution slot.
/// Exposed so single-point callers (`topsexec slo --flight-out`) can
/// reproduce exactly the run a sweep graded.
pub fn slo_point_seed(model: &str, plan: &str, severity: f64, seed: u64) -> u64 {
    let mut key = Fnv1a::new();
    key.write_str("slo/");
    key.write_str(model);
    key.write_str("/");
    key.write_str(plan);
    key.write_u64(severity.to_bits());
    key.write_u64(seed);
    seed ^ key.finish()
}

/// Runs one calibrated SLO scenario and returns the graded point plus
/// the [`LiveMonitor`] that watched it (alerts, windowed series, and
/// the flight recorder with any dumps the faults triggered).
///
/// # Errors
///
/// Compile failures and non-fault simulation errors. A fault that
/// kills the tenant's last group is *not* an error — it grades as an
/// `outage` point.
pub fn run_slo_scenario(
    accel: &Accelerator,
    model: &SweepModel<'_>,
    plan_name: &str,
    severity: f64,
    point_seed: u64,
    scenario: &SloScenario,
    cache: &SessionCache,
) -> Result<(SloPoint, LiveMonitor), HarnessError> {
    let chip = accel.config();
    let mut compiled =
        CompiledModel::new(accel.chip(), model.name(), |b| model.build(b)).with_source(cache);

    // Capacity probe: the service time of a full batch on the
    // tenant's two-group placement sets the offered load.
    let two_groups = Placement::cluster_groups(0, 2, chip);
    let full_batch_ms = compiled
        .service_ms(scenario.max_batch, &two_groups)
        .map_err(serve_err(model.name(), plan_name))?;
    let qps = (scenario.utilization * scenario.max_batch as f64 / full_batch_ms * 1e3)
        .min(scenario.max_qps);

    // Calibration: the same arrival stream, fault-free, with an
    // unreachable deadline. Its p99 anchors the SLO.
    let calib_cfg = scenario_cfg(
        model.name(),
        scenario,
        qps,
        f64::INFINITY,
        point_seed,
        FaultPlan::empty(),
    );
    let calib = run_serving(&calib_cfg, chip, &mut [&mut compiled])
        .map_err(serve_err(model.name(), plan_name))?;
    let deadline_ms = scenario.deadline_margin * calib.report.latency.p99_ms.max(full_batch_ms);

    // The graded run: same seed (same arrivals), preset faults aimed
    // at the tenant's two groups, live monitor riding along.
    let horizon_ns = scenario.duration_ms * 1e6;
    let fault_plan = FaultPlan::preset(plan_name, point_seed, severity, 1, 2, horizon_ns)
        .map_err(HarnessError::Config)?;
    let spec = SloSpec::new(
        format!("p{:.0}<{deadline_ms:.2}ms", scenario.percentile * 100.0),
        scenario.percentile,
        deadline_ms,
    );
    let mut mon = LiveMonitor::new(LiveConfig { slo: Some(spec) });
    let cfg = scenario_cfg(
        model.name(),
        scenario,
        qps,
        deadline_ms,
        point_seed,
        fault_plan,
    );
    let outcome = run_serving_live(&cfg, chip, &mut [&mut compiled], &mut mon);
    let ok = match outcome {
        Ok(_) => true,
        // The last group died: an outage finding, not a sweep failure.
        Err(ServeError::Outage(_)) => false,
        Err(other) => return Err(serve_err(model.name(), plan_name)(other)),
    };

    // Everything graded comes from the monitor, so the point reads the
    // same whether or not the run survived to produce a report.
    let ten = &mon.tenants()[0];
    let tracker = ten
        .latency
        .slo
        .as_ref()
        .expect("scenario always sets an SLO");
    let hist = ten.latency.hist.merged();
    let alerts_of = |kind: AlertKind| mon.alerts.iter().filter(|(_, a)| a.kind == kind).count();
    let point = SloPoint {
        model: model.name().to_string(),
        plan: plan_name.to_string(),
        severity,
        seed: point_seed,
        qps,
        deadline_ms,
        ok,
        completed: tracker.completed(),
        violated: tracker.violated(),
        shed: ten.sheds.total() as u64,
        budget_consumed: tracker.budget_consumed(),
        burn_alerts: alerts_of(AlertKind::BurnRate),
        fault_alerts: alerts_of(AlertKind::Fault),
        resolved: alerts_of(AlertKind::Resolved),
        first_alert_ms: mon.burn_alerts().next().map(|(_, a)| a.t_ns / 1e6),
        p50_ms: hist.quantile(0.50),
        p99_ms: hist.quantile(0.99),
    };
    Ok((point, mon))
}

fn serve_err(model: &str, plan: &str) -> impl Fn(ServeError) -> HarnessError {
    let label = format!("{model} {plan}");
    move |e| HarnessError::Job {
        label: label.clone(),
        message: e.to_string(),
    }
}

/// Runs a model × fault-plan × severity grid (models-major order) on
/// `jobs` workers, compiling every serving session through `cache`.
///
/// Each point derives its seed from a content hash of (model, plan,
/// severity, `seed`), so the arrivals and fault schedule a point sees
/// are a function of *what* it is, not *when* it ran: reports are
/// byte-identical for any `jobs`.
///
/// # Errors
///
/// The first failing point's [`HarnessError`] in grid order. A fault
/// that takes the tenant's last group is *not* an error — it grades
/// as an `outage` point — but unknown plan names, compile failures,
/// and non-fault simulation errors fail the sweep loudly.
// One past clippy's argument budget: this mirrors `run_fault_sweep`'s
// signature plus the scenario handle, and callers pass it verbatim.
#[allow(clippy::too_many_arguments)]
pub fn run_slo_sweep(
    accel: &Accelerator,
    models: &[SweepModel<'_>],
    plans: &[&str],
    severities: &[f64],
    seed: u64,
    scenario: &SloScenario,
    cache: &SessionCache,
    jobs: usize,
) -> Result<SloSweepReport, HarnessError> {
    if models.is_empty() || plans.is_empty() || severities.is_empty() {
        return Err(HarnessError::Config(
            "slo sweep needs at least one model, one plan, and one severity".into(),
        ));
    }
    let stats_before = cache.stats();
    let mut plan_points: ExperimentPlan<'_, SloPoint> = ExperimentPlan::new();
    for model in models {
        for &plan_name in plans {
            for &severity in severities {
                let mut key = Fnv1a::new();
                key.write_str("slo/");
                key.write_str(model.name());
                key.write_str("/");
                key.write_str(plan_name);
                key.write_u64(severity.to_bits());
                key.write_u64(seed);
                let point_key = key.finish();
                let point_seed = slo_point_seed(model.name(), plan_name, severity, seed);
                let label = format!("{} {plan_name} s{severity:.2}", model.name());
                plan_points.add_point(point_key, label, &[], move |_| {
                    run_slo_scenario(
                        accel, model, plan_name, severity, point_seed, scenario, cache,
                    )
                    .map(|(point, _)| point)
                });
            }
        }
    }
    let mut points = Vec::with_capacity(plan_points.len());
    for result in plan_points.run(jobs) {
        points.push(result?);
    }
    Ok(SloSweepReport {
        models: models.iter().map(|m| m.name().to_string()).collect(),
        plans: plans.iter().map(|p| p.to_string()).collect(),
        severities: severities.to_vec(),
        seed,
        points,
        cache: cache.stats().delta_since(stats_before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_graph::{Graph, Op, TensorType};

    /// Heavy enough that batch sharding across two groups genuinely
    /// ~halves the service time (losing a group ~doubles it), and slow
    /// enough (~5 ms/batch) that the calibrated arrival rate stays in
    /// the hundreds of requests per simulated second.
    fn toy_model() -> SweepModel<'static> {
        SweepModel::new("convstack", |batch| {
            let mut g = Graph::new("convstack");
            let mut x = g.input("x", TensorType::fixed(&[batch, 128, 56, 56]));
            for _ in 0..6 {
                x = g.add_node(Op::conv2d(256, 3, 1, 1), vec![x]).unwrap();
            }
            g.mark_output(x);
            g
        })
    }

    /// A scenario short enough for unit tests but still spanning
    /// several burn-rate evaluation windows.
    fn test_scenario() -> SloScenario {
        SloScenario {
            duration_ms: 8_000.0,
            utilization: 0.85,
            deadline_margin: 1.2,
            ..SloScenario::default()
        }
    }

    #[test]
    fn clean_plan_stays_within_budget_and_quiet() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        let models = [toy_model()];
        let r = run_slo_sweep(
            &accel,
            &models,
            &["none"],
            &[0.5],
            7,
            &test_scenario(),
            &cache,
            1,
        )
        .unwrap();
        let p = &r.points[0];
        assert!(p.ok);
        assert!(p.completed > 100, "calibrated load produces traffic");
        assert_eq!(p.burn_alerts, 0, "fault-free run must not page");
        assert_eq!(p.fault_alerts, 0);
        assert!(
            p.budget_consumed < 1.0,
            "deadline margin holds: {} of budget",
            p.budget_consumed
        );
        assert_eq!(p.grade(), "within-budget");
        assert_eq!(r.compliance(), 1.0);
    }

    #[test]
    fn core_failure_burns_the_budget_and_pages() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        let models = [toy_model()];
        let (p, mon) = run_slo_scenario(
            &accel,
            &models[0],
            "core-failure",
            1.0,
            7,
            &test_scenario(),
            &cache,
        )
        .unwrap();
        assert!(p.ok, "one dead group out of two degrades, not kills");
        assert!(p.fault_alerts >= 1, "the group loss is announced");
        assert!(
            p.burn_alerts >= 1,
            "losing half the capacity must page: budget={} violated={}/{}",
            p.budget_consumed,
            p.violated,
            p.completed
        );
        assert!(p.budget_consumed >= 1.0);
        assert_eq!(p.grade(), "paging");
        assert!(p.first_alert_ms.is_some());
        // The page dumped the flight recorder, and the alert's
        // exemplar span is resolvable inside the dump.
        assert!(!mon.flight.dumps().is_empty());
        let exemplar = mon
            .burn_alerts()
            .find_map(|(_, a)| a.exemplar)
            .expect("burn alert carries an exemplar");
        assert!(mon
            .flight
            .dumps()
            .iter()
            .any(|d| d.resolves_label(&format!("req {exemplar}"))));
    }

    #[test]
    fn report_is_byte_identical_across_jobs() {
        let accel = Accelerator::cloudblazer_i20();
        let models = [toy_model()];
        let plans = ["none", "core-failure"];
        let scenario = test_scenario();
        let cache1 = SessionCache::memory_only();
        let r1 = run_slo_sweep(&accel, &models, &plans, &[1.0], 42, &scenario, &cache1, 1).unwrap();
        let cache8 = SessionCache::memory_only();
        let r8 = run_slo_sweep(&accel, &models, &plans, &[1.0], 42, &scenario, &cache8, 8).unwrap();
        assert_eq!(r1.to_json(), r8.to_json());
        assert!(r1.to_json().contains("\"compliance\""));
    }

    #[test]
    fn unknown_plan_or_empty_grid_fails_loudly() {
        let accel = Accelerator::cloudblazer_i20();
        let cache = SessionCache::memory_only();
        let models = [toy_model()];
        let s = test_scenario();
        assert!(run_slo_sweep(&accel, &models, &[], &[0.5], 1, &s, &cache, 1).is_err());
        assert!(run_slo_sweep(&accel, &[], &["none"], &[0.5], 1, &s, &cache, 1).is_err());
        let err =
            run_slo_sweep(&accel, &models, &["meteor"], &[0.5], 1, &s, &cache, 1).unwrap_err();
        assert!(err.to_string().contains("meteor"));
    }
}
