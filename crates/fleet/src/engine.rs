//! The fleet engine: epoch-synchronised execution of per-chip serving
//! simulations on the harness worker pool.
//!
//! Time is divided into *routing epochs*. At the start of each epoch
//! the router assigns every tenant's fleet-wide load to live replicas
//! (`crate::route_epoch`), then every chip with traffic runs an
//! independent [`dtu_serve`] simulation of the epoch as one point of a
//! fresh [`ExperimentPlan`] — the epoch boundary is the
//! synchronisation point where results merge, the router's EWMA
//! updates, rolls advance, and chip losses re-place replicas. Each
//! epoch's serve run drains (admitted requests complete), which models
//! in-flight work finishing before the next routing decision.
//!
//! Pricing: a run owns one price table, keyed by (tenant, chip-config
//! class, batch, sorted groups). A chip-epoch asks it before building,
//! fetching or walking anything, so each distinct session is priced —
//! its graph built, its program fetched from the shared
//! [`SessionCache`] and walked by `Chip::run` — once per run, however
//! many chips and epochs meet it. The table is a memo of the walk, not
//! a second timing path. Kill epochs and their truncated re-runs use it
//! too: `Chip::run` takes `&self` and the serve engine applies fault
//! effects only after `service_ms` returns, so a table hit equals a
//! fresh walk.
//!
//! Determinism: per-(chip, epoch) serve seeds are content hashes of
//! (fleet seed, chip, epoch); results merge in chip order whatever the
//! worker schedule did; the router and scheduler use no hash-map
//! iteration. Two runs with the same inputs produce byte-identical
//! [`FleetReport::to_json`] output for any `--jobs` and any cache
//! temperature.
//!
//! Chip loss: a [`ChipKill`] schedules the permanent failure of every
//! processing group on one chip (a [`FaultKind::CoreFailure`] per
//! group, built on the same `dtu-faults` plan machinery the per-chip
//! presets use). When the failure aborts the chip's epoch mid-run, the
//! engine re-runs the epoch truncated at the kill time with the same
//! seed — the arrival prefix is identical — so the dead chip's books
//! close exactly: requests that would have arrived after the kill are
//! never offered (clients fail over at the next epoch), and
//! `offered == completed + shed + fault_dropped` holds fleet-wide.

use crate::monitor::{ChipEpochLog, FleetMonitor, SliceStats};
use crate::{
    place, replace_after_loss, route_epoch, FleetChipReport, FleetError, FleetReport, FleetTenant,
    FleetTenantReport, FleetTopology, PricingStats, RollPlan, RollState, RouterState,
};
use dtu_compiler::{Fnv1a, Placement};
use dtu_faults::{FaultEvent, FaultKind, FaultPlan};
use dtu_harness::{ExperimentPlan, HarnessError, SessionCache};
use dtu_serve::{
    run_serving, ArrivalProcess, BatchPolicy, CompiledModel, PriceMemo, RetryPolicy, ScalePolicy,
    ServeConfig, ServeError, ServiceModel, SlaPolicy, TenantSpec,
};
use dtu_sim::{Chip, GroupId};
use dtu_telemetry::LogHistogram;
use std::collections::HashMap;
use std::sync::Mutex;

/// A scheduled whole-chip failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipKill {
    /// The chip to kill: an index into the topology.
    pub chip: usize,
    /// Simulated failure time, ms; not NaN. It is clamped into the
    /// run: a negative time kills the chip at the start, and a time at
    /// or past the horizon never fires.
    pub at_ms: f64,
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Arrival horizon, ms (each epoch's serve run then drains).
    pub duration_ms: f64,
    /// Routing-epoch length, ms.
    pub epoch_ms: f64,
    /// Fleet seed; folded into every routing and serve seed.
    pub seed: u64,
    /// Routing cells per live replica per epoch (balancing
    /// granularity); at least 1.
    pub cells_per_replica: usize,
    /// Optional rolling deploy to run.
    pub roll: Option<RollPlan>,
    /// Optional whole-chip failure to inject.
    pub kill: Option<ChipKill>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            duration_ms: 10_000.0,
            epoch_ms: 1_000.0,
            seed: 7,
            cells_per_replica: 2,
            roll: None,
            kill: None,
        }
    }
}

impl FleetConfig {
    /// Checks the run-level rules for a fleet of `chips` chips: a
    /// duration and an epoch length that are positive and finite, at
    /// most 10 000 routing epochs, at least one routing cell per
    /// replica, a kill that names a chip of the fleet at a time that is
    /// a number, and a roll that starts at a number and drains at least
    /// one chip per epoch. [`run_fleet`] calls this first.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] naming the first bad field and its value.
    pub fn validate(&self, chips: usize) -> Result<(), FleetError> {
        let (duration, epoch) = (self.duration_ms, self.epoch_ms);
        let positive_finite = |x: f64| x.is_finite() && x > 0.0;
        let epochs = (duration / epoch).ceil();
        let roll = self.roll.as_ref();
        let why = if !(positive_finite(epoch) && positive_finite(duration)) {
            format!(
                "fleet duration and epoch length must be positive and finite, \
                 got {duration} ms and {epoch} ms"
            )
        } else if epochs > MAX_EPOCHS as f64 {
            format!(
                "a fleet run takes at most {MAX_EPOCHS} routing epochs, but {duration} ms \
                 in {epoch} ms epochs takes {epochs}"
            )
        } else if self.cells_per_replica == 0 {
            "cells_per_replica must be at least 1, got 0".into()
        } else if let Some(kill) = self.kill.filter(|k| k.chip >= chips) {
            format!("kill targets chip {} but the fleet has {chips}", kill.chip)
        } else if let Some(kill) = self.kill.filter(|k| k.at_ms.is_nan()) {
            format!(
                "the kill time of chip {} must be a number, got NaN",
                kill.chip
            )
        } else if roll.is_some_and(|r| r.start_ms.is_nan()) {
            "the roll start time must be a number, got NaN".into()
        } else if roll.is_some_and(|r| r.chips_per_epoch == 0) {
            "roll chips_per_epoch must be at least 1, got 0".into()
        } else {
            return Ok(());
        };
        Err(FleetError::Config(why))
    }
}

/// One tenant's share of one chip-epoch simulation.
#[derive(Debug, Clone)]
struct TenantSlice {
    /// Fleet tenant index.
    tenant: usize,
    offered: u64,
    completed: u64,
    shed: u64,
    violations: u64,
    retries: u64,
    fault_dropped: u64,
    groups_lost: u64,
    /// Exact latency histogram of the slice's completions.
    hist: LogHistogram,
    /// `mean_queue_delay_ms * completed`, for completion-weighted
    /// delay merging at the epoch barrier.
    queue_delay_weight: f64,
}

/// The result of one chip's epoch, merged at the epoch barrier.
#[derive(Debug, Clone)]
struct ChipEpochOutcome {
    chip: usize,
    killed: bool,
    faults_injected: u64,
    groups_lost: u64,
    slices: Vec<TenantSlice>,
    /// The serving log, when the run is observed. For a killed chip
    /// this is the *aborted* run's log — the operator's view of the
    /// failure — while the slices come from the truncated re-run so the
    /// books still close.
    log: Option<ChipEpochLog>,
}

/// Most routing epochs one fleet run may take. Every epoch re-routes
/// and re-runs each serving chip, so a tiny `epoch_ms` would otherwise
/// run for hours; the default CLI fleet takes 20.
const MAX_EPOCHS: usize = 10_000;

/// The content-derived serve seed for one (chip, epoch).
fn chip_epoch_seed(fleet_seed: u64, chip: usize, epoch: usize) -> u64 {
    let mut key = Fnv1a::new();
    key.write_str("fleet-serve/");
    key.write_u64(fleet_seed);
    key.write_u64(chip as u64);
    key.write_u64(epoch as u64);
    key.finish()
}

/// A fault plan that permanently fails every processing group of a
/// chip at `at_ms` (relative to the epoch start).
fn chip_kill_plan(cfg: &dtu_sim::ChipConfig, at_ms: f64, seed: u64) -> FaultPlan {
    let mut events = Vec::with_capacity(cfg.total_groups());
    for cluster in 0..cfg.clusters {
        for group in 0..cfg.groups_per_cluster {
            events.push(FaultEvent {
                at_ns: at_ms * 1e6,
                cluster,
                group,
                kind: FaultKind::CoreFailure,
            });
        }
    }
    FaultPlan {
        seed,
        name: "chip-kill".to_string(),
        events,
    }
}

/// The serving tenant a replica of `tenant` runs at `qps`, as model
/// `model` of its chip-epoch, on a chip of `groups_per_cluster`-group
/// clusters.
fn replica_spec(
    tenant: &FleetTenant<'_>,
    model: usize,
    qps: f64,
    groups_per_cluster: usize,
) -> TenantSpec {
    TenantSpec {
        name: tenant.model.name().to_string(),
        model,
        arrival: ArrivalProcess::Poisson { qps },
        batch: BatchPolicy::dynamic(tenant.max_batch, tenant.batch_timeout_ms),
        sla: SlaPolicy::new(tenant.deadline_ms, tenant.queue_depth),
        scale: if tenant.autoscale {
            ScalePolicy::elastic(
                tenant.deadline_ms * 0.5,
                tenant.deadline_ms * 0.1,
                groups_per_cluster,
            )
        } else {
            ScalePolicy::none()
        },
        cluster: None,
        initial_groups: tenant.initial_groups,
    }
}

/// Builds the per-chip serve configuration for one epoch: one tenant
/// per assigned (fleet tenant, qps), each serving the chip's model of
/// the same index.
fn chip_serve_config(
    tenants: &[FleetTenant<'_>],
    assignment: &[(usize, f64)],
    groups_per_cluster: usize,
    duration_ms: f64,
    seed: u64,
    faults: FaultPlan,
) -> ServeConfig {
    ServeConfig {
        duration_ms,
        seed,
        record_requests: true,
        faults,
        retry: RetryPolicy::default(),
        tenants: assignment
            .iter()
            .enumerate()
            .map(|(i, &(t, qps))| replica_spec(&tenants[t], i, qps, groups_per_cluster))
            .collect(),
    }
}

/// What a session's walked latency depends on within one run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PriceKey {
    /// Fleet tenant index (its builder fixes the graph).
    tenant: usize,
    /// The chip's config class (see [`PriceTable::new`]).
    class: usize,
    batch: usize,
    /// Sorted, so the key does not depend on the placement's order.
    groups: Vec<GroupId>,
}

/// One run's price table: the walked latency of every session a
/// chip-epoch has met, shared by every chip-epoch of the run.
struct PriceTable {
    /// `classes[c]` is the first chip whose `ChipConfig` equals chip
    /// `c`'s, so chips with equal configs share prices.
    classes: Vec<usize>,
    book: Mutex<PriceBook>,
}

#[derive(Default)]
struct PriceBook {
    prices: HashMap<PriceKey, f64>,
    stats: PricingStats,
}

impl PriceTable {
    fn new(topology: &FleetTopology) -> Self {
        let config = |c: usize| &topology.chip(c).config;
        let classes = (0..topology.len())
            .map(|c| (0..c).find(|&f| config(f) == config(c)).unwrap_or(c))
            .collect();
        PriceTable {
            classes,
            book: Mutex::default(),
        }
    }

    fn get(&self, key: &PriceKey) -> Option<f64> {
        let mut book = self.book.lock().expect("price table lock");
        book.stats.lookups += 1;
        book.prices.get(key).copied()
    }

    fn insert(&self, key: PriceKey, service_ms: f64) {
        let mut book = self.book.lock().expect("price table lock");
        book.stats.walks += 1;
        book.prices.insert(key, service_ms);
    }

    fn stats(&self) -> PricingStats {
        self.book.lock().expect("price table lock").stats
    }
}

/// A tenant's compiled model on one chip-epoch, priced through the
/// run's table. `seen` answers the chip-epoch's repeat dispatches
/// without allocating or hashing, the table answers sessions another
/// chip-epoch already walked, and only what neither knows reaches
/// `inner`, which builds, fetches and walks.
struct PricedModel<'a> {
    inner: CompiledModel<'a>,
    table: &'a PriceTable,
    tenant: usize,
    class: usize,
    seen: PriceMemo,
}

impl ServiceModel for PricedModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn service_ms(&mut self, batch: usize, placement: &Placement) -> Result<f64, ServeError> {
        if let Some(service_ms) = self.seen.get(batch, placement) {
            return Ok(service_ms);
        }
        let mut groups = placement.groups().to_vec();
        groups.sort_unstable();
        let key = PriceKey {
            tenant: self.tenant,
            class: self.class,
            batch,
            groups,
        };
        let service_ms = match self.table.get(&key) {
            Some(service_ms) => service_ms,
            None => {
                let service_ms = self.inner.service_ms(batch, placement)?;
                self.table.insert(key, service_ms);
                service_ms
            }
        };
        self.seen.insert(batch, placement, service_ms);
        Ok(service_ms)
    }
}

fn job_err(label: &str) -> impl Fn(ServeError) -> HarnessError + '_ {
    move |e| HarnessError::Job {
        label: label.to_string(),
        message: e.to_string(),
    }
}

/// Runs one chip's slice of one epoch: prices the assigned tenants'
/// sessions through the run's table (compiling any new one through the
/// shared cache), serves the epoch, and reduces the outcome to
/// per-tenant slices. A whole-chip kill that aborts the run
/// is retried truncated at the kill time (same seed, identical arrival
/// prefix) so the dead chip's accounting closes exactly.
///
/// `log_epoch`, the (epoch, start ms) of a monitored run, reads the
/// serving log (the aborted run's, for a killed chip) onto the fleet
/// clock for the fleet monitor: the job folds it into the monitor's 1 s
/// windows, and the log moves into the outcome for the chip's ring.
/// Otherwise the log is dropped here. The slices — and therefore the
/// report — never depend on it.
#[allow(clippy::too_many_arguments)]
fn run_chip_epoch(
    topology: &FleetTopology,
    tenants: &[FleetTenant<'_>],
    assignment: &[(usize, f64)],
    chip_idx: usize,
    epoch_len_ms: f64,
    serve_seed: u64,
    kill_offset_ms: Option<f64>,
    log_epoch: Option<(usize, f64)>,
    cache: &SessionCache,
    prices: &PriceTable,
) -> Result<ChipEpochOutcome, HarnessError> {
    let fleet_chip = topology.chip(chip_idx);
    let chip_cfg = &fleet_chip.config;
    let label = format!("chip{chip_idx}");
    let chip = Chip::new(chip_cfg.clone());
    let mut models: Vec<PricedModel<'_>> = assignment
        .iter()
        .map(|&(t, _)| {
            let spec = &tenants[t];
            PricedModel {
                inner: CompiledModel::new(&chip, spec.model.name(), |b| spec.model.build(b))
                    .with_source(cache),
                table: prices,
                tenant: t,
                class: prices.classes[chip_idx],
                seen: PriceMemo::new(),
            }
        })
        .collect();

    let faults = match kill_offset_ms {
        Some(at_ms) => chip_kill_plan(chip_cfg, at_ms, serve_seed),
        None => FaultPlan::empty(),
    };
    let mut cfg = chip_serve_config(
        tenants,
        assignment,
        chip_cfg.groups_per_cluster,
        epoch_len_ms,
        serve_seed,
        faults,
    );

    let mut refs: Vec<&mut dyn ServiceModel> = models
        .iter_mut()
        .map(|m| m as &mut dyn ServiceModel)
        .collect();
    let (outcome, aborted) = match run_serving(&cfg, chip_cfg, &mut refs) {
        Ok(out) => (out, None),
        Err(ServeError::Outage(aborted)) if kill_offset_ms.is_some() => {
            // The kill took the chip down mid-epoch. Re-run the exact
            // arrival prefix (same seed, horizon truncated at the kill
            // time, no faults) so every request that arrived before
            // the failure is accounted; later arrivals never existed.
            // The aborted run's log stays the operator's view of the
            // failure.
            cfg.duration_ms = kill_offset_ms.unwrap_or(0.0);
            cfg.faults = FaultPlan::empty();
            let mut refs: Vec<&mut dyn ServiceModel> = models
                .iter_mut()
                .map(|m| m as &mut dyn ServiceModel)
                .collect();
            let rerun = run_serving(&cfg, chip_cfg, &mut refs).map_err(job_err(&label))?;
            (rerun, Some(aborted))
        }
        Err(other) => return Err(job_err(&label)(other)),
    };

    let killed = kill_offset_ms.is_some();
    let mut slices: Vec<TenantSlice> = assignment
        .iter()
        .zip(&outcome.report.tenants)
        .map(|(&(t, _), rep)| TenantSlice {
            tenant: t,
            offered: rep.offered,
            completed: rep.completed,
            shed: rep.shed,
            violations: rep.violations,
            retries: rep.retries,
            fault_dropped: rep.fault_dropped,
            groups_lost: rep.groups_lost,
            hist: LogHistogram::new(),
            queue_delay_weight: rep.mean_queue_delay_ms * rep.completed as f64,
        })
        .collect();
    for req in &outcome.requests {
        slices[req.tenant].hist.record(req.latency_ms());
    }
    // A killed chip loses all its groups whichever code path the serve
    // run took (the abort-and-truncate path reports none itself).
    let chip_groups = chip_cfg.total_groups() as u64;
    let log = log_epoch.map(|(epoch, start_ms)| {
        let at = (epoch, chip_idx, start_ms, epoch_len_ms);
        match aborted {
            Some(o) => ChipEpochLog::read(&o.trace, o.requests, false, at),
            None => ChipEpochLog::read(&outcome.trace, outcome.requests, true, at),
        }
    });
    Ok(ChipEpochOutcome {
        chip: chip_idx,
        killed,
        faults_injected: if killed {
            chip_groups
        } else {
            outcome.report.faults_injected
        },
        groups_lost: if killed {
            chip_groups
        } else {
            slices.iter().map(|s| s.groups_lost).sum()
        },
        slices,
        log,
    })
}

/// Per-chip accounting accumulated across epochs.
#[derive(Debug, Clone, Default)]
struct ChipAccum {
    offered: u64,
    completed: u64,
    shed: u64,
    fault_dropped: u64,
    groups_lost: u64,
    dead: bool,
}

/// Per-tenant accounting accumulated across epochs.
#[derive(Debug, Clone, Default)]
struct TenantAccum {
    offered: u64,
    completed: u64,
    shed: u64,
    violations: u64,
    fault_dropped: u64,
    hist: LogHistogram,
    roll_offered: u64,
    roll_completed: u64,
}

/// Runs the whole fleet simulation and merges the outcome into a
/// [`FleetReport`].
///
/// `jobs` is the harness worker-pool width for the per-chip epoch
/// simulations; it affects wall-clock only, never the report
/// ([`FleetReport::to_json`] is byte-identical across job counts).
///
/// # Errors
///
/// [`FleetError::Config`], before any work, for a run
/// [`FleetConfig::validate`] rejects and for a tenant whose replica
/// spec [`TenantSpec::validate`] rejects at the tenant's fleet-wide
/// qps, and for a placement that cannot be made;
/// [`FleetError::Harness`] when a chip simulation fails for a non-kill
/// reason;
/// [`FleetError::Accounting`] if the fleet-wide `offered == completed +
/// shed + fault_dropped` invariant breaks (a bug, never expected).
pub fn run_fleet(
    topology: &FleetTopology,
    tenants: &[FleetTenant<'_>],
    cfg: &FleetConfig,
    cache: &SessionCache,
    jobs: usize,
) -> Result<FleetReport, FleetError> {
    run_fleet_inner(topology, tenants, cfg, cache, jobs, None)
}

/// Runs the fleet simulation with a [`FleetMonitor`] attached: every
/// chip-epoch reads its serving log onto the fleet clock, with trace
/// ids that encode the (epoch, chip) that served each request, and at
/// each epoch barrier the fleet monitor folds those logs, in chip
/// order, into per-tenant and per-chip rollups.
///
/// The monitor is observational only: the returned report is
/// byte-identical to what [`run_fleet`] produces for the same inputs
/// (asserted by the crate tests and the CI conformance job).
///
/// # Errors
///
/// Exactly as [`run_fleet`].
pub fn run_fleet_monitored(
    topology: &FleetTopology,
    tenants: &[FleetTenant<'_>],
    cfg: &FleetConfig,
    cache: &SessionCache,
    jobs: usize,
) -> Result<(FleetReport, FleetMonitor), FleetError> {
    let specs: Vec<(&str, f64)> = tenants
        .iter()
        .map(|t| (t.model.name(), t.deadline_ms))
        .collect();
    let mut monitor = FleetMonitor::new(topology.len(), &specs);
    let report = run_fleet_inner(topology, tenants, cfg, cache, jobs, Some(&mut monitor))?;
    Ok((report, monitor))
}

fn run_fleet_inner(
    topology: &FleetTopology,
    tenants: &[FleetTenant<'_>],
    cfg: &FleetConfig,
    cache: &SessionCache,
    jobs: usize,
    mut monitor: Option<&mut FleetMonitor>,
) -> Result<FleetReport, FleetError> {
    cfg.validate(topology.len())?;
    let gpc = topology.chip(0).config.groups_per_cluster;
    for (t, tenant) in tenants.iter().enumerate() {
        replica_spec(tenant, t, tenant.qps, gpc)
            .validate(cfg.duration_ms)
            .map_err(|e| FleetError::Config(format!("tenant {}: {e}", tenant.model.name())))?;
    }
    let epochs = (cfg.duration_ms / cfg.epoch_ms).ceil() as usize;
    let n = topology.len();
    let stats_before = cache.stats();
    let prices = &PriceTable::new(topology);
    let mut placement = place(topology, tenants)?;
    let initial_replicas: Vec<usize> = placement.replicas.iter().map(Vec::len).collect();

    let mut alive = vec![true; n];
    let mut router = RouterState::new(n);
    let mut roll_state = cfg.roll.as_ref().map(|p| RollState::new(n, p));
    let mut chip_accum = vec![ChipAccum::default(); n];
    let mut tenant_accum = vec![TenantAccum::default(); tenants.len()];
    let mut routed_cells = 0u64;
    let mut replica_moves = 0u64;
    let mut chips_lost = 0u64;
    let mut faults_injected = 0u64;
    let mut retries = 0u64;

    for epoch in 0..epochs {
        let epoch_start = epoch as f64 * cfg.epoch_ms;
        let epoch_len = (cfg.duration_ms - epoch_start).min(cfg.epoch_ms);

        // A kill landing in this epoch either fires before routing
        // (offset ~0: the chip receives no traffic at all) or mid-run
        // (the chip's simulation aborts and truncates).
        let mut kill_this_epoch: Option<(usize, f64)> = None;
        if let Some(kill) = &cfg.kill {
            if alive[kill.chip] && kill.at_ms < epoch_start + epoch_len {
                let offset = (kill.at_ms - epoch_start).max(0.0);
                if offset <= 1e-9 {
                    alive[kill.chip] = false;
                    chip_accum[kill.chip].dead = true;
                    chip_accum[kill.chip].groups_lost =
                        topology.chip(kill.chip).config.total_groups() as u64;
                    chips_lost += 1;
                    replica_moves +=
                        replace_after_loss(&mut placement, kill.chip, &alive, topology, tenants)
                            as u64;
                    if let Some(m) = monitor.as_deref_mut() {
                        // The chip dies before serving this epoch, so
                        // the page charges the load it carried last.
                        m.on_chip_kill(epoch, epoch_start, kill.chip, true);
                    }
                } else {
                    kill_this_epoch = Some((kill.chip, offset));
                }
            }
        }

        let rolling = match (&cfg.roll, roll_state.as_mut()) {
            (Some(plan), Some(state)) => state.begin_epoch(plan, epoch_start, &alive),
            _ => false,
        };
        let draining: Vec<bool> = roll_state
            .as_ref()
            .map_or_else(|| vec![false; n], |s| s.draining.clone());

        let live: Vec<Vec<usize>> = placement
            .replicas
            .iter()
            .map(|reps| {
                reps.iter()
                    .copied()
                    .filter(|&c| alive[c] && !draining[c])
                    .collect()
            })
            .collect();
        let qps: Vec<f64> = tenants.iter().map(|t| t.qps).collect();
        let routes = route_epoch(&qps, &live, &router, cfg.seed, epoch, cfg.cells_per_replica);
        routed_cells += routes.cells;
        if let Some(m) = monitor.as_deref_mut() {
            m.on_route(epoch, epoch_start, &routes);
        }

        let mut plan: ExperimentPlan<'_, ChipEpochOutcome> = ExperimentPlan::new();
        for chip in 0..n {
            let assignment = routes.on_chip(chip);
            if assignment.is_empty() {
                continue;
            }
            let mut key = Fnv1a::new();
            key.write_str("fleet-point/");
            key.write_u64(cfg.seed);
            key.write_u64(epoch as u64);
            key.write_u64(chip as u64);
            let serve_seed = chip_epoch_seed(cfg.seed, chip, epoch);
            let kill_offset = kill_this_epoch
                .filter(|&(c, _)| c == chip)
                .map(|(_, offset)| offset);
            let log_epoch = monitor.is_some().then_some((epoch, epoch_start));
            plan.add_point(
                key.finish(),
                format!("chip{chip} e{epoch}"),
                &[],
                move |_| {
                    run_chip_epoch(
                        topology,
                        tenants,
                        &assignment,
                        chip,
                        epoch_len,
                        serve_seed,
                        kill_offset,
                        log_epoch,
                        cache,
                        prices,
                    )
                },
            );
        }

        // Epoch barrier: merge (and fold the logs) in chip (insertion)
        // order, whatever the worker schedule did.
        for result in plan.run(jobs) {
            let out = result.map_err(FleetError::Harness)?;
            if let Some(m) = monitor.as_deref_mut() {
                let assignment = routes.on_chip(out.chip);
                let stats: Vec<SliceStats> = out
                    .slices
                    .iter()
                    .map(|s| SliceStats {
                        tenant: s.tenant,
                        offered: s.offered,
                        violations: s.violations,
                        fault_dropped: s.fault_dropped,
                    })
                    .collect();
                m.absorb_chip_epoch(
                    out.chip,
                    &assignment,
                    epoch_len,
                    &stats,
                    out.log,
                    out.killed,
                );
                if out.killed {
                    let at_ms =
                        kill_this_epoch.map_or(epoch_start, |(_, offset)| epoch_start + offset);
                    m.on_chip_kill(epoch, at_ms, out.chip, false);
                }
            }
            faults_injected += out.faults_injected;
            let accum = &mut chip_accum[out.chip];
            let (mut chip_completed, mut delay_weight) = (0u64, 0.0f64);
            for slice in &out.slices {
                accum.offered += slice.offered;
                accum.completed += slice.completed;
                accum.shed += slice.shed;
                accum.fault_dropped += slice.fault_dropped;
                retries += slice.retries;
                chip_completed += slice.completed;
                delay_weight += slice.queue_delay_weight;
                let t = &mut tenant_accum[slice.tenant];
                t.offered += slice.offered;
                t.completed += slice.completed;
                t.shed += slice.shed;
                t.violations += slice.violations;
                t.fault_dropped += slice.fault_dropped;
                t.hist.merge(&slice.hist);
                if rolling {
                    t.roll_offered += slice.offered;
                    t.roll_completed += slice.completed;
                }
            }
            if out.killed {
                accum.dead = true;
                accum.groups_lost = out.groups_lost;
                alive[out.chip] = false;
                chips_lost += 1;
                replica_moves +=
                    replace_after_loss(&mut placement, out.chip, &alive, topology, tenants) as u64;
            } else {
                accum.groups_lost += out.groups_lost;
                let delay = if chip_completed > 0 {
                    delay_weight / chip_completed as f64
                } else {
                    0.0
                };
                router.observe(out.chip, delay);
            }
        }
        if let Some(m) = monitor.as_deref_mut() {
            m.end_epoch(epoch, epoch_start + epoch_len);
        }
    }

    if let Some(m) = monitor {
        m.finish(epochs.saturating_sub(1));
    }
    if let (Some(plan), Some(state)) = (&cfg.roll, roll_state.as_mut()) {
        state.finish(plan);
    }

    let offered: u64 = chip_accum.iter().map(|c| c.offered).sum();
    let completed: u64 = chip_accum.iter().map(|c| c.completed).sum();
    let shed: u64 = chip_accum.iter().map(|c| c.shed).sum();
    let fault_dropped: u64 = chip_accum.iter().map(|c| c.fault_dropped).sum();
    let violations: u64 = tenant_accum.iter().map(|t| t.violations).sum();

    let loads: Vec<u64> = (0..n)
        .filter(|&c| alive[c] && chip_accum[c].offered > 0)
        .map(|c| chip_accum[c].offered)
        .collect();
    let load_ratio = if loads.len() < 2 {
        1.0
    } else {
        let max = *loads.iter().max().expect("non-empty") as f64;
        let min = *loads.iter().min().expect("non-empty") as f64;
        max / min
    };

    let tenant_reports: Vec<FleetTenantReport> = tenants
        .iter()
        .zip(&tenant_accum)
        .zip(&initial_replicas)
        .map(|((spec, acc), &replicas)| FleetTenantReport {
            name: spec.model.name().to_string(),
            replicas,
            offered: acc.offered,
            completed: acc.completed,
            shed: acc.shed,
            violations: acc.violations,
            fault_dropped: acc.fault_dropped,
            p50_ms: acc.hist.quantile(0.50),
            p99_ms: acc.hist.quantile(0.99),
            mean_ms: acc.hist.mean(),
            max_ms: acc.hist.max(),
            availability: if acc.offered == 0 {
                1.0
            } else {
                acc.completed as f64 / acc.offered as f64
            },
            roll_availability: if acc.roll_offered == 0 {
                None
            } else {
                Some(acc.roll_completed as f64 / acc.roll_offered as f64)
            },
        })
        .collect();

    let chips_detail: Vec<FleetChipReport> = (0..n)
        .map(|c| FleetChipReport {
            chip: c,
            card: topology.chip(c).card,
            offered: chip_accum[c].offered,
            completed: chip_accum[c].completed,
            shed: chip_accum[c].shed,
            fault_dropped: chip_accum[c].fault_dropped,
            groups_lost: chip_accum[c].groups_lost,
            dead: chip_accum[c].dead,
            version: roll_state
                .as_ref()
                .map_or_else(|| "v1".to_string(), |s| s.version[c].clone()),
            ewma_delay_ms: router.ewma_delay_ms[c],
        })
        .collect();

    let report = FleetReport {
        chips: n,
        cards: topology.cards(),
        chip_name: topology.chip(0).config.name.clone(),
        duration_ms: cfg.duration_ms,
        epoch_ms: cfg.epoch_ms,
        epochs,
        seed: cfg.seed,
        offered,
        completed,
        shed,
        violations,
        retries,
        fault_dropped,
        faults_injected,
        routed_cells,
        replica_moves,
        chips_lost,
        chips_rolled: roll_state.as_ref().map_or(0, |s| s.rolled_count()) as u64,
        load_ratio,
        tenants: tenant_reports,
        chips_detail,
        cache: cache.stats().delta_since(stats_before),
        pricing: prices.stats(),
    };
    if !report.accounting_balances() {
        return Err(FleetError::Accounting(format!(
            "offered {} != completed {} + shed {} + fault_dropped {}",
            report.offered, report.completed, report.shed, report.fault_dropped
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::toy_model;
    use crate::RollPlan;
    use dtu_sim::ChipConfig;
    use dtu_telemetry::AlertKind;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            duration_ms: 2000.0,
            epoch_ms: 1000.0,
            seed: 7,
            cells_per_replica: 2,
            roll: None,
            kill: None,
        }
    }

    #[test]
    fn fleet_run_serves_and_balances() {
        let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
        let tenants = vec![FleetTenant::new(toy_model(), 2000.0)];
        let cache = SessionCache::memory_only();
        let r = run_fleet(&topo, &tenants, &small_cfg(), &cache, 2).unwrap();
        assert!(r.offered > 3000, "2000 qps x 2 s arrived: {}", r.offered);
        assert!(r.accounting_balances());
        assert_eq!(r.chips_lost, 0);
        assert!(r.load_ratio < 2.5, "balanced: {}", r.load_ratio);
        assert!(r.tenants[0].p99_ms >= r.tenants[0].p50_ms);
        assert!(r.cache.misses > 0, "first run compiles");
    }

    #[test]
    fn chip_kill_mid_run_degrades_gracefully() {
        let topo = FleetTopology::homogeneous(1, 3, &ChipConfig::dtu20()).unwrap();
        let tenants = vec![FleetTenant::new(toy_model(), 1500.0)];
        let cache = SessionCache::memory_only();
        let cfg = FleetConfig {
            kill: Some(ChipKill {
                chip: 1,
                at_ms: 500.0,
            }),
            ..small_cfg()
        };
        let r = run_fleet(&topo, &tenants, &cfg, &cache, 2).unwrap();
        assert_eq!(r.chips_lost, 1);
        assert!(r.chips_detail[1].dead);
        assert_eq!(
            r.chips_detail[1].groups_lost,
            ChipConfig::dtu20().total_groups() as u64
        );
        assert!(r.accounting_balances(), "no accounting leaks after kill");
        // Replicas were already everywhere (replicas = 0), so nothing
        // to move, but the survivors keep serving.
        assert!(r.chips_detail[0].offered > 0);
        assert!(r.chips_detail[2].offered > 0);
    }

    #[test]
    fn kill_at_epoch_start_routes_no_traffic_to_the_dead_chip() {
        let topo = FleetTopology::homogeneous(1, 2, &ChipConfig::dtu20()).unwrap();
        let tenants = vec![FleetTenant::new(toy_model(), 1000.0)];
        let cache = SessionCache::memory_only();
        let cfg = FleetConfig {
            kill: Some(ChipKill {
                chip: 0,
                at_ms: 0.0,
            }),
            ..small_cfg()
        };
        let r = run_fleet(&topo, &tenants, &cfg, &cache, 1).unwrap();
        assert_eq!(r.chips_detail[0].offered, 0);
        assert!(r.chips_detail[0].dead);
        assert!(r.chips_detail[1].offered > 0);
        assert!(r.accounting_balances());
    }

    #[test]
    fn rolling_deploy_swaps_every_chip_and_reports_availability() {
        let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
        let tenants = vec![FleetTenant::new(toy_model(), 2000.0)];
        let cache = SessionCache::memory_only();
        let cfg = FleetConfig {
            duration_ms: 6000.0,
            roll: Some(RollPlan::new(1000.0, 2)),
            ..small_cfg()
        };
        let r = run_fleet(&topo, &tenants, &cfg, &cache, 2).unwrap();
        assert_eq!(r.chips_rolled, 4);
        assert!(r.chips_detail.iter().all(|c| c.version == "v2"));
        let roll = r.tenants[0].roll_availability.expect("traffic during roll");
        assert!(roll > 0.0 && roll <= 1.0);
        assert!(r.accounting_balances());
    }

    #[test]
    fn reports_are_byte_identical_across_jobs() {
        let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
        let cfg = FleetConfig {
            roll: Some(RollPlan::new(1000.0, 1)),
            kill: Some(ChipKill {
                chip: 3,
                at_ms: 1500.0,
            }),
            duration_ms: 4000.0,
            ..small_cfg()
        };
        let cache1 = SessionCache::memory_only();
        let tenants1 = vec![FleetTenant::new(toy_model(), 1200.0)];
        let r1 = run_fleet(&topo, &tenants1, &cfg, &cache1, 1).unwrap();
        let cache8 = SessionCache::memory_only();
        let tenants8 = vec![FleetTenant::new(toy_model(), 1200.0)];
        let r8 = run_fleet(&topo, &tenants8, &cfg, &cache8, 8).unwrap();
        assert_eq!(r1.to_json(), r8.to_json());
    }

    #[test]
    fn monitored_report_is_byte_identical_to_plain() {
        // The hardest case: a roll in flight and a mid-epoch kill.
        let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
        let cfg = FleetConfig {
            roll: Some(RollPlan::new(1000.0, 1)),
            kill: Some(ChipKill {
                chip: 3,
                at_ms: 1500.0,
            }),
            duration_ms: 4000.0,
            ..small_cfg()
        };
        let cache_plain = SessionCache::memory_only();
        let tenants_plain = vec![FleetTenant::new(toy_model(), 1200.0)];
        let plain = run_fleet(&topo, &tenants_plain, &cfg, &cache_plain, 2).unwrap();
        let cache_mon = SessionCache::memory_only();
        let tenants_mon = vec![FleetTenant::new(toy_model(), 1200.0)];
        let (monitored, fm) =
            run_fleet_monitored(&topo, &tenants_mon, &cfg, &cache_mon, 2).unwrap();
        assert_eq!(
            plain.to_json(),
            monitored.to_json(),
            "observation must not change the report"
        );
        assert_eq!(fm.frames().len(), monitored.epochs, "one frame per epoch");
        assert!(fm.frames().iter().all(|f| !f.tenants.is_empty()));
    }

    #[test]
    fn chip_kill_pages_with_resolving_flight_dump() {
        let topo = FleetTopology::homogeneous(1, 3, &ChipConfig::dtu20()).unwrap();
        let tenants = vec![FleetTenant::new(toy_model(), 1500.0)];
        let cache = SessionCache::memory_only();
        let cfg = FleetConfig {
            kill: Some(ChipKill {
                chip: 1,
                at_ms: 1500.0,
            }),
            duration_ms: 3000.0,
            ..small_cfg()
        };
        let (report, fm) = run_fleet_monitored(&topo, &tenants, &cfg, &cache, 2).unwrap();
        assert_eq!(report.chips_lost, 1);
        // The kill paged: a fault alert attributed to the chip…
        let kill = fm
            .alerts()
            .iter()
            .find(|a| a.event.kind == AlertKind::Fault)
            .expect("kill emits a fleet alert");
        assert_eq!(kill.chip, Some(1));
        // …whose exemplar decodes to the killed chip and resolves in
        // the frozen dump of that chip's ring.
        let id = kill.event.exemplar.expect("alert carries an exemplar");
        assert_eq!(crate::trace_chip(id), Some(1));
        let dump = fm
            .dumps()
            .iter()
            .find(|d| d.reason.contains("chip1 killed"))
            .expect("kill freezes a dump");
        assert!(dump.resolves_label(&format!("req {id}")));
        assert!(dump.spans.iter().any(|s| s.label.starts_with("route e")));
        // Burn attribution names the killed chip as the top offender.
        let top = fm.top_offenders(3);
        assert_eq!(top[0].chip, 1, "killed chip owns the badness: {top:?}");
        assert!(fm.chip_dead(1));
        // The compliance report is well-formed JSON mentioning it.
        let json = fm.compliance_json();
        assert!(json.contains("\"chips_dead\":[1]"));
    }

    /// `small_cfg()` with `edit` applied.
    fn with_cfg(edit: &dyn Fn(&mut FleetConfig)) -> FleetConfig {
        let mut cfg = small_cfg();
        edit(&mut cfg);
        cfg
    }

    /// A toy tenant at 100 qps with `edit` applied.
    fn with_tenant(edit: &dyn Fn(&mut FleetTenant<'static>)) -> FleetTenant<'static> {
        let mut t = FleetTenant::new(toy_model(), 100.0);
        edit(&mut t);
        t
    }

    /// Runs a one-card fleet of `tenant` under `cfg` and checks it is
    /// rejected, before any compile, as a config error naming `want`.
    fn assert_config_error(tenant: FleetTenant<'_>, cfg: &FleetConfig, want: &str) {
        let topo = FleetTopology::homogeneous(1, 2, &ChipConfig::dtu20()).unwrap();
        let cache = SessionCache::memory_only();
        match run_fleet(&topo, &[tenant], cfg, &cache, 1) {
            Err(FleetError::Config(msg)) => assert!(msg.contains(want), "{msg}"),
            other => panic!("expected a config error naming `{want}`, got {other:?}"),
        }
        assert_eq!(cache.stats().misses, 0, "`{want}` rejected before any work");
    }

    #[test]
    fn batch_timeout_must_be_finite_and_not_negative() {
        for ms in [f64::NAN, -1.0, f64::INFINITY] {
            let want = format!(
                "tenant toy: serving config error: batch timeout_ms must be finite and not \
                 negative, got {ms}"
            );
            assert_config_error(
                with_tenant(&|t| t.batch_timeout_ms = ms),
                &small_cfg(),
                &want,
            );
        }
    }

    #[test]
    fn nan_kill_time_fails_loudly() {
        let cfg = with_cfg(&|c| {
            c.kill = Some(ChipKill {
                chip: 0,
                at_ms: f64::NAN,
            })
        });
        let want = "the kill time of chip 0 must be a number, got NaN";
        assert_config_error(with_tenant(&|_| {}), &cfg, want);
    }

    #[test]
    fn nan_roll_start_fails_loudly() {
        let cfg = with_cfg(&|c| c.roll = Some(RollPlan::new(f64::NAN, 1)));
        let want = "the roll start time must be a number, got NaN";
        assert_config_error(with_tenant(&|_| {}), &cfg, want);
    }

    #[test]
    fn tenant_qps_must_be_positive_and_finite() {
        for qps in [-5.0, 0.0, f64::NAN, f64::INFINITY] {
            let want = format!(
                "tenant toy: serving config error: arrival qps must be positive and finite, \
                 got {qps}"
            );
            assert_config_error(with_tenant(&|t| t.qps = qps), &small_cfg(), &want);
        }
    }

    /// The remaining rules `run_fleet` enforces, one row per bad value:
    /// each is a config error naming what is wrong, before anything
    /// compiles.
    #[test]
    fn bad_configs_fail_loudly() {
        let ok = || with_tenant(&|_| {});
        let mut rows: Vec<(FleetConfig, FleetTenant<'_>, String)> = vec![
            (
                with_cfg(&|c| c.epoch_ms = 1e-6),
                ok(),
                "at most 10000 routing epochs".into(),
            ),
            (
                with_cfg(&|c| c.cells_per_replica = 0),
                ok(),
                "cells_per_replica must be at least 1, got 0".into(),
            ),
            (
                with_cfg(&|c| {
                    c.kill = Some(ChipKill {
                        chip: 9,
                        at_ms: 0.0,
                    })
                }),
                ok(),
                "kill targets chip 9 but the fleet has 2".into(),
            ),
            (
                with_cfg(&|c| c.roll = Some(RollPlan::new(1000.0, 0))),
                ok(),
                "roll chips_per_epoch must be at least 1, got 0".into(),
            ),
            (
                small_cfg(),
                with_tenant(&|t| t.max_batch = 0),
                "tenant toy: serving config error: batch max_batch must be at least 1, got 0"
                    .into(),
            ),
            (
                small_cfg(),
                with_tenant(&|t| t.initial_groups = 0),
                "tenant toy: serving config error: initial_groups must be at least 1, got 0".into(),
            ),
        ];
        for ms in [0.0, f64::INFINITY, f64::NAN] {
            rows.push((
                with_cfg(&|c| c.epoch_ms = ms),
                ok(),
                format!("must be positive and finite, got 2000 ms and {ms} ms"),
            ));
        }
        for ms in [-1.0, 0.0, f64::NAN] {
            rows.push((
                small_cfg(),
                with_tenant(&|t| t.deadline_ms = ms),
                format!(
                    "tenant toy: serving config error: SLA deadline_ms must be positive (inf \
                     for none), got {ms}"
                ),
            ));
        }
        for (cfg, tenant, want) in rows {
            assert_config_error(tenant, &cfg, &want);
        }
    }
}
