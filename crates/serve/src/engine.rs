//! The discrete-event serving engine.
//!
//! Pending events drive per-tenant request queues through admission
//! control, dynamic batch formation, service on the tenant's processing
//! groups, and delay-driven elastic scaling. Time is simulated
//! milliseconds; the run is a pure function of its configuration
//! (seeded arrivals, deterministic tie-breaking), so two runs with the
//! same seed are bit-identical.
//!
//! A tenant has at most three pending events, one per slot: its next
//! arrival, its in-flight batch's completion or retry (a tenant serves
//! one batch at a time), and its batch deadline, which a dispatch
//! clears. The loop fires the earliest pending event, ties broken by
//! push order, so a step costs a scan of three slots per tenant, and
//! tenants are bounded by the chip's processing groups. Each dispatch
//! prices its batch with one [`ServiceModel::service_ms`] call on the
//! tenant's placement, which the tenant rebuilds only when scaling or a
//! lost group changes its groups.

use crate::config::{RetryPolicy, ServeConfig, TenantSpec};
use crate::live::LiveMonitor;
use crate::metrics::{
    RequestOutcome, ServeEvent, ServeEventKind, ServeReport, ServingTrace, TenantReport,
};
use crate::model::ServiceModel;
use crate::stats::{merge_sorted, LatencyStats, Sample};
use crate::{ArrivalGen, Outage, ServeError};
use dtu_compiler::Placement;
use dtu_faults::{FaultError, FaultRng, FaultSession};
use dtu_sim::{ChipConfig, GroupId};
use dtu_telemetry::clock::ms_to_ns;
use std::collections::{BTreeMap, VecDeque};

/// Everything a serving run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Aggregated metrics.
    pub report: ServeReport,
    /// The event log (JSONL-exportable).
    pub trace: ServingTrace,
    /// Per-request outcomes; populated only when
    /// [`ServeConfig::record_requests`] is set.
    pub requests: Vec<RequestOutcome>,
}

/// What a pending event does; the tenant is its slot's.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EvKind {
    /// A request arrives.
    Arrival,
    /// The batching timeout fires; a dispatch clears it first, so it
    /// always finds its batch waiting.
    BatchDeadline,
    /// The in-flight batch completes.
    Complete,
    /// The failed batch retries after backoff.
    Retry { attempt: u32, backoff_ms: f64 },
}

/// Pending-event slots per tenant: arrival, service (completion or
/// retry) and batch deadline.
const EVENT_SLOTS: usize = 3;

impl EvKind {
    /// The tenant's event slot that holds this kind of event.
    fn slot(self) -> usize {
        match self {
            EvKind::Arrival => 0,
            EvKind::Complete | EvKind::Retry { .. } => 1,
            EvKind::BatchDeadline => 2,
        }
    }
}

/// Service-time slowdown applied while a thermal-throttle window pins
/// the tenant's groups to the frequency floor (the i20's nominal
/// 1400 MHz over its 1000 MHz floor).
const THERMAL_SLOWDOWN: f64 = 1.4;

/// Decorrelates the retry-jitter stream from the arrival streams that
/// also derive from the run seed.
const RETRY_RNG_SALT: u64 = 0xFA17_7E57_BACC_0FF5;

/// A pending event: when it fires, and its push order, which breaks
/// ties in time.
#[derive(Debug, Clone, Copy)]
struct Ev {
    t: f64,
    seq: u64,
    kind: EvKind,
}

impl Ev {
    /// Whether `self` fires before `other`.
    fn before(&self, other: &Ev) -> bool {
        self.t < other.t || (self.t == other.t && self.seq < other.seq)
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    id: u64,
    arrival_ms: f64,
    deadline_ms: f64,
}

struct Tenant {
    spec: TenantSpec,
    gen: ArrivalGen,
    queue: VecDeque<Request>,
    busy: bool,
    /// The groups the tenant serves on; rebuilt when they change.
    placement: Placement,
    in_flight: Vec<Request>,
    /// Smoothed queueing delay driving scale decisions, ms.
    delay_ema: f64,
    last_scale_ms: f64,
    // Accounting.
    offered: u64,
    shed: u64,
    violations: u64,
    latencies: Sample,
    queue_delay_sum: f64,
    busy_ms: f64,
    /// When the last batch completed, ms (0 before any).
    last_done_ms: f64,
    batch_hist: BTreeMap<usize, u64>,
    groups_initial: usize,
    scale_ups: u64,
    scale_downs: u64,
    /// Failed attempts of the current in-flight batch.
    attempt: u32,
    retries: u64,
    fault_dropped: u64,
    groups_lost: u64,
}

/// The engine: pending events plus per-tenant state plus the group
/// pool.
struct Engine<'m, 's> {
    /// `pending[tenant * EVENT_SLOTS + kind.slot()]`: the tenant's
    /// pending event of that slot, if any.
    pending: Vec<Option<Ev>>,
    /// Pushes so far; numbers the next push.
    seq: u64,
    next_req: u64,
    tenants: Vec<Tenant>,
    /// `slots[cluster][group]` = owning tenant, if claimed.
    slots: Vec<Vec<Option<usize>>>,
    models: &'m mut [&'s mut dyn ServiceModel],
    trace: ServingTrace,
    requests: Vec<RequestOutcome>,
    record_requests: bool,
    /// Fault schedule; `None` for an empty plan, so fault-free runs
    /// never touch any of the injection paths.
    faults: Option<FaultSession>,
    /// `dead[cluster][group]`: slots poisoned by core failures — never
    /// free, whatever `slots` says.
    dead: Vec<Vec<bool>>,
    groups_per_cluster: usize,
    retry: RetryPolicy,
    /// Jitter source for retry backoff; drawn from only when a retry
    /// is actually scheduled.
    rng: FaultRng,
}

/// Runs one serving scenario to completion.
///
/// Arrivals are generated within `cfg.duration_ms`; every admitted
/// request runs to completion (the queue drains), mirroring how the
/// closed-form model accounts its horizon.
///
/// # Errors
///
/// [`ServeError::Config`] for a configuration
/// [`ServeConfig::validate`] rejects, checked before any work, and for
/// one the chip or `models` cannot serve: a model index past `models`,
/// more initial groups than a cluster has, a cluster the chip lacks,
/// or too few free groups. Compile/simulate failures from the service
/// models surface as [`ServeError`] too. A fault that takes a tenant's
/// last processing group stops the run with [`ServeError::Outage`],
/// which carries the log up to the outage.
pub fn run_serving(
    cfg: &ServeConfig,
    chip: &ChipConfig,
    models: &mut [&mut dyn ServiceModel],
) -> Result<ServeOutcome, ServeError> {
    drive(cfg, chip, models, cfg.record_requests)
}

/// Runs a serving scenario and folds its log into `live`
/// ([`LiveMonitor::fold`]): windowed time-series, per-window latency
/// histograms with exemplars, SLO burn-rate evaluation at every
/// simulated-second boundary, and the span flight recorder. A run a
/// fault stopped folds its log up to the outage.
///
/// The run records its requests for the fold whatever `cfg` says, and
/// returns exactly what [`run_serving`] returns for `cfg`; alerts land
/// in [`LiveMonitor::alerts`].
///
/// # Errors
///
/// As for [`run_serving`].
pub fn run_serving_live(
    cfg: &ServeConfig,
    chip: &ChipConfig,
    models: &mut [&mut dyn ServiceModel],
    live: &mut LiveMonitor,
) -> Result<ServeOutcome, ServeError> {
    let mut run = drive(cfg, chip, models, true);
    let mut fold = |trace: &ServingTrace, requests: &mut Vec<RequestOutcome>, finished| {
        live.fold(cfg, trace, requests, finished);
        if !cfg.record_requests {
            *requests = Vec::new();
        }
    };
    match &mut run {
        Ok(out) => fold(&out.trace, &mut out.requests, true),
        Err(ServeError::Outage(o)) => fold(&o.trace, &mut o.requests, false),
        Err(_) => fold(&ServingTrace::default(), &mut Vec::new(), false),
    }
    run
}

/// The event loop behind both entry points.
fn drive(
    cfg: &ServeConfig,
    chip: &ChipConfig,
    models: &mut [&mut dyn ServiceModel],
    record_requests: bool,
) -> Result<ServeOutcome, ServeError> {
    let mut engine = Engine::new(cfg, chip, models, record_requests)?;
    engine.seed_arrivals(cfg);
    while let Some((tenant, ev)) = engine.pop() {
        engine.step(tenant, ev, cfg)?;
    }
    let out = engine.finish(cfg);
    debug_assert!(out.report.balanced(), "accounting identity violated");
    Ok(out)
}

impl<'m, 's> Engine<'m, 's> {
    fn new(
        cfg: &ServeConfig,
        chip: &ChipConfig,
        models: &'m mut [&'s mut dyn ServiceModel],
        record_requests: bool,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        let mut slots = vec![vec![None; chip.groups_per_cluster]; chip.clusters];
        let mut tenants = Vec::with_capacity(cfg.tenants.len());
        for (idx, spec) in cfg.tenants.iter().enumerate() {
            if spec.model >= models.len() {
                return Err(ServeError::Config(format!(
                    "tenant '{}' references model {} but only {} were provided",
                    spec.name,
                    spec.model,
                    models.len()
                )));
            }
            if spec.initial_groups > chip.groups_per_cluster {
                return Err(ServeError::Config(format!(
                    "tenant '{}' wants {} initial groups; clusters have {}",
                    spec.name, spec.initial_groups, chip.groups_per_cluster
                )));
            }
            // Cluster choice: explicit, else the cluster with the most
            // free slots (lowest index on ties).
            let cluster = match spec.cluster {
                Some(c) if c >= chip.clusters => {
                    return Err(ServeError::Config(format!(
                        "tenant '{}' wants cluster {c} but the chip has {}",
                        spec.name, chip.clusters
                    )));
                }
                Some(c) => c,
                None => (0..chip.clusters)
                    .max_by_key(|&c| {
                        let free = slots[c].iter().filter(|s| s.is_none()).count();
                        (free, usize::MAX - c) // prefer lower index on ties
                    })
                    .expect("validated cluster count"),
            };
            let mut groups = Vec::with_capacity(spec.initial_groups);
            for (g, slot) in slots[cluster].iter_mut().enumerate() {
                if groups.len() == spec.initial_groups {
                    break;
                }
                if slot.is_none() {
                    *slot = Some(idx);
                    groups.push(GroupId::new(cluster, g));
                }
            }
            if groups.len() < spec.initial_groups {
                return Err(ServeError::Config(format!(
                    "tenant '{}' wants {} groups on cluster {cluster} but only {} were free",
                    spec.name,
                    spec.initial_groups,
                    groups.len()
                )));
            }
            // Tenant 0 draws from the run seed directly (so a
            // single-tenant engine run shares its arrival stream with a
            // reference ServeRng(seed)); later tenants decorrelate.
            let seed = cfg.seed ^ (idx as u64).wrapping_mul(0x9E3779B97F4A7C15);
            let groups_initial = groups.len();
            tenants.push(Tenant {
                gen: ArrivalGen::new(spec.arrival.clone(), seed),
                spec: spec.clone(),
                queue: VecDeque::new(),
                busy: false,
                placement: Placement::explicit(groups),
                in_flight: Vec::new(),
                delay_ema: 0.0,
                last_scale_ms: f64::NEG_INFINITY,
                offered: 0,
                shed: 0,
                violations: 0,
                latencies: Sample::new(),
                queue_delay_sum: 0.0,
                busy_ms: 0.0,
                last_done_ms: 0.0,
                batch_hist: BTreeMap::new(),
                groups_initial,
                scale_ups: 0,
                scale_downs: 0,
                attempt: 0,
                retries: 0,
                fault_dropped: 0,
                groups_lost: 0,
            });
        }
        let faults = if cfg.faults.is_empty() {
            None
        } else {
            Some(FaultSession::new(
                &cfg.faults,
                chip.clusters,
                chip.groups_per_cluster,
            ))
        };
        Ok(Engine {
            pending: vec![None; tenants.len() * EVENT_SLOTS],
            seq: 0,
            next_req: 0,
            tenants,
            slots,
            models,
            trace: ServingTrace::default(),
            requests: Vec::new(),
            record_requests,
            faults,
            dead: vec![vec![false; chip.groups_per_cluster]; chip.clusters],
            groups_per_cluster: chip.groups_per_cluster,
            retry: cfg.retry,
            rng: FaultRng::new(cfg.seed ^ RETRY_RNG_SALT),
        })
    }

    /// `tenant`'s event slot for `kind`.
    fn event_slot(&mut self, tenant: usize, kind: EvKind) -> &mut Option<Ev> {
        &mut self.pending[tenant * EVENT_SLOTS + kind.slot()]
    }

    /// Puts an event into `tenant`'s slot for its kind, which must be
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    fn push(&mut self, tenant: usize, t: f64, kind: EvKind) {
        assert!(!t.is_nan(), "finite event times");
        let seq = self.seq;
        self.seq += 1;
        let slot = self.event_slot(tenant, kind);
        debug_assert!(slot.is_none(), "tenant {tenant} already has a {kind:?}");
        *slot = Some(Ev { t, seq, kind });
    }

    /// Takes the earliest pending event (the first pushed among equal
    /// times) and its tenant.
    fn pop(&mut self) -> Option<(usize, Ev)> {
        let mut next: Option<(usize, Ev)> = None;
        for (i, slot) in self.pending.iter().enumerate() {
            if let Some(ev) = slot {
                if next.is_none_or(|(_, first)| ev.before(&first)) {
                    next = Some((i, *ev));
                }
            }
        }
        let (i, ev) = next?;
        self.pending[i] = None;
        Some((i / EVENT_SLOTS, ev))
    }

    fn seed_arrivals(&mut self, cfg: &ServeConfig) {
        for idx in 0..self.tenants.len() {
            let first = self.tenants[idx].gen.next_after(0.0);
            if first <= cfg.duration_ms {
                self.push(idx, first, EvKind::Arrival);
            }
        }
    }

    fn step(&mut self, tenant: usize, ev: Ev, cfg: &ServeConfig) -> Result<(), ServeError> {
        match ev.kind {
            EvKind::Arrival => self.on_arrival(ev.t, tenant, cfg)?,
            EvKind::BatchDeadline => {
                let ten = &self.tenants[tenant];
                debug_assert!(
                    !ten.busy && !ten.queue.is_empty(),
                    "a batch deadline outlived its batch"
                );
                let n = ten.queue.len();
                self.dispatch(ev.t, tenant, n)?;
            }
            EvKind::Complete => self.on_complete(ev.t, tenant)?,
            EvKind::Retry {
                attempt,
                backoff_ms,
            } => self.on_retry(ev.t, tenant, attempt, backoff_ms)?,
        }
        Ok(())
    }

    fn on_arrival(&mut self, t: f64, tenant: usize, cfg: &ServeConfig) -> Result<(), ServeError> {
        let req_id = self.next_req;
        self.next_req += 1;
        {
            let ten = &mut self.tenants[tenant];
            ten.offered += 1;
            let depth = ten.queue.len();
            if depth >= ten.spec.sla.max_queue_depth {
                ten.shed += 1;
                self.trace.events.push(ServeEvent {
                    t_ns: ms_to_ns(t),
                    tenant,
                    kind: ServeEventKind::Shed { req: req_id, depth },
                });
            } else {
                ten.queue.push_back(Request {
                    id: req_id,
                    arrival_ms: t,
                    deadline_ms: t + ten.spec.sla.deadline_ms,
                });
                self.trace.events.push(ServeEvent {
                    t_ns: ms_to_ns(t),
                    tenant,
                    kind: ServeEventKind::Arrival {
                        req: req_id,
                        depth: depth + 1,
                    },
                });
            }
        }
        self.try_dispatch(t, tenant)?;
        let next = self.tenants[tenant].gen.next_after(t);
        if next <= cfg.duration_ms {
            self.push(tenant, next, EvKind::Arrival);
        }
        Ok(())
    }

    fn try_dispatch(&mut self, t: f64, tenant: usize) -> Result<(), ServeError> {
        let ten = &self.tenants[tenant];
        if ten.busy || ten.queue.is_empty() {
            return Ok(());
        }
        let max_batch = ten.spec.batch.max_batch;
        let queued = ten.queue.len();
        if queued >= max_batch {
            return self.dispatch(t, tenant, max_batch);
        }
        if ten.spec.batch.timeout_ms <= 0.0 {
            return self.dispatch(t, tenant, queued);
        }
        let ready_at = ten.queue.front().expect("non-empty").arrival_ms + ten.spec.batch.timeout_ms;
        if t >= ready_at {
            return self.dispatch(t, tenant, queued);
        }
        if self.event_slot(tenant, EvKind::BatchDeadline).is_none() {
            self.push(tenant, ready_at, EvKind::BatchDeadline);
        }
        Ok(())
    }

    fn dispatch(&mut self, t: f64, tenant: usize, count: usize) -> Result<(), ServeError> {
        {
            let ten = &mut self.tenants[tenant];
            let count = count.min(ten.queue.len()).min(ten.spec.batch.max_batch);
            // Delay EMA observes the wait of the oldest request served.
            let oldest_wait = t - ten.queue.front().expect("non-empty").arrival_ms;
            let alpha = ten.spec.scale.ema_alpha;
            ten.delay_ema = alpha * oldest_wait + (1.0 - alpha) * ten.delay_ema;
            ten.in_flight.clear();
            for _ in 0..count {
                let req = ten.queue.pop_front().expect("counted");
                ten.queue_delay_sum += t - req.arrival_ms;
                ten.in_flight.push(req);
            }
            ten.busy = true;
            ten.attempt = 0;
            *ten.batch_hist.entry(count).or_insert(0) += 1;
        }
        *self.event_slot(tenant, EvKind::BatchDeadline) = None;
        self.start_service(t, tenant)
    }

    /// Attempts to start service for `tenant`'s in-flight batch:
    /// checks for permanently failed groups (remap + slot poisoning),
    /// applies active degradation windows to the service time, and
    /// either schedules completion or fails the attempt into the
    /// retry/backoff path when a transient fault hits.
    fn start_service(&mut self, t: f64, tenant: usize) -> Result<(), ServeError> {
        self.lose_failed_groups(t, tenant)?;
        let ten = &self.tenants[tenant];
        let count = ten.in_flight.len();
        let compiled_batch = ten.spec.batch.compiled_batch(count);
        let placement = &ten.placement;
        let mut service_ms = self.models[ten.spec.model].service_ms(compiled_batch, placement)?;
        if let Some(fs) = self.faults.as_mut() {
            let t_ns = ms_to_ns(t);
            let gpc = self.groups_per_cluster;
            // Degradation windows: the slowest group gates the batch.
            let mut factor = 1.0f64;
            for g in placement.groups() {
                let flat = g.cluster * gpc + g.group;
                factor = factor.max(fs.dma_slowdown(flat, t_ns).factor);
                if fs.thermal_throttle(flat, t_ns).factor > 1.0 {
                    factor = factor.max(THERMAL_SLOWDOWN);
                }
            }
            if factor > 1.0 {
                let extra = service_ms * (factor - 1.0);
                fs.add_stall_ns(ms_to_ns(extra));
                service_ms += extra;
            }
            // Transient faults fail the attempt before service starts.
            let end_ns = ms_to_ns(t + service_ms);
            let mut hit: Option<&'static str> = None;
            for g in placement.groups() {
                let flat = g.cluster * gpc + g.group;
                if fs.take_uncorrectable(flat, t_ns, end_ns).is_some() {
                    hit = Some("ecc-uncorrectable");
                    break;
                }
                if fs.take_dma_timeout(flat, t_ns).is_some() {
                    hit = Some("dma-timeout");
                    break;
                }
            }
            if let Some(label) = hit {
                return self.fail_attempt(t, tenant, label);
            }
        }
        let groups = placement.len();
        self.tenants[tenant].busy_ms += service_ms;
        self.trace.events.push(ServeEvent {
            t_ns: ms_to_ns(t),
            tenant,
            kind: ServeEventKind::Dispatch {
                batch: count,
                compiled_batch,
                groups,
                service_ms,
            },
        });
        self.push(tenant, t + service_ms, EvKind::Complete);
        Ok(())
    }

    /// Removes every group of `tenant` whose cores have failed by time
    /// `t` (nothing, in a run without faults), poisoning the freed slots so the autoscaler can never
    /// reclaim them. When no groups survive, the run stops with an
    /// [`Outage`] that takes the log along.
    fn lose_failed_groups(&mut self, t: f64, tenant: usize) -> Result<(), ServeError> {
        let Some(fs) = self.faults.as_mut() else {
            return Ok(());
        };
        let t_ns = ms_to_ns(t);
        let gpc = self.groups_per_cluster;
        let lost: Vec<(GroupId, FaultError)> = self.tenants[tenant]
            .placement
            .groups()
            .iter()
            .filter_map(|&g| Some((g, fs.core_failure(g.cluster * gpc + g.group, t_ns)?)))
            .collect();
        for (g, e) in lost {
            let ten = &mut self.tenants[tenant];
            let mut groups = ten.placement.groups().to_vec();
            groups.retain(|&x| x != g);
            ten.placement = Placement::explicit(groups);
            ten.groups_lost += 1;
            let remaining = ten.placement.len();
            self.slots[g.cluster][g.group] = None;
            self.dead[g.cluster][g.group] = true;
            self.trace.events.push(ServeEvent {
                t_ns: ms_to_ns(t),
                tenant,
                kind: ServeEventKind::GroupLost {
                    cluster: g.cluster,
                    group: g.group,
                    remaining,
                },
            });
            if remaining == 0 {
                return Err(ServeError::Outage(Box::new(Outage {
                    fault: e,
                    trace: std::mem::take(&mut self.trace),
                    requests: std::mem::take(&mut self.requests),
                })));
            }
        }
        Ok(())
    }

    /// A transient fault failed the current attempt: either schedule a
    /// retry after jittered exponential backoff, or — with the budget
    /// exhausted — drop the batch and move on to the next one.
    fn fail_attempt(
        &mut self,
        t: f64,
        tenant: usize,
        label: &'static str,
    ) -> Result<(), ServeError> {
        let attempt = {
            let ten = &mut self.tenants[tenant];
            ten.attempt += 1;
            ten.attempt
        };
        self.trace.events.push(ServeEvent {
            t_ns: ms_to_ns(t),
            tenant,
            kind: ServeEventKind::Fault { label, attempt },
        });
        if attempt > self.retry.max_attempts {
            let dropped = {
                let ten = &mut self.tenants[tenant];
                let d = ten.in_flight.len();
                ten.fault_dropped += d as u64;
                ten.in_flight.clear();
                ten.busy = false;
                ten.attempt = 0;
                d
            };
            self.trace.events.push(ServeEvent {
                t_ns: ms_to_ns(t),
                tenant,
                kind: ServeEventKind::FaultDrop { dropped },
            });
            return self.try_dispatch(t, tenant);
        }
        self.tenants[tenant].retries += 1;
        let backoff_ms = self.retry.backoff_for(attempt, &mut self.rng);
        self.push(
            tenant,
            t + backoff_ms,
            EvKind::Retry {
                attempt,
                backoff_ms,
            },
        );
        Ok(())
    }

    /// A retry fires: re-admit the surviving in-flight requests
    /// (dropping those whose deadline expired during backoff) and
    /// attempt service again.
    fn on_retry(
        &mut self,
        t: f64,
        tenant: usize,
        attempt: u32,
        backoff_ms: f64,
    ) -> Result<(), ServeError> {
        self.trace.events.push(ServeEvent {
            t_ns: ms_to_ns(t),
            tenant,
            kind: ServeEventKind::Retry {
                attempt,
                backoff_ms,
            },
        });
        let expired = {
            let ten = &mut self.tenants[tenant];
            let before = ten.in_flight.len();
            ten.in_flight.retain(|r| r.deadline_ms >= t);
            before - ten.in_flight.len()
        };
        if expired > 0 {
            self.tenants[tenant].fault_dropped += expired as u64;
            self.trace.events.push(ServeEvent {
                t_ns: ms_to_ns(t),
                tenant,
                kind: ServeEventKind::FaultDrop { dropped: expired },
            });
        }
        if self.tenants[tenant].in_flight.is_empty() {
            let ten = &mut self.tenants[tenant];
            ten.busy = false;
            ten.attempt = 0;
            return self.try_dispatch(t, tenant);
        }
        self.start_service(t, tenant)
    }

    fn on_complete(&mut self, t: f64, tenant: usize) -> Result<(), ServeError> {
        {
            let ten = &mut self.tenants[tenant];
            let batch = ten.in_flight.len();
            for req in ten.in_flight.drain(..) {
                let violated = t > req.deadline_ms;
                ten.violations += u64::from(violated);
                ten.latencies.record(t - req.arrival_ms, req.id);
                if self.record_requests {
                    self.requests.push(RequestOutcome {
                        req: req.id,
                        tenant,
                        arrival_ms: req.arrival_ms,
                        done_ms: t,
                        deadline_ms: req.deadline_ms,
                        violated,
                    });
                }
            }
            ten.busy = false;
            ten.attempt = 0;
            ten.last_done_ms = t;
            let depth = ten.queue.len();
            self.trace.events.push(ServeEvent {
                t_ns: ms_to_ns(t),
                tenant,
                kind: ServeEventKind::Complete { batch, depth },
            });
        }
        self.autoscale(t, tenant);
        self.try_dispatch(t, tenant)
    }

    fn autoscale(&mut self, t: f64, tenant: usize) {
        let ten = &self.tenants[tenant];
        let policy = &ten.spec.scale;
        if !policy.enabled || t - ten.last_scale_ms < policy.cooldown_ms {
            return;
        }
        let cluster = ten.placement.groups()[0].cluster;
        let owned = ten.placement.len();
        let cap = policy.max_groups.min(self.slots[cluster].len());
        if ten.delay_ema > policy.high_delay_ms && owned < cap {
            // Grab the first free slot in the tenant's cluster, if any.
            if let Some(g) = (0..self.slots[cluster].len())
                .find(|&g| self.slots[cluster][g].is_none() && !self.dead[cluster][g])
            {
                self.slots[cluster][g] = Some(tenant);
                let ten = &mut self.tenants[tenant];
                let mut groups = ten.placement.groups().to_vec();
                groups.push(GroupId::new(cluster, g));
                ten.placement = Placement::explicit(groups);
                ten.scale_ups += 1;
                ten.last_scale_ms = t;
                self.trace.events.push(ServeEvent {
                    t_ns: ms_to_ns(t),
                    tenant,
                    kind: ServeEventKind::Scale {
                        from: owned,
                        to: owned + 1,
                    },
                });
            }
        } else if ten.delay_ema < policy.low_delay_ms && owned > 1 {
            let ten = &mut self.tenants[tenant];
            let mut groups = ten.placement.groups().to_vec();
            let freed = groups.pop().expect("owned > 1");
            ten.placement = Placement::explicit(groups);
            self.slots[freed.cluster][freed.group] = None;
            ten.scale_downs += 1;
            ten.last_scale_ms = t;
            self.trace.events.push(ServeEvent {
                t_ns: ms_to_ns(t),
                tenant,
                kind: ServeEventKind::Scale {
                    from: owned,
                    to: owned - 1,
                },
            });
        }
    }

    fn finish(self, cfg: &ServeConfig) -> ServeOutcome {
        let horizon = cfg.duration_ms.max(f64::MIN_POSITIVE);
        let mut sorted_latencies = Vec::with_capacity(self.tenants.len());
        let mut global_hist: BTreeMap<usize, u64> = BTreeMap::new();
        let mut tenants = Vec::with_capacity(self.tenants.len());
        let (mut offered, mut completed, mut shed, mut violations) = (0u64, 0u64, 0u64, 0u64);
        let (mut retries, mut fault_dropped) = (0u64, 0u64);
        let faults_injected = self.faults.as_ref().map_or(0, |f| f.injected());
        for ten in self.tenants {
            let (lats, stats) = ten.latencies.into_parts();
            sorted_latencies.push(lats);
            offered += ten.offered;
            completed += stats.count;
            shed += ten.shed;
            violations += ten.violations;
            retries += ten.retries;
            fault_dropped += ten.fault_dropped;
            for (&size, &n) in &ten.batch_hist {
                *global_hist.entry(size).or_insert(0) += n;
            }
            tenants.push(TenantReport {
                name: ten.spec.name.clone(),
                model: self.models[ten.spec.model].name().to_string(),
                offered: ten.offered,
                completed: stats.count,
                shed: ten.shed,
                violations: ten.violations,
                retries: ten.retries,
                fault_dropped: ten.fault_dropped,
                groups_lost: ten.groups_lost,
                mean_queue_delay_ms: if stats.count == 0 {
                    0.0
                } else {
                    ten.queue_delay_sum / stats.count as f64
                },
                utilization: ten.busy_ms / horizon.max(ten.last_done_ms),
                latency: stats,
                batch_histogram: ten.batch_hist,
                groups_initial: ten.groups_initial,
                groups_final: ten.placement.len(),
                scale_ups: ten.scale_ups,
                scale_downs: ten.scale_downs,
            });
        }
        let latency = LatencyStats::from_sorted(&merge_sorted(&sorted_latencies));
        ServeOutcome {
            report: ServeReport {
                horizon_ms: cfg.duration_ms,
                offered,
                completed,
                shed,
                violations,
                retries,
                fault_dropped,
                faults_injected,
                throughput_qps: completed as f64 / (horizon / 1e3),
                latency,
                batch_histogram: global_hist,
                tenants,
            },
            trace: self.trace,
            requests: self.requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyticModel, ArrivalProcess, BatchPolicy, ScalePolicy, SlaPolicy};
    use dtu_sim::ChipConfig;

    fn one_tenant(qps: f64) -> ServeConfig {
        ServeConfig {
            duration_ms: 500.0,
            seed: 42,
            tenants: vec![TenantSpec::poisson("t0", 0, qps)],
            ..ServeConfig::default()
        }
    }

    fn run(cfg: &ServeConfig, base_ms: f64) -> ServeOutcome {
        let mut m = AnalyticModel::new("m", base_ms);
        run_serving(cfg, &ChipConfig::dtu20(), &mut [&mut m]).unwrap()
    }

    #[test]
    fn equal_times_fire_in_push_order() {
        let cfg = ServeConfig {
            tenants: (0..3)
                .map(|i| TenantSpec::poisson(format!("t{i}"), 0, 100.0))
                .collect(),
            ..ServeConfig::default()
        };
        let mut m = AnalyticModel::new("m", 1.0);
        let mut models: [&mut dyn ServiceModel; 1] = [&mut m];
        let mut engine = Engine::new(&cfg, &ChipConfig::dtu20(), &mut models, false).unwrap();
        engine.push(2, 5.0, EvKind::Arrival);
        engine.push(0, 5.0, EvKind::Complete);
        engine.push(1, 4.0, EvKind::BatchDeadline);
        engine.push(0, 5.0, EvKind::BatchDeadline);
        engine.push(1, 5.0, EvKind::Arrival);
        let order: Vec<(usize, f64, EvKind)> = std::iter::from_fn(|| engine.pop())
            .map(|(tenant, ev)| (tenant, ev.t, ev.kind))
            .collect();
        assert_eq!(
            order,
            [
                (1, 4.0, EvKind::BatchDeadline),
                (2, 5.0, EvKind::Arrival),
                (0, 5.0, EvKind::Complete),
                (0, 5.0, EvKind::BatchDeadline),
                (1, 5.0, EvKind::Arrival),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "finite event times")]
    fn a_nan_service_time_panics() {
        run(&one_tenant(100.0), f64::NAN);
    }

    #[test]
    fn light_load_has_no_queueing_tail() {
        let out = run(&one_tenant(100.0), 0.5);
        assert!(out.report.completed > 20);
        assert_eq!(out.report.shed, 0);
        // At 5% utilisation p99 stays near the service time.
        assert!(out.report.latency.p99_ms < 1.5);
    }

    /// `one_tenant(10.0)` with `edit` applied to its tenant.
    fn with_tenant(edit: &dyn Fn(&mut TenantSpec)) -> ServeConfig {
        let mut cfg = one_tenant(10.0);
        edit(&mut cfg.tenants[0]);
        cfg
    }

    /// `one_tenant(10.0)` with `edit` applied to its retry policy.
    fn with_retry(edit: &dyn Fn(&mut RetryPolicy)) -> ServeConfig {
        let mut cfg = one_tenant(10.0);
        edit(&mut cfg.retry);
        cfg
    }

    /// Checks `run_serving` rejects `cfg` with exactly the config error `want`.
    fn assert_config_error(cfg: &ServeConfig, want: String) {
        let mut m = AnalyticModel::new("m", 1.0);
        let got = run_serving(cfg, &ChipConfig::dtu20(), &mut [&mut m]);
        assert_eq!(got, Err(ServeError::Config(want)));
    }

    #[test]
    fn no_tenants_is_a_config_error() {
        assert_config_error(
            &ServeConfig::default(),
            "a serving run needs tenants".into(),
        );
    }

    #[test]
    fn bad_model_index_is_a_config_error() {
        assert_config_error(
            &with_tenant(&|t| t.model = 3),
            "tenant 't0' references model 3 but only 1 were provided".into(),
        );
    }

    #[test]
    fn too_many_initial_groups_is_a_config_error() {
        assert_config_error(
            &with_tenant(&|t| t.initial_groups = 9),
            "tenant 't0' wants 9 initial groups; clusters have 3".into(),
        );
    }

    #[test]
    fn bad_sla_deadline_is_a_config_error() {
        for d in [-5.0, 0.0, f64::NAN, f64::NEG_INFINITY] {
            assert_config_error(
                &with_tenant(&|t| t.sla = SlaPolicy::new(d, 8)),
                format!("tenant 't0' SLA deadline_ms must be positive (inf for none), got {d}"),
            );
        }
    }

    #[test]
    fn bad_batch_timeout_is_a_config_error() {
        for ms in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let want =
                format!("tenant 't0' batch timeout_ms must be finite and not negative, got {ms}");
            assert_config_error(
                &with_tenant(&|t| t.batch = BatchPolicy::dynamic(4, ms)),
                want.clone(),
            );
            // A cap of 1 never waits, but its timeout is still checked.
            assert_config_error(
                &with_tenant(&|t| t.batch = BatchPolicy::dynamic(1, ms)),
                want,
            );
        }
    }

    /// The remaining rules `run_serving` enforces, one row per bad value:
    /// each is a config error naming the tenant, the field and the value.
    #[test]
    fn bad_configs_are_config_errors() {
        let mut rows: Vec<(ServeConfig, String)> = vec![
            (
                with_tenant(&|t| t.arrival = ArrivalProcess::Poisson { qps: -5.0 }),
                "tenant 't0' arrival qps must be positive and finite, got -5".into(),
            ),
            (
                with_tenant(&|t| t.initial_groups = 0),
                "tenant 't0' initial_groups must be at least 1, got 0".into(),
            ),
            (
                with_tenant(&|t| t.cluster = Some(2)),
                "tenant 't0' wants cluster 2 but the chip has 2".into(),
            ),
            (
                with_tenant(&|t| t.batch = BatchPolicy::dynamic(0, 1.0)),
                "tenant 't0' batch max_batch must be at least 1, got 0".into(),
            ),
            (
                with_tenant(&|t| t.scale.max_groups = 0),
                "tenant 't0' scale max_groups must be at least 1, got 0".into(),
            ),
        ];
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for alpha in [0.0, -0.5, nan, inf, -inf, 7.0] {
            rows.push((
                with_tenant(&|t| t.scale.ema_alpha = alpha),
                format!("tenant 't0' scale ema_alpha must be in (0, 1], got {alpha}"),
            ));
        }
        for ms in [-1.0, nan, -inf] {
            let field_rows: [(&str, ServeConfig); 3] = [
                (
                    "high_delay_ms",
                    with_tenant(&|t| t.scale.high_delay_ms = ms),
                ),
                ("low_delay_ms", with_tenant(&|t| t.scale.low_delay_ms = ms)),
                ("cooldown_ms", with_tenant(&|t| t.scale.cooldown_ms = ms)),
            ];
            for (field, cfg) in field_rows {
                let want =
                    format!("tenant 't0' scale {field} must not be NaN or negative, got {ms}");
                rows.push((cfg, want));
            }
        }
        for ms in [-1.0, nan, inf, -inf] {
            rows.push((
                with_retry(&|r| r.backoff_ms = ms),
                format!("retry backoff_ms must be finite and not negative, got {ms}"),
            ));
            rows.push((
                with_retry(&|r| r.max_backoff_ms = ms),
                format!("retry max_backoff_ms must be finite and not negative, got {ms}"),
            ));
        }
        for jitter in [-0.1, 5.0, nan, inf, -inf] {
            rows.push((
                with_retry(&|r| r.jitter = jitter),
                format!("retry jitter must be in [0, 1], got {jitter}"),
            ));
        }
        for (cfg, want) in rows {
            assert_config_error(&cfg, want);
        }
        // The edges of each rule are legal: a zero timeout dispatches at
        // once, and `serve --deadline inf` scales at infinite delays.
        let legal = [
            with_tenant(&|t| t.batch = BatchPolicy::dynamic(4, 0.0)),
            with_tenant(&|t| t.sla = SlaPolicy::new(inf, 8)),
            with_tenant(&|t| t.scale = ScalePolicy::elastic(inf, inf, 3)),
            with_tenant(&|t| t.scale.ema_alpha = 1.0),
            with_retry(&|r| {
                *r = RetryPolicy {
                    max_attempts: 1,
                    backoff_ms: 0.0,
                    max_backoff_ms: 0.0,
                    jitter: 1.0,
                }
            }),
        ];
        for cfg in legal {
            assert!(run(&cfg, 1.0).report.completed > 0, "{cfg:?}");
        }
    }

    #[test]
    fn admission_sheds_when_queue_is_full() {
        let mut cfg = one_tenant(4000.0); // far beyond capacity
        cfg.tenants[0].sla = SlaPolicy::new(50.0, 4);
        let out = run(&cfg, 1.0);
        assert!(out.report.shed > 0, "overload must shed");
        // Queue depth is capped, so waiting time is bounded by
        // (depth+1) batches of service.
        assert!(out.report.latency.max_ms <= 1.0 * 6.0 + 1e-9);
        assert_eq!(
            out.report.offered,
            out.report.completed + out.report.shed,
            "every request either completes or is shed"
        );
    }

    #[test]
    fn utilization_counts_the_drain_past_the_horizon() {
        // Far beyond capacity: the queue is still full at the horizon,
        // so the server stays busy well after it.
        let out = run(&one_tenant(4000.0), 20.0);
        let u = out.report.tenants[0].utilization;
        assert!(u > 0.9 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn batching_forms_under_backlog() {
        let mut cfg = one_tenant(3000.0);
        cfg.tenants[0].batch = BatchPolicy::dynamic(8, 0.5);
        let out = run(&cfg, 1.0);
        let max_batch = *out.report.batch_histogram.keys().max().unwrap();
        assert!(max_batch > 1, "backlog should form real batches");
        assert!(out.report.mean_batch() > 1.5);
    }

    #[test]
    fn batch_timeout_fires_for_sparse_traffic() {
        // Load so light the max-batch trigger never fires: every batch
        // is formed by the timeout and stays small.
        let mut cfg = one_tenant(20.0);
        cfg.tenants[0].batch = BatchPolicy::dynamic(8, 2.0);
        let out = run(&cfg, 0.2);
        assert!(out.report.completed > 0);
        // The timeout adds at most timeout_ms to the queueing delay.
        assert!(out.report.latency.p50_ms >= 2.0 * 0.9);
        assert!(out.report.latency.p50_ms <= 2.0 + 5.0 * 0.2 + 1.0);
    }

    #[test]
    fn elastic_scaling_grows_under_load_and_shrinks_when_idle() {
        let mut cfg = one_tenant(0.0);
        cfg.duration_ms = 2000.0;
        cfg.tenants[0].arrival = ArrivalProcess::Bursty {
            base_qps: 50.0,
            burst_qps: 2500.0,
            mean_dwell_ms: 300.0,
        };
        cfg.tenants[0].scale = ScalePolicy::elastic(2.0, 0.2, 3);
        let out = run(&cfg, 0.8);
        let t = &out.report.tenants[0];
        assert!(t.scale_ups > 0, "bursts must trigger scale-up: {t:?}");
        let max_groups = out
            .trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ServeEventKind::Scale { to, .. } => Some(to),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(max_groups >= 2);
    }

    #[test]
    fn tenants_place_on_distinct_groups() {
        let cfg = ServeConfig {
            duration_ms: 50.0,
            seed: 1,
            tenants: (0..6)
                .map(|i| TenantSpec::poisson(format!("t{i}"), 0, 100.0))
                .collect(),
            ..ServeConfig::default()
        };
        let mut m = AnalyticModel::new("m", 0.5);
        let out = run_serving(&cfg, &ChipConfig::dtu20(), &mut [&mut m]).unwrap();
        assert_eq!(out.report.tenants.len(), 6);
        // All 6 groups of the i20 are claimed: a 7th tenant must fail.
        let mut over = cfg.clone();
        over.tenants.push(TenantSpec::poisson("t6", 0, 100.0));
        let mut m2 = AnalyticModel::new("m", 0.5);
        assert!(run_serving(&over, &ChipConfig::dtu20(), &mut [&mut m2]).is_err());
    }

    #[test]
    fn trace_records_all_event_kinds_under_load() {
        let mut cfg = one_tenant(3000.0);
        cfg.tenants[0].sla = SlaPolicy::new(10.0, 8);
        cfg.tenants[0].batch = BatchPolicy::dynamic(4, 0.5);
        let out = run(&cfg, 1.0);
        let kinds: std::collections::BTreeSet<&str> = out
            .trace
            .events
            .iter()
            .map(|e| match e.kind {
                ServeEventKind::Arrival { .. } => "arrival",
                ServeEventKind::Shed { .. } => "shed",
                ServeEventKind::Dispatch { .. } => "dispatch",
                ServeEventKind::Complete { .. } => "complete",
                ServeEventKind::Scale { .. } => "scale",
                ServeEventKind::Fault { .. } => "fault",
                ServeEventKind::Retry { .. } => "retry",
                ServeEventKind::GroupLost { .. } => "group-lost",
                ServeEventKind::FaultDrop { .. } => "fault-drop",
                // Generative-engine kinds; the fixed-batch engine
                // never emits them.
                ServeEventKind::Prefill { .. } => "prefill",
                ServeEventKind::DecodeStep { .. } => "decode",
                ServeEventKind::Preempt { .. } => "preempt",
            })
            .collect();
        for k in ["arrival", "shed", "dispatch", "complete"] {
            assert!(kinds.contains(k), "missing {k} events");
        }
        // Trace times are monotone.
        assert!(out.trace.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn recorded_run_emits_request_spans_and_matches_plain_run() {
        use dtu_telemetry::{Layer, SpanKind};
        let cfg = one_tenant(200.0);
        let plain = run(&cfg, 1.0);
        assert!(plain.requests.is_empty(), "kept only on request");
        let mut recorded = cfg.clone();
        recorded.record_requests = true;
        let rec = run(&recorded, 1.0);
        // Recording outcomes must not perturb the simulation.
        assert_eq!(plain.report, rec.report);
        assert_eq!(plain.trace, rec.trace);
        let reqs: Vec<_> = rec.requests.iter().map(RequestOutcome::to_span).collect();
        assert_eq!(reqs.len() as u64, rec.report.completed);
        for s in &reqs {
            assert_eq!(s.kind, SpanKind::Request);
            assert_eq!(s.layer, Layer::Serving);
            assert!(s.end_ns >= s.start_ns);
        }
        // Batch spans from the event log ride along on the same clock.
        let batches = rec.trace.to_spans();
        assert!(batches.iter().any(|s| s.kind == SpanKind::Batch));
    }

    use crate::RetryPolicy;
    use dtu_faults::{FaultEvent, FaultKind, FaultPlan};

    fn fault_plan(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan {
            seed: 0,
            name: String::new(),
            events,
        }
    }

    fn fault_at(at_ms: f64, cluster: usize, group: usize, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at_ns: ms_to_ns(at_ms),
            cluster,
            group,
            kind,
        }
    }

    fn has_kind(out: &ServeOutcome, want: &str) -> bool {
        out.trace.events.iter().any(|e| {
            matches!(
                (&e.kind, want),
                (ServeEventKind::Fault { .. }, "fault")
                    | (ServeEventKind::Retry { .. }, "retry")
                    | (ServeEventKind::GroupLost { .. }, "group-lost")
                    | (ServeEventKind::FaultDrop { .. }, "fault-drop")
            )
        })
    }

    #[test]
    fn empty_plan_and_retry_policy_are_invisible() {
        let base = run(&one_tenant(200.0), 0.5);
        let mut cfg = one_tenant(200.0);
        cfg.faults = FaultPlan::empty();
        cfg.retry = RetryPolicy {
            max_attempts: 9,
            backoff_ms: 7.0,
            max_backoff_ms: 99.0,
            jitter: 1.0,
        };
        let out = run(&cfg, 0.5);
        assert_eq!(out.report, base.report, "no faults -> policy invisible");
        assert_eq!(out.trace, base.trace);
        assert_eq!(out.report.faults_injected, 0);
    }

    #[test]
    fn transient_fault_retries_and_recovers() {
        let mut cfg = one_tenant(100.0);
        cfg.faults = fault_plan(vec![fault_at(10.0, 0, 0, FaultKind::DmaTimeout)]);
        let out = run(&cfg, 0.5);
        assert_eq!(out.report.retries, 1, "one timeout, one retry");
        assert_eq!(out.report.fault_dropped, 0, "no deadline, nothing dropped");
        assert_eq!(out.report.faults_injected, 1);
        assert_eq!(out.report.offered, out.report.completed + out.report.shed);
        assert!(has_kind(&out, "fault") && has_kind(&out, "retry"));
    }

    #[test]
    fn retry_exhaustion_drops_the_batch() {
        let mut cfg = one_tenant(100.0);
        cfg.retry = RetryPolicy::none();
        cfg.faults = fault_plan(vec![fault_at(10.0, 0, 0, FaultKind::DmaTimeout)]);
        let out = run(&cfg, 0.5);
        assert_eq!(out.report.retries, 0);
        assert!(
            out.report.fault_dropped >= 1,
            "batch dropped on first fault"
        );
        assert!(
            out.report.balanced(),
            "every request completes, is shed, or is fault-dropped"
        );
        let mut leak = out.report.clone();
        leak.tenants[0].shed += 1;
        assert!(!leak.balanced(), "each tenant's books are checked too");
        assert!(has_kind(&out, "fault-drop") && !has_kind(&out, "retry"));
    }

    #[test]
    fn deadline_expiry_during_backoff_drops_requests() {
        let mut cfg = one_tenant(100.0);
        cfg.tenants[0].sla = SlaPolicy::new(1.0, usize::MAX);
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            backoff_ms: 50.0,
            max_backoff_ms: 50.0,
            jitter: 0.0,
        };
        cfg.faults = fault_plan(vec![fault_at(10.0, 0, 0, FaultKind::DmaTimeout)]);
        let out = run(&cfg, 0.5);
        assert!(has_kind(&out, "retry"), "the batch retried after backoff");
        assert!(
            out.report.fault_dropped >= 1,
            "its requests expired during the 50 ms backoff"
        );
        assert_eq!(
            out.report.offered,
            out.report.completed + out.report.shed + out.report.fault_dropped
        );
    }

    #[test]
    fn core_failure_loses_the_group_and_poisons_the_slot() {
        let mut cfg = one_tenant(3000.0);
        cfg.duration_ms = 300.0;
        cfg.tenants[0].initial_groups = 2;
        cfg.tenants[0].scale = ScalePolicy::elastic(2.0, 0.2, 3);
        cfg.faults = fault_plan(vec![fault_at(1.0, 0, 1, FaultKind::CoreFailure)]);
        let out = run(&cfg, 1.0);
        let t = &out.report.tenants[0];
        assert_eq!(t.groups_lost, 1);
        assert!(out.report.completed > 0, "serving continues degraded");
        assert!(has_kind(&out, "group-lost"));
        // The dead slot is poisoned: the cluster has 3 groups, one is
        // dead, so the autoscaler can never take the tenant past 2.
        let max_to = out
            .trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ServeEventKind::Scale { to, .. } => Some(to),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(max_to <= 2, "poisoned slot must not be reclaimed");
        assert!(t.groups_final <= 2);
    }

    #[test]
    fn last_group_lost_surfaces_the_fault() {
        let mut cfg = one_tenant(100.0);
        cfg.record_requests = true;
        cfg.faults = fault_plan(vec![fault_at(100.0, 0, 0, FaultKind::CoreFailure)]);
        let mut m = AnalyticModel::new("m", 0.5);
        let err = run_serving(&cfg, &ChipConfig::dtu20(), &mut [&mut m]).unwrap_err();
        let ServeError::Outage(o) = err else {
            panic!("expected an outage, got {err}");
        };
        assert!(o.fault.is_permanent());
        // The log runs up to the outage: the lost group is its last
        // event, and every completion before it is recorded.
        let last = o.trace.events.last().expect("events before the outage");
        assert!(matches!(
            last.kind,
            ServeEventKind::GroupLost { remaining: 0, .. }
        ));
        let completions: usize = o
            .trace
            .events
            .iter()
            .map(|e| match e.kind {
                ServeEventKind::Complete { batch, .. } => batch,
                _ => 0,
            })
            .sum();
        assert!(completions > 0);
        assert_eq!(o.requests.len(), completions);
    }

    #[test]
    fn degradation_window_slows_service() {
        let base = run(&one_tenant(50.0), 0.5);
        let mut cfg = one_tenant(50.0);
        cfg.faults = fault_plan(vec![fault_at(
            0.0,
            0,
            0,
            FaultKind::DmaStall {
                factor: 4.0,
                duration_ns: ms_to_ns(500.0),
            },
        )]);
        let out = run(&cfg, 0.5);
        assert!(out.report.faults_injected >= 1);
        assert!(
            out.report.latency.p50_ms > 2.0 * base.report.latency.p50_ms,
            "4x DMA stall must degrade latency: {} vs {}",
            out.report.latency.p50_ms,
            base.report.latency.p50_ms
        );
        assert_eq!(out.report.retries, 0, "windows degrade, they do not fail");
    }

    use crate::live::{LiveConfig, LiveMonitor};
    use dtu_telemetry::{AlertKind, SloSpec};

    fn run_live(cfg: &ServeConfig, base_ms: f64, mon: &mut LiveMonitor) -> ServeOutcome {
        let mut m = AnalyticModel::new("m", base_ms);
        run_serving_live(cfg, &ChipConfig::dtu20(), &mut [&mut m], mon).unwrap()
    }

    #[test]
    fn live_clean_run_matches_plain_and_stays_quiet() {
        let cfg = one_tenant(200.0);
        let plain = run(&cfg, 0.5);
        let mut mon = LiveMonitor::new(LiveConfig {
            slo: Some(SloSpec::new("p99<10ms", 0.99, 10.0)),
        });
        let live = run_live(&cfg, 0.5, &mut mon);
        assert_eq!(live, plain, "monitoring must not feed back");
        assert_eq!(mon.burn_alerts().count(), 0, "clean run fires no alerts");
        assert!(mon.flight.dumps().is_empty());
        let row = mon.tenants()[0].row(mon.now_ns(), 60.0e9);
        assert!(row.qps > 0.0, "windowed QPS reflects traffic");
        assert!(!row.latency.firing);
    }

    #[test]
    fn reused_live_monitor_ends_in_a_fresh_monitors_state() {
        let mut cfg = one_tenant(200.0);
        cfg.duration_ms = 2_500.0;
        // Every completion misses 0.1 ms, so the run pages and dumps.
        let paging = || {
            LiveMonitor::new(LiveConfig {
                slo: Some(SloSpec::new("p99<0.1ms", 0.99, 0.1)),
            })
        };
        let mut fresh = paging();
        run_live(&cfg, 0.5, &mut fresh);
        assert_eq!(fresh.burn_alerts().count(), 1);
        assert_eq!(fresh.flight.triggers(), 1);
        let mut reused = paging();
        run_live(&cfg, 0.5, &mut reused);
        run_live(&cfg, 0.5, &mut reused);
        assert_eq!(reused.flight.dumps().len(), 1);
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn live_faulted_run_matches_plain_and_records_the_fault() {
        let mut cfg = one_tenant(200.0);
        cfg.tenants[0].cluster = Some(0);
        cfg.tenants[0].initial_groups = 2;
        cfg.faults = fault_plan(vec![fault_at(1.0, 0, 1, FaultKind::CoreFailure)]);
        let plain = run(&cfg, 1.0);
        let mut mon = LiveMonitor::new(LiveConfig::default());
        let live = run_live(&cfg, 1.0, &mut mon);
        assert_eq!(live, plain);
        // The core failure triggers a flight-recorder dump even without
        // an SLO configured, and pages as a fault alert.
        assert!(!mon.flight.dumps().is_empty(), "fault must dump the ring");
        assert!(mon.alerts.iter().any(|(_, a)| a.kind == AlertKind::Fault));
    }

    #[test]
    fn live_aborted_run_returns_the_plain_error_and_stops_at_the_outage() {
        let mut cfg = one_tenant(100.0);
        cfg.faults = fault_plan(vec![fault_at(100.0, 0, 0, FaultKind::CoreFailure)]);
        let mut m = AnalyticModel::new("m", 0.5);
        let plain = run_serving(&cfg, &ChipConfig::dtu20(), &mut [&mut m]).unwrap_err();
        let mut mon = LiveMonitor::new(LiveConfig::default());
        let mut m = AnalyticModel::new("m", 0.5);
        let live = run_serving_live(&cfg, &ChipConfig::dtu20(), &mut [&mut m], &mut mon);
        assert_eq!(live, Err(plain.clone()), "requests stay unrecorded");
        let ServeError::Outage(o) = plain else {
            panic!("expected an outage, got {plain}");
        };
        let outage_ns = o.trace.events.last().expect("the lost group").t_ns;
        assert_eq!(mon.now_ns(), outage_ns, "no evaluation past the outage");
        assert!(mon.tenants()[0].completions.total() > 0.0);
        let (_, last) = mon.alerts.last().expect("the outage pages");
        assert_eq!((last.slo.as_str(), last.t_ns), ("core-failure", outage_ns));
    }
}
