//! Fleet-wide observability: the [`FleetMonitor`] aggregator.
//!
//! A monitored fleet reads each chip-epoch's serving log — its
//! [`ServingTrace`](dtu_serve::ServingTrace) and request outcomes — in
//! the chip-epoch's own job, on the fleet clock: each sample at its own
//! fleet time (epoch start plus its time in the chip-epoch), each
//! request id with a fleet-unique trace base
//! ([`trace_base`](crate::trace_base)) whose bits name the (epoch,
//! chip) that served it. The job folds the log per 1 s window: for
//! each tenant and window it counts completions, violations, sheds and
//! fault drops and keeps a latency histogram and the slowest
//! completion, and for the chip the same counts and exemplar. At every routing-epoch barrier the `FleetMonitor` merges
//! those window summaries, in chip order, into per-tenant and per-chip
//! rollups, touching each series and window just where a
//! record-by-record fold of the log would. Fleet-scope SLO burn-rate
//! trackers run over the folded windows (via
//! [`SloTracker::fold_window`]), and badness is attributed to (chip,
//! tenant) pairs: deadline violations, fault drops, and — when a chip
//! dies — the load it was carrying but could no longer serve.
//!
//! The monitor is strictly observational. The engine's
//! [`FleetReport`](crate::FleetReport) is built from the plain
//! simulation results alone, so a monitored run's JSON stays
//! byte-identical to an unmonitored one (asserted by the engine
//! tests).
//!
//! Each chip's ring holds its most recent chip-epoch logs themselves,
//! moved out of the jobs: the completions as the engine recorded them,
//! and the records of its other kept events (sheds, batches — one per
//! completion at batch size 1 — and faults) at their places in the
//! log. The job keeps each window's slowest completion as a record and
//! cuts the log to its last [`CHIP_RING_CAPACITY`] records; the ring
//! drops its oldest log when the newer ones still hold that many, so it
//! holds fewer than twice `CHIP_RING_CAPACITY` records however long an
//! epoch runs. It builds [`ServeRecord`]s only when a dump or an
//! exemplar lookup reads it, and shows the last `CHIP_RING_CAPACITY`
//! records of the chip's logs. The route ring keeps one small record
//! per routing decision.
//! On a burn-rate transition or a [`ChipKill`](crate::ChipKill) the
//! monitor renders the offending chip's ring together with the
//! retained routing decisions into one [`FlightDump`], loadable in
//! Perfetto like any other dump — the cross-chip "black box" of what
//! the fleet was doing leading up to the incident. A page's dump also
//! holds the page's exemplar request, whichever chip served it. Only
//! then are labels built.

use crate::route::{trace_base, EpochRoutes};
use dtu_serve::{LogEntry, RequestOutcome, ServeRecord, ServeRecordKind, ServingTrace};
use dtu_telemetry::clock::{ms_to_ns, NS_PER_MS};
use dtu_telemetry::flight::MAX_DUMPS;
use dtu_telemetry::json::{array, number, JsonObject};
use dtu_telemetry::monitor::{series, RING_WINDOWS};
use dtu_telemetry::slo::{BURN_THRESHOLD, EVAL_WINDOW_NS, FAST_WINDOW_NS};
use dtu_telemetry::{
    AlertEvent, AlertKind, EvalClock, Exemplar, FlightDump, FlightRecord, Layer, LogHistogram,
    Objective, ObjectiveRow, SloSpec, SloTracker, SlowestRecords, Span, TimeSeries,
    WindowedHistogram,
};
use std::collections::VecDeque;
use std::fmt;

/// Records each chip's ring shows: the last this many of its logs.
pub const CHIP_RING_CAPACITY: usize = 4096;
/// Routing decisions retained for dumps.
pub const ROUTE_RING_CAPACITY: usize = 512;

/// One routing decision: `qps` of `tenant` sent to `chip` from the
/// start of `epoch`. A dump renders it as a `route e{epoch}
/// {tenant}->chip{chip} {qps}qps` marker.
#[derive(Debug, Clone, Copy)]
struct RouteRecord {
    epoch: usize,
    tenant: usize,
    chip: usize,
    qps: f64,
    at_ns: f64,
}

/// One tenant's fleet-scope rollup.
#[derive(Debug, Clone)]
struct TenantScope {
    name: String,
    completions: TimeSeries,
    violations: TimeSeries,
    sheds: TimeSeries,
    fault_drops: TimeSeries,
    /// Every chip's latencies and the tenant's p99 SLO, judged on the
    /// folded completion windows.
    latency: Objective,
    /// Each recent window's slowest completion across chips — the
    /// latency exemplars, as records — for a page's dump.
    slowest: SlowestRecords<ServeRecord>,
}

impl TenantScope {
    fn new(name: &str, deadline_ms: f64) -> Self {
        TenantScope {
            name: name.to_string(),
            completions: series(),
            violations: series(),
            sheds: series(),
            fault_drops: series(),
            latency: Objective::new(Some(SloSpec::new(
                format!("{name} p99<{deadline_ms}ms"),
                0.99,
                deadline_ms,
            ))),
            slowest: SlowestRecords::default(),
        }
    }

    /// The tenant's SLO tracker (every fleet tenant has one).
    fn slo(&self) -> &SloTracker {
        self.latency
            .slo
            .as_ref()
            .expect("fleet tenants carry an SLO")
    }
}

/// One chip's fleet-scope rollup.
#[derive(Debug, Clone)]
struct ChipScope {
    completions: TimeSeries,
    violations: TimeSeries,
    sheds: TimeSeries,
    latency: WindowedHistogram,
    /// The chip's recent logs on the fleet clock (one per epoch).
    ring: ChipRing,
    dead: bool,
}

impl ChipScope {
    fn new() -> Self {
        ChipScope {
            completions: series(),
            violations: series(),
            sheds: series(),
            latency: WindowedHistogram::new(EVAL_WINDOW_NS, RING_WINDOWS),
            ring: ChipRing::default(),
            dead: false,
        }
    }
}

/// A chip's flight ring: its most recent chip-epoch logs, each cut to
/// its last [`CHIP_RING_CAPACITY`] records by the job that read it. It
/// drops its oldest log only when the others still hold
/// `CHIP_RING_CAPACITY` records, and shows the last
/// `CHIP_RING_CAPACITY` records of the logs joined end to end.
#[derive(Debug, Clone, Default)]
struct ChipRing {
    logs: VecDeque<LogChunk>,
    /// Records the logs hold.
    len: usize,
}

impl ChipRing {
    fn push(&mut self, log: LogChunk) {
        self.len += log.len();
        self.logs.push_back(log);
        while let Some(oldest) = self
            .logs
            .front()
            .filter(|oldest| self.len - oldest.len() >= CHIP_RING_CAPACITY)
        {
            self.len -= oldest.len();
            self.logs.pop_front();
        }
    }

    /// The ring's records, oldest first.
    fn records(&self) -> impl Iterator<Item = ServeRecord> + '_ {
        let hidden = self.len.saturating_sub(CHIP_RING_CAPACITY);
        self.logs.iter().flat_map(LogChunk::records).skip(hidden)
    }
}

/// One chip-epoch's log as a chip's ring keeps it: its completions as
/// the engine recorded them, and the records of its other events, each
/// with its place in the log — the number of completions before it.
#[derive(Debug, Clone)]
struct LogChunk {
    requests: Vec<RequestOutcome>,
    events: Vec<(usize, ServeRecord)>,
    /// What places the log on the fleet clock: the chip-epoch's
    /// trace-id base and start.
    id_base: u64,
    offset_ns: f64,
}

impl LogChunk {
    fn len(&self) -> usize {
        self.requests.len() + self.events.len()
    }

    /// Keeps the log's last `n` records, right-sized.
    fn keep_last(&mut self, n: usize) {
        let cut = self.len().saturating_sub(n);
        // Event `j` is record `j + before` of the log, so the first
        // `cut` records are the events placed below `cut` and as many
        // completions as make up the rest.
        let events = (self.events.iter().enumerate())
            .take_while(|&(j, &(before, _))| j + before < cut)
            .count();
        let done = cut - events;
        self.requests.drain(..done);
        self.requests.shrink_to_fit();
        self.events.drain(..events);
        self.events.shrink_to_fit();
        if done > 0 {
            for (before, _) in &mut self.events {
                *before -= done;
            }
        }
    }

    /// The log's records in the order the engine wrote them, built as
    /// [`ServeRecord::read_log`] builds them.
    fn records(&self) -> impl Iterator<Item = ServeRecord> + '_ {
        let (mut done, mut event) = (0, 0);
        std::iter::from_fn(move || match self.events.get(event) {
            Some(&(before, record)) if before == done => {
                event += 1;
                Some(record)
            }
            _ => {
                let r = self.requests.get(done)?;
                done += 1;
                Some(ServeRecord::completion(r, self.id_base, self.offset_ns))
            }
        })
    }
}

/// One fleet-scope alert, tagged with where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAlert {
    /// Routing epoch during which the alert transitioned.
    pub epoch: usize,
    /// The tenant whose SLO transitioned (`None` for whole-chip
    /// events like a kill).
    pub tenant: Option<usize>,
    /// The chip the burn is attributed to, when one dominates.
    pub chip: Option<usize>,
    /// The underlying alert, on the fleet clock.
    pub event: AlertEvent,
}

/// One tenant's row of a fleet dashboard frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTenantRow {
    /// Tenant (model) name.
    pub name: String,
    /// Completions per simulated second over the trailing fast window.
    pub qps: f64,
    /// Sheds per simulated second.
    pub shed_rate: f64,
    /// Fault drops per simulated second.
    pub drop_rate: f64,
    /// The latency objective's columns (its fleet-scope SLO).
    pub latency: ObjectiveRow,
}

/// One chip's row of a fleet dashboard frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetChipRow {
    /// Chip index.
    pub chip: usize,
    /// Completions per simulated second over the trailing fast window.
    pub qps: f64,
    /// Sheds per simulated second.
    pub shed_rate: f64,
    /// Windowed p99 latency, ms.
    pub p99_ms: f64,
    /// The chip's windowed violation ratio against the tightest tenant
    /// error budget (a per-chip burn rate).
    pub burn: f64,
    /// Whether the chip died.
    pub dead: bool,
    /// FIRE marker: the chip is dead, or some tenant is firing and
    /// this chip's burn is at or past the alert threshold.
    pub fire: bool,
}

/// One rendered dashboard frame (what `topsexec fleet top` replays).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFrame {
    /// Routing epoch the frame closes.
    pub epoch: usize,
    /// Frame time (the epoch's end), ms on the fleet clock.
    pub t_ms: f64,
    /// Per-tenant rows, in tenant order.
    pub tenants: Vec<FleetTenantRow>,
    /// Per-chip rows, in chip order.
    pub chips: Vec<FleetChipRow>,
    /// Cumulative alerts emitted up to this frame.
    pub alerts: usize,
}

/// One (chip, tenant) pair's share of the fleet's badness.
#[derive(Debug, Clone, PartialEq)]
pub struct OffenderShare {
    /// Chip index.
    pub chip: usize,
    /// Tenant (model) name.
    pub tenant: String,
    /// Badness charged to the pair: deadline violations, fault drops,
    /// and unserved load on a killed chip.
    pub bad: f64,
    /// The pair's fraction of all badness (0 when the fleet is clean).
    pub share: f64,
}

/// A chip-epoch's serving log as the fleet monitor folds it, read in
/// the chip-epoch's own job: what it adds to each 1 s window of the
/// fleet clock, the log itself for the chip's ring, and where the
/// chip-epoch's clock ends.
#[derive(Debug, Clone)]
pub(crate) struct ChipEpochLog {
    /// The windows the log touches, oldest first.
    windows: Vec<WindowFold>,
    log: LogChunk,
    end_ns: f64,
}

/// What one chip-epoch's log adds to one 1 s window.
#[derive(Debug, Clone)]
struct WindowFold {
    window: u64,
    /// By tenant index in the chip-epoch's run.
    tenants: Vec<WindowCounts>,
    /// The chip's completions and sheds (fault drops are per tenant
    /// only).
    chip: WindowCounts,
}

impl WindowFold {
    /// The window covering `t_ns`, the newest of `windows` or a new
    /// one (a chip-epoch's log runs in time order).
    fn at(windows: &mut Vec<WindowFold>, t_ns: f64) -> &mut WindowFold {
        let window = (t_ns.max(0.0) / EVAL_WINDOW_NS) as u64;
        let newest = windows.last().map(|w| w.window);
        debug_assert!(newest <= Some(window), "the log runs in time order");
        if newest != Some(window) {
            windows.push(WindowFold {
                window,
                tenants: Vec::new(),
                chip: WindowCounts::default(),
            });
        }
        windows.last_mut().expect("just pushed")
    }

    fn tenant(&mut self, tenant: usize) -> &mut WindowCounts {
        if self.tenants.len() <= tenant {
            self.tenants.resize_with(tenant + 1, WindowCounts::default);
        }
        &mut self.tenants[tenant]
    }
}

/// One scope's records in a window: the counts its series take, its
/// latencies and its slowest completion.
#[derive(Debug, Clone, Default)]
struct WindowCounts {
    completions: u64,
    violations: u64,
    sheds: u64,
    /// Fault-drop records, and the requests they dropped.
    fault_drops: u64,
    dropped: u64,
    latency: LogHistogram,
    /// The slowest completion, the first of equals: the exemplar it
    /// makes and its record.
    slowest: Option<(Exemplar, ServeRecord)>,
}

impl WindowCounts {
    /// Counts completion `r`, of latency `latency_ms`, whose log places
    /// it on the fleet clock with `id_base` and `offset_ns`.
    fn complete(&mut self, r: &RequestOutcome, latency_ms: f64, (id_base, offset_ns): (u64, f64)) {
        self.completions += 1;
        self.violations += u64::from(r.violated);
        if self.slowest.is_none_or(|(e, _)| latency_ms > e.value) {
            let record = ServeRecord::completion(r, id_base, offset_ns);
            let exemplar = Exemplar {
                span_id: id_base + r.req,
                value: latency_ms,
                at_ns: record.end_ns,
            };
            self.slowest = Some((exemplar, record));
        }
    }

    /// Adds the counts to the series a record-by-record fold would
    /// have touched: a series only where the window has a sample.
    fn add_to(
        &self,
        at_ns: f64,
        completions: &mut TimeSeries,
        violations: &mut TimeSeries,
        sheds: &mut TimeSeries,
    ) {
        for (series, n) in [
            (completions, self.completions),
            (violations, self.violations),
            (sheds, self.sheds),
        ] {
            if n > 0 {
                series.add(at_ns, n as f64);
            }
        }
    }
}

impl ChipEpochLog {
    /// Reads the log (`trace` and `requests`) of chip `chip`'s run in
    /// `epoch`, which started at `start_ms` and offered arrivals for
    /// `len_ms`, and keeps the log's last [`CHIP_RING_CAPACITY`]
    /// records for the chip's ring. The clock ends as a monitored
    /// single-shot run's does: a `finished` run at its closing boundary,
    /// an aborted one at its last event.
    pub(crate) fn read(
        trace: &ServingTrace,
        requests: Vec<RequestOutcome>,
        finished: bool,
        (epoch, chip, start_ms, len_ms): (usize, usize, f64, f64),
    ) -> Self {
        let place = (trace_base(epoch, chip), start_ms * NS_PER_MS);
        let (id_base, offset_ns) = place;
        let last_ns = trace.events.last().map_or(0.0, |e| e.t_ns);
        let mut clock = EvalClock::default();
        while clock.tick(last_ns).is_some() {}
        let end_ns = if finished {
            clock.closing(ms_to_ns(len_ms).max(last_ns))
        } else {
            last_ns
        };
        let (mut windows, mut events, mut done) = (Vec::new(), Vec::new(), 0);
        for entry in LogEntry::walk(trace, &requests, id_base, offset_ns) {
            match entry {
                LogEntry::Done(r) => {
                    let latency_ms = r.latency_ms();
                    let w = WindowFold::at(&mut windows, ms_to_ns(r.done_ms) + offset_ns);
                    w.chip.complete(r, latency_ms, place);
                    let counts = w.tenant(r.tenant);
                    counts.complete(r, latency_ms, place);
                    counts.latency.record(latency_ms);
                    done += 1;
                }
                LogEntry::Event(record) => {
                    let (t_ns, tenant) = (record.at_ns(), record.tenant as usize);
                    match record.kind {
                        ServeRecordKind::Shed { .. } => {
                            let w = WindowFold::at(&mut windows, t_ns);
                            w.chip.sheds += 1;
                            w.tenant(tenant).sheds += 1;
                        }
                        ServeRecordKind::FaultDrop { dropped } => {
                            let counts = WindowFold::at(&mut windows, t_ns).tenant(tenant);
                            counts.fault_drops += 1;
                            counts.dropped += dropped as u64;
                        }
                        _ => {}
                    }
                    events.push((done, record));
                }
            }
        }
        debug_assert_eq!(done, requests.len(), "the log holds every completion");
        for w in &mut windows {
            for t in &w.tenants {
                w.chip.latency.merge(&t.latency);
            }
        }
        let mut log = LogChunk {
            requests,
            events,
            id_base,
            offset_ns,
        };
        log.keep_last(CHIP_RING_CAPACITY);
        ChipEpochLog {
            windows,
            log,
            end_ns: offset_ns + end_ns,
        }
    }
}

/// Engine-side view of one tenant slice, enough for attribution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SliceStats {
    pub tenant: usize,
    pub offered: u64,
    pub violations: u64,
    pub fault_dropped: u64,
}

/// The fleet-scope observability aggregator (see the module docs).
#[derive(Debug, Clone)]
pub struct FleetMonitor {
    tenants: Vec<TenantScope>,
    chips: Vec<ChipScope>,
    route_ring: VecDeque<RouteRecord>,
    alerts: Vec<FleetAlert>,
    frames: Vec<FleetFrame>,
    dumps: Vec<FlightDump>,
    triggers: u64,
    /// Badness per (chip, tenant) pair.
    bad: Vec<Vec<f64>>,
    /// Offered load per (chip, tenant) in the chip's last served epoch
    /// — what an epoch-start kill is charged with.
    last_offered: Vec<Vec<f64>>,
    /// Tightest tenant error budget (the per-chip burn denominator).
    min_budget: f64,
    clock: EvalClock,
    max_seen_ns: f64,
}

impl FleetMonitor {
    /// Creates a monitor for `chips` chips and the given tenants, each
    /// `(name, sla_deadline_ms)` pair becoming one fleet-scope
    /// p99-meets-deadline SLO.
    pub fn new(chips: usize, tenants: &[(&str, f64)]) -> Self {
        let scopes: Vec<TenantScope> = tenants
            .iter()
            .map(|&(name, deadline)| TenantScope::new(name, deadline))
            .collect();
        let min_budget = scopes
            .iter()
            .map(|t| t.slo().spec.error_budget())
            .fold(f64::INFINITY, f64::min)
            .min(1.0);
        FleetMonitor {
            tenants: scopes,
            chips: (0..chips).map(|_| ChipScope::new()).collect(),
            route_ring: VecDeque::new(),
            alerts: Vec::new(),
            frames: Vec::new(),
            dumps: Vec::new(),
            triggers: 0,
            bad: vec![vec![0.0; tenants.len()]; chips],
            last_offered: vec![vec![0.0; tenants.len()]; chips],
            min_budget,
            clock: EvalClock::default(),
            max_seen_ns: 0.0,
        }
    }

    // ---- engine hooks (routing-epoch sync points) ----------------------

    /// Records one epoch's routing decisions — the context a flight
    /// dump wraps around the offending chip's ring.
    pub(crate) fn on_route(&mut self, epoch: usize, epoch_start_ms: f64, routes: &EpochRoutes) {
        let at_ns = epoch_start_ms * NS_PER_MS;
        for cell in &routes.assignments {
            if self.route_ring.len() == ROUTE_RING_CAPACITY {
                self.route_ring.pop_front();
            }
            self.route_ring.push_back(RouteRecord {
                epoch,
                tenant: cell.tenant,
                chip: cell.chip,
                qps: cell.qps,
                at_ns,
            });
        }
    }

    /// Absorbs one chip's epoch at the barrier: merges its log's window
    /// summaries, when the run kept a log — each sample in its own
    /// fleet second — moves the log into the chip's ring, and updates
    /// (chip, tenant) attribution from the engine's authoritative slice
    /// accounting.
    pub(crate) fn absorb_chip_epoch(
        &mut self,
        chip: usize,
        assignment: &[(usize, f64)],
        epoch_len_ms: f64,
        slices: &[SliceStats],
        log: Option<ChipEpochLog>,
        killed: bool,
    ) {
        if let Some(ChipEpochLog {
            windows,
            log,
            end_ns,
        }) = log
        {
            let cs = &mut self.chips[chip];
            for w in &windows {
                let at_ns = w.window as f64 * EVAL_WINDOW_NS;
                for (counts, &(tenant, _)) in w.tenants.iter().zip(assignment) {
                    let ts = &mut self.tenants[tenant];
                    counts.add_to(
                        at_ns,
                        &mut ts.completions,
                        &mut ts.violations,
                        &mut ts.sheds,
                    );
                    if counts.fault_drops > 0 {
                        ts.fault_drops.add(at_ns, counts.dropped as f64);
                    }
                    if let Some((exemplar, record)) = counts.slowest {
                        ts.latency
                            .hist
                            .merge_window(at_ns, &counts.latency, Some(exemplar));
                        ts.slowest.note(at_ns, exemplar.value, record);
                    }
                }
                let counts = &w.chip;
                counts.add_to(
                    at_ns,
                    &mut cs.completions,
                    &mut cs.violations,
                    &mut cs.sheds,
                );
                let exemplar = counts.slowest.map(|(e, _)| e);
                cs.latency.merge_window(at_ns, &counts.latency, exemplar);
            }
            cs.ring.push(log);
            self.max_seen_ns = self.max_seen_ns.max(end_ns);
        }
        for s in slices {
            self.last_offered[chip][s.tenant] = s.offered as f64;
            let mut bad = (s.violations + s.fault_dropped) as f64;
            if killed {
                // A mid-epoch kill: charge the load routed to the chip
                // that it never got to serve (clients saw it vanish).
                let routed = assignment
                    .iter()
                    .find(|&&(t, _)| t == s.tenant)
                    .map_or(0.0, |&(_, qps)| qps);
                let expected = routed * epoch_len_ms / 1e3;
                bad += (expected - s.offered as f64).max(0.0);
            }
            self.bad[chip][s.tenant] += bad;
        }
    }

    /// Pages for a whole-chip loss: marks the chip dead, charges it the
    /// load it carried in its last served epoch when it died *before*
    /// serving this one (`charge_last_epoch`), emits a fault alert, and
    /// freezes the chip's ring into a flight dump.
    pub(crate) fn on_chip_kill(
        &mut self,
        epoch: usize,
        at_ms: f64,
        chip: usize,
        charge_last_epoch: bool,
    ) {
        let at_ns = at_ms * NS_PER_MS;
        if let Some(cs) = self.chips.get_mut(chip) {
            cs.dead = true;
        }
        if charge_last_epoch {
            for t in 0..self.tenants.len() {
                self.bad[chip][t] += self.last_offered[chip][t];
            }
        }
        let reason = format!("chip{chip} killed");
        self.dump_chip(&reason, at_ns, chip, None);
        let exemplar = self.resolving_exemplar(chip);
        self.alerts.push(FleetAlert {
            epoch,
            tenant: None,
            chip: Some(chip),
            event: AlertEvent::fault(at_ns, reason, exemplar),
        });
    }

    /// Closes one routing epoch: folds every completed 1 s window into
    /// the fleet-scope SLO trackers, evaluates burn rates (attributing
    /// any transition to the top offending chip), and pushes one
    /// dashboard frame.
    pub(crate) fn end_epoch(&mut self, epoch: usize, epoch_end_ms: f64) {
        self.fold_until(epoch, epoch_end_ms * NS_PER_MS);
        let frame = self.frame_at(epoch, epoch_end_ms);
        self.frames.push(frame);
    }

    /// Folds any windows still pending after the final epoch (drained
    /// completions land past the horizon). Unlike a per-run monitor, it
    /// judges no boundary past the last one the completions reach.
    pub(crate) fn finish(&mut self, last_epoch: usize) {
        self.fold_until(last_epoch, EvalClock::ceil(self.max_seen_ns));
    }

    fn fold_until(&mut self, epoch: usize, end_ns: f64) {
        while let Some(at) = self.clock.tick(end_ns) {
            let w = at - EVAL_WINDOW_NS;
            for t in 0..self.tenants.len() {
                let event = {
                    let ts = &mut self.tenants[t];
                    let completed = ts.completions.sum_over(w, 0.0).round() as u64;
                    let violated = ts.violations.sum_over(w, 0.0).round() as u64;
                    if let Some(slo) = ts.latency.slo.as_mut() {
                        slo.fold_window(w, completed, violated);
                    }
                    ts.latency.evaluate(at)
                };
                if let Some(event) = event {
                    let chip = self.top_offender_chip(t);
                    if let (AlertKind::BurnRate, Some(c)) = (event.kind, chip) {
                        let exemplar = event.exemplar.and_then(|id| {
                            self.tenants[t].slowest.find(|r| r.kind.is_req(id)).copied()
                        });
                        let reason = format_args!("alert {} (chip{c})", event.slo);
                        self.dump_chip(reason, at, c, exemplar);
                    }
                    self.alerts.push(FleetAlert {
                        epoch,
                        tenant: Some(t),
                        chip,
                        event,
                    });
                }
            }
        }
    }

    /// The chip carrying the most badness for tenant `t`, when any.
    fn top_offender_chip(&self, t: usize) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (chip, row) in self.bad.iter().enumerate() {
            let b = row[t];
            if b <= 0.0 {
                continue;
            }
            let better = match best {
                Some((bb, _)) => b > bb,
                None => true,
            };
            if better {
                best = Some((b, chip));
            }
        }
        best.map(|(_, chip)| chip)
    }

    /// Renders the route ring and `chip`'s ring into one dump, in
    /// start order (routing decisions first among equal starts). A
    /// page's `exemplar` record goes first when the chip's ring lacks
    /// it: another chip served it, or the ring evicted it.
    fn dump_chip(
        &mut self,
        reason: impl fmt::Display,
        at_ns: f64,
        chip: usize,
        exemplar: Option<ServeRecord>,
    ) {
        self.triggers += 1;
        if self.dumps.len() >= MAX_DUMPS {
            return;
        }
        let mut spans: Vec<Span> = self.route_ring.iter().map(|r| self.route_span(r)).collect();
        let ring = &self.chips[chip].ring;
        spans.extend(ring.records().map(|r| r.to_span()));
        spans.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
        if let Some(e) = exemplar.filter(|e| !ring.records().any(|r| r == *e)) {
            spans.insert(0, e.to_span());
        }
        self.dumps.push(FlightDump {
            reason: reason.to_string(),
            at_ns,
            spans,
        });
    }

    /// A routing decision as the marker a dump shows.
    fn route_span(&self, r: &RouteRecord) -> Span {
        let name = self.tenants.get(r.tenant).map_or("?", |t| t.name.as_str());
        Span::marker(
            Layer::Serving,
            r.tenant as u32,
            format!("route e{} {name}->chip{} {:.0}qps", r.epoch, r.chip, r.qps),
            r.at_ns,
        )
    }

    fn frame_at(&self, epoch: usize, t_ms: f64) -> FleetFrame {
        let now = t_ms * NS_PER_MS;
        let span = FAST_WINDOW_NS;
        let tenants: Vec<FleetTenantRow> = self
            .tenants
            .iter()
            .map(|ts| FleetTenantRow {
                name: ts.name.clone(),
                qps: ts.completions.rate_per_sec(now, span),
                shed_rate: ts.sheds.rate_per_sec(now, span),
                drop_rate: ts.fault_drops.rate_per_sec(now, span),
                latency: ts.latency.row(now, span),
            })
            .collect();
        let any_firing = tenants.iter().any(|t| t.latency.firing);
        let chips = self
            .chips
            .iter()
            .enumerate()
            .map(|(c, cs)| {
                let done = cs.completions.sum_over(now, span);
                let burn = if done > 0.0 {
                    (cs.violations.sum_over(now, span) / done) / self.min_budget
                } else {
                    0.0
                };
                FleetChipRow {
                    chip: c,
                    qps: cs.completions.rate_per_sec(now, span),
                    shed_rate: cs.sheds.rate_per_sec(now, span),
                    p99_ms: cs.latency.merged_over(now, span).quantile(0.99),
                    burn,
                    dead: cs.dead,
                    fire: cs.dead || (any_firing && burn >= BURN_THRESHOLD),
                }
            })
            .collect();
        FleetFrame {
            epoch,
            t_ms,
            tenants,
            chips,
            alerts: self.alerts.len(),
        }
    }

    // ---- operator-facing accessors -------------------------------------

    /// Per-epoch dashboard frames, oldest first.
    pub fn frames(&self) -> &[FleetFrame] {
        &self.frames
    }

    /// Every fleet-scope alert, in fleet-clock order.
    pub fn alerts(&self) -> &[FleetAlert] {
        &self.alerts
    }

    /// Retained flight dumps (first incidents win, like the per-chip
    /// recorder).
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Total dump triggers, including those past the retention cap.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// The top-`k` offending (chip, tenant) pairs by attributed
    /// badness, largest first (ties break by chip then tenant index).
    pub fn top_offenders(&self, k: usize) -> Vec<OffenderShare> {
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        let mut total = 0.0;
        for (chip, row) in self.bad.iter().enumerate() {
            for (t, &b) in row.iter().enumerate() {
                if b > 0.0 {
                    pairs.push((chip, t, b));
                    total += b;
                }
            }
        }
        pairs.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        pairs
            .into_iter()
            .take(k)
            .map(|(chip, t, bad)| OffenderShare {
                chip,
                tenant: self.tenants[t].name.clone(),
                bad,
                share: if total > 0.0 { bad / total } else { 0.0 },
            })
            .collect()
    }

    /// The newest exemplar of `chip` whose completed request is still
    /// held in the chip's fleet-time ring — a trace id guaranteed to
    /// resolve in a dump of that ring.
    pub fn resolving_exemplar(&self, chip: usize) -> Option<u64> {
        let cs = self.chips.get(chip)?;
        cs.latency
            .windows()
            .rev()
            .filter_map(|w| w.exemplar)
            .map(|e| e.span_id)
            .find(|&id| cs.ring.records().any(|r| r.kind.is_req(id)))
    }

    /// Forces a flight dump of `chip`'s ring plus the routing context,
    /// as if an alert had frozen it. `topsexec fleet --flight-out`
    /// uses this when a run ends without any incident, so the flag
    /// always produces a loadable trace.
    ///
    /// # Panics
    /// Panics if `chip` is not one of the fleet's chips.
    pub fn snapshot_chip(&mut self, chip: usize, reason: &str) {
        let at_ns = self.max_seen_ns;
        self.dump_chip(reason, at_ns, chip, None);
    }

    /// Whether the monitor marked `chip` dead.
    pub fn chip_dead(&self, chip: usize) -> bool {
        self.chips.get(chip).is_some_and(|c| c.dead)
    }

    /// The deterministic SLO compliance report (`topsexec fleet
    /// --slo`): per-tenant objective, totals, budget consumption, and
    /// firing state, plus the top offending (chip, tenant) pairs.
    pub fn compliance_json(&self) -> String {
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, ts)| {
                let burn_alerts = self
                    .alerts
                    .iter()
                    .filter(|a| a.tenant == Some(t) && a.event.kind == AlertKind::BurnRate)
                    .count();
                let slo = ts.slo();
                JsonObject::new()
                    .string("tenant", &ts.name)
                    .string("slo", &slo.spec.name)
                    .int("completed", slo.completed() as i64)
                    .int("violated", slo.violated() as i64)
                    .raw("budget_consumed", &number(slo.budget_consumed()))
                    .raw(
                        "compliant",
                        if slo.budget_consumed() <= 1.0 {
                            "true"
                        } else {
                            "false"
                        },
                    )
                    .raw("firing", if slo.firing() { "true" } else { "false" })
                    .int("burn_alerts", burn_alerts as i64)
                    .build()
            })
            .collect();
        let offenders: Vec<String> = self
            .top_offenders(5)
            .iter()
            .map(|o| {
                JsonObject::new()
                    .int("chip", o.chip as i64)
                    .string("tenant", &o.tenant)
                    .raw("bad", &number(o.bad))
                    .raw("share", &number(o.share))
                    .build()
            })
            .collect();
        let dead: Vec<String> = self
            .chips
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dead)
            .map(|(i, _)| i.to_string())
            .collect();
        JsonObject::new()
            .int("chips", self.chips.len() as i64)
            .raw("chips_dead", &array(&dead))
            .int("alerts", self.alerts.len() as i64)
            .int("dumps", self.dumps.len() as i64)
            .raw("tenants", &array(&tenants))
            .raw("top_offenders", &array(&offenders))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{trace_chip, RouteCell};
    use dtu_faults::FaultRng;
    use dtu_serve::{ServeEvent, ServeEventKind};

    /// The drained log of chip `chip`'s run in `epoch` (from `start_ms`,
    /// arrivals for `len_ms`) of one tenant whose requests each complete
    /// alone: `(done_ms, req, latency_ms, late)`, in time order.
    fn completions(
        (epoch, chip): (usize, usize),
        start_ms: f64,
        len_ms: f64,
        done: &[(f64, u64, f64, bool)],
    ) -> ChipEpochLog {
        let (mut trace, mut requests) = (ServingTrace::default(), Vec::new());
        for &(done_ms, req, latency_ms, late) in done {
            requests.push(RequestOutcome {
                req,
                tenant: 0,
                arrival_ms: done_ms - latency_ms,
                done_ms,
                deadline_ms: if late { done_ms - 0.5 } else { f64::INFINITY },
                violated: late,
            });
            trace.events.push(ServeEvent {
                t_ns: ms_to_ns(done_ms),
                tenant: 0,
                kind: ServeEventKind::Complete { batch: 1, depth: 0 },
            });
        }
        ChipEpochLog::read(&trace, requests, true, (epoch, chip, start_ms, len_ms))
    }

    /// A random log of `steps` events of two tenants, in time order,
    /// with every kind of event the engine writes; each `Complete`
    /// brings its batch of requests.
    fn random_log(g: &mut FaultRng, steps: usize) -> (ServingTrace, Vec<RequestOutcome>) {
        let (mut trace, mut requests) = (ServingTrace::default(), Vec::new());
        let (mut t_ms, mut req) = (0.0, 0u64);
        for _ in 0..steps {
            t_ms += g.next_index(3) as f64 * 0.7;
            let tenant = g.next_index(2);
            let kind = match g.next_index(9) {
                0 => ServeEventKind::Arrival { req, depth: 1 },
                1 => ServeEventKind::Shed { req, depth: 9 },
                2 => ServeEventKind::Dispatch {
                    batch: 2,
                    compiled_batch: 2,
                    groups: 1,
                    service_ms: 1.5,
                },
                3 | 4 => {
                    let batch = g.next_index(5);
                    for _ in 0..batch {
                        let latency_ms = 0.5 + g.next_index(4) as f64;
                        requests.push(RequestOutcome {
                            req,
                            tenant,
                            arrival_ms: t_ms - latency_ms,
                            done_ms: t_ms,
                            deadline_ms: t_ms - 1.0,
                            violated: latency_ms > 2.0,
                        });
                        req += 1;
                    }
                    ServeEventKind::Complete { batch, depth: 0 }
                }
                5 => ServeEventKind::FaultDrop { dropped: 2 },
                6 => ServeEventKind::Fault {
                    label: "ecc",
                    attempt: 1,
                },
                7 => ServeEventKind::GroupLost {
                    cluster: 0,
                    group: 1,
                    remaining: 1,
                },
                _ => ServeEventKind::Scale { from: 1, to: 2 },
            };
            req += 1;
            trace.events.push(ServeEvent {
                t_ns: ms_to_ns(t_ms),
                tenant,
                kind,
            });
        }
        (trace, requests)
    }

    /// Random chip-epoch logs — empty ones, small ones and ones longer
    /// than the ring — read as a job reads them and pushed one by one
    /// into a chip's ring: after each, the ring shows exactly the last
    /// `CHIP_RING_CAPACITY` records of the logs joined end to end (as
    /// `ServeRecord::read_log` reads them), keeps no log it does not
    /// need and holds fewer than twice `CHIP_RING_CAPACITY` records.
    #[test]
    fn the_ring_shows_the_last_records_of_its_logs() {
        let (mut empty, mut larger) = (0, 0);
        for case in 0..40u64 {
            let mut g = FaultRng::new(case);
            let mut ring = ChipRing::default();
            let mut joined: Vec<ServeRecord> = Vec::new();
            for epoch in 0..1 + g.next_index(10) {
                let steps = [0, 3, 40, 700, 6_000][g.next_index(5)];
                let (trace, requests) = random_log(&mut g, steps);
                let start_ms = epoch as f64 * 500.0;
                let (base, held_before) = (trace_base(epoch, 3), joined.len());
                joined.extend(ServeRecord::read_log(
                    &trace,
                    &requests,
                    base,
                    start_ms * 1e6,
                ));
                let records = joined.len() - held_before;
                empty += usize::from(records == 0);
                larger += usize::from(records > CHIP_RING_CAPACITY);
                let at = (epoch, 3, start_ms, 500.0);
                ring.push(ChipEpochLog::read(&trace, requests, true, at).log);
                let shown: Vec<ServeRecord> = ring.records().collect();
                let want = &joined[joined.len().saturating_sub(CHIP_RING_CAPACITY)..];
                assert_eq!(shown, want, "case {case}, epoch {epoch}");
                let held: usize = ring.logs.iter().map(LogChunk::len).sum();
                assert_eq!(ring.len, held);
                let oldest = ring.logs.front().map_or(0, LogChunk::len);
                assert!(ring.logs.len() <= 1 || held - oldest < CHIP_RING_CAPACITY);
                assert!(oldest <= CHIP_RING_CAPACITY && held < 2 * CHIP_RING_CAPACITY);
            }
        }
        assert!(
            empty >= 10 && larger >= 10,
            "{empty} empty, {larger} larger"
        );
    }

    fn routes_for(cells: &[(usize, usize, f64)]) -> EpochRoutes {
        EpochRoutes {
            assignments: cells
                .iter()
                .map(|&(tenant, chip, qps)| RouteCell { tenant, chip, qps })
                .collect(),
            cells: cells.len() as u64,
        }
    }

    #[test]
    fn routes_and_shifted_chip_records_render_their_spans() {
        let mut fm = FleetMonitor::new(2, &[("resnet50", 50.0)]);
        fm.on_route(0, 0.0, &routes_for(&[(0, 1, 2000.0)]));
        fm.on_route(3, 1500.0, &routes_for(&[(0, 1, 419.6)]));
        let log = completions((3, 1), 1500.0, 500.0, &[(300.0, 4, 6.0, true)]);
        fm.absorb_chip_epoch(1, &[(0, 419.6)], 500.0, &[], Some(log), false);
        fm.snapshot_chip(1, "end-of-run snapshot");
        let id = trace_base(3, 1) + 4;
        assert_eq!(
            fm.dumps()[0].spans,
            [
                Span::marker(Layer::Serving, 0, "route e0 resnet50->chip1 2000qps", 0.0),
                Span::marker(Layer::Serving, 0, "route e3 resnet50->chip1 420qps", 1.5e9),
                Span::new(
                    dtu_telemetry::SpanKind::Request,
                    Layer::Serving,
                    0,
                    format!("req {id} (late)"),
                    1.5e9 + (0.3e9 - 6e6),
                    1.8e9,
                ),
            ]
        );
        assert_eq!(fm.resolving_exemplar(1), Some(id));
        // The chip-epoch's clock closed at its first boundary, 1 s into
        // the epoch.
        assert_eq!(fm.dumps()[0].at_ns, 2.5e9);
    }

    #[test]
    fn merged_exemplar_resolves_to_the_owning_chip() {
        // Two chips serve the same tenant in epoch 0; chip 1 has the
        // slowest request. The tenant-level exemplar must be a real
        // span id whose encoding names chip 1, and whose span lives in
        // chip 1's ring.
        let mut fm = FleetMonitor::new(2, &[("m", 50.0)]);
        let log0 = completions((0, 0), 0.0, 1000.0, &[(300.0, 4, 6.0, false)]);
        let log1 = completions((0, 1), 0.0, 1000.0, &[(400.0, 9, 30.0, false)]);
        fm.absorb_chip_epoch(0, &[(0, 50.0)], 1000.0, &[], Some(log0), false);
        fm.absorb_chip_epoch(1, &[(0, 50.0)], 1000.0, &[], Some(log1), false);
        let e = fm.tenants[0]
            .latency
            .hist
            .exemplar_over(1e9, 2e9)
            .expect("folded exemplar survives");
        assert_eq!(e.span_id, trace_base(0, 1) + 9, "slowest chip wins");
        assert_eq!(trace_chip(e.span_id), Some(1), "id encodes the chip");
        let label = format!("req {}", e.span_id);
        assert!(
            fm.chips[1]
                .ring
                .records()
                .any(|r| r.to_span().label == label),
            "the exemplar's span is in the owning chip's ring"
        );
        assert_eq!(fm.resolving_exemplar(1), Some(e.span_id));
        // Chip 0's rollup only saw its own traffic.
        assert_eq!(fm.chips[0].completions.total(), 1.0);
        assert_eq!(fm.tenants[0].completions.total(), 2.0);
    }

    #[test]
    fn the_fleet_clock_is_exact_with_epochs_off_the_second() {
        // 300 ms epochs on two chips: chip-epochs start off whole
        // seconds, and each drains 20 ms past its end, so their samples
        // cross fleet seconds. Every sample must land in the fleet
        // second it completed in.
        let (epoch_ms, epochs) = (300.0, 10);
        let mut fm = FleetMonitor::new(2, &[("m", 50.0)]);
        let mut want = [0.0; 4];
        for epoch in 0..epochs {
            let start_ms = epoch as f64 * epoch_ms;
            for chip in 0..2 {
                let done: Vec<(f64, u64, f64, bool)> = (0..8u64)
                    .map(|i| (15.0 + 40.0 * i as f64 + 5.0 * chip as f64, i, 2.0, false))
                    .collect();
                for &(done_ms, ..) in &done {
                    want[((start_ms + done_ms) / 1e3) as usize] += 1.0;
                }
                let log = completions((epoch, chip), start_ms, epoch_ms, &done);
                fm.absorb_chip_epoch(chip, &[(0, 40.0)], epoch_ms, &[], Some(log), false);
            }
            fm.end_epoch(epoch, start_ms + epoch_ms);
        }
        fm.finish(epochs - 1);
        let per_second =
            |series: &TimeSeries| series.windows().map(|(_, n)| n).collect::<Vec<f64>>();
        assert_eq!(per_second(&fm.tenants[0].completions), want);
        let hist: Vec<f64> = fm.tenants[0]
            .latency
            .hist
            .windows()
            .map(|w| w.hist.count() as f64)
            .collect();
        assert_eq!(hist, want);
        // The fleet SLO judged each whole second on the same counts.
        assert_eq!(
            fm.tenants[0].slo().completed(),
            want.iter().sum::<f64>() as u64
        );
    }

    #[test]
    fn sustained_fleet_burn_alerts_and_attributes_the_hot_chip() {
        let mut fm = FleetMonitor::new(2, &[("m", 5.0)]);
        // Chip 1 violates half its deadline budget every epoch; chip 0
        // stays clean. Ten 1 s epochs of sustained burn.
        for epoch in 0..10 {
            let start = epoch as f64 * 1000.0;
            fm.on_route(epoch, start, &routes_for(&[(0, 0, 20.0), (0, 1, 20.0)]));
            let clean: Vec<_> = (0..20u64)
                .map(|j| (j as f64 * 40.0, j, 1.0, false))
                .collect();
            let hot: Vec<_> = (0..20u64)
                .map(|j| {
                    let late = j % 2 == 0;
                    (j as f64 * 40.0, j, if late { 40.0 } else { 1.0 }, late)
                })
                .collect();
            let s0 = [SliceStats {
                tenant: 0,
                offered: 20,
                violations: 0,
                fault_dropped: 0,
            }];
            let s1 = [SliceStats {
                tenant: 0,
                offered: 20,
                violations: 10,
                fault_dropped: 0,
            }];
            let log0 = completions((epoch, 0), start, 1000.0, &clean);
            let log1 = completions((epoch, 1), start, 1000.0, &hot);
            fm.absorb_chip_epoch(0, &[(0, 20.0)], 1000.0, &s0, Some(log0), false);
            fm.absorb_chip_epoch(1, &[(0, 20.0)], 1000.0, &s1, Some(log1), false);
            fm.end_epoch(epoch, start + 1000.0);
        }
        fm.finish(9);
        let fired: Vec<_> = fm
            .alerts()
            .iter()
            .filter(|a| a.event.kind == AlertKind::BurnRate)
            .collect();
        assert_eq!(fired.len(), 1, "steady breach fires exactly once");
        assert_eq!(fired[0].tenant, Some(0));
        assert_eq!(fired[0].chip, Some(1), "burn attributed to the hot chip");
        // The alert froze chip 1's ring with the routing context.
        let dump = &fm.dumps()[0];
        assert!(dump.reason.contains("chip1"));
        assert!(dump.spans.iter().any(|s| s.label.starts_with("route e")));
        // The alert's exemplar (captured at alert time) resolves in the
        // frozen dump and decodes to the hot chip; the live ring still
        // resolves the end-of-run exemplar.
        let id = fired[0].event.exemplar.expect("alert carries an exemplar");
        assert!(dump.resolves_label(&format!("req {id}")));
        assert_eq!(trace_chip(id), Some(1));
        let live_id = fm.resolving_exemplar(1).expect("live exemplar resolves");
        assert_eq!(trace_chip(live_id), Some(1));
        // Frames carry the burn and the FIRE marker.
        let last = fm.frames().last().expect("one frame per epoch");
        assert!(last.tenants[0].latency.firing);
        assert!(last.chips[1].burn > last.chips[0].burn);
        assert!(last.chips[1].fire && !last.chips[0].fire);
        // The compliance report agrees.
        let json = fm.compliance_json();
        assert!(json.contains("\"compliant\":false"));
        assert!(json.contains("\"burn_alerts\":1"));
        let top = fm.top_offenders(1);
        assert_eq!(top[0].chip, 1);
        assert!(top[0].share > 0.9, "chip 1 owns the badness");
    }

    #[test]
    fn a_page_dump_holds_an_exemplar_another_chip_served() {
        // Chip 0 carries the violations, so the page dumps its ring;
        // the slowest request of the fast window ran on chip 1.
        let mut fm = FleetMonitor::new(2, &[("m", 5.0)]);
        for epoch in 0..4 {
            let start = epoch as f64 * 1000.0;
            let late: Vec<_> = (0..20u64)
                .map(|j| (j as f64 * 40.0, j, 9.0, true))
                .collect();
            let slow = [(500.0, 0, 60.0 + epoch as f64, false)];
            let s0 = [SliceStats {
                tenant: 0,
                offered: 20,
                violations: 20,
                fault_dropped: 0,
            }];
            let log0 = completions((epoch, 0), start, 1000.0, &late);
            let log1 = completions((epoch, 1), start, 1000.0, &slow);
            fm.absorb_chip_epoch(0, &[(0, 20.0)], 1000.0, &s0, Some(log0), false);
            fm.absorb_chip_epoch(1, &[(0, 1.0)], 1000.0, &[], Some(log1), false);
            fm.end_epoch(epoch, start + 1000.0);
        }
        let page = fm
            .alerts()
            .iter()
            .find(|a| a.event.kind == AlertKind::BurnRate)
            .expect("the violations page");
        assert_eq!(page.chip, Some(0));
        let id = page.event.exemplar.expect("a page carries an exemplar");
        assert_eq!(trace_chip(id), Some(1));
        let dump = &fm.dumps()[0];
        assert!(dump.reason.contains("chip0"));
        assert_eq!(
            dump.spans[0].label,
            format!("req {id}"),
            "the exemplar comes first"
        );
    }

    #[test]
    fn epoch_start_kill_charges_the_last_served_epoch() {
        let mut fm = FleetMonitor::new(2, &[("m", 50.0)]);
        let log1 = completions((0, 1), 0.0, 1000.0, &[(200.0, 3, 2.0, false)]);
        let s1 = [SliceStats {
            tenant: 0,
            offered: 40,
            violations: 0,
            fault_dropped: 0,
        }];
        fm.absorb_chip_epoch(1, &[(0, 40.0)], 1000.0, &s1, Some(log1), false);
        fm.end_epoch(0, 1000.0);
        // Chip 1 dies on the next epoch boundary, before serving.
        fm.on_chip_kill(1, 1000.0, 1, true);
        assert!(fm.chip_dead(1));
        let top = fm.top_offenders(1);
        assert_eq!(top[0].chip, 1);
        assert_eq!(top[0].bad, 40.0, "charged its last epoch's load");
        // The kill paged: fault alert with a resolving exemplar + dump.
        let kill = fm
            .alerts()
            .iter()
            .find(|a| a.event.kind == AlertKind::Fault)
            .expect("kill pages");
        assert_eq!(kill.chip, Some(1));
        let id = kill.event.exemplar.expect("kill alert carries exemplar");
        assert_eq!(trace_chip(id), Some(1));
        assert!(fm.dumps()[0].resolves_label(&format!("req {id}")));
        assert!(fm.frames()[0].t_ms == 1000.0);
    }

    #[test]
    fn mid_epoch_kill_charges_unserved_load() {
        let mut fm = FleetMonitor::new(1, &[("m", 50.0)]);
        // 100 qps routed, but the chip died at 250 ms: 25 offered.
        let s = [SliceStats {
            tenant: 0,
            offered: 25,
            violations: 0,
            fault_dropped: 0,
        }];
        fm.absorb_chip_epoch(0, &[(0, 100.0)], 1000.0, &s, None, true);
        fm.on_chip_kill(0, 250.0, 0, false);
        let top = fm.top_offenders(1);
        assert_eq!(top[0].chip, 0);
        assert_eq!(top[0].bad, 75.0, "expected 100 - 25 offered");
        assert_eq!(fm.triggers(), 1);
    }
}
