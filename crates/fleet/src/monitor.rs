//! Fleet-wide observability: the [`FleetMonitor`] aggregator.
//!
//! A monitored fleet reads each chip-epoch's serving log — its
//! [`ServingTrace`](dtu_serve::ServingTrace) and request outcomes — in
//! the chip-epoch's own job, as [`ServeRecord`]s on the fleet clock:
//! each sample at its own fleet time (epoch start plus its time in the
//! chip-epoch), each request id with a fleet-unique trace base
//! ([`trace_base`](crate::trace_base)) whose bits name the (epoch,
//! chip) that served it. At every routing-epoch barrier the
//! `FleetMonitor` folds those records, in chip order, into per-tenant
//! and per-chip rollups. Fleet-scope SLO burn-rate trackers run over
//! the folded windows (via [`SloTracker::fold_window`]), and badness is
//! attributed to (chip, tenant) pairs: deadline violations, fault
//! drops, and — when a chip dies — the load it was carrying but could
//! no longer serve.
//!
//! The monitor is strictly observational. The engine's
//! [`FleetReport`](crate::FleetReport) is built from the plain
//! simulation results alone, so a monitored run's JSON stays
//! byte-identical to an unmonitored one (asserted by the engine
//! tests).
//!
//! Both of its rings hold typed records, not spans: each chip's ring
//! takes the [`ServeRecord`]s read off its logs, and the route ring one
//! small record per routing decision. On a burn-rate transition or a
//! [`ChipKill`](crate::ChipKill) the monitor renders the offending
//! chip's ring together with the retained routing decisions into one
//! [`FlightDump`], loadable in Perfetto like any other dump — the
//! cross-chip "black box" of what the fleet was doing leading up to the
//! incident. A page's dump also holds the page's exemplar request,
//! whichever chip served it. Only then are labels built.

use crate::route::{trace_base, EpochRoutes};
use dtu_serve::{RequestOutcome, ServeRecord, ServeRecordKind, ServingTrace};
use dtu_telemetry::clock::{ms_to_ns, NS_PER_MS};
use dtu_telemetry::flight::MAX_DUMPS;
use dtu_telemetry::json::{array, number, JsonObject};
use dtu_telemetry::monitor::{series, RING_WINDOWS};
use dtu_telemetry::slo::{BURN_THRESHOLD, EVAL_WINDOW_NS, FAST_WINDOW_NS};
use dtu_telemetry::{
    AlertEvent, AlertKind, EvalClock, FlightDump, FlightRecord, FlightRecorder, Layer, Objective,
    ObjectiveRow, SloSpec, SloTracker, SlowestRecords, Span, TimeSeries, WindowedHistogram,
};
use std::collections::VecDeque;
use std::fmt;

/// Records retained per chip in the fleet-time rings.
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
    /// The chip's records on the fleet clock (folded every epoch).
    ring: FlightRecorder<ServeRecord>,
    dead: bool,
}

impl ChipScope {
    fn new() -> Self {
        ChipScope {
            completions: series(),
            violations: series(),
            sheds: series(),
            latency: WindowedHistogram::new(EVAL_WINDOW_NS, RING_WINDOWS),
            ring: FlightRecorder::new(CHIP_RING_CAPACITY),
            dead: false,
        }
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

/// A chip-epoch's serving log as the fleet monitor folds it: its
/// records on the fleet clock, with ids based for the chip-epoch, and
/// where the chip-epoch's clock ends.
#[derive(Debug, Clone)]
pub(crate) struct ChipEpochLog {
    records: Vec<ServeRecord>,
    end_ns: f64,
}

impl ChipEpochLog {
    /// Reads the log (`trace` and `requests`) of chip `chip`'s run in
    /// `epoch`, which started at `start_ms` and offered arrivals for
    /// `len_ms`. The clock ends as a monitored single-shot run's does: a
    /// `finished` run at its closing boundary, an aborted one at its
    /// last event.
    pub(crate) fn read(
        trace: &ServingTrace,
        requests: &[RequestOutcome],
        finished: bool,
        (epoch, chip, start_ms, len_ms): (usize, usize, f64, f64),
    ) -> Self {
        let offset_ns = start_ms * NS_PER_MS;
        let last_ns = trace.events.last().map_or(0.0, |e| e.t_ns);
        let mut clock = EvalClock::default();
        while clock.tick(last_ns).is_some() {}
        let end_ns = if finished {
            clock.closing(ms_to_ns(len_ms).max(last_ns))
        } else {
            last_ns
        };
        ChipEpochLog {
            records: ServeRecord::read_log(trace, requests, trace_base(epoch, chip), offset_ns)
                .collect(),
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

    /// Absorbs one chip's epoch at the barrier: folds its log, when the
    /// run kept one — each sample at its own fleet time — and updates
    /// (chip, tenant) attribution from the engine's authoritative slice
    /// accounting.
    pub(crate) fn absorb_chip_epoch(
        &mut self,
        chip: usize,
        assignment: &[(usize, f64)],
        epoch_len_ms: f64,
        slices: &[SliceStats],
        log: Option<&ChipEpochLog>,
        killed: bool,
    ) {
        if let Some(log) = log {
            let cs = &mut self.chips[chip];
            for &record in &log.records {
                let t_ns = record.at_ns();
                let ts = &mut self.tenants[assignment[record.tenant as usize].0];
                match record.kind {
                    ServeRecordKind::Shed { .. } => {
                        ts.sheds.add(t_ns, 1.0);
                        cs.sheds.add(t_ns, 1.0);
                    }
                    ServeRecordKind::Req {
                        req,
                        latency_ms,
                        late,
                    } => {
                        ts.completions.add(t_ns, 1.0);
                        cs.completions.add(t_ns, 1.0);
                        if late {
                            ts.violations.add(t_ns, 1.0);
                            cs.violations.add(t_ns, 1.0);
                        }
                        ts.latency.hist.record(t_ns, latency_ms, Some(req));
                        cs.latency.record(t_ns, latency_ms, Some(req));
                        ts.slowest.note(t_ns, latency_ms, record);
                    }
                    ServeRecordKind::FaultDrop { dropped } => {
                        ts.fault_drops.add(t_ns, dropped as f64);
                    }
                    _ => {}
                }
                cs.ring.record(record);
            }
            self.max_seen_ns = self.max_seen_ns.max(log.end_ns);
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
        spans.extend(ring.spans());
        spans.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
        if let Some(e) = exemplar.filter(|e| !ring.records().any(|r| r == e)) {
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
        ChipEpochLog::read(&trace, &requests, true, (epoch, chip, start_ms, len_ms))
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
        fm.absorb_chip_epoch(1, &[(0, 419.6)], 500.0, &[], Some(&log), false);
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
        fm.absorb_chip_epoch(0, &[(0, 50.0)], 1000.0, &[], Some(&log0), false);
        fm.absorb_chip_epoch(1, &[(0, 50.0)], 1000.0, &[], Some(&log1), false);
        let e = fm.tenants[0]
            .latency
            .hist
            .exemplar_over(1e9, 2e9)
            .expect("folded exemplar survives");
        assert_eq!(e.span_id, trace_base(0, 1) + 9, "slowest chip wins");
        assert_eq!(trace_chip(e.span_id), Some(1), "id encodes the chip");
        let label = format!("req {}", e.span_id);
        assert!(
            fm.chips[1].ring.spans().any(|s| s.label == label),
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
                fm.absorb_chip_epoch(chip, &[(0, 40.0)], epoch_ms, &[], Some(&log), false);
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
            fm.absorb_chip_epoch(0, &[(0, 20.0)], 1000.0, &s0, Some(&log0), false);
            fm.absorb_chip_epoch(1, &[(0, 20.0)], 1000.0, &s1, Some(&log1), false);
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
            fm.absorb_chip_epoch(0, &[(0, 20.0)], 1000.0, &s0, Some(&log0), false);
            fm.absorb_chip_epoch(1, &[(0, 1.0)], 1000.0, &[], Some(&log1), false);
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
        fm.absorb_chip_epoch(1, &[(0, 40.0)], 1000.0, &s1, Some(&log1), false);
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
