//! Live observability for serving runs: windowed metrics, SLO burn
//! rates, and the span flight recorder, fed by engine hooks.
//!
//! A [`LiveMonitor`] rides along a serving run (see
//! [`run_serving_live`](crate::run_serving_live)) and observes every
//! shed, dispatch, completion, and fault *as it happens* on the
//! simulated clock — the operator's view the end-of-run
//! [`ServeReport`](crate::ServeReport) cannot give. It never feeds
//! anything back into the engine: a monitored run returns the exact
//! same outcome as a plain one.
//!
//! Per tenant it maintains:
//! * windowed [`TimeSeries`] rings — sheds, fault drops, completions,
//!   violations, dispatches, and batch occupancy;
//! * a latency [`Objective`]: the windowed histogram carrying the
//!   slowest request's span id as each window's exemplar, and the
//!   optional SLO judged on it at every simulated-second boundary.
//!
//! One shared [`FlightRecorder`] keeps the most recent activity as
//! [`ServeRecord`]s: a kind, a tenant, ids and two times, with no
//! label. The hooks build no string; a record becomes a labelled
//! [`Span`] only when a dump freezes the ring — the moment a burn-rate
//! alert fires or an injected fault lands — and the dump loads in
//! Perfetto.

use crate::config::TenantSpec;
use dtu_telemetry::clock::NS_PER_MS;
use dtu_telemetry::flight::DEFAULT_CAPACITY;
use dtu_telemetry::monitor::series;
use dtu_telemetry::{
    AlertEvent, AlertKind, EvalClock, FlightRecord, FlightRecorder, Layer, Objective, ObjectiveRow,
    SloSpec, SlowestRecords, Span, SpanKind, TimeSeries,
};

/// What a [`ServeRecord`] stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ServeRecordKind {
    /// A request shed by admission control (`shed {req}`).
    Shed {
        /// Request id, trace base included.
        req: u64,
    },
    /// A batch in service (`batch {size}`).
    Batch {
        /// Requests in the batch.
        size: usize,
    },
    /// A completed request (`req {req}`, plus ` (late)` past its
    /// deadline).
    Req {
        /// Request id, trace base included.
        req: u64,
        /// Whether the request missed its deadline.
        late: bool,
    },
    /// Requests dropped by faults (`fault-drop {dropped}`).
    FaultDrop {
        /// Requests dropped.
        dropped: usize,
    },
    /// A transient fault on the tenant's batch (`fault {label}`).
    Fault {
        /// The fault's label.
        label: &'static str,
    },
    /// A core failure took one of the tenant's groups (`group
    /// {cluster}.{group} lost`).
    GroupLost {
        /// Cluster of the dead group.
        cluster: usize,
        /// Dead group within the cluster.
        group: usize,
    },
}

/// One entry of a [`LiveMonitor`]'s flight ring: a kind, the tenant
/// (the span's track) and its interval on the shared clock. Markers
/// and faults are instants (`start_ns == end_ns`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeRecord {
    /// What happened.
    kind: ServeRecordKind,
    /// Tenant index.
    tenant: u32,
    /// Start, shared clock ns.
    start_ns: f64,
    /// End, shared clock ns.
    end_ns: f64,
}

impl ServeRecord {
    /// The same record `offset_ns` later (the fleet moves chip-epoch
    /// records onto the fleet clock).
    pub fn shifted(mut self, offset_ns: f64) -> Self {
        self.start_ns += offset_ns;
        self.end_ns += offset_ns;
        self
    }

    /// The request id, when the record is a completed request.
    pub fn completed_req(&self) -> Option<u64> {
        match self.kind {
            ServeRecordKind::Req { req, .. } => Some(req),
            _ => None,
        }
    }
}

impl FlightRecord for ServeRecord {
    fn to_span(&self) -> Span {
        let (kind, label) = match self.kind {
            ServeRecordKind::Shed { req } => (SpanKind::Marker, format!("shed {req}")),
            ServeRecordKind::Batch { size } => (SpanKind::Batch, format!("batch {size}")),
            ServeRecordKind::Req { req, late } => (
                SpanKind::Request,
                format!("req {req}{}", if late { " (late)" } else { "" }),
            ),
            ServeRecordKind::FaultDrop { dropped } => {
                (SpanKind::Marker, format!("fault-drop {dropped}"))
            }
            ServeRecordKind::Fault { label } => (SpanKind::Fault, format!("fault {label}")),
            ServeRecordKind::GroupLost { cluster, group } => {
                (SpanKind::Fault, format!("group {cluster}.{group} lost"))
            }
        };
        Span::new(
            kind,
            Layer::Serving,
            self.tenant,
            label,
            self.start_ns,
            self.end_ns,
        )
    }
}

/// How a [`LiveMonitor`] is shaped.
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// SLO applied to every tenant (`None` = metrics only, no alerts).
    pub slo: Option<SloSpec>,
    /// Offset added to every request id in span labels and exemplars
    /// (default 0 = local ids). The fleet layer sets a per-(epoch,
    /// chip) base here so request ids are unique fleet-wide and a
    /// merged exemplar still names the chip and epoch that served it.
    pub trace_base: u64,
}

/// One tenant's live state.
#[derive(Debug, Clone)]
pub struct TenantLive {
    /// Tenant name (from its spec).
    pub name: String,
    /// Admission sheds per window.
    pub sheds: TimeSeries,
    /// Fault-dropped requests per window.
    pub fault_drops: TimeSeries,
    /// Completed requests per window.
    pub completions: TimeSeries,
    /// Deadline violations per window (as judged by the engine's
    /// per-tenant SLA policy — the fleet rollup's numerator).
    pub violations: TimeSeries,
    /// Dispatched batches per window.
    pub dispatches: TimeSeries,
    /// Sum of dispatched batch sizes per window (with `dispatches`,
    /// gives mean batch occupancy).
    pub batch_occupancy: TimeSeries,
    /// End-to-end latency, with exemplars, and the SLO judged on it.
    pub latency: Objective,
    /// Each recent window's slowest completion — the latency
    /// exemplars, as records — for a page's dump.
    slowest: SlowestRecords<ServeRecord>,
}

impl TenantLive {
    fn new(name: &str, slo: Option<SloSpec>) -> Self {
        TenantLive {
            name: name.to_string(),
            sheds: series(),
            fault_drops: series(),
            completions: series(),
            violations: series(),
            dispatches: series(),
            batch_occupancy: series(),
            latency: Objective::new(slo),
            slowest: SlowestRecords::default(),
        }
    }

    /// One dashboard row over the trailing `span_ns` at `now_ns`.
    pub fn row(&self, now_ns: f64, span_ns: f64) -> TenantRow {
        let dispatches = self.dispatches.sum_over(now_ns, span_ns);
        TenantRow {
            name: self.name.clone(),
            qps: self.completions.rate_per_sec(now_ns, span_ns),
            shed_rate: self.sheds.rate_per_sec(now_ns, span_ns),
            drop_rate: self.fault_drops.rate_per_sec(now_ns, span_ns),
            mean_batch: if dispatches > 0.0 {
                self.batch_occupancy.sum_over(now_ns, span_ns) / dispatches
            } else {
                0.0
            },
            latency: self.latency.row(now_ns, span_ns),
        }
    }
}

/// One rendered dashboard row (what `topsexec top` prints per tenant).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRow {
    /// Tenant name.
    pub name: String,
    /// Completions per simulated second over the window.
    pub qps: f64,
    /// Sheds per simulated second over the window.
    pub shed_rate: f64,
    /// Fault drops per simulated second over the window.
    pub drop_rate: f64,
    /// Mean dispatched batch size over the window.
    pub mean_batch: f64,
    /// The latency objective's columns.
    pub latency: ObjectiveRow,
}

/// The live observability sidecar of one serving run.
#[derive(Debug, Clone)]
pub struct LiveMonitor {
    cfg: LiveConfig,
    tenants: Vec<TenantLive>,
    /// The shared black box.
    pub flight: FlightRecorder<ServeRecord>,
    /// Every alert emitted, in simulated-time order, tagged with the
    /// tenant index it belongs to.
    pub alerts: Vec<(usize, AlertEvent)>,
    clock: EvalClock,
    now_ns: f64,
}

impl LiveMonitor {
    /// Creates a monitor; tenants attach via [`LiveMonitor::begin`].
    pub fn new(cfg: LiveConfig) -> Self {
        LiveMonitor {
            cfg,
            tenants: Vec::new(),
            flight: FlightRecorder::new(DEFAULT_CAPACITY),
            alerts: Vec::new(),
            clock: EvalClock::default(),
            now_ns: 0.0,
        }
    }

    /// A monitor with no SLO.
    pub fn with_defaults() -> Self {
        LiveMonitor::new(LiveConfig::default())
    }

    /// Resets the monitor to a fresh one's state — flight ring, dumps
    /// and trigger count included — with one entry per tenant. Called
    /// by [`run_serving_live`](crate::run_serving_live).
    pub fn begin(&mut self, tenants: &[TenantSpec]) {
        *self = LiveMonitor::new(self.cfg.clone());
        self.tenants = tenants
            .iter()
            .map(|t| TenantLive::new(&t.name, self.cfg.slo.clone()))
            .collect();
    }

    /// Per-tenant live state.
    pub fn tenants(&self) -> &[TenantLive] {
        &self.tenants
    }

    /// Latest simulated time the monitor has seen, ns.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Burn-rate alerts only (excludes fault markers and resolutions).
    pub fn burn_alerts(&self) -> impl Iterator<Item = &(usize, AlertEvent)> + '_ {
        self.alerts
            .iter()
            .filter(|(_, a)| a.kind == AlertKind::BurnRate)
    }

    /// Advances simulated time to `t_ns`, judging every tenant's SLO
    /// at each evaluation boundary crossed, in order. Transitions land
    /// in [`LiveMonitor::alerts`]; a burn-rate page dumps the flight
    /// recorder, and the dump holds the page's exemplar request even
    /// when it completed before the ring's oldest record.
    pub fn advance(&mut self, t_ns: f64) {
        self.now_ns = self.now_ns.max(t_ns);
        while let Some(at) = self.clock.tick(t_ns) {
            for (idx, ten) in self.tenants.iter_mut().enumerate() {
                if let Some(alert) = ten.latency.evaluate(at) {
                    if alert.kind == AlertKind::BurnRate {
                        let exemplar = alert
                            .exemplar
                            .and_then(|id| ten.slowest.find(|r| r.completed_req() == Some(id)));
                        self.flight.trigger_page(
                            format_args!("alert {} ({})", alert.slo, ten.name),
                            at,
                            exemplar,
                        );
                    }
                    self.alerts.push((idx, alert));
                }
            }
        }
    }

    /// Finishes the run at `end_ns`: runs the remaining boundaries plus
    /// at least one more, so trailing windows are judged.
    pub fn finish(&mut self, end_ns: f64) {
        self.advance(self.clock.closing(end_ns));
    }

    // ---- engine hooks (pure observation) ------------------------------

    /// Appends a record of `kind` for `tenant` over `[start_ns, end_ns]`.
    fn record(&mut self, kind: ServeRecordKind, tenant: usize, start_ns: f64, end_ns: f64) {
        self.flight.record(ServeRecord {
            kind,
            tenant: tenant as u32,
            start_ns,
            end_ns,
        });
    }

    /// A request was shed by admission control.
    pub fn on_shed(&mut self, t_ns: f64, tenant: usize, req: u64) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.sheds.add(t_ns, 1.0);
        }
        let req = self.cfg.trace_base + req;
        self.record(ServeRecordKind::Shed { req }, tenant, t_ns, t_ns);
    }

    /// A batch started service.
    pub fn on_dispatch(&mut self, t_ns: f64, tenant: usize, batch: usize, service_ms: f64) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.dispatches.add(t_ns, 1.0);
            t.batch_occupancy.add(t_ns, batch as f64);
        }
        let end_ns = t_ns + service_ms * NS_PER_MS;
        self.record(ServeRecordKind::Batch { size: batch }, tenant, t_ns, end_ns);
    }

    /// A request completed; `req` is its id (the exemplar span id).
    pub fn on_complete_request(
        &mut self,
        t_ns: f64,
        tenant: usize,
        req: u64,
        latency_ms: f64,
        violated: bool,
    ) {
        let id = self.cfg.trace_base + req;
        let record = ServeRecord {
            kind: ServeRecordKind::Req {
                req: id,
                late: violated,
            },
            tenant: tenant as u32,
            start_ns: t_ns - latency_ms * NS_PER_MS,
            end_ns: t_ns,
        };
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.completions.add(t_ns, 1.0);
            if violated {
                t.violations.add(t_ns, 1.0);
            }
            t.latency.observe(t_ns, latency_ms, id);
            t.slowest.note(t_ns, latency_ms, record);
        }
        self.flight.record(record);
    }

    /// A transient injected fault hit the tenant's in-flight batch:
    /// raises a fault alert and dumps the flight recorder.
    pub fn on_fault(&mut self, t_ns: f64, tenant: usize, label: &'static str) {
        self.record(ServeRecordKind::Fault { label }, tenant, t_ns, t_ns);
        self.flight.trigger(format_args!("fault {label}"), t_ns);
        self.alerts
            .push((tenant, AlertEvent::fault(t_ns, label, None)));
    }

    /// Requests were fault-dropped.
    pub fn on_fault_drop(&mut self, t_ns: f64, tenant: usize, dropped: usize) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.fault_drops.add(t_ns, dropped as f64);
        }
        self.record(ServeRecordKind::FaultDrop { dropped }, tenant, t_ns, t_ns);
    }

    /// A core failure removed one of the tenant's groups: a permanent
    /// fault, so it too raises a fault alert and dumps the recorder.
    pub fn on_group_lost(&mut self, t_ns: f64, tenant: usize, cluster: usize, group: usize) {
        let kind = ServeRecordKind::GroupLost { cluster, group };
        self.record(kind, tenant, t_ns, t_ns);
        self.flight
            .trigger(format_args!("core-failure {cluster}.{group}"), t_ns);
        self.alerts
            .push((tenant, AlertEvent::fault(t_ns, "core-failure", None)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor_with_slo() -> LiveMonitor {
        let cfg = LiveConfig {
            slo: Some(SloSpec::new("p99<5ms", 0.99, 5.0)),
            ..LiveConfig::default()
        };
        let mut m = LiveMonitor::new(cfg);
        m.begin(&[TenantSpec::poisson("t0", 0, 100.0)]);
        m
    }

    #[test]
    fn each_record_renders_its_span() {
        let mut m = LiveMonitor::with_defaults();
        m.begin(&[
            TenantSpec::poisson("a", 0, 1.0),
            TenantSpec::poisson("b", 0, 1.0),
        ]);
        m.on_shed(1e6, 1, 7);
        m.on_dispatch(2e6, 1, 4, 1.5);
        m.on_complete_request(5e6, 1, 9, 2.0, true);
        m.on_complete_request(6e6, 0, 10, 1.0, false);
        m.on_fault_drop(7e6, 1, 3);
        m.on_fault(8e6, 1, "dma-timeout");
        m.on_group_lost(9e6, 1, 1, 2);
        let spans: Vec<Span> = m.flight.spans().collect();
        let serving = |kind, track, label: &str, start, end| {
            Span::new(kind, Layer::Serving, track, label, start, end)
        };
        assert_eq!(
            spans,
            [
                serving(SpanKind::Marker, 1, "shed 7", 1e6, 1e6),
                serving(SpanKind::Batch, 1, "batch 4", 2e6, 3.5e6),
                serving(SpanKind::Request, 1, "req 9 (late)", 3e6, 5e6),
                serving(SpanKind::Request, 0, "req 10", 5e6, 6e6),
                serving(SpanKind::Marker, 1, "fault-drop 3", 7e6, 7e6),
                serving(SpanKind::Fault, 1, "fault dma-timeout", 8e6, 8e6),
                serving(SpanKind::Fault, 1, "group 1.2 lost", 9e6, 9e6),
            ]
        );
        let reasons: Vec<&str> = m.flight.dumps().iter().map(|d| d.reason.as_str()).collect();
        assert_eq!(reasons, ["fault dma-timeout", "core-failure 1.2"]);
        assert_eq!(
            m.flight.dumps()[1].spans,
            spans,
            "the dump renders the ring"
        );
        let alerts: Vec<&str> = m.alerts.iter().map(|(_, a)| a.slo.as_str()).collect();
        assert_eq!(alerts, ["dma-timeout", "core-failure"]);
    }

    #[test]
    fn rows_reflect_traffic() {
        let mut m = LiveMonitor::with_defaults();
        m.begin(&[TenantSpec::poisson("a", 0, 1.0)]);
        for i in 0..100 {
            let t = i as f64 * 1e7; // 100 events over 1 s
            m.on_complete_request(t + 1e6, 0, i, 1.0, false);
        }
        m.on_dispatch(5e8, 0, 4, 1.0);
        m.advance(1e9);
        let row = m.tenants()[0].row(1e9, 2e9);
        assert_eq!(row.name, "a");
        assert!(row.qps > 0.0);
        assert!((row.latency.p50_ms - 1.0).abs() / 1.0 <= 0.02);
        assert_eq!(row.mean_batch, 4.0);
        assert_eq!(row.latency.exemplar, Some(0), "first (slowest tie) request");
        assert!(!row.latency.firing);
    }

    #[test]
    fn sustained_violations_alert_and_dump() {
        let mut m = monitor_with_slo();
        for i in 0..20 {
            let now = i as f64 * 1e9;
            for j in 0..20 {
                let t = now + j as f64 * 4e7;
                // Half the requests violate the 5 ms deadline.
                let lat = if j % 2 == 0 { 40.0 } else { 1.0 };
                m.on_complete_request(t, 0, (i * 20 + j) as u64, lat, lat > 5.0);
            }
            m.advance(now + 0.999e9);
        }
        m.finish(20e9);
        let fired: Vec<_> = m.burn_alerts().collect();
        assert_eq!(fired.len(), 1, "steady breach fires exactly once");
        let (tenant, alert) = fired[0];
        assert_eq!(*tenant, 0);
        // The exemplar resolves in the dump the alert triggered.
        let id = alert.exemplar.expect("alert carries an exemplar");
        let dump = m.flight.latest().expect("alert dumped the flight ring");
        assert!(dump.reason.starts_with("alert"));
        assert!(
            dump.resolves_label(&format!("req {id}")),
            "exemplar span must be in the dump"
        );
    }

    #[test]
    fn faults_dump_without_slo() {
        let mut m = LiveMonitor::with_defaults();
        m.begin(&[TenantSpec::poisson("t0", 0, 10.0)]);
        m.on_complete_request(1e9, 0, 1, 2.0, false);
        m.on_fault(2e9, 0, "dma-timeout");
        m.on_fault_drop(2.1e9, 0, 3);
        assert_eq!(m.flight.dumps().len(), 1);
        assert_eq!(m.alerts.len(), 1);
        assert_eq!(m.alerts[0].1.kind, AlertKind::Fault);
        assert!(m.flight.dumps()[0].resolves_label("req 1"));
        let row = m.tenants()[0].row(2.5e9, 5e9);
        assert!(row.drop_rate > 0.0);
    }

    #[test]
    fn trace_base_offsets_span_labels_and_exemplars() {
        let base = 0x1_0000u64;
        let cfg = LiveConfig {
            trace_base: base,
            ..LiveConfig::default()
        };
        let mut m = LiveMonitor::new(cfg);
        m.begin(&[TenantSpec::poisson("t0", 0, 10.0)]);
        m.on_complete_request(1e9, 0, 7, 3.0, false);
        m.on_shed(1.1e9, 0, 8);
        let row = m.tenants()[0].row(1.5e9, 2e9);
        assert_eq!(
            row.latency.exemplar,
            Some(base + 7),
            "exemplar carries the base"
        );
        let labels: Vec<String> = m.flight.spans().map(|s| s.label).collect();
        assert!(labels.contains(&format!("req {}", base + 7)));
        assert!(labels.contains(&format!("shed {}", base + 8)));
    }

    #[test]
    fn violations_series_counts_late_completions() {
        let mut m = LiveMonitor::with_defaults();
        m.begin(&[TenantSpec::poisson("t0", 0, 10.0)]);
        m.on_complete_request(0.2e9, 0, 1, 60.0, true);
        m.on_complete_request(0.4e9, 0, 2, 1.0, false);
        m.on_complete_request(1.4e9, 0, 3, 70.0, true);
        let t = &m.tenants()[0];
        assert_eq!(t.violations.total(), 2.0);
        assert_eq!(t.violations.sum_over(0.9e9, 1e9), 1.0);
        assert_eq!(t.completions.total(), 3.0);
    }

    #[test]
    fn clean_run_stays_quiet() {
        let mut m = monitor_with_slo();
        for i in 0..60 {
            let now = i as f64 * 1e9;
            for j in 0..10 {
                m.on_complete_request(now + j as f64 * 1e8, 0, (i * 10 + j) as u64, 1.0, false);
            }
            m.advance(now + 0.999e9);
            assert!(m.alerts.is_empty());
        }
        m.finish(60e9);
        assert!(m.alerts.is_empty());
        assert_eq!(m.flight.dumps().len(), 0);
        assert!(!m.flight.is_empty(), "ring records even when healthy");
    }
}
