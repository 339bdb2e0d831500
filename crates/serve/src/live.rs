//! Live observability for serving runs: windowed metrics, SLO burn
//! rates, and the span flight recorder, folded from a run's log.
//!
//! A [`LiveMonitor`] folds a finished single-shot run's log (see
//! [`run_serving_live`](crate::run_serving_live)), replaying every
//! shed, dispatch, completion, and fault on the simulated clock — the
//! operator's view the end-of-run [`ServeReport`](crate::ServeReport)
//! cannot give. It never touches the engine: a monitored run returns
//! the exact same outcome as a plain one.
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
//! label. A record becomes a labelled [`Span`] only when a dump freezes
//! the ring — the moment a burn-rate alert fires or an injected fault
//! lands — and the dump loads in Perfetto. The fleet monitor folds the
//! same records ([`ServeRecord::read_log`]).

use crate::config::ServeConfig;
use crate::metrics::{RequestOutcome, ServeEventKind, ServingTrace};
use dtu_telemetry::clock::{ms_to_ns, NS_PER_MS};
use dtu_telemetry::flight::DEFAULT_CAPACITY;
use dtu_telemetry::monitor::series;
use dtu_telemetry::{
    AlertEvent, AlertKind, EvalClock, FlightRecord, FlightRecorder, Layer, Objective, ObjectiveRow,
    SloSpec, SlowestRecords, Span, SpanKind, TimeSeries,
};

/// What a [`ServeRecord`] stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeRecordKind {
    /// A request shed by admission control (`shed {req}`).
    Shed {
        /// Request id, id base included.
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
        /// Request id, id base included.
        req: u64,
        /// End-to-end latency as the engine measured it, ms.
        latency_ms: f64,
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

impl ServeRecordKind {
    /// Whether this is the completion of request `id`.
    pub fn is_req(&self, id: u64) -> bool {
        matches!(*self, ServeRecordKind::Req { req, .. } if req == id)
    }
}

/// One entry of a monitor's flight ring: a kind, the tenant (the span's
/// track) and its interval on the shared clock. Markers and faults are
/// instants (`start_ns == end_ns`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeRecord {
    /// What happened.
    pub kind: ServeRecordKind,
    /// Tenant index in the run that logged it.
    pub tenant: u32,
    /// Start, shared clock ns.
    pub start_ns: f64,
    /// End, shared clock ns.
    pub end_ns: f64,
}

impl ServeRecord {
    /// Reads a single-shot run's log as records, in the order the
    /// engine logged them: a completion's requests come before its
    /// `Complete` event, and so before anything that completion
    /// dispatched. `requests` must hold every completion (the run
    /// recorded them). Request ids get `id_base` added and every time
    /// `offset_ns`, which places a fleet chip-epoch on the fleet clock.
    pub fn read_log<'a>(
        trace: &'a ServingTrace,
        requests: &'a [RequestOutcome],
        id_base: u64,
        offset_ns: f64,
    ) -> impl Iterator<Item = ServeRecord> + 'a {
        let (mut events, mut done, mut pending) = (trace.events.iter(), requests.iter(), 0);
        let record = move |kind, tenant: usize, start_ns: f64, end_ns: f64| ServeRecord {
            kind,
            tenant: tenant as u32,
            start_ns: start_ns + offset_ns,
            end_ns: end_ns + offset_ns,
        };
        std::iter::from_fn(move || loop {
            if let Some(r) = (pending > 0).then(|| done.next()).flatten() {
                pending -= 1;
                let (t_ns, latency_ms) = (ms_to_ns(r.done_ms), r.done_ms - r.arrival_ms);
                let kind = ServeRecordKind::Req {
                    req: id_base + r.req,
                    latency_ms,
                    late: r.violated,
                };
                return Some(record(kind, r.tenant, t_ns - latency_ms * NS_PER_MS, t_ns));
            }
            let e = events.next()?;
            let mut end_ns = e.t_ns;
            let kind = match e.kind {
                ServeEventKind::Complete { batch, .. } => {
                    pending = batch;
                    continue;
                }
                ServeEventKind::Shed { req, .. } => ServeRecordKind::Shed { req: id_base + req },
                ServeEventKind::Dispatch {
                    batch, service_ms, ..
                } => {
                    end_ns += service_ms * NS_PER_MS;
                    ServeRecordKind::Batch { size: batch }
                }
                ServeEventKind::FaultDrop { dropped } => ServeRecordKind::FaultDrop { dropped },
                ServeEventKind::Fault { label, .. } => ServeRecordKind::Fault { label },
                ServeEventKind::GroupLost { cluster, group, .. } => {
                    ServeRecordKind::GroupLost { cluster, group }
                }
                _ => continue,
            };
            return Some(record(kind, e.tenant, e.t_ns, end_ns));
        })
    }

    /// When a monitor observes the record: a completed request at its
    /// end, everything else at its start.
    pub fn at_ns(&self) -> f64 {
        match self.kind {
            ServeRecordKind::Req { .. } => self.end_ns,
            _ => self.start_ns,
        }
    }
}

impl FlightRecord for ServeRecord {
    fn to_span(&self) -> Span {
        let (kind, label) = match self.kind {
            ServeRecordKind::Shed { req } => (SpanKind::Marker, format!("shed {req}")),
            ServeRecordKind::Batch { size } => (SpanKind::Batch, format!("batch {size}")),
            ServeRecordKind::Req { req, late, .. } => (
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

/// The live observability view of one serving run, folded from its
/// log.
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
    /// Creates a monitor; [`LiveMonitor::fold`] fills it.
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

    /// Folds the log of a run of `cfg` (`requests` must hold every
    /// completion) into the monitor, replacing all it held. Each record
    /// is observed after every evaluation boundary before it. A
    /// `finished` run then takes one more boundary past its last event
    /// or its horizon, so trailing windows are judged; a run a fault
    /// stopped ends at its last event.
    pub fn fold(
        &mut self,
        cfg: &ServeConfig,
        trace: &ServingTrace,
        requests: &[RequestOutcome],
        finished: bool,
    ) {
        *self = LiveMonitor::new(self.cfg.clone());
        self.tenants = cfg
            .tenants
            .iter()
            .map(|t| TenantLive::new(&t.name, self.cfg.slo.clone()))
            .collect();
        for record in ServeRecord::read_log(trace, requests, 0, 0.0) {
            self.advance(record.at_ns());
            self.observe(record);
        }
        if finished {
            let last_ns = trace.events.last().map_or(0.0, |e| e.t_ns);
            self.advance(last_ns);
            self.advance(self.clock.closing(last_ns.max(ms_to_ns(cfg.duration_ms))));
        }
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
    fn advance(&mut self, t_ns: f64) {
        self.now_ns = self.now_ns.max(t_ns);
        while let Some(at) = self.clock.tick(t_ns) {
            for (idx, ten) in self.tenants.iter_mut().enumerate() {
                if let Some(alert) = ten.latency.evaluate(at) {
                    if alert.kind == AlertKind::BurnRate {
                        let exemplar = alert
                            .exemplar
                            .and_then(|id| ten.slowest.find(|r| r.kind.is_req(id)));
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

    /// Observes one record of the log at its time: the tenant's series
    /// and objective take it, the flight ring keeps it, and a fault or
    /// a lost group raises a fault alert and dumps the ring.
    fn observe(&mut self, record: ServeRecord) {
        let t_ns = record.at_ns();
        let tenant = record.tenant as usize;
        self.flight.record(record);
        let ten = &mut self.tenants[tenant];
        match record.kind {
            ServeRecordKind::Shed { .. } => ten.sheds.add(t_ns, 1.0),
            ServeRecordKind::Batch { size } => {
                ten.dispatches.add(t_ns, 1.0);
                ten.batch_occupancy.add(t_ns, size as f64);
            }
            ServeRecordKind::Req {
                req,
                latency_ms,
                late,
            } => {
                ten.completions.add(t_ns, 1.0);
                if late {
                    ten.violations.add(t_ns, 1.0);
                }
                ten.latency.observe(t_ns, latency_ms, req);
                ten.slowest.note(t_ns, latency_ms, record);
            }
            ServeRecordKind::FaultDrop { dropped } => ten.fault_drops.add(t_ns, dropped as f64),
            ServeRecordKind::Fault { label } => {
                self.flight.trigger(format_args!("fault {label}"), t_ns);
                self.alerts
                    .push((tenant, AlertEvent::fault(t_ns, label, None)));
            }
            ServeRecordKind::GroupLost { cluster, group } => {
                self.flight
                    .trigger(format_args!("core-failure {cluster}.{group}"), t_ns);
                self.alerts
                    .push((tenant, AlertEvent::fault(t_ns, "core-failure", None)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written run log.
    #[derive(Default)]
    struct Log {
        trace: ServingTrace,
        requests: Vec<RequestOutcome>,
    }

    impl Log {
        fn event(&mut self, t_ms: f64, tenant: usize, kind: ServeEventKind) -> &mut Self {
            self.trace.events.push(crate::ServeEvent {
                t_ns: ms_to_ns(t_ms),
                tenant,
                kind,
            });
            self
        }

        /// `tenant`'s requests `reqs` completing together at `done_ms`,
        /// each `latency_ms` after it arrived.
        fn complete(
            &mut self,
            done_ms: f64,
            tenant: usize,
            reqs: &[u64],
            latency_ms: f64,
            late: bool,
        ) -> &mut Self {
            for &req in reqs {
                self.requests.push(RequestOutcome {
                    req,
                    tenant,
                    arrival_ms: done_ms - latency_ms,
                    done_ms,
                    deadline_ms: if late { done_ms - 0.5 } else { f64::INFINITY },
                    violated: late,
                });
            }
            let batch = reqs.len();
            self.event(
                done_ms,
                tenant,
                ServeEventKind::Complete { batch, depth: 0 },
            )
        }

        /// Folds the log as a run of `tenants` over `horizon_ms`.
        fn fold(&self, mon: &mut LiveMonitor, tenants: &[&str], horizon_ms: f64, finished: bool) {
            let cfg = ServeConfig {
                duration_ms: horizon_ms,
                tenants: tenants
                    .iter()
                    .map(|&name| crate::TenantSpec::poisson(name, 0, 1.0))
                    .collect(),
                ..ServeConfig::default()
            };
            mon.fold(&cfg, &self.trace, &self.requests, finished);
        }
    }

    fn monitor_with_slo() -> LiveMonitor {
        LiveMonitor::new(LiveConfig {
            slo: Some(SloSpec::new("p99<5ms", 0.99, 5.0)),
        })
    }

    #[test]
    fn each_record_renders_its_span() {
        let mut log = Log::default();
        log.event(1.0, 1, ServeEventKind::Shed { req: 7, depth: 4 })
            .complete(5.0, 1, &[9, 11], 2.0, true)
            .event(
                5.0,
                1,
                ServeEventKind::Dispatch {
                    batch: 4,
                    compiled_batch: 4,
                    groups: 1,
                    service_ms: 1.5,
                },
            )
            .complete(6.0, 0, &[10], 1.0, false)
            .event(7.0, 1, ServeEventKind::FaultDrop { dropped: 3 })
            .event(
                8.0,
                1,
                ServeEventKind::Fault {
                    label: "dma-timeout",
                    attempt: 1,
                },
            )
            .event(
                9.0,
                1,
                ServeEventKind::GroupLost {
                    cluster: 1,
                    group: 2,
                    remaining: 0,
                },
            );
        let mut m = LiveMonitor::new(LiveConfig::default());
        log.fold(&mut m, &["a", "b"], 10.0, false);
        let spans: Vec<Span> = m.flight.spans().collect();
        let serving = |kind, track, label: &str, start, end| {
            Span::new(kind, Layer::Serving, track, label, start, end)
        };
        // A completion's requests come before the batch it dispatched.
        assert_eq!(
            spans,
            [
                serving(SpanKind::Marker, 1, "shed 7", 1e6, 1e6),
                serving(SpanKind::Request, 1, "req 9 (late)", 3e6, 5e6),
                serving(SpanKind::Request, 1, "req 11 (late)", 3e6, 5e6),
                serving(SpanKind::Batch, 1, "batch 4", 5e6, 6.5e6),
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
        // An aborted run ends at its last event, with no closing
        // evaluation.
        assert_eq!(m.now_ns(), 9e6);
    }

    #[test]
    fn read_log_bases_ids_and_offsets_times() {
        let mut log = Log::default();
        log.event(1.0, 0, ServeEventKind::Shed { req: 8, depth: 1 })
            .complete(3.0, 0, &[7], 2.0, false);
        let base = 0x1_0000u64;
        let records: Vec<ServeRecord> =
            ServeRecord::read_log(&log.trace, &log.requests, base, 2e9).collect();
        let labels: Vec<String> = records.iter().map(|r| r.to_span().label).collect();
        assert_eq!(
            labels,
            [format!("shed {}", base + 8), format!("req {}", base + 7)]
        );
        assert_eq!(records[0].at_ns(), 2e9 + 1e6);
        assert_eq!(records[1].at_ns(), 2e9 + 3e6, "a completion at its end");
        assert!(records[1].kind.is_req(base + 7));
    }

    #[test]
    fn rows_reflect_traffic() {
        let mut log = Log::default();
        for i in 0..100u64 {
            let t = i as f64 * 10.0 + 1.0; // 100 completions over 1 s
            if i == 50 {
                log.event(
                    500.0,
                    0,
                    ServeEventKind::Dispatch {
                        batch: 4,
                        compiled_batch: 4,
                        groups: 1,
                        service_ms: 1.0,
                    },
                );
            }
            log.complete(t, 0, &[i], 1.0, false);
        }
        let mut m = LiveMonitor::new(LiveConfig::default());
        log.fold(&mut m, &["a"], 1000.0, true);
        let row = m.tenants()[0].row(1e9, 2e9);
        assert_eq!(row.name, "a");
        assert!(row.qps > 0.0);
        assert!((row.latency.p50_ms - 1.0).abs() / 1.0 <= 0.02);
        assert_eq!(row.mean_batch, 4.0);
        assert_eq!(row.latency.exemplar, Some(0), "first (slowest tie) request");
        assert!(!row.latency.firing);
        assert_eq!(m.now_ns(), 1e9, "a finished run judges its last window");
    }

    #[test]
    fn sustained_violations_alert_and_dump() {
        let mut log = Log::default();
        for i in 0..20u64 {
            for j in 0..20u64 {
                let t = i as f64 * 1000.0 + j as f64 * 40.0;
                // Half the requests violate the 5 ms deadline.
                let lat = if j % 2 == 0 { 40.0 } else { 1.0 };
                log.complete(t, 0, &[i * 20 + j], lat, lat > 5.0);
            }
        }
        let mut m = monitor_with_slo();
        log.fold(&mut m, &["t0"], 20_000.0, true);
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
        let mut log = Log::default();
        log.complete(1000.0, 0, &[1], 2.0, false)
            .event(
                2000.0,
                0,
                ServeEventKind::Fault {
                    label: "dma-timeout",
                    attempt: 1,
                },
            )
            .event(2100.0, 0, ServeEventKind::FaultDrop { dropped: 3 });
        let mut m = LiveMonitor::new(LiveConfig::default());
        log.fold(&mut m, &["t0"], 2500.0, true);
        assert_eq!(m.flight.dumps().len(), 1);
        assert_eq!(m.alerts.len(), 1);
        assert_eq!(m.alerts[0].1.kind, AlertKind::Fault);
        assert!(m.flight.dumps()[0].resolves_label("req 1"));
        let row = m.tenants()[0].row(2.5e9, 5e9);
        assert!(row.drop_rate > 0.0);
    }

    #[test]
    fn violations_series_counts_late_completions() {
        let mut log = Log::default();
        log.complete(200.0, 0, &[1], 60.0, true)
            .complete(400.0, 0, &[2], 1.0, false)
            .complete(1400.0, 0, &[3], 70.0, true);
        let mut m = LiveMonitor::new(LiveConfig::default());
        log.fold(&mut m, &["t0"], 1500.0, true);
        let t = &m.tenants()[0];
        assert_eq!(t.violations.total(), 2.0);
        assert_eq!(t.violations.sum_over(0.9e9, 1e9), 1.0);
        assert_eq!(t.completions.total(), 3.0);
    }

    #[test]
    fn clean_run_stays_quiet() {
        let mut log = Log::default();
        for i in 0..60u64 {
            for j in 0..10u64 {
                log.complete(
                    i as f64 * 1000.0 + j as f64 * 100.0,
                    0,
                    &[i * 10 + j],
                    1.0,
                    false,
                );
            }
        }
        let mut m = monitor_with_slo();
        log.fold(&mut m, &["t0"], 60_000.0, true);
        assert!(m.alerts.is_empty());
        assert_eq!(m.flight.dumps().len(), 0);
        assert!(!m.flight.is_empty(), "ring records even when healthy");
    }
}
