//! Live observability for generative runs: token-level time series,
//! TTFT/TPOT SLO burn rates, KV-pressure gauges, and a flight recorder
//! holding the full token timeline of recent requests.
//!
//! A [`GenMonitor`] rides along a generative run (see
//! [`run_generative_live`](crate::run_generative_live)) as a
//! [`GenObserver`]: it sees every prefill, decode step, preemption, KV
//! exhaustion, completion, and shed *at its simulated time*. It never
//! feeds anything back into the engine — a monitored run's report and
//! trace are byte-identical to a plain run's.
//!
//! It maintains:
//! * windowed [`TimeSeries`] rings — sheds, completions, preemptions,
//!   KV exhaustions, decode steps, running batch occupancy, KV pages in
//!   use, and L3 spill milliseconds;
//! * TTFT (recorded at first-token time) and TPOT [`Objective`]s: each
//!   a windowed histogram carrying the slowest request's span id as
//!   the window's exemplar — keyed by request id, so exemplars survive
//!   preempt–resume — and the optional SLO judged on it at every
//!   simulated-second boundary;
//! * a [`FlightRecorder`] of [`GenRecord`]s: every trace event (the
//!   batch-level prefill/decode steps among them) *and* per-request
//!   token counts, prefills, preemption gaps, KV exhaustions and
//!   completions. A record holds ids and times, not a label; it is
//!   rendered into a [`Span`] only when a dump is taken, so the
//!   per-token records that are evicted unread cost no string. The
//!   first KV-pressure preemption and every burn-rate page freeze a
//!   dump, so the black box names the offending request. A page's dump
//!   holds its exemplar request even after the ring has evicted it:
//!   the monitor keeps the prefill behind each recent window's slowest
//!   first token and each window's slowest completion.

use crate::generative::{GenDecodeStep, GenJoiner, GenObserver, GenerativeScenario};
use crate::metrics::{event_to_span, ServeEvent};
use dtu_telemetry::clock::ms_to_ns;
use dtu_telemetry::flight::DEFAULT_CAPACITY;
use dtu_telemetry::monitor::series;
use dtu_telemetry::{
    AlertEvent, AlertKind, EvalClock, FlightRecord, FlightRecorder, Layer, Objective, ObjectiveRow,
    SloSpec, SlowestRecords, Span, SpanKind, TimeSeries,
};
use std::collections::BTreeMap;

/// Flight-recorder ring capacity, records. Token-level records are
/// roughly an order of magnitude denser than request-level ones (one
/// per running sequence every decode step), so the ring is 8x the
/// request-serving recorder's.
const FLIGHT_CAPACITY: usize = DEFAULT_CAPACITY * 8;

/// One entry of a [`GenMonitor`]'s flight ring. Everything but
/// [`GenRecord::Event`] renders on track 0 of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum GenRecord {
    /// A trace record, rendered as the trace export renders it
    /// ([`event_to_span`]).
    Event(ServeEvent),
    /// A sequence's token count after a decode step (`req {req} tok
    /// {produced}`), at the step's end.
    Token {
        /// Request id.
        req: u64,
        /// Tokens produced so far.
        produced: usize,
        /// The decode step's end, ns.
        at_ns: f64,
    },
    /// One sequence's share of a prefill step (`req {req} prefill @
    /// {tokens} tok`, with ` (resume)` after a preemption).
    Prefill {
        /// Request id.
        req: u64,
        /// Prompt + already-produced tokens recomputed.
        tokens: usize,
        /// Whether the sequence was preempted earlier.
        resumed: bool,
        /// Step start, ns.
        start_ns: f64,
        /// Step end, ns.
        end_ns: f64,
    },
    /// A preempted sequence's wait, from eviction to re-prefill (`req
    /// {req} preempted`).
    PreemptGap {
        /// Request id.
        req: u64,
        /// Preemption time, ns.
        start_ns: f64,
        /// Re-prefill start, ns.
        end_ns: f64,
    },
    /// A decode-path KV page reservation refused (`kv-exhausted req
    /// {req}`).
    KvExhausted {
        /// Request id.
        req: u64,
        /// When, ns.
        at_ns: f64,
    },
    /// A completed request (`req {req}`, plus ` (late)` when it
    /// violated its SLO).
    Request {
        /// Request id.
        req: u64,
        /// Whether the request violated its SLO.
        late: bool,
        /// Arrival, ns.
        start_ns: f64,
        /// Completion, ns.
        end_ns: f64,
    },
}

impl GenRecord {
    /// The request the record names (`None` for a trace event).
    pub fn req(&self) -> Option<u64> {
        match *self {
            GenRecord::Event(_) => None,
            GenRecord::Token { req, .. }
            | GenRecord::Prefill { req, .. }
            | GenRecord::PreemptGap { req, .. }
            | GenRecord::KvExhausted { req, .. }
            | GenRecord::Request { req, .. } => Some(req),
        }
    }
}

impl FlightRecord for GenRecord {
    fn to_span(&self) -> Span {
        let span = |kind, label, start_ns, end_ns| {
            Span::new(kind, Layer::Serving, 0, label, start_ns, end_ns)
        };
        match *self {
            GenRecord::Event(ref event) => event_to_span(event),
            GenRecord::Token {
                req,
                produced,
                at_ns,
            } => span(
                SpanKind::Marker,
                format!("req {req} tok {produced}"),
                at_ns,
                at_ns,
            ),
            GenRecord::Prefill {
                req,
                tokens,
                resumed,
                start_ns,
                end_ns,
            } => {
                let tag = if resumed { " (resume)" } else { "" };
                span(
                    SpanKind::Prefill,
                    format!("req {req} prefill{tag} @ {tokens} tok"),
                    start_ns,
                    end_ns,
                )
            }
            GenRecord::PreemptGap {
                req,
                start_ns,
                end_ns,
            } => span(
                SpanKind::SyncWait,
                format!("req {req} preempted"),
                start_ns,
                end_ns,
            ),
            GenRecord::KvExhausted { req, at_ns } => span(
                SpanKind::Marker,
                format!("kv-exhausted req {req}"),
                at_ns,
                at_ns,
            ),
            GenRecord::Request {
                req,
                late,
                start_ns,
                end_ns,
            } => span(
                SpanKind::Request,
                format!("req {req}{}", if late { " (late)" } else { "" }),
                start_ns,
                end_ns,
            ),
        }
    }
}

/// How a [`GenMonitor`] is shaped.
#[derive(Debug, Clone)]
pub struct GenLiveConfig {
    /// TTFT objective (`None` = metrics only, no TTFT alerts).
    pub ttft_slo: Option<SloSpec>,
    /// TPOT objective (`None` = metrics only, no TPOT alerts).
    pub tpot_slo: Option<SloSpec>,
    /// Tenant label used in alerts and dump reasons.
    pub tenant: String,
}

impl Default for GenLiveConfig {
    fn default() -> Self {
        GenLiveConfig {
            ttft_slo: None,
            tpot_slo: None,
            tenant: "gen".to_string(),
        }
    }
}

/// One rendered dashboard row (what `topsexec top --generative`
/// prints), over a trailing window.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRow {
    /// Completions per simulated second.
    pub qps: f64,
    /// Sheds per simulated second.
    pub shed_rate: f64,
    /// Preemptions per simulated second.
    pub preempt_rate: f64,
    /// Mean running-batch size over the window's decode steps.
    pub active_batch: f64,
    /// Mean KV-pool occupancy over the window's decode steps, 0..1.
    pub kv_occupancy: f64,
    /// L3 spill milliseconds charged per simulated second.
    pub spill_ms_per_s: f64,
    /// The TTFT objective's columns.
    pub ttft: ObjectiveRow,
    /// The TPOT objective's columns.
    pub tpot: ObjectiveRow,
}

/// The live observability sidecar of one generative run.
#[derive(Debug, Clone)]
pub struct GenMonitor {
    cfg: GenLiveConfig,
    /// Admission sheds per window.
    pub sheds: TimeSeries,
    /// Completed requests per window.
    pub completions: TimeSeries,
    /// Preemptions per window.
    pub preempts: TimeSeries,
    /// Decode-path KV-page exhaustions per window.
    pub exhausts: TimeSeries,
    /// Decode steps per window.
    pub decode_steps: TimeSeries,
    /// Sum of running-batch sizes per window (with `decode_steps`,
    /// gives mean active batch).
    pub batch_occupancy: TimeSeries,
    /// Sum of KV pages in use at each decode step per window.
    pub kv_pages: TimeSeries,
    /// L3 spill milliseconds charged per window.
    pub spill_ms: TimeSeries,
    /// Time to first token (recorded at first-token time) and its SLO.
    pub ttft: Objective,
    /// Time per output token (recorded at completion) and its SLO.
    pub tpot: Objective,
    /// The black box.
    pub flight: FlightRecorder<GenRecord>,
    /// Each recent window's slowest first token, as the prefill that
    /// produced it (the TTFT exemplars), for a page's dump.
    ttft_exemplars: SlowestRecords<GenRecord>,
    /// Each recent window's slowest completion (the TPOT exemplars).
    tpot_exemplars: SlowestRecords<GenRecord>,
    /// The latest prefill step's records, one per joiner: what a first
    /// token's TTFT sample names.
    step_prefills: Vec<GenRecord>,
    /// Every alert emitted, in simulated-time order.
    pub alerts: Vec<AlertEvent>,
    /// Preempted-and-not-yet-resumed requests → preemption time, ns
    /// (feeds the preemption-gap spans).
    preempted_at: BTreeMap<u64, f64>,
    /// Whether the KV-pressure dump was already frozen (only the first
    /// preemption dumps, leaving ring-dump slots for later burn pages).
    kv_dumped: bool,
    /// KV pool size, pages (set by [`GenMonitor::begin`]).
    total_pages: usize,
    clock: EvalClock,
    now_ns: f64,
}

impl GenMonitor {
    /// Creates a monitor; pass it to
    /// [`run_generative_live`](crate::run_generative_live), which resets
    /// it for the scenario before the run.
    pub fn new(cfg: GenLiveConfig) -> Self {
        GenMonitor {
            sheds: series(),
            completions: series(),
            preempts: series(),
            exhausts: series(),
            decode_steps: series(),
            batch_occupancy: series(),
            kv_pages: series(),
            spill_ms: series(),
            ttft: Objective::new(cfg.ttft_slo.clone()),
            tpot: Objective::new(cfg.tpot_slo.clone()),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            ttft_exemplars: SlowestRecords::default(),
            tpot_exemplars: SlowestRecords::default(),
            step_prefills: Vec::new(),
            alerts: Vec::new(),
            preempted_at: BTreeMap::new(),
            kv_dumped: false,
            total_pages: 0,
            clock: EvalClock::default(),
            now_ns: 0.0,
            cfg,
        }
    }

    /// A monitor with no SLOs.
    pub fn with_defaults() -> Self {
        GenMonitor::new(GenLiveConfig::default())
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &GenLiveConfig {
        &self.cfg
    }

    /// Latest simulated time the monitor has seen, ns.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// KV pool size the run was configured with, pages.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Burn-rate alerts only (excludes resolutions).
    pub fn burn_alerts(&self) -> impl Iterator<Item = &AlertEvent> + '_ {
        self.alerts.iter().filter(|a| a.kind == AlertKind::BurnRate)
    }

    /// Advances simulated time to `t_ns`, judging both objectives at
    /// each evaluation boundary crossed, in order. Transitions land in
    /// [`GenMonitor::alerts`]; a burn-rate page freezes a flight dump.
    /// Hooks call this themselves, so external driving is only needed
    /// for [`GenObserver::finish`].
    pub fn advance(&mut self, t_ns: f64) {
        self.now_ns = self.now_ns.max(t_ns);
        while let Some(at) = self.clock.tick(t_ns) {
            for (objective, exemplars) in [
                (&mut self.ttft, &self.ttft_exemplars),
                (&mut self.tpot, &self.tpot_exemplars),
            ] {
                if let Some(alert) = objective.evaluate(at) {
                    if alert.kind == AlertKind::BurnRate {
                        let exemplar = alert
                            .exemplar
                            .and_then(|id| exemplars.find(|r| r.req() == Some(id)));
                        self.flight.trigger_page(
                            format_args!("alert {} ({})", alert.slo, self.cfg.tenant),
                            at,
                            exemplar,
                        );
                    }
                    self.alerts.push(alert);
                }
            }
        }
    }

    /// One dashboard row over the trailing `span_ns` at `now_ns`.
    pub fn row(&self, now_ns: f64, span_ns: f64) -> GenRow {
        let steps = self.decode_steps.sum_over(now_ns, span_ns);
        let mean = |series: &TimeSeries| {
            if steps > 0.0 {
                series.sum_over(now_ns, span_ns) / steps
            } else {
                0.0
            }
        };
        GenRow {
            qps: self.completions.rate_per_sec(now_ns, span_ns),
            shed_rate: self.sheds.rate_per_sec(now_ns, span_ns),
            preempt_rate: self.preempts.rate_per_sec(now_ns, span_ns),
            active_batch: mean(&self.batch_occupancy),
            kv_occupancy: if self.total_pages > 0 {
                mean(&self.kv_pages) / self.total_pages as f64
            } else {
                0.0
            },
            spill_ms_per_s: self.spill_ms.rate_per_sec(now_ns, span_ns),
            ttft: self.ttft.row(now_ns, span_ns),
            tpot: self.tpot.row(now_ns, span_ns),
        }
    }

    /// Byte-deterministic SLO compliance JSON for the run: one object
    /// per configured objective (the `topsexec serve --generative
    /// --slo` payload).
    pub fn compliance_json(&self) -> String {
        use dtu_telemetry::json::JsonObject;
        let mut objectives = Vec::new();
        for tracker in [&self.ttft, &self.tpot]
            .into_iter()
            .filter_map(|o| o.slo.as_ref())
        {
            let pages = self
                .burn_alerts()
                .filter(|a| a.slo == tracker.spec.name)
                .count();
            objectives.push(
                JsonObject::new()
                    .string("slo", &tracker.spec.name)
                    .num("deadline_ms", tracker.spec.deadline_ms)
                    .int("completed", tracker.completed() as i64)
                    .int("violated", tracker.violated() as i64)
                    .num("budget_consumed", tracker.budget_consumed())
                    .int("pages", pages as i64)
                    .raw("firing", if tracker.firing() { "true" } else { "false" })
                    .build(),
            );
        }
        JsonObject::new()
            .string("tenant", &self.cfg.tenant)
            .int("preemptions", self.preempts.total() as i64)
            .int("kv_exhaustions", self.exhausts.total() as i64)
            .raw("objectives", &dtu_telemetry::json::array(&objectives))
            .build()
    }
}

impl GenObserver for GenMonitor {
    /// (Re-)initialises state for a run over `sc`.
    fn begin(&mut self, sc: &GenerativeScenario) {
        *self = GenMonitor::new(self.cfg.clone());
        self.total_pages = sc.kv.total_pages;
    }

    /// Runs the remaining evaluation boundaries plus at least one more,
    /// so trailing windows are judged.
    fn finish(&mut self, drained_ns: f64) {
        self.advance(self.clock.closing(drained_ns));
    }

    fn on_event(&mut self, event: &ServeEvent) {
        self.advance(event.t_ns);
        // The full event stream lands in the ring and renders through
        // the mapping the trace export uses, so a dump reads like the
        // trace.
        self.flight.record(GenRecord::Event(event.clone()));
    }

    fn on_shed(&mut self, t_ms: f64, _req: u64) {
        self.sheds.add(ms_to_ns(t_ms), 1.0);
    }

    fn on_prefill(&mut self, t_ms: f64, end_ms: f64, joiners: &[GenJoiner]) {
        let (t_ns, end_ns) = (ms_to_ns(t_ms), ms_to_ns(end_ms));
        self.step_prefills.clear();
        for j in joiners {
            let req = j.req;
            if let Some(preempt_ns) = self.preempted_at.remove(&req) {
                // The request sat preempted from eviction to this
                // re-prefill: make the gap visible as a wait interval.
                self.flight.record(GenRecord::PreemptGap {
                    req,
                    start_ns: preempt_ns,
                    end_ns: t_ns,
                });
            }
            let prefill = GenRecord::Prefill {
                req,
                tokens: j.tokens,
                resumed: j.resumed,
                start_ns: t_ns,
                end_ns,
            };
            self.step_prefills.push(prefill.clone());
            self.flight.record(prefill);
        }
    }

    fn on_first_token(&mut self, t_ms: f64, req: u64, ttft_ms: f64) {
        let t_ns = ms_to_ns(t_ms);
        self.ttft.observe(t_ns, ttft_ms, req);
        if let Some(prefill) = self.step_prefills.iter().find(|r| r.req() == Some(req)) {
            self.ttft_exemplars.note(t_ns, ttft_ms, prefill.clone());
        }
    }

    fn on_decode(&mut self, step: &GenDecodeStep) {
        let t_ns = ms_to_ns(step.t_ms);
        self.decode_steps.add(t_ns, 1.0);
        self.batch_occupancy.add(t_ns, step.batch as f64);
        self.kv_pages.add(t_ns, step.kv_pages_in_use as f64);
        self.spill_ms.add(t_ns, step.spill_ms);
        let at_ns = ms_to_ns(step.end_ms);
        for &(req, produced) in &step.reqs {
            self.flight.record(GenRecord::Token {
                req,
                produced,
                at_ns,
            });
        }
    }

    fn on_exhaust(&mut self, t_ms: f64, req: u64) {
        let t_ns = ms_to_ns(t_ms);
        self.exhausts.add(t_ns, 1.0);
        self.flight
            .record(GenRecord::KvExhausted { req, at_ns: t_ns });
    }

    fn on_preempt(&mut self, t_ms: f64, req: u64, _pages: usize) {
        let t_ns = ms_to_ns(t_ms);
        self.preempts.add(t_ns, 1.0);
        self.preempted_at.insert(req, t_ns);
        if !self.kv_dumped {
            // First KV-pressure eviction: freeze the black box while
            // the victim's token timeline is still in the ring. Later
            // evictions only count — the remaining dump slots are kept
            // for burn-rate pages.
            self.kv_dumped = true;
            self.flight.trigger(
                format_args!("kv-exhaustion (req {req} preempted, {})", self.cfg.tenant),
                t_ns,
            );
        }
    }

    fn on_complete(
        &mut self,
        t_ms: f64,
        req: u64,
        _ttft_ms: f64,
        tpot_ms: f64,
        e2e_ms: f64,
        violated: bool,
    ) {
        let t_ns = ms_to_ns(t_ms);
        self.completions.add(t_ns, 1.0);
        self.tpot.observe(t_ns, tpot_ms, req);
        self.preempted_at.remove(&req);
        let record = GenRecord::Request {
            req,
            late: violated,
            start_ns: ms_to_ns(t_ms - e2e_ms),
            end_ns: t_ns,
        };
        self.tpot_exemplars.note(t_ns, tpot_ms, record.clone());
        self.flight.record(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::kv::KvCacheConfig;
    use crate::metrics::ServeEventKind;
    use crate::token_model::AnalyticTokenModel;
    use crate::{run_generative, run_generative_live};

    fn scenario(total_pages: usize) -> GenerativeScenario {
        GenerativeScenario {
            duration_ms: 300.0,
            seed: 7,
            arrival: ArrivalProcess::Poisson { qps: 120.0 },
            prompt_tokens: 64,
            min_new_tokens: 4,
            max_new_tokens: 48,
            max_concurrency: 8,
            queue_depth: 64,
            ttft_deadline_ms: f64::INFINITY,
            tpot_deadline_ms: f64::INFINITY,
            kv: KvCacheConfig {
                page_tokens: 16,
                bytes_per_token: 1024,
                total_pages,
                l2_pages: 16,
                l3_gb_per_s: 100.0,
            },
        }
    }

    #[test]
    fn each_record_renders_its_span() {
        let mut mon = GenMonitor::with_defaults();
        mon.begin(&scenario(64));
        mon.on_preempt(1.0, 5, 4);
        let joiner = GenJoiner {
            req: 5,
            tokens: 64,
            resumed: true,
        };
        mon.on_prefill(2.0, 3.0, &[joiner]);
        mon.on_decode(&GenDecodeStep {
            t_ms: 3.0,
            end_ms: 4.0,
            batch: 1,
            spill_ms: 0.0,
            kv_pages_in_use: 4,
            reqs: vec![(5, 3)],
        });
        mon.on_exhaust(4.5, 5);
        mon.on_complete(6.0, 5, 2.0, 1.0, 5.0, true);
        let event = ServeEvent {
            t_ns: 7e6,
            tenant: 0,
            kind: ServeEventKind::Preempt { req: 5, pages: 4 },
        };
        mon.on_event(&event);
        let spans: Vec<Span> = mon.flight.spans().collect();
        let serving =
            |kind, label: &str, start, end| Span::new(kind, Layer::Serving, 0, label, start, end);
        assert_eq!(
            spans,
            [
                serving(SpanKind::SyncWait, "req 5 preempted", 1e6, 2e6),
                serving(
                    SpanKind::Prefill,
                    "req 5 prefill (resume) @ 64 tok",
                    2e6,
                    3e6
                ),
                serving(SpanKind::Marker, "req 5 tok 3", 4e6, 4e6),
                serving(SpanKind::Marker, "kv-exhausted req 5", 4.5e6, 4.5e6),
                serving(SpanKind::Request, "req 5 (late)", 1e6, 6e6),
                event_to_span(&event),
            ]
        );
        assert_eq!(spans[5].label, "preempt 5 (-4 pages)");
        let dump = mon.flight.latest().expect("the first preemption dumps");
        assert_eq!(dump.reason, "kv-exhaustion (req 5 preempted, gen)");
        assert!(dump.spans.is_empty(), "frozen before any record");
    }

    #[test]
    fn monitored_run_is_observational() {
        let sc = scenario(4096);
        let plain = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
        let mut mon = GenMonitor::with_defaults();
        let live = run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
        assert_eq!(plain.report, live.report);
        assert_eq!(plain.trace, live.trace);
        assert_eq!(plain.report.to_json(), live.report.to_json());
        // …and the monitor actually saw the run.
        assert_eq!(mon.completions.total(), live.report.completed as f64);
        // The run drains, so every admitted request completes.
        assert_eq!(
            mon.completions.total() + mon.sheds.total(),
            live.report.offered as f64
        );
        assert!(!mon.flight.is_empty());
        assert!(mon.ttft.hist.merged().count() >= live.report.completed);
    }

    #[test]
    fn kv_pressure_freezes_one_dump_naming_the_victim() {
        let mut sc = scenario(40);
        sc.arrival = ArrivalProcess::Poisson { qps: 2000.0 };
        sc.duration_ms = 100.0;
        sc.queue_depth = 512;
        let mut mon = GenMonitor::with_defaults();
        let out = run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
        assert!(out.report.preemptions > 0, "constrained pool must preempt");
        assert_eq!(mon.preempts.total(), out.report.preemptions as f64);
        assert!(mon.exhausts.total() > 0.0);
        let kv_dumps: Vec<_> = mon
            .flight
            .dumps()
            .iter()
            .filter(|d| d.reason.starts_with("kv-exhaustion"))
            .collect();
        assert_eq!(kv_dumps.len(), 1, "only the first eviction dumps");
        let dump = kv_dumps[0];
        // Reason names the preempted request, whose token timeline
        // (prefill span + decode-step markers) is in the frozen ring.
        let id: u64 = dump
            .reason
            .split(&['(', ' '][..])
            .find_map(|w| w.parse().ok())
            .expect("reason names a request id");
        assert!(dump.resolves_label(&format!("req {id}")));
        assert!(dump.spans.iter().any(|s| s.kind == SpanKind::Prefill));
        assert!(dump.spans.iter().any(|s| s.kind == SpanKind::Decode));
    }

    #[test]
    fn preemption_gap_spans_close_on_resume() {
        let mut sc = scenario(40);
        sc.arrival = ArrivalProcess::Poisson { qps: 2000.0 };
        sc.duration_ms = 100.0;
        sc.queue_depth = 512;
        let mut mon = GenMonitor::with_defaults();
        let out = run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
        assert!(out.report.preemptions > 0);
        assert!(
            mon.flight.len() < mon.flight.capacity(),
            "the ring kept the whole run"
        );
        let gaps: Vec<Span> = mon
            .flight
            .spans()
            .filter(|s| s.kind == SpanKind::SyncWait && s.label.contains("preempted"))
            .collect();
        assert!(!gaps.is_empty(), "resumed preemptions leave gap spans");
        for g in &gaps {
            assert!(g.duration_ns() > 0.0, "gap {:?} must have extent", g.label);
        }
        // Resume prefills are tagged.
        assert!(mon
            .flight
            .spans()
            .any(|s| s.kind == SpanKind::Prefill && s.label.contains("(resume)")));
    }

    #[test]
    fn ttft_slo_pages_under_sustained_breach() {
        // Deadline far below achievable TTFT + a long horizon so the
        // multi-window burn engine can fire (needs sustained seconds).
        let mut sc = scenario(4096);
        sc.duration_ms = 8_000.0;
        let mut mon = GenMonitor::new(GenLiveConfig {
            ttft_slo: Some(SloSpec::new("ttft_p99<0.001ms", 0.99, 0.001)),
            ..GenLiveConfig::default()
        });
        run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
        let fired: Vec<_> = mon.burn_alerts().collect();
        assert!(!fired.is_empty(), "hopeless TTFT objective must page");
        let alert = fired[0];
        assert!(alert.burn_fast >= alert.burn_slow.min(10.0));
        let id = alert.exemplar.expect("alert carries a TTFT exemplar");
        let dump = mon
            .flight
            .dumps()
            .iter()
            .find(|d| d.reason.starts_with("alert"))
            .expect("burn page froze a dump");
        assert!(
            dump.resolves_label(&format!("req {id}")),
            "exemplar {id} resolves in the dump"
        );
    }

    #[test]
    fn a_page_dump_holds_its_evicted_exemplar() {
        // 3000 requests/s of up to 128 tokens fill the ring in well
        // under the 2 s before the first TPOT page, which names a
        // request that completed before the ring's oldest record.
        let mut sc = scenario(4096);
        sc.seed = 8;
        sc.arrival = ArrivalProcess::Poisson { qps: 3000.0 };
        sc.duration_ms = 2_500.0;
        sc.max_new_tokens = 128;
        sc.max_concurrency = 16;
        sc.queue_depth = 128;
        let mut mon = GenMonitor::new(GenLiveConfig {
            tpot_slo: Some(SloSpec::new("tpot_p99<0.01ms", 0.99, 0.01)),
            ..GenLiveConfig::default()
        });
        run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
        let page = mon
            .burn_alerts()
            .next()
            .expect("a hopeless TPOT objective pages");
        let id = page.exemplar.expect("a page carries an exemplar");
        let dump = mon
            .flight
            .dumps()
            .iter()
            .find(|d| d.at_ns == page.t_ns)
            .expect("the page froze a dump");
        let name = format!("req {id}");
        let names = |s: &Span| {
            s.label
                .strip_prefix(&name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
        };
        assert!(names(&dump.spans[0]), "the exemplar leads the dump");
        assert!(
            !dump.spans[1..].iter().any(names),
            "the ring had evicted every record of request {id}"
        );
    }

    #[test]
    fn clean_run_stays_quiet() {
        let mut sc = scenario(4096);
        sc.duration_ms = 2_000.0;
        let mut mon = GenMonitor::new(GenLiveConfig {
            ttft_slo: Some(SloSpec::new("ttft_p99<10s", 0.99, 10_000.0)),
            tpot_slo: Some(SloSpec::new("tpot_p99<10s", 0.99, 10_000.0)),
            ..GenLiveConfig::default()
        });
        let out = run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
        assert!(out.report.completed > 0);
        assert!(mon.alerts.is_empty());
        assert!(!mon.flight.is_empty(), "ring records even when healthy");
        let dumps = mon
            .flight
            .dumps()
            .iter()
            .filter(|d| d.reason.starts_with("alert"))
            .count();
        assert_eq!(dumps, 0);
        let row = mon.row(mon.now_ns(), mon.now_ns());
        assert!(row.qps > 0.0);
        assert!(row.active_batch > 0.0);
        assert!(row.kv_occupancy > 0.0 && row.kv_occupancy <= 1.0);
        assert!(!row.ttft.firing && !row.tpot.firing);
        let js = mon.compliance_json();
        assert!(js.contains("\"objectives\""));
        assert!(js.contains("ttft_p99<10s") && js.contains("tpot_p99<10s"));
    }

    #[test]
    fn exemplar_survives_preempt_resume() {
        // Force preemption; the preempted request's eventual TTFT
        // exemplar (first-token time after resume) still keys by its
        // request id, so the dump resolves it.
        let mut sc = scenario(40);
        sc.arrival = ArrivalProcess::Poisson { qps: 2000.0 };
        sc.duration_ms = 100.0;
        sc.queue_depth = 512;
        let mut mon = GenMonitor::with_defaults();
        let out = run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
        assert!(
            mon.flight.len() < mon.flight.capacity(),
            "the ring kept the whole run"
        );
        let preempted: Vec<u64> = out
            .trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                crate::metrics::ServeEventKind::Preempt { req, .. } => Some(req),
                _ => None,
            })
            .collect();
        assert!(!preempted.is_empty());
        // Every preempted-then-completed request has its full timeline
        // in the ring: prefill, gap, resume, tokens.
        let completed_after_preempt = preempted
            .iter()
            .find(|&&r| mon.flight.spans().any(|s| s.label == format!("req {r}")))
            .copied()
            .expect("some preempted request completed");
        let r = completed_after_preempt;
        assert!(mon
            .flight
            .spans()
            .any(|s| s.label.starts_with(&format!("req {r} prefill"))));
        assert!(mon
            .flight
            .spans()
            .any(|s| s.label == format!("req {r} preempted")));
        assert!(mon
            .flight
            .spans()
            .any(|s| s.label.starts_with(&format!("req {r} tok "))));
    }
}
