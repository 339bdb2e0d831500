//! Serving metrics and the exportable event trace.
//!
//! The report answers "how did the run go" (tail latencies, shed
//! counts, batch-size histogram, utilisation); the trace answers "what
//! happened when" as JSON lines, the serving-layer sibling of the
//! profiler's Chrome-trace export.

use crate::stats::LatencyStats;
use dtu_telemetry::{Layer, Span, SpanKind};
use std::collections::BTreeMap;
use std::fmt;

/// One tenant's slice of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Model name it served.
    pub model: String,
    /// Requests that arrived within the horizon.
    pub offered: u64,
    /// Requests completed (the run drains, so admitted = completed).
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Completions past their SLA deadline.
    pub violations: u64,
    /// Batch retry attempts caused by transient injected faults.
    pub retries: u64,
    /// Requests dropped because of faults: their batch exhausted its
    /// retry budget, or their deadline expired during retry backoff.
    /// Distinct from `shed` (admission-control rejections).
    pub fault_dropped: u64,
    /// Processing groups permanently lost to core failures.
    pub groups_lost: u64,
    /// End-to-end latency statistics.
    pub latency: LatencyStats,
    /// Mean queueing delay (dispatch − arrival), ms.
    pub mean_queue_delay_ms: f64,
    /// Fraction of the span the tenant ran that its server was busy.
    /// The span runs from 0 to the later of the horizon and the
    /// tenant's last completion, so the drain past the horizon counts.
    pub utilization: f64,
    /// Dispatched batch sizes (actual, not padded) → count.
    pub batch_histogram: BTreeMap<usize, u64>,
    /// Groups at the start of the run.
    pub groups_initial: usize,
    /// Groups at the end of the run.
    pub groups_final: usize,
    /// Number of scale-up decisions taken.
    pub scale_ups: u64,
    /// Number of scale-down decisions taken.
    pub scale_downs: u64,
}

/// The outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Arrival horizon, ms.
    pub horizon_ms: f64,
    /// Total requests offered across tenants.
    pub offered: u64,
    /// Total completions.
    pub completed: u64,
    /// Total requests shed at admission.
    pub shed: u64,
    /// Total deadline violations.
    pub violations: u64,
    /// Total batch retries caused by transient injected faults.
    pub retries: u64,
    /// Total requests dropped because of faults (see
    /// [`TenantReport::fault_dropped`]).
    pub fault_dropped: u64,
    /// Fault events that actually fired during the run.
    pub faults_injected: u64,
    /// Aggregate sustained throughput, queries/second.
    pub throughput_qps: f64,
    /// Global latency statistics over all completions.
    pub latency: LatencyStats,
    /// Global batch-size histogram.
    pub batch_histogram: BTreeMap<usize, u64>,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// The accounting identity every finished run satisfies, run-wide
    /// and per tenant: each offered request completed, was shed, or was
    /// dropped by a fault.
    pub fn balanced(&self) -> bool {
        let books = |offered, completed, shed, dropped| offered == completed + shed + dropped;
        books(self.offered, self.completed, self.shed, self.fault_dropped)
            && self
                .tenants
                .iter()
                .all(|t| books(t.offered, t.completed, t.shed, t.fault_dropped))
    }

    /// Mean dispatched batch size.
    pub fn mean_batch(&self) -> f64 {
        let (mut reqs, mut batches) = (0u64, 0u64);
        for (&size, &count) in &self.batch_histogram {
            reqs += size as u64 * count;
            batches += count;
        }
        if batches == 0 {
            0.0
        } else {
            reqs as f64 / batches as f64
        }
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serving: {} offered, {} completed, {} shed, {} SLA violations over {:.0} ms",
            self.offered, self.completed, self.shed, self.violations, self.horizon_ms
        )?;
        if self.faults_injected > 0 || self.fault_dropped > 0 || self.retries > 0 {
            writeln!(
                f,
                "  faults: {} injected, {} batch retries, {} requests fault-dropped",
                self.faults_injected, self.retries, self.fault_dropped
            )?;
        }
        writeln!(
            f,
            "  {:.0} QPS sustained, {} (mean batch {:.2})",
            self.throughput_qps,
            self.latency,
            self.mean_batch()
        )?;
        write!(f, "  batch histogram:")?;
        for (size, count) in &self.batch_histogram {
            write!(f, " {size}x{count}")?;
        }
        writeln!(f)?;
        for t in &self.tenants {
            writeln!(
                f,
                "  [{}/{}] {} done, {} shed, {} late, {}, util {:.0}%, groups {}->{} (+{}/-{})",
                t.name,
                t.model,
                t.completed,
                t.shed,
                t.violations,
                t.latency,
                t.utilization * 100.0,
                t.groups_initial,
                t.groups_final,
                t.scale_ups,
                t.scale_downs
            )?;
            if t.retries > 0 || t.fault_dropped > 0 || t.groups_lost > 0 {
                writeln!(
                    f,
                    "    faults: {} retries, {} dropped, {} groups lost",
                    t.retries, t.fault_dropped, t.groups_lost
                )?;
            }
        }
        Ok(())
    }
}

/// What happened at one instant of the run.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEventKind {
    /// A request arrived and was admitted; `depth` is the queue depth
    /// after admission.
    Arrival {
        /// Request id (unique per run).
        req: u64,
        /// Queue depth after admission.
        depth: usize,
    },
    /// A request was rejected by admission control.
    Shed {
        /// Request id.
        req: u64,
        /// Queue depth that triggered the shed.
        depth: usize,
    },
    /// A batch started service.
    Dispatch {
        /// Actual batch size.
        batch: usize,
        /// Batch size the session was compiled at (padding included).
        compiled_batch: usize,
        /// Groups serving the batch.
        groups: usize,
        /// Service latency of the batch, ms.
        service_ms: f64,
    },
    /// A batch finished service; `depth` is the queue depth left.
    Complete {
        /// Actual batch size.
        batch: usize,
        /// Queue depth remaining.
        depth: usize,
    },
    /// The autoscaler changed the tenant's group count.
    Scale {
        /// Groups before.
        from: usize,
        /// Groups after.
        to: usize,
    },
    /// A transient injected fault hit the tenant's in-flight batch.
    Fault {
        /// Fault label (see `dtu_faults::FaultKind::label`).
        label: &'static str,
        /// Failed attempt number for this batch (1-based).
        attempt: u32,
    },
    /// A failed batch was scheduled for re-service after backoff.
    Retry {
        /// Retry number for this batch (1-based).
        attempt: u32,
        /// Backoff waited before the retry, ms.
        backoff_ms: f64,
    },
    /// A core failure permanently removed one of the tenant's groups;
    /// the slot is poisoned so the autoscaler cannot reclaim it.
    GroupLost {
        /// Cluster of the dead group.
        cluster: usize,
        /// Dead group within the cluster.
        group: usize,
        /// Groups the tenant still holds.
        remaining: usize,
    },
    /// Requests were dropped because of faults (retry budget exhausted
    /// or deadlines expired during backoff).
    FaultDrop {
        /// Requests dropped.
        dropped: usize,
    },
    /// A generative prefill step ran: a group of waiting sequences
    /// joined the running batch and processed their prompts.
    Prefill {
        /// Sequences that joined.
        batch: usize,
        /// Longest prompt (tokens) in the joining group — the sequence
        /// length the prefill session ran at.
        tokens: usize,
        /// Step latency, ms.
        service_ms: f64,
    },
    /// A generative decode step ran: every running sequence advanced by
    /// one token against its KV-cache.
    DecodeStep {
        /// Running batch size.
        batch: usize,
        /// Longest context (tokens) in the running batch.
        context: usize,
        /// Step latency, ms (KV spill DMA included).
        service_ms: f64,
        /// KV-cache bytes streamed from L3 during this step.
        spill_bytes: u64,
    },
    /// A running sequence was evicted because the KV-page pool was
    /// exhausted; it re-queues (keeping its progress) and re-prefills
    /// on re-admission.
    Preempt {
        /// Request id of the evicted sequence.
        req: u64,
        /// KV pages it released.
        pages: usize,
    },
}

/// One trace record: time, tenant, event.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// Simulated time on the shared telemetry clock, ns.
    pub t_ns: f64,
    /// Tenant index.
    pub tenant: usize,
    /// The event.
    pub kind: ServeEventKind,
}

impl ServeEvent {
    /// Event time in the serving engine's native milliseconds.
    pub fn t_ms(&self) -> f64 {
        dtu_telemetry::clock::ns_to_ms(self.t_ns)
    }
}

/// The run's event log, exportable as JSON lines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServingTrace {
    /// Records in simulated-time order.
    pub events: Vec<ServeEvent>,
}

impl ServingTrace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialises the trace as JSON lines (one object per record),
    /// through the shared `dtu-telemetry` JSON emitter. Times are on
    /// the shared nanosecond clock (`t_ns`).
    pub fn to_jsonl(&self) -> String {
        use dtu_telemetry::json::JsonObject;
        let mut out = String::with_capacity(self.events.len() * 64);
        for e in &self.events {
            let o = JsonObject::new()
                .num("t_ns", e.t_ns)
                .int("tenant", e.tenant as i64);
            let o = match &e.kind {
                ServeEventKind::Arrival { req, depth } => o
                    .string("kind", "arrival")
                    .int("req", *req as i64)
                    .int("depth", *depth as i64),
                ServeEventKind::Shed { req, depth } => o
                    .string("kind", "shed")
                    .int("req", *req as i64)
                    .int("depth", *depth as i64),
                ServeEventKind::Dispatch {
                    batch,
                    compiled_batch,
                    groups,
                    service_ms,
                } => o
                    .string("kind", "dispatch")
                    .int("batch", *batch as i64)
                    .int("compiled_batch", *compiled_batch as i64)
                    .int("groups", *groups as i64)
                    .num("service_ms", *service_ms),
                ServeEventKind::Complete { batch, depth } => o
                    .string("kind", "complete")
                    .int("batch", *batch as i64)
                    .int("depth", *depth as i64),
                ServeEventKind::Scale { from, to } => o
                    .string("kind", "scale")
                    .int("from", *from as i64)
                    .int("to", *to as i64),
                ServeEventKind::Fault { label, attempt } => o
                    .string("kind", "fault")
                    .string("label", label)
                    .int("attempt", i64::from(*attempt)),
                ServeEventKind::Retry {
                    attempt,
                    backoff_ms,
                } => o
                    .string("kind", "retry")
                    .int("attempt", i64::from(*attempt))
                    .num("backoff_ms", *backoff_ms),
                ServeEventKind::GroupLost {
                    cluster,
                    group,
                    remaining,
                } => o
                    .string("kind", "group-lost")
                    .int("cluster", *cluster as i64)
                    .int("group", *group as i64)
                    .int("remaining", *remaining as i64),
                ServeEventKind::FaultDrop { dropped } => o
                    .string("kind", "fault-drop")
                    .int("dropped", *dropped as i64),
                ServeEventKind::Prefill {
                    batch,
                    tokens,
                    service_ms,
                } => o
                    .string("kind", "prefill")
                    .int("batch", *batch as i64)
                    .int("tokens", *tokens as i64)
                    .num("service_ms", *service_ms),
                ServeEventKind::DecodeStep {
                    batch,
                    context,
                    service_ms,
                    spill_bytes,
                } => o
                    .string("kind", "decode")
                    .int("batch", *batch as i64)
                    .int("context", *context as i64)
                    .num("service_ms", *service_ms)
                    .int("spill_bytes", *spill_bytes as i64),
                ServeEventKind::Preempt { req, pages } => o
                    .string("kind", "preempt")
                    .int("req", *req as i64)
                    .int("pages", *pages as i64),
            };
            out.push_str(&o.build());
            out.push('\n');
        }
        out
    }

    /// Converts the event log to telemetry spans on `Layer::Serving`
    /// (track = tenant index): dispatches become [`SpanKind::Batch`]
    /// intervals covering their service time, generative steps become
    /// [`SpanKind::Prefill`]/[`SpanKind::Decode`] intervals, everything
    /// else becomes an instantaneous marker.
    pub fn to_spans(&self) -> Vec<Span> {
        self.events.iter().map(event_to_span).collect()
    }

    /// Queue-depth time series for one tenant, reconstructed from the
    /// arrival/dispatch/complete records: `(t_ms, depth_after_event)`.
    pub fn queue_depth_series(&self, tenant: usize) -> Vec<(f64, usize)> {
        let mut series = Vec::new();
        let mut depth = 0usize;
        for e in self.events.iter().filter(|e| e.tenant == tenant) {
            match &e.kind {
                ServeEventKind::Arrival { depth: d, .. } => depth = *d,
                ServeEventKind::Dispatch { batch, .. } => depth = depth.saturating_sub(*batch),
                ServeEventKind::Complete { depth: d, .. } => depth = *d,
                _ => continue,
            }
            series.push((e.t_ms(), depth));
        }
        series
    }
}

/// Maps one trace record to its telemetry span. Shared by
/// [`ServingTrace::to_spans`] and [`crate::GenMonitor`]'s flight
/// recorder, so a span ring frozen mid-run renders identically to a
/// post-hoc export.
pub fn event_to_span(e: &ServeEvent) -> Span {
    use dtu_telemetry::clock::ms_to_ns;
    match &e.kind {
        ServeEventKind::Dispatch {
            batch,
            groups,
            service_ms,
            ..
        } => Span::new(
            SpanKind::Batch,
            Layer::Serving,
            e.tenant as u32,
            format!("batch {batch} on {groups} groups"),
            e.t_ns,
            e.t_ns + ms_to_ns(*service_ms),
        ),
        ServeEventKind::Arrival { req, .. } => Span::marker(
            Layer::Serving,
            e.tenant as u32,
            format!("arrival {req}"),
            e.t_ns,
        ),
        ServeEventKind::Shed { req, .. } => Span::marker(
            Layer::Serving,
            e.tenant as u32,
            format!("shed {req}"),
            e.t_ns,
        ),
        ServeEventKind::Complete { batch, .. } => Span::marker(
            Layer::Serving,
            e.tenant as u32,
            format!("complete {batch}"),
            e.t_ns,
        ),
        ServeEventKind::Scale { from, to } => Span::marker(
            Layer::Serving,
            e.tenant as u32,
            format!("scale {from}->{to}"),
            e.t_ns,
        ),
        ServeEventKind::Fault { label, attempt } => Span::new(
            SpanKind::Fault,
            Layer::Serving,
            e.tenant as u32,
            format!("fault {label} (attempt {attempt})"),
            e.t_ns,
            e.t_ns,
        ),
        ServeEventKind::Retry {
            attempt,
            backoff_ms,
        } => Span::new(
            SpanKind::Fault,
            Layer::Serving,
            e.tenant as u32,
            format!("retry {attempt}"),
            e.t_ns - ms_to_ns(*backoff_ms),
            e.t_ns,
        ),
        ServeEventKind::GroupLost {
            cluster,
            group,
            remaining,
        } => Span::new(
            SpanKind::Fault,
            Layer::Serving,
            e.tenant as u32,
            format!("group {cluster}.{group} lost ({remaining} left)"),
            e.t_ns,
            e.t_ns,
        ),
        ServeEventKind::FaultDrop { dropped } => Span::marker(
            Layer::Serving,
            e.tenant as u32,
            format!("fault-drop {dropped}"),
            e.t_ns,
        ),
        ServeEventKind::Prefill {
            batch,
            tokens,
            service_ms,
        } => Span::new(
            SpanKind::Prefill,
            Layer::Serving,
            e.tenant as u32,
            format!("prefill {batch} seqs @ {tokens} tok"),
            e.t_ns,
            e.t_ns + ms_to_ns(*service_ms),
        ),
        ServeEventKind::DecodeStep {
            batch,
            context,
            service_ms,
            ..
        } => Span::new(
            SpanKind::Decode,
            Layer::Serving,
            e.tenant as u32,
            format!("decode {batch} seqs @ ctx {context}"),
            e.t_ns,
            e.t_ns + ms_to_ns(*service_ms),
        ),
        ServeEventKind::Preempt { req, pages } => Span::marker(
            Layer::Serving,
            e.tenant as u32,
            format!("preempt {req} (-{pages} pages)"),
            e.t_ns,
        ),
    }
}

/// Per-request outcome, recorded when
/// [`crate::ServeConfig::record_requests`] is set.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Request id.
    pub req: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Arrival time, ms.
    pub arrival_ms: f64,
    /// Completion time, ms.
    pub done_ms: f64,
    /// Absolute deadline, ms (`+inf` when the SLA has none).
    pub deadline_ms: f64,
    /// Whether the completion missed the deadline.
    pub violated: bool,
}

impl RequestOutcome {
    /// The request as one [`SpanKind::Request`] interval on
    /// `Layer::Serving` (track = tenant index), from arrival to
    /// completion; a late completion is labelled `(late)`.
    pub fn to_span(&self) -> Span {
        use dtu_telemetry::clock::ms_to_ns;
        let late = if self.violated { " (late)" } else { "" };
        Span::new(
            SpanKind::Request,
            Layer::Serving,
            self.tenant as u32,
            format!("req {}{late}", self.req),
            ms_to_ns(self.arrival_ms),
            ms_to_ns(self.done_ms),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dtu_telemetry::clock::ms_to_ns;

    #[test]
    fn jsonl_is_one_object_per_event() {
        let trace = ServingTrace {
            events: vec![
                ServeEvent {
                    t_ns: ms_to_ns(1.5),
                    tenant: 0,
                    kind: ServeEventKind::Arrival { req: 1, depth: 1 },
                },
                ServeEvent {
                    t_ns: ms_to_ns(2.0),
                    tenant: 0,
                    kind: ServeEventKind::Dispatch {
                        batch: 1,
                        compiled_batch: 1,
                        groups: 1,
                        service_ms: 0.5,
                    },
                },
            ],
        };
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(jsonl.contains("\"kind\":\"dispatch\""));
        assert!(jsonl.contains("\"t_ns\":1500000"), "shared ns clock");
    }

    #[test]
    fn queue_depth_series_replays_events() {
        let trace = ServingTrace {
            events: vec![
                ServeEvent {
                    t_ns: ms_to_ns(1.0),
                    tenant: 0,
                    kind: ServeEventKind::Arrival { req: 1, depth: 1 },
                },
                ServeEvent {
                    t_ns: ms_to_ns(1.0),
                    tenant: 0,
                    kind: ServeEventKind::Dispatch {
                        batch: 1,
                        compiled_batch: 1,
                        groups: 1,
                        service_ms: 1.0,
                    },
                },
                ServeEvent {
                    t_ns: ms_to_ns(2.0),
                    tenant: 0,
                    kind: ServeEventKind::Complete { batch: 1, depth: 0 },
                },
            ],
        };
        assert_eq!(
            trace.queue_depth_series(0),
            vec![(1.0, 1), (1.0, 0), (2.0, 0)]
        );
        assert!(trace.queue_depth_series(7).is_empty());
    }

    #[test]
    fn spans_from_trace_use_shared_clock() {
        let trace = ServingTrace {
            events: vec![
                ServeEvent {
                    t_ns: ms_to_ns(2.0),
                    tenant: 3,
                    kind: ServeEventKind::Dispatch {
                        batch: 4,
                        compiled_batch: 4,
                        groups: 2,
                        service_ms: 0.5,
                    },
                },
                ServeEvent {
                    t_ns: ms_to_ns(2.1),
                    tenant: 3,
                    kind: ServeEventKind::Shed { req: 9, depth: 8 },
                },
            ],
        };
        let spans = trace.to_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Batch);
        assert_eq!(spans[0].layer, Layer::Serving);
        assert_eq!(spans[0].track, 3);
        assert_eq!(spans[0].start_ns, 2_000_000.0);
        assert_eq!(spans[0].end_ns, 2_500_000.0);
        assert_eq!(spans[1].kind, SpanKind::Marker);
        assert_eq!(spans[1].duration_ns(), 0.0);
    }

    #[test]
    fn mean_batch_weights_by_count() {
        let mut hist = BTreeMap::new();
        hist.insert(1usize, 2u64);
        hist.insert(4, 1);
        let r = ServeReport {
            horizon_ms: 1.0,
            offered: 6,
            completed: 6,
            shed: 0,
            violations: 0,
            retries: 0,
            fault_dropped: 0,
            faults_injected: 0,
            throughput_qps: 0.0,
            latency: LatencyStats::default(),
            batch_histogram: hist,
            tenants: Vec::new(),
        };
        assert_eq!(r.mean_batch(), 2.0);
        assert!(r.to_string().contains("batch histogram: 1x2 4x1"));
    }
}
