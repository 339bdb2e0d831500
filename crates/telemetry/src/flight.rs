//! Span flight recorder: a bounded "black box" of recent activity.
//!
//! The recorder keeps the last `capacity` spans in a ring — O(1) per
//! span, no growth, nothing exported — so it is cheap while the system
//! is healthy. The moment something goes wrong (a burn-rate alert
//! fires, a `FaultKind` lands), [`FlightRecorder::trigger`] freezes the
//! ring into a [`FlightDump`]: a self-contained snapshot of what the
//! system was doing *leading up to* the incident, exportable as a
//! Perfetto/Chrome trace via [`FlightDump::to_chrome_trace`].
//!
//! Dumps are bounded (first incidents win) so a fault storm cannot turn
//! the black box into an unbounded allocation.

use crate::chrome;
use crate::record::Recorder;
use crate::span::Span;
use std::collections::VecDeque;

/// Default ring capacity (spans).
pub const DEFAULT_CAPACITY: usize = 4096;
/// Maximum retained dumps; later triggers are counted but not stored.
pub const MAX_DUMPS: usize = 4;

/// One frozen snapshot of the ring.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the dump was taken (alert or fault label).
    pub reason: String,
    /// When the trigger landed, shared clock ns.
    pub at_ns: f64,
    /// The ring contents at trigger time, oldest first.
    pub spans: Vec<Span>,
}

impl FlightDump {
    /// Renders the dump as a Perfetto/Chrome trace JSON array.
    pub fn to_chrome_trace(&self, rich: bool) -> String {
        chrome::export(&self.spans, rich)
    }

    /// Whether any captured span's label contains `needle` — used to
    /// resolve an alert's exemplar span id against the dump.
    pub fn resolves_label(&self, needle: &str) -> bool {
        self.spans.iter().any(|s| s.label.contains(needle))
    }
}

/// Bounded ring of recent spans with on-trigger snapshots.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<Span>,
    dumps: Vec<FlightDump>,
    triggers: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` recent spans.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight ring capacity must be positive");
        FlightRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(1024)),
            dumps: Vec::new(),
            triggers: 0,
        }
    }

    /// Appends a span, evicting the oldest when full.
    pub fn record(&mut self, span: Span) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(span);
    }

    /// Freezes the current ring into a dump. Dumps beyond
    /// [`MAX_DUMPS`] are counted but not stored (first incidents win).
    pub fn trigger(&mut self, reason: impl Into<String>, at_ns: f64) {
        self.triggers += 1;
        if self.dumps.len() >= MAX_DUMPS {
            return;
        }
        self.dumps.push(FlightDump {
            reason: reason.into(),
            at_ns,
            spans: self.ring.iter().cloned().collect(),
        });
    }

    /// Spans currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Spans the ring holds before it evicts the oldest.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates the ring's spans, oldest first — the fleet aggregator
    /// uses this to absorb a per-chip ring into the fleet-time ring
    /// without waiting for a trigger.
    pub fn spans(&self) -> impl Iterator<Item = &Span> + '_ {
        self.ring.iter()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// All retained dumps, in trigger order.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// The most recent retained dump.
    pub fn latest(&self) -> Option<&FlightDump> {
        self.dumps.last()
    }

    /// Total triggers seen, including those past the dump cap.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }
}

/// The flight recorder is itself a [`Recorder`], so any call site that
/// threads the trait (engine hooks, sessions) can feed the black box
/// directly.
impl Recorder for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, span: Span) {
        FlightRecorder::record(self, span);
    }

    fn snapshot(&mut self, _snapshot: crate::counters::CounterSnapshot) {
        // The black box keeps spans only; counter snapshots live in the
        // full TraceBuffer path.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Layer, SpanKind};

    fn span(i: usize) -> Span {
        Span::new(
            SpanKind::Request,
            Layer::Serving,
            0,
            format!("req {i}"),
            i as f64 * 10.0,
            i as f64 * 10.0 + 5.0,
        )
    }

    #[test]
    fn ring_is_bounded() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..100 {
            fr.record(span(i));
        }
        assert_eq!(fr.len(), 8);
        fr.trigger("test", 1000.0);
        let d = fr.latest().unwrap();
        assert_eq!(d.spans.len(), 8);
        assert_eq!(d.spans[0].label, "req 92", "oldest retained span");
        assert!(d.resolves_label("req 99"));
        assert!(!d.resolves_label("req 0 "));
    }

    #[test]
    fn dumps_are_bounded_first_wins() {
        let mut fr = FlightRecorder::new(4);
        fr.record(span(1));
        for k in 0..10 {
            fr.trigger(format!("fault {k}"), k as f64);
        }
        assert_eq!(fr.dumps().len(), MAX_DUMPS);
        assert_eq!(fr.triggers(), 10);
        assert_eq!(fr.dumps()[0].reason, "fault 0");
    }

    #[test]
    fn dump_exports_chrome_trace() {
        let mut fr = FlightRecorder::new(4);
        fr.record(span(3));
        fr.trigger("alert", 50.0);
        let json = fr.latest().unwrap().to_chrome_trace(false);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("req 3"));
    }

    #[test]
    fn recorder_trait_feeds_ring() {
        let mut fr = FlightRecorder::new(4);
        assert!(Recorder::enabled(&fr));
        Recorder::record(&mut fr, span(7));
        assert_eq!(fr.len(), 1);
    }
}
