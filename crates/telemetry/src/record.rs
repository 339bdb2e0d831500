//! The [`Recorder`] trait — the one seam every layer of the stack
//! reports through — plus its two stock implementations.

use crate::counters::CounterSnapshot;
use crate::span::Span;

/// Receives spans and counter snapshots from instrumented code.
///
/// Call sites MUST gate any work done purely to build a span (label
/// formatting, counter snapshotting) on [`Recorder::enabled`]:
///
/// ```
/// # use dtu_telemetry::{NullRecorder, Recorder, Span, SpanKind, Layer};
/// # let mut rec = NullRecorder;
/// # let t = 0.0;
/// if rec.enabled() {
///     let label = format!("kernel {}", 42); // only pay this when tracing
///     rec.record(Span::new(SpanKind::Kernel, Layer::Sim, 0, label, t, t + 10.0));
/// }
/// ```
///
/// With the [`NullRecorder`] that discipline makes instrumentation a
/// predictable untaken branch: no per-event heap allocation, no change
/// to any computed number.
pub trait Recorder {
    /// Whether this recorder keeps anything. `false` promises that
    /// `record`/`snapshot` are no-ops, letting call sites skip span
    /// construction entirely.
    fn enabled(&self) -> bool;

    /// Records one span.
    fn record(&mut self, span: Span);

    /// Records a full counter snapshot taken at a span boundary.
    /// Default: dropped.
    fn snapshot(&mut self, _snap: CounterSnapshot) {}
}

/// The disabled recorder: everything is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _span: Span) {}
}

/// An in-memory recorder that keeps every span and snapshot, with
/// export and query helpers.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    spans: Vec<Span>,
    snapshots: Vec<CounterSnapshot>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        TraceBuffer::default()
    }

    /// All recorded spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All recorded counter snapshots, in record order.
    pub fn snapshots(&self) -> &[CounterSnapshot] {
        &self.snapshots
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Exports the buffer as a Chrome-trace / Perfetto JSON array.
    /// See [`crate::chrome::export`] for the `rich` flag.
    pub fn to_chrome_trace(&self, rich: bool) -> String {
        crate::chrome::export(&self.spans, rich)
    }
}

impl Recorder for TraceBuffer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    fn snapshot(&mut self, snap: CounterSnapshot) {
        self.snapshots.push(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSet;
    use crate::span::{Layer, SpanKind};

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(Span::marker(Layer::Sim, 0, "x", 0.0));
        r.snapshot(CounterSnapshot {
            at_ns: 0.0,
            label: "chip".into(),
            set: CounterSet::new(),
        });
    }

    #[test]
    fn buffer_keeps_spans_and_snapshots() {
        let mut b = TraceBuffer::new();
        assert!(b.is_empty());
        b.record(Span::new(SpanKind::Kernel, Layer::Sim, 0, "k", 10.0, 20.0));
        b.snapshot(CounterSnapshot {
            at_ns: 20.0,
            label: "chip".into(),
            set: CounterSet::new(),
        });
        assert_eq!(b.spans()[0].start_ns, 10.0);
        assert_eq!(b.spans()[0].end_ns, 20.0);
        assert_eq!(b.snapshots()[0].at_ns, 20.0);
        assert_eq!(b.len(), 1);
    }
}
