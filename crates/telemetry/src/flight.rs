//! Flight recorder: a bounded "black box" of recent activity.
//!
//! The recorder keeps the last `capacity` records in a ring — O(1) per
//! record, no growth, nothing exported. A record is whatever small
//! typed value its monitor chooses (a [`FlightRecord`]): ids, times
//! and a kind, with no label. So the ring is cheap while the system is
//! healthy, and most records are evicted without ever being rendered.
//! The moment something goes wrong (a burn-rate alert fires, a
//! `FaultKind` lands), [`FlightRecorder::trigger`] freezes the ring
//! into a [`FlightDump`]: the records become [`Span`]s, labels
//! included, through [`FlightRecord::to_span`]. The dump is a
//! self-contained snapshot of what the system was doing *leading up
//! to* the incident, exportable as a Perfetto/Chrome trace via
//! [`FlightDump::to_chrome_trace`].
//!
//! Dumps are bounded (first incidents win) so a fault storm cannot turn
//! the black box into an unbounded allocation; a trigger past the cap
//! renders nothing, not even its reason.

use crate::chrome;
use crate::monitor::RING_WINDOWS;
use crate::slo::EVAL_WINDOW_NS;
use crate::span::Span;
use std::collections::VecDeque;
use std::fmt;

/// Default ring capacity (records).
pub const DEFAULT_CAPACITY: usize = 4096;
/// Maximum retained dumps; later triggers are counted but not stored.
pub const MAX_DUMPS: usize = 4;

/// One entry of a flight ring: a small typed record that renders into
/// a [`Span`] only when a dump is taken.
pub trait FlightRecord {
    /// The span this record stands for, label included.
    fn to_span(&self) -> Span;
}

/// One frozen snapshot of the ring.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the dump was taken (alert or fault label).
    pub reason: String,
    /// When the trigger landed, shared clock ns.
    pub at_ns: f64,
    /// The ring contents at trigger time, oldest first. A monitor may
    /// put a record the ring has evicted before them (a page's
    /// exemplar request).
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

/// Bounded ring of recent records with on-trigger snapshots.
#[derive(Debug, Clone)]
pub struct FlightRecorder<R> {
    capacity: usize,
    ring: VecDeque<R>,
    dumps: Vec<FlightDump>,
    triggers: u64,
}

impl<R: FlightRecord> FlightRecorder<R> {
    /// Creates a recorder keeping at most `capacity` recent records.
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

    /// Appends a record, evicting the oldest when full.
    pub fn record(&mut self, record: R) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(record);
    }

    /// Freezes the current ring into a dump, rendering every record
    /// and `reason`. Dumps beyond [`MAX_DUMPS`] are counted but not
    /// stored (first incidents win) and render nothing.
    pub fn trigger(&mut self, reason: impl fmt::Display, at_ns: f64) {
        self.freeze(reason, at_ns);
    }

    /// Freezes the ring for a burn-rate page whose exemplar is
    /// `exemplar` (the record a caller kept in [`SlowestRecords`]). When
    /// the ring has already evicted it, the dump shows it first, so a
    /// page's dump always holds the request the page names.
    pub fn trigger_page(&mut self, reason: impl fmt::Display, at_ns: f64, exemplar: Option<&R>)
    where
        R: PartialEq,
    {
        let evicted = exemplar.filter(|e| !self.ring.contains(e));
        if let (Some(dump), Some(e)) = (self.freeze(reason, at_ns), evicted) {
            dump.spans.insert(0, e.to_span());
        }
    }

    fn freeze(&mut self, reason: impl fmt::Display, at_ns: f64) -> Option<&mut FlightDump> {
        self.triggers += 1;
        if self.dumps.len() >= MAX_DUMPS {
            return None;
        }
        let spans = self.spans().collect();
        self.dumps.push(FlightDump {
            reason: reason.to_string(),
            at_ns,
            spans,
        });
        self.dumps.last_mut()
    }

    /// Records currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Records the ring holds before it evicts the oldest.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Renders the ring's records into spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.ring.iter().map(R::to_span)
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

/// The record of each recent window's slowest sample — the sample a
/// burn-rate page names as its exemplar — kept apart from the ring for
/// [`FlightRecorder::trigger_page`]. It keeps as many windows as a
/// monitor's latency histogram ([`RING_WINDOWS`]), so every exemplar
/// the histogram can name has its record.
#[derive(Debug, Clone)]
pub struct SlowestRecords<R> {
    /// `(window, value, record)`, oldest window first.
    windows: VecDeque<(u64, f64, R)>,
}

impl<R> Default for SlowestRecords<R> {
    fn default() -> Self {
        SlowestRecords {
            windows: VecDeque::new(),
        }
    }
}

impl<R> SlowestRecords<R> {
    /// Notes a sample of `value` taken at `t_ns` and recorded as
    /// `record`. It is kept while it is the slowest of its 1 s window;
    /// as with the histogram's exemplar, the first of equals wins. Time
    /// may step back, as when the fleet folds one chip's log after
    /// another.
    pub fn note(&mut self, t_ns: f64, value: f64, record: R) {
        let window = (t_ns.max(0.0) / EVAL_WINDOW_NS) as u64;
        let pos = match self.windows.back() {
            Some(&(w, ..)) if w == window => self.windows.len() - 1,
            _ => self.windows.partition_point(|&(w, ..)| w < window),
        };
        match self.windows.get_mut(pos) {
            Some((w, slowest, r)) if *w == window => {
                if value > *slowest {
                    *slowest = value;
                    *r = record;
                }
            }
            _ => {
                self.windows.insert(pos, (window, value, record));
                if self.windows.len() > RING_WINDOWS {
                    self.windows.pop_front();
                }
            }
        }
    }

    /// The kept record `names` picks, newest window first.
    pub fn find(&self, names: impl Fn(&R) -> bool) -> Option<&R> {
        self.windows
            .iter()
            .rev()
            .map(|(_, _, r)| r)
            .find(|r| names(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Layer, SpanKind};

    /// A request completion: an id and its completion time.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Req(usize);

    impl FlightRecord for Req {
        fn to_span(&self) -> Span {
            let i = self.0;
            Span::new(
                SpanKind::Request,
                Layer::Serving,
                0,
                format!("req {i}"),
                i as f64 * 10.0,
                i as f64 * 10.0 + 5.0,
            )
        }
    }

    #[test]
    fn ring_is_bounded() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..100 {
            fr.record(Req(i));
        }
        assert_eq!(fr.len(), 8);
        fr.trigger("test", 1000.0);
        let d = fr.latest().unwrap();
        assert_eq!(d.spans.len(), 8);
        assert_eq!(d.spans[0].label, "req 92", "oldest retained span");
        assert_eq!(d.spans[0].start_ns, 920.0);
        assert!(d.resolves_label("req 99"));
        assert!(!d.resolves_label("req 0 "));
    }

    #[test]
    fn dumps_are_bounded_first_wins() {
        let mut fr = FlightRecorder::new(4);
        fr.record(Req(1));
        for k in 0..10 {
            fr.trigger(format_args!("fault {k}"), k as f64);
        }
        assert_eq!(fr.dumps().len(), MAX_DUMPS);
        assert_eq!(fr.triggers(), 10);
        assert_eq!(fr.dumps()[0].reason, "fault 0");
    }

    #[test]
    fn a_page_dump_shows_its_evicted_exemplar_first() {
        let mut slowest = SlowestRecords::default();
        let mut fr = FlightRecorder::new(4);
        for (i, latency) in [(0, 1.0), (1, 9.0), (2, 9.0), (3, 2.0)] {
            fr.record(Req(i));
            slowest.note(i as f64 * 1e8, latency, Req(i));
        }
        let kept = slowest.find(|r| r.0 == 1);
        assert!(kept.is_some(), "the first of equals stays the slowest");
        assert!(slowest.find(|r| r.0 == 2).is_none());
        fr.trigger_page("in the ring", 1.0, kept);
        assert_eq!(fr.latest().unwrap().spans.len(), 4, "nothing added");
        for i in 4..8 {
            fr.record(Req(i));
        }
        fr.trigger_page("evicted", 2.0, kept);
        let labels: Vec<&str> = fr
            .latest()
            .unwrap()
            .spans
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(labels, ["req 1", "req 4", "req 5", "req 6", "req 7"]);
    }

    #[test]
    fn slowest_records_cover_the_fast_window() {
        let mut slowest = SlowestRecords::default();
        let windows = RING_WINDOWS + 2;
        for w in 0..windows {
            slowest.note(w as f64 * EVAL_WINDOW_NS, 1.0, Req(w));
        }
        let kept = (0..windows).filter(|&w| slowest.find(|r| r.0 == w).is_some());
        assert!(
            kept.eq(2..windows),
            "the newest windows, fast window included"
        );
        // A window noted out of order keeps its own slowest record, and
        // one older than the kept windows is dropped.
        slowest.note(5.5 * EVAL_WINDOW_NS, 2.0, Req(1000));
        slowest.note(EVAL_WINDOW_NS, 9.0, Req(1001));
        assert!(slowest.find(|r| r.0 == 1000).is_some());
        assert!(slowest.find(|r| r.0 == 5).is_none());
        assert!(slowest.find(|r| r.0 == 1001).is_none());
    }

    #[test]
    fn dump_exports_chrome_trace() {
        let mut fr = FlightRecorder::new(4);
        fr.record(Req(3));
        fr.trigger("alert", 50.0);
        let json = fr.latest().unwrap().to_chrome_trace(false);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("req 3"));
    }
}
