//! Host-clock spans recorded by the benchmark around its calls into
//! each layer. Spans stay in memory and are written once, at exit, as
//! a Chrome trace.

use dtu_telemetry::{Layer, Recorder, Span, SpanKind, TraceBuffer};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Spans of one traced iteration share `iteration`;
/// `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (from 1).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The traced iteration the span belongs to.
    pub iteration: u32,
    /// The layer (module name) the call went into.
    pub layer: &'static str,
    /// The call within the layer.
    pub name: &'static str,
    /// Index of the host thread that ran it.
    pub thread: u32,
    /// Start on the tracer's clock, ns.
    pub start_ns: f64,
    /// End on the tracer's clock, ns.
    pub end_ns: f64,
}

impl SpanRecord {
    /// Interval length, ns.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_index() -> u32 {
    THREAD.with(|t| *t)
}

/// Collects spans and counts from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    iteration: AtomicU32,
    /// The open iteration span (0 when none): the parent of spans that
    /// start on a thread with nothing open, such as pool workers.
    root: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            iteration: AtomicU32::new(0),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// The tracer's clock, ns since it was created.
    pub fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    /// Opens the root span of traced iteration `n`.
    pub fn iteration(&self, n: u32) -> Open<'_> {
        self.iteration.store(n, Ordering::SeqCst);
        let open = self.open(None, "bench", "iteration");
        self.root.store(open.id, Ordering::SeqCst);
        open
    }

    /// Opens a span under the innermost span open on this thread (or
    /// under the iteration span when none is).
    pub fn span(&self, layer: &'static str, name: &'static str) -> Open<'_> {
        let parent = self.current().or_else(|| self.root());
        self.open(parent, layer, name)
    }

    /// Opens a span under an explicit parent (a span opened on another
    /// thread, e.g. the plan that handed this thread its work).
    pub fn span_under(&self, parent: u64, layer: &'static str, name: &'static str) -> Open<'_> {
        self.open(Some(parent), layer, name)
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(layer, name);
        f()
    }

    /// Records an already-closed interval under the innermost open span.
    pub fn record(&self, layer: &'static str, name: &'static str, start_ns: f64, end_ns: f64) {
        let parent = self.current().or_else(|| self.root());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(SpanRecord {
            id,
            parent,
            iteration: self.iteration.load(Ordering::SeqCst),
            layer,
            name,
            thread: thread_index(),
            start_ns,
            end_ns,
        });
    }

    /// Adds `v` to the named count.
    pub fn count(&self, key: &'static str, v: f64) {
        *self
            .counts
            .lock()
            .expect("count lock poisoned by a panicking worker")
            .entry(key)
            .or_insert(0.0) += v;
    }

    /// The innermost span open on this thread.
    fn current(&self) -> Option<u64> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    fn root(&self) -> Option<u64> {
        match self.root.load(Ordering::SeqCst) {
            0 => None,
            id => Some(id),
        }
    }

    fn open(&self, parent: Option<u64>, layer: &'static str, name: &'static str) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        Open {
            tracer: self,
            id,
            parent,
            layer,
            name,
            start_ns: self.now_ns(),
        }
    }

    fn push(&self, span: SpanRecord) {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking worker")
            .push(span);
    }

    /// Every span and count recorded.
    pub fn finish(self) -> (Vec<SpanRecord>, BTreeMap<&'static str, f64>) {
        (
            self.spans
                .into_inner()
                .expect("span lock poisoned by a panicking worker"),
            self.counts
                .into_inner()
                .expect("count lock poisoned by a panicking worker"),
        )
    }
}

/// An open span; it closes (and is recorded) when dropped.
#[derive(Debug)]
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    layer: &'static str,
    name: &'static str,
    start_ns: f64,
}

impl Open<'_> {
    /// The span's id, to parent spans opened on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        let t = self.tracer;
        if t.root.load(Ordering::SeqCst) == self.id {
            t.root.store(0, Ordering::SeqCst);
        }
        t.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            iteration: t.iteration.load(Ordering::SeqCst),
            layer: self.layer,
            name: self.name,
            thread: thread_index(),
            start_ns: self.start_ns,
            end_ns: t.now_ns(),
        });
    }
}

/// Each span's self time, ns: its duration minus the part of its
/// interval that its children cover. Children that overlap each other
/// (work on parallel threads) count once, and a child sticking out of
/// its parent counts only inside it.
pub fn self_times(spans: &[SpanRecord]) -> Vec<f64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.duration_ns() - covered).max(0.0)
        })
        .collect()
}

/// Renders spans as a Chrome trace through the telemetry exporter: one
/// lane group per stack position, one lane per host thread.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut buf = TraceBuffer::new();
    for s in spans {
        let (kind, lane) = match s.layer {
            "models" | "graph" | "compiler" => (SpanKind::Compile, Layer::Compiler),
            "sim" => (SpanKind::Session, Layer::Sim),
            "serve" | "gen" | "fleet" | "monitor" => (SpanKind::Session, Layer::Serving),
            _ => (SpanKind::Session, Layer::Session),
        };
        buf.record(Span::new(
            kind,
            lane,
            s.thread,
            format!("{}.{} #{}", s.layer, s.name, s.iteration),
            s.start_ns,
            s.end_ns,
        ));
    }
    buf.to_chrome_trace(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            iteration: 1,
            layer: "x",
            name: "y",
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100] > a [10,40] > b [20,30]; c [50,60].
        let spans = [
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 40.0),
            span(3, Some(2), 20.0, 30.0),
            span(4, Some(1), 50.0, 60.0),
        ];
        assert_eq!(self_times(&spans), vec![60.0, 20.0, 10.0, 10.0]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two parallel children overlap on [30,40]; a third sticks out
        // of the parent's end.
        let spans = [
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 40.0),
            span(3, Some(1), 30.0, 60.0),
            span(4, Some(1), 90.0, 120.0),
            span(5, Some(1), 35.0, 38.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100.0 - 50.0 - 10.0);
        assert_eq!(st[3], 30.0);
    }

    #[test]
    fn tracer_links_parents_across_threads() {
        let t = Tracer::default();
        {
            let _it = t.iteration(7);
            let outer = t.span("plan", "run");
            let outer_id = outer.id();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _p = t.span_under(outer_id, "plan", "point");
                    t.time("models", "build", || ());
                });
                // Nothing open on this thread: parented to the iteration.
                s.spawn(|| t.time("sim", "walk", || ()));
            });
            t.count("cache.misses", 2.0);
        }
        let (spans, counts) = t.finish();
        let find = |name: &str| spans.iter().find(|s| s.name == name).expect(name);
        let (it, run, point) = (find("iteration"), find("run"), find("point"));
        assert_eq!(it.parent, None);
        assert_eq!(run.parent, Some(it.id));
        assert_eq!(point.parent, Some(run.id));
        assert_eq!(find("build").parent, Some(point.id));
        assert_eq!(find("walk").parent, Some(it.id));
        assert!(spans.iter().all(|s| s.iteration == 7));
        assert_eq!(counts["cache.misses"], 2.0);
        let chrome = chrome_trace(&spans);
        let events = dtu_telemetry::chrome::parse(&chrome).expect("loadable trace");
        assert_eq!(events.iter().filter(|e| e.ph == "X").count(), spans.len());
    }
}
