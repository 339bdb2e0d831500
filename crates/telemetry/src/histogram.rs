//! Log-bucketed latency histogram (HDR-style) with mergeable windows
//! and exemplars.
//!
//! Buckets grow geometrically with ratio γ = 1.04 from a 1 µs floor;
//! a bucket's reported value is the geometric mid-point √(lo·hi), so
//! any sample is reported within √γ − 1 ≈ 1.98 % of its true value —
//! the "~2 % relative error" contract the cross-check test against
//! `serve::stats::percentile` asserts. Counts are held densely over the
//! occupied bucket range — one slot per bucket from the lowest occupied
//! to the highest — so recording is an index, two histograms merge
//! exactly by adding slots (window → range quantiles), and the walk
//! order is deterministic.
//!
//! [`WindowedHistogram`] slices the stream into fixed-width simulated-
//! time windows and carries one [`Exemplar`] per window — the span id
//! of the *slowest* sample — so a p99 spike in a dashboard row links
//! directly to the trace of the request that caused it.

use std::collections::VecDeque;

/// Geometric bucket growth ratio.
const GAMMA: f64 = 1.04;
/// Lowest resolvable value; everything smaller lands in bucket 0.
const FLOOR: f64 = 1e-3;

/// A mergeable log-bucketed histogram.
///
/// `counts[i]` holds bucket `lo + i`. In a non-empty histogram the
/// first and last slots are always occupied (counts only grow, and the
/// range only widens to reach an occupied bucket), so two histograms
/// of the same samples hold the same slots and derived equality stays
/// exact. Memory follows the range, not the sample count: millisecond
/// latencies from 1 µs to 100 s span about 470 buckets; the worst case,
/// samples from the 1e-3 floor to `f64::MAX`, spans about 18.3k buckets
/// (146 KB).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    /// Bucket index of `counts[0]`.
    lo: i32,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn bucket_of(v: f64) -> i32 {
        if v <= FLOOR {
            return 0;
        }
        let ratio = v / FLOOR;
        // Above ~1.8e305 the ratio overflows to infinity, whose bucket
        // would saturate at i32::MAX and size the slots to 2^31; the
        // difference of logs does not overflow.
        let ln = if ratio.is_finite() {
            ratio.ln()
        } else {
            v.ln() - FLOOR.ln()
        };
        (ln / GAMMA.ln()).floor() as i32
    }

    /// The geometric mid-point of bucket `i`: √(lo·hi).
    fn representative(i: i32) -> f64 {
        FLOOR * GAMMA.powf(i as f64 + 0.5)
    }

    /// Widens the slots to cover buckets `lo..=hi`.
    fn cover(&mut self, lo: i32, hi: i32) {
        if self.counts.is_empty() {
            self.lo = lo;
        } else if lo < self.lo {
            let grow = (self.lo - lo) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.lo = lo;
        }
        let len = (hi - self.lo) as usize + 1;
        if len > self.counts.len() {
            self.counts.resize(len, 0);
        }
    }

    /// Records one sample. Non-finite or negative samples clamp to 0.
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        let b = Self::bucket_of(v);
        self.cover(b, b);
        self.counts[(b - self.lo) as usize] += 1;
        if self.total == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.total += 1;
        self.sum += v;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges `other` into `self` (exact — bucket counts add).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        self.cover(other.lo, other.lo + other.counts.len() as i32 - 1);
        let from = (other.lo - self.lo) as usize;
        for (c, &o) in self.counts[from..].iter_mut().zip(&other.counts) {
            *c += o;
        }
        if self.total == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Nearest-rank quantile, same rank convention as
    /// `serve::stats::percentile`: rank = round((n − 1)·q).
    ///
    /// The extreme ranks return the exact tracked min/max (so a
    /// single-sample histogram is exact at every quantile); interior
    /// ranks return the bucket mid-point, within ~2 % of the true
    /// sample. Empty histograms return 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.total - 1) as f64 * q).round() as u64;
        if rank == 0 {
            return self.min;
        }
        if rank == self.total - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (b, &c) in (self.lo..).zip(&self.counts) {
            seen += c;
            if seen > rank {
                // Clamp the bucket mid-point into the observed range so
                // edge buckets never report outside [min, max].
                return Self::representative(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Number of occupied buckets (diagnostics).
    pub fn buckets(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

/// The span id of the slowest sample in a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// Span identity (the serving request id).
    pub span_id: u64,
    /// The sample's value (latency, ms).
    pub value: f64,
    /// When the sample completed, shared clock ns.
    pub at_ns: f64,
}

/// One time window of a [`WindowedHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramWindow {
    /// Window start on the shared clock, ns.
    pub start_ns: f64,
    /// Samples that completed inside the window.
    pub hist: LogHistogram,
    /// Slowest sample's exemplar, when any sample carried a span id.
    pub exemplar: Option<Exemplar>,
}

/// A bounded ring of per-window histograms with exemplars.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    window_ns: f64,
    cap: usize,
    /// Sparse `(window_index, window)` pairs, oldest first.
    windows: VecDeque<(u64, HistogramWindow)>,
}

impl WindowedHistogram {
    /// Creates a ring of at most `cap` windows, each `window_ns` wide.
    ///
    /// # Panics
    /// Panics if `window_ns` is not positive or `cap` is zero.
    pub fn new(window_ns: f64, cap: usize) -> Self {
        assert!(window_ns > 0.0, "window width must be positive");
        assert!(cap > 0, "ring capacity must be positive");
        WindowedHistogram {
            window_ns,
            cap,
            windows: VecDeque::new(),
        }
    }

    /// Records a sample completing at `t_ns`, optionally tagged with
    /// the span id that produced it (for exemplars). Time may step back
    /// (the fleet folds one chip's log after another): a missing older
    /// window is inserted in order, unless the ring is full and the
    /// window is older than everything it retains.
    pub fn record(&mut self, t_ns: f64, value: f64, span_id: Option<u64>) {
        let idx = (t_ns.max(0.0) / self.window_ns) as u64;
        let mut pos = match self.windows.back() {
            Some(&(last, _)) if last == idx => self.windows.len() - 1,
            _ => self.windows.partition_point(|&(i, _)| i < idx),
        };
        if self.windows.get(pos).is_none_or(|&(i, _)| i != idx) {
            if self.windows.len() == self.cap {
                if pos == 0 {
                    return; // older than retained history
                }
                self.windows.pop_front();
                pos -= 1;
            }
            let window = HistogramWindow {
                start_ns: idx as f64 * self.window_ns,
                hist: LogHistogram::new(),
                exemplar: None,
            };
            self.windows.insert(pos, (idx, window));
        }
        let w = &mut self.windows[pos].1;
        w.hist.record(value);
        if let Some(id) = span_id {
            let slower = match w.exemplar {
                Some(e) => value > e.value,
                None => true,
            };
            if slower {
                w.exemplar = Some(Exemplar {
                    span_id: id,
                    value,
                    at_ns: t_ns,
                });
            }
        }
    }

    /// Merges every window whose start lies in `[now − span, now]` into
    /// one histogram (clamped to retained history).
    pub fn merged_over(&self, now_ns: f64, span_ns: f64) -> LogHistogram {
        let from = (now_ns - span_ns).max(0.0);
        let mut out = LogHistogram::new();
        for (_, w) in &self.windows {
            if w.start_ns >= from && w.start_ns <= now_ns {
                out.merge(&w.hist);
            }
        }
        out
    }

    /// Merges all retained windows.
    pub fn merged(&self) -> LogHistogram {
        let mut out = LogHistogram::new();
        for (_, w) in &self.windows {
            out.merge(&w.hist);
        }
        out
    }

    /// The slowest exemplar across windows starting in
    /// `[now − span, now]`.
    pub fn exemplar_over(&self, now_ns: f64, span_ns: f64) -> Option<Exemplar> {
        let from = (now_ns - span_ns).max(0.0);
        let mut best: Option<Exemplar> = None;
        for (_, w) in &self.windows {
            if w.start_ns >= from && w.start_ns <= now_ns {
                if let Some(e) = w.exemplar {
                    let better = match best {
                        Some(b) => e.value > b.value,
                        None => true,
                    };
                    if better {
                        best = Some(e);
                    }
                }
            }
        }
        best
    }

    /// Iterates retained windows, oldest first.
    pub fn windows(&self) -> impl DoubleEndedIterator<Item = &HistogramWindow> + '_ {
        self.windows.iter().map(|(_, w)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_and_single_sample() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
        h.record(7.25);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7.25, "single sample is exact");
        }
        assert_eq!(h.mean(), 7.25);
    }

    #[test]
    fn relative_error_bound() {
        let mut h = LogHistogram::new();
        let mut samples: Vec<f64> = Vec::new();
        // A geometric sweep through five decades.
        let mut v = 0.01;
        while v < 1000.0 {
            h.record(v);
            samples.push(v);
            v *= 1.07;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = samples.len();
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let rank = ((n - 1) as f64 * q).round() as usize;
            let exact = samples[rank];
            let approx = h.quantile(q);
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= 0.02,
                "q={q}: exact {exact} approx {approx} rel {rel}"
            );
        }
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for i in 0..100 {
            let v = 1.0 + i as f64 * 0.37;
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn sub_floor_values_land_in_bucket_zero() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(1e-9);
        h.record(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets(), 1);
        assert!(h.quantile(0.5) <= h.max(), "mid-rank clamps into [min,max]");
    }

    #[test]
    fn worst_case_range_is_about_18k_buckets() {
        let mut h = LogHistogram::new();
        h.record(FLOOR);
        h.record(1e306);
        h.record(f64::MAX);
        assert_eq!(h.counts.len(), 18_274, "floor to f64::MAX");
        assert_eq!(h.buckets(), 3);
        assert_eq!(h.quantile(1.0), f64::MAX);
    }

    /// The sorted-map histogram the dense one replaced, kept as the
    /// model its counts, extremes and quantile walk must match.
    #[derive(Debug, Clone, Default)]
    struct Model {
        counts: BTreeMap<i32, u64>,
        total: u64,
        sum: f64,
        min: f64,
        max: f64,
    }

    impl Model {
        fn record(&mut self, v: f64) {
            let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
            *self.counts.entry(LogHistogram::bucket_of(v)).or_insert(0) += 1;
            if self.total == 0 {
                self.min = v;
                self.max = v;
            } else {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            self.total += 1;
            self.sum += v;
        }

        fn merge(&mut self, other: &Model) {
            if other.total == 0 {
                return;
            }
            for (&b, &c) in &other.counts {
                *self.counts.entry(b).or_insert(0) += c;
            }
            if self.total == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
            self.total += other.total;
            self.sum += other.sum;
        }

        fn quantile(&self, q: f64) -> f64 {
            if self.total == 0 {
                return 0.0;
            }
            let rank = ((self.total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
            if rank == 0 {
                return self.min;
            }
            if rank == self.total - 1 {
                return self.max;
            }
            let mut seen = 0u64;
            for (&b, &c) in &self.counts {
                seen += c;
                if seen > rank {
                    return LogHistogram::representative(b).clamp(self.min, self.max);
                }
            }
            self.max
        }
    }

    /// One drawn sample: a special value, or a multiple of 2^-30 below
    /// 2^12 spread over 23 octaves (sub-floor ones included).
    fn sample((kind, mantissa, octave): (u8, u64, i32)) -> f64 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => -(mantissa as f64),
            _ => mantissa as f64 * 2f64.powi(octave - 30),
        }
    }

    fn assert_matches(h: &LogHistogram, m: &Model) {
        assert_eq!(h.count(), m.total);
        let empty = m.total == 0;
        assert_eq!(h.min(), if empty { 0.0 } else { m.min });
        assert_eq!(h.max(), if empty { 0.0 } else { m.max });
        assert_eq!(h.mean(), if empty { 0.0 } else { m.sum / m.total as f64 });
        assert_eq!(h.buckets(), m.counts.len());
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), m.quantile(q), "q={q}");
        }
    }

    proptest! {
        /// Random samples split into random parts, recorded part by
        /// part and merged in a random order, against the sorted-map
        /// model fed the same way. Finite samples are multiples of
        /// 2^-30 whose total stays below 2^23, and 1e300 appears at
        /// most six times (k·1e300 is exact in f64 for k ≤ 6), so the
        /// sum is the same in every order and a merged histogram can
        /// equal the single-pass one bit for bit.
        #[test]
        fn dense_buckets_match_the_sorted_map_model(
            draws in prop::collection::vec(
                ((0u8..12, 1u64..(1 << 20), 0i32..23), 0usize..5),
                0..300,
            ),
            huge in prop::collection::vec(0usize..5, 0..7),
            order in prop::collection::vec(0u64..1_000_000, 5),
        ) {
            let mut samples: Vec<(f64, usize)> =
                draws.iter().map(|&(d, part)| (sample(d), part)).collect();
            samples.extend(huge.iter().map(|&part| (1e300, part)));
            let mut parts = vec![(LogHistogram::new(), Model::default()); 5];
            let mut single = LogHistogram::new();
            let mut single_model = Model::default();
            for &(v, part) in &samples {
                parts[part].0.record(v);
                parts[part].1.record(v);
                single.record(v);
                single_model.record(v);
            }
            assert_matches(&single, &single_model);
            let mut by_order: Vec<usize> = (0..parts.len()).collect();
            by_order.sort_by_key(|&p| (order[p], p));
            let mut merged = LogHistogram::new();
            let mut merged_model = Model::default();
            for p in by_order {
                assert_matches(&parts[p].0, &parts[p].1);
                merged.merge(&parts[p].0);
                merged_model.merge(&parts[p].1);
                assert_matches(&merged, &merged_model);
            }
            prop_assert_eq!(&merged, &single);
        }
    }

    #[test]
    fn windowed_exemplar_tracks_slowest() {
        let mut wh = WindowedHistogram::new(1e9, 8);
        wh.record(0.2e9, 5.0, Some(11));
        wh.record(0.4e9, 9.0, Some(12));
        wh.record(0.6e9, 7.0, Some(13));
        wh.record(1.2e9, 3.0, Some(14));
        let e = wh.exemplar_over(1.5e9, 2e9).unwrap();
        assert_eq!(e.span_id, 12);
        assert_eq!(e.value, 9.0);
        // Restricting to the second window picks its own exemplar.
        let e2 = wh.exemplar_over(1.5e9, 0.5e9).unwrap();
        assert_eq!(e2.span_id, 14);
    }

    #[test]
    fn windowed_merge_matches_flat() {
        let mut wh = WindowedHistogram::new(1e9, 64);
        let mut flat = LogHistogram::new();
        for i in 0..500 {
            let t = i as f64 * 2e7;
            let v = 1.0 + (i % 37) as f64;
            wh.record(t, v, None);
            flat.record(v);
        }
        assert_eq!(wh.merged(), flat);
        assert_eq!(
            wh.merged_over(1e10, 1e12).count(),
            flat.count(),
            "span larger than history covers everything"
        );
    }

    #[test]
    fn a_sample_stepping_back_inserts_its_window_in_order() {
        let mut wh = WindowedHistogram::new(1e9, 3);
        wh.record(2.5e9, 6.0, Some(201));
        wh.record(0.5e9, 3.0, Some(101));
        wh.record(2.2e9, 9.0, Some(202));
        let starts: Vec<f64> = wh.windows().map(|w| w.start_ns).collect();
        assert_eq!(starts, [0.0, 2e9]);
        assert_eq!(wh.exemplar_over(0.9e9, 1e9).unwrap().span_id, 101);
        assert_eq!(wh.exemplar_over(2.9e9, 0.9e9).unwrap().span_id, 202);
        // A full ring evicts its oldest window for a missing one inside
        // its range, and drops a sample older than everything it holds.
        wh.record(3.5e9, 1.0, None);
        wh.record(1.5e9, 2.0, None);
        let starts: Vec<f64> = wh.windows().map(|w| w.start_ns).collect();
        assert_eq!(starts, [1e9, 2e9, 3e9]);
        wh.record(0.2e9, 2.0, None);
        assert_eq!(wh.merged().count(), 4);
    }

    #[test]
    fn windowed_ring_evicts() {
        let mut wh = WindowedHistogram::new(1e9, 2);
        wh.record(0.5e9, 1.0, None);
        wh.record(1.5e9, 2.0, None);
        wh.record(2.5e9, 3.0, None);
        assert_eq!(wh.windows().count(), 2);
        assert_eq!(wh.merged().count(), 2);
        // A sample for an evicted window is dropped, not misfiled.
        wh.record(0.6e9, 9.0, None);
        assert_eq!(wh.merged().count(), 2);
    }
}
