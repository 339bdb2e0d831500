//! Windowed time-series: fixed-width windows over the shared ns clock.
//!
//! A [`TimeSeries`] is a bounded ring of equal-width time windows, each
//! accumulating a sum (arrivals, sheds, violations, occupancy·time, …).
//! Windows are dense — advancing the clock past a quiet period inserts
//! explicit zero windows — so range queries ("events in the last 5 s")
//! are exact over whatever history the ring still holds, and two series
//! with the same geometry stay aligned window-for-window (the property
//! the SLO burn-rate ratio relies on).
//!
//! Everything is driven by *simulated* time stamps, so the series is
//! deterministic: the same event stream produces the same windows
//! regardless of wall-clock, thread count, or cache temperature.

use std::collections::VecDeque;

/// A bounded ring of fixed-width accumulator windows.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window_ns: f64,
    cap: usize,
    /// Dense `(window_index, sum)` pairs, oldest first.
    windows: VecDeque<(u64, f64)>,
}

impl TimeSeries {
    /// Creates a series of `cap` windows, each `window_ns` wide.
    ///
    /// # Panics
    /// Panics if `window_ns` is not positive or `cap` is zero.
    pub fn new(window_ns: f64, cap: usize) -> Self {
        assert!(window_ns > 0.0, "window width must be positive");
        assert!(cap > 0, "ring capacity must be positive");
        TimeSeries {
            window_ns,
            cap,
            windows: VecDeque::new(),
        }
    }

    /// The window index covering `t_ns`.
    fn index_of(&self, t_ns: f64) -> u64 {
        (t_ns.max(0.0) / self.window_ns) as u64
    }

    /// Advances the ring so its newest window covers `t_ns`, inserting
    /// zero windows for any gap and evicting beyond capacity.
    pub fn advance(&mut self, t_ns: f64) {
        let idx = self.index_of(t_ns);
        let mut next = match self.windows.back() {
            Some(&(last, _)) if last >= idx => return,
            Some(&(last, _)) => last + 1,
            None => idx,
        };
        // A gap larger than the ring means everything old is evicted
        // anyway; skip straight to the retained range.
        if idx - next >= self.cap as u64 {
            self.windows.clear();
            next = idx + 1 - self.cap as u64;
        }
        while next <= idx {
            if self.windows.len() == self.cap {
                self.windows.pop_front();
            }
            self.windows.push_back((next, 0.0));
            next += 1;
        }
    }

    /// Adds `v` into the window covering `t_ns`, advancing the ring.
    /// Samples older than the retained history are dropped.
    pub fn add(&mut self, t_ns: f64, v: f64) {
        self.advance(t_ns);
        let idx = self.index_of(t_ns);
        if let Some(&(first, _)) = self.windows.front() {
            if idx < first {
                return; // older than retained history
            }
            let pos = (idx - first) as usize;
            if let Some(w) = self.windows.get_mut(pos) {
                w.1 += v;
            }
        }
    }

    /// Sum over every retained window; +0.0 when there is none.
    pub fn total(&self) -> f64 {
        self.windows.iter().fold(0.0, |sum, &(_, v)| sum + v)
    }

    /// Sum over windows whose *start* lies in `[now_ns − span_ns, now_ns]`;
    /// +0.0 when none does.
    ///
    /// The range is clamped to retained history; pair this with
    /// [`covered_ns`](Self::covered_ns) when the clamp matters.
    pub fn sum_over(&self, now_ns: f64, span_ns: f64) -> f64 {
        let from = self.index_of((now_ns - span_ns).max(0.0));
        let to = self.index_of(now_ns);
        self.windows
            .iter()
            .filter(|&&(i, _)| i >= from && i <= to)
            .fold(0.0, |sum, &(_, v)| sum + v)
    }

    /// How much history (ns) actually backs a `sum_over(now, span)`
    /// query — less than `span_ns` early in a run or after eviction.
    pub fn covered_ns(&self, now_ns: f64, span_ns: f64) -> f64 {
        let from_ns = (now_ns - span_ns).max(0.0);
        match self.windows.front() {
            None => 0.0,
            Some(&(first, _)) => {
                let first_ns = first as f64 * self.window_ns;
                (now_ns - first_ns.max(from_ns)).max(0.0)
            }
        }
    }

    /// Events per simulated second over the trailing `span_ns`.
    pub fn rate_per_sec(&self, now_ns: f64, span_ns: f64) -> f64 {
        let covered = self.covered_ns(now_ns, span_ns);
        if covered <= 0.0 {
            return 0.0;
        }
        self.sum_over(now_ns, span_ns) / (covered / 1e9)
    }

    /// Merges `other`'s windows into `self`, shifting every window by
    /// `offset_ns` on the shared clock.
    ///
    /// This is the fleet rollup path: a per-chip series recorded on an
    /// epoch-local clock folds into a fleet-wide series by offsetting
    /// with the epoch start. Windows need not share alignment — each
    /// shifted window's sum lands in whichever of `self`'s windows
    /// covers its start. Sums older than `self`'s retained history are
    /// dropped, exactly as [`add`](Self::add) drops late samples.
    pub fn merge_offset(&mut self, other: &TimeSeries, offset_ns: f64) {
        for (start_ns, sum) in other.windows() {
            if sum != 0.0 {
                self.add(start_ns + offset_ns, sum);
            }
        }
    }

    /// Iterates retained `(window_start_ns, sum)` pairs, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.windows
            .iter()
            .map(move |&(i, v)| (i as f64 * self.window_ns, v))
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_windows_and_sums() {
        let mut ts = TimeSeries::new(1e9, 8);
        ts.add(0.5e9, 1.0);
        ts.add(0.7e9, 1.0);
        ts.add(2.1e9, 3.0); // skips window 1 → a zero window is inserted
        assert_eq!(ts.len(), 3);
        let w: Vec<(f64, f64)> = ts.windows().collect();
        assert_eq!(w, vec![(0.0, 2.0), (1e9, 0.0), (2e9, 3.0)]);
        assert_eq!(ts.total(), 5.0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ts = TimeSeries::new(1e9, 4);
        for i in 0..10 {
            ts.add(i as f64 * 1e9 + 0.5e9, 1.0);
        }
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.total(), 4.0);
        let first = ts.windows().next().unwrap();
        assert_eq!(first.0, 6e9);
    }

    #[test]
    fn sum_over_clamps_to_history() {
        let mut ts = TimeSeries::new(1e9, 64);
        ts.add(0.5e9, 2.0);
        ts.add(1.5e9, 4.0);
        // Query a 60 s span with only 2 s of history.
        assert_eq!(ts.sum_over(1.9e9, 60e9), 6.0);
        assert!(ts.covered_ns(1.9e9, 60e9) <= 2e9);
        // A 1 s span at t=1.9 s covers windows 0 and 1 (window starts
        // within the range), not less.
        assert_eq!(ts.sum_over(1.9e9, 1e9), 6.0);
        // No window in range sums to +0.0 (an `Iterator::sum` of no f64
        // is -0.0, which prints as "-0.00").
        assert!(ts.sum_over(90e9, 1e9).is_sign_positive());
        assert!(TimeSeries::new(1e9, 8).total().is_sign_positive());
    }

    #[test]
    fn rate_uses_covered_history() {
        let mut ts = TimeSeries::new(1e9, 64);
        for i in 0..5 {
            ts.add(i as f64 * 1e9 + 0.1e9, 10.0);
        }
        let now = 4.9e9;
        let r = ts.rate_per_sec(now, 5e9);
        assert!((r - 50.0 / 4.9).abs() < 1e-9, "r = {r}");
    }

    #[test]
    fn large_gap_clears_ring() {
        let mut ts = TimeSeries::new(1e9, 4);
        ts.add(0.5e9, 1.0);
        ts.add(1000.5e9, 2.0);
        assert_eq!(ts.len(), 4, "gap fills to capacity with zeros");
        assert_eq!(ts.total(), 2.0);
    }

    #[test]
    fn merge_offset_shifts_and_adds() {
        let mut fleet = TimeSeries::new(1e9, 16);
        fleet.add(0.5e9, 1.0);
        // Chip series recorded on an epoch-local clock, epoch at 2 s.
        let mut chip = TimeSeries::new(1e9, 16);
        chip.add(0.2e9, 3.0);
        chip.add(1.4e9, 5.0);
        fleet.merge_offset(&chip, 2e9);
        let w: Vec<(f64, f64)> = fleet.windows().collect();
        assert_eq!(w, vec![(0.0, 1.0), (1e9, 0.0), (2e9, 3.0), (3e9, 5.0)]);
        // A second chip merging into the *same* (now older) windows
        // still lands in place, not in the newest window.
        let mut other = TimeSeries::new(1e9, 16);
        other.add(0.1e9, 7.0);
        fleet.merge_offset(&other, 2e9);
        assert_eq!(fleet.sum_over(2.5e9, 0.9e9), 10.0);
        assert_eq!(fleet.total(), 16.0);
    }

    #[test]
    fn late_samples_are_dropped() {
        let mut ts = TimeSeries::new(1e9, 2);
        ts.add(5.5e9, 1.0);
        ts.add(0.5e9, 9.0); // far older than retained history
        assert_eq!(ts.total(), 1.0);
    }
}
