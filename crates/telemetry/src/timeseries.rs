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
    /// Time may step back (the fleet folds one chip's log after
    /// another): a sample older than the oldest window grows the ring
    /// backwards while it has room, and is dropped once it is full.
    pub fn add(&mut self, t_ns: f64, v: f64) {
        let idx = self.index_of(t_ns);
        if let Some(w) = self.windows.back_mut().filter(|w| w.0 == idx) {
            w.1 += v;
            return;
        }
        self.advance(t_ns);
        while let Some(&(first, _)) = self.windows.front() {
            if first <= idx || self.windows.len() == self.cap {
                break;
            }
            self.windows.push_front((first - 1, 0.0));
        }
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

    /// Iterates retained `(window_start_ns, sum)` pairs, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.windows
            .iter()
            .map(move |&(i, v)| (i as f64 * self.window_ns, v))
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
        assert_eq!(ts.windows().count(), 3);
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
        assert_eq!(ts.windows().count(), 4);
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
        assert_eq!(ts.windows().count(), 4, "gap fills to capacity with zeros");
        assert_eq!(ts.total(), 2.0);
    }

    #[test]
    fn a_sample_stepping_back_lands_in_its_own_window() {
        let mut ts = TimeSeries::new(1e9, 8);
        ts.add(2.5e9, 1.0);
        ts.add(0.5e9, 2.0);
        ts.add(1.5e9, 4.0);
        let w: Vec<(f64, f64)> = ts.windows().collect();
        assert_eq!(w, vec![(0.0, 2.0), (1e9, 4.0), (2e9, 1.0)]);
    }

    #[test]
    fn late_samples_are_dropped() {
        let mut ts = TimeSeries::new(1e9, 2);
        ts.add(5.5e9, 1.0);
        ts.add(0.5e9, 9.0); // far older than retained history
        assert_eq!(ts.total(), 1.0);
    }
}
