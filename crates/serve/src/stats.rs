//! Latency statistics shared by the serving layers.
//!
//! The discrete-event engines and the closed-form M/D/1 cross-check in
//! the crate's tests report percentiles; this module is the single,
//! tested implementation they all use.

use std::fmt;

/// Nearest-rank percentile over **sorted** data.
///
/// The rank is `round((n - 1) · p)` — the convention the original
/// serving model shipped with, kept so historical numbers are stable:
/// `p = 0` is the minimum, `p = 1` the maximum, `p = 0.5` the lower of
/// the two middle elements rounded to the nearer rank. No
/// interpolation is performed: the result is always an observed value.
///
/// Returns `0.0` for an empty slice (a serving run with no completed
/// requests has no tail to report).
///
/// # Panics
///
/// Debug-asserts that the input is sorted and `p` is in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0,1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile input must be sorted"
    );
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Summary statistics of a latency sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyStats {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean, ms.
    pub mean_ms: f64,
    /// Median (nearest-rank), ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Largest observed latency, ms.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Builds the summary from an unsorted latency sample (the sample
    /// is sorted in place, as [`sort_latencies`] orders it).
    ///
    /// # Panics
    ///
    /// Panics if a latency is NaN — the simulators only produce finite
    /// times, so a NaN is a bug upstream.
    pub fn from_latencies(latencies: &mut [f64]) -> Self {
        let sorted = sort_latencies(latencies.to_vec());
        latencies.copy_from_slice(&sorted);
        LatencyStats::from_sorted(&sorted)
    }

    /// Builds the summary from a sample already in ascending order: the
    /// count, the left-to-right sum's mean, and nearest-rank
    /// percentiles.
    pub fn from_sorted(sorted: &[f64]) -> Self {
        let Some(&max_ms) = sorted.last() else {
            return LatencyStats::default();
        };
        LatencyStats {
            count: sorted.len() as u64,
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: percentile(sorted, 0.50),
            p95_ms: percentile(sorted, 0.95),
            p99_ms: percentile(sorted, 0.99),
            max_ms,
        }
    }
}

/// The order-preserving integer key of a latency: `a < b` exactly when
/// `key(a) < key(b)`, and equal keys are equal bits. Values with the
/// sign bit clear gain it; values with it set flip every bit (the sign
/// fold), so −0.0 sorts just below +0.0.
///
/// # Panics
///
/// Panics on a NaN.
fn sort_key(ms: f64) -> u64 {
    assert!(!ms.is_nan(), "finite latencies");
    let bits = ms.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The latency whose [`sort_key`] is `key`.
fn from_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Sorts a latency sample ascending, in its own buffer: both maps reuse
/// the allocation, since `u64` and `f64` share size and alignment.
/// Equal keys are equal bits, so an unstable sort yields the sequence a
/// stable `partial_cmp` sort does (but for −0.0, which it places before
/// +0.0 rather than in input order).
///
/// # Panics
///
/// Panics if a latency is NaN.
pub fn sort_latencies(latencies: Vec<f64>) -> Vec<f64> {
    let mut keys: Vec<u64> = latencies.into_iter().map(sort_key).collect();
    keys.sort_unstable();
    keys.into_iter().map(from_key).collect()
}

/// Merges samples that are each in ascending order into one ascending
/// sample: the sequence [`sort_latencies`] gives their concatenation.
pub fn merge_sorted(parts: &[Vec<f64>]) -> Vec<f64> {
    let mut heads = vec![0; parts.len()];
    let total = parts.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    for _ in 0..total {
        let mut next: Option<(usize, f64)> = None;
        for (p, part) in parts.iter().enumerate() {
            if let Some(&ms) = part.get(heads[p]) {
                if next.is_none_or(|(_, best)| ms.total_cmp(&best).is_lt()) {
                    next = Some((p, ms));
                }
            }
        }
        let (part, ms) = next.expect("a part has values left");
        heads[part] += 1;
        merged.push(ms);
    }
    merged
}

/// A latency sample accumulator with a slowest-request exemplar.
///
/// This is the one implementation of the record → summarize →
/// exemplar flow shared by the fixed-batch engine (per-tenant end-to-end
/// latencies) and the generative engine (TTFT / TPOT / end-to-end
/// per-token samples) — so percentile plumbing is not copy-pasted per
/// metric family.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    values: Vec<f64>,
    slowest: Option<(f64, u64)>,
}

impl Sample {
    /// An empty sample.
    pub fn new() -> Self {
        Sample::default()
    }

    /// Records one observation, tagged with the request id that
    /// produced it (the exemplar candidate).
    pub fn record(&mut self, ms: f64, id: u64) {
        if self.slowest.is_none_or(|(worst, _)| ms > worst) {
            self.slowest = Some((ms, id));
        }
        self.values.push(ms);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.values.len() as u64
    }

    /// Sum of all recorded observations, ms.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The request id of the slowest observation so far, if any.
    pub fn exemplar(&self) -> Option<u64> {
        self.slowest.map(|(_, id)| id)
    }

    /// Summarizes the sample (sorts the underlying values in place).
    pub fn stats(&mut self) -> LatencyStats {
        self.values = sort_latencies(std::mem::take(&mut self.values));
        LatencyStats::from_sorted(&self.values)
    }

    /// Consumes the sample, returning its values in ascending order
    /// (for cross-sample aggregation through [`merge_sorted`]) and the
    /// summary.
    pub fn into_parts(mut self) -> (Vec<f64>, LatencyStats) {
        let stats = self.stats();
        (self.values, stats)
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50/p95/p99 = {:.2}/{:.2}/{:.2} ms (mean {:.2}, max {:.2}, n={})",
            self.p50_ms, self.p95_ms, self.p99_ms, self.mean_ms, self.max_ms, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_all_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let s = LatencyStats::from_latencies(&mut []);
        assert_eq!(s, LatencyStats::default());
    }

    #[test]
    fn nearest_rank_endpoints() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }

    #[test]
    fn nearest_rank_rounds_to_nearer_index() {
        // n = 4: rank(0.5) = round(1.5) = 2 (banker-free f64 round).
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.5), 30.0);
        // rank(0.95) = round(2.85) = 3.
        assert_eq!(percentile(&v, 0.95), 40.0);
    }

    #[test]
    fn single_element_everywhere() {
        let v = [7.0];
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&v, p), 7.0);
        }
    }

    #[test]
    fn summary_matches_hand_computation() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        let s = LatencyStats::from_latencies(&mut v);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean_ms, 2.5);
        assert_eq!(s.p50_ms, 3.0);
        assert_eq!(s.max_ms, 4.0);
        assert!(s.to_string().contains("p50"));
    }

    #[test]
    fn duplicate_heavy_sample_reports_observed_values() {
        // A tail of identical values must not confuse nearest-rank:
        // every percentile is one of the two distinct observations.
        let mut v = vec![5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 9.0];
        let s = LatencyStats::from_latencies(&mut v);
        assert_eq!(s.p50_ms, 5.0);
        assert_eq!(s.p95_ms, 9.0);
        assert_eq!(s.p99_ms, 9.0);
        assert_eq!(s.max_ms, 9.0);
    }

    #[test]
    fn short_sample_p99_is_the_maximum() {
        // With fewer than 100 samples the 99th percentile has no
        // interior rank to land on: nearest-rank resolves to the max
        // for n <= 50 (rank(0.99) rounds to n-1).
        for n in 2..=50 {
            let mut v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = LatencyStats::from_latencies(&mut v);
            assert_eq!(s.p99_ms, s.max_ms, "n={n}");
        }
    }

    #[test]
    fn two_element_sample_splits_at_the_midpoint() {
        let v = [1.0, 2.0];
        // rank(p) = round(p): below 0.5 the minimum, at and above 0.5
        // (f64 round half-up) the maximum.
        assert_eq!(percentile(&v, 0.49), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.51), 2.0);
    }

    #[test]
    fn sample_tracks_slowest_exemplar_and_matches_from_latencies() {
        let mut s = Sample::new();
        for (ms, id) in [(4.0, 10), (9.0, 11), (2.0, 12), (9.0, 13)] {
            s.record(ms, id);
        }
        // Strictly-greater comparison: ties keep the first exemplar.
        assert_eq!(s.exemplar(), Some(11));
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 24.0);
        let stats = s.stats();
        let mut raw = vec![4.0, 9.0, 2.0, 9.0];
        assert_eq!(stats, LatencyStats::from_latencies(&mut raw));
        let (values, again) = s.into_parts();
        assert_eq!(values, vec![2.0, 4.0, 9.0, 9.0]);
        assert_eq!(again, stats);
    }

    #[test]
    fn empty_sample_has_no_exemplar() {
        let mut s = Sample::new();
        assert_eq!(s.exemplar(), None);
        assert_eq!(s.stats(), LatencyStats::default());
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut v: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let s = LatencyStats::from_latencies(&mut v);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms && s.p99_ms <= s.max_ms);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
    }
}
