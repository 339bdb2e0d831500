//! Property tests for the percentile implementation: whatever the
//! sample, percentiles must be monotone in `p`, always an observed
//! value, and bracketed by the sample's extremes; the integer-key sort
//! and the merge of sorted samples give, bit for bit, the summary a
//! stable `partial_cmp` sort gives.

use dtu_serve::stats::{merge_sorted, sort_latencies};
use dtu_serve::{percentile, LatencyStats, Sample};
use proptest::collection::vec;
use proptest::prelude::*;

/// The summary's six fields as bits, computed the way the summary was
/// before the integer-key sort: a stable `partial_cmp` sort, a
/// left-to-right sum and nearest-rank picks.
fn reference(sample: &[f64]) -> [u64; 6] {
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if v.is_empty() {
        return [0; 6];
    }
    let n = v.len();
    let pick = |p: f64| v[((n as f64 - 1.0) * p).round() as usize].to_bits();
    let mut sum = 0.0;
    for x in &v {
        sum += x;
    }
    [
        n as u64,
        (sum / n as f64).to_bits(),
        pick(0.50),
        pick(0.95),
        pick(0.99),
        v[n - 1].to_bits(),
    ]
}

fn bits(s: &LatencyStats) -> [u64; 6] {
    [
        s.count,
        s.mean_ms.to_bits(),
        s.p50_ms.to_bits(),
        s.p95_ms.to_bits(),
        s.p99_ms.to_bits(),
        s.max_ms.to_bits(),
    ]
}

/// Latencies spread over 1e-3 to 1e4 ms, from decimal exponents.
fn spread(exponents: &[f64]) -> Vec<f64> {
    exponents.iter().map(|&e| 10f64.powf(e)).collect()
}

proptest! {
    #[test]
    fn percentile_is_monotone_in_p(
        sample in vec(0.0f64..1_000.0, 1..64),
        p_lo in 0.0f64..1.0,
        p_hi in 0.0f64..1.0
    ) {
        let mut sorted = sample;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let (lo, hi) = if p_lo <= p_hi { (p_lo, p_hi) } else { (p_hi, p_lo) };
        prop_assert!(percentile(&sorted, lo) <= percentile(&sorted, hi));
    }

    #[test]
    fn percentile_is_an_observed_value_within_range(
        sample in vec(0.0f64..1_000.0, 1..64),
        p in 0.0f64..1.0
    ) {
        let mut sorted = sample;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let v = percentile(&sorted, p);
        prop_assert!(sorted.contains(&v));
        prop_assert!(*sorted.first().expect("non-empty") <= v);
        prop_assert!(v <= *sorted.last().expect("non-empty"));
    }

    #[test]
    fn summary_percentiles_are_ordered(
        sample in vec(0.0f64..1_000.0, 1..64)
    ) {
        let mut s = sample;
        let stats = LatencyStats::from_latencies(&mut s);
        prop_assert!(stats.p50_ms <= stats.p95_ms);
        prop_assert!(stats.p95_ms <= stats.p99_ms);
        prop_assert!(stats.p99_ms <= stats.max_ms);
        prop_assert!(stats.mean_ms <= stats.max_ms);
    }
}

proptest! {
    #[test]
    fn integer_key_sort_gives_the_partial_cmp_summary(
        exponents in vec(-3.0f64..4.0, 0..3_000),
        palette in vec(-3.0f64..4.0, 1..6),
        picks in vec(0usize..1_000, 0..3_000),
    ) {
        let spread = spread(&exponents);
        // Heavily duplicated: a few distinct values, many times each.
        let palette = self::spread(&palette);
        let duplicated: Vec<f64> = picks.iter().map(|&i| palette[i % palette.len()]).collect();
        let both: Vec<f64> = spread.iter().chain(&duplicated).copied().collect();
        for sample in [&spread, &duplicated, &both] {
            let want = reference(sample);
            let mut sorted = sample.clone();
            prop_assert_eq!(bits(&LatencyStats::from_latencies(&mut sorted)), want);
            prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
            let mut s = Sample::new();
            for (id, &ms) in sample.iter().enumerate() {
                s.record(ms, id as u64);
            }
            let (values, stats) = s.into_parts();
            prop_assert_eq!(bits(&stats), want);
            prop_assert_eq!(bits(&LatencyStats::from_sorted(&values)), want);
        }
    }

    #[test]
    fn merged_sorted_samples_summarize_as_their_concatenation(
        exponents in vec(-3.0f64..4.0, 0..3_000),
        palette in vec(-3.0f64..4.0, 1..6),
        picks in vec(0usize..6, 0..3_000),
        cuts in vec(0usize..6_000, 0..6),
    ) {
        let palette = spread(&palette);
        let mut all = spread(&exponents);
        all.extend(picks.iter().map(|&i| palette[i % palette.len()]));
        // Cut the concatenation into k + 1 parts, some of them empty.
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(all.len())).collect();
        cuts.sort_unstable();
        let mut parts = Vec::new();
        let mut start = 0;
        for end in cuts.into_iter().chain([all.len()]) {
            parts.push(sort_latencies(all[start..end].to_vec()));
            start = end;
        }
        let merged = merge_sorted(&parts);
        let whole = sort_latencies(all.clone());
        prop_assert_eq!(
            merged.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            whole.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(bits(&LatencyStats::from_sorted(&merged)), reference(&all));
    }
}

#[test]
#[should_panic(expected = "finite latencies")]
fn a_nan_latency_still_panics() {
    LatencyStats::from_latencies(&mut [3.0, f64::NAN, 1.0]);
}
