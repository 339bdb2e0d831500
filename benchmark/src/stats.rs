//! Order statistics over iteration timings.

use crate::error::BenchError;

/// A percentile is reported only with at least this many samples
/// beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Slack for the float products below, so that e.g. 5% of 200 counts
/// as 10 samples.
const EPS: f64 = 1e-9;

/// The median (mean of the middle two for an even count); `NaN` when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Samples needed for percentile `q` to have [`TAIL_SAMPLES`] beyond
/// it: 200 for p95, 100 for p90.
pub fn min_samples(q: f64) -> usize {
    (TAIL_SAMPLES as f64 / (1.0 - q) - EPS).ceil() as usize
}

/// The nearest-rank percentile `q` (in `(0, 1)`) of `values`.
///
/// # Errors
///
/// [`BenchError::TooFewIterations`] when fewer than [`TAIL_SAMPLES`]
/// samples lie beyond the percentile.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, BenchError> {
    let n = values.len();
    let beyond = ((1.0 - q) * n as f64 + EPS).floor() as usize;
    if beyond < TAIL_SAMPLES {
        return Err(BenchError::TooFewIterations {
            needed: min_samples(q),
            got: n,
        });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * n as f64 - EPS).ceil().max(1.0) as usize;
    Ok(sorted[rank - 1])
}

/// The highest whole-percent percentile with [`TAIL_SAMPLES`] samples
/// beyond it, as `(q, value)`: p90 at 100 samples, p95 at 200.
///
/// # Errors
///
/// [`BenchError::TooFewIterations`] below `TAIL_SAMPLES + 1` samples.
pub fn tail(values: &[f64]) -> Result<(f64, f64), BenchError> {
    let n = values.len() as f64;
    let q = ((1.0 - TAIL_SAMPLES as f64 / n) * 100.0 + EPS).floor() / 100.0;
    if q <= 0.0 {
        return Err(BenchError::TooFewIterations {
            needed: TAIL_SAMPLES + 1,
            got: values.len(),
        });
    }
    Ok((q, percentile(values, q)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.90), 100);
        assert_eq!(
            percentile(&ramp(199), 0.95),
            Err(BenchError::TooFewIterations {
                needed: 200,
                got: 199
            })
        );
        // 190 is the nearest rank; 191..=200 are the ten beyond it.
        assert_eq!(percentile(&ramp(200), 0.95), Ok(190.0));
        assert_eq!(percentile(&ramp(1000), 0.95), Ok(950.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail(&ramp(200)), Ok((0.95, 190.0)));
        assert_eq!(tail(&ramp(100)), Ok((0.90, 90.0)));
        // 90 samples: p88 leaves 10 beyond, p89 would leave 9.
        assert_eq!(tail(&ramp(90)), Ok((0.88, 80.0)));
        assert!(tail(&ramp(10)).is_err());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    }
}
