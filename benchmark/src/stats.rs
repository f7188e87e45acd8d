//! Exact order statistics on raw samples. No histograms, no buckets: every
//! latency the harness reports is a value that was actually observed.

/// Samples a percentile of one sample set must leave beyond itself to be
/// reported (the choosing-metrics rule: "the highest percentile that has at
/// least ten samples beyond it").
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `q·n` samples at or below it. `None` when
/// empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// Median of `samples` (mean of the two middle values when even).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// The highest quantile ≤ `want` that still leaves `beyond` samples beyond
/// it in a set of `n` samples (0.5 at the least).
pub fn supported_quantile(want: f64, n: usize, beyond: usize) -> f64 {
    if n <= 2 * beyond {
        return 0.5;
    }
    want.min(1.0 - beyond as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        let mut odd = vec![9.0, 1.0, 5.0];
        assert_eq!(quantile(&mut odd, 0.5), Some(5.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn supported_quantile_keeps_the_samples_beyond() {
        assert_eq!(supported_quantile(0.99, 8000, 10), 0.99);
        assert_eq!(supported_quantile(0.99, 1000, 10), 0.99);
        assert!((supported_quantile(0.99, 200, 10) - 0.95).abs() < 1e-12);
        assert!((supported_quantile(0.99, 50, 10) - 0.80).abs() < 1e-12);
        assert_eq!(supported_quantile(0.99, 12, 10), 0.5);
        assert!((supported_quantile(0.99, 75, 5) - 14.0 / 15.0).abs() < 1e-12);
        assert!((supported_quantile(0.99, 25, 5) - 0.80).abs() < 1e-12);
        assert_eq!(supported_quantile(0.99, 500, 5), 0.99);
    }
}
