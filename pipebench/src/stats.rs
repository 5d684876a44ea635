//! Order statistics and rates behind the benchmark's metrics.

/// Samples a reported percentile must leave beyond it (above a high
/// percentile, below a low one), so the percentile is a measurement
/// rather than the single slowest or fastest sample.
pub const MIN_BEYOND: usize = 10;

/// Smallest of `values`: the fastest of repeated timings. NaN for an
/// empty slice.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Largest of `values`: the best of repeated rates. NaN for an empty
/// slice.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// Median of `values`; the mean of the two middle values for an even
/// count. NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) in `n` samples:
/// the smallest rank with at least `p`% of the samples at or below it.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` of `values`. NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples: above it for `p` ≥ 50, below it otherwise.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = nearest_rank(n, p);
    if p >= 50.0 {
        n - rank
    } else {
        rank - 1
    }
}

/// Whether `n` samples support reporting percentile `p`: at least
/// [`MIN_BEYOND`] of them must lie beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Fewest samples that support percentile `p`.
pub fn samples_for_percentile(p: f64) -> usize {
    (1..).find(|&n| supports_percentile(n, p)).expect("some sample count supports any p < 100")
}

/// Rows per second; NaN unless both the row count and the time are
/// positive.
pub fn rows_per_s(rows: usize, seconds: f64) -> f64 {
    if rows == 0 || seconds <= 0.0 {
        return f64::NAN;
    }
    rows as f64 / seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports_percentile(100, 90.0));
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(!supports_percentile(99, 90.0));
        assert_eq!(samples_for_percentile(90.0), 100);
        assert_eq!(samples_for_percentile(50.0), 20);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn p10_needs_one_hundred_and_one_samples() {
        // The 10th of 100 samples leaves only 9 below it.
        assert_eq!(percentile(&(1..=100).map(f64::from).collect::<Vec<_>>(), 10.0), 10.0);
        assert_eq!(samples_beyond(100, 10.0), 9);
        assert!(!supports_percentile(100, 10.0));
        assert_eq!(samples_beyond(101, 10.0), 10);
        assert_eq!(samples_for_percentile(10.0), 101);
        assert_eq!(samples_beyond(0, 10.0), 0);
    }

    #[test]
    fn fastest_and_best_of_repetitions() {
        assert_eq!(lowest(&[2.0, 0.5, 1.0]), 0.5);
        assert_eq!(highest(&[2.0, 0.5, 1.0]), 2.0);
        assert!(lowest(&[]).is_nan());
        assert!(highest(&[]).is_nan());
    }

    #[test]
    fn rows_per_second() {
        assert_eq!(rows_per_s(1024, 0.5), 2048.0);
        assert!(rows_per_s(1024, 0.0).is_nan());
        assert!(rows_per_s(0, 1.0).is_nan());
    }
}
