//! Quantile binning of features for histogram-based tree learning.

/// Column-major feature matrix: `features[j][i]` is feature `j` of row `i`.
pub type Features = Vec<Vec<f64>>;

/// Pre-binned features: per-feature quantile bin edges plus the bin index of
/// every value. Histogram tree learning runs on bins; final split
/// thresholds are translated back to raw values so prediction needs no
/// binning.
#[derive(Debug, Clone)]
pub struct BinnedFeatures {
    /// `edges[j]` is sorted; value `v` falls in bin `partition_point(e <= v)`.
    edges: Vec<Vec<f64>>,
    /// `bins[j][i]`: bin index of row `i` in feature `j`.
    bins: Vec<Vec<u16>>,
    rows: usize,
}

impl BinnedFeatures {
    /// Bins every feature into at most `max_bins` quantile bins.
    ///
    /// # Panics
    /// Panics if `max_bins < 2` or features have inconsistent lengths.
    pub fn fit(features: &[Vec<f64>], max_bins: usize) -> Self {
        assert!(max_bins >= 2, "need at least two bins");
        let rows = features.first().map_or(0, Vec::len);
        assert!(features.iter().all(|f| f.len() == rows), "ragged feature columns");
        let mut edges = Vec::with_capacity(features.len());
        let mut bins = Vec::with_capacity(features.len());
        for feature in features {
            let e = quantile_edges(feature, max_bins);
            let b = feature.iter().map(|&v| e.partition_point(|&edge| edge <= v) as u16).collect();
            edges.push(e);
            bins.push(b);
        }
        Self { edges, bins, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.bins.len()
    }

    /// Number of bins used by feature `j` (edges + 1).
    pub fn n_bins(&self, j: usize) -> usize {
        self.edges[j].len() + 1
    }

    /// Bin index of row `i` in feature `j`.
    #[inline]
    pub fn bin(&self, j: usize, i: usize) -> u16 {
        self.bins[j][i]
    }

    /// The raw threshold corresponding to "bin index <= b" for feature `j`:
    /// rows with value `< edges[j][b]` go left.
    pub fn threshold(&self, j: usize, b: usize) -> f64 {
        self.edges[j][b]
    }
}

/// Distinct quantile cut points (at most `max_bins - 1`).
fn quantile_edges(values: &[f64], max_bins: usize) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return Vec::new();
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let mut edges = Vec::with_capacity(max_bins - 1);
    for k in 1..max_bins {
        let idx = (k * n) / max_bins;
        let e = sorted[idx.min(n - 1)];
        // An edge is useful only if some value falls strictly below it.
        if e > sorted[0] && edges.last().is_none_or(|&last| e > last) {
            edges.push(e);
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_values_monotonically() {
        let f = vec![(0..100).map(|i| i as f64).collect::<Vec<_>>()];
        let b = BinnedFeatures::fit(&f, 10);
        assert_eq!(b.rows(), 100);
        // Bin indices must be non-decreasing with the value.
        for i in 1..100 {
            assert!(b.bin(0, i) >= b.bin(0, i - 1));
        }
        assert!(b.n_bins(0) <= 10);
    }

    #[test]
    fn nan_bearing_feature_does_not_panic() {
        let mut vals: Vec<f64> = (0..40).map(f64::from).collect();
        vals[7] = f64::NAN;
        vals[23] = f64::INFINITY;
        let b = BinnedFeatures::fit(&[vals], 8);
        assert_eq!(b.rows(), 40);
        assert!(b.n_bins(0) >= 1, "finite values must still be binned");
    }

    #[test]
    fn constant_feature_gets_single_bin() {
        let f = vec![vec![5.0; 50]];
        let b = BinnedFeatures::fit(&f, 16);
        assert_eq!(b.n_bins(0), 1);
        assert!((0..50).all(|i| b.bin(0, i) == 0));
    }

    #[test]
    fn threshold_separates_bins() {
        let f = vec![(0..1000).map(|i| (i % 10) as f64).collect::<Vec<_>>()];
        let b = BinnedFeatures::fit(&f, 32);
        // Each of the 10 distinct values should land in its own bin once
        // enough bins are available; verify threshold semantics.
        for i in 0..1000 {
            let v = (i % 10) as f64;
            let bin = b.bin(0, i) as usize;
            if bin > 0 {
                assert!(v >= b.threshold(0, bin - 1));
            }
            if bin < b.n_bins(0) - 1 {
                assert!(v < b.threshold(0, bin));
            }
        }
    }

    #[test]
    fn skewed_distribution_still_spreads_bins() {
        let f = vec![(0..1000).map(|i| (i as f64).powi(3)).collect::<Vec<_>>()];
        let b = BinnedFeatures::fit(&f, 16);
        assert!(b.n_bins(0) >= 10);
    }
}
