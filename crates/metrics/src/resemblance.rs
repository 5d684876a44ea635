//! The resemblance score (§V-B): the mean of five statistical similarities
//! between real and synthetic data, each in `[0, 1]`, reported 0–100.

use crate::correlation::correlation_difference;
use crate::features::table_to_features;
use crate::stats::{
    category_frequencies, histogram, jensen_shannon_distance, ks_statistic, pearson,
    quantile_profile, total_variation,
};
use crate::MetricError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silofuse_tabular::schema::ColumnKind;
use silofuse_tabular::table::{Column, Table};
use silofuse_trees::{BoostParams, GbdtBinaryClassifier};

/// The five component scores plus the composite (all 0–100).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResemblanceReport {
    /// Per-column marginal similarity (quantile-profile Pearson for
    /// numerics, 1 − total-variation for categoricals).
    pub column_similarity: f64,
    /// Similarity of the pairwise association matrices.
    pub correlation_similarity: f64,
    /// `1 −` Jensen–Shannon distance, averaged over columns.
    pub jensen_shannon: f64,
    /// `1 −` Kolmogorov–Smirnov statistic, averaged over columns.
    pub kolmogorov_smirnov: f64,
    /// Propensity mean-absolute similarity (GBDT discriminator).
    pub propensity: f64,
    /// Mean of the five scores.
    pub composite: f64,
}

/// Configuration for the resemblance computation.
#[derive(Debug, Clone, Copy)]
pub struct ResemblanceConfig {
    /// Histogram bins for the JS score on numerics.
    pub js_bins: usize,
    /// Quantile points for the column-similarity score.
    pub quantile_points: usize,
    /// Boosting parameters for the propensity discriminator.
    pub propensity_params: BoostParams,
    /// Seed for the propensity train/test split.
    pub seed: u64,
}

impl Default for ResemblanceConfig {
    fn default() -> Self {
        Self {
            js_bins: 20,
            quantile_points: 50,
            propensity_params: BoostParams { n_trees: 40, ..Default::default() },
            seed: 0,
        }
    }
}

/// Per-column breakdown of the distribution-level scores (0–100), for
/// debugging *which* columns a synthesizer fails on.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnReport {
    /// Column name.
    pub name: String,
    /// Marginal similarity (score 1's per-column term).
    pub column_similarity: f64,
    /// `1 −` Jensen–Shannon distance.
    pub jensen_shannon: f64,
    /// `1 −` KS statistic (total variation for categoricals).
    pub kolmogorov_smirnov: f64,
}

/// Computes the per-column scores feeding resemblance scores 1, 3, and 4.
///
/// # Panics
/// Panics if the schemas differ.
pub fn per_column_report(
    real: &Table,
    synth: &Table,
    config: &ResemblanceConfig,
) -> Vec<ColumnReport> {
    assert_eq!(real.schema(), synth.schema(), "schema mismatch");
    real.schema()
        .columns()
        .iter()
        .enumerate()
        .map(|(idx, meta)| ColumnReport {
            name: meta.name.clone(),
            column_similarity: 100.0
                * column_similarity_at(real, synth, idx, config.quantile_points),
            jensen_shannon: 100.0 * js_similarity_at(real, synth, idx, config.js_bins),
            kolmogorov_smirnov: 100.0 * ks_similarity_at(real, synth, idx),
        })
        .collect()
}

/// Computes the resemblance report between `real` and `synth`.
///
/// # Panics
/// Panics if the schemas differ or either table is empty; use
/// [`try_resemblance`] to get those as a [`MetricError`].
pub fn resemblance(real: &Table, synth: &Table, config: &ResemblanceConfig) -> ResemblanceReport {
    try_resemblance(real, synth, config).unwrap_or_else(|e| panic!("resemblance: {e}"))
}

/// Computes the resemblance report between `real` and `synth`.
///
/// # Errors
/// [`MetricError::SchemaMismatch`] if the schemas differ and
/// [`MetricError::EmptyTable`] if either table has no rows.
pub fn try_resemblance(
    real: &Table,
    synth: &Table,
    config: &ResemblanceConfig,
) -> Result<ResemblanceReport, MetricError> {
    crate::same_schema(real, synth, "synthetic")?;
    crate::has_rows(real, "real")?;
    crate::has_rows(synth, "synthetic")?;

    let column_similarity = column_similarity(real, synth, config.quantile_points);
    let correlation_similarity = 1.0 - correlation_difference(real, synth).mean_abs_diff;
    let jensen_shannon = js_similarity(real, synth, config.js_bins);
    let kolmogorov_smirnov = ks_similarity(real, synth);
    let propensity = propensity_similarity(real, synth, config);

    let composite = (column_similarity
        + correlation_similarity
        + jensen_shannon
        + kolmogorov_smirnov
        + propensity)
        / 5.0;
    Ok(ResemblanceReport {
        column_similarity: 100.0 * column_similarity,
        correlation_similarity: 100.0 * correlation_similarity,
        jensen_shannon: 100.0 * jensen_shannon,
        kolmogorov_smirnov: 100.0 * kolmogorov_smirnov,
        propensity: 100.0 * propensity,
        composite: 100.0 * composite,
    })
}

/// Score 1 — column similarity. For numeric columns: the Pearson
/// correlation between real and synthetic *quantile profiles* (1 when the
/// marginal shapes coincide). For categorical columns: `1 −` total
/// variation between category frequency vectors.
fn column_similarity(real: &Table, synth: &Table, points: usize) -> f64 {
    let d = real.n_cols();
    (0..d).map(|idx| column_similarity_at(real, synth, idx, points)).sum::<f64>() / d.max(1) as f64
}

fn column_similarity_at(real: &Table, synth: &Table, idx: usize, points: usize) -> f64 {
    match (real.column(idx), synth.column(idx)) {
        (Column::Numeric(a), Column::Numeric(b)) => {
            let qa = quantile_profile(a, points);
            let qb = quantile_profile(b, points);
            // A constant column matching a constant column is perfect.
            let corr = pearson(&qa, &qb);
            if corr == 0.0 && nearly_equal(&qa, &qb) {
                1.0
            } else {
                corr.max(0.0)
            }
        }
        (Column::Categorical(a), Column::Categorical(b)) => {
            let k = cardinality(real, idx);
            1.0 - total_variation(&category_frequencies(a, k), &category_frequencies(b, k))
        }
        _ => unreachable!("schemas matched"),
    }
}

fn nearly_equal(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
}

fn cardinality(table: &Table, col: usize) -> usize {
    match table.schema().columns()[col].kind {
        ColumnKind::Categorical { cardinality } => cardinality as usize,
        ColumnKind::Numeric => 0,
    }
}

/// Score 3 — `1 −` JS distance per column, averaged.
fn js_similarity(real: &Table, synth: &Table, bins: usize) -> f64 {
    let d = real.n_cols();
    (0..d).map(|idx| js_similarity_at(real, synth, idx, bins)).sum::<f64>() / d.max(1) as f64
}

fn js_similarity_at(real: &Table, synth: &Table, idx: usize, bins: usize) -> f64 {
    let dist = match (real.column(idx), synth.column(idx)) {
        (Column::Numeric(a), Column::Numeric(b)) => {
            let lo = a.iter().chain(b).cloned().fold(f64::INFINITY, f64::min);
            let hi = a.iter().chain(b).cloned().fold(f64::NEG_INFINITY, f64::max);
            jensen_shannon_distance(&histogram(a, lo, hi, bins), &histogram(b, lo, hi, bins))
        }
        (Column::Categorical(a), Column::Categorical(b)) => {
            let k = cardinality(real, idx);
            jensen_shannon_distance(&category_frequencies(a, k), &category_frequencies(b, k))
        }
        _ => unreachable!("schemas matched"),
    };
    1.0 - dist
}

/// Score 4 — `1 −` KS statistic per column (total variation for
/// categoricals, its discrete analogue), averaged.
fn ks_similarity(real: &Table, synth: &Table) -> f64 {
    let d = real.n_cols();
    (0..d).map(|idx| ks_similarity_at(real, synth, idx)).sum::<f64>() / d.max(1) as f64
}

fn ks_similarity_at(real: &Table, synth: &Table, idx: usize) -> f64 {
    let stat = match (real.column(idx), synth.column(idx)) {
        (Column::Numeric(a), Column::Numeric(b)) => ks_statistic(a, b),
        (Column::Categorical(a), Column::Categorical(b)) => {
            let k = cardinality(real, idx);
            total_variation(&category_frequencies(a, k), &category_frequencies(b, k))
        }
        _ => unreachable!("schemas matched"),
    };
    1.0 - stat
}

/// Score 5 — propensity mean-absolute similarity: a GBDT discriminator is
/// trained to tell real from synthetic; on a held-out mix,
/// `similarity = 1 − 2 · mean(|p − 0.5|)`. Indistinguishable data keeps
/// every probability at 0.5 → similarity 1.
fn propensity_similarity(real: &Table, synth: &Table, config: &ResemblanceConfig) -> f64 {
    let fr = table_to_features(real, None);
    let fs = table_to_features(synth, None);
    let d = fr.len();
    let n_real = real.n_rows();
    let n_synth = synth.n_rows();

    // Interleave, label, shuffle, split 75/25.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..n_real + n_synth).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let get = |row: usize, col: usize| -> f64 {
        if row < n_real {
            fr[col][row]
        } else {
            fs[col][row - n_real]
        }
    };
    let label = |row: usize| -> u32 { u32::from(row < n_real) };

    let n_train = (order.len() * 3) / 4;
    let mut train_feats: Vec<Vec<f64>> = vec![Vec::with_capacity(n_train); d];
    let mut train_labels = Vec::with_capacity(n_train);
    let mut test_rows = Vec::new();
    for (pos, &row) in order.iter().enumerate() {
        if pos < n_train {
            for (c, feat) in train_feats.iter_mut().enumerate() {
                feat.push(get(row, c));
            }
            train_labels.push(label(row));
        } else {
            test_rows.push(row);
        }
    }
    if train_labels.iter().all(|&l| l == 0) || train_labels.iter().all(|&l| l == 1) {
        return 1.0; // degenerate split: nothing to discriminate
    }
    let model = GbdtBinaryClassifier::fit(&train_feats, &train_labels, &config.propensity_params);
    let mae: f64 = test_rows
        .iter()
        .map(|&row| {
            let feats: Vec<f64> = (0..d).map(|c| get(row, c)).collect();
            (model.predict_proba_row(&feats) - 0.5).abs()
        })
        .sum::<f64>()
        / test_rows.len().max(1) as f64;
    (1.0 - 2.0 * mae).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_tabular::profiles;
    use silofuse_tabular::split::train_holdout_split;

    /// An empty table or a foreign schema is a typed error; the panicking
    /// `resemblance` asserted on both.
    #[test]
    fn empty_or_mismatched_tables_are_typed_errors() {
        let real = profiles::loan().generate(64, 0);
        let empty = Table::empty(real.schema().clone());
        let other = profiles::diabetes().generate(64, 0);
        let cfg = ResemblanceConfig::default();
        let err = |t| MetricError::EmptyTable { table: t };
        assert_eq!(try_resemblance(&real, &empty, &cfg), Err(err("synthetic")));
        assert_eq!(try_resemblance(&empty, &real, &cfg), Err(err("real")));
        let mismatch = MetricError::SchemaMismatch { table: "synthetic" };
        assert_eq!(try_resemblance(&real, &other, &cfg), Err(mismatch));
        let ok = try_resemblance(&real, &real, &cfg).unwrap();
        assert_eq!(ok, resemblance(&real, &real, &cfg));
    }

    #[test]
    fn identical_data_scores_near_perfect() {
        let t = profiles::loan().generate(512, 0);
        // Compare two halves of the same generation process: same
        // distribution, different samples.
        let (a, b) = train_holdout_split(&t, 0.5, 1);
        let report = resemblance(&a, &b, &ResemblanceConfig::default());
        assert!(report.composite > 85.0, "composite {}", report.composite);
        assert!(report.column_similarity > 85.0);
        assert!(report.propensity > 60.0, "propensity {}", report.propensity);
    }

    #[test]
    fn unrelated_data_scores_low() {
        let real = profiles::loan().generate(256, 0);
        // "Synthetic" data with the right schema but scrambled generator:
        // use an independent-feature copy with different seed and zero
        // correlation.
        let mut gen = profiles::loan().generator(99);
        gen.correlation_strength = 0.0;
        for (_, m) in gen.marginals.iter_mut() {
            if let silofuse_tabular::synthetic::Marginal::Gaussian { mean, .. } = m {
                *mean += 30.0; // shift marginals badly
            }
        }
        let fake = gen.generate(256, 9);
        let report = resemblance(&real, &fake, &ResemblanceConfig::default());
        let good =
            resemblance(&real, &profiles::loan().generate(256, 1), &ResemblanceConfig::default());
        assert!(
            report.composite < good.composite - 5.0,
            "bad {} should score below good {}",
            report.composite,
            good.composite
        );
    }

    #[test]
    fn propensity_catches_shifted_numerics() {
        let real = profiles::diabetes().generate(256, 3);
        let mut cols = real.columns().to_vec();
        for col in &mut cols {
            if let Column::Numeric(v) = col {
                for x in v.iter_mut() {
                    *x += 100.0;
                }
            }
        }
        let shifted = Table::new(real.schema().clone(), cols).unwrap();
        let report = resemblance(&real, &shifted, &ResemblanceConfig::default());
        assert!(report.propensity < 20.0, "propensity {}", report.propensity);
    }

    #[test]
    fn per_column_report_averages_back_to_aggregates() {
        let real = profiles::loan().generate(256, 7);
        let synth = profiles::loan().generate(256, 8);
        let cfg = ResemblanceConfig::default();
        let per_col = per_column_report(&real, &synth, &cfg);
        assert_eq!(per_col.len(), real.n_cols());
        let agg = resemblance(&real, &synth, &cfg);
        let mean_cs =
            per_col.iter().map(|c| c.column_similarity).sum::<f64>() / per_col.len() as f64;
        let mean_js = per_col.iter().map(|c| c.jensen_shannon).sum::<f64>() / per_col.len() as f64;
        let mean_ks =
            per_col.iter().map(|c| c.kolmogorov_smirnov).sum::<f64>() / per_col.len() as f64;
        assert!((mean_cs - agg.column_similarity).abs() < 1e-9);
        assert!((mean_js - agg.jensen_shannon).abs() < 1e-9);
        assert!((mean_ks - agg.kolmogorov_smirnov).abs() < 1e-9);
    }

    #[test]
    fn per_column_report_flags_the_broken_column() {
        // Corrupt exactly one numeric column; its scores must drop below
        // every other column's.
        let real = profiles::diabetes().generate(256, 9);
        let mut cols = real.columns().to_vec();
        let bad = real.schema().numeric_indices()[0];
        if let Column::Numeric(v) = &mut cols[bad] {
            for x in v.iter_mut() {
                *x = *x * 10.0 + 500.0;
            }
        }
        let corrupted = Table::new(real.schema().clone(), cols).unwrap();
        let report = per_column_report(&real, &corrupted, &ResemblanceConfig::default());
        let bad_score = report[bad].kolmogorov_smirnov;
        for (i, c) in report.iter().enumerate() {
            if i != bad {
                assert!(
                    c.kolmogorov_smirnov > bad_score,
                    "column {i} ({}) scored {} <= corrupted {}",
                    c.name,
                    c.kolmogorov_smirnov,
                    bad_score
                );
            }
        }
    }

    #[test]
    fn scores_are_within_0_100() {
        let real = profiles::diabetes().generate(128, 4);
        let synth = profiles::diabetes().generate(128, 5);
        let r = resemblance(&real, &synth, &ResemblanceConfig::default());
        for v in [
            r.column_similarity,
            r.correlation_similarity,
            r.jensen_shannon,
            r.kolmogorov_smirnov,
            r.propensity,
            r.composite,
        ] {
            assert!((0.0..=100.0).contains(&v), "{r:?}");
        }
    }
}
