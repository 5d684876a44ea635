//! The utility score (§V-B): train-on-synthetic / test-on-real downstream
//! performance, relative to train-on-real.
//!
//! For each evaluated column, a GBDT model predicts that column from the
//! others. Performance is macro-F1 for categorical targets and the D²
//! absolute-error score for numeric targets. The per-training-set
//! performance is the 90th percentile over evaluated columns, and
//! `utility = 100 · perf(synthetic) / perf(real)`, clipped at 100.

use crate::features::{categorical_targets, numeric_targets, row_features, table_to_features};
use crate::stats::{d2_absolute_error, macro_f1, percentile};
use crate::MetricError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use silofuse_tabular::schema::ColumnKind;
use silofuse_tabular::table::Table;
use silofuse_trees::{BoostParams, GbdtBinaryClassifier, GbdtMulticlass, GbdtRegressor};

/// Utility computation settings.
#[derive(Debug, Clone, Copy)]
pub struct UtilityConfig {
    /// Boosting parameters for every downstream model.
    pub params: BoostParams,
    /// Maximum number of target columns to evaluate (seeded subsample when
    /// the table is wider); the paper evaluates all columns.
    pub max_targets: usize,
    /// Seed for target subsampling.
    pub seed: u64,
    /// Percentile of per-column scores used as the dataset performance
    /// (paper: 90).
    pub performance_percentile: f64,
}

impl Default for UtilityConfig {
    fn default() -> Self {
        Self {
            params: BoostParams { n_trees: 40, ..Default::default() },
            max_targets: 8,
            seed: 0,
            performance_percentile: 90.0,
        }
    }
}

/// The utility report.
#[derive(Debug, Clone)]
pub struct UtilityReport {
    /// Downstream performance when training on real data (90th-percentile
    /// column score, in `[0, 1]`).
    pub real_performance: f64,
    /// Downstream performance when training on synthetic data.
    pub synthetic_performance: f64,
    /// `100 · synth / real`, clipped to `[0, 100]`.
    pub score: f64,
    /// Which columns were evaluated.
    pub evaluated_columns: Vec<usize>,
}

/// Computes the utility score.
///
/// `real_train` and `synth` are alternative training sets; `holdout` is real
/// data never used for training.
///
/// # Panics
/// Panics if schemas differ or the holdout is empty; use [`try_utility`]
/// to get those as a [`MetricError`].
pub fn utility(
    real_train: &Table,
    synth: &Table,
    holdout: &Table,
    config: &UtilityConfig,
) -> UtilityReport {
    try_utility(real_train, synth, holdout, config).unwrap_or_else(|e| panic!("utility: {e}"))
}

/// Computes the utility score; see [`utility`].
///
/// # Errors
/// [`MetricError::SchemaMismatch`] if `synth` or `holdout` has another
/// schema than `real_train`, and [`MetricError::EmptyTable`] if the
/// holdout, which every model is scored on, has no rows.
pub fn try_utility(
    real_train: &Table,
    synth: &Table,
    holdout: &Table,
    config: &UtilityConfig,
) -> Result<UtilityReport, MetricError> {
    crate::same_schema(real_train, synth, "synthetic")?;
    crate::same_schema(real_train, holdout, "holdout")?;
    crate::has_rows(holdout, "holdout")?;

    // Pick target columns: seeded subsample, always including the last
    // column (the dataset's designated downstream label).
    let d = real_train.n_cols();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut candidates: Vec<usize> = (0..d.saturating_sub(1)).collect();
    candidates.shuffle(&mut rng);
    let mut targets: Vec<usize> =
        candidates.into_iter().take(config.max_targets.saturating_sub(1)).collect();
    targets.push(d - 1);
    targets.sort_unstable();

    let real_scores: Vec<f64> =
        targets.iter().map(|&c| column_score(real_train, holdout, c, &config.params)).collect();
    let synth_scores: Vec<f64> =
        targets.iter().map(|&c| column_score(synth, holdout, c, &config.params)).collect();

    let real_perf = percentile(&real_scores, config.performance_percentile).max(1e-6);
    let synth_perf = percentile(&synth_scores, config.performance_percentile).max(0.0);
    let score = (100.0 * synth_perf / real_perf).clamp(0.0, 100.0);
    Ok(UtilityReport {
        real_performance: real_perf,
        synthetic_performance: synth_perf,
        score,
        evaluated_columns: targets,
    })
}

/// Trains a model on `train` predicting column `target` and scores it on
/// `holdout`: macro-F1 (categorical) or D² absolute error (numeric),
/// clamped to `[0, 1]`.
pub fn column_score(train: &Table, holdout: &Table, target: usize, params: &BoostParams) -> f64 {
    let feats_train = table_to_features(train, Some(target));
    match train.schema().columns()[target].kind {
        ColumnKind::Categorical { cardinality } => {
            let labels = categorical_targets(train, target);
            let truth = categorical_targets(holdout, target);
            let preds: Vec<u32> = if cardinality <= 2 {
                let model = GbdtBinaryClassifier::fit(&feats_train, &labels, params);
                (0..holdout.n_rows())
                    .map(|r| {
                        let row = row_features(holdout, r, Some(target));
                        u32::from(model.predict_proba_row(&row) >= 0.5)
                    })
                    .collect()
            } else {
                // High-cardinality targets would need `cardinality` binary
                // models; cap the expense by collapsing rare classes into
                // the most frequent ones via OvR on the top classes.
                let k = cardinality.min(12);
                let capped: Vec<u32> = labels.iter().map(|&y| y.min(k - 1)).collect();
                let model = GbdtMulticlass::fit(&feats_train, &capped, k, params);
                (0..holdout.n_rows())
                    .map(|r| {
                        let row = row_features(holdout, r, Some(target));
                        let p = model.predict_proba_row(&row);
                        p.iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(c, _)| c as u32)
                            .unwrap_or(0)
                    })
                    .collect()
            };
            let truth_capped: Vec<u32> =
                if cardinality > 12 { truth.iter().map(|&y| y.min(11)).collect() } else { truth };
            macro_f1(&truth_capped, &preds, cardinality.min(12)).clamp(0.0, 1.0)
        }
        ColumnKind::Numeric => {
            let y = numeric_targets(train, target);
            let model = GbdtRegressor::fit(&feats_train, &y, params);
            let truth = numeric_targets(holdout, target);
            let preds: Vec<f64> = (0..holdout.n_rows())
                .map(|r| model.predict_row(&row_features(holdout, r, Some(target))))
                .collect();
            d2_absolute_error(&truth, &preds).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_tabular::profiles;
    use silofuse_tabular::split::train_holdout_split;

    /// An empty holdout or a foreign schema is a typed error; the
    /// panicking `utility` asserted on both.
    #[test]
    fn empty_holdout_or_mismatched_tables_are_typed_errors() {
        let t = profiles::loan().generate(96, 0);
        let (train, holdout) = train_holdout_split(&t, 0.25, 0);
        let empty = Table::empty(t.schema().clone());
        let other = profiles::diabetes().generate(64, 0);
        let cfg = UtilityConfig { max_targets: 2, ..Default::default() };
        let empty_holdout = MetricError::EmptyTable { table: "holdout" };
        assert_eq!(try_utility(&train, &train, &empty, &cfg).unwrap_err(), empty_holdout);
        let synth_mismatch = MetricError::SchemaMismatch { table: "synthetic" };
        assert_eq!(try_utility(&train, &other, &holdout, &cfg).unwrap_err(), synth_mismatch);
        let holdout_mismatch = MetricError::SchemaMismatch { table: "holdout" };
        assert_eq!(try_utility(&train, &train, &other, &cfg).unwrap_err(), holdout_mismatch);
        let ok = try_utility(&train, &train, &holdout, &cfg).unwrap();
        assert_eq!(ok.score, utility(&train, &train, &holdout, &cfg).score);
    }

    #[test]
    fn real_as_synthetic_scores_near_100() {
        let t = profiles::loan().generate(768, 0);
        let (train, holdout) = train_holdout_split(&t, 0.25, 0);
        // Use a *second sample from the same population* as "synthetic".
        let synth = profiles::loan().generate(576, 1);
        let report = utility(&train, &synth, &holdout, &UtilityConfig::default());
        assert!(report.score > 80.0, "score {}", report.score);
    }

    #[test]
    fn garbage_synthetic_scores_low() {
        let t = profiles::loan().generate(768, 2);
        let (train, holdout) = train_holdout_split(&t, 0.25, 2);
        // Independent features with shuffled label relationship.
        let mut gen = profiles::loan().generator(77);
        gen.correlation_strength = 0.0;
        gen.seed ^= 0xdead;
        let garbage = gen.generate(576, 9);
        let good = utility(
            &train,
            &profiles::loan().generate(576, 3),
            &holdout,
            &UtilityConfig::default(),
        );
        let bad = utility(&train, &garbage, &holdout, &UtilityConfig::default());
        assert!(
            bad.score < good.score,
            "garbage {} should underperform good {}",
            bad.score,
            good.score
        );
    }

    #[test]
    fn evaluated_columns_include_label() {
        let t = profiles::diabetes().generate(256, 4);
        let (train, holdout) = train_holdout_split(&t, 0.25, 4);
        let report = utility(&train, &train, &holdout, &UtilityConfig::default());
        assert!(report.evaluated_columns.contains(&(t.n_cols() - 1)));
        assert!(report.evaluated_columns.len() <= 8);
    }

    #[test]
    fn column_score_regression_sane() {
        let t = profiles::abalone().generate(512, 5);
        let (train, holdout) = train_holdout_split(&t, 0.25, 5);
        let target = t.n_cols() - 1; // regression target
        let s = column_score(&train, &holdout, target, &BoostParams::default());
        assert!((0.0..=1.0).contains(&s));
        assert!(s > 0.2, "real-data regression should beat the median baseline: {s}");
    }

    #[test]
    fn scores_bounded() {
        let t = profiles::diabetes().generate(192, 6);
        let (train, holdout) = train_holdout_split(&t, 0.3, 6);
        let r = utility(&train, &train, &holdout, &UtilityConfig::default());
        assert!((0.0..=100.0).contains(&r.score));
    }
}
