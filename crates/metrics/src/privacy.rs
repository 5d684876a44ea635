//! Privacy risk quantification (§V-B, §V-F): singling-out, linkability, and
//! attribute-inference attacks on *shared* synthetic data, following the
//! Anonymeter-style evaluation the paper cites (refs. 51 and 52).
//!
//! Each attack's success rate is normalised against a naive baseline:
//! `risk = max(0, (success − baseline) / (1 − baseline))`, and the privacy
//! score is `100 · (1 − risk)`; higher is more private. The composite is
//! the mean of the three attack scores.

use crate::MetricError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silofuse_tabular::schema::ColumnKind;
use silofuse_tabular::table::{Column, Table};

/// Privacy evaluation settings.
#[derive(Debug, Clone, Copy)]
pub struct PrivacyConfig {
    /// Number of attack attempts per attack type.
    pub attempts: usize,
    /// Attributes per singling-out predicate.
    pub predicate_width: usize,
    /// Numeric tolerance for predicates/attribute hits, as a fraction of
    /// the column's range.
    pub tolerance: f64,
    /// Top-k neighbourhood for the linkability attack.
    pub link_top_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PrivacyConfig {
    fn default() -> Self {
        Self { attempts: 200, predicate_width: 3, tolerance: 0.05, link_top_k: 5, seed: 0 }
    }
}

/// Per-attack and composite privacy scores (0–100, higher = more private).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyReport {
    /// Resistance to the singling-out attack.
    pub singling_out: f64,
    /// Resistance to the linkability attack.
    pub linkability: f64,
    /// Resistance to the attribute-inference attack.
    pub attribute_inference: f64,
    /// Mean of the three.
    pub composite: f64,
}

/// Evaluates all three attacks of `synth` against `real`.
///
/// # Panics
/// Panics if schemas differ or either table is empty; use [`try_privacy`]
/// to get those as a [`MetricError`].
pub fn privacy(real: &Table, synth: &Table, config: &PrivacyConfig) -> PrivacyReport {
    try_privacy(real, synth, config).unwrap_or_else(|e| panic!("privacy: {e}"))
}

/// Evaluates all three attacks of `synth` against `real`.
///
/// # Errors
/// [`MetricError::SchemaMismatch`] if the schemas differ and
/// [`MetricError::EmptyTable`] if either table has no rows.
pub fn try_privacy(
    real: &Table,
    synth: &Table,
    config: &PrivacyConfig,
) -> Result<PrivacyReport, MetricError> {
    crate::same_schema(real, synth, "synthetic")?;
    crate::has_rows(real, "real")?;
    crate::has_rows(synth, "synthetic")?;
    let ranges = column_ranges(real);
    let singling_out = singling_out_score(real, synth, &ranges, config);
    let linkability = linkability_score(real, synth, &ranges, config);
    let attribute_inference = attribute_inference_score(real, synth, &ranges, config);
    Ok(PrivacyReport {
        singling_out,
        linkability,
        attribute_inference,
        composite: (singling_out + linkability + attribute_inference) / 3.0,
    })
}

fn normalise_risk(attack_success: f64, baseline_success: f64) -> f64 {
    let denom = (1.0 - baseline_success).max(1e-9);
    ((attack_success - baseline_success) / denom).clamp(0.0, 1.0)
}

/// Per-column `(lo, hi)` ranges (for numerics) used in tolerances.
fn column_ranges(table: &Table) -> Vec<(f64, f64)> {
    table
        .columns()
        .iter()
        .map(|col| match col {
            Column::Numeric(v) => {
                let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                if !lo.is_finite() || !hi.is_finite() {
                    return (0.0, 1.0);
                }
                // A constant column has `hi == lo`; an absolute nudge like
                // `lo + 1e-12` is absorbed at large magnitudes (1e9 + 1e-12
                // rounds back to 1e9), leaving a zero-width range and
                // degenerate (exact-match) tolerances. Floor the width
                // relative to the column's magnitude instead.
                let min_width = 1e-9 * lo.abs().max(hi.abs()).max(1.0);
                (lo, hi.max(lo + min_width))
            }
            Column::Categorical(_) => (0.0, 0.0),
        })
        .collect()
}

/// A conjunction of per-column conditions used by the singling-out attack.
struct Predicate {
    /// `(column, value, tolerance)`; tolerance is 0 for categoricals.
    conditions: Vec<(usize, f64, f64)>,
}

impl Predicate {
    fn matches(&self, table: &Table, row: usize) -> bool {
        self.conditions.iter().all(|&(col, value, tol)| match table.column(col) {
            Column::Numeric(v) => (v[row] - value).abs() <= tol,
            Column::Categorical(codes) => f64::from(codes[row]) == value,
        })
    }

    fn count_matches(&self, table: &Table) -> usize {
        (0..table.n_rows()).filter(|&r| self.matches(table, r)).count()
    }
}

/// Singling-out [51]: the attacker crafts predicates from synthetic records
/// and succeeds when a predicate isolates exactly one real record. The
/// baseline attacker samples predicate values uniformly at random.
fn singling_out_score(
    real: &Table,
    synth: &Table,
    ranges: &[(f64, f64)],
    config: &PrivacyConfig,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x51);
    let d = real.n_cols();
    let width = config.predicate_width.min(d);

    let mut attack_hits = 0usize;
    let mut baseline_hits = 0usize;
    for _ in 0..config.attempts {
        // Attack predicate from a random synthetic record.
        let srow = rng.gen_range(0..synth.n_rows());
        let cols = sample_columns(d, width, &mut rng);
        let attack = Predicate {
            conditions: cols
                .iter()
                .map(|&c| match synth.column(c) {
                    Column::Numeric(v) => {
                        (c, v[srow], config.tolerance * (ranges[c].1 - ranges[c].0))
                    }
                    Column::Categorical(codes) => (c, f64::from(codes[srow]), 0.0),
                })
                .collect(),
        };
        if attack.count_matches(real) == 1 {
            attack_hits += 1;
        }
        // Baseline predicate with random values.
        let cols = sample_columns(d, width, &mut rng);
        let baseline = Predicate {
            conditions: cols
                .iter()
                .map(|&c| match real.schema().columns()[c].kind {
                    ColumnKind::Numeric => {
                        let (lo, hi) = ranges[c];
                        (c, rng.gen_range(lo..=hi), config.tolerance * (hi - lo))
                    }
                    ColumnKind::Categorical { cardinality } => {
                        (c, f64::from(rng.gen_range(0..cardinality)), 0.0)
                    }
                })
                .collect(),
        };
        if baseline.count_matches(real) == 1 {
            baseline_hits += 1;
        }
    }
    let risk = normalise_risk(
        attack_hits as f64 / config.attempts as f64,
        baseline_hits as f64 / config.attempts as f64,
    );
    100.0 * (1.0 - risk)
}

fn sample_columns(d: usize, width: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..d).collect();
    for i in (1..cols.len()).rev() {
        let j = rng.gen_range(0..=i);
        cols.swap(i, j);
    }
    cols.truncate(width);
    cols
}

/// Gower-style distance between a real row and a synthetic row over the
/// given columns: normalised absolute difference for numerics, 0/1 mismatch
/// for categoricals.
fn gower(
    real: &Table,
    r: usize,
    synth: &Table,
    s: usize,
    cols: &[usize],
    ranges: &[(f64, f64)],
) -> f64 {
    let mut total = 0.0;
    for &c in cols {
        total += match (real.column(c), synth.column(c)) {
            (Column::Numeric(a), Column::Numeric(b)) => {
                let (lo, hi) = ranges[c];
                ((a[r] - b[s]).abs() / (hi - lo)).min(1.0)
            }
            (Column::Categorical(a), Column::Categorical(b)) => f64::from(u8::from(a[r] != b[s])),
            _ => unreachable!("schemas matched"),
        };
    }
    total / cols.len().max(1) as f64
}

/// Indices of the `k` nearest synthetic rows to real row `r` over `cols`.
fn top_k_neighbours(
    real: &Table,
    r: usize,
    synth: &Table,
    cols: &[usize],
    ranges: &[(f64, f64)],
    k: usize,
) -> Vec<usize> {
    let mut dists: Vec<(f64, usize)> =
        (0..synth.n_rows()).map(|s| (gower(real, r, synth, s, cols, ranges), s)).collect();
    dists.sort_by(|a, b| a.0.total_cmp(&b.0));
    dists.into_iter().take(k).map(|(_, s)| s).collect()
}

/// Linkability [51]: real features are split into two disjoint halves (the
/// cross-silo scenario). For a target record, the attacker finds its
/// nearest synthetic neighbours using each half independently and succeeds
/// when the neighbourhoods intersect — evidence the synthetic data links
/// the two halves of that individual. Baseline: random neighbourhoods.
fn linkability_score(
    real: &Table,
    synth: &Table,
    ranges: &[(f64, f64)],
    config: &PrivacyConfig,
) -> f64 {
    let d = real.n_cols();
    if d < 2 {
        return 100.0;
    }
    let half_a: Vec<usize> = (0..d / 2).collect();
    let half_b: Vec<usize> = (d / 2..d).collect();
    let k = config.link_top_k.min(synth.n_rows());
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x117);

    let mut attack_hits = 0usize;
    let mut baseline_hits = 0usize;
    for _ in 0..config.attempts {
        let target = rng.gen_range(0..real.n_rows());
        let nn_a = top_k_neighbours(real, target, synth, &half_a, ranges, k);
        let nn_b = top_k_neighbours(real, target, synth, &half_b, ranges, k);
        if nn_a.iter().any(|i| nn_b.contains(i)) {
            attack_hits += 1;
        }
        // Baseline: two random k-subsets of the synthetic rows.
        let rand_a: Vec<usize> = (0..k).map(|_| rng.gen_range(0..synth.n_rows())).collect();
        let rand_b: Vec<usize> = (0..k).map(|_| rng.gen_range(0..synth.n_rows())).collect();
        if rand_a.iter().any(|i| rand_b.contains(i)) {
            baseline_hits += 1;
        }
    }
    let risk = normalise_risk(
        attack_hits as f64 / config.attempts as f64,
        baseline_hits as f64 / config.attempts as f64,
    );
    100.0 * (1.0 - risk)
}

/// Attribute inference [52]: the attacker knows every attribute of a target
/// real record except one secret column, finds the nearest synthetic
/// neighbour on the known columns, and predicts the secret from it.
/// Baseline: predict the secret's mode (categorical) / median (numeric).
fn attribute_inference_score(
    real: &Table,
    synth: &Table,
    ranges: &[(f64, f64)],
    config: &PrivacyConfig,
) -> f64 {
    let d = real.n_cols();
    if d < 2 {
        return 100.0;
    }
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xa1);

    let mut attack_hits = 0usize;
    let mut baseline_hits = 0usize;
    for _ in 0..config.attempts {
        let target = rng.gen_range(0..real.n_rows());
        let secret = rng.gen_range(0..d);
        let known: Vec<usize> = (0..d).filter(|&c| c != secret).collect();
        let nn = top_k_neighbours(real, target, synth, &known, ranges, 1)[0];

        let hit = |prediction: f64| -> bool {
            match real.column(secret) {
                Column::Numeric(v) => {
                    let (lo, hi) = ranges[secret];
                    (v[target] - prediction).abs() <= config.tolerance * (hi - lo)
                }
                Column::Categorical(codes) => f64::from(codes[target]) == prediction,
            }
        };

        let attack_pred = match synth.column(secret) {
            Column::Numeric(v) => v[nn],
            Column::Categorical(codes) => f64::from(codes[nn]),
        };
        if hit(attack_pred) {
            attack_hits += 1;
        }

        let baseline_pred = match synth.column(secret) {
            Column::Numeric(v) => {
                let mut sorted = v.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                sorted[sorted.len() / 2]
            }
            Column::Categorical(codes) => {
                let mut counts = std::collections::HashMap::new();
                for &c in codes {
                    *counts.entry(c).or_insert(0usize) += 1;
                }
                f64::from(counts.into_iter().max_by_key(|&(_, n)| n).map(|(c, _)| c).unwrap_or(0))
            }
        };
        if hit(baseline_pred) {
            baseline_hits += 1;
        }
    }
    let risk = normalise_risk(
        attack_hits as f64 / config.attempts as f64,
        baseline_hits as f64 / config.attempts as f64,
    );
    100.0 * (1.0 - risk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_tabular::profiles;

    fn quick_config() -> PrivacyConfig {
        PrivacyConfig { attempts: 80, ..Default::default() }
    }

    /// An empty table or a foreign schema is a typed error; the panicking
    /// `privacy` asserted on both.
    #[test]
    fn empty_or_mismatched_tables_are_typed_errors() {
        let real = profiles::loan().generate(64, 0);
        let empty = Table::empty(real.schema().clone());
        let other = profiles::diabetes().generate(64, 0);
        let cfg = quick_config();
        let err = |t| MetricError::EmptyTable { table: t };
        assert_eq!(try_privacy(&real, &empty, &cfg), Err(err("synthetic")));
        assert_eq!(try_privacy(&empty, &real, &cfg), Err(err("real")));
        let mismatch = MetricError::SchemaMismatch { table: "synthetic" };
        assert_eq!(try_privacy(&real, &other, &cfg), Err(mismatch));
        assert_eq!(try_privacy(&real, &real, &cfg), Ok(privacy(&real, &real, &cfg)));
    }

    #[test]
    fn leaking_the_training_data_scores_worst() {
        let real = profiles::loan().generate(256, 0);
        // Worst case: "synthetic" data IS the real data.
        let leak = privacy(&real, &real, &quick_config());
        // Honest case: an independent draw from the same population.
        let fresh = profiles::loan().generate(256, 1);
        let ok = privacy(&real, &fresh, &quick_config());
        assert!(
            leak.composite < ok.composite,
            "verbatim leak {} must score below fresh draw {}",
            leak.composite,
            ok.composite
        );
        assert!(leak.attribute_inference <= ok.attribute_inference + 1e-9);
    }

    #[test]
    fn scores_are_bounded() {
        let real = profiles::diabetes().generate(128, 2);
        let synth = profiles::diabetes().generate(128, 3);
        let p = privacy(&real, &synth, &quick_config());
        for v in [p.singling_out, p.linkability, p.attribute_inference, p.composite] {
            assert!((0.0..=100.0).contains(&v), "{p:?}");
        }
    }

    #[test]
    fn independent_noise_scores_high() {
        let real = profiles::diabetes().generate(128, 4);
        // Synthetic from an unrelated population: attacker learns nothing.
        let mut gen = profiles::diabetes().generator(123);
        gen.correlation_strength = 0.0;
        gen.seed ^= 0xbeef;
        let noise = gen.generate(128, 9);
        let p = privacy(&real, &noise, &quick_config());
        assert!(p.composite > 60.0, "composite {}", p.composite);
    }

    #[test]
    fn deterministic_given_seed() {
        let real = profiles::diabetes().generate(96, 5);
        let synth = profiles::diabetes().generate(96, 6);
        let a = privacy(&real, &synth, &quick_config());
        let b = privacy(&real, &synth, &quick_config());
        assert_eq!(a, b);
    }

    #[test]
    fn constant_columns_get_a_nonzero_range_width() {
        use silofuse_tabular::schema::{ColumnMeta, Schema};
        // A constant column must still yield a usable (non-zero-width)
        // range — including at magnitudes where `lo + 1e-12` would be
        // absorbed by f64 rounding.
        let schema = Schema::new(vec![
            ColumnMeta::numeric("small_const"),
            ColumnMeta::numeric("big_const"),
            ColumnMeta::numeric("varying"),
        ]);
        let t = Table::new(
            schema,
            vec![
                Column::Numeric(vec![0.5; 6]),
                Column::Numeric(vec![1e9; 6]),
                Column::Numeric(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            ],
        )
        .unwrap();
        let ranges = column_ranges(&t);
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            assert!(hi > lo, "column {i}: range ({lo}, {hi}) has zero width");
        }
        // The floor is relative: a tolerance derived from the big constant's
        // width must still accept the constant value itself.
        let (lo, hi) = ranges[1];
        let tol = PrivacyConfig::default().tolerance * (hi - lo);
        assert!(tol > 0.0 && (1e9f64 - 1e9f64).abs() <= tol);
        // The varying column's true span is untouched by the floor.
        assert_eq!(ranges[2], (0.0, 5.0));
    }

    #[test]
    fn privacy_attacks_survive_constant_columns() {
        use silofuse_tabular::schema::{ColumnMeta, Schema};
        let schema = Schema::new(vec![
            ColumnMeta::numeric("const"),
            ColumnMeta::numeric("x"),
            ColumnMeta::categorical("c", 3),
        ]);
        let make = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 64;
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let c: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            Table::new(
                schema.clone(),
                vec![Column::Numeric(vec![7.25e8; n]), Column::Numeric(x), Column::Categorical(c)],
            )
            .unwrap()
        };
        let p = privacy(&make(1), &make(2), &quick_config());
        for v in [p.singling_out, p.linkability, p.attribute_inference, p.composite] {
            assert!(v.is_finite() && (0.0..=100.0).contains(&v), "{p:?}");
        }
    }

    #[test]
    fn row_features_helper_used_consistently() {
        // Silence the unused-import lint path by exercising row_features on
        // the same tables the attacks see.
        let t = profiles::diabetes().generate(8, 7);
        assert_eq!(crate::features::row_features(&t, 0, None).len(), t.n_cols());
    }
}
