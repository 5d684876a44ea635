//! The nine paper dataset profiles (Table II).
//!
//! Each profile reproduces the *schema statistics* of one of the paper's
//! benchmark datasets — row count, categorical/numeric feature counts, and
//! per-feature cardinalities chosen so the one-hot expansion (`#Aft`) matches
//! Table II exactly. Data is drawn from the seeded copula generator
//! ([`crate::synthetic`]); see DESIGN.md for the substitution rationale.
//!
//! The downstream target is the *last* column of the generated table and is
//! counted among the profile's features, as in the original datasets (e.g.
//! `income` in Adult).

use crate::synthetic::{dirichlet_weights, GeneratorConfig, Marginal, TaskKind};
use crate::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Schema statistics and generator recipe for one benchmark dataset.
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Paper row count (generation may subsample; see [`DatasetProfile::generate`]).
    pub rows: usize,
    /// Cardinalities of the categorical *feature* columns (target excluded).
    pub feature_cardinalities: Vec<u32>,
    /// Number of numeric feature columns (target excluded for regression
    /// tasks, where the target adds one more numeric column).
    pub n_numeric_features: usize,
    /// Downstream task; the target column is appended by the generator and
    /// counts toward the Table II statistics.
    pub task: TaskKind,
    /// Latent dependence strength fed to the copula generator.
    pub correlation_strength: f64,
}

impl DatasetProfile {
    /// Total column count (`#Bef` in Table II).
    pub fn width(&self) -> usize {
        self.feature_cardinalities.len() + self.n_numeric_features + 1
    }

    /// Categorical column count (`#Cat`), target included when categorical.
    pub fn categorical_count(&self) -> usize {
        self.feature_cardinalities.len()
            + usize::from(matches!(self.task, TaskKind::Classification { .. }))
    }

    /// Numeric column count (`#Num`), target included when numeric.
    pub fn numeric_count(&self) -> usize {
        self.n_numeric_features + usize::from(matches!(self.task, TaskKind::Regression))
    }

    /// One-hot-encoded width (`#Aft` in Table II).
    pub fn one_hot_width(&self) -> usize {
        let cat: usize = self.feature_cardinalities.iter().map(|&c| c as usize).sum();
        let target = match self.task {
            TaskKind::Classification { classes } => classes as usize,
            TaskKind::Regression => 1,
        };
        cat + self.numeric_count() - usize::from(matches!(self.task, TaskKind::Regression)) + target
    }

    /// Expansion factor (`Incr` in Table II).
    pub fn expansion_factor(&self) -> f64 {
        self.one_hot_width() as f64 / self.width() as f64
    }

    /// Builds the deterministic generator configuration for this profile.
    ///
    /// Marginal shapes and class weights are derived from `seed` combined
    /// with the profile name, so a profile always produces the same
    /// population for a given seed.
    pub fn generator(&self, seed: u64) -> GeneratorConfig {
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(self.name));
        let mut marginals: Vec<(String, Marginal)> = Vec::new();

        for (i, &card) in self.feature_cardinalities.iter().enumerate() {
            // High-cardinality columns get Zipf-like skew (alpha < 1).
            let alpha = if card > 50 { 0.4 } else { 1.5 };
            let weights = dirichlet_weights(card, alpha, &mut rng);
            marginals.push((format!("cat_{i}"), Marginal::Categorical { weights }));
        }
        for i in 0..self.n_numeric_features {
            let m = match i % 4 {
                0 => Marginal::Gaussian {
                    mean: rng.gen_range(-5.0..50.0),
                    std: rng.gen_range(0.5..8.0),
                },
                1 => Marginal::LogNormal {
                    mu: rng.gen_range(0.0..4.0),
                    sigma: rng.gen_range(0.2..0.8),
                },
                2 => Marginal::Uniform { lo: 0.0, hi: rng.gen_range(1.0..200.0) },
                _ => Marginal::Bimodal {
                    mean: rng.gen_range(-2.0..10.0),
                    std: rng.gen_range(0.5..3.0),
                    sep: rng.gen_range(0.8..2.0),
                },
            };
            marginals.push((format!("num_{i}"), m));
        }

        GeneratorConfig {
            marginals,
            task: self.task,
            correlation_strength: self.correlation_strength,
            seed: seed ^ hash_name(self.name) ^ 0x9e37_79b9,
        }
    }

    /// Generates `rows` samples (pass [`DatasetProfile::rows`] for the paper
    /// size, or a smaller cap for CPU-scale experiments). The profile's
    /// population is fixed; `sample_seed` only picks the draw, so different
    /// seeds give iid samples of the same distribution — exactly what the
    /// train/synthetic/holdout comparisons in the benchmark need.
    pub fn generate(&self, rows: usize, sample_seed: u64) -> Table {
        let _span = silofuse_observe::span("data-generate");
        self.generator(0).generate(rows, sample_seed)
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, enough to decorrelate per-dataset seeds.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// All nine paper profiles, in the order of Table II.
pub fn all_profiles() -> Vec<DatasetProfile> {
    vec![loan(), adult(), cardio(), abalone(), churn(), diabetes(), cover(), intrusion(), heloc()]
}

/// Looks a profile up by its (case-insensitive) paper name. Covers the nine
/// Table II benchmarks plus the synthetic high-cardinality stress family.
pub fn profile_by_name(name: &str) -> Option<DatasetProfile> {
    all_profiles()
        .into_iter()
        .chain(high_cardinality_profiles())
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

/// Synthetic high-cardinality stress family for the sparse categorical
/// path. Deliberately *not* part of [`all_profiles`] — that list is pinned
/// to the paper's nine Table II benchmarks — but resolvable through
/// [`profile_by_name`] for the CLI, scenario matrices, and benches.
pub fn high_cardinality_profiles() -> Vec<DatasetProfile> {
    vec![high_card_1k(), high_card_10k()]
}

/// HighCard1k: a 1 000-way identifier-like column next to small
/// categoricals, one-hot 7 → 1 016.
pub fn high_card_1k() -> DatasetProfile {
    DatasetProfile {
        name: "HighCard1k",
        rows: 10_000,
        feature_cardinalities: vec![1_000, 8, 3],
        n_numeric_features: 3,
        task: TaskKind::Classification { classes: 2 },
        correlation_strength: 0.4,
    }
}

/// HighCard10k: a 10 000-way column (3.4× Churn's widest), one-hot
/// 7 → 10 021 — the scenario axis the dense encoding cannot afford.
pub fn high_card_10k() -> DatasetProfile {
    DatasetProfile {
        name: "HighCard10k",
        rows: 10_000,
        feature_cardinalities: vec![10_000, 12, 4],
        n_numeric_features: 3,
        task: TaskKind::Classification { classes: 2 },
        correlation_strength: 0.4,
    }
}

/// Loan: 5 000 rows, 7 cat / 6 num, one-hot 13 → 23.
pub fn loan() -> DatasetProfile {
    DatasetProfile {
        name: "Loan",
        rows: 5000,
        feature_cardinalities: vec![2, 2, 2, 3, 3, 3],
        n_numeric_features: 6,
        task: TaskKind::Classification { classes: 2 },
        correlation_strength: 0.6,
    }
}

/// Adult: 48 842 rows, 9 cat / 5 num, one-hot 14 → 108.
pub fn adult() -> DatasetProfile {
    DatasetProfile {
        name: "Adult",
        rows: 48_842,
        feature_cardinalities: vec![9, 16, 7, 15, 6, 5, 2, 41],
        n_numeric_features: 5,
        task: TaskKind::Classification { classes: 2 },
        correlation_strength: 0.55,
    }
}

/// Cardio: 70 000 rows, 7 cat / 5 num, one-hot 12 → 21.
pub fn cardio() -> DatasetProfile {
    DatasetProfile {
        name: "Cardio",
        rows: 70_000,
        feature_cardinalities: vec![2, 2, 2, 2, 3, 3],
        n_numeric_features: 5,
        task: TaskKind::Classification { classes: 2 },
        correlation_strength: 0.6,
    }
}

/// Abalone: 4 177 rows, 2 cat / 8 num, one-hot 10 → 39; regression target.
pub fn abalone() -> DatasetProfile {
    DatasetProfile {
        name: "Abalone",
        rows: 4177,
        feature_cardinalities: vec![3, 28],
        n_numeric_features: 7,
        task: TaskKind::Regression,
        correlation_strength: 0.7,
    }
}

/// Churn: 10 000 rows, 8 cat / 6 num, one-hot 14 → 2 964 (a surname-like
/// 2 932-way column dominates, the paper's worst one-hot blow-up).
pub fn churn() -> DatasetProfile {
    DatasetProfile {
        name: "Churn",
        rows: 10_000,
        feature_cardinalities: vec![2932, 11, 3, 2, 4, 2, 2],
        n_numeric_features: 6,
        task: TaskKind::Classification { classes: 2 },
        correlation_strength: 0.5,
    }
}

/// Diabetes: 768 rows, 2 cat / 7 num, one-hot 9 → 26.
pub fn diabetes() -> DatasetProfile {
    DatasetProfile {
        name: "Diabetes",
        rows: 768,
        feature_cardinalities: vec![17],
        n_numeric_features: 7,
        task: TaskKind::Classification { classes: 2 },
        correlation_strength: 0.65,
    }
}

/// Cover: 581 012 rows, 45 cat / 10 num, one-hot 55 → 104; 7-class target.
/// One feature column is unary (constant) to land exactly on Table II's
/// expansion count — and doubles as a degenerate-column robustness probe.
pub fn cover() -> DatasetProfile {
    let mut cards = vec![2u32; 43];
    cards.push(1);
    DatasetProfile {
        name: "Cover",
        rows: 581_012,
        feature_cardinalities: cards,
        n_numeric_features: 10,
        task: TaskKind::Classification { classes: 7 },
        correlation_strength: 0.55,
    }
}

/// Intrusion: 22 544 rows, 22 cat / 20 num, one-hot 42 → 268.
pub fn intrusion() -> DatasetProfile {
    let mut cards = vec![3u32, 66, 11, 6];
    cards.extend(std::iter::repeat_n(2, 11));
    cards.extend([3, 3, 4, 5, 23, 100]);
    DatasetProfile {
        name: "Intrusion",
        rows: 22_544,
        feature_cardinalities: cards,
        n_numeric_features: 20,
        task: TaskKind::Classification { classes: 2 },
        correlation_strength: 0.5,
    }
}

/// Heloc: 10 250 rows, 12 cat / 12 num, one-hot 24 → 239.
pub fn heloc() -> DatasetProfile {
    DatasetProfile {
        name: "Heloc",
        rows: 10_250,
        feature_cardinalities: vec![2, 3, 4, 5, 8, 9, 10, 24, 40, 50, 70],
        n_numeric_features: 12,
        task: TaskKind::Classification { classes: 2 },
        correlation_strength: 0.6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact Table II rows: (name, rows, #cat, #num, #bef, #aft).
    const TABLE_II: &[(&str, usize, usize, usize, usize, usize)] = &[
        ("Loan", 5000, 7, 6, 13, 23),
        ("Adult", 48_842, 9, 5, 14, 108),
        ("Cardio", 70_000, 7, 5, 12, 21),
        ("Abalone", 4177, 2, 8, 10, 39),
        ("Churn", 10_000, 8, 6, 14, 2964),
        ("Diabetes", 768, 2, 7, 9, 26),
        ("Cover", 581_012, 45, 10, 55, 104),
        ("Intrusion", 22_544, 22, 20, 42, 268),
        ("Heloc", 10_250, 12, 12, 24, 239),
    ];

    #[test]
    fn profiles_match_table_ii_exactly() {
        for &(name, rows, n_cat, n_num, bef, aft) in TABLE_II {
            let p = profile_by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(p.rows, rows, "{name} rows");
            assert_eq!(p.categorical_count(), n_cat, "{name} #cat");
            assert_eq!(p.numeric_count(), n_num, "{name} #num");
            assert_eq!(p.width(), bef, "{name} #bef");
            assert_eq!(p.one_hot_width(), aft, "{name} #aft");
        }
    }

    #[test]
    fn generated_schema_agrees_with_profile_stats() {
        for p in all_profiles() {
            let t = p.generate(64, 1);
            let s = t.schema();
            assert_eq!(s.width(), p.width(), "{} width", p.name);
            assert_eq!(s.categorical_count(), p.categorical_count(), "{}", p.name);
            assert_eq!(s.one_hot_width(), p.one_hot_width(), "{} one-hot", p.name);
            assert_eq!(t.n_rows(), 64);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = loan();
        assert_eq!(p.generate(100, 5), p.generate(100, 5));
    }

    #[test]
    fn expansion_factor_ranks_churn_worst() {
        let factors: Vec<(String, f64)> =
            all_profiles().iter().map(|p| (p.name.to_string(), p.expansion_factor())).collect();
        let max = factors.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(max.0, "Churn");
        assert!(max.1 > 200.0);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(profile_by_name("heloc").is_some());
        assert!(profile_by_name("HELOC").is_some());
        assert!(profile_by_name("nope").is_none());
    }

    #[test]
    fn high_cardinality_family_resolves_but_stays_out_of_table_ii() {
        let p1k = profile_by_name("highcard1k").expect("HighCard1k resolvable");
        assert_eq!(p1k.one_hot_width(), 1_016);
        let p10k = profile_by_name("HighCard10k").expect("HighCard10k resolvable");
        assert_eq!(p10k.width(), 7);
        assert_eq!(p10k.one_hot_width(), 10_021);
        assert!(p10k.expansion_factor() > 1000.0);
        // The paper benchmark list stays exactly the nine Table II rows.
        assert!(all_profiles().iter().all(|p| !p.name.starts_with("HighCard")));
        // Generation works at 10k-way cardinality and matches the stats.
        let t = p10k.generate(64, 3);
        assert_eq!(t.schema().one_hot_width(), p10k.one_hot_width());
        assert_eq!(t.n_rows(), 64);
    }
}
