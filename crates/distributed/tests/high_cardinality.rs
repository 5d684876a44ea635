//! High-cardinality silo scenarios: the sparse categorical path must carry
//! both distributed protocols through schemas whose one-hot width dwarfs
//! the column count — Churn's real 2 932-way column and the synthetic
//! HighCard profile family (1k- and 10k-way).
//!
//! Two properties are pinned here:
//! 1. the protocols train and synthesize end-to-end on these schemas, and
//! 2. encoded-batch memory scales with *nonzeros*, not with the one-hot
//!    width (a dense one-hot batch's `rows × #Aft` buffer).

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_distributed::e2e_distr::E2eDistributed;
use silofuse_distributed::stacked::SiloFuseModel;
use silofuse_models::latentdiff::LatentDiffConfig;
use silofuse_models::{AutoencoderConfig, TabularAutoencoder};
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::profiles;
use silofuse_tabular::sparse::dense_batch_bytes;
use silofuse_tabular::table::Table;

fn tiny_config(seed: u64) -> LatentDiffConfig {
    LatentDiffConfig {
        ae: AutoencoderConfig { hidden_dim: 32, lr: 2e-3, seed, ..Default::default() },
        ddpm_hidden: 32,
        timesteps: 8,
        ae_steps: 8,
        diffusion_steps: 8,
        batch_size: 32,
        inference_steps: 4,
        seed,
        ..Default::default()
    }
}

fn split(table: &Table, m: usize) -> Vec<Table> {
    PartitionPlan::new(table.n_cols(), m, PartitionStrategy::Default).split(table)
}

/// Smoke-fits both protocols on partitions of `table` and checks synthesis
/// round-trips every partition schema.
fn both_protocols_round_trip(table: &Table, seed: u64, ctx: &str) {
    let parts = split(table, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stacked = SiloFuseModel::fit(&parts, tiny_config(seed), &mut rng);
    let synth = stacked.synthesize_partitioned(16, 0, &mut rng);
    for (s, p) in synth.iter().zip(&parts) {
        assert_eq!(s.n_rows(), 16, "{ctx}: stacked row count");
        assert_eq!(s.schema(), p.schema(), "{ctx}: stacked schema");
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0xe2e);
    let mut e2e = E2eDistributed::fit(&parts, tiny_config(seed ^ 0xe2e), &mut rng);
    let synth = e2e.synthesize_partitioned(16, &mut rng);
    for (s, p) in synth.iter().zip(&parts) {
        assert_eq!(s.n_rows(), 16, "{ctx}: e2e row count");
        assert_eq!(s.schema(), p.schema(), "{ctx}: e2e schema");
    }
}

/// Trains an AE on `table` and asserts its encoded-batch bytes are
/// proportional to nonzeros.
fn assert_sparse_memory(table: &Table, batch: usize, ctx: &str) {
    let mut ae =
        TabularAutoencoder::new(table, AutoencoderConfig { hidden_dim: 32, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(3);
    let loss = ae.fit(table, 4, batch, &mut rng);
    assert!(loss.is_finite(), "{ctx}: loss {loss}");

    let schema = table.schema();
    let rows = batch.min(table.n_rows());
    let sparse_bytes = ae.sparse_batch_bytes();
    // Exactly one f32 per numeric slot + one u32 per categorical column.
    let nonzeros = rows * (schema.numeric_count() + schema.categorical_count());
    assert_eq!(sparse_bytes, nonzeros * 4, "{ctx}: bytes must track nonzeros");
    let dense = dense_batch_bytes(rows, schema.one_hot_width());
    assert!(
        sparse_bytes * 20 < dense,
        "{ctx}: sparse batch ({sparse_bytes} B) must be far below dense ({dense} B)"
    );
}

#[test]
fn churn_2932_way_trains_on_both_protocols() {
    let t = profiles::churn().generate(96, 5);
    both_protocols_round_trip(&t, 5, "churn");
}

#[test]
fn high_card_10k_profile_trains_on_both_protocols() {
    let p = profiles::profile_by_name("HighCard10k").expect("profile family resolvable");
    assert!(p.one_hot_width() > 10_000);
    let t = p.generate(96, 7);
    both_protocols_round_trip(&t, 7, "high-card-10k");
}

#[test]
fn encoded_batch_memory_tracks_nonzeros_not_width() {
    let churn = profiles::churn().generate(128, 11);
    assert_sparse_memory(&churn, 64, "churn");

    let hc = profiles::profile_by_name("HighCard10k").unwrap().generate(128, 13);
    // 10 021-wide one-hot, 7 columns: dense/sparse ratio well over 1000×.
    assert_sparse_memory(&hc, 64, "high-card-10k");
    let hc1k = profiles::profile_by_name("HighCard1k").unwrap().generate(64, 17);
    assert_sparse_memory(&hc1k, 32, "high-card-1k");
}
