//! Tentpole guarantee of the sparse categorical path: for every schema,
//! batch size, and thread count, autoencoder and GAN training and
//! synthesis through the sparse index+value representation are
//! **bit-identical** to the dense one-hot oracle, and training-state
//! checkpoints cross the representation boundary (a dense-trained run
//! resumes on the sparse path mid-fit, and vice versa).
//!
//! The equality is exact (`export_weights`/`export_train_state` byte
//! comparisons), not approximate: the gather/scatter kernels accumulate in
//! the dense kernels' element order, and skipped `0·w` terms cannot
//! perturb a round-to-nearest accumulator for finite weights.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_checkpoint::{CheckpointError, Checkpointer, CrashPoint};
use silofuse_models::{AutoencoderConfig, GanConfig, TabularAutoencoder, TabularGan};
use silofuse_tabular::profiles;
use silofuse_tabular::table::Table;
use silofuse_tabular::SparsePolicy;

/// Schema sweep: narrow (Loan), the paper's widest real column (Churn,
/// 2 932-way), a mid-width schema (Heloc), and the synthetic 1k-way
/// profile. `Sparse` is *forced*, so even low-expansion schemas exercise
/// the sparse kernels against the dense oracle.
fn dataset(idx: usize, rows: usize, seed: u64) -> Table {
    let profile = match idx % 4 {
        0 => profiles::loan(),
        1 => profiles::churn(),
        2 => profiles::heloc(),
        _ => profiles::profile_by_name("HighCard1k").expect("profile family resolvable"),
    };
    profile.generate(rows, seed)
}

fn ae_cfg(seed: u64, encoding: SparsePolicy) -> AutoencoderConfig {
    AutoencoderConfig { hidden_dim: 24, lr: 2e-3, seed, encoding, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sparse-path AE training, encoding, and decoding equal the dense
    /// oracle bit for bit at every thread count.
    #[test]
    fn ae_training_and_synthesis_match_dense_oracle(
        idx in 0usize..4,
        batch_sel in 0usize..4,
        steps in 1usize..5,
        threads_sel in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let batch = [1usize, 7, 32, 64][batch_sel];
        let found = silofuse_nn::backend::threads();
        silofuse_nn::backend::set_threads([1usize, 2, 4][threads_sel]);
        let t = dataset(idx, 80, seed);
        let mut sparse = TabularAutoencoder::new(&t, ae_cfg(seed, SparsePolicy::Sparse));
        let mut dense = TabularAutoencoder::new(&t, ae_cfg(seed, SparsePolicy::Dense));
        prop_assert!(sparse.uses_sparse() && !dense.uses_sparse());
        let mut rng_s = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut rng_d = StdRng::seed_from_u64(seed ^ 0x5eed);
        let loss_s = sparse.fit(&t, steps, batch, &mut rng_s);
        let loss_d = dense.fit(&t, steps, batch, &mut rng_d);
        prop_assert_eq!(loss_s.to_bits(), loss_d.to_bits());
        prop_assert_eq!(sparse.export_weights(), dense.export_weights());
        let z_s = sparse.encode(&t);
        let z_d = dense.encode(&t);
        prop_assert_eq!(&z_s, &z_d);
        prop_assert_eq!(sparse.decode(&z_s), dense.decode(&z_d));
        silofuse_nn::backend::set_threads(found);
    }

    /// Sparse real-batch discriminator training leaves GAN weights,
    /// optimizer state, and samples bit-identical to the dense oracle.
    #[test]
    fn gan_training_and_sampling_match_dense_oracle(
        idx in 0usize..4,
        batch_sel in 0usize..2,
        steps in 1usize..4,
        threads_sel in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let batch = [8usize, 32][batch_sel];
        let found = silofuse_nn::backend::threads();
        silofuse_nn::backend::set_threads([1usize, 2, 4][threads_sel]);
        let t = dataset(idx, 64, seed);
        let cfg = GanConfig { hidden_dim: 24, noise_dim: 12, seed, ..Default::default() };
        let mut sparse =
            TabularGan::new(&t, GanConfig { encoding: SparsePolicy::Sparse, ..cfg });
        let mut dense = TabularGan::new(&t, GanConfig { encoding: SparsePolicy::Dense, ..cfg });
        prop_assert!(sparse.uses_sparse() && !dense.uses_sparse());
        let mut rng_s = StdRng::seed_from_u64(seed ^ 0x9a4);
        let mut rng_d = StdRng::seed_from_u64(seed ^ 0x9a4);
        sparse.fit(&t, steps, batch, &mut rng_s);
        dense.fit(&t, steps, batch, &mut rng_d);
        prop_assert_eq!(sparse.export_train_state(), dense.export_train_state());
        prop_assert_eq!(sparse.sample(16, &mut rng_s), dense.sample(16, &mut rng_d));
        silofuse_nn::backend::set_threads(found);
    }
}

/// A dense run crashes mid-fit; a *sparse* model resumes from its
/// checkpoint and finishes bit-identically to the uninterrupted dense
/// run — the representation switch is invisible to the training state.
#[test]
fn checkpoint_resume_crosses_the_representation_switch() {
    let t = profiles::churn().generate(96, 3);

    // Uninterrupted dense baseline.
    let mut clean = TabularAutoencoder::new(&t, ae_cfg(0, SparsePolicy::Dense));
    let mut rng_clean = StdRng::seed_from_u64(11);
    clean.fit(&t, 20, 32, &mut rng_clean);
    let z_clean = clean.encode(&t);

    // Dense victim crashes at step 10 (cadence 4 → last save at step 8).
    let dir = std::env::temp_dir().join(format!("silofuse-repr-switch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let armed =
        Checkpointer::new(&dir, 4).with_crash(Some(CrashPoint::parse("ae-train:10").unwrap()));
    let mut victim = TabularAutoencoder::new(&t, ae_cfg(0, SparsePolicy::Dense));
    let mut rng = StdRng::seed_from_u64(11);
    let err = victim.fit_resumable(&t, 20, 32, &mut rng, &armed, "ae", "ae-train");
    assert!(matches!(err, Err(CheckpointError::Crashed { .. })));
    drop(victim);

    // Relaunch on the SPARSE path with a wrong seed; everything comes
    // from the dense checkpoint.
    let resume = Checkpointer::new(&dir, 4).with_resume(true);
    let mut revived = TabularAutoencoder::new(&t, ae_cfg(999, SparsePolicy::Sparse));
    let mut rng2 = StdRng::seed_from_u64(777);
    revived.fit_resumable(&t, 20, 32, &mut rng2, &resume, "ae", "ae-train").unwrap();
    assert!(revived.uses_sparse());
    assert_eq!(revived.encode(&t), z_clean, "cross-representation resume diverged");
    assert_eq!(rng2.state(), rng_clean.state(), "caller RNG timeline diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The mirror-image switch: a sparse run's checkpoint resumes densely.
#[test]
fn sparse_checkpoint_resumes_on_the_dense_path() {
    let t = profiles::heloc().generate(80, 7);
    let mut sparse = TabularAutoencoder::new(&t, ae_cfg(1, SparsePolicy::Sparse));
    let mut rng = StdRng::seed_from_u64(29);
    sparse.fit(&t, 12, 32, &mut rng);
    let blob = sparse.export_train_state();

    let mut dense = TabularAutoencoder::new(&t, ae_cfg(888, SparsePolicy::Dense));
    dense.import_train_state(&blob).unwrap();
    let mut rng_a = StdRng::seed_from_u64(31);
    let mut rng_b = StdRng::seed_from_u64(31);
    sparse.fit(&t, 6, 32, &mut rng_a);
    dense.fit(&t, 6, 32, &mut rng_b);
    assert_eq!(sparse.export_weights(), dense.export_weights());
}

/// Forced sparse on a categorical-free projection must still work (the
/// index buffer is simply empty) and stay bit-identical to dense.
#[test]
fn numeric_only_table_survives_forced_sparse() {
    let t = profiles::loan().generate(64, 5);
    let part = t.project(&t.schema().numeric_indices());
    let mut sparse = TabularAutoencoder::new(&part, ae_cfg(2, SparsePolicy::Sparse));
    let mut dense = TabularAutoencoder::new(&part, ae_cfg(2, SparsePolicy::Dense));
    assert!(sparse.uses_sparse());
    let mut rng_a = StdRng::seed_from_u64(41);
    let mut rng_b = StdRng::seed_from_u64(41);
    sparse.fit(&part, 5, 32, &mut rng_a);
    dense.fit(&part, 5, 32, &mut rng_b);
    assert_eq!(sparse.export_weights(), dense.export_weights());
}
