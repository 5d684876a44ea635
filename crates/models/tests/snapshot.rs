//! A `LatentDiff` rebuilt from its exported fitted state samples the bytes
//! of the model that wrote it, on Loan's mixed schema and on Churn's (its
//! 2 932-way column gives the sparse encoder and a 2 946-wide decoder
//! head), at one worker, the default count and four. Damaged bytes are a
//! typed error, never a panic.
//!
//! The worker count is process-global, so these tests live in their own
//! binary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silofuse_models::{AutoencoderConfig, LatentDiff, LatentDiffConfig};
use silofuse_nn::backend;
use silofuse_tabular::{profiles, Column, Table};

fn config(seed: u64) -> LatentDiffConfig {
    LatentDiffConfig {
        ae: AutoencoderConfig { hidden_dim: 32, lr: 2e-3, seed, ..Default::default() },
        ddpm_hidden: 32,
        timesteps: 20,
        ae_steps: 6,
        diffusion_steps: 6,
        batch_size: 32,
        inference_steps: 5,
        synth_chunk_rows: 200,
        seed,
        ..Default::default()
    }
}

fn fitted(table: &Table, cfg: LatentDiffConfig) -> LatentDiff {
    let mut model = LatentDiff::new(cfg);
    model.try_fit(table, &mut StdRng::seed_from_u64(cfg.seed)).unwrap();
    model
}

/// Every value's bits, so `-0.0` and `0.0` (or two NaNs) count as what
/// they are.
fn bits(table: &Table) -> Vec<Vec<u64>> {
    table
        .columns()
        .iter()
        .map(|c| match c {
            Column::Numeric(v) => v.iter().map(|x| x.to_bits()).collect(),
            Column::Categorical(v) => v.iter().map(|&x| u64::from(x)).collect(),
        })
        .collect()
}

#[test]
fn a_model_loaded_from_its_snapshot_samples_the_same_bytes() {
    let found = backend::threads();
    for (name, table) in
        [("loan", profiles::loan().generate(96, 4)), ("churn", profiles::churn().generate(96, 4))]
    {
        let cfg = config(4);
        let mut model = fitted(&table, cfg);
        let bytes = model.export_fitted().unwrap();
        let mut loaded = LatentDiff::from_fitted(cfg, &bytes).unwrap();
        assert_eq!(loaded.schema(), model.schema(), "{name}");
        // A second export writes the same bytes: every f32 and f64 kept
        // its bits.
        assert_eq!(loaded.export_fitted().unwrap(), bytes, "{name}");
        for threads in [1, found, 4] {
            backend::set_threads(threads);
            // 450 rows: two full 200-row chunks and a 50-row one.
            let want = model.try_synthesize_range(3, 450, 77).unwrap();
            let got = loaded.try_synthesize_range(3, 450, 77).unwrap();
            assert_eq!(got.n_rows(), 450);
            assert_eq!(bits(&got), bits(&want), "{name} at {threads} workers");
        }
        backend::set_threads(found);
    }
}

#[test]
fn damaged_snapshot_bytes_are_a_typed_error() {
    let cfg = config(5);
    let mut model = fitted(&profiles::loan().generate(64, 5), cfg);
    let bytes = model.export_fitted().unwrap();
    for cut in [0, 1, 4, 10, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
        assert!(LatentDiff::from_fitted(cfg, &bytes[..cut]).is_err(), "cut at {cut}");
    }
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(LatentDiff::from_fitted(cfg, &padded).is_err());
    // Another architecture does not fit the saved tensors.
    let wider = LatentDiffConfig { ddpm_hidden: 48, ..cfg };
    assert!(LatentDiff::from_fitted(wider, &bytes).is_err());
    let ae = AutoencoderConfig { hidden_dim: 16, ..cfg.ae };
    assert!(LatentDiff::from_fitted(LatentDiffConfig { ae, ..cfg }, &bytes).is_err());
    // No single flipped byte panics: each is an error or, inside a value,
    // a model with that value changed.
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..400 {
        let mut flipped = bytes.clone();
        let at = rng.gen_range(0..flipped.len());
        flipped[at] ^= rng.gen_range(1..=255u32) as u8;
        let _ = LatentDiff::from_fitted(cfg, &flipped);
    }
}
