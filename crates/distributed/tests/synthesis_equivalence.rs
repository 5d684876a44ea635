//! Tentpole guarantee of the batched synthesis engine: chunked, batched
//! reverse diffusion through the parallel backend produces output that is
//! **bit-identical** to the seed per-row sampler for BOTH distributed
//! protocols — for any chunk size, any thread count, and across a
//! crash/resume boundary in the middle of a synthesis call.
//!
//! The engine derives each row's RNG stream from one base seed drawn from
//! the caller's RNG, so output depends only on `(base, row index)`; chunk
//! boundaries and backend parallelism cannot reorder draws. A useful
//! corollary tested here is *prefix stability*: the first `n` rows of an
//! `n_max`-row draw equal an `n`-row draw bit-for-bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_checkpoint::{Checkpointer, CrashPoint};
use silofuse_diffusion::SampleRequestError;
use silofuse_distributed::e2e_distr::E2eDistributed;
use silofuse_distributed::faults::NetConfig;
use silofuse_distributed::stacked::SiloFuseModel;
use silofuse_distributed::ProtocolError;
use silofuse_models::latentdiff::LatentDiffConfig;
use silofuse_models::AutoencoderConfig;
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::profiles;
use silofuse_tabular::table::{Column, Table};
use std::path::PathBuf;

fn tiny_config(seed: u64) -> LatentDiffConfig {
    LatentDiffConfig {
        ae: AutoencoderConfig { hidden_dim: 32, lr: 2e-3, seed, ..Default::default() },
        ddpm_hidden: 32,
        timesteps: 8,
        ae_steps: 10,
        diffusion_steps: 10,
        batch_size: 32,
        inference_steps: 4,
        seed,
        ..Default::default()
    }
}

fn partitions(seed: u64) -> Vec<Table> {
    let t = profiles::loan().generate(48, seed);
    PartitionPlan::new(t.n_cols(), 2, PartitionStrategy::Default).split(&t)
}

/// Fresh per-test checkpoint directory (stale files would alter resume).
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silofuse-syneq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts `part` equals the first `part.n_rows()` rows of `full`, with
/// f64 compared bit-for-bit.
fn assert_is_prefix(full: &Table, part: &Table, ctx: &str) {
    assert_eq!(full.schema(), part.schema(), "{ctx}: schema mismatch");
    assert!(part.n_rows() <= full.n_rows(), "{ctx}: prefix longer than full");
    for (c, (fc, pc)) in full.columns().iter().zip(part.columns()).enumerate() {
        match (fc, pc) {
            (Column::Numeric(fv), Column::Numeric(pv)) => {
                for (r, (a, b)) in fv.iter().zip(pv).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{ctx}: col {c} row {r} diverged ({a} vs {b})"
                    );
                }
            }
            (Column::Categorical(fv), Column::Categorical(pv)) => {
                assert_eq!(&fv[..pv.len()], &pv[..], "{ctx}: col {c} categorical diverged");
            }
            _ => panic!("{ctx}: col {c} kind mismatch"),
        }
    }
}

#[test]
fn stacked_synthesis_is_invariant_to_chunk_size_and_prefix_stable() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut model = SiloFuseModel::fit(&partitions(17), tiny_config(17), &mut rng);

    // Baseline: one big chunk == the seed whole-batch path.
    model.set_synth_chunk_rows(usize::MAX);
    let full = {
        let mut r = StdRng::seed_from_u64(7);
        model.synthesize_partitioned(33, 0, &mut r)
    };

    for chunk in [1, 2, 3, 5, 16, 33, 64] {
        model.set_synth_chunk_rows(chunk);
        for n in [0, 1, 2, 17, 33] {
            let mut r = StdRng::seed_from_u64(7);
            let parts = model.synthesize_partitioned(n, 0, &mut r);
            assert_eq!(parts.len(), full.len());
            for (i, (f, p)) in full.iter().zip(&parts).enumerate() {
                assert_eq!(p.n_rows(), n);
                assert_is_prefix(f, p, &format!("stacked chunk={chunk} n={n} client={i}"));
            }
        }
    }
}

#[test]
fn e2e_synthesis_is_invariant_to_chunk_size_and_prefix_stable() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut model = E2eDistributed::fit(&partitions(23), tiny_config(23), &mut rng);

    model.set_synth_chunk_rows(usize::MAX);
    let full = {
        let mut r = StdRng::seed_from_u64(9);
        model.synthesize_partitioned(33, &mut r)
    };

    for chunk in [1, 3, 5, 16, 64] {
        model.set_synth_chunk_rows(chunk);
        for n in [0, 1, 17, 33] {
            let mut r = StdRng::seed_from_u64(9);
            let parts = model.synthesize_partitioned(n, &mut r);
            assert_eq!(parts.len(), full.len());
            for (i, (f, p)) in full.iter().zip(&parts).enumerate() {
                assert_eq!(p.n_rows(), n);
                assert_is_prefix(f, p, &format!("e2e chunk={chunk} n={n} client={i}"));
            }
        }
    }
}

/// The paper-default thread counts CI exercises (`SILOFUSE_THREADS=4`
/// matrix leg): batched synthesis must not depend on backend parallelism.
/// These chunks are too small to split across cores; `split_synthesis.rs`
/// covers chunks that do.
#[test]
fn synthesis_is_bit_identical_at_1_2_and_4_threads() {
    let run_stacked = |chunk: usize| {
        let mut rng = StdRng::seed_from_u64(31);
        let mut model = SiloFuseModel::fit(&partitions(31), tiny_config(31), &mut rng);
        model.set_synth_chunk_rows(chunk);
        model.synthesize_partitioned(17, 0, &mut rng)
    };
    let run_e2e = |chunk: usize| {
        let mut rng = StdRng::seed_from_u64(37);
        let mut model = E2eDistributed::fit(&partitions(37), tiny_config(37), &mut rng);
        model.set_synth_chunk_rows(chunk);
        model.synthesize_partitioned(17, &mut rng)
    };

    let found = silofuse_nn::backend::threads();
    silofuse_nn::backend::set_threads(1);
    let base_stacked = run_stacked(5);
    let base_e2e = run_e2e(5);
    for threads in [2, 4] {
        silofuse_nn::backend::set_threads(threads);
        assert_eq!(run_stacked(5), base_stacked, "stacked diverged at {threads} threads");
        assert_eq!(run_e2e(5), base_e2e, "e2e diverged at {threads} threads");
        // Chunking and threading must compose: a different chunk size at
        // this thread count still reproduces the 1-thread output.
        assert_eq!(run_stacked(3), base_stacked, "stacked chunk=3 diverged at {threads} threads");
    }
    silofuse_nn::backend::set_threads(found);
}

/// Coordinator killed between two synthesis chunks: the relaunched run
/// fast-forwards training from its checkpoints, reloads the synthesis
/// base seed, and regenerates the full batch bit-identically.
#[test]
fn synthesis_resumes_bit_identically_from_a_mid_synthesis_checkpoint() {
    let parts = partitions(41);
    let cfg = tiny_config(41);

    // Clean, uninterrupted reference: fit + two synthesis calls.
    let (clean_first, clean_second) = {
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = SiloFuseModel::fit(&parts, cfg, &mut rng);
        model.set_synth_chunk_rows(4);
        let first = model.synthesize_partitioned(16, 0, &mut rng);
        let second = model.synthesize_partitioned(8, 0, &mut rng);
        (first, second)
    };

    // Victim: crash armed at `synthesis:1` — after the first of four
    // 4-row chunks. Training phases never match that crash point, so the
    // fit completes and the kill fires mid-synthesis.
    let dir = ckpt_dir("mid-synth");
    let armed = Checkpointer::new(&dir, 1)
        .with_crash(Some(CrashPoint::parse("synthesis:1").expect("valid crash spec")));
    let mut rng = StdRng::seed_from_u64(11);
    let mut victim = SiloFuseModel::try_fit_with_checkpoints(
        &parts,
        cfg,
        &NetConfig::default(),
        Some(&armed),
        &mut rng,
    )
    .expect("training must not trip a synthesis-phase crash point");
    victim.set_synth_chunk_rows(4);
    let err = victim
        .try_synthesize_partitioned_with_steps(16, 0, None, &mut rng)
        .expect_err("the armed crash must kill the first synthesis call");
    assert!(matches!(err, ProtocolError::Crashed { .. }), "{err}");

    // Relaunch with --resume semantics: training fast-forwards from its
    // checkpoints; synthesis reloads the per-call base seed and the
    // caller-RNG state, then replays every chunk.
    let revived_ckpt = Checkpointer::new(&dir, 1).with_resume(true);
    let mut rng2 = StdRng::seed_from_u64(11);
    let mut revived = SiloFuseModel::try_fit_with_checkpoints(
        &parts,
        cfg,
        &NetConfig::default(),
        Some(&revived_ckpt),
        &mut rng2,
    )
    .expect("resumed fit");
    revived.set_synth_chunk_rows(4);
    let resumed_first = revived
        .try_synthesize_partitioned_with_steps(16, 0, None, &mut rng2)
        .expect("resumed synthesis");
    assert_eq!(resumed_first, clean_first, "resumed synthesis must match the clean run");

    // The restored caller-RNG state must leave follow-up calls aligned
    // with the clean timeline too.
    let resumed_second = revived
        .try_synthesize_partitioned_with_steps(8, 0, None, &mut rng2)
        .expect("follow-up synthesis");
    assert_eq!(resumed_second, clean_second, "post-resume RNG timeline diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero chunk size is a caller error that both protocols reject with
/// the same typed error, and the model serves again once it is fixed.
#[test]
fn zero_chunk_rows_is_a_typed_invalid_request_in_both_protocols() {
    let parts = partitions(61);
    let is_chunk_rows = |err: &ProtocolError| {
        matches!(
            err,
            ProtocolError::InvalidRequest { source: SampleRequestError::ChunkRows(_), .. }
        )
    };

    let mut rng = StdRng::seed_from_u64(61);
    let mut stacked = SiloFuseModel::fit(&parts, tiny_config(61), &mut rng);
    stacked.set_synth_chunk_rows(0);
    let err = stacked
        .try_synthesize_partitioned_with_steps(8, 0, None, &mut rng)
        .expect_err("stacked must reject a zero chunk size");
    assert!(is_chunk_rows(&err), "{err}");
    stacked.set_synth_chunk_rows(4);
    assert!(stacked.synthesize_partitioned(8, 0, &mut rng).iter().all(|t| t.n_rows() == 8));

    let mut e2e = E2eDistributed::fit(&parts, tiny_config(61), &mut rng);
    e2e.set_synth_chunk_rows(0);
    let err = e2e.try_synthesize_supervised(8, &mut rng).expect_err("E2EDistr must reject it too");
    assert!(is_chunk_rows(&err), "{err}");
    e2e.set_synth_chunk_rows(4);
    assert!(e2e.synthesize_partitioned(8, &mut rng).iter().all(|t| t.n_rows() == 8));
}

/// A client index outside the run is a typed error naming the index and
/// the client count, never a panic, and the rejected call sends nothing.
#[test]
fn unknown_client_index_is_a_typed_error() {
    let parts = partitions(67);
    let mut rng = StdRng::seed_from_u64(67);
    let mut model = SiloFuseModel::fit(&parts, tiny_config(67), &mut rng);
    let before = model.comm_stats();

    let err = model
        .try_synthesize_partitioned_with_steps(4, 2, None, &mut rng)
        .expect_err("a 2-silo run has no client 2");
    assert!(matches!(err, ProtocolError::NoSuchClient { client: 2, clients: 2 }), "{err}");
    assert!(err.to_string().contains("no client 2"), "{err}");
    assert!(err.to_string().contains("2 clients"), "{err}");
    let err = model.try_synthesize_supervised(4, 7, None, &mut rng).expect_err("no client 7");
    assert!(matches!(err, ProtocolError::NoSuchClient { client: 7, clients: 2 }), "{err}");
    let err = model.restart_silo(5).expect_err("no silo 5 to restart");
    assert!(matches!(err, ProtocolError::NoSuchClient { client: 5, clients: 2 }), "{err}");
    assert_eq!(model.comm_stats(), before, "a rejected request must not touch the wire");

    assert!(model.synthesize_partitioned(4, 1, &mut rng).iter().all(|t| t.n_rows() == 4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomised sweep over (rows, chunk size, inference-step override):
    /// every combination must reproduce the whole-batch draw exactly.
    #[test]
    fn stacked_synthesis_matches_whole_batch_for_any_chunking(
        n in 0usize..28,
        chunk in 1usize..40,
        steps in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(53);
        let mut model = SiloFuseModel::fit(&partitions(53), tiny_config(53), &mut rng);

        model.set_synth_chunk_rows(usize::MAX);
        let mut r = StdRng::seed_from_u64(13);
        let full = model.synthesize_partitioned_with_steps(28, 0, Some(steps), &mut r);

        model.set_synth_chunk_rows(chunk);
        let mut r = StdRng::seed_from_u64(13);
        let part = model.synthesize_partitioned_with_steps(n, 0, Some(steps), &mut r);
        prop_assert_eq!(part.len(), full.len());
        for (i, (f, p)) in full.iter().zip(&part).enumerate() {
            prop_assert_eq!(p.n_rows(), n);
            assert_is_prefix(f, p, &format!("proptest chunk={chunk} n={n} steps={steps} client={i}"));
        }
    }
}
