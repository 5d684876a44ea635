//! Fault-matrix integration test: sweeps drop/duplicate/delay injection
//! over both distributed protocols and asserts the tentpole guarantees —
//! every run either completes with synthetic output **byte-identical** to
//! the fault-free run (the reliability layer is invisible above the
//! transport), or fails with a typed [`ProtocolError`] in bounded time.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_distributed::e2e_distr::E2eDistributed;
use silofuse_distributed::faults::{FaultPlan, NetConfig, RetryPolicy};
use silofuse_distributed::stacked::SiloFuseModel;
use silofuse_distributed::supervision::{DegradePolicy, SiloHealth, SupervisorConfig};
use silofuse_distributed::ProtocolError;
use silofuse_models::latentdiff::LatentDiffConfig;
use silofuse_models::AutoencoderConfig;
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::profiles;
use silofuse_tabular::table::Table;
use std::time::{Duration, Instant};

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

fn test_policy() -> RetryPolicy {
    RetryPolicy {
        tick: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        max_retries: 12,
        recv_deadline: Duration::from_secs(5),
        reorder_window: 64,
    }
}

fn net(plan: FaultPlan) -> NetConfig {
    NetConfig { faults: Some(plan), retry: test_policy(), ..Default::default() }
}

fn stacked_run(parts: &[Table], cfg: LatentDiffConfig, net_cfg: &NetConfig) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(99);
    let mut model = SiloFuseModel::try_fit(parts, cfg, net_cfg, &mut rng)
        .expect("faulty run below the budget must complete");
    model
        .try_synthesize_partitioned_with_steps(16, 0, None, &mut rng)
        .expect("synthesis below the budget must complete")
}

#[test]
fn stacked_fault_matrix_output_is_byte_identical_to_clean_run() {
    let parts = partitions(7);
    let clean = stacked_run(&parts, tiny_config(7), &NetConfig::default());
    let matrix = [
        FaultPlan { drop: 0.15, seed: 3, ..Default::default() },
        FaultPlan { duplicate: 0.25, seed: 4, ..Default::default() },
        FaultPlan { delay: Duration::from_micros(300), seed: 5, ..Default::default() },
        FaultPlan {
            drop: 0.10,
            duplicate: 0.10,
            delay: Duration::from_micros(200),
            seed: 6,
            ..Default::default()
        },
    ];
    for plan in matrix {
        let first = stacked_run(&parts, tiny_config(7), &net(plan.clone()));
        let second = stacked_run(&parts, tiny_config(7), &net(plan.clone()));
        assert_eq!(first, second, "same fault seed must replay identically ({plan:?})");
        assert_eq!(first, clean, "faults must not leak into the synthetic output ({plan:?})");
    }
}

#[test]
fn e2e_distr_fault_run_matches_clean_run() {
    let parts = partitions(11);
    let mut cfg = tiny_config(11);
    cfg.ae_steps = 3;
    cfg.diffusion_steps = 3;

    let mut rng = StdRng::seed_from_u64(21);
    let mut clean_model = E2eDistributed::fit(&parts, cfg, &mut rng);
    let clean = clean_model.synthesize_partitioned(12, &mut rng);

    let plan = FaultPlan {
        drop: 0.12,
        duplicate: 0.12,
        delay: Duration::from_micros(200),
        seed: 13,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(21);
    let mut faulty_model = E2eDistributed::try_fit(&parts, cfg, &net(plan), &mut rng)
        .expect("faulty E2EDistr run below the budget must complete");
    let faulty = faulty_model.synthesize_partitioned(12, &mut rng);

    assert_eq!(faulty, clean, "faults must not leak into E2EDistr output");
    let s = faulty_model.comm_stats();
    assert_eq!(s.rounds, clean_model.comm_stats().rounds);
    assert_eq!(s.messages_up, clean_model.comm_stats().messages_up);
}

#[test]
fn scripted_drop_reports_bytes_retried_separately() {
    let parts = partitions(17);
    // Drop the very first upstream transmission on link 0 — client 0's
    // latent upload — forcing at least one retransmission.
    let plan = FaultPlan { drop_nth: vec![0], ..Default::default() };
    let mut rng = StdRng::seed_from_u64(5);
    let model = SiloFuseModel::try_fit(&parts, tiny_config(17), &net(plan), &mut rng)
        .expect("a single scripted drop must be recovered");
    let s = model.comm_stats();
    assert!(s.retransmits >= 1, "scripted drop must force a retransmission: {s:?}");
    assert!(s.bytes_retried > 0);
    assert_eq!(s.messages_up, 2, "retries must not inflate the Fig. 10 message ledger: {s:?}");
}

fn partitions3(seed: u64) -> Vec<Table> {
    let t = profiles::loan().generate(48, seed);
    PartitionPlan::new(t.n_cols(), 3, PartitionStrategy::Default).split(&t)
}

/// A supervised network: short leases so the failure detector converges
/// fast in tests, `suspect_after` left at its default of 3.
fn supervised_net(
    plan: Option<FaultPlan>,
    policy: DegradePolicy,
    heartbeat_every: u64,
    pre_dead: Vec<usize>,
) -> NetConfig {
    NetConfig {
        supervision: SupervisorConfig::new(policy, heartbeat_every).with_pre_dead(pre_dead),
        faults: plan,
        retry: RetryPolicy { recv_deadline: Duration::from_millis(60), ..test_policy() },
    }
}

/// The degradation matrix: every (dead-silo x policy) cell of a silo cut
/// mid-latent-upload either degrades to output **bit-identical** to a run
/// built on the surviving silos alone (the pre-dead oracle), or fails
/// with the matching typed error.
#[test]
fn degradation_matrix_upload_phase_matches_pre_dead_oracle() {
    let parts = partitions3(41);
    let cfg = tiny_config(41);
    for dead in 0..3usize {
        // The partition swallows link `dead`'s first up transmission: its
        // one latent upload. The fault plan, not wall time, decides death.
        let kill =
            FaultPlan { partition_at: Some(0), partition_client: dead, ..Default::default() };
        for policy in [DegradePolicy::Quorum(2), DegradePolicy::BestEffort] {
            let net = supervised_net(Some(kill.clone()), policy, 0, vec![]);
            let mut rng = StdRng::seed_from_u64(77);
            let mut model = SiloFuseModel::try_fit(&parts, cfg, &net, &mut rng)
                .unwrap_or_else(|e| panic!("dead={dead} {policy:?} must degrade, got {e}"));
            assert!(!model.membership().is_alive(dead));
            assert_eq!(model.membership().n_alive(), 2);
            let got = model
                .try_synthesize_supervised(10, (dead + 1) % 3, None, &mut rng)
                .expect("degraded synthesis completes");

            // Oracle: the same fixed-seed run built on the survivors
            // alone (same indices, so same per-silo seeds).
            let oracle_net = supervised_net(None, policy, 0, vec![dead]);
            let mut rng = StdRng::seed_from_u64(77);
            let mut oracle = SiloFuseModel::try_fit(&parts, cfg, &oracle_net, &mut rng)
                .expect("oracle run is fault-free");
            let want = oracle
                .try_synthesize_supervised(10, (dead + 1) % 3, None, &mut rng)
                .expect("oracle synthesis completes");

            assert_eq!(got, want, "dead={dead} {policy:?}: degraded != survivors-only oracle");
            for (i, out) in got.iter().enumerate() {
                assert_eq!(out.is_masked(), i == dead, "exactly silo {dead} must be masked");
            }
        }

        // Fail-fast: the same fault plan is a typed death, not a mask.
        let net = supervised_net(Some(kill.clone()), DegradePolicy::FailFast, 0, vec![]);
        let mut rng = StdRng::seed_from_u64(77);
        let err = SiloFuseModel::try_fit(&parts, cfg, &net, &mut rng)
            .expect_err("fail-fast must surface the dead silo");
        assert!(
            matches!(err, ProtocolError::SiloDead { client, .. } if client == dead),
            "dead={dead}: {err}"
        );

        // A quorum the death violates: typed QuorumLost.
        let net = supervised_net(Some(kill.clone()), DegradePolicy::Quorum(3), 0, vec![]);
        let mut rng = StdRng::seed_from_u64(77);
        let err = SiloFuseModel::try_fit(&parts, cfg, &net, &mut rng)
            .expect_err("2-of-3 alive cannot satisfy quorum 3");
        assert!(
            matches!(err, ProtocolError::QuorumLost { alive: 2, total: 3, required: 3, .. }),
            "dead={dead}: {err}"
        );
    }
}

/// A silo cut permanently mid-synthesis: its whole partition comes out
/// Masked (partial decodes are discarded, nothing imputed) while the
/// survivors' tables are byte-identical to an undisturbed run.
#[test]
fn mid_synthesis_death_masks_whole_partition() {
    let parts = partitions3(43);
    let mut cfg = tiny_config(43);
    cfg.synth_chunk_rows = 4; // 16 rows -> 4 chunks
                              // hb=1: every AE step and every synthesis chunk beats. Fit puts 10
                              // beats + 1 upload on link 2 (up indexes 0..=10); chunk c's beat is
                              // index 11+c, so the cut at 12 kills the link from chunk 1 on.
    let kill = FaultPlan { partition_at: Some(12), partition_client: 2, ..Default::default() };
    let run = |plan: Option<FaultPlan>| {
        let net = supervised_net(plan, DegradePolicy::Quorum(2), 1, vec![]);
        let mut rng = StdRng::seed_from_u64(88);
        let mut model = SiloFuseModel::try_fit(&parts, cfg, &net, &mut rng)
            .expect("fit is untouched by a synthesis-phase cut");
        let out = model
            .try_synthesize_supervised(16, 0, None, &mut rng)
            .expect("quorum 2-of-3 survives the cut");
        (out, model.membership().state(2))
    };
    let (clean, clean_state) = run(None);
    let (degraded, degraded_state) = run(Some(kill));
    assert_eq!(clean_state, SiloHealth::Healthy);
    assert_eq!(degraded_state, SiloHealth::Dead);
    assert!(clean.iter().all(|o| !o.is_masked()));
    assert!(degraded[2].is_masked(), "the cut silo's whole partition is masked");
    assert_eq!(degraded[2].rows(), 16);
    assert_eq!(degraded[0], clean[0], "survivor 0 must match the undisturbed run");
    assert_eq!(degraded[1], clean[1], "survivor 1 must match the undisturbed run");
}

/// A partition window that heals mid-synthesis: the coordinator keeps
/// shipping slices into the unacked send window, the heal replays the
/// backlog in sequence order, the silo is marked Rejoined, and the final
/// output is bit-identical to a run that never lost the link.
#[test]
fn rejoin_mid_synthesis_catches_up_bit_identically() {
    let parts = partitions3(47);
    let mut cfg = tiny_config(47);
    cfg.synth_chunk_rows = 4; // 16 rows -> 4 chunks
                              // Up indexes 12 and 13 (chunks 1 and 2) are swallowed; chunk 3's
                              // beat, index 14, heals the window and triggers the backlog replay.
    let heal = FaultPlan {
        partition_at: Some(12),
        rejoin_at: Some(14),
        partition_client: 2,
        ..Default::default()
    };
    let run = |plan: Option<FaultPlan>| {
        let net = supervised_net(plan, DegradePolicy::Quorum(2), 1, vec![]);
        let mut rng = StdRng::seed_from_u64(90);
        let mut model = SiloFuseModel::try_fit(&parts, cfg, &net, &mut rng)
            .expect("fit is untouched by a synthesis-phase window");
        let out = model
            .try_synthesize_supervised(16, 0, None, &mut rng)
            .expect("the healed run completes");
        (out, model.membership().state(2))
    };
    let (clean, _) = run(None);
    let (healed, state) = run(Some(heal));
    assert_eq!(state, SiloHealth::Rejoined, "the silo must rejoin after the heal");
    assert!(healed.iter().all(|o| !o.is_masked()), "nothing is masked after catch-up");
    assert_eq!(healed, clean, "rejoined output must be bit-identical to the clean run");
}

/// Crash-then-restart rejoin: a silo killed mid-synthesis is restarted
/// from its fit-time `silo<i>-ae` checkpoint, completes the control-plane
/// rejoin handshake, and the next synthesis decodes everything again.
#[test]
fn restarted_silo_rejoins_from_checkpoint_and_decodes_again() {
    let parts = partitions3(53);
    let mut cfg = tiny_config(53);
    cfg.synth_chunk_rows = 4;
    let dir = std::env::temp_dir().join(format!("silofuse-rejoin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = silofuse_checkpoint::Checkpointer::new(&dir, 3);
    // Same cut geometry as the masking test: silo 2 dies from chunk 1 on.
    let kill = FaultPlan { partition_at: Some(12), partition_client: 2, ..Default::default() };
    let net = supervised_net(Some(kill), DegradePolicy::Quorum(2), 1, vec![]);
    let mut rng = StdRng::seed_from_u64(91);
    let mut model =
        SiloFuseModel::try_fit_with_checkpoints(&parts, cfg, &net, Some(&ckpt), &mut rng)
            .expect("fit completes before the cut");
    let masked = model
        .try_synthesize_supervised(16, 0, None, &mut rng)
        .expect("degraded synthesis completes");
    assert!(masked[2].is_masked());
    assert_eq!(model.membership().state(2), SiloHealth::Dead);

    // Restart: fresh process, fresh link, weights restored from the
    // `silo2-ae` checkpoint, control-plane handshake.
    model.restart_silo(2).expect("restart from checkpoint succeeds");
    assert_eq!(model.membership().state(2), SiloHealth::Rejoined);

    // The reborn link's partition clock restarts at zero, far below the
    // cut point, so the next synthesis reaches every silo.
    let healed = model
        .try_synthesize_supervised(16, 0, None, &mut rng)
        .expect("post-rejoin synthesis completes");
    assert!(healed.iter().all(|o| !o.is_masked()), "the rejoined silo decodes again");
    for (o, p) in healed.iter().zip(&parts) {
        let t = o.decoded().expect("decoded output");
        assert_eq!(t.n_rows(), 16);
        assert_eq!(t.schema(), p.schema());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The E2E baseline under the same supervision layer: a silo cut after
/// round 2 halts joint training at the last completed round under a
/// degrading policy (masking it at synthesis), fails typed under
/// fail-fast, and loses the quorum when the policy demands both silos.
#[test]
fn e2e_degrades_by_halting_training_and_masking_dead_silo() {
    let parts = partitions(59);
    let mut cfg = tiny_config(59);
    cfg.ae_steps = 3;
    cfg.diffusion_steps = 3;
    // Link 1's up frames are one activation upload per round: indexes 0
    // and 1 (rounds 0-1) are delivered, round 2's upload is swallowed.
    let kill = FaultPlan { partition_at: Some(2), partition_client: 1, ..Default::default() };

    let run = || {
        let net = supervised_net(Some(kill.clone()), DegradePolicy::BestEffort, 0, vec![]);
        let mut rng = StdRng::seed_from_u64(61);
        let mut model = E2eDistributed::try_fit(&parts, cfg, &net, &mut rng)
            .expect("best-effort survives the cut");
        assert!(!model.membership().is_alive(1));
        assert_eq!(model.comm_stats().rounds, 2, "training halts at the completed rounds");
        model.synthesize_supervised(12, &mut rng)
    };
    let out = run();
    assert!(!out[0].is_masked());
    assert!(out[1].is_masked(), "the dead silo's columns are masked, never imputed");
    assert_eq!(out[1].rows(), 12);
    assert_eq!(out, run(), "fixed seed + fault plan must replay bit-identically");

    let net = supervised_net(Some(kill.clone()), DegradePolicy::FailFast, 0, vec![]);
    let mut rng = StdRng::seed_from_u64(61);
    let err = E2eDistributed::try_fit(&parts, cfg, &net, &mut rng)
        .expect_err("fail-fast surfaces the dead silo");
    assert!(matches!(err, ProtocolError::SiloDead { client: 1, .. }), "{err}");

    let net = supervised_net(Some(kill), DegradePolicy::Quorum(2), 0, vec![]);
    let mut rng = StdRng::seed_from_u64(61);
    let err = E2eDistributed::try_fit(&parts, cfg, &net, &mut rng)
        .expect_err("1-of-2 alive cannot satisfy quorum 2");
    assert!(
        matches!(err, ProtocolError::QuorumLost { alive: 1, total: 2, required: 2, .. }),
        "{err}"
    );
}

/// Degraded output is a function of (seed, fault plan) only — never of
/// backend parallelism (CI also runs the whole suite at `SILOFUSE_THREADS=4`).
#[test]
fn degraded_run_is_bit_identical_at_1_2_and_4_threads() {
    let parts = partitions3(67);
    let cfg = tiny_config(67);
    let kill = FaultPlan { partition_at: Some(0), partition_client: 1, ..Default::default() };
    let run = || {
        let net = supervised_net(Some(kill.clone()), DegradePolicy::Quorum(2), 0, vec![]);
        let mut rng = StdRng::seed_from_u64(71);
        let mut model = SiloFuseModel::try_fit(&parts, cfg, &net, &mut rng)
            .expect("quorum 2-of-3 survives the cut");
        model.try_synthesize_supervised(10, 0, None, &mut rng).expect("degraded synthesis")
    };
    let found = silofuse_nn::backend::threads();
    silofuse_nn::backend::set_threads(1);
    let base = run();
    assert!(base[1].is_masked());
    for threads in [2, 4] {
        silofuse_nn::backend::set_threads(threads);
        assert_eq!(run(), base, "degraded output diverged at {threads} threads");
    }
    silofuse_nn::backend::set_threads(found);
}

#[test]
fn dead_silo_fails_with_typed_error_in_bounded_time() {
    let parts = partitions(23);
    let plan = FaultPlan { disconnect_after: Some(0), ..Default::default() };
    let cfg = tiny_config(23);
    let bounded = NetConfig {
        faults: Some(plan.clone()),
        retry: RetryPolicy { recv_deadline: Duration::from_millis(300), ..test_policy() },
        ..Default::default()
    };

    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(31);
    let err = match SiloFuseModel::try_fit(&parts, cfg, &bounded, &mut rng) {
        Ok(_) => panic!("blackholed links must fail, not hang"),
        Err(e) => e,
    };
    assert!(matches!(err, ProtocolError::SiloDead { .. }), "expected SiloDead, got {err}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "failure must be bounded, took {:?}",
        started.elapsed()
    );

    let mut rng = StdRng::seed_from_u64(31);
    let err = match E2eDistributed::try_fit(&parts, cfg, &bounded, &mut rng) {
        Ok(_) => panic!("blackholed E2EDistr links must fail, not hang"),
        Err(e) => e,
    };
    assert!(matches!(err, ProtocolError::SiloDead { .. }), "expected SiloDead, got {err}");
}
