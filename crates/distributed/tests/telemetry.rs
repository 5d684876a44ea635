//! Integration tests tying the transport's byte-accounted [`CommStats`] to
//! the telemetry layer's per-message-kind byte histograms, pinning the
//! stacked protocol's round structure (one `rounds` bump per protocol
//! phase: upload, then one per synthesis), and tying the checkpoint byte
//! counters to the files on disk.
//!
//! Telemetry is process-global, so every test here serialises on
//! `TELEMETRY_LOCK` — otherwise one test's comm events would leak into
//! another's histograms.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_checkpoint::Checkpointer;
use silofuse_distributed::stacked::SiloFuseModel;
use silofuse_distributed::transport::CommStats;
use silofuse_models::latentdiff::{LatentDiff, LatentDiffConfig};
use silofuse_models::AutoencoderConfig;
use silofuse_nn::backend::{BIAS_COUNTERS, DROPOUT_COUNTERS};
use silofuse_observe::names::{CHECKPOINT_BYTES_READ, CHECKPOINT_LOADS};
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::profiles;
use silofuse_tabular::table::Table;
use std::sync::Mutex;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn quick_config(seed: u64) -> LatentDiffConfig {
    LatentDiffConfig {
        ae: AutoencoderConfig { hidden_dim: 48, lr: 1e-3, seed, ..Default::default() },
        ddpm_hidden: 48,
        timesteps: 20,
        ae_steps: 12,
        diffusion_steps: 12,
        batch_size: 32,
        inference_steps: 5,
        seed,
        ..Default::default()
    }
}

fn split(table: &Table, m: usize) -> Vec<Table> {
    PartitionPlan::new(table.n_cols(), m, PartitionStrategy::Default).split(table)
}

#[test]
fn stacked_rounds_bump_once_per_protocol_phase() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let t = profiles::loan().generate(64, 7);
    let parts = split(&t, 3);
    let mut rng = StdRng::seed_from_u64(7);

    // Phase 1 — stacked training: exactly one upload round regardless of
    // the number of training steps (the paper's headline communication
    // property).
    let mut model = SiloFuseModel::fit(&parts, quick_config(7), &mut rng);
    assert_eq!(model.comm_stats().rounds, 1, "training is a single round");

    // Phase 2..k — every synthesis request is one more download round.
    let _ = model.synthesize_partitioned(8, 0, &mut rng);
    assert_eq!(model.comm_stats().rounds, 2, "first synthesis adds a round");
    let _ = model.synthesize_partitioned(8, 1, &mut rng);
    assert_eq!(model.comm_stats().rounds, 3, "each synthesis adds a round");
}

#[test]
fn comm_histograms_sum_to_comm_stats_total_bytes() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hub = silofuse_observe::init_scoped("test-comm-histograms", "main");

    let t = profiles::loan().generate(64, 11);
    let parts = split(&t, 3);
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = SiloFuseModel::fit(&parts, quick_config(11), &mut rng);
    let _ = model.synthesize_partitioned(8, 0, &mut rng);
    let stats: CommStats = model.comm_stats();
    silofuse_observe::shutdown();

    // Traffic is attributed per actor now: each silo's uploads land in
    // its own scope, the coordinator's downloads in the coordinator
    // scope. The byte-accounting contract holds on the union.
    let comm_hists: Vec<_> = hub
        .scopes()
        .iter()
        .flat_map(|scope| scope.metrics().histograms())
        .filter(|(name, _)| name.starts_with("comm.bytes."))
        .collect();
    assert!(!comm_hists.is_empty(), "comm events must feed histograms");
    assert!(
        hub.scopes().iter().any(|s| s.actor() == "coordinator"),
        "stacked run must create a coordinator scope"
    );
    assert!(
        hub.scopes().iter().any(|s| s.actor() == "silo0"),
        "stacked run must create per-silo scopes"
    );

    // The histograms partition the traffic by (message kind, direction):
    // their sums must add up exactly to the transport's byte ledger, and
    // their observation counts to its message ledger.
    let hist_bytes: f64 = comm_hists.iter().map(|(_, h)| h.sum()).sum();
    assert_eq!(hist_bytes as u64, stats.total_bytes());
    let up_bytes: f64 =
        comm_hists.iter().filter(|(name, _)| name.ends_with(".up")).map(|(_, h)| h.sum()).sum();
    let down_bytes: f64 =
        comm_hists.iter().filter(|(name, _)| name.ends_with(".down")).map(|(_, h)| h.sum()).sum();
    assert_eq!(up_bytes as u64, stats.bytes_up);
    assert_eq!(down_bytes as u64, stats.bytes_down);
    let hist_msgs: u64 = comm_hists.iter().map(|(_, h)| h.count()).sum();
    assert_eq!(hist_msgs, stats.messages_up + stats.messages_down);

    // The stacked protocol's kinds: latent uploads while training, then
    // request/latents/acks during synthesis.
    let names: Vec<&str> = comm_hists.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"comm.bytes.LatentUpload.up"), "{names:?}");
    assert!(names.contains(&"comm.bytes.SyntheticLatents.down"), "{names:?}");
}

#[test]
fn a_traced_stacked_fit_counts_the_bias_broadcast_and_the_dropout_mask() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hub = silofuse_observe::init_scoped("test-kernel-counters", "main");
    let t = profiles::loan().generate(64, 17);
    let mut rng = StdRng::seed_from_u64(17);
    let _model = SiloFuseModel::fit(&split(&t, 2), quick_config(17), &mut rng);
    silofuse_observe::shutdown();
    let counter =
        |name| hub.scopes().iter().map(|scope| scope.metrics().counter(name).get()).sum::<u64>();
    // Every Linear forward adds its bias; the latent DDPM's backbone
    // drops out at 0.01 on every training step.
    for kernel in [BIAS_COUNTERS, DROPOUT_COUNTERS] {
        assert!(counter(kernel.calls) > 0, "{} never counted", kernel.calls);
        assert!(counter(kernel.nanos) > 0, "{} never timed", kernel.nanos);
    }
}

#[test]
fn comm_histograms_are_not_recorded_when_tracing_is_off() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!silofuse_observe::enabled(), "no telemetry installed");

    let t = profiles::loan().generate(64, 13);
    let parts = split(&t, 2);
    let mut rng = StdRng::seed_from_u64(13);
    let model = SiloFuseModel::fit(&parts, quick_config(13), &mut rng);
    assert!(model.comm_stats().total_bytes() > 0, "transport still counts");

    // A telemetry installed *afterwards* must start empty: nothing leaked.
    let telemetry = silofuse_observe::init("test-comm-disabled");
    silofuse_observe::shutdown();
    assert!(telemetry.metrics().histograms().is_empty());
    assert!(telemetry.events().is_empty());
}

#[test]
fn a_resumed_fit_counts_each_checkpoint_file_it_reads_once() {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("silofuse-bytes-read-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t = profiles::loan().generate(64, 17);

    let mut first = LatentDiff::new(quick_config(17));
    first.set_checkpointer(Checkpointer::new(&dir, 0));
    first.try_fit(&t, &mut StdRng::seed_from_u64(17)).expect("checkpointed fit");
    let file_bytes: u64 = ["latentdiff-ae", "latentdiff-ddpm"]
        .iter()
        .map(|name| std::fs::metadata(dir.join(format!("{name}.ckpt"))).expect("written").len())
        .sum();

    // Both phases are complete on disk, so the resumed fit loads each
    // file once and trains no step.
    let hub = silofuse_observe::init_scoped("test-checkpoint-bytes-read", "main");
    let mut resumed = LatentDiff::new(quick_config(17));
    resumed.set_checkpointer(Checkpointer::new(&dir, 0).with_resume(true));
    resumed.try_fit(&t, &mut StdRng::seed_from_u64(17)).expect("resumed fit");
    silofuse_observe::shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let counter =
        |name| hub.scopes().iter().map(|scope| scope.metrics().counter(name).get()).sum::<u64>();
    assert_eq!(counter(CHECKPOINT_LOADS), 2);
    assert_eq!(counter(CHECKPOINT_BYTES_READ), file_bytes);
}
