//! SiloFuse's stacked distributed training and synthesis
//! (Algorithms 1 and 2).
//!
//! Step 1 trains each client's autoencoder locally and *in parallel* (real
//! threads here). Step 2 uploads each client's training latents to the
//! coordinator exactly once — a single communication round regardless of
//! training iterations — where the Gaussian latent DDPM trains on the
//! concatenated latents, capturing cross-silo feature correlations without
//! any raw feature leaving its silo. Synthesis (Algorithm 2) denoises
//! Gaussian noise at the coordinator, partitions the latents, and lets each
//! client decode its own slice with its privately-held decoder.

use crate::error::ProtocolError;
use crate::faults::{NetConfig, RetryPolicy};
use crate::supervision::{MembershipTable, SiloOutput, SupervisorConfig};
use crate::transport::{
    bump_round, dead_silo, link_with, new_stats, recv_or_dead, recv_retrying, CommStats, Endpoint,
    SharedStats, TransportError,
};
use crate::Message;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silofuse_checkpoint::{CheckpointError, Checkpointer, CrashPoint};
use silofuse_diffusion::gaussian::GaussianDdpm;
use silofuse_models::latentdiff::{LatentDiffConfig, LatentScaler};
use silofuse_models::{AutoencoderConfig, TabularAutoencoder};
use silofuse_nn::serialize::{Reader, StateDictError};
use silofuse_nn::Tensor;
use silofuse_observe as observe;
use silofuse_tabular::table::Table;

/// One client's private state: its autoencoder (encoder + decoder never
/// leave the silo) plus its transport endpoint.
struct ClientState {
    ae: TabularAutoencoder,
    endpoint: Endpoint,
    latent_dim: usize,
}

/// One silo's coordinator-side slot. The private training partition is
/// retained so a crashed silo can be rebuilt deterministically (same
/// config-derived seeds, weights restored from its `silo<i>-ae`
/// checkpoint) when it rejoins via [`SiloFuseModel::restart_silo`].
struct SiloSlot {
    partition: Table,
    state: Option<ClientState>,
}

impl SiloSlot {
    fn state(&self) -> &ClientState {
        self.state.as_ref().expect("silo is live")
    }

    fn state_mut(&mut self) -> &mut ClientState {
        self.state.as_mut().expect("silo is live")
    }
}

/// Init salt of the coordinator's latent DDPM (see
/// [`LatentDiffConfig::latent_ddpm`]).
const COORDINATOR_DDPM_SALT: u64 = 0x51d0;

/// Silo `i`'s autoencoder config: the run seed mixed with the silo index,
/// so silos draw distinct weights and a rebuilt silo draws the same ones.
/// Both distributed protocols seed their silos by this rule.
pub(crate) fn silo_ae_config(config: &LatentDiffConfig, i: usize) -> AutoencoderConfig {
    AutoencoderConfig {
        seed: config.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ..config.ae
    }
}

/// Builds silo `i`'s autoencoder and local RNG from config, then trains
/// it on `part` through `ckpt`, resuming from its latest `silo<i>-ae`
/// checkpoint when `ckpt` resumes. Fit and
/// [`SiloFuseModel::restart_silo`] both build silos here, so a restarted
/// silo matches the one it replaces. `on_step` sees each completed step.
fn train_silo_ae(
    part: &Table,
    config: &LatentDiffConfig,
    i: usize,
    ckpt: &Checkpointer,
    on_step: &mut dyn FnMut(u64),
) -> Result<(TabularAutoencoder, StdRng), CheckpointError> {
    let ae_config = silo_ae_config(config, i);
    let mut local_rng = StdRng::seed_from_u64(ae_config.seed ^ 0xc11e);
    let mut ae = TabularAutoencoder::new(part, ae_config);
    ae.fit_resumable(
        part,
        config.ae_steps,
        config.batch_size,
        &mut local_rng,
        ckpt,
        &format!("silo{i}-ae"),
        "ae-train",
        on_step,
    )?;
    Ok((ae, local_rng))
}

/// The fitted distributed SiloFuse model.
pub struct SiloFuseModel {
    config: LatentDiffConfig,
    net: NetConfig,
    clients: Vec<SiloSlot>,
    coordinator: Coordinator,
    coord_endpoints: Vec<Endpoint>,
    stats: SharedStats,
    // The checkpointer the model was fitted under: synthesis checkpoints
    // its per-call base seed through it so a crashed synthesis resumes
    // bit-identically.
    ckpt: Checkpointer,
    // Completed-or-started synthesis calls, used to give each call a
    // distinct checkpoint name that a restarted process replays in order.
    synth_calls: u64,
    sup: SupervisorConfig,
    membership: MembershipTable,
}

struct Coordinator {
    ddpm: GaussianDdpm,
    scaler: LatentScaler,
    latent_widths: Vec<usize>,
    // Silos whose latents the DDPM was trained on (ascending); parallel
    // with `latent_widths`. Silos dead at fit time are absent: no column
    // of the generative model belongs to them, so they can never decode
    // and are emitted as Masked until the model is refitted.
    model_silos: Vec<usize>,
}

impl std::fmt::Debug for SiloFuseModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SiloFuseModel({} clients)", self.clients.len())
    }
}

impl SiloFuseModel {
    /// Trains SiloFuse on vertically partitioned data: `partitions[i]` is
    /// client `C_{i+1}`'s private feature set `X_i` (rows aligned across
    /// clients, as the paper assumes via private-set intersection).
    ///
    /// # Panics
    /// Panics if `partitions` is empty or row counts disagree, or if the
    /// (perfect, in-process) network fails — use [`SiloFuseModel::try_fit`]
    /// to train under an injected [`crate::faults::FaultPlan`].
    pub fn fit(partitions: &[Table], config: LatentDiffConfig, rng: &mut StdRng) -> Self {
        Self::try_fit(partitions, config, &NetConfig::default(), rng)
            .expect("protocol failed on a perfect network")
    }

    /// [`SiloFuseModel::fit`] under an explicit network configuration.
    /// With a fault plan installed, lost or duplicated transmissions are
    /// absorbed by the reliable transport (retransmission + dedup) and an
    /// application-level upload acknowledgement, and a silo that stays
    /// silent past the retry budget surfaces as [`ProtocolError::SiloDead`]
    /// instead of a hang.
    pub fn try_fit(
        partitions: &[Table],
        config: LatentDiffConfig,
        net: &NetConfig,
        rng: &mut StdRng,
    ) -> Result<Self, ProtocolError> {
        Self::try_fit_with_checkpoints(partitions, config, net, None, rng)
    }

    /// [`SiloFuseModel::try_fit`] with crash-safe checkpointing. Each silo
    /// checkpoints its AE training state as `silo<i>-ae`; the coordinator
    /// checkpoints its DDPM as `coordinator-ddpm` plus the pipeline-level
    /// `pipeline-post-upload` state (uploaded latents and scaler). A node
    /// killed by `crash_at` restarts, reloads its last checkpoint, and
    /// rejoins the run — bit-identically to an uninterrupted run. A crash
    /// with `ckpt == None` (or a disabled checkpointer) is fatal:
    /// [`ProtocolError::Crashed`].
    pub fn try_fit_with_checkpoints(
        partitions: &[Table],
        config: LatentDiffConfig,
        net: &NetConfig,
        ckpt: Option<&Checkpointer>,
        rng: &mut StdRng,
    ) -> Result<Self, ProtocolError> {
        assert!(!partitions.is_empty(), "need at least one client partition");
        silofuse_nn::backend::record_telemetry();
        let rows = partitions[0].n_rows();
        assert!(partitions.iter().all(|p| p.n_rows() == rows), "partitions must have aligned rows");

        let stats = new_stats();
        let m = partitions.len();
        let reliable = net.reliable();
        let base = ckpt.cloned().unwrap_or_else(Checkpointer::disabled);
        let crash_plan: Option<CrashPoint> =
            net.faults.as_ref().and_then(|p| p.crash_at.clone()).or_else(|| base.crash().cloned());
        let crash_client = net.faults.as_ref().map_or(0, |p| p.crash_client);
        let sup = net.supervision.clone();
        let supervised = sup.enabled();
        let mut membership = sup.membership(m);

        // --- Step 1 (Algorithm 1, lines 1-7): local AE training, parallel.
        let mut handles = Vec::with_capacity(m);
        let mut coord_endpoints = Vec::with_capacity(m);
        for (i, part) in partitions.iter().enumerate() {
            let (client_ep, coord_ep) = link_with(std::sync::Arc::clone(&stats), i as u64, net);
            coord_endpoints.push(coord_ep);
            if !membership.is_alive(i) {
                // Pre-declared dead (oracle runs): never spawned, but its
                // slot index — and therefore every other silo's seed — is
                // preserved.
                handles.push(None);
                continue;
            }
            let part = part.clone();
            let hb = sup.heartbeat_every;
            let degrades = sup.policy.degrades();
            let base = base.clone();
            let my_crash = if i == crash_client { crash_plan.clone() } else { None };
            handles.push(Some(std::thread::spawn(move || {
                // Everything this silo thread records — spans, metrics,
                // Lamport ticks — is attributed to its own actor scope.
                let _scope = observe::scope(&format!("silo{i}"));
                let node = format!("silo {i}");
                let ckpt_err = ProtocolError::checkpoint(&node);
                // A (re)started silo process: deterministic model + RNG from
                // config, then state from the latest checkpoint if resuming.
                let fit_client = |resume: bool, armed: Option<CrashPoint>| {
                    let c = base.clone().with_resume(base.resume() || resume).with_crash(armed);
                    let _phase = observe::phase("ae-train");
                    // Heartbeats are keyed to the *logical* training clock
                    // (completed steps), never wall time; they ride the
                    // control ledger and consume no RNG draws, so weights
                    // are bit-identical with or without them. Send errors
                    // are ignored: a partitioned silo keeps training.
                    let mut beat = |done: u64| {
                        if hb > 0 && done.is_multiple_of(hb) {
                            let _ = client_ep
                                .send(&Message::Heartbeat { client: i as u32, tick: done });
                        }
                    };
                    train_silo_ae(&part, &config, i, &c, &mut beat)
                };
                let armed_train = my_crash.clone().filter(|c| c.phase == "ae-train");
                let (mut ae, mut local_rng) = match fit_client(false, armed_train) {
                    Ok(v) => v,
                    Err(CheckpointError::Crashed { .. }) if base.is_enabled() => {
                        // The silo died mid-train; its replacement rebuilds
                        // from config and resumes from the last checkpoint.
                        fit_client(true, None).map_err(ckpt_err)?
                    }
                    Err(e) => return Err(ckpt_err(e)),
                };
                // Injected death between training and upload: the restarted
                // silo replays from the end-of-phase checkpoint, which also
                // restores the RNG at the phase boundary (so the DP-noise
                // draw below repeats identically).
                if let Some(cp) = my_crash.clone().filter(|c| c.phase == "latent-upload") {
                    let step = cp.step;
                    let armed = base.clone().with_crash(Some(cp));
                    if let Err(err) = armed.maybe_crash("latent-upload", step) {
                        if !base.is_enabled() {
                            return Err(ckpt_err(err));
                        }
                        drop(ae);
                        let (ae2, rng2) = fit_client(true, None).map_err(ckpt_err)?;
                        ae = ae2;
                        local_rng = rng2;
                    }
                }
                // Algorithm 1, lines 8-10: encode local latents and upload
                // them to the coordinator — once.
                let _phase = observe::phase("encode");
                let mut latents = ae.encode(&part);
                // DP-style mechanism: perturb latents *before* they leave
                // the silo (relative to each column's scale).
                if config.latent_noise_std > 0.0 {
                    let col_stds: Vec<f32> = {
                        let means = latents.mean_rows();
                        let mut stds = vec![0.0f32; latents.cols()];
                        for r in 0..latents.rows() {
                            for (c, &v) in latents.row(r).iter().enumerate() {
                                let d = v - means[c];
                                stds[c] += d * d;
                            }
                        }
                        stds.iter()
                            .map(|s| (s / latents.rows().max(1) as f32).sqrt().max(1e-6))
                            .collect()
                    };
                    let noise =
                        silofuse_nn::init::randn(latents.rows(), latents.cols(), &mut local_rng);
                    for r in 0..latents.rows() {
                        for (c, v) in latents.row_mut(r).iter_mut().enumerate() {
                            *v += config.latent_noise_std * col_stds[c] * noise.row(r)[c];
                        }
                    }
                }
                let dead =
                    |source: TransportError| dead_silo("latent-upload", i, &client_ep, source);
                client_ep
                    .send(&Message::LatentUpload {
                        client: i as u32,
                        rows: latents.rows() as u32,
                        cols: latents.cols() as u32,
                        data: latents.as_slice().to_vec(),
                    })
                    .map_err(dead)?;
                if reliable {
                    // Two-generals closure: hold the silo open until the
                    // coordinator confirms the upload at the application
                    // level. The bounded recv keeps retransmitting the
                    // (possibly dropped) upload on its silent ticks.
                    let got = loop {
                        match client_ep.recv() {
                            Ok(msg) => break msg,
                            // Under a degrading policy a silent link is not
                            // a verdict: the coordinator may be spending its
                            // whole lease budget detecting a dead sibling
                            // before it gets to this ack. Keep
                            // retransmitting; the wait ends only on the
                            // coordinator's explicit hangup (its death
                            // verdict for this silo) or the ack itself, so
                            // the outcome is driven by the fault plan, never
                            // by a wall-clock race between detectors.
                            Err(
                                TransportError::Timeout | TransportError::RetryExhausted { .. },
                            ) if degrades => continue,
                            Err(source) => return Err(dead(source)),
                        }
                    };
                    match got {
                        Message::Ack => {}
                        other => {
                            return Err(ProtocolError::Unexpected {
                                phase: "latent-upload",
                                got: format!("{other:?}"),
                            })
                        }
                    }
                }
                Ok((ae, client_ep))
            })));
        }

        // --- Coordinator receives each client's latents (one round total).
        // Loss self-heals without coordinator-side kicks: a client whose
        // upload was dropped is blocked in its own bounded recv (waiting
        // for the app-level ack) and retransmits the upload on every tick.
        // From here to the end of fit the main thread acts as the
        // coordinator; pin its telemetry to that actor.
        let _scope = observe::scope("coordinator");
        let mut uploads: Vec<Option<Tensor>> = (0..m).map(|_| None).collect();
        for i in 0..m {
            if !membership.is_alive(i) {
                continue;
            }
            let ep = &coord_endpoints[i];
            let got = if supervised {
                // The silo thread retransmits its own upload: no kick.
                sup.recv_leased(i, ep, net.retry.recv_deadline, &mut membership, || {})
            } else {
                ep.recv()
            };
            let got = match got {
                Ok(msg) => msg,
                Err(source) => {
                    if sup.policy.degrades() {
                        // Graceful degradation: absorb the death, keep the
                        // survivors. Hang up the link *before* joining — the
                        // silo's patient ack wait ends only on an explicit
                        // disconnect (this coordinator's death verdict),
                        // never on a silent-tick race against the detector.
                        membership.mark_dead(i, i as u64);
                        observe::count(observe::names::SUPERVISION_DEGRADED, 1);
                        let (_hangup, dummy) =
                            link_with(std::sync::Arc::clone(&stats), i as u64, net);
                        coord_endpoints[i] = dummy;
                        if let Some(handle) = handles[i].take() {
                            let _ = handle.join().expect("client thread panicked");
                        }
                        continue;
                    }
                    // Fail-fast: a dropped link usually means the silo
                    // thread died with its own, richer error (injected
                    // crash, bad checkpoint); surface that verdict over
                    // the symptom.
                    if let Some(handle) = handles[i].take() {
                        handle.join().expect("client thread panicked")?;
                    }
                    return Err(dead_silo("latent-upload", i, ep, source));
                }
            };
            match got {
                Message::LatentUpload { client, rows, cols, data } => {
                    uploads[client as usize] =
                        Some(Tensor::from_vec(rows as usize, cols as usize, data));
                }
                other => {
                    return Err(ProtocolError::Unexpected {
                        phase: "latent-upload",
                        got: format!("{other:?}"),
                    })
                }
            }
            if reliable {
                ep.send(&Message::Ack)
                    .map_err(|source| dead_silo("latent-upload", i, ep, source))?;
            }
        }
        let alive_now = membership.n_alive();
        if !sup.policy.permits(alive_now, m) {
            return Err(ProtocolError::QuorumLost {
                phase: "latent-upload",
                alive: alive_now,
                total: m,
                required: sup.policy.required(m),
            });
        }
        if reliable {
            // Drive each live link until the app-level acks are
            // transport-acked (bounded, non-fatal: the uploads themselves
            // are all in hand).
            for (i, ep) in coord_endpoints.iter().enumerate() {
                if !membership.is_alive(i) {
                    continue;
                }
                if !ep.flush(net.retry.recv_deadline) {
                    observe::count(observe::names::TRANSPORT_TIMEOUT, 1);
                }
            }
        }
        bump_round(&stats);

        let mut clients = Vec::with_capacity(m);
        for (i, (part, handle)) in partitions.iter().zip(handles).enumerate() {
            let state = match handle {
                None => None,
                Some(handle) => match handle.join().expect("client thread panicked") {
                    Ok((ae, endpoint)) => {
                        let latent_dim = ae.latent_dim();
                        Some(ClientState { ae, endpoint, latent_dim })
                    }
                    Err(e) => {
                        if membership.is_alive(i) {
                            return Err(e);
                        }
                        // Died of the fault the run already degraded around.
                        None
                    }
                },
            };
            clients.push(SiloSlot { partition: part.clone(), state });
        }

        // --- Step 2 (Algorithm 1, lines 11-16): coordinator-local DDPM
        //     training on the concatenated *surviving* latents
        //     Z = Z_i1 || ... (all of them on a fault-free run).
        let model_silos = membership.alive_indices();
        let mut latent_widths: Vec<usize> =
            model_silos.iter().map(|&i| clients[i].state().latent_dim).collect();
        let parts: Vec<&Tensor> =
            model_silos.iter().map(|&i| uploads[i].as_ref().expect("live silo uploaded")).collect();
        let z_raw = Tensor::concat_cols(&parts);
        let mut scaler = if config.scale_latents {
            LatentScaler::fit(&z_raw)
        } else {
            LatentScaler::identity(z_raw.cols())
        };
        let mut z = scaler.scale(&z_raw);

        let coord_err = ProtocolError::checkpoint("coordinator");

        // Pipeline-level checkpoint: everything the coordinator needs to
        // restart latent training without asking the silos to re-upload.
        if base.is_enabled() {
            let payload = encode_pipeline_state(rng, &z, &scaler, &latent_widths);
            base.save("pipeline-post-upload", "pipeline", 0, &payload).map_err(coord_err)?;
        }

        // A (re)started coordinator builds its DDPM from config, then
        // trains it from the latest checkpoint if `ckpt` resumes.
        let parameterization = config.parameterization();
        let train_ddpm = |z: &Tensor, rng: &mut StdRng, ckpt: &Checkpointer| {
            let mut ddpm = config.latent_ddpm(z.cols(), COORDINATOR_DDPM_SALT, parameterization);
            let _phase = observe::phase("latent-train");
            let (steps, batch, lr) = (config.diffusion_steps, config.batch_size, config.ddpm_lr);
            ddpm.fit_latent(z, steps, batch, lr, rng, ckpt, "coordinator-ddpm", "latent-train")
                .map(|_| ddpm)
        };
        let coord_crash = crash_plan.clone().filter(|c| c.phase == "latent-train");
        let ddpm = match train_ddpm(&z, rng, &base.clone().with_crash(coord_crash)) {
            Ok(ddpm) => ddpm,
            Err(CheckpointError::Crashed { .. }) if base.is_enabled() => {
                // Coordinator process died mid-train: its replacement
                // reloads Z / scaler / widths from the post-upload pipeline
                // checkpoint, rebuilds the DDPM from config, and resumes
                // from the latest coordinator-ddpm checkpoint.
                let resume = base.clone().with_resume(true);
                let saved = resume
                    .load("pipeline-post-upload", "pipeline")
                    .map_err(coord_err)?
                    .ok_or_else(|| {
                        coord_err(CheckpointError::state("pipeline-post-upload checkpoint missing"))
                    })?;
                let (rng_state, z2, scaler2, widths2) =
                    decode_pipeline_state(&saved.payload).map_err(coord_err)?;
                *rng = StdRng::from_state(rng_state);
                z = z2;
                scaler = scaler2;
                latent_widths = widths2;
                train_ddpm(&z, rng, &resume).map_err(coord_err)?
            }
            Err(e) => return Err(coord_err(e)),
        };
        Ok(Self {
            config,
            net: net.clone(),
            clients,
            coordinator: Coordinator { ddpm, scaler, latent_widths, model_silos },
            coord_endpoints,
            stats,
            ckpt: base,
            synth_calls: 0,
            sup,
            membership,
        })
    }

    /// The coordinator's live membership view of the run's silos.
    pub fn membership(&self) -> &MembershipTable {
        &self.membership
    }

    /// Number of participating clients.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Communication statistics accumulated so far.
    pub fn comm_stats(&self) -> CommStats {
        *self.stats.lock()
    }

    /// Algorithm 2: client `requesting_client` asks for `n` samples; the
    /// coordinator denoises, partitions the synthetic latents, and every
    /// client decodes its own slice locally. The output stays vertically
    /// partitioned (`result[i]` belongs to client `i`).
    pub fn synthesize_partitioned(
        &mut self,
        n: usize,
        requesting_client: usize,
        rng: &mut StdRng,
    ) -> Vec<Table> {
        self.synthesize_partitioned_with_steps(n, requesting_client, None, rng)
    }

    /// [`SiloFuseModel::synthesize_partitioned`] with an inference-step
    /// override (Table VII sensitivity experiment).
    pub fn synthesize_partitioned_with_steps(
        &mut self,
        n: usize,
        requesting_client: usize,
        inference_steps: Option<usize>,
        rng: &mut StdRng,
    ) -> Vec<Table> {
        self.try_synthesize_partitioned_with_steps(n, requesting_client, inference_steps, rng)
            .expect("synthesis protocol failed")
    }

    /// Overrides the synthesis chunk size after fitting. Purely a
    /// memory/throughput knob: synthetic output is bit-identical for any
    /// value (rows own independent RNG streams keyed off one base seed).
    /// A zero value is stored as-is and rejected at synthesis time with
    /// a typed [`ProtocolError::InvalidRequest`].
    pub fn set_synth_chunk_rows(&mut self, rows: usize) {
        self.config.synth_chunk_rows = rows;
    }

    /// Fallible [`SiloFuseModel::synthesize_partitioned_with_steps`]: the
    /// engine of [`SiloFuseModel::try_synthesize_supervised`], with every
    /// partition required. Under the default fail-fast policy a lost
    /// transmission is recovered by peer-kick retransmission and an
    /// exhausted retry budget returns [`ProtocolError`]. Under a degrading
    /// policy a masked partition returns a typed
    /// [`ProtocolError::SiloDead`], never silently imputed columns.
    pub fn try_synthesize_partitioned_with_steps(
        &mut self,
        n: usize,
        requesting_client: usize,
        inference_steps: Option<usize>,
        rng: &mut StdRng,
    ) -> Result<Vec<Table>, ProtocolError> {
        let outputs = self.try_synthesize_supervised(n, requesting_client, inference_steps, rng)?;
        outputs
            .into_iter()
            .enumerate()
            .map(|(i, out)| match out {
                SiloOutput::Decoded(t) => Ok(t),
                SiloOutput::Masked { .. } => Err(ProtocolError::SiloDead {
                    client: i,
                    phase: "synthetic-latents",
                    retry: None,
                    source: TransportError::Disconnected,
                }),
            })
            .collect()
    }

    /// [`ProtocolError::NoSuchClient`] unless `client` indexes a silo of
    /// this run.
    fn check_client(&self, client: usize) -> Result<(), ProtocolError> {
        let clients = self.clients.len();
        if client < clients {
            Ok(())
        } else {
            Err(ProtocolError::NoSuchClient { client, clients })
        }
    }

    /// Algorithm 2, the protocol's one synthesis engine: returns one
    /// [`SiloOutput`] per silo instead of requiring every silo to decode.
    /// With the default [`SupervisorConfig`] (fail-fast, heartbeats off)
    /// it is the plain protocol: every silo decodes and the first dead
    /// silo aborts the call.
    ///
    /// - The coordinator denoises in chunks of
    ///   [`LatentDiffConfig::synth_chunk_rows`], so its memory and every
    ///   message stay bounded by the chunk size; live silos decode their
    ///   own latent slices.
    /// - A silo whose retry budget is exhausted mid-run is marked Dead;
    ///   under a `quorum`/`best-effort` [`crate::supervision::DegradePolicy`]
    ///   the run continues and that silo's whole partition is emitted as
    ///   [`SiloOutput::Masked`] (never a partial table, never silently
    ///   imputed). Under `fail-fast` the typed error returns.
    /// - Slices keep being shipped to a dead-but-partitioned silo: they
    ///   park in the reliable layer's unacked send window, and when the
    ///   fault plan's `rejoin_at` heals the link, the peer kick replays
    ///   the whole backlog in sequence order — the silo catches up and
    ///   its output is bit-identical to an undisturbed run.
    /// - If the requesting client itself is dead, the lowest-indexed live
    ///   silo issues the request instead.
    ///
    /// Everything is driven by logical clocks (chunk indices) and the
    /// deterministic retry budget: a fixed seed and fault plan produce
    /// bit-identical output at any thread count. The sampler consumes
    /// exactly one u64 of `rng` (the per-row base seed); with a
    /// checkpointer that base and the caller RNG's state are saved at
    /// chunk boundaries, so a crashed synthesis resumes bit-identically.
    ///
    /// An unknown `requesting_client` returns
    /// [`ProtocolError::NoSuchClient`]; a zero chunk size or bad
    /// `inference_steps` returns [`ProtocolError::InvalidRequest`].
    pub fn try_synthesize_supervised(
        &mut self,
        n: usize,
        requesting_client: usize,
        inference_steps: Option<usize>,
        rng: &mut StdRng,
    ) -> Result<Vec<SiloOutput>, ProtocolError> {
        self.check_client(requesting_client)?;
        let m = self.clients.len();
        let sup = self.sup.clone();
        let degrade = sup.policy;
        let policy = self.net.retry;
        {
            let alive = self.membership.n_alive();
            if !degrade.permits(alive, m) {
                return Err(ProtocolError::QuorumLost {
                    phase: "synthesis-request",
                    alive,
                    total: m,
                    required: degrade.required(m),
                });
            }
        }
        let requester = if self.membership.is_alive(requesting_client) {
            requesting_client
        } else {
            self.membership.alive_indices()[0]
        };

        // Line 1: request travels client -> coordinator; the coordinator
        // absorbs any heartbeats queued ahead of it on the link. This
        // thread holds both ends of every link here, so each receive finds
        // its frame queued unless a fault plan lost it; the bounded
        // receive then kicks the peer to retransmit.
        {
            let _scope = observe::scope(&format!("silo{requester}"));
            let client_ep = &self.clients[requester].state().endpoint;
            client_ep
                .send(&Message::SynthesisRequest { client: requester as u32, n: n as u32 })
                .map_err(|source| dead_silo("synthesis-request", requester, client_ep, source))?;
        }
        let _coord_scope = observe::scope("coordinator");
        loop {
            let msg = recv_or_dead(
                &policy,
                "synthesis-request",
                requester,
                &self.coord_endpoints[requester],
                &self.clients[requester].state().endpoint,
            )?;
            match msg {
                Message::Heartbeat { client, tick } => {
                    if (client as usize) < m {
                        self.membership.beat(client as usize, tick);
                    }
                }
                Message::SynthesisRequest { .. } => break,
                other => {
                    return Err(ProtocolError::Unexpected {
                        phase: "synthesis-request",
                        got: format!("{other:?}"),
                    })
                }
            }
        }

        let steps = inference_steps.unwrap_or(self.config.inference_steps);
        let chunk_rows = self.config.synth_chunk_rows;
        let ckpt = self.ckpt.clone();
        let synth_name = format!("coordinator-synth{}", self.synth_calls);
        self.synth_calls += 1;
        let coord_err = ProtocolError::checkpoint("coordinator");
        let mut resumed = None;
        if ckpt.is_enabled() && ckpt.resume() {
            if let Some(saved) = ckpt.load(&synth_name, "synthesis").map_err(coord_err)? {
                let (base, state) = decode_progress(&saved.payload).map_err(coord_err)?;
                *rng = StdRng::from_state(state);
                resumed = Some(base);
            }
        }
        let base = resumed.unwrap_or_else(|| rng.gen::<u64>());
        let save_progress = |chunks_done: u64, rng: &StdRng| {
            let mut payload = base.to_le_bytes().to_vec();
            payload.extend_from_slice(&rng.state().to_le_bytes());
            ckpt.save(&synth_name, "synthesis", chunks_done, &payload).map_err(coord_err)
        };
        if ckpt.is_enabled() && resumed.is_none() {
            save_progress(0, rng)?;
        }

        let Coordinator { ddpm, scaler, latent_widths, model_silos } = &mut self.coordinator;
        let mut sampler =
            ddpm.chunked_sampler_from_base(n, steps, self.config.eta, chunk_rows, base).map_err(
                |source| ProtocolError::InvalidRequest { phase: "synthesis-request", source },
            )?;
        let total_chunks = sampler.total_chunks() as u64;
        let mut decoded: Vec<Vec<Table>> = (0..m).map(|_| Vec::new()).collect();
        // Slices shipped to each silo but not yet decoded: 0 or 1 for a
        // live silo, the whole missed backlog for a dead one.
        let mut pending: Vec<u64> = vec![0; m];
        // Dead silos get a short probe instead of the full retry budget:
        // in-process delivery is synchronous, so one kick after the heal
        // is enough to start the replay — and a still-cut link can never
        // deliver, however long the budget.
        let probe = RetryPolicy { max_retries: 2, ..policy };
        let mut chunk_idx = 0u64;
        // Lines 2-4: sample noise, denoise and partition, one chunk at a
        // time; lines 5-7: ship each silo its slice to decode locally.
        loop {
            let chunk = {
                let _phase = observe::phase("sample");
                sampler.next_chunk()
            };
            let Some((_, z)) = chunk else { break };
            let latents = scaler.unscale(&z);
            silofuse_nn::workspace::recycle(z);
            let parts = latents.split_cols(latent_widths);

            let _phase = observe::phase("decode");
            for (slot, part) in model_silos.iter().zip(parts.iter()) {
                let i = *slot;
                if self.clients[i].state.is_none() {
                    // Crashed with no restored process: nothing to ship to
                    // (restart_silo can bring it back between calls).
                    continue;
                }
                // The silo's logical clock keeps ticking even while it is
                // partitioned out: these control beats are what advance
                // the fault plan's up-transmission clock to `rejoin_at`
                // and heal the window.
                if sup.heartbeats_enabled() {
                    let _scope = observe::scope(&format!("silo{i}"));
                    let _ = self.clients[i]
                        .state()
                        .endpoint
                        .send(&Message::Heartbeat { client: i as u32, tick: chunk_idx });
                }
                // Ship the slice regardless of membership (see the rejoin
                // contract in the method docs).
                let coord_ep = &self.coord_endpoints[i];
                if let Err(source) = coord_ep.send(&Message::SyntheticLatents {
                    client: i as u32,
                    rows: part.rows() as u32,
                    cols: part.cols() as u32,
                    data: part.as_slice().to_vec(),
                }) {
                    if !degrade.degrades() {
                        return Err(dead_silo("synthetic-latents", i, coord_ep, source));
                    }
                    self.membership.mark_dead(i, chunk_idx);
                    continue;
                }
                pending[i] += 1;

                // Drain everything owed: one slice normally, the whole
                // backlog (in sequence order) right after a rejoin.
                let _scope = observe::scope(&format!("silo{i}"));
                while pending[i] > 0 {
                    let alive = self.membership.is_alive(i);
                    let budget = if alive { policy } else { probe };
                    let got = recv_or_dead(
                        &budget,
                        "synthetic-latents",
                        i,
                        &self.clients[i].state().endpoint,
                        &self.coord_endpoints[i],
                    );
                    match got {
                        Ok(Message::SyntheticLatents { rows, cols, data, .. }) => {
                            let z_i = Tensor::from_vec(rows as usize, cols as usize, data);
                            let table = self.clients[i].state_mut().ae.decode(&z_i);
                            decoded[i].push(table);
                            pending[i] -= 1;
                            if !self.membership.is_alive(i) {
                                // The link healed and the backlog is
                                // replaying: the silo is back.
                                self.membership.mark_rejoined(i, chunk_idx);
                            }
                        }
                        Ok(other) => {
                            return Err(ProtocolError::Unexpected {
                                phase: "synthetic-latents",
                                got: format!("{other:?}"),
                            })
                        }
                        Err(e) => {
                            if !degrade.degrades() {
                                return Err(e);
                            }
                            if alive {
                                self.membership.mark_dead(i, chunk_idx);
                                observe::count(observe::names::SUPERVISION_DEGRADED, 1);
                                let alive_n = self.membership.n_alive();
                                if !degrade.permits(alive_n, m) {
                                    return Err(ProtocolError::QuorumLost {
                                        phase: "synthetic-latents",
                                        alive: alive_n,
                                        total: m,
                                        required: degrade.required(m),
                                    });
                                }
                            }
                            // Keep the backlog; probe again next chunk.
                            break;
                        }
                    }
                }
            }

            // Chunk boundary: record progress and honour injected crashes.
            chunk_idx += 1;
            if ckpt.is_enabled() && ckpt.due(chunk_idx, total_chunks) {
                save_progress(chunk_idx, rng)?;
            }
            ckpt.maybe_crash("synthesis", chunk_idx).map_err(coord_err)?;
        }

        // Final catch-up: a link that healed on the very last chunk may
        // still owe its backlog one kick away.
        for &i in model_silos.iter() {
            if self.clients[i].state.is_none() {
                continue;
            }
            while pending[i] > 0 {
                let client_ep = &self.clients[i].state().endpoint;
                let got = recv_retrying(
                    &probe,
                    |d| client_ep.recv_timeout(d),
                    || self.coord_endpoints[i].retransmit_unacked(),
                );
                match got {
                    Ok(Message::SyntheticLatents { rows, cols, data, .. }) => {
                        let z_i = Tensor::from_vec(rows as usize, cols as usize, data);
                        let table = self.clients[i].state_mut().ae.decode(&z_i);
                        decoded[i].push(table);
                        pending[i] -= 1;
                        if !self.membership.is_alive(i) {
                            self.membership.mark_rejoined(i, total_chunks);
                        }
                    }
                    _ => break,
                }
            }
        }

        let mut outputs = Vec::with_capacity(m);
        for i in 0..m {
            let complete = model_silos.contains(&i)
                && self.membership.is_alive(i)
                && pending[i] == 0
                && self.clients[i].state.is_some();
            if complete {
                let chunks = std::mem::take(&mut decoded[i]);
                let table = if chunks.is_empty() {
                    // n == 0: decode an empty latent batch for the schema.
                    let w = self.clients[i].state().latent_dim;
                    self.clients[i].state_mut().ae.decode(&Tensor::zeros(0, w))
                } else {
                    Table::concat_rows(&chunks.iter().collect::<Vec<_>>())
                };
                outputs.push(SiloOutput::Decoded(table));
            } else {
                // Dead (or never in the model): the whole partition is
                // typed as masked — no partial output, nothing imputed.
                outputs.push(SiloOutput::Masked {
                    schema: self.clients[i].partition.schema().clone(),
                    rows: n,
                });
            }
        }
        bump_round(&self.stats);
        Ok(outputs)
    }

    /// Restarts a crashed silo and rejoins it into the run. The silo's
    /// replacement process is rebuilt deterministically from config plus
    /// its retained private partition, restores its trained autoencoder
    /// from the `silo<i>-ae` checkpoint written during fit, opens a fresh
    /// link, and completes a rejoin handshake — a
    /// [`Message::RejoinRequest`] carrying the checkpoint's resume step,
    /// answered by a coordinator [`Message::Heartbeat`] echoing the
    /// granted step — before being marked Rejoined. Both handshake frames
    /// are control traffic and never touch the protocol byte ledgers.
    ///
    /// Requires the model's checkpointer and only readmits silos whose
    /// latents are part of the coordinator's generative model (a silo dead
    /// *before* upload contributed nothing the DDPM could sample for).
    /// The fresh link re-arms the fault plan for that link id, including
    /// any partition window. An unknown `i` returns
    /// [`ProtocolError::NoSuchClient`].
    pub fn restart_silo(&mut self, i: usize) -> Result<(), ProtocolError> {
        self.check_client(i)?;
        if self.membership.is_alive(i) && self.clients[i].state.is_some() {
            return Ok(());
        }
        if !self.coordinator.model_silos.contains(&i) {
            return Err(ProtocolError::Unexpected {
                phase: "rejoin",
                got: format!("silo {i} has no latents in the coordinator model"),
            });
        }
        let node = format!("silo {i}");
        let ckpt_err = ProtocolError::checkpoint(&node);
        let name = format!("silo{i}-ae");
        // The crash is disarmed: the replacement process does not die again.
        let resume = self.ckpt.clone().with_resume(true).with_crash(None);
        let resume_step =
            resume.latest_step(&name, "ae-train").map_err(ckpt_err)?.ok_or_else(|| {
                ckpt_err(CheckpointError::State(format!(
                    "{name} checkpoint missing; cannot rejoin"
                )))
            })?;

        // Rebuild the silo exactly as fit did: weights restored from (and
        // the training tail, if any, replayed after) the checkpoint.
        let (client_ep, coord_ep) =
            link_with(std::sync::Arc::clone(&self.stats), i as u64, &self.net);
        let ae = {
            let _scope = observe::scope(&format!("silo{i}"));
            let (ae, _) =
                train_silo_ae(&self.clients[i].partition, &self.config, i, &resume, &mut |_| {})
                    .map_err(ckpt_err)?;
            client_ep
                .send(&Message::RejoinRequest { client: i as u32, resume_step })
                .map_err(|source| dead_silo("rejoin", i, &client_ep, source))?;
            ae
        };
        {
            let _coord = observe::scope("coordinator");
            match recv_or_dead(&self.net.retry, "rejoin", i, &coord_ep, &client_ep)? {
                Message::RejoinRequest { client, resume_step: step }
                    if client as usize == i && step <= self.config.ae_steps as u64 =>
                {
                    // The silo's persisted state is consistent with this
                    // run; grant the rejoin by echoing the step back.
                    coord_ep
                        .send(&Message::Heartbeat { client: i as u32, tick: step })
                        .map_err(|source| dead_silo("rejoin", i, &coord_ep, source))?;
                }
                other => {
                    return Err(ProtocolError::Unexpected {
                        phase: "rejoin",
                        got: format!("{other:?}"),
                    })
                }
            }
        }
        {
            let _scope = observe::scope(&format!("silo{i}"));
            match recv_or_dead(&self.net.retry, "rejoin", i, &client_ep, &coord_ep)? {
                Message::Heartbeat { client, tick }
                    if client as usize == i && tick == resume_step => {}
                other => {
                    return Err(ProtocolError::Unexpected {
                        phase: "rejoin",
                        got: format!("{other:?}"),
                    })
                }
            }
        }
        let latent_dim = ae.latent_dim();
        self.clients[i].state = Some(ClientState { ae, endpoint: client_ep, latent_dim });
        self.coord_endpoints[i] = coord_ep;
        self.membership.mark_rejoined(i, resume_step);
        Ok(())
    }
}

/// Serialises the coordinator's post-upload state — RNG, scaled latent
/// matrix `Z`, latent scaler, and per-client latent widths — so a restarted
/// coordinator can resume latent training without fresh uploads.
///
/// Layout (little-endian): `u64 rng | u32 rows | u32 cols | f32×rows·cols z
/// | f32×cols mean | f32×cols std | u32 m | u32×m widths`.
fn encode_pipeline_state(
    rng: &StdRng,
    z: &Tensor,
    scaler: &LatentScaler,
    widths: &[usize],
) -> Vec<u8> {
    let mut out = rng.state().to_le_bytes().to_vec();
    out.extend_from_slice(&(z.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(z.cols() as u32).to_le_bytes());
    for v in z.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in scaler.mean() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in scaler.std() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(widths.len() as u32).to_le_bytes());
    for w in widths {
        out.extend_from_slice(&(*w as u32).to_le_bytes());
    }
    out
}

/// Inverse of [`encode_pipeline_state`]. Every length is validated against
/// the payload before allocation, and the payload must end where the state
/// does, so a torn, padded or corrupted checkpoint is a typed
/// [`CheckpointError`], never a panic, a huge allocation or a silent
/// resume.
fn decode_pipeline_state(
    payload: &[u8],
) -> Result<(u64, Tensor, LatentScaler, Vec<usize>), CheckpointError> {
    read_payload(payload, |r| {
        let rng_state = r.u64()?;
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let data = r.f32_vec(rows.checked_mul(cols).ok_or(StateDictError::Malformed)?)?;
        let scaler = LatentScaler::from_parts(r.f32_vec(cols)?, r.f32_vec(cols)?);
        let m = r.u32()? as usize;
        let widths = (0..m).map(|_| Ok(r.u32()? as usize)).collect::<Result<_, _>>()?;
        Ok((rng_state, Tensor::from_vec(rows, cols, data), scaler, widths))
    })
}

/// Reads a synthesis-progress payload, `u64 noise base | u64 RNG state`.
fn decode_progress(payload: &[u8]) -> Result<(u64, u64), CheckpointError> {
    read_payload(payload, |r| Ok((r.u64()?, r.u64()?)))
}

/// Reads a whole checkpoint payload with `read`: a short read, or a byte
/// left over after it, is a typed [`CheckpointError`].
fn read_payload<T>(
    payload: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, StateDictError>,
) -> Result<T, CheckpointError> {
    let mut r = Reader::new(payload);
    let value = read(&mut r).map_err(CheckpointError::state)?;
    r.finish().map_err(CheckpointError::state)?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_models::AutoencoderConfig;
    use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
    use silofuse_tabular::profiles;

    fn quick_config(seed: u64) -> LatentDiffConfig {
        LatentDiffConfig {
            ae: AutoencoderConfig { hidden_dim: 64, lr: 2e-3, seed, ..Default::default() },
            ddpm_hidden: 64,
            timesteps: 30,
            ae_steps: 80,
            diffusion_steps: 80,
            batch_size: 64,
            inference_steps: 8,
            seed,
            ..Default::default()
        }
    }

    fn split(table: &Table, m: usize) -> Vec<Table> {
        PartitionPlan::new(table.n_cols(), m, PartitionStrategy::Default).split(table)
    }

    #[test]
    fn fit_synthesize_partitioned_keeps_schemas() {
        let t = profiles::loan().generate(192, 0);
        let parts = split(&t, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = SiloFuseModel::fit(&parts, quick_config(0), &mut rng);
        assert_eq!(model.n_clients(), 4);
        let synth = model.synthesize_partitioned(32, 1, &mut rng);
        assert_eq!(synth.len(), 4);
        for (s, p) in synth.iter().zip(&parts) {
            assert_eq!(s.n_rows(), 32);
            assert_eq!(s.schema(), p.schema());
        }
    }

    #[test]
    fn training_communication_is_one_round() {
        let t = profiles::loan().generate(128, 1);
        let parts = split(&t, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let model = SiloFuseModel::fit(&parts, quick_config(1), &mut rng);
        let stats = model.comm_stats();
        assert_eq!(stats.rounds, 1, "stacked training must use one round");
        // Exactly one latent upload per client, nothing downstream yet.
        assert_eq!(stats.messages_up, 3);
        assert_eq!(stats.messages_down, 0);
    }

    #[test]
    fn training_bytes_match_latent_sizes_exactly() {
        let t = profiles::loan().generate(128, 2);
        let parts = split(&t, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let model = SiloFuseModel::fit(&parts, quick_config(2), &mut rng);
        let expected: u64 = parts
            .iter()
            .map(|p| {
                let latent_dim = p.schema().width(); // paper's rule
                (13 + 4 * 128 * latent_dim) as u64
            })
            .sum();
        assert_eq!(model.comm_stats().bytes_up, expected);
    }

    #[test]
    fn more_training_steps_do_not_increase_bytes() {
        let t = profiles::loan().generate(96, 3);
        let parts = split(&t, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut small = quick_config(3);
        small.ae_steps = 20;
        small.diffusion_steps = 20;
        let mut big = quick_config(3);
        big.ae_steps = 200;
        big.diffusion_steps = 200;
        let m1 = SiloFuseModel::fit(&parts, small, &mut rng);
        let m2 = SiloFuseModel::fit(&parts, big, &mut rng);
        assert_eq!(
            m1.comm_stats().bytes_up,
            m2.comm_stats().bytes_up,
            "stacked training cost must be iteration-independent"
        );
    }

    #[test]
    fn synthesis_ships_only_latent_slices() {
        let t = profiles::loan().generate(96, 4);
        let parts = split(&t, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = SiloFuseModel::fit(&parts, quick_config(4), &mut rng);
        let before = model.comm_stats();
        let _ = model.synthesize_partitioned(16, 0, &mut rng);
        let after = model.comm_stats();
        let latent_total: usize = parts.iter().map(|p| p.schema().width()).sum();
        let expected_down: u64 = (2 * 13 + 4 * 16 * latent_total) as u64;
        assert_eq!(after.bytes_down - before.bytes_down, expected_down);
        // Upstream during synthesis: just the 9-byte request.
        assert_eq!(after.bytes_up - before.bytes_up, 9);
    }

    #[test]
    fn ablation_knobs_all_train_and_synthesize() {
        let t = profiles::diabetes().generate(96, 9);
        let parts = split(&t, 2);
        for (noise, predict_noise, scale) in
            [(0.5f32, false, true), (0.0, true, true), (0.0, false, false)]
        {
            let mut cfg = quick_config(9);
            cfg.ae_steps = 20;
            cfg.diffusion_steps = 20;
            cfg.latent_noise_std = noise;
            cfg.predict_noise = predict_noise;
            cfg.scale_latents = scale;
            let mut rng = StdRng::seed_from_u64(9);
            let mut model = SiloFuseModel::fit(&parts, cfg, &mut rng);
            let out = model.synthesize_partitioned(8, 0, &mut rng);
            assert_eq!(out.len(), 2, "noise={noise} pn={predict_noise} scale={scale}");
            assert_eq!(out[0].n_rows(), 8);
        }
    }

    #[test]
    fn latent_noise_changes_uploaded_latents_but_not_their_size() {
        let t = profiles::diabetes().generate(64, 10);
        let parts = split(&t, 2);
        let mut rng = StdRng::seed_from_u64(10);
        let clean = SiloFuseModel::fit(&parts, quick_config(10), &mut rng);
        let mut noisy_cfg = quick_config(10);
        noisy_cfg.latent_noise_std = 1.0;
        let noisy = SiloFuseModel::fit(&parts, noisy_cfg, &mut rng);
        assert_eq!(
            clean.comm_stats().bytes_up,
            noisy.comm_stats().bytes_up,
            "noising must not change wire size"
        );
    }

    #[test]
    fn pre_dead_silo_masks_columns_and_replays_identically() {
        use crate::supervision::DegradePolicy;
        let t = profiles::loan().generate(96, 21);
        let parts = split(&t, 3);
        let mut cfg = quick_config(21);
        cfg.ae_steps = 20;
        cfg.diffusion_steps = 20;
        let net = NetConfig {
            supervision: SupervisorConfig::new(DegradePolicy::Quorum(2), 0).with_pre_dead(vec![1]),
            ..Default::default()
        };
        let run = || {
            let mut rng = StdRng::seed_from_u64(21);
            let mut model = SiloFuseModel::try_fit(&parts, cfg, &net, &mut rng)
                .expect("quorum 2-of-3 survives one pre-dead silo");
            assert!(!model.membership().is_alive(1));
            assert_eq!(model.membership().n_alive(), 2);
            model
                .try_synthesize_supervised(12, 0, None, &mut rng)
                .expect("degraded synthesis completes")
        };
        let out = run();
        assert_eq!(out.len(), 3);
        assert!(out[1].is_masked(), "dead silo's columns must be typed Masked");
        let masked_cols: Vec<String> =
            parts[1].schema().columns().iter().map(|c| c.name.clone()).collect();
        assert_eq!(out[1].column_names(), masked_cols);
        assert_eq!(out[1].rows(), 12);
        for i in [0usize, 2] {
            let table = out[i].decoded().expect("survivors decode");
            assert_eq!(table.schema(), parts[i].schema());
            assert_eq!(table.n_rows(), 12);
        }
        assert_eq!(out, run(), "fixed seed + fault plan must replay bit-identically");

        // The same dead silo under fail-fast is a typed quorum loss, not a
        // silent mask.
        let strict = NetConfig {
            supervision: SupervisorConfig::default().with_pre_dead(vec![1]),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(21);
        let err = SiloFuseModel::try_fit(&parts, cfg, &strict, &mut rng)
            .expect_err("fail-fast cannot start a run short of its quorum");
        assert!(matches!(err, ProtocolError::QuorumLost { alive: 2, total: 3, .. }), "{err}");
    }

    #[test]
    fn heartbeats_ride_the_control_ledger_only() {
        use crate::supervision::DegradePolicy;
        let t = profiles::loan().generate(96, 22);
        let parts = split(&t, 2);
        let mut cfg = quick_config(22);
        cfg.ae_steps = 20;
        cfg.diffusion_steps = 20;
        let mut rng = StdRng::seed_from_u64(22);
        let mut plain = SiloFuseModel::fit(&parts, cfg, &mut rng);
        let beating_net = NetConfig {
            supervision: SupervisorConfig::new(DegradePolicy::FailFast, 4),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(22);
        let mut beating = SiloFuseModel::try_fit(&parts, cfg, &beating_net, &mut rng)
            .expect("heartbeats on a perfect network are harmless");
        let (p, b) = (plain.comm_stats(), beating.comm_stats());
        assert_eq!(b.bytes_up, p.bytes_up, "beats must not leak into the Fig. 10 ledger");
        assert_eq!(b.messages_up, p.messages_up);
        // One beat per 4 AE steps per silo: 2 silos x 20/4, 13 wire bytes
        // each, all on the control ledger.
        assert_eq!(p.messages_control, 0);
        assert_eq!(b.messages_control, 10);
        assert_eq!(b.bytes_control, 10 * 13);
        // Liveness signalling must not perturb the model: synthetic output
        // is byte-identical with and without heartbeats.
        let mut rng = StdRng::seed_from_u64(123);
        let want = plain.synthesize_partitioned(8, 0, &mut rng);
        let mut rng = StdRng::seed_from_u64(123);
        let got = beating.synthesize_partitioned(8, 0, &mut rng);
        assert_eq!(got, want);
    }

    /// Every proper prefix of `payload`, then `payload` with one byte more.
    fn cut_and_padded(payload: &[u8]) -> Vec<Vec<u8>> {
        let mut damaged: Vec<_> = (0..payload.len()).map(|cut| payload[..cut].to_vec()).collect();
        damaged.push([payload, &[0]].concat());
        damaged
    }

    /// Every truncation of a pipeline-state and of a synthesis-progress
    /// payload, and each payload with one byte more, is a typed checkpoint
    /// error, never a panic or a silent resume; the payloads themselves
    /// read back exactly.
    #[test]
    fn cut_or_padded_pipeline_payloads_are_typed_errors() {
        let rng = StdRng::seed_from_u64(5);
        let z = Tensor::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.25, -0.0, 7.0]);
        let scaler = LatentScaler::from_parts(vec![0.1, -0.2], vec![1.5, 0.75]);
        let pipeline = encode_pipeline_state(&rng, &z, &scaler, &[1, 1]);
        let (state, z2, scaler2, widths) = decode_pipeline_state(&pipeline).unwrap();
        assert_eq!((state, &z2, widths), (rng.state(), &z, vec![1, 1]));
        assert_eq!((scaler2.mean(), scaler2.std()), (scaler.mean(), scaler.std()));
        let progress = [17u64.to_le_bytes(), rng.state().to_le_bytes()].concat();
        assert_eq!(decode_progress(&progress).unwrap(), (17, rng.state()));

        for bytes in cut_and_padded(&pipeline) {
            let err = decode_pipeline_state(&bytes).err();
            assert!(matches!(err, Some(CheckpointError::State(_))), "{}: {err:?}", bytes.len());
        }
        for bytes in cut_and_padded(&progress) {
            let err = decode_progress(&bytes).err();
            assert!(matches!(err, Some(CheckpointError::State(_))), "{}: {err:?}", bytes.len());
        }
    }
}
