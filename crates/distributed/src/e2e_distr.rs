//! E2EDistr: the end-to-end *distributed* baseline (Fig. 9).
//!
//! Every training iteration, each client uploads its batch's forward
//! activations (latents) to the coordinator and downloads the matching
//! latent gradients — so communication grows as `O(#iterations)`, the
//! behaviour Fig. 10 contrasts with SiloFuse's single round. The decoders
//! stay at the clients; the joint loss is `L_G + L_AE`.

use crate::error::ProtocolError;
use crate::faults::NetConfig;
use crate::stacked::silo_ae_config;
use crate::supervision::{MembershipTable, SiloOutput, SupervisorConfig};
use crate::transport::{
    bump_round, dead_silo, link_with, new_stats, recv_or_dead, CommStats, Endpoint, SharedStats,
};
use crate::Message;
use rand::rngs::StdRng;
use rand::Rng;
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_diffusion::gaussian::{GaussianDdpm, Parameterization};
use silofuse_diffusion::TrainState;
use silofuse_models::latentdiff::LatentDiffConfig;
use silofuse_models::TabularAutoencoder;
use silofuse_nn::serialize::{Reader, StateDictError};
use silofuse_nn::Tensor;
use silofuse_observe as observe;
use silofuse_tabular::table::Table;

/// Checkpoint file name for the joint E2E training state.
const JOINT_CKPT: &str = "e2e-joint";
/// Phase label crashes and checkpoints are keyed on.
const JOINT_PHASE: &str = "joint-train";
/// Init salt of the joint DDPM (see [`LatentDiffConfig::latent_ddpm`]).
const JOINT_DDPM_SALT: u64 = 0xe2ed;

struct ClientState {
    ae: TabularAutoencoder,
    endpoint: Endpoint,
    partition: Table,
    latent_dim: usize,
}

/// The end-to-end distributed synthesizer.
pub struct E2eDistributed {
    config: LatentDiffConfig,
    net: NetConfig,
    clients: Vec<ClientState>,
    coord_endpoints: Vec<Endpoint>,
    ddpm: Option<GaussianDdpm>,
    stats: SharedStats,
    sup: SupervisorConfig,
    membership: MembershipTable,
    /// Silos whose latents the joint DDPM was built over (ascending; the
    /// alive set at fit start). A silo dying mid-training stays in the
    /// model but is masked at synthesis.
    model_silos: Vec<usize>,
}

impl std::fmt::Debug for E2eDistributed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E2eDistributed({} clients)", self.clients.len())
    }
}

impl E2eDistributed {
    /// Jointly trains autoencoders (at clients) and the DDPM (at the
    /// coordinator) on vertically partitioned data.
    ///
    /// # Panics
    /// Panics if `partitions` is empty or rows are misaligned, or if the
    /// (perfect, in-process) network fails — use
    /// [`E2eDistributed::try_fit`] to train under an injected
    /// [`crate::faults::FaultPlan`].
    pub fn fit(partitions: &[Table], config: LatentDiffConfig, rng: &mut StdRng) -> Self {
        Self::try_fit(partitions, config, &NetConfig::default(), rng)
            .expect("protocol failed on a perfect network")
    }

    /// [`E2eDistributed::fit`] under an explicit network configuration.
    /// Every joint step runs with both endpoint halves on this thread, so
    /// lost transmissions are recovered via peer-kick retransmission; a
    /// link dead past the retry budget returns [`ProtocolError::SiloDead`].
    pub fn try_fit(
        partitions: &[Table],
        config: LatentDiffConfig,
        net: &NetConfig,
        rng: &mut StdRng,
    ) -> Result<Self, ProtocolError> {
        Self::try_fit_with_checkpoints(partitions, config, net, None, rng)
    }

    /// [`E2eDistributed::try_fit`] with crash-safe checkpointing. The whole
    /// joint state — every client's AE training state plus the
    /// coordinator's DDPM — snapshots as one `e2e-joint` checkpoint every
    /// `--checkpoint-every` rounds. A crash injected via `crash_at`
    /// restarts the run from the latest snapshot and replays forward,
    /// bit-identically to an uninterrupted run (wire statistics count the
    /// replayed rounds, model state does not). A crash with `ckpt == None`
    /// (or a disabled checkpointer) is fatal: [`ProtocolError::Crashed`].
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
        let mut clients = Vec::with_capacity(partitions.len());
        let mut coord_endpoints = Vec::with_capacity(partitions.len());
        for (i, part) in partitions.iter().enumerate() {
            let (client_ep, coord_ep) = link_with(std::sync::Arc::clone(&stats), i as u64, net);
            let ae = TabularAutoencoder::new(part, silo_ae_config(&config, i));
            let latent_dim = ae.latent_dim();
            clients.push(ClientState {
                ae,
                endpoint: client_ep,
                partition: part.clone(),
                latent_dim,
            });
            coord_endpoints.push(coord_ep);
        }

        let m = partitions.len();
        let sup = net.supervision.clone();
        let membership = sup.membership(m);
        let model_silos = membership.alive_indices();
        if !sup.policy.permits(membership.n_alive(), m) {
            return Err(ProtocolError::QuorumLost {
                phase: "joint-train",
                alive: membership.n_alive(),
                total: m,
                required: sup.policy.required(m),
            });
        }
        // The joint DDPM spans exactly the silos alive at fit start:
        // pre-declared-dead silos keep their index (and therefore per-silo
        // seed) but contribute no latent columns.
        let total_latent: usize = model_silos.iter().map(|&i| clients[i].latent_dim).sum();
        let mut ddpm =
            config.latent_ddpm(total_latent, JOINT_DDPM_SALT, Parameterization::PredictX0);

        let base = ckpt.cloned().unwrap_or_else(Checkpointer::disabled);
        let crash_plan =
            net.faults.as_ref().and_then(|p| p.crash_at.clone()).or_else(|| base.crash().cloned());
        let mut crash_armed =
            base.clone().with_crash(crash_plan.filter(|c| c.phase == JOINT_PHASE));
        let coord_err = ProtocolError::checkpoint("coordinator");

        let mut model = Self {
            config,
            net: net.clone(),
            clients,
            coord_endpoints,
            ddpm: None,
            stats,
            sup,
            membership,
            model_silos,
        };
        let total = (config.ae_steps + config.diffusion_steps) as u64;
        let _phase = observe::phase("joint-train");
        let mut round: u64 = match base.load(JOINT_CKPT, JOINT_PHASE).map_err(coord_err)? {
            Some(saved) => {
                let step = saved.step;
                model.import_joint_state(&mut ddpm, &saved.payload, rng).map_err(coord_err)?;
                step.min(total)
            }
            None => {
                if base.is_enabled() {
                    // Round-0 snapshot: a crash before the first periodic
                    // save must not resume with an advanced RNG stream.
                    let payload = model.snapshot_joint(&mut ddpm, rng);
                    base.save(JOINT_CKPT, JOINT_PHASE, 0, &payload).map_err(coord_err)?;
                }
                0
            }
        };
        loop {
            if crash_armed.crash_due(JOINT_PHASE, round) {
                // The simulated process dies here: the restarted run falls
                // back to the latest snapshot and replays the lost rounds
                // (the crash disarms — it already happened).
                let err = crash_armed.maybe_crash(JOINT_PHASE, round).expect_err("crash is due");
                if !base.is_enabled() {
                    return Err(coord_err(err));
                }
                crash_armed = base.clone();
                round = model.restore_joint(&mut ddpm, &base, rng).map_err(coord_err)?.min(total);
            }
            if round >= total {
                break;
            }
            let idx: Vec<usize> =
                (0..config.batch_size.min(rows)).map(|_| rng.gen_range(0..rows)).collect();
            if !model.joint_step(&mut ddpm, &idx, round, rng)? {
                // Graceful degradation: a silo died mid-round. The joint
                // protocol cannot continue without its activations, so
                // training halts at the last completed round; the dead
                // silo's columns come out Masked at synthesis.
                break;
            }
            round += 1;
            if base.is_enabled() && base.due(round, total) {
                let payload = model.snapshot_joint(&mut ddpm, rng);
                base.save(JOINT_CKPT, JOINT_PHASE, round, &payload).map_err(coord_err)?;
            }
        }
        model.ddpm = Some(ddpm);
        Ok(model)
    }

    /// `u64 rng | u32 m | m × (u32 len | AE train state) | DDPM train
    /// state` — one blob captures every node of the simulated deployment.
    fn snapshot_joint(&mut self, ddpm: &mut GaussianDdpm, rng: &StdRng) -> Vec<u8> {
        let mut out = rng.state().to_le_bytes().to_vec();
        out.extend_from_slice(&(self.clients.len() as u32).to_le_bytes());
        for client in &mut self.clients {
            let blob = client.ae.export_train_state();
            out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            out.extend_from_slice(&blob);
        }
        out.extend_from_slice(&ddpm.export_train_state());
        out
    }

    /// Restores a [`E2eDistributed::snapshot_joint`] payload into freshly
    /// rebuilt models. The RNG is restored last, so a failed import leaves
    /// the caller's stream untouched.
    fn import_joint_state(
        &mut self,
        ddpm: &mut GaussianDdpm,
        payload: &[u8],
        rng: &mut StdRng,
    ) -> Result<(), CheckpointError> {
        let malformed = |e: StateDictError| CheckpointError::state(e);
        let mut r = Reader::new(payload);
        let rng_state = r.u64().map_err(malformed)?;
        let m = r.u32().map_err(malformed)? as usize;
        if m != self.clients.len() {
            return Err(CheckpointError::state(format!(
                "joint checkpoint holds {m} clients, run has {}",
                self.clients.len()
            )));
        }
        for client in &mut self.clients {
            let len = r.u32().map_err(malformed)? as usize;
            let blob = r.bytes(len).map_err(malformed)?;
            client.ae.import_train_state(blob).map_err(malformed)?;
        }
        ddpm.import_train_state(r.rest()).map_err(malformed)?;
        *rng = StdRng::from_state(rng_state);
        Ok(())
    }

    /// A restarted joint run: rebuild every client AE and the DDPM
    /// deterministically from config, load the latest `e2e-joint`
    /// checkpoint on top, and return the round to resume from. Transport
    /// endpoints are kept — sequence numbers continue across the restart.
    fn restore_joint(
        &mut self,
        ddpm: &mut GaussianDdpm,
        base: &Checkpointer,
        rng: &mut StdRng,
    ) -> Result<u64, CheckpointError> {
        let resume = base.clone().with_resume(true);
        let saved = resume
            .load(JOINT_CKPT, JOINT_PHASE)?
            .ok_or_else(|| CheckpointError::state("e2e-joint checkpoint missing"))?;
        for (i, client) in self.clients.iter_mut().enumerate() {
            client.ae = TabularAutoencoder::new(&client.partition, silo_ae_config(&self.config, i));
        }
        let total_latent: usize =
            self.model_silos.iter().map(|&i| self.clients[i].latent_dim).sum();
        *ddpm = self.config.latent_ddpm(total_latent, JOINT_DDPM_SALT, Parameterization::PredictX0);
        self.import_joint_state(ddpm, &saved.payload, rng)?;
        Ok(saved.step)
    }

    /// Handles silo `silo`'s death mid-round, reported as `err`. Fail-fast
    /// returns `err`. A degrading policy absorbs the death: it marks the
    /// silo dead, re-checks the quorum, and tells the training loop to
    /// stop at the last completed round (`Ok(false)`).
    fn degrade(
        &mut self,
        silo: usize,
        tick: u64,
        phase: &'static str,
        err: ProtocolError,
    ) -> Result<bool, ProtocolError> {
        if !self.sup.policy.degrades() {
            return Err(err);
        }
        self.membership.mark_dead(silo, tick);
        observe::count(observe::names::SUPERVISION_DEGRADED, 1);
        let alive = self.membership.n_alive();
        let total = self.clients.len();
        if !self.sup.policy.permits(alive, total) {
            return Err(ProtocolError::QuorumLost {
                phase,
                alive,
                total,
                required: self.sup.policy.required(total),
            });
        }
        Ok(false)
    }

    /// One distributed end-to-end step over aligned batch rows `idx`.
    /// This thread holds both halves of every link, so each receive finds
    /// its frame queued unless a fault plan lost it; the bounded receive
    /// then kicks the sending endpoint to retransmit its unacknowledged
    /// frames (nobody else can). Returns `Ok(false)` when a silo died and
    /// the policy degrades: the round is abandoned (no [`bump_round`])
    /// and joint training must stop.
    fn joint_step(
        &mut self,
        ddpm: &mut GaussianDdpm,
        idx: &[usize],
        tick: u64,
        rng: &mut StdRng,
    ) -> Result<bool, ProtocolError> {
        let m = self.clients.len();
        let policy = self.net.retry;
        let supervised = self.sup.enabled();
        let model_silos = self.model_silos.clone();

        // Clients: encoder forward + activation upload. One thread plays
        // every role here, so each section runs under its actor's scope.
        let mut batches: Vec<Option<(Table, Tensor)>> = (0..m).map(|_| None).collect();
        for &i in &model_silos {
            let _scope = observe::scope(&format!("silo{i}"));
            let hb = self.sup.heartbeat_every;
            let client = &mut self.clients[i];
            let batch = client.partition.select_rows(idx);
            client.ae.zero_grad();
            let z_i = client.ae.encoder_forward_train(&batch);
            if hb > 0 && tick.is_multiple_of(hb) {
                // Control-plane liveness signal: rides the same link but a
                // separate byte ledger, so Fig. 10 accounting is untouched.
                let _ = client.endpoint.send(&Message::Heartbeat { client: i as u32, tick });
            }
            let sent = client.endpoint.send(&Message::ActivationUpload {
                client: i as u32,
                rows: z_i.rows() as u32,
                cols: z_i.cols() as u32,
                data: z_i.as_slice().to_vec(),
            });
            if let Err(source) = sent {
                let err = dead_silo("activation-upload", i, &client.endpoint, source);
                return self.degrade(i, tick, "activation-upload", err);
            }
            batches[i] = Some((batch, z_i));
        }

        // Coordinator: concat, DDPM step, gradient download.
        let coord_scope = observe::scope("coordinator");
        let mut uploads: Vec<Option<Tensor>> = (0..model_silos.len()).map(|_| None).collect();
        for &i in &model_silos {
            let (coord_ep, client_ep) = (&self.coord_endpoints[i], &self.clients[i].endpoint);
            let got = if supervised {
                self.sup
                    .recv_leased(i, coord_ep, policy.recv_deadline, &mut self.membership, || {
                        client_ep.retransmit_unacked()
                    })
                    .map_err(|source| dead_silo("activation-upload", i, coord_ep, source))
            } else {
                recv_or_dead(&policy, "activation-upload", i, coord_ep, client_ep)
            };
            let got = match got {
                Ok(msg) => msg,
                Err(err) => return self.degrade(i, tick, "activation-upload", err),
            };
            match got {
                Message::ActivationUpload { client, rows, cols, data } => {
                    match model_silos.iter().position(|&s| s == client as usize) {
                        Some(p) => {
                            uploads[p] = Some(Tensor::from_vec(rows as usize, cols as usize, data));
                        }
                        None => {
                            return Err(ProtocolError::Unexpected {
                                phase: "activation-upload",
                                got: format!("upload from silo {client} outside the joint model"),
                            })
                        }
                    }
                }
                other => {
                    return Err(ProtocolError::Unexpected {
                        phase: "activation-upload",
                        got: format!("{other:?}"),
                    })
                }
            }
        }
        let parts: Vec<Tensor> = uploads.into_iter().map(Option::unwrap).collect();
        let z = Tensor::concat_cols(&parts.iter().collect::<Vec<_>>());
        let step = ddpm.train_step_with_input_grad(&z, rng);
        let widths: Vec<usize> = model_silos.iter().map(|&i| self.clients[i].latent_dim).collect();
        let grad_parts = step.input_grad.split_cols(&widths);
        for (g, &i) in grad_parts.iter().zip(model_silos.iter()) {
            let sent = self.coord_endpoints[i].send(&Message::GradientDownload {
                client: i as u32,
                rows: g.rows() as u32,
                cols: g.cols() as u32,
                data: g.as_slice().to_vec(),
            });
            if let Err(source) = sent {
                let err = dead_silo("grad-download", i, &self.coord_endpoints[i], source);
                return self.degrade(i, tick, "grad-download", err);
            }
        }

        // Clients: local decoder loss + combined backward + step.
        drop(coord_scope);
        for &i in &model_silos {
            let _scope = observe::scope(&format!("silo{i}"));
            let got = recv_or_dead(
                &policy,
                "grad-download",
                i,
                &self.clients[i].endpoint,
                &self.coord_endpoints[i],
            );
            let msg = match got {
                Ok(msg) => msg,
                // The DDPM (and earlier silos) already stepped this round,
                // but a degraded round is abandoned un-counted: state stays
                // deterministic under the fault plan.
                Err(err) => return self.degrade(i, tick, "grad-download", err),
            };
            let Message::GradientDownload { rows, cols, data, .. } = msg else {
                return Err(ProtocolError::Unexpected {
                    phase: "grad-download",
                    got: format!("{msg:?}"),
                });
            };
            let grad_ddpm = Tensor::from_vec(rows as usize, cols as usize, data);
            let (batch, z_i) = batches[i].as_ref().expect("model silo uploaded this round");
            let client = &mut self.clients[i];
            let (_recon, grad_dec) = client.ae.decoder_loss_backward(z_i, batch);
            let grad_z = grad_ddpm.add(&grad_dec);
            client.ae.encoder_backward(&grad_z);
            client.ae.opt_step();
        }
        bump_round(&self.stats);
        Ok(true)
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Communication statistics accumulated so far.
    pub fn comm_stats(&self) -> CommStats {
        *self.stats.lock()
    }

    /// Average wire bytes per training iteration (for extrapolating Fig. 10
    /// to the paper's 50k/500k/5M iteration counts).
    pub fn bytes_per_iteration(&self) -> f64 {
        let s = self.comm_stats();
        if s.rounds == 0 {
            0.0
        } else {
            s.total_bytes() as f64 / s.rounds as f64
        }
    }

    /// Overrides the synthesis chunk size after fitting. Purely a
    /// memory/throughput knob: synthetic output is bit-identical for any
    /// value (rows own independent RNG streams keyed off one base seed).
    /// A zero value is stored as-is and rejected at synthesis time.
    pub fn set_synth_chunk_rows(&mut self, rows: usize) {
        self.config.synth_chunk_rows = rows;
    }

    /// Synthesis: identical stacking of DDPM + local decoders as SiloFuse,
    /// streamed in chunks of [`LatentDiffConfig::synth_chunk_rows`] through
    /// the batched reverse-diffusion engine so memory stays bounded by the
    /// chunk size.
    ///
    /// # Panics
    /// Panics where [`E2eDistributed::try_synthesize_supervised`] errors,
    /// or if a silo is dead and its partition masked.
    pub fn synthesize_partitioned(&mut self, n: usize, rng: &mut StdRng) -> Vec<Table> {
        self.synthesize_supervised(n, rng)
            .into_iter()
            .enumerate()
            .map(|(i, out)| match out {
                SiloOutput::Decoded(t) => t,
                SiloOutput::Masked { .. } => panic!(
                    "silo {i} is dead: its columns are masked — consume \
                     synthesize_supervised() for typed masked output"
                ),
            })
            .collect()
    }

    /// Panicking [`E2eDistributed::try_synthesize_supervised`].
    ///
    /// # Panics
    /// Panics where the fallible call errors.
    pub fn synthesize_supervised(&mut self, n: usize, rng: &mut StdRng) -> Vec<SiloOutput> {
        self.try_synthesize_supervised(n, rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The protocol's one synthesis engine: one [`SiloOutput`] per client,
    /// in client order. With the default [`SupervisorConfig`] every silo
    /// is alive and decodes. Silos that died during joint training (or
    /// were pre-declared dead) cannot decode — their partitions are
    /// emitted as typed [`SiloOutput::Masked`] columns, never silently
    /// imputed. The coordinator still samples the full joint latent space
    /// the DDPM was trained on; a dead model silo's latent columns are
    /// discarded, not decoded on its behalf.
    ///
    /// A zero [`LatentDiffConfig::synth_chunk_rows`] returns
    /// [`ProtocolError::InvalidRequest`].
    pub fn try_synthesize_supervised(
        &mut self,
        n: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<SiloOutput>, ProtocolError> {
        let chunk_rows = self.config.synth_chunk_rows;
        let model_silos = self.model_silos.clone();
        let widths: Vec<usize> = model_silos.iter().map(|&i| self.clients[i].latent_dim).collect();
        let ddpm = self.ddpm.as_mut().expect("model is fitted");
        let mut sampler = ddpm
            .chunked_sampler(n, self.config.inference_steps, self.config.eta, chunk_rows, rng)
            .map_err(|source| ProtocolError::InvalidRequest {
                phase: "synthesis-request",
                source,
            })?;
        let mut decoded: Vec<Vec<Table>> = (0..model_silos.len()).map(|_| Vec::new()).collect();
        loop {
            let chunk = {
                let _phase = observe::phase("sample");
                sampler.next_chunk()
            };
            let Some((_, z)) = chunk else { break };
            let parts = z.split_cols(&widths);
            silofuse_nn::workspace::recycle(z);
            let _phase = observe::phase("decode");
            for ((z_i, &silo), acc) in parts.iter().zip(model_silos.iter()).zip(decoded.iter_mut())
            {
                if self.membership.is_alive(silo) {
                    acc.push(self.clients[silo].ae.decode(z_i));
                }
            }
        }
        drop(sampler);
        Ok((0..self.clients.len())
            .map(|i| match model_silos.iter().position(|&s| s == i) {
                Some(p) if self.membership.is_alive(i) => {
                    let parts = &decoded[p];
                    let table = if parts.is_empty() {
                        self.clients[i].ae.decode(&Tensor::zeros(0, widths[p]))
                    } else {
                        Table::concat_rows(&parts.iter().collect::<Vec<_>>())
                    };
                    SiloOutput::Decoded(table)
                }
                _ => SiloOutput::Masked {
                    schema: self.clients[i].partition.schema().clone(),
                    rows: n,
                },
            })
            .collect())
    }

    /// Per-silo health for this run.
    pub fn membership(&self) -> &MembershipTable {
        &self.membership
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use silofuse_models::AutoencoderConfig;
    use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
    use silofuse_tabular::profiles;

    fn quick_config(seed: u64, steps: usize) -> LatentDiffConfig {
        LatentDiffConfig {
            ae: AutoencoderConfig { hidden_dim: 48, lr: 1e-3, seed, ..Default::default() },
            ddpm_hidden: 48,
            timesteps: 20,
            ae_steps: steps / 2,
            diffusion_steps: steps - steps / 2,
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
    fn fit_and_synthesize() {
        let t = profiles::loan().generate(96, 0);
        let parts = split(&t, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = E2eDistributed::fit(&parts, quick_config(0, 30), &mut rng);
        let synth = model.synthesize_partitioned(16, &mut rng);
        assert_eq!(synth.len(), 3);
        for (s, p) in synth.iter().zip(&parts) {
            assert_eq!(s.schema(), p.schema());
            assert_eq!(s.n_rows(), 16);
        }
    }

    #[test]
    fn communication_grows_linearly_with_iterations() {
        let t = profiles::loan().generate(64, 1);
        let parts = split(&t, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let m10 = E2eDistributed::fit(&parts, quick_config(1, 10), &mut rng);
        let m40 = E2eDistributed::fit(&parts, quick_config(1, 40), &mut rng);
        let b10 = m10.comm_stats().total_bytes();
        let b40 = m40.comm_stats().total_bytes();
        assert_eq!(b40, 4 * b10, "bytes must scale linearly in iterations");
        assert_eq!(m10.comm_stats().rounds, 10);
        assert_eq!(m40.comm_stats().rounds, 40);
    }

    #[test]
    fn per_round_bytes_are_activations_plus_gradients() {
        let t = profiles::loan().generate(64, 2);
        let parts = split(&t, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = quick_config(2, 4);
        let model = E2eDistributed::fit(&parts, cfg, &mut rng);
        let latent_total: usize = parts.iter().map(|p| p.schema().width()).sum();
        // Per round: M uploads + M downloads, each 13 + 4 * batch * s_i.
        let per_round: u64 = parts
            .iter()
            .map(|p| (13 + 4 * cfg.batch_size * p.schema().width()) as u64)
            .sum::<u64>()
            * 2;
        let _ = latent_total;
        assert_eq!(model.comm_stats().total_bytes(), per_round * 4);
        assert!((model.bytes_per_iteration() - per_round as f64).abs() < 1e-9);
    }

    #[test]
    fn e2e_distr_costs_exceed_stacked_for_nontrivial_iterations() {
        let t = profiles::loan().generate(64, 3);
        let parts = split(&t, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let e2e = E2eDistributed::fit(&parts, quick_config(3, 50), &mut rng);
        let stacked = crate::stacked::SiloFuseModel::fit(&parts, quick_config(3, 50), &mut rng);
        assert!(
            e2e.comm_stats().total_bytes() > stacked.comm_stats().total_bytes(),
            "E2EDistr must communicate more than SiloFuse"
        );
    }

    /// Every truncation of a joint-state payload, and the payload with one
    /// byte more, is a typed checkpoint error, never a panic; the payload
    /// itself restores the caller's RNG.
    #[test]
    fn cut_or_padded_joint_payloads_are_typed_errors() {
        let t = profiles::loan().generate(32, 4);
        let parts = split(&t, 2);
        let mut cfg = quick_config(4, 2);
        (cfg.ae.hidden_dim, cfg.ddpm_hidden) = (4, 4);
        let mut model = E2eDistributed::fit(&parts, cfg, &mut StdRng::seed_from_u64(4));
        let mut ddpm = model.ddpm.take().expect("a fitted model has its DDPM");
        let payload = model.snapshot_joint(&mut ddpm, &StdRng::seed_from_u64(9));
        let mut rng = StdRng::seed_from_u64(1);
        model.import_joint_state(&mut ddpm, &payload, &mut rng).unwrap();
        assert_eq!(rng.state(), StdRng::seed_from_u64(9).state());

        let mut damaged: Vec<_> = (0..payload.len()).map(|cut| &payload[..cut]).collect();
        let padded = [&payload[..], &[0]].concat();
        damaged.push(&padded);
        for bytes in damaged {
            let err = model.import_joint_state(&mut ddpm, bytes, &mut rng).err();
            assert!(matches!(err, Some(CheckpointError::State(_))), "{}: {err:?}", bytes.len());
        }
    }
}
