//! The SiloFuse end-user facade.

use crate::budget::TrainBudget;
use rand::rngs::StdRng;
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_distributed::stacked::SiloFuseModel;
use silofuse_distributed::{CommStats, NetConfig, ProtocolError, SiloOutput};
use silofuse_models::latentdiff::LatentDiffConfig;
use silofuse_models::Synthesizer;
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::table::Table;

/// Top-level SiloFuse configuration.
#[derive(Debug, Clone, Copy)]
pub struct SiloFuseConfig {
    /// Number of clients/silos `M` (paper default: 4).
    pub n_clients: usize,
    /// How features are assigned to clients.
    pub strategy: PartitionStrategy,
    /// Model/training configuration.
    pub model: LatentDiffConfig,
}

impl SiloFuseConfig {
    /// Paper-default configuration: 4 clients, unshuffled equal partition,
    /// standard training budget.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            n_clients: 4,
            strategy: PartitionStrategy::Default,
            model: TrainBudget::standard().latent_config(seed),
        }
    }

    /// Quick configuration for tests and examples.
    pub fn quick(seed: u64) -> Self {
        Self {
            n_clients: 4,
            strategy: PartitionStrategy::Default,
            model: TrainBudget::quick().latent_config(seed),
        }
    }
}

/// The SiloFuse synthesizer over a (conceptually distributed) table.
///
/// The facade accepts the full table, performs the vertical partition, runs
/// the distributed protocol (real per-client threads, byte-accounted
/// transport), and reassembles outputs into the original column order. For
/// already-partitioned data, use
/// [`silofuse_distributed::stacked::SiloFuseModel`] directly.
pub struct SiloFuse {
    config: SiloFuseConfig,
    net: NetConfig,
    ckpt: Checkpointer,
    state: Option<(SiloFuseModel, PartitionPlan)>,
}

impl std::fmt::Debug for SiloFuse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SiloFuse(clients={}, fitted={})", self.config.n_clients, self.state.is_some())
    }
}

impl SiloFuse {
    /// Creates an unfitted synthesizer over a perfect (in-process) network.
    pub fn new(config: SiloFuseConfig) -> Self {
        Self::with_net(config, NetConfig::default())
    }

    /// Creates an unfitted synthesizer whose cross-silo links follow `net`
    /// (fault injection + retry policy). With faults enabled, prefer the
    /// `try_*` entry points — a silo that stays dead past the retry budget
    /// surfaces as [`ProtocolError`] instead of a hang.
    pub fn with_net(config: SiloFuseConfig, net: NetConfig) -> Self {
        Self { config, net, ckpt: Checkpointer::disabled(), state: None }
    }

    /// Installs crash-safe checkpointing: every node of the distributed
    /// run saves its training state under the checkpointer's directory,
    /// and (with resume enabled) a relaunched run fast-forwards to the
    /// latest checkpoint instead of training from scratch.
    pub fn set_checkpointer(&mut self, ckpt: Checkpointer) {
        self.ckpt = ckpt;
    }

    /// Trains the distributed model on `table`.
    ///
    /// # Panics
    /// Panics if the protocol fails, which only happens on a faulty
    /// [`NetConfig`]; use [`SiloFuse::try_fit`] to handle that case.
    pub fn fit(&mut self, table: &Table, rng: &mut StdRng) {
        self.try_fit(table, rng).unwrap_or_else(|e| panic!("distributed training failed: {e}"));
    }

    /// Trains the distributed model, surfacing protocol failures
    /// (dead silos, exhausted retry budgets) as typed errors.
    pub fn try_fit(&mut self, table: &Table, rng: &mut StdRng) -> Result<(), ProtocolError> {
        let plan = PartitionPlan::new(table.n_cols(), self.config.n_clients, self.config.strategy);
        let partitions = plan.split(table);
        let model = SiloFuseModel::try_fit_with_checkpoints(
            &partitions,
            self.config.model,
            &self.net,
            Some(&self.ckpt),
            rng,
        )?;
        self.state = Some((model, plan));
        Ok(())
    }

    /// Synthesizes `n` rows, keeping them vertically partitioned (strongest
    /// privacy): `result[i]` stays with client `i`.
    ///
    /// # Panics
    /// Panics if called before [`SiloFuse::fit`].
    pub fn synthesize_partitioned(&mut self, n: usize, rng: &mut StdRng) -> Vec<Table> {
        let (model, _) = self.state.as_mut().expect("SiloFuse::fit must be called first");
        model.synthesize_partitioned(n, 0, rng)
    }

    /// Synthesizes `n` rows and shares them post-generation, reassembled
    /// into the original column order (the paper's second scenario).
    ///
    /// # Panics
    /// Panics if called before [`SiloFuse::fit`] or if the synthesis
    /// protocol fails (faulty [`NetConfig`] only); see
    /// [`SiloFuse::try_synthesize`].
    pub fn synthesize(&mut self, n: usize, rng: &mut StdRng) -> Table {
        self.try_synthesize(n, rng).unwrap_or_else(|e| panic!("synthesis failed: {e}"))
    }

    /// Synthesizes `n` reassembled rows, surfacing protocol failures as
    /// typed errors.
    ///
    /// # Panics
    /// Panics if called before [`SiloFuse::fit`].
    pub fn try_synthesize(&mut self, n: usize, rng: &mut StdRng) -> Result<Table, ProtocolError> {
        let (model, plan) = self.state.as_mut().expect("SiloFuse::fit must be called first");
        let parts = model.try_synthesize_partitioned_with_steps(n, 0, None, rng)?;
        Ok(plan.reassemble(&parts.iter().collect::<Vec<_>>()))
    }

    /// Synthesis with an inference-step override (Table VII).
    ///
    /// # Panics
    /// Panics if called before [`SiloFuse::fit`], if the synthesis protocol
    /// fails, or if the step count is zero or exceeds the schedule length —
    /// use [`SiloFuse::try_synthesize_with_steps`] for typed errors.
    pub fn synthesize_with_steps(
        &mut self,
        n: usize,
        inference_steps: usize,
        rng: &mut StdRng,
    ) -> Table {
        self.try_synthesize_with_steps(n, inference_steps, rng)
            .unwrap_or_else(|e| panic!("synthesis failed: {e}"))
    }

    /// Fallible [`SiloFuse::synthesize_with_steps`]: an invalid step count
    /// surfaces as [`ProtocolError::InvalidRequest`] instead of a panic.
    ///
    /// # Panics
    /// Panics if called before [`SiloFuse::fit`].
    pub fn try_synthesize_with_steps(
        &mut self,
        n: usize,
        inference_steps: usize,
        rng: &mut StdRng,
    ) -> Result<Table, ProtocolError> {
        let (model, plan) = self.state.as_mut().expect("SiloFuse::fit must be called first");
        let parts =
            model.try_synthesize_partitioned_with_steps(n, 0, Some(inference_steps), rng)?;
        Ok(plan.reassemble(&parts.iter().collect::<Vec<_>>()))
    }

    /// Supervised synthesis for degraded runs: synthesizes `n` rows from
    /// whatever silos are still alive, reassembles the survivors' columns
    /// in their original order, and reports the dead silos' column names.
    /// A masked partition's columns are *absent* from the returned table —
    /// they are never imputed. With every silo alive this produces the
    /// same table as [`SiloFuse::try_synthesize`] (and an empty mask
    /// list), so callers can use it unconditionally under supervision.
    ///
    /// # Panics
    /// Panics if called before [`SiloFuse::fit`].
    pub fn try_synthesize_degraded(
        &mut self,
        n: usize,
        rng: &mut StdRng,
    ) -> Result<(Table, Vec<String>), ProtocolError> {
        let (model, plan) = self.state.as_mut().expect("SiloFuse::fit must be called first");
        let outputs = model.try_synthesize_supervised(n, 0, None, rng)?;
        let mut keep = Vec::new();
        let mut masked = Vec::new();
        for (out, cols) in outputs.iter().zip(plan.assignments()) {
            match out {
                SiloOutput::Decoded(t) => {
                    for (j, &orig) in cols.iter().enumerate() {
                        keep.push((orig, t.schema().columns()[j].clone(), t.column(j).clone()));
                    }
                }
                SiloOutput::Masked { .. } => masked.extend(out.column_names()),
            }
        }
        keep.sort_by_key(|&(orig, ..)| orig);
        let schema =
            silofuse_tabular::Schema::new(keep.iter().map(|(_, meta, _)| meta.clone()).collect());
        let columns = keep.into_iter().map(|(.., col)| col).collect();
        let table = Table::new(schema, columns).expect("survivor partitions are row-aligned");
        Ok((table, masked))
    }

    /// Communication statistics of the distributed run so far.
    ///
    /// # Panics
    /// Panics if called before [`SiloFuse::fit`].
    pub fn comm_stats(&self) -> CommStats {
        self.state.as_ref().expect("SiloFuse::fit must be called first").0.comm_stats()
    }

    /// The partition plan in use (after fitting).
    pub fn partition_plan(&self) -> Option<&PartitionPlan> {
        self.state.as_ref().map(|(_, plan)| plan)
    }
}

/// Adapts a distributed-protocol failure to the [`Synthesizer::try_fit`]
/// error type: checkpoint failures keep their precise variant (CRC
/// mismatch, truncation, ...), everything else is wrapped with its full
/// protocol message.
pub(crate) fn protocol_to_checkpoint(err: ProtocolError) -> CheckpointError {
    match err {
        ProtocolError::Checkpoint { source, .. } => source,
        other => CheckpointError::state(other),
    }
}

impl Synthesizer for SiloFuse {
    fn name(&self) -> &'static str {
        "SiloFuse"
    }

    fn try_fit(&mut self, table: &Table, rng: &mut StdRng) -> Result<(), CheckpointError> {
        SiloFuse::try_fit(self, table, rng).map_err(protocol_to_checkpoint)
    }

    fn set_checkpointer(&mut self, ckpt: Checkpointer) {
        SiloFuse::set_checkpointer(self, ckpt);
    }

    fn synthesize(&mut self, n: usize, rng: &mut StdRng) -> Table {
        SiloFuse::synthesize(self, n, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use silofuse_tabular::profiles;

    #[test]
    fn facade_round_trips_column_order() {
        let t = profiles::loan().generate(192, 0);
        let mut cfg = SiloFuseConfig::quick(0);
        cfg.model.ae_steps = 40;
        cfg.model.diffusion_steps = 40;
        cfg.strategy = PartitionStrategy::Permuted { seed: 12343 };
        let mut model = SiloFuse::new(cfg);
        let mut rng = StdRng::seed_from_u64(0);
        model.fit(&t, &mut rng);
        let s = model.synthesize(32, &mut rng);
        // Reassembly must restore the ORIGINAL schema order even under a
        // permuted partition.
        assert_eq!(s.schema(), t.schema());
        assert_eq!(s.n_rows(), 32);
        assert_eq!(model.comm_stats().rounds, 2); // train + synthesis
    }

    #[test]
    fn faulty_links_leave_output_and_payload_bytes_unchanged() {
        let t = profiles::loan().generate(96, 2);
        let mut cfg = SiloFuseConfig::quick(2);
        cfg.n_clients = 2;
        cfg.model.ae_steps = 15;
        cfg.model.diffusion_steps = 15;

        let fit_once = |net: NetConfig| {
            let mut model = SiloFuse::with_net(cfg, net);
            let mut rng = StdRng::seed_from_u64(2);
            model.try_fit(&t, &mut rng).expect("fit survives the fault plan");
            let s = model.try_synthesize(16, &mut rng).expect("synthesis survives");
            (s, model.comm_stats())
        };

        let (clean, clean_stats) = fit_once(NetConfig::default());
        // Scripted drop of the first transmission on every link guarantees
        // at least one retransmission regardless of the RNG draw.
        let plan = silofuse_distributed::FaultPlan::parse("drop_nth=0,dup=0.2,seed=5").unwrap();
        let (faulty, faulty_stats) = fit_once(NetConfig::faulty(plan));

        // Loss/duplication on the links must not change WHAT is computed,
        // only how often frames travel.
        assert_eq!(clean, faulty);
        assert_eq!(clean_stats.messages_up, faulty_stats.messages_up);
        assert_eq!(clean_stats.bytes_retried, 0);
        assert!(faulty_stats.retransmits > 0, "a scripted drop must trigger a retry");
    }

    #[test]
    fn partitioned_output_matches_plan() {
        let t = profiles::diabetes().generate(128, 1);
        let mut cfg = SiloFuseConfig::quick(1);
        cfg.n_clients = 3;
        cfg.model.ae_steps = 30;
        cfg.model.diffusion_steps = 30;
        let mut model = SiloFuse::new(cfg);
        let mut rng = StdRng::seed_from_u64(1);
        model.fit(&t, &mut rng);
        let parts = model.synthesize_partitioned(16, &mut rng);
        let plan = model.partition_plan().unwrap();
        assert_eq!(parts.len(), 3);
        for (part, cols) in parts.iter().zip(plan.assignments()) {
            assert_eq!(part.n_cols(), cols.len());
        }
    }
}
