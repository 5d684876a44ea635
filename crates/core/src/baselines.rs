//! Factory for every synthesizer in the paper's evaluation, behind the
//! common [`Synthesizer`] trait.

use crate::budget::TrainBudget;
use crate::silofuse::{SiloFuse, SiloFuseConfig};
use rand::rngs::StdRng;
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_distributed::e2e_distr::E2eDistributed;
use silofuse_distributed::NetConfig;
use silofuse_models::synthesizer::{GanSynthesizer, TabDdpmSynthesizer};
use silofuse_models::{
    E2eCentralized, GanArchitecture, GanConfig, LatentDiff, Synthesizer, TabDdpmConfig,
};
use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_tabular::table::Table;

/// The seven models of Tables III/IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// GAN with convolutional backbone (CTAB-GAN-flavoured).
    GanConv,
    /// GAN with linear backbone (CTGAN-flavoured).
    GanLinear,
    /// End-to-end centralized latent diffusion (Fig. 8).
    E2e,
    /// End-to-end distributed latent diffusion (Fig. 9).
    E2eDistr,
    /// TabDDPM (centralized, one-hot space).
    TabDdpm,
    /// Centralized latent diffusion with stacked training.
    LatentDiff,
    /// SiloFuse (distributed, stacked).
    SiloFuse,
}

impl ModelKind {
    /// All models, in the row order of Table III.
    pub fn all() -> [ModelKind; 7] {
        [
            ModelKind::GanConv,
            ModelKind::GanLinear,
            ModelKind::E2e,
            ModelKind::E2eDistr,
            ModelKind::TabDdpm,
            ModelKind::LatentDiff,
            ModelKind::SiloFuse,
        ]
    }

    /// Paper display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::GanConv => "GAN(conv)",
            ModelKind::GanLinear => "GAN(linear)",
            ModelKind::E2e => "E2E",
            ModelKind::E2eDistr => "E2EDistr",
            ModelKind::TabDdpm => "TabDDPM",
            ModelKind::LatentDiff => "LatentDiff",
            ModelKind::SiloFuse => "SiloFuse",
        }
    }

    /// True for the vertically-partitioned (distributed) models.
    pub fn is_distributed(&self) -> bool {
        matches!(self, ModelKind::E2eDistr | ModelKind::SiloFuse)
    }

    /// True for the models whose `try_fit` writes and resumes checkpoints
    /// through [`Synthesizer::set_checkpointer`]. E2E's joint training loop
    /// has no checkpoint support, so it ignores a checkpointer; the CLI
    /// rejects checkpoint flags for it.
    pub fn checkpoints(&self) -> bool {
        !matches!(self, ModelKind::E2e)
    }
}

/// Builds a fresh synthesizer of the given kind.
///
/// Distributed kinds use `n_clients`/`strategy` (paper default: 4 clients,
/// unshuffled) over a perfect in-process network; centralized kinds ignore
/// them. To inject link faults, use [`build_synthesizer_with_net`].
pub fn build_synthesizer(
    kind: ModelKind,
    budget: &TrainBudget,
    n_clients: usize,
    strategy: PartitionStrategy,
    seed: u64,
) -> Box<dyn Synthesizer> {
    build_synthesizer_with_net(kind, budget, n_clients, strategy, seed, NetConfig::default())
}

/// [`build_synthesizer`] with an explicit network configuration for the
/// distributed kinds (fault injection + retry policy). Centralized kinds
/// ignore `net`. Under a faulty `net`, a silo dead past the retry budget
/// makes `fit`/`synthesize` panic with the underlying
/// [`ProtocolError`](silofuse_distributed::ProtocolError); the facade's
/// `try_*` methods expose it as a typed error instead.
pub fn build_synthesizer_with_net(
    kind: ModelKind,
    budget: &TrainBudget,
    n_clients: usize,
    strategy: PartitionStrategy,
    seed: u64,
    net: NetConfig,
) -> Box<dyn Synthesizer> {
    let latent = budget.latent_config(seed);
    match kind {
        ModelKind::GanLinear => Box::new(GanSynthesizer::linear(
            GanConfig {
                architecture: GanArchitecture::Linear,
                hidden_dim: budget.hidden_dim,
                seed,
                encoding: budget.encoding,
                ..Default::default()
            },
            budget.gan_steps,
            budget.batch_size,
        )),
        ModelKind::GanConv => Box::new(GanSynthesizer::conv(
            GanConfig { architecture: GanArchitecture::Conv, seed, ..Default::default() },
            budget.gan_steps,
            budget.batch_size,
        )),
        ModelKind::TabDdpm => Box::new(TabDdpmSynthesizer::new(
            TabDdpmConfig { timesteps: budget.timesteps, lr: 1e-3, seed, ..Default::default() },
            budget.tabddpm_steps,
            budget.batch_size,
            budget.inference_steps,
        )),
        ModelKind::LatentDiff => Box::new(LatentDiff::new(latent)),
        ModelKind::E2e => Box::new(E2eCentralized::new(latent)),
        ModelKind::E2eDistr => Box::new(E2eDistrSynthesizer {
            config: latent,
            n_clients,
            strategy,
            net,
            ckpt: Checkpointer::disabled(),
            state: None,
        }),
        ModelKind::SiloFuse => {
            Box::new(SiloFuse::with_net(SiloFuseConfig { n_clients, strategy, model: latent }, net))
        }
    }
}

/// E2EDistr behind the [`Synthesizer`] interface (partition + reassemble,
/// mirroring the SiloFuse facade).
pub struct E2eDistrSynthesizer {
    config: silofuse_models::LatentDiffConfig,
    n_clients: usize,
    strategy: PartitionStrategy,
    net: NetConfig,
    ckpt: Checkpointer,
    state: Option<(E2eDistributed, PartitionPlan)>,
}

impl Synthesizer for E2eDistrSynthesizer {
    fn name(&self) -> &'static str {
        "E2EDistr"
    }

    fn try_fit(&mut self, table: &Table, rng: &mut StdRng) -> Result<(), CheckpointError> {
        let plan = PartitionPlan::new(table.n_cols(), self.n_clients, self.strategy);
        let partitions = plan.split(table);
        let model = E2eDistributed::try_fit_with_checkpoints(
            &partitions,
            self.config,
            &self.net,
            Some(&self.ckpt),
            rng,
        )
        .map_err(crate::silofuse::protocol_to_checkpoint)?;
        self.state = Some((model, plan));
        Ok(())
    }

    fn set_checkpointer(&mut self, ckpt: Checkpointer) {
        self.ckpt = ckpt;
    }

    fn synthesize(&mut self, n: usize, rng: &mut StdRng) -> Table {
        let (model, plan) =
            self.state.as_mut().expect("E2eDistrSynthesizer::fit must be called first");
        let parts = model.synthesize_partitioned(n, rng);
        plan.reassemble(&parts.iter().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use silofuse_tabular::profiles;

    /// Every model fits and samples through the factory, and writes
    /// checkpoints exactly when [`ModelKind::checkpoints`] says it does.
    #[test]
    fn factory_builds_all_seven_models() {
        let t = profiles::loan().generate(96, 0);
        let budget = TrainBudget::quick().scaled_down(8);
        let mut rng = StdRng::seed_from_u64(0);
        let root = std::env::temp_dir().join(format!("silofuse-factory-{}", std::process::id()));
        for kind in ModelKind::all() {
            let mut model = build_synthesizer(kind, &budget, 2, PartitionStrategy::Default, 0);
            assert_eq!(model.name(), kind.name());
            let dir = root.join(kind.name());
            model.set_checkpointer(Checkpointer::new(&dir, 1_000));
            model.fit(&t, &mut rng);
            assert_eq!(dir.exists(), kind.checkpoints(), "{} checkpoint dir", kind.name());
            let s = model.synthesize(8, &mut rng);
            assert_eq!(s.n_rows(), 8, "{}", kind.name());
            assert_eq!(s.schema(), t.schema(), "{}", kind.name());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn kind_metadata_is_consistent() {
        assert!(ModelKind::SiloFuse.is_distributed());
        assert!(ModelKind::E2eDistr.is_distributed());
        assert!(!ModelKind::TabDdpm.is_distributed());
        assert_eq!(ModelKind::all().len(), 7);
    }
}
