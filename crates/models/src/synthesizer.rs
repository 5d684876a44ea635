//! The uniform [`Synthesizer`] interface over every model in the benchmark,
//! so the experiment harness can swap models freely (Tables III, IV, VI).

use crate::e2e::E2eCentralized;
use crate::gan::{GanConfig, TabularGan};
use crate::latentdiff::LatentDiff;
use crate::tabddpm::{TabDdpm, TabDdpmConfig};
use rand::rngs::StdRng;
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_tabular::table::Table;

/// A tabular data synthesizer: fit on real data, then sample synthetic rows.
pub trait Synthesizer {
    /// Model name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Trains the model on `table`, surfacing checkpoint errors.
    ///
    /// # Errors
    /// Checkpoint-aware models propagate I/O failures, corrupt saved state
    /// and injected crashes as [`CheckpointError`]; the distributed models
    /// also report protocol failures through it.
    fn try_fit(&mut self, table: &Table, rng: &mut StdRng) -> Result<(), CheckpointError>;

    /// Trains the model on `table`.
    ///
    /// # Panics
    /// Panics if [`Synthesizer::try_fit`] fails.
    fn fit(&mut self, table: &Table, rng: &mut StdRng) {
        if let Err(e) = self.try_fit(table, rng) {
            panic!("{} training failed: {e}", self.name());
        }
    }

    /// Generates `n` synthetic rows with the same schema as the training
    /// table.
    ///
    /// # Panics
    /// Implementations panic if called before `fit`.
    fn synthesize(&mut self, n: usize, rng: &mut StdRng) -> Table;

    /// Installs a checkpointer so `try_fit` periodically persists training
    /// state and can resume after a crash. Models without checkpoint
    /// support ignore it (the default).
    fn set_checkpointer(&mut self, _ckpt: Checkpointer) {}
}

/// GAN baseline behind the [`Synthesizer`] interface.
pub struct GanSynthesizer {
    /// GAN architecture/optimizer configuration.
    pub config: GanConfig,
    /// Adversarial training steps.
    pub steps: usize,
    /// Minibatch size.
    pub batch_size: usize,
    name: &'static str,
    model: Option<TabularGan>,
    ckpt: Checkpointer,
}

impl GanSynthesizer {
    /// Creates the linear-backbone GAN (CTGAN-flavoured).
    pub fn linear(config: GanConfig, steps: usize, batch_size: usize) -> Self {
        Self {
            config,
            steps,
            batch_size,
            name: "GAN(linear)",
            model: None,
            ckpt: Checkpointer::disabled(),
        }
    }

    /// Creates the convolutional-backbone GAN (CTAB-GAN-flavoured).
    pub fn conv(config: GanConfig, steps: usize, batch_size: usize) -> Self {
        Self {
            config,
            steps,
            batch_size,
            name: "GAN(conv)",
            model: None,
            ckpt: Checkpointer::disabled(),
        }
    }
}

impl Synthesizer for GanSynthesizer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn synthesize(&mut self, n: usize, rng: &mut StdRng) -> Table {
        self.model.as_mut().expect("GanSynthesizer::fit must be called first").sample(n, rng)
    }

    fn set_checkpointer(&mut self, ckpt: Checkpointer) {
        self.ckpt = ckpt;
    }

    fn try_fit(&mut self, table: &Table, rng: &mut StdRng) -> Result<(), CheckpointError> {
        let mut model = TabularGan::new(table, self.config);
        model.fit_resumable(
            table,
            self.steps,
            self.batch_size,
            rng,
            &self.ckpt,
            "gan",
            "gan-train",
        )?;
        self.model = Some(model);
        Ok(())
    }
}

/// TabDDPM baseline behind the [`Synthesizer`] interface.
pub struct TabDdpmSynthesizer {
    /// Model configuration.
    pub config: TabDdpmConfig,
    /// Training steps.
    pub steps: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Reverse-process steps at synthesis.
    pub inference_steps: usize,
    model: Option<TabDdpm>,
    ckpt: Checkpointer,
}

impl TabDdpmSynthesizer {
    /// Creates an unfitted TabDDPM synthesizer.
    pub fn new(
        config: TabDdpmConfig,
        steps: usize,
        batch_size: usize,
        inference_steps: usize,
    ) -> Self {
        Self {
            config,
            steps,
            batch_size,
            inference_steps,
            model: None,
            ckpt: Checkpointer::disabled(),
        }
    }
}

impl Synthesizer for TabDdpmSynthesizer {
    fn name(&self) -> &'static str {
        "TabDDPM"
    }

    fn synthesize(&mut self, n: usize, rng: &mut StdRng) -> Table {
        self.model.as_mut().expect("TabDdpmSynthesizer::fit must be called first").sample(
            n,
            self.inference_steps,
            rng,
        )
    }

    fn set_checkpointer(&mut self, ckpt: Checkpointer) {
        self.ckpt = ckpt;
    }

    fn try_fit(&mut self, table: &Table, rng: &mut StdRng) -> Result<(), CheckpointError> {
        let mut model = TabDdpm::new(table, self.config);
        model.fit_resumable(
            table,
            self.steps,
            self.batch_size,
            rng,
            &self.ckpt,
            "tabddpm",
            "tabddpm-train",
        )?;
        self.model = Some(model);
        Ok(())
    }
}

impl Synthesizer for LatentDiff {
    fn name(&self) -> &'static str {
        "LatentDiff"
    }

    fn synthesize(&mut self, n: usize, rng: &mut StdRng) -> Table {
        LatentDiff::synthesize(self, n, rng)
    }

    fn set_checkpointer(&mut self, ckpt: Checkpointer) {
        LatentDiff::set_checkpointer(self, ckpt);
    }

    fn try_fit(&mut self, table: &Table, rng: &mut StdRng) -> Result<(), CheckpointError> {
        LatentDiff::try_fit(self, table, rng)
    }
}

impl Synthesizer for E2eCentralized {
    fn name(&self) -> &'static str {
        "E2E"
    }

    fn try_fit(&mut self, table: &Table, rng: &mut StdRng) -> Result<(), CheckpointError> {
        E2eCentralized::fit(self, table, rng);
        Ok(())
    }

    fn synthesize(&mut self, n: usize, rng: &mut StdRng) -> Table {
        E2eCentralized::synthesize(self, n, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latentdiff::LatentDiffConfig;
    use rand::SeedableRng;
    use silofuse_tabular::profiles;

    #[test]
    fn every_wrapper_round_trips_through_the_trait() {
        let t = profiles::loan().generate(128, 0);
        let quick_ld = LatentDiffConfig {
            ae_steps: 30,
            diffusion_steps: 30,
            timesteps: 20,
            inference_steps: 5,
            batch_size: 64,
            ..Default::default()
        };
        let mut models: Vec<Box<dyn Synthesizer>> = vec![
            Box::new(GanSynthesizer::linear(GanConfig::default(), 20, 64)),
            Box::new(GanSynthesizer::conv(
                GanConfig { architecture: crate::gan::GanArchitecture::Conv, ..Default::default() },
                10,
                64,
            )),
            Box::new(TabDdpmSynthesizer::new(
                TabDdpmConfig { timesteps: 20, ..Default::default() },
                20,
                64,
                5,
            )),
            Box::new(LatentDiff::new(quick_ld)),
            Box::new(E2eCentralized::new(quick_ld)),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        for model in &mut models {
            model.fit(&t, &mut rng);
            let s = model.synthesize(16, &mut rng);
            assert_eq!(s.n_rows(), 16, "{}", model.name());
            assert_eq!(s.schema(), t.schema(), "{}", model.name());
        }
        let names: Vec<_> = models.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["GAN(linear)", "GAN(conv)", "TabDDPM", "LatentDiff", "E2E"]);
    }
}
