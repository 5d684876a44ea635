//! Training budgets: scaled-down analogues of the paper's §V-A
//! configuration (500 000 iterations, batch 512, hidden 1024 on a 3090),
//! sized for CPU-scale reproduction. DESIGN.md documents the substitution.

use silofuse_models::{AutoencoderConfig, LatentDiffConfig};

/// A uniform training budget applied to every model so comparisons stay
/// fair (the paper trains all models for the same iteration count).
#[derive(Debug, Clone, Copy)]
pub struct TrainBudget {
    /// Autoencoder steps (stacked models) / half the joint steps (E2E).
    pub ae_steps: usize,
    /// Diffusion steps (stacked models) / half the joint steps (E2E).
    pub diffusion_steps: usize,
    /// Adversarial steps for the GAN baselines.
    pub gan_steps: usize,
    /// Steps for TabDDPM.
    pub tabddpm_steps: usize,
    /// Minibatch size (paper: 512).
    pub batch_size: usize,
    /// Hidden width for autoencoders and diffusion backbones.
    pub hidden_dim: usize,
    /// Diffusion timesteps `T` (paper: 200).
    pub timesteps: usize,
    /// Reverse steps at synthesis (paper: 25).
    pub inference_steps: usize,
}

impl TrainBudget {
    /// Fast budget for tests and smoke runs (seconds per model).
    pub fn quick() -> Self {
        Self {
            ae_steps: 150,
            diffusion_steps: 200,
            gan_steps: 200,
            tabddpm_steps: 200,
            batch_size: 128,
            hidden_dim: 96,
            timesteps: 60,
            inference_steps: 10,
        }
    }

    /// Standard budget for the experiment binaries (tens of seconds per
    /// model per dataset on one CPU core).
    pub fn standard() -> Self {
        Self {
            ae_steps: 400,
            diffusion_steps: 500,
            gan_steps: 500,
            tabddpm_steps: 400,
            batch_size: 192,
            hidden_dim: 128,
            timesteps: 200,
            inference_steps: 25,
        }
    }

    /// Lowers every step count by an integer factor (at least 1 step).
    pub fn scaled_down(&self, factor: usize) -> Self {
        let f = factor.max(1);
        Self {
            ae_steps: (self.ae_steps / f).max(1),
            diffusion_steps: (self.diffusion_steps / f).max(1),
            gan_steps: (self.gan_steps / f).max(1),
            tabddpm_steps: (self.tabddpm_steps / f).max(1),
            ..*self
        }
    }

    /// Converts the budget into the latent-model configuration shared by
    /// LatentDiff, E2E, E2EDistr and SiloFuse.
    pub fn latent_config(&self, seed: u64) -> LatentDiffConfig {
        LatentDiffConfig {
            ae: AutoencoderConfig {
                hidden_dim: self.hidden_dim,
                latent_dim: None, // paper rule: latent dim = #original features
                lr: 1e-3,
                seed,
            },
            ddpm_hidden: self.hidden_dim,
            timesteps: self.timesteps,
            schedule: silofuse_diffusion::ScheduleKind::Linear,
            ddpm_lr: 1e-3,
            ae_steps: self.ae_steps,
            diffusion_steps: self.diffusion_steps,
            batch_size: self.batch_size,
            inference_steps: self.inference_steps,
            eta: 1.0,
            latent_noise_std: 0.0,
            predict_noise: false,
            scale_latents: true,
            synth_chunk_rows: 8192,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_cheaper_than_standard() {
        let q = TrainBudget::quick();
        let s = TrainBudget::standard();
        assert!(q.ae_steps < s.ae_steps);
        assert!(q.gan_steps < s.gan_steps);
    }

    #[test]
    fn scaled_down_never_hits_zero() {
        let b = TrainBudget::quick().scaled_down(10_000);
        assert!(b.ae_steps >= 1 && b.diffusion_steps >= 1);
    }

    #[test]
    fn latent_config_inherits_budget() {
        let b = TrainBudget::quick();
        let c = b.latent_config(7);
        assert_eq!(c.ae_steps, b.ae_steps);
        assert_eq!(c.timesteps, b.timesteps);
        assert_eq!(c.seed, 7);
    }
}
