//! E2E: the end-to-end centralized baseline (Fig. 8).
//!
//! The autoencoder and the DDPM train *jointly*: every step the encoder
//! produces latents, the DDPM noises/denoises them (contributing `L_G` and a
//! gradient back into the latents), the decoder reconstructs (contributing
//! `L_AE`), and the summed latent gradient flows into the encoder. This is
//! the scheme the paper shows underperforms stacked training — early in
//! training the DDPM adds noise to latents that are themselves still noise.

use crate::autoencoder::TabularAutoencoder;
use crate::latentdiff::LatentDiffConfig;
use rand::rngs::StdRng;
use rand::Rng;
use silofuse_diffusion::gaussian::{GaussianDdpm, Parameterization};
use silofuse_tabular::table::Table;

struct Fitted {
    ae: TabularAutoencoder,
    ddpm: GaussianDdpm,
    inference_steps: usize,
    eta: f32,
}

/// Per-step losses of the joint objective `L = L_G + L_AE`.
#[derive(Debug, Clone, Copy)]
pub struct E2eLosses {
    /// Diffusion loss `L_G` (Eq. 5).
    pub diffusion: f32,
    /// Reconstruction loss `L_AE` (Eq. 4).
    pub reconstruction: f32,
}

/// The end-to-end centralized synthesizer.
pub struct E2eCentralized {
    config: LatentDiffConfig,
    fitted: Option<Fitted>,
}

impl std::fmt::Debug for E2eCentralized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E2eCentralized(fitted={})", self.fitted.is_some())
    }
}

impl E2eCentralized {
    /// Creates an unfitted model. Reuses [`LatentDiffConfig`]; the
    /// autoencoder and DDPM train jointly for
    /// `ae_steps + diffusion_steps` combined steps so the total gradient
    /// budget matches the stacked models.
    pub fn new(config: LatentDiffConfig) -> Self {
        Self { config, fitted: None }
    }

    /// Joint training on `table`.
    pub fn fit(&mut self, table: &Table, rng: &mut StdRng) {
        // Training math must never route through a reduced-precision
        // backend: pin dispatch to f32 for the duration of this fit.
        let _f32 = silofuse_nn::backend::force_f32();
        let cfg = self.config;
        let mut ae = TabularAutoencoder::new(table, cfg.ae);
        let latent_dim = ae.latent_dim();

        let mut ddpm = cfg.latent_ddpm(latent_dim, 0xe2e, Parameterization::PredictX0);

        let n = table.n_rows();
        let total_steps = cfg.ae_steps + cfg.diffusion_steps;
        for _ in 0..total_steps {
            let idx: Vec<usize> = (0..cfg.batch_size.min(n)).map(|_| rng.gen_range(0..n)).collect();
            let batch = table.select_rows(&idx);
            let _ = Self::joint_step(&mut ae, &mut ddpm, &batch, rng);
        }

        self.fitted = Some(Fitted { ae, ddpm, inference_steps: cfg.inference_steps, eta: cfg.eta });
    }

    /// One joint optimisation step; exposed for tests and the distributed
    /// E2E variant.
    pub(crate) fn joint_step(
        ae: &mut TabularAutoencoder,
        ddpm: &mut GaussianDdpm,
        batch: &Table,
        rng: &mut StdRng,
    ) -> E2eLosses {
        ae.zero_grad();
        let z = ae.encoder_forward_train(batch);
        // DDPM branch: trains the backbone and returns dL_G/dz.
        let step = ddpm.train_step_with_input_grad(&z, rng);
        // Decoder branch: reconstruction loss and dL_AE/dz.
        let (recon_loss, grad_z_dec) = ae.decoder_loss_backward(&z, batch);
        // Joint latent gradient into the encoder.
        let grad_z = step.input_grad.add(&grad_z_dec);
        ae.encoder_backward(&grad_z);
        ae.opt_step();
        E2eLosses { diffusion: step.loss, reconstruction: recon_loss }
    }

    /// Generates `n` synthetic rows, streaming the batched sampler in
    /// chunks of [`LatentDiffConfig::synth_chunk_rows`] so memory stays
    /// bounded by the chunk size.
    ///
    /// # Panics
    /// Panics if called before [`E2eCentralized::fit`], or if
    /// [`LatentDiffConfig::synth_chunk_rows`] is zero (the typed
    /// [`silofuse_diffusion::gaussian::SampleRequestError`] surfaces
    /// through this panicking convenience API).
    pub fn synthesize(&mut self, n: usize, rng: &mut StdRng) -> Table {
        let chunk_rows = self.config.synth_chunk_rows;
        let fitted = self.fitted.as_mut().expect("E2eCentralized::fit must be called first");
        let mut sampler = fitted
            .ddpm
            .chunked_sampler(n, fitted.inference_steps, fitted.eta, chunk_rows, rng)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut parts: Vec<Table> = Vec::with_capacity(sampler.total_chunks());
        while let Some((_, z)) = sampler.next_chunk() {
            parts.push(fitted.ae.decode(&z));
            silofuse_nn::workspace::recycle(z);
        }
        if parts.is_empty() {
            let latent_dim = fitted.ae.latent_dim();
            return fitted.ae.decode(&silofuse_nn::Tensor::zeros(0, latent_dim));
        }
        let refs: Vec<&Table> = parts.iter().collect();
        Table::concat_rows(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AutoencoderConfig;
    use rand::SeedableRng;
    use silofuse_diffusion::backbone::{BackboneConfig, DiffusionBackbone};
    use silofuse_diffusion::gaussian::GaussianDiffusion;
    use silofuse_diffusion::schedule::NoiseSchedule;
    use silofuse_tabular::profiles;

    fn quick_config(seed: u64) -> LatentDiffConfig {
        LatentDiffConfig {
            ae: AutoencoderConfig { hidden_dim: 96, lr: 1e-3, seed, ..Default::default() },
            ddpm_hidden: 96,
            timesteps: 50,
            ae_steps: 150,
            diffusion_steps: 150,
            batch_size: 128,
            inference_steps: 10,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn joint_training_and_synthesis() {
        let t = profiles::loan().generate(256, 0);
        let mut model = E2eCentralized::new(quick_config(0));
        let mut rng = StdRng::seed_from_u64(0);
        model.fit(&t, &mut rng);
        let s = model.synthesize(32, &mut rng);
        assert_eq!(s.n_rows(), 32);
        assert_eq!(s.schema(), t.schema());
    }

    #[test]
    fn joint_step_reduces_reconstruction_loss() {
        let t = profiles::diabetes().generate(256, 1);
        let cfg = quick_config(1);
        let mut ae = TabularAutoencoder::new(&t, cfg.ae);
        let mut init_rng = StdRng::seed_from_u64(9);
        let backbone = DiffusionBackbone::new(
            BackboneConfig {
                data_dim: ae.latent_dim(),
                hidden_dim: 64,
                depth: 3,
                time_embed_dim: 8,
                dropout: 0.0,
                out_dim: ae.latent_dim(),
            },
            9,
            &mut init_rng,
        );
        let schedule = NoiseSchedule::new(silofuse_diffusion::ScheduleKind::Linear, 30);
        let mut ddpm = GaussianDdpm::new(
            GaussianDiffusion::new(schedule, Parameterization::PredictX0),
            backbone,
            1e-3,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let first = E2eCentralized::joint_step(&mut ae, &mut ddpm, &t, &mut rng);
        for _ in 0..200 {
            let _ = E2eCentralized::joint_step(&mut ae, &mut ddpm, &t, &mut rng);
        }
        let last = E2eCentralized::joint_step(&mut ae, &mut ddpm, &t, &mut rng);
        assert!(
            last.reconstruction < first.reconstruction,
            "recon loss did not fall: {} -> {}",
            first.reconstruction,
            last.reconstruction
        );
    }
}
