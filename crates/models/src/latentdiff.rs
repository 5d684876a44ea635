//! LatentDiff: the centralized latent tabular diffusion model (§III-A) —
//! SiloFuse's single-silo counterpart and upper bound.
//!
//! Stacked training: (1) fit the autoencoder to convergence, (2) encode the
//! dataset into latents, (3) train a Gaussian DDPM on the latents with the
//! x0-prediction objective of Eq. (5). Synthesis denoises Gaussian noise and
//! decodes with the autoencoder's decoder.

use crate::autoencoder::{AutoencoderConfig, TabularAutoencoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_diffusion::backbone::{BackboneConfig, DiffusionBackbone};
use silofuse_diffusion::gaussian::{
    GaussianDdpm, GaussianDiffusion, InvalidChunkRows, Parameterization, SampleRequestError,
};
use silofuse_diffusion::schedule::{NoiseSchedule, ScheduleKind};
use silofuse_nn::serialize::{Reader, StateDictError};
use silofuse_nn::Tensor;
use silofuse_observe as observe;
use silofuse_tabular::table::Table;

/// LatentDiff hyperparameters (shared by the E2E baselines).
#[derive(Debug, Clone, Copy)]
pub struct LatentDiffConfig {
    /// Autoencoder architecture.
    pub ae: AutoencoderConfig,
    /// DDPM backbone hidden width (depth 8 per §V-A).
    pub ddpm_hidden: usize,
    /// Diffusion timesteps (paper: 200).
    pub timesteps: usize,
    /// Beta schedule (the paper uses the linear Ho et al. schedule; cosine
    /// is exposed for few-step regimes).
    pub schedule: ScheduleKind,
    /// DDPM learning rate.
    pub ddpm_lr: f32,
    /// Autoencoder training steps.
    pub ae_steps: usize,
    /// DDPM training steps.
    pub diffusion_steps: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Reverse-process steps at synthesis (paper: 25).
    pub inference_steps: usize,
    /// Sampling stochasticity (0 = DDIM, 1 = ancestral).
    pub eta: f32,
    /// Standard deviation of Gaussian noise added to latents before the
    /// diffusion model sees them (relative to the standardised latent
    /// scale). `0.0` = the paper's protocol; positive values implement the
    /// differential-privacy-style noising the paper's conclusion discusses,
    /// trading quality for privacy. In the distributed model the noise is
    /// added *client-side before upload*.
    pub latent_noise_std: f32,
    /// Train the latent DDPM to predict noise (`true`) instead of the
    /// paper's x0-prediction objective of Eq. (5) (`false`). Ablation knob.
    pub predict_noise: bool,
    /// Standardise latents before diffusion (the latent-diffusion scale
    /// trick; on by default). Ablation knob.
    pub scale_latents: bool,
    /// Rows per streamed synthesis chunk: generation holds peak memory at
    /// `O(synth_chunk_rows × latent_dim)` no matter how many rows are
    /// requested. The output is bit-identical for any value (every row owns
    /// a derived RNG stream); this is purely a memory/throughput knob.
    pub synth_chunk_rows: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for LatentDiffConfig {
    fn default() -> Self {
        Self {
            ae: AutoencoderConfig::default(),
            ddpm_hidden: 256,
            timesteps: 200,
            schedule: ScheduleKind::Linear,
            ddpm_lr: 1e-3,
            ae_steps: 400,
            diffusion_steps: 600,
            batch_size: 256,
            inference_steps: 25,
            eta: 1.0,
            latent_noise_std: 0.0,
            predict_noise: false,
            scale_latents: true,
            synth_chunk_rows: 8192,
            seed: 0,
        }
    }
}

impl LatentDiffConfig {
    /// The paper's latent DDPM (§V-A backbone) over `width` latent
    /// columns. Its initial weights come from `seed ^ salt`: each model
    /// family keeps its own salt, and a restarted node rebuilds the same
    /// network from config before loading checkpointed weights on top.
    pub fn latent_ddpm(
        &self,
        width: usize,
        salt: u64,
        parameterization: Parameterization,
    ) -> GaussianDdpm {
        let mut init_rng = StdRng::seed_from_u64(self.seed ^ salt);
        let backbone = DiffusionBackbone::new(
            BackboneConfig::paper_latent(width, self.ddpm_hidden),
            self.seed,
            &mut init_rng,
        );
        self.ddpm_around(backbone, parameterization)
    }

    /// The latent DDPM's training objective: x0-prediction (Eq. 5) unless
    /// [`LatentDiffConfig::predict_noise`] is set.
    pub fn parameterization(&self) -> Parameterization {
        if self.predict_noise {
            Parameterization::PredictNoise
        } else {
            Parameterization::PredictX0
        }
    }

    fn ddpm_around(
        &self,
        backbone: DiffusionBackbone,
        parameterization: Parameterization,
    ) -> GaussianDdpm {
        let schedule = NoiseSchedule::new(self.schedule, self.timesteps);
        GaussianDdpm::new(
            GaussianDiffusion::new(schedule, parameterization),
            backbone,
            self.ddpm_lr,
        )
    }
}

/// Per-dimension latent standardisation so the DDPM sees unit-scale data
/// (the latent-diffusion "scale factor" trick). Public because the
/// distributed SiloFuse coordinator applies the same trick to the
/// concatenated cross-silo latents.
#[derive(Debug, Clone)]
pub struct LatentScaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl LatentScaler {
    /// An identity scaler (mean 0, std 1 per column).
    pub fn identity(cols: usize) -> Self {
        Self { mean: vec![0.0; cols], std: vec![1.0; cols] }
    }

    /// Rebuilds a scaler from its parts (e.g. from a pipeline checkpoint).
    ///
    /// # Panics
    /// Panics if `mean` and `std` lengths differ.
    pub fn from_parts(mean: Vec<f32>, std: Vec<f32>) -> Self {
        assert_eq!(mean.len(), std.len(), "mean/std length mismatch");
        Self { mean, std }
    }

    /// Per-column means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Per-column standard deviations.
    pub fn std(&self) -> &[f32] {
        &self.std
    }

    /// Fits per-column mean/std on a latent matrix.
    pub fn fit(latents: &Tensor) -> Self {
        let mean = latents.mean_rows();
        let mut std = vec![0.0f32; latents.cols()];
        for r in 0..latents.rows() {
            for (c, &v) in latents.row(r).iter().enumerate() {
                let d = v - mean[c];
                std[c] += d * d;
            }
        }
        for s in &mut std {
            *s = (*s / latents.rows().max(1) as f32).sqrt().max(1e-6);
        }
        Self { mean, std }
    }

    /// Standardises latents column-wise.
    pub fn scale(&self, latents: &Tensor) -> Tensor {
        let mut out = latents.clone();
        for r in 0..out.rows() {
            for (c, v) in out.row_mut(r).iter_mut().enumerate() {
                *v = (*v - self.mean[c]) / self.std[c];
            }
        }
        out
    }

    /// Inverts [`LatentScaler::scale`].
    pub fn unscale(&self, latents: &Tensor) -> Tensor {
        let mut out = latents.clone();
        for r in 0..out.rows() {
            for (c, v) in out.row_mut(r).iter_mut().enumerate() {
                *v = *v * self.std[c] + self.mean[c];
            }
        }
        out
    }
}

struct Fitted {
    ae: TabularAutoencoder,
    ddpm: GaussianDdpm,
    scaler: LatentScaler,
    inference_steps: usize,
    eta: f32,
}

/// The centralized latent diffusion synthesizer.
pub struct LatentDiff {
    config: LatentDiffConfig,
    ckpt: Checkpointer,
    fitted: Option<Fitted>,
}

impl std::fmt::Debug for LatentDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatentDiff(fitted={})", self.fitted.is_some())
    }
}

impl LatentDiff {
    /// Creates an unfitted model.
    pub fn new(config: LatentDiffConfig) -> Self {
        Self { config, ckpt: Checkpointer::disabled(), fitted: None }
    }

    /// Installs a checkpointer: subsequent [`LatentDiff::try_fit`] calls
    /// periodically persist per-phase training state under it, and resume
    /// from it when resume is enabled.
    pub fn set_checkpointer(&mut self, ckpt: Checkpointer) {
        self.ckpt = ckpt;
    }

    /// Stacked two-phase training with crash-safe checkpointing: phase
    /// `ae-train` checkpoints as `latentdiff-ae`, phase `latent-train` as
    /// `latentdiff-ddpm`. On resume, completed phases fast-forward from
    /// their final checkpoint (restoring the RNG stream) and the
    /// interrupted phase continues from its last saved step.
    ///
    /// # Errors
    /// Propagates checkpoint I/O or decode failures, a corrupt/mismatched
    /// saved state, or an injected [`CheckpointError::Crashed`].
    pub fn try_fit(&mut self, table: &Table, rng: &mut StdRng) -> Result<(), CheckpointError> {
        let cfg = self.config;
        let ckpt = self.ckpt.clone();
        // Phase 1: autoencoder.
        let mut ae = TabularAutoencoder::new(table, cfg.ae);
        {
            let _phase = observe::phase("ae-train");
            ae.fit_resumable(
                table,
                cfg.ae_steps,
                cfg.batch_size,
                rng,
                &ckpt,
                "latentdiff-ae",
                "ae-train",
                &mut |_| {},
            )?;
        }

        // Phase 2: DDPM on (standardised) latents.
        let latents = {
            let _phase = observe::phase("encode");
            ae.encode(table)
        };
        let scaler = if cfg.scale_latents {
            LatentScaler::fit(&latents)
        } else {
            LatentScaler::identity(latents.cols())
        };
        let mut z = scaler.scale(&latents);
        if cfg.latent_noise_std > 0.0 {
            let noise = silofuse_nn::init::randn(z.rows(), z.cols(), rng);
            z.add_scaled(&noise, cfg.latent_noise_std);
        }

        let mut ddpm = cfg.latent_ddpm(z.cols(), 0xddb1, cfg.parameterization());

        {
            let _phase = observe::phase("latent-train");
            ddpm.fit_latent(
                &z,
                cfg.diffusion_steps,
                cfg.batch_size,
                cfg.ddpm_lr,
                rng,
                &ckpt,
                "latentdiff-ddpm",
                "latent-train",
            )?;
        }

        self.fitted =
            Some(Fitted { ae, ddpm, scaler, inference_steps: cfg.inference_steps, eta: cfg.eta });
        Ok(())
    }

    /// What sampling reads, as bytes for [`LatentDiff::from_fitted`]: the
    /// autoencoder's fitted table encoder and parameters
    /// ([`TabularAutoencoder::write_fitted`]), the latent scaler
    /// (`u32 columns | f32 mean* | f32 std*`) and the latent DDPM's
    /// parameters as a state dict. No optimizer moments and no RNG states:
    /// about a third of a training checkpoint's bytes. `None` before
    /// [`LatentDiff::try_fit`].
    pub fn export_fitted(&mut self) -> Option<Vec<u8>> {
        let fitted = self.fitted.as_mut()?;
        let mut out = Vec::new();
        fitted.ae.write_fitted(&mut out);
        let (mean, std) = (fitted.scaler.mean(), fitted.scaler.std());
        out.extend_from_slice(&(mean.len() as u32).to_le_bytes());
        for v in mean.iter().chain(std) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&fitted.ddpm.export_weights());
        Some(out)
    }

    /// A fitted model rebuilt from [`LatentDiff::export_fitted`]'s bytes
    /// and the `config` it was fitted with, without the training data: no
    /// data generation, encoding or training, and its networks are built
    /// straight from the saved tensors. It samples the bytes of the model
    /// that wrote them. The returned model has no checkpointer.
    ///
    /// # Errors
    /// [`StateDictError`] when the bytes are malformed or do not fit
    /// `config`'s architecture.
    pub fn from_fitted(config: LatentDiffConfig, bytes: &[u8]) -> Result<Self, StateDictError> {
        let mut r = Reader::new(bytes);
        let ae = TabularAutoencoder::read_fitted(&mut r, config.ae)?;
        let width = r.u32()? as usize;
        if width != ae.latent_dim() {
            return Err(StateDictError::Malformed);
        }
        let scaler = LatentScaler::from_parts(r.f32_vec(width)?, r.f32_vec(width)?);
        let backbone = DiffusionBackbone::from_params(
            BackboneConfig::paper_latent(width, config.ddpm_hidden),
            config.seed,
            r.tensor_list()?,
        )?;
        r.finish()?;
        let ddpm = config.ddpm_around(backbone, config.parameterization());
        let fitted =
            Fitted { ae, ddpm, scaler, inference_steps: config.inference_steps, eta: config.eta };
        Ok(Self { config, ckpt: Checkpointer::disabled(), fitted: Some(fitted) })
    }

    /// The fitted output schema, or `None` before [`LatentDiff::try_fit`].
    /// The serving layer hands this to tenants so streamed row grids can
    /// be reassembled into typed tables.
    pub fn schema(&self) -> Option<&silofuse_tabular::Schema> {
        self.fitted.as_ref().map(|f| f.ae.table_encoder().schema())
    }

    /// Generates `n` synthetic rows.
    ///
    /// # Panics
    /// Panics if called before [`LatentDiff::try_fit`].
    pub fn synthesize(&self, n: usize, rng: &mut StdRng) -> Table {
        self.synthesize_with_steps(n, None, rng)
    }

    /// Generates `n` rows with an explicit inference-step override (used by
    /// the Table VII privacy-sensitivity experiment).
    ///
    /// # Panics
    /// Panics if the step override is zero or exceeds the schedule length;
    /// use [`LatentDiff::try_synthesize_with_steps`] for a typed error.
    pub fn synthesize_with_steps(
        &self,
        n: usize,
        inference_steps: Option<usize>,
        rng: &mut StdRng,
    ) -> Table {
        self.try_synthesize_with_steps(n, inference_steps, rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`LatentDiff::synthesize_with_steps`]: generation streams in
    /// chunks of [`LatentDiffConfig::synth_chunk_rows`] through the batched
    /// reverse-diffusion engine, decoding each chunk as it lands so peak
    /// memory stays bounded by the chunk size.
    ///
    /// # Errors
    /// [`SampleRequestError`] when the step count is zero or exceeds `T`,
    /// or when [`LatentDiffConfig::synth_chunk_rows`] is zero. A zero
    /// chunk size used to be silently clamped to 1; it is now rejected at
    /// the request boundary so a bad request cannot quietly change
    /// chunking behavior.
    ///
    /// # Panics
    /// Panics if called before [`LatentDiff::try_fit`].
    pub fn try_synthesize_with_steps(
        &self,
        n: usize,
        inference_steps: Option<usize>,
        rng: &mut StdRng,
    ) -> Result<Table, SampleRequestError> {
        if self.config.synth_chunk_rows == 0 {
            return Err(InvalidChunkRows.into());
        }
        let chunk_rows = self.config.synth_chunk_rows;
        let fitted = self.fitted.as_ref().expect("LatentDiff::fit must be called first");
        let steps = inference_steps.unwrap_or(fitted.inference_steps);
        let base = rng.gen::<u64>();
        Self::synthesize_range_inner(fitted, 0, n, steps, chunk_rows, base)
    }

    /// Cursor-range synthesis with an explicit base seed: decodes only
    /// rows `start_row .. start_row + rows` of the deterministic row
    /// stream `base` defines. Fetching `[0, k)` now and `[k, n)` later is
    /// byte-identical to one `try_synthesize_with_steps(n)` call that
    /// drew the same base — the serving layer's pagination entry point.
    /// It only reads the fitted model, so any number of threads can
    /// synthesize ranges of one shared model at once.
    ///
    /// # Errors
    /// [`SampleRequestError`] as for [`LatentDiff::try_synthesize_with_steps`].
    ///
    /// # Panics
    /// Panics if called before [`LatentDiff::try_fit`].
    pub fn try_synthesize_range(
        &self,
        start_row: usize,
        rows: usize,
        base: u64,
    ) -> Result<Table, SampleRequestError> {
        if self.config.synth_chunk_rows == 0 {
            return Err(InvalidChunkRows.into());
        }
        let chunk_rows = self.config.synth_chunk_rows;
        let fitted = self.fitted.as_ref().expect("LatentDiff::fit must be called first");
        let steps = fitted.inference_steps;
        Self::synthesize_range_inner(fitted, start_row, rows, steps, chunk_rows, base)
    }

    fn synthesize_range_inner(
        fitted: &Fitted,
        start_row: usize,
        rows: usize,
        steps: usize,
        chunk_rows: usize,
        base: u64,
    ) -> Result<Table, SampleRequestError> {
        let mut sampler = fitted.ddpm.chunked_sampler_range_from_base(
            start_row, rows, steps, fitted.eta, chunk_rows, base,
        )?;
        let mut parts: Vec<Table> = Vec::with_capacity(sampler.total_chunks());
        loop {
            let chunk = {
                let _phase = observe::phase("sample");
                sampler.next_chunk()
            };
            let Some((_, z)) = chunk else { break };
            let latents = fitted.scaler.unscale(&z);
            silofuse_nn::workspace::recycle(z);
            let _phase = observe::phase("decode");
            parts.push(fitted.ae.decode(&latents));
        }
        if parts.is_empty() {
            // rows == 0: decode an empty latent batch so the schema survives.
            let latent_dim = fitted.scaler.mean().len();
            return Ok(fitted.ae.decode(&Tensor::zeros(0, latent_dim)));
        }
        let refs: Vec<&Table> = parts.iter().collect();
        Ok(Table::concat_rows(&refs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Synthesizer;
    use silofuse_tabular::profiles;

    fn quick_config(seed: u64) -> LatentDiffConfig {
        LatentDiffConfig {
            ae: AutoencoderConfig { hidden_dim: 96, lr: 2e-3, seed, ..Default::default() },
            ddpm_hidden: 96,
            timesteps: 50,
            ae_steps: 250,
            diffusion_steps: 300,
            batch_size: 128,
            inference_steps: 10,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn fit_and_synthesize_schema_round_trip() {
        let t = profiles::loan().generate(256, 0);
        let mut model = LatentDiff::new(quick_config(0));
        let mut rng = StdRng::seed_from_u64(0);
        model.fit(&t, &mut rng);
        let s = model.synthesize(64, &mut rng);
        assert_eq!(s.n_rows(), 64);
        assert_eq!(s.schema(), t.schema());
    }

    #[test]
    fn synthetic_numerics_have_plausible_scale() {
        let t = profiles::diabetes().generate(384, 1);
        let mut model = LatentDiff::new(quick_config(1));
        let mut rng = StdRng::seed_from_u64(1);
        model.fit(&t, &mut rng);
        let s = model.synthesize(256, &mut rng);
        for &col in &t.schema().numeric_indices() {
            let orig = t.column(col).as_numeric().unwrap();
            let synth = s.column(col).as_numeric().unwrap();
            let om = orig.iter().sum::<f64>() / orig.len() as f64;
            let sm = synth.iter().sum::<f64>() / synth.len() as f64;
            let ostd =
                (orig.iter().map(|v| (v - om) * (v - om)).sum::<f64>() / orig.len() as f64).sqrt();
            assert!(
                (om - sm).abs() < 3.0 * ostd.max(1e-6),
                "col {col}: mean {om} vs synthetic {sm} (std {ostd})"
            );
        }
    }

    #[test]
    fn latent_scaler_round_trips() {
        let mut rng = StdRng::seed_from_u64(2);
        let z = silofuse_nn::init::randn(64, 5, &mut rng).map(|v| v * 7.0 + 3.0);
        let scaler = LatentScaler::fit(&z);
        let scaled = scaler.scale(&z);
        // Standardised: per-column mean ~0.
        for m in scaled.mean_rows() {
            assert!(m.abs() < 0.2, "mean {m}");
        }
        let back = scaler.unscale(&scaled);
        for (a, b) in back.as_slice().iter().zip(z.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn cosine_schedule_variant_also_synthesizes() {
        let t = profiles::diabetes().generate(128, 6);
        let mut cfg = quick_config(6);
        cfg.ae_steps = 30;
        cfg.diffusion_steps = 30;
        cfg.schedule = silofuse_diffusion::ScheduleKind::Cosine;
        let mut model = LatentDiff::new(cfg);
        let mut rng = StdRng::seed_from_u64(6);
        model.fit(&t, &mut rng);
        let s = model.synthesize(16, &mut rng);
        assert_eq!(s.schema(), t.schema());
    }

    #[test]
    fn noise_prediction_variant_also_synthesizes() {
        let t = profiles::diabetes().generate(192, 4);
        let mut cfg = quick_config(4);
        cfg.predict_noise = true;
        let mut model = LatentDiff::new(cfg);
        let mut rng = StdRng::seed_from_u64(4);
        model.fit(&t, &mut rng);
        let s = model.synthesize(32, &mut rng);
        assert_eq!(s.schema(), t.schema());
    }

    #[test]
    fn latent_noise_knob_changes_what_the_model_learns() {
        // The DP-style knob must actually perturb training: models fitted
        // with and without noise produce different synthetic data from the
        // same RNG stream. (The quality/privacy *trend* is exercised by the
        // `ablation` experiment binary, where budgets are large enough for
        // the direction to be stable.)
        let t = profiles::diabetes().generate(192, 5);
        let sample = |noise: f32| {
            let mut cfg = quick_config(5);
            cfg.ae_steps = 60;
            cfg.diffusion_steps = 60;
            cfg.latent_noise_std = noise;
            let mut model = LatentDiff::new(cfg);
            let mut rng = StdRng::seed_from_u64(5);
            model.fit(&t, &mut rng);
            let mut srng = StdRng::seed_from_u64(99);
            model.synthesize(64, &mut srng)
        };
        let clean = sample(0.0);
        let noisy = sample(1.5);
        assert_ne!(clean, noisy);
        assert_eq!(clean.schema(), noisy.schema());
    }

    #[test]
    fn crash_in_either_phase_resumes_bit_identically() {
        use silofuse_checkpoint::CrashPoint;
        let t = profiles::loan().generate(192, 8);
        let mut cfg = quick_config(8);
        cfg.ae_steps = 30;
        cfg.diffusion_steps = 30;
        cfg.latent_noise_std = 0.5; // exercise the rng draw between phases

        // Uninterrupted baseline.
        let mut clean = LatentDiff::new(cfg);
        let mut rng_clean = StdRng::seed_from_u64(31);
        clean.fit(&t, &mut rng_clean);
        let state_after_fit = rng_clean.state();
        let sample_clean = clean.synthesize(24, &mut rng_clean);

        for crash_at in ["ae-train:13", "latent-train:17"] {
            let dir = std::env::temp_dir().join(format!(
                "silofuse-ld-crash-{}-{}",
                std::process::id(),
                crash_at.replace(':', "-")
            ));
            std::fs::remove_dir_all(&dir).ok();
            let mut victim = LatentDiff::new(cfg);
            victim.set_checkpointer(
                Checkpointer::new(&dir, 5).with_crash(Some(CrashPoint::parse(crash_at).unwrap())),
            );
            let mut rng = StdRng::seed_from_u64(31);
            let err = victim.try_fit(&t, &mut rng);
            assert!(matches!(err, Err(CheckpointError::Crashed { .. })), "{crash_at}");
            drop(victim); // the "process" died

            let mut revived = LatentDiff::new(cfg);
            revived.set_checkpointer(Checkpointer::new(&dir, 5).with_resume(true));
            let mut rng2 = StdRng::seed_from_u64(999);
            revived.try_fit(&t, &mut rng2).unwrap();
            assert_eq!(rng2.state(), state_after_fit, "{crash_at}: rng stream diverged");
            let sample_resumed = revived.synthesize(24, &mut rng2);
            assert_eq!(sample_resumed, sample_clean, "{crash_at}: output diverged");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    #[should_panic(expected = "fit must be called")]
    fn synthesize_before_fit_panics() {
        let model = LatentDiff::new(quick_config(3));
        let mut rng = StdRng::seed_from_u64(3);
        let _ = model.synthesize(4, &mut rng);
    }
}
