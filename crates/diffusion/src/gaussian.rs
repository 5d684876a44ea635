//! Gaussian DDPM: forward noising, training, and (strided) sampling.

use crate::backbone::DiffusionBackbone;
use crate::schedule::{InvalidInferenceSteps, NoiseSchedule};
use crate::train::{TrainLoop, TrainState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silofuse_checkpoint::{CheckpointError, Checkpointer};
use silofuse_nn::init::{randn, randn_fill};
use silofuse_nn::layers::Layer;
use silofuse_nn::loss::mse;
use silofuse_nn::optim::Adam;
use silofuse_nn::serialize::StateDictError;
use silofuse_nn::{backend, pool, workspace, Tensor};

/// A synthesis request asked for `chunk_rows == 0`. A zero chunk size
/// would make the streaming sampler spin forever without producing a
/// row, so it is rejected at the request boundary instead of being
/// silently clamped to 1 (which would let a bad request change chunking
/// behavior behind the caller's back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidChunkRows;

impl std::fmt::Display for InvalidChunkRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "synthesis chunk_rows must be at least 1")
    }
}

impl std::error::Error for InvalidChunkRows {}

/// A cursor-range request whose end `start_row + rows` does not fit in
/// the row index (`usize`). Rejected before any sampling runs instead of
/// wrapping around or panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRangeOverflow {
    /// The requested first row.
    pub start_row: u64,
    /// The requested row count.
    pub rows: u64,
}

impl RowRangeOverflow {
    /// Converts the cursor range `start_row .. start_row + rows` into
    /// `usize` row indices `(start_row, rows)`.
    ///
    /// # Errors
    /// [`RowRangeOverflow`] when the range's end does not fit in `usize`.
    pub fn check(start_row: u64, rows: u64) -> Result<(usize, usize), Self> {
        let err = Self { start_row, rows };
        let end = start_row.checked_add(rows).ok_or(err)?;
        usize::try_from(end).map_err(|_| err)?;
        // Both are at most `end`, so they fit too.
        Ok((start_row as usize, rows as usize))
    }
}

impl std::fmt::Display for RowRangeOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row range {} + {} overflows the row index", self.start_row, self.rows)
    }
}

impl std::error::Error for RowRangeOverflow {}

/// Everything a sampling request can be rejected for before any reverse
/// diffusion runs: a bad strided-schedule length, a zero chunk size, or a
/// row range past the last addressable row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleRequestError {
    /// `inference_steps` was zero or exceeded the schedule's `T`.
    Steps(InvalidInferenceSteps),
    /// `chunk_rows` was zero.
    ChunkRows(InvalidChunkRows),
    /// `start_row + rows` overflowed the row index.
    RowRange(RowRangeOverflow),
}

impl std::fmt::Display for SampleRequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleRequestError::Steps(e) => e.fmt(f),
            SampleRequestError::ChunkRows(e) => e.fmt(f),
            SampleRequestError::RowRange(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SampleRequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SampleRequestError::Steps(e) => Some(e),
            SampleRequestError::ChunkRows(e) => Some(e),
            SampleRequestError::RowRange(e) => Some(e),
        }
    }
}

impl From<InvalidInferenceSteps> for SampleRequestError {
    fn from(e: InvalidInferenceSteps) -> Self {
        SampleRequestError::Steps(e)
    }
}

impl From<InvalidChunkRows> for SampleRequestError {
    fn from(e: InvalidChunkRows) -> Self {
        SampleRequestError::ChunkRows(e)
    }
}

impl From<RowRangeOverflow> for SampleRequestError {
    fn from(e: RowRangeOverflow) -> Self {
        SampleRequestError::RowRange(e)
    }
}

/// What the backbone is trained to predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parameterization {
    /// Predict the clean data `x_0` — the paper's Eq. (5) objective for
    /// latent diffusion (`‖Z − G(Z^t, t)‖²`).
    PredictX0,
    /// Predict the added noise `ε` — Ho et al.'s Eq. (2), used by TabDDPM.
    PredictNoise,
}

/// The pure math of a Gaussian diffusion process (no network).
#[derive(Debug, Clone)]
pub struct GaussianDiffusion {
    schedule: NoiseSchedule,
    parameterization: Parameterization,
}

impl GaussianDiffusion {
    /// Creates the process over a schedule.
    pub fn new(schedule: NoiseSchedule, parameterization: Parameterization) -> Self {
        Self { schedule, parameterization }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// The training parameterization.
    pub fn parameterization(&self) -> Parameterization {
        self.parameterization
    }

    /// Forward process `F(x_0, t, ε)` (paper Eq. 1), with a per-row timestep:
    /// `x_t = sqrt(ᾱ_t) x_0 + sqrt(1 − ᾱ_t) ε`.
    pub fn q_sample(&self, x0: &Tensor, t: &[usize], noise: &Tensor) -> Tensor {
        assert_eq!(x0.shape(), noise.shape(), "q_sample noise shape mismatch");
        assert_eq!(t.len(), x0.rows(), "one timestep per row");
        let mut out = Tensor::zeros(x0.rows(), x0.cols());
        for (r, &t_r) in t.iter().enumerate() {
            let ab = self.schedule.alpha_bar(t_r);
            let (sa, sn) = (ab.sqrt(), (1.0 - ab).sqrt());
            for ((o, &x), &e) in
                out.row_mut(r).iter_mut().zip(x0.row(r).iter()).zip(noise.row(r).iter())
            {
                *o = sa * x + sn * e;
            }
        }
        out
    }

    /// Recovers the `x_0` estimate from a model prediction at timestep `t`.
    pub fn predict_x0(&self, x_t: &Tensor, prediction: &Tensor, t: usize) -> Tensor {
        match self.parameterization {
            Parameterization::PredictX0 => prediction.clone(),
            Parameterization::PredictNoise => {
                let ab = self.schedule.alpha_bar(t);
                let (sa, sn) = (ab.sqrt(), (1.0 - ab).sqrt());
                x_t.zip_with(prediction, |x, e| (x - sn * e) / sa)
            }
        }
    }
}

/// Owns a backbone + optimizer and trains/samples a Gaussian DDPM.
pub struct GaussianDdpm {
    diffusion: GaussianDiffusion,
    backbone: DiffusionBackbone,
    optimizer: Adam,
}

impl std::fmt::Debug for GaussianDdpm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GaussianDdpm({:?})", self.backbone)
    }
}

impl TrainState for GaussianDdpm {
    /// Backbone parameters, buffers, internal RNGs and the complete Adam
    /// state. Unlike [`GaussianDdpm::export_weights`], restoring this and
    /// continuing to train is bit-identical to never having stopped.
    fn export_train_state(&mut self) -> Vec<u8> {
        silofuse_nn::serialize::export_train_state(self.backbone.net_mut(), &self.optimizer)
    }

    /// A failed import leaves the model untouched.
    fn import_train_state(&mut self, bytes: &[u8]) -> Result<(), StateDictError> {
        silofuse_nn::serialize::import_train_state(
            self.backbone.net_mut(),
            &mut self.optimizer,
            bytes,
        )
    }
}

/// Gradient information returned by
/// [`GaussianDdpm::train_step_with_input_grad`] for end-to-end training.
#[derive(Debug)]
pub struct StepWithGrad {
    /// Scalar diffusion loss for the step.
    pub loss: f32,
    /// `dLoss/dx_0`: gradient of the diffusion loss with respect to the
    /// clean inputs (e.g. encoder outputs in the E2E baselines).
    pub input_grad: Tensor,
}

impl GaussianDdpm {
    /// Bundles a diffusion process with a backbone and Adam at `lr`.
    pub fn new(diffusion: GaussianDiffusion, backbone: DiffusionBackbone, lr: f32) -> Self {
        Self { diffusion, backbone, optimizer: Adam::new(lr) }
    }

    /// The diffusion math.
    pub fn diffusion(&self) -> &GaussianDiffusion {
        &self.diffusion
    }

    /// Exports the backbone weights as a state dict (see
    /// `silofuse_nn::serialize`); rebuild the same architecture and call
    /// [`GaussianDdpm::import_weights`] to restore.
    pub fn export_weights(&mut self) -> Vec<u8> {
        silofuse_nn::serialize::export_state_dict(self.backbone.net_mut())
    }

    /// Restores weights exported by [`GaussianDdpm::export_weights`].
    ///
    /// # Errors
    /// Propagates shape/count mismatches from the state-dict layer.
    pub fn import_weights(
        &mut self,
        bytes: &[u8],
    ) -> Result<(), silofuse_nn::serialize::StateDictError> {
        silofuse_nn::serialize::import_state_dict(self.backbone.net_mut(), bytes)
    }

    /// Latent-DDPM training for the centralized LatentDiff model and the
    /// SiloFuse coordinator: `steps` minibatch steps over the latent matrix
    /// `z` through the shared [`TrainLoop`], checkpointed through `ckpt`
    /// under (`name`, `phase`), emitting `latent-ddpm` train events.
    ///
    /// # Errors
    /// Checkpoint I/O or restore failures, and
    /// [`CheckpointError::Crashed`] when an armed crash point fires.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_latent(
        &mut self,
        z: &Tensor,
        steps: usize,
        batch_size: usize,
        lr_for_log: f32,
        rng: &mut StdRng,
        ckpt: &Checkpointer,
        name: &str,
        phase: &str,
    ) -> Result<f32, CheckpointError> {
        let run = TrainLoop {
            model: "latent-ddpm",
            lr: lr_for_log,
            steps,
            batch_size,
            ckpt,
            name,
            phase,
        };
        run.run(
            self,
            z.rows(),
            rng,
            |ddpm, idx, rng| ddpm.train_step(&z.select_rows(idx), rng),
            |_| {},
        )
    }

    /// One optimisation step on a batch of clean data; returns the loss.
    pub fn train_step(&mut self, x0: &Tensor, rng: &mut StdRng) -> f32 {
        silofuse_observe::count("diffusion.train_steps", 1);
        let (loss, _, _) = self.step_inner(x0, rng, false);
        loss
    }

    /// One optimisation step that *also* backpropagates into `x_0` —
    /// required by the end-to-end baselines (Figs. 8–9), where the
    /// autoencoder and diffusion model train jointly.
    pub fn train_step_with_input_grad(&mut self, x0: &Tensor, rng: &mut StdRng) -> StepWithGrad {
        let (loss, input_grad, _) = self.step_inner(x0, rng, true);
        StepWithGrad { loss, input_grad: input_grad.expect("input grad requested") }
    }

    fn step_inner(
        &mut self,
        x0: &Tensor,
        rng: &mut StdRng,
        want_input_grad: bool,
    ) -> (f32, Option<Tensor>, Vec<usize>) {
        let timesteps = self.diffusion.schedule.timesteps();
        let ts: Vec<usize> = (0..x0.rows()).map(|_| rng.gen_range(0..timesteps)).collect();
        let noise = randn(x0.rows(), x0.cols(), rng);
        let x_t = self.diffusion.q_sample(x0, &ts, &noise);

        let pred = self.backbone.predict(&x_t, &ts);
        let target = match self.diffusion.parameterization {
            Parameterization::PredictX0 => x0,
            Parameterization::PredictNoise => &noise,
        };
        let (loss, grad) = mse(&pred, target);
        workspace::recycle(pred);

        self.backbone.net_mut().zero_grad();
        let grad_xt = self.backbone.backward_to_input(&grad);
        self.optimizer.step(self.backbone.net_mut());

        let input_grad = if want_input_grad {
            // dLoss/dx0 = dLoss/dx_t * sqrt(ᾱ_t)  (through the forward process)
            //           + direct term when the target itself is x0.
            let mut g = grad_xt;
            for (r, &t) in ts.iter().enumerate() {
                let sa = self.diffusion.schedule.alpha_bar(t).sqrt();
                for v in g.row_mut(r) {
                    *v *= sa;
                }
            }
            if self.diffusion.parameterization == Parameterization::PredictX0 {
                g.add_scaled(&grad, -1.0); // dLoss/dtarget = -dLoss/dpred
            }
            Some(g)
        } else {
            workspace::recycle(grad_xt);
            None
        };
        workspace::recycle(grad);
        (loss, input_grad, ts)
    }

    /// Draws `n` samples by reverse diffusion over `inference_steps` strided
    /// steps (the paper trains with `T = 200` and samples with 25), with
    /// the whole batch routed through the backend gemm/elementwise kernels.
    ///
    /// `eta` interpolates between deterministic DDIM (`0.0`) and
    /// DDPM-style ancestral sampling (`1.0`).
    ///
    /// # Panics
    /// Panics when `inference_steps` is zero or exceeds `T`; use
    /// [`GaussianDdpm::try_sample`] for a typed error.
    pub fn sample(&self, n: usize, inference_steps: usize, eta: f32, rng: &mut StdRng) -> Tensor {
        self.try_sample(n, inference_steps, eta, rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`GaussianDdpm::sample`]: rejects an invalid
    /// `inference_steps` with a typed error instead of panicking.
    ///
    /// # Errors
    /// [`InvalidInferenceSteps`] when `inference_steps == 0` or `> T`.
    pub fn try_sample(
        &self,
        n: usize,
        inference_steps: usize,
        eta: f32,
        rng: &mut StdRng,
    ) -> Result<Tensor, InvalidInferenceSteps> {
        let _span = silofuse_observe::span("ddpm-sample");
        let dim = self.backbone.config().data_dim;
        let mut sampler = match self.chunked_sampler(n, inference_steps, eta, n.max(1), rng) {
            Ok(s) => s,
            Err(SampleRequestError::Steps(e)) => return Err(e),
            // chunk_rows is n.max(1) >= 1 and the range starts at row 0.
            Err(e @ (SampleRequestError::ChunkRows(_) | SampleRequestError::RowRange(_))) => {
                unreachable!("{e}")
            }
        };
        match sampler.next_chunk() {
            Some((_, x)) => Ok(x),
            None => Ok(Tensor::zeros(0, dim)),
        }
    }

    /// Creates a streaming batched sampler yielding chunks of at most
    /// `chunk_rows` rows, so synthesizing millions of rows holds peak
    /// memory at `O(chunk_rows × dim)` regardless of `n`.
    ///
    /// The only RNG consumption is one `u64` base seed drawn here; every
    /// row then derives its own noise stream from `(base, row)`, which
    /// makes the output bit-identical across chunk sizes, batch
    /// compositions, and backend thread counts — and identical to the
    /// per-row oracle [`GaussianDdpm::sample_rows_reference`].
    ///
    /// # Errors
    /// [`SampleRequestError`] when `inference_steps == 0` or `> T`, or
    /// when `chunk_rows == 0`.
    pub fn chunked_sampler(
        &self,
        n: usize,
        inference_steps: usize,
        eta: f32,
        chunk_rows: usize,
        rng: &mut StdRng,
    ) -> Result<ChunkedSampler<'_>, SampleRequestError> {
        let base = rng.gen::<u64>();
        self.chunked_sampler_from_base(n, inference_steps, eta, chunk_rows, base)
    }

    /// [`GaussianDdpm::chunked_sampler`] with an explicit base seed — the
    /// deterministic-resume entry point: a checkpoint that recorded the
    /// base regenerates the exact same rows after a crash.
    ///
    /// # Errors
    /// [`SampleRequestError`] when `inference_steps == 0` or `> T`, or
    /// when `chunk_rows == 0`.
    pub fn chunked_sampler_from_base(
        &self,
        n: usize,
        inference_steps: usize,
        eta: f32,
        chunk_rows: usize,
        base: u64,
    ) -> Result<ChunkedSampler<'_>, SampleRequestError> {
        self.chunked_sampler_range_from_base(0, n, inference_steps, eta, chunk_rows, base)
    }

    /// Cursor-range variant of [`GaussianDdpm::chunked_sampler_from_base`]:
    /// yields only rows `start_row .. start_row + rows` of the stream the
    /// base seed defines. Because every row derives its noise from
    /// `(base, row)` alone, draining `[0, k)` now and `[k, n)` later is
    /// bit-identical to draining `[0, n)` in one pass — the entry point
    /// cursor pagination in `silofuse-serve` resumes from.
    ///
    /// # Errors
    /// [`SampleRequestError`] when `inference_steps == 0` or `> T`, when
    /// `chunk_rows == 0`, or when `start_row + rows` overflows `usize`.
    pub fn chunked_sampler_range_from_base(
        &self,
        start_row: usize,
        rows: usize,
        inference_steps: usize,
        eta: f32,
        chunk_rows: usize,
        base: u64,
    ) -> Result<ChunkedSampler<'_>, SampleRequestError> {
        if chunk_rows == 0 {
            return Err(InvalidChunkRows.into());
        }
        let n = start_row
            .checked_add(rows)
            .ok_or(RowRangeOverflow { start_row: start_row as u64, rows: rows as u64 })?;
        silofuse_nn::backend::record_telemetry();
        silofuse_observe::count("diffusion.sampled_rows", rows as u64);
        let coeffs = SampleCoefficients::build(&self.diffusion.schedule, inference_steps, eta)?;
        Ok(ChunkedSampler {
            ddpm: self,
            coeffs,
            base,
            start_row,
            n,
            chunk_rows,
            next_row: start_row,
        })
    }

    /// The seed per-row sampler: every row runs the reverse chain alone,
    /// with plain scalar arithmetic for the update rules (only the backbone
    /// forward is shared with the batched path). This is the bit-identity
    /// oracle the batched engine is tested against.
    ///
    /// # Errors
    /// [`InvalidInferenceSteps`] when `inference_steps == 0` or `> T`.
    pub fn sample_rows_reference(
        &self,
        n: usize,
        inference_steps: usize,
        eta: f32,
        rng: &mut StdRng,
    ) -> Result<Tensor, InvalidInferenceSteps> {
        let dim = self.backbone.config().data_dim;
        let coeffs = SampleCoefficients::build(&self.diffusion.schedule, inference_steps, eta)?;
        let base = rng.gen::<u64>();
        let k = coeffs.steps.len();
        let mut out = Tensor::zeros(n, dim);
        for r in 0..n {
            let mut rr = row_rng(base, r as u64);
            let mut x = randn(1, dim, &mut rr);
            for i in 0..k {
                let pred = self.backbone.infer(&x, &coeffs.steps[i..=i]);
                let sa = coeffs.sqrt_ab[i];
                let sn = coeffs.sqrt_one_minus_ab[i];
                let x0_hat: Vec<f32> = match self.diffusion.parameterization {
                    Parameterization::PredictX0 => pred.as_slice().to_vec(),
                    Parameterization::PredictNoise => x
                        .as_slice()
                        .iter()
                        .zip(pred.as_slice())
                        .map(|(&xt, &e)| (xt - sn * e) / sa)
                        .collect(),
                };
                if i + 1 == k {
                    x = Tensor::from_vec(1, dim, x0_hat);
                    break;
                }
                let denom = sn.max(1e-8);
                let (sap, dir, sigma) =
                    (coeffs.sqrt_ab_prev[i], coeffs.dir_scale[i], coeffs.sigma[i]);
                let mut next = vec![0.0f32; dim];
                for (d, slot) in next.iter_mut().enumerate() {
                    let eps = (x.as_slice()[d] - sa * x0_hat[d]) / denom;
                    *slot = x0_hat[d] * sap + dir * eps;
                }
                if sigma > 0.0 {
                    let mut z = vec![0.0f32; dim];
                    randn_fill(&mut z, &mut rr);
                    for (slot, &zd) in next.iter_mut().zip(&z) {
                        *slot += sigma * zd;
                    }
                }
                x = Tensor::from_vec(1, dim, next);
            }
            out.row_mut(r).copy_from_slice(x.row(0));
        }
        Ok(out)
    }

    /// Runs the full reverse chain for rows `first_row .. first_row + m` as
    /// one batch through the backend kernels, drawing every row's noise
    /// from its derived RNG and recycling step temporaries through the
    /// workspace arena.
    fn sample_chunk(
        &self,
        coeffs: &SampleCoefficients,
        base: u64,
        first_row: usize,
        m: usize,
    ) -> Tensor {
        let dim = self.backbone.config().data_dim;
        let mut rngs: Vec<StdRng> = (0..m).map(|j| row_rng(base, (first_row + j) as u64)).collect();
        let mut x = workspace::take(m, dim);
        fill_gaussian_rows(&mut x, &mut rngs);
        let mut ts = vec![0usize; m];
        let k = coeffs.steps.len();
        for i in 0..k {
            ts.fill(coeffs.steps[i]);
            let pred = self.backbone.infer(&x, &ts);
            let sa = coeffs.sqrt_ab[i];
            let sn = coeffs.sqrt_one_minus_ab[i];
            let x0_hat = match self.diffusion.parameterization {
                Parameterization::PredictX0 => pred,
                Parameterization::PredictNoise => {
                    let recovered = x.zip_with(&pred, |xt, e| (xt - sn * e) / sa);
                    workspace::recycle(pred);
                    recovered
                }
            };
            if i + 1 == k {
                workspace::recycle(std::mem::replace(&mut x, x0_hat));
                break;
            }
            // Generalised DDIM update on the sub-schedule, all coefficients
            // precomputed once per run.
            let denom = sn.max(1e-8);
            let eps_hat = x.zip_with(&x0_hat, |xt, x0| (xt - sa * x0) / denom);
            let mut next = x0_hat;
            next.scale_assign(coeffs.sqrt_ab_prev[i]);
            next.add_scaled(&eps_hat, coeffs.dir_scale[i]);
            workspace::recycle(eps_hat);
            let sigma = coeffs.sigma[i];
            if sigma > 0.0 {
                let mut z = workspace::take(m, dim);
                fill_gaussian_rows(&mut z, &mut rngs);
                next.add_scaled(&z, sigma);
                workspace::recycle(z);
            }
            workspace::recycle(std::mem::replace(&mut x, next));
        }
        x
    }
}

/// Per-run cache of the strided reverse-diffusion constants: one entry per
/// sub-schedule step (`sqrt ᾱ`, the DDIM `σ`/direction scales, …), so the
/// chunk loop never re-derives schedule maths while streaming rows.
#[derive(Debug, Clone)]
pub struct SampleCoefficients {
    steps: Vec<usize>,
    sqrt_ab: Vec<f32>,
    sqrt_one_minus_ab: Vec<f32>,
    // Transition constants for step i -> i+1; the final entries are unused.
    sqrt_ab_prev: Vec<f32>,
    sigma: Vec<f32>,
    dir_scale: Vec<f32>,
}

impl SampleCoefficients {
    /// Precomputes every per-step constant for `inference_steps` strides at
    /// stochasticity `eta`.
    ///
    /// # Errors
    /// [`InvalidInferenceSteps`] when `inference_steps == 0` or `> T`.
    pub fn build(
        schedule: &NoiseSchedule,
        inference_steps: usize,
        eta: f32,
    ) -> Result<Self, InvalidInferenceSteps> {
        let steps = schedule.try_inference_steps(inference_steps)?;
        let k = steps.len();
        let mut c = Self {
            steps,
            sqrt_ab: vec![0.0; k],
            sqrt_one_minus_ab: vec![0.0; k],
            sqrt_ab_prev: vec![0.0; k],
            sigma: vec![0.0; k],
            dir_scale: vec![0.0; k],
        };
        for i in 0..k {
            let ab_t = schedule.alpha_bar(c.steps[i]);
            c.sqrt_ab[i] = ab_t.sqrt();
            c.sqrt_one_minus_ab[i] = (1.0 - ab_t).sqrt();
            if i + 1 < k {
                let ab_prev = schedule.alpha_bar(c.steps[i + 1]);
                let sigma =
                    eta * ((1.0 - ab_prev) / (1.0 - ab_t)).sqrt() * (1.0 - ab_t / ab_prev).sqrt();
                c.sigma[i] = sigma;
                c.dir_scale[i] = (1.0 - ab_prev - sigma * sigma).max(0.0).sqrt();
                c.sqrt_ab_prev[i] = ab_prev.sqrt();
            }
        }
        Ok(c)
    }

    /// Number of reverse steps in the strided schedule.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule is empty (it never is for a valid build).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The strided timestep indices, descending.
    pub fn steps(&self) -> &[usize] {
        &self.steps
    }
}

/// Derives row `row`'s private RNG from the run's base seed. The 64-bit
/// golden-ratio multiply decorrelates neighbouring row indices before
/// `seed_from_u64` scrambles the combined value again; each row owning its
/// own noise stream is what makes batched output invariant to chunking.
fn row_rng(base: u64, row: u64) -> StdRng {
    StdRng::seed_from_u64(base ^ row.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fills each row of `x` from its own RNG, drawing exactly like `randn`.
fn fill_gaussian_rows(x: &mut Tensor, rngs: &mut [StdRng]) {
    for (r, rng) in rngs.iter_mut().enumerate() {
        randn_fill(x.row_mut(r), rng);
    }
}

/// A sampling chunk borrows a core only when every core that drains its
/// parts gets at least this many rows.
const MIN_SPLIT_ROWS: usize = 64;

/// Rows per part of a chunk that borrowed cores. The parts are taken one
/// at a time from a shared queue, so a core the host slows down takes
/// fewer of them, and the smaller they are, the less the chunk waits on
/// its last part. On one core of a 2-vCPU AVX2 host, the 24-wide,
/// 128-hidden latent DDPM sampled at 265–267 µs/row in batches of 16 to 96
/// rows and 271–276 µs/row in batches of 128 to 1 024. At two workers the
/// pipeline's synthesis rates spread less from run to run with 16-row
/// parts than with 32-row ones, at a 3–8% lower median.
const SPLIT_PART_ROWS: usize = 16;

/// Rows per part, at most, of a chunk its caller drains alone. A part is
/// all its core holds activations for, so this bounds a lone chunk's
/// memory (one 256-row activation of a 128-wide layer is 128 KiB) however
/// many rows the chunk holds. Parts stay this large because small ones
/// cost a lone caller whose neighbour core is busy: on the 2-vCPU AVX-512
/// host, with two threads each sampling 256-row chunks of the 13-wide,
/// 128-hidden DDPM at one worker, 16-row parts ran 10% slower per row
/// than 256-row ones.
const LONE_PART_ROWS: usize = 256;

/// Streaming batched sampler over the reverse-diffusion chain: yields
/// latent chunks of at most `chunk_rows` rows until `n` rows have been
/// produced. Created by [`GaussianDdpm::chunked_sampler`].
pub struct ChunkedSampler<'a> {
    ddpm: &'a GaussianDdpm,
    coeffs: SampleCoefficients,
    base: u64,
    start_row: usize,
    n: usize,
    chunk_rows: usize,
    next_row: usize,
}

impl ChunkedSampler<'_> {
    /// The per-run base seed every row RNG derives from (checkpoint this to
    /// make a resumed synthesis regenerate identical rows).
    pub fn base_seed(&self) -> u64 {
        self.base
    }

    /// The absolute row cursor this sampler stops at (equals the row
    /// count for a from-zero sampler; a range sampler produces
    /// `rows_total() - first_row` rows starting at its cursor).
    pub fn rows_total(&self) -> usize {
        self.n
    }

    /// Latent width of every produced chunk.
    pub fn dim(&self) -> usize {
        self.ddpm.backbone.config().data_dim
    }

    /// The absolute row index the next chunk starts at.
    pub fn rows_done(&self) -> usize {
        self.next_row
    }

    /// Number of chunks a full drain will yield.
    pub fn total_chunks(&self) -> usize {
        (self.n - self.start_row).div_ceil(self.chunk_rows)
    }

    /// Produces the next chunk as `(first_row, latents)`, or `None` once
    /// all `n` rows are generated. The tensor's storage comes from the
    /// workspace arena — recycle it when done to keep synthesis
    /// allocation-free at steady state.
    ///
    /// The chunk is one compute entry of the worker pool
    /// ([`silofuse_nn::pool`]), split into contiguous parts that are each
    /// sampled as their own batch by whichever core takes them next from a
    /// shared queue. The lease decides how many cores drain the queue, and
    /// with that how big the parts are. When idle cores are free and each
    /// gets at least 64 rows, the caller and the borrowed cores take parts
    /// of 16 to 18 rows, so a core that the host slows down, or a helper
    /// that wakes late, takes fewer parts instead of holding the whole
    /// chunk up. A caller alone takes parts of at most 256 rows. Either
    /// way a chunk holds only its parts' activations, at any worker count.
    /// Every row's noise depends only on its absolute index and every
    /// kernel's per-row arithmetic on nothing but that row, so the split
    /// never changes a byte.
    pub fn next_chunk(&mut self) -> Option<(usize, Tensor)> {
        if self.next_row >= self.n {
            return None;
        }
        let _span = silofuse_observe::span(silofuse_observe::names::SYNTH_CHUNK_SPAN);
        let first = self.next_row;
        let m = self.chunk_rows.min(self.n - first);
        let dim = self.dim();
        let lease = pool::lease(backend::threads(), if dim == 0 { 1 } else { m / MIN_SPLIT_ROWS });
        let n_parts = if lease.parts() > 1 {
            silofuse_observe::count(silofuse_observe::names::SYNTH_SPLIT_CHUNKS, 1);
            m / SPLIT_PART_ROWS
        } else {
            m.div_ceil(LONE_PART_ROWS)
        };
        let mut x = workspace::take(m, dim);
        let mut parts: Vec<(usize, usize, &mut [f32])> = Vec::with_capacity(n_parts);
        let mut rest = x.as_mut_slice();
        for p in 0..n_parts {
            let (lo, hi) = (p * m / n_parts, (p + 1) * m / n_parts);
            let (out, tail) = rest.split_at_mut((hi - lo) * dim);
            parts.push((first + lo, hi - lo, out));
            rest = tail;
        }
        lease.run(parts, |(row, rows, out)| {
            let part = self.ddpm.sample_chunk(&self.coeffs, self.base, row, rows);
            out.copy_from_slice(part.as_slice());
            workspace::recycle(part);
        });
        self.next_row = first + m;
        silofuse_observe::count(silofuse_observe::names::SYNTH_ROWS, m as u64);
        silofuse_observe::count(silofuse_observe::names::SYNTH_CHUNKS, 1);
        Some((first, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::BackboneConfig;
    use crate::schedule::ScheduleKind;
    use rand::SeedableRng;

    fn small_ddpm(dim: usize, param: Parameterization, seed: u64) -> GaussianDdpm {
        ddpm_with_backbone(dim, 64, 3, param, seed)
    }

    fn ddpm_with_backbone(
        dim: usize,
        hidden_dim: usize,
        depth: usize,
        param: Parameterization,
        seed: u64,
    ) -> GaussianDdpm {
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = NoiseSchedule::new(ScheduleKind::Linear, 50);
        let diffusion = GaussianDiffusion::new(schedule, param);
        let cfg = BackboneConfig {
            data_dim: dim,
            hidden_dim,
            depth,
            time_embed_dim: 8,
            dropout: 0.0,
            out_dim: dim,
        };
        let backbone = DiffusionBackbone::new(cfg, seed, &mut rng);
        GaussianDdpm::new(diffusion, backbone, 2e-3)
    }

    #[test]
    fn q_sample_at_late_step_is_mostly_noise() {
        let schedule = NoiseSchedule::new(ScheduleKind::Linear, 200);
        let d = GaussianDiffusion::new(schedule, Parameterization::PredictX0);
        let mut rng = StdRng::seed_from_u64(0);
        let x0 = Tensor::full(256, 4, 3.0);
        let noise = randn(256, 4, &mut rng);
        let xt = d.q_sample(&x0, &vec![199; 256], &noise);
        // ᾱ_199 ~ 0.1 for the linear schedule over 200 steps: signal mostly gone.
        let mean = xt.mean();
        assert!(mean.abs() < 1.3, "late-step mean {mean} should be far from 3.0");
    }

    #[test]
    fn q_sample_at_step_zero_is_mostly_signal() {
        let schedule = NoiseSchedule::new(ScheduleKind::Linear, 200);
        let d = GaussianDiffusion::new(schedule, Parameterization::PredictX0);
        let mut rng = StdRng::seed_from_u64(0);
        let x0 = Tensor::full(64, 4, 3.0);
        let noise = randn(64, 4, &mut rng);
        let xt = d.q_sample(&x0, &vec![0; 64], &noise);
        assert!((xt.mean() - 3.0).abs() < 0.1);
    }

    #[test]
    fn predict_x0_from_noise_inverts_q_sample() {
        let schedule = NoiseSchedule::new(ScheduleKind::Linear, 100);
        let d = GaussianDiffusion::new(schedule, Parameterization::PredictNoise);
        let mut rng = StdRng::seed_from_u64(1);
        let x0 = randn(8, 3, &mut rng);
        let noise = randn(8, 3, &mut rng);
        let t = 42;
        let xt = d.q_sample(&x0, &[t; 8], &noise);
        // Given the *true* noise, predict_x0 must recover x0 exactly.
        let rec = d.predict_x0(&xt, &noise, t);
        for (a, b) in rec.as_slice().iter().zip(x0.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn training_reduces_loss_x0_parameterization() {
        let mut ddpm = small_ddpm(2, Parameterization::PredictX0, 7);
        let mut rng = StdRng::seed_from_u64(7);
        // Bimodal 2-D data.
        let x0 = Tensor::from_fn(128, 2, |r, _| if r % 2 == 0 { 2.0 } else { -2.0 });
        let first: f32 = (0..10).map(|_| ddpm.train_step(&x0, &mut rng)).sum::<f32>() / 10.0;
        for _ in 0..300 {
            ddpm.train_step(&x0, &mut rng);
        }
        let last: f32 = (0..10).map(|_| ddpm.train_step(&x0, &mut rng)).sum::<f32>() / 10.0;
        assert!(last < first * 0.7, "loss did not fall: {first} -> {last}");
    }

    #[test]
    fn trained_ddpm_samples_match_data_distribution() {
        let mut ddpm = small_ddpm(1, Parameterization::PredictX0, 11);
        let mut rng = StdRng::seed_from_u64(11);
        // Data concentrated at +/- 2.
        let x0 = Tensor::from_fn(256, 1, |r, _| if r % 2 == 0 { 2.0 } else { -2.0 });
        for _ in 0..600 {
            ddpm.train_step(&x0, &mut rng);
        }
        let samples = ddpm.sample(400, 25, 1.0, &mut rng);
        assert!(samples.all_finite());
        // Mean near zero, values spread toward the two modes.
        assert!(samples.mean().abs() < 0.6, "mean {}", samples.mean());
        let spread = samples.as_slice().iter().filter(|v| v.abs() > 1.0).count();
        assert!(
            spread > samples.len() / 3,
            "samples collapsed to centre: {spread}/{}",
            samples.len()
        );
    }

    #[test]
    fn input_grad_matches_finite_difference() {
        // Use a fixed seed so the same (t, noise) draw happens for each probe.
        let mut ddpm = small_ddpm(2, Parameterization::PredictX0, 3);
        let x0 = Tensor::from_vec(2, 2, vec![0.5, -0.3, 0.2, 0.8]);

        // Analytic gradient (captured before the optimizer perturbs weights
        // in later probes — so rebuild the model for each evaluation).
        let grad = {
            let mut m = small_ddpm(2, Parameterization::PredictX0, 3);
            let mut rng = StdRng::seed_from_u64(99);
            m.train_step_with_input_grad(&x0, &mut rng).input_grad
        };

        let eps = 1e-2f32;
        for i in 0..x0.len() {
            let eval = |x: &Tensor| {
                let mut m = small_ddpm(2, Parameterization::PredictX0, 3);
                let mut rng = StdRng::seed_from_u64(99);
                m.train_step_with_input_grad(x, &mut rng).loss
            };
            let mut xp = x0.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[i] -= eps;
            let numeric = (eval(&xp) - eval(&xm)) / (2.0 * eps);
            let got = grad.as_slice()[i];
            assert!(
                (numeric - got).abs() < 0.05 * (1.0 + numeric.abs()),
                "input grad mismatch at {i}: numeric {numeric} vs analytic {got}"
            );
        }
        let _ = ddpm.train_step(&x0, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn weight_round_trip_reproduces_samples() {
        let mut trained = small_ddpm(2, Parameterization::PredictX0, 21);
        let mut rng = StdRng::seed_from_u64(21);
        let data = Tensor::from_fn(64, 2, |r, _| if r % 2 == 0 { 1.0 } else { -1.0 });
        for _ in 0..50 {
            trained.train_step(&data, &mut rng);
        }
        let blob = trained.export_weights();
        let mut fresh = small_ddpm(2, Parameterization::PredictX0, 22);
        fresh.import_weights(&blob).unwrap();
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(trained.sample(8, 5, 0.0, &mut r1), fresh.sample(8, 5, 0.0, &mut r2));
    }

    #[test]
    fn fit_latent_crash_and_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("silofuse-ddpm-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(33);
        let z = randn(64, 2, &mut rng);

        // Uninterrupted reference (disabled checkpointer = plain fit).
        let mut clean = small_ddpm(2, Parameterization::PredictX0, 33);
        let mut clean_rng = StdRng::seed_from_u64(34);
        clean
            .fit_latent(&z, 30, 16, 2e-3, &mut clean_rng, &Checkpointer::disabled(), "d", "lt")
            .unwrap();

        // Crash at step 13, then resume into a freshly-built model.
        let ckpt = Checkpointer::new(&dir, 5);
        let crash = ckpt
            .clone()
            .with_crash(Some(silofuse_checkpoint::CrashPoint { phase: "lt".into(), step: 13 }));
        let mut victim = small_ddpm(2, Parameterization::PredictX0, 33);
        let mut victim_rng = StdRng::seed_from_u64(34);
        let err =
            victim.fit_latent(&z, 30, 16, 2e-3, &mut victim_rng, &crash, "d", "lt").unwrap_err();
        assert!(matches!(err, CheckpointError::Crashed { step: 13, .. }));
        drop(victim); // simulated process death
        let mut resumed = small_ddpm(2, Parameterization::PredictX0, 33);
        let mut resumed_rng = StdRng::seed_from_u64(999); // overwritten by the checkpoint
        resumed
            .fit_latent(&z, 30, 16, 2e-3, &mut resumed_rng, &ckpt.with_resume(true), "d", "lt")
            .unwrap();

        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(clean.sample(8, 5, 1.0, &mut r1), resumed.sample(8, 5, 1.0, &mut r2));
        assert_eq!(clean_rng, resumed_rng, "caller RNG must land in the same state");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ddim_sampling_is_deterministic_given_rng() {
        let ddpm = small_ddpm(2, Parameterization::PredictNoise, 5);
        let mut r1 = StdRng::seed_from_u64(4);
        let mut r2 = StdRng::seed_from_u64(4);
        let a = ddpm.sample(8, 10, 0.0, &mut r1);
        let b = ddpm.sample(8, 10, 0.0, &mut r2);
        assert_eq!(a, b);
    }

    /// Bitwise equality helper with a row/column diagnostic.
    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: bit mismatch at flat index {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn batched_sample_is_bit_identical_to_per_row_oracle() {
        // (data dim, hidden, depth): a small backbone, and one whose 13-row
        // hidden-layer GEMMs (13·256·256 multiply-adds) cross the parallel
        // fan-out threshold.
        for (dim, hidden, depth) in [(3, 64, 3), (32, 256, 6)] {
            for param in [Parameterization::PredictX0, Parameterization::PredictNoise] {
                for eta in [0.0f32, 0.7, 1.0] {
                    let ddpm = ddpm_with_backbone(dim, hidden, depth, param, 17);
                    let mut r1 = StdRng::seed_from_u64(9);
                    let mut r2 = StdRng::seed_from_u64(9);
                    let batched = ddpm.try_sample(13, 7, eta, &mut r1).unwrap();
                    let oracle = ddpm.sample_rows_reference(13, 7, eta, &mut r2).unwrap();
                    let what = format!("dim={dim} hidden={hidden} {param:?} eta={eta}");
                    assert_bits_eq(&batched, &oracle, &what);
                    assert_eq!(r1, r2, "both paths must consume exactly one u64");
                }
            }
        }
    }

    #[test]
    fn chunked_sampling_is_invariant_to_chunk_size() {
        let ddpm = small_ddpm(2, Parameterization::PredictX0, 23);
        let mut whole_rng = StdRng::seed_from_u64(5);
        let whole = ddpm.try_sample(11, 6, 1.0, &mut whole_rng).unwrap();
        for chunk in [1usize, 2, 3, 4, 11, 64] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut out = Tensor::zeros(11, 2);
            let mut sampler = ddpm.chunked_sampler(11, 6, 1.0, chunk, &mut rng).unwrap();
            assert_eq!(sampler.total_chunks(), 11usize.div_ceil(chunk));
            while let Some((first, part)) = sampler.next_chunk() {
                for r in 0..part.rows() {
                    out.row_mut(first + r).copy_from_slice(part.row(r));
                }
                silofuse_nn::workspace::recycle(part);
            }
            assert_bits_eq(&whole, &out, &format!("chunk={chunk}"));
            assert_eq!(rng, whole_rng, "chunking must not change RNG consumption");
        }
    }

    #[test]
    fn resumed_sampler_from_base_regenerates_identical_rows() {
        let ddpm = small_ddpm(2, Parameterization::PredictNoise, 29);
        let mut rng = StdRng::seed_from_u64(8);
        let mut first_half = Vec::new();
        let base = {
            let mut sampler = ddpm.chunked_sampler(10, 5, 1.0, 4, &mut rng).unwrap();
            let (_, a) = sampler.next_chunk().unwrap();
            first_half.push(a);
            sampler.base_seed()
        };
        // A "resumed" sampler rebuilt from the recorded base seed must
        // replay chunk 0 bit-identically and finish the remaining rows.
        let mut resumed = ddpm.chunked_sampler_from_base(10, 5, 1.0, 4, base).unwrap();
        let (_, again) = resumed.next_chunk().unwrap();
        assert_bits_eq(&first_half[0], &again, "replayed chunk 0");
        let mut rows = again.rows();
        while let Some((_, part)) = resumed.next_chunk() {
            rows += part.rows();
        }
        assert_eq!(rows, 10, "replayed chunk + remaining chunks cover all rows");
    }

    #[test]
    fn sample_zero_rows_is_empty_and_consumes_one_u64() {
        let ddpm = small_ddpm(2, Parameterization::PredictX0, 31);
        let mut rng = StdRng::seed_from_u64(3);
        let out = ddpm.try_sample(0, 5, 1.0, &mut rng).unwrap();
        assert_eq!(out.shape(), (0, 2));
        let mut reference = StdRng::seed_from_u64(3);
        let _: u64 = reference.gen();
        assert_eq!(rng, reference);
    }

    #[test]
    fn invalid_inference_steps_is_a_typed_error() {
        let ddpm = small_ddpm(2, Parameterization::PredictX0, 37);
        let mut rng = StdRng::seed_from_u64(1);
        let err = ddpm.try_sample(4, 0, 1.0, &mut rng).unwrap_err();
        assert_eq!(err, InvalidInferenceSteps { requested: 0, timesteps: 50 });
        let err = ddpm.try_sample(4, 51, 1.0, &mut rng).unwrap_err();
        assert_eq!(err.requested, 51);
    }

    #[test]
    fn zero_chunk_rows_is_a_typed_error() {
        let ddpm = small_ddpm(2, Parameterization::PredictX0, 41);
        let mut rng = StdRng::seed_from_u64(1);
        let err = ddpm.chunked_sampler(4, 5, 1.0, 0, &mut rng).err().unwrap();
        assert_eq!(err, SampleRequestError::ChunkRows(InvalidChunkRows));
        assert_eq!(err.to_string(), "synthesis chunk_rows must be at least 1");
        // The step error still comes through the combined type.
        let err = ddpm.chunked_sampler(4, 0, 1.0, 2, &mut rng).err().unwrap();
        assert!(matches!(err, SampleRequestError::Steps(_)));
        // So does a range whose end overflows the row index.
        let err = ddpm.chunked_sampler_range_from_base(usize::MAX - 10, 256, 5, 1.0, 2, 7);
        let overflow = RowRangeOverflow { start_row: usize::MAX as u64 - 10, rows: 256 };
        assert_eq!(err.err().unwrap(), SampleRequestError::RowRange(overflow));
        assert_eq!(RowRangeOverflow::check(u64::MAX - 10, 256), Err(overflow));
        assert_eq!(RowRangeOverflow::check(7, 9), Ok((7, 9)));
    }

    #[test]
    fn range_sampler_matches_the_matching_slice_of_a_full_drain() {
        let ddpm = small_ddpm(3, Parameterization::PredictNoise, 43);
        let base = 0xfeed_beef_u64;
        let mut whole = Tensor::zeros(13, 3);
        {
            let mut sampler = ddpm.chunked_sampler_from_base(13, 6, 1.0, 5, base).unwrap();
            while let Some((first, part)) = sampler.next_chunk() {
                for r in 0..part.rows() {
                    whole.row_mut(first + r).copy_from_slice(part.row(r));
                }
                silofuse_nn::workspace::recycle(part);
            }
        }
        // Any (start, len) window, drained with any chunking, reproduces
        // the same bytes the full pass put at those rows.
        for (start, len, chunk) in [(0usize, 13usize, 4usize), (4, 9, 3), (7, 2, 1), (12, 1, 8)] {
            let mut sampler =
                ddpm.chunked_sampler_range_from_base(start, len, 6, 1.0, chunk, base).unwrap();
            assert_eq!(sampler.total_chunks(), len.div_ceil(chunk));
            assert_eq!(sampler.rows_done(), start);
            assert_eq!(sampler.rows_total(), start + len);
            let mut covered = 0usize;
            while let Some((first, part)) = sampler.next_chunk() {
                for r in 0..part.rows() {
                    let got = part.row(r);
                    let want = whole.row(first + r);
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "row {} start={start}", first + r);
                    }
                }
                covered += part.rows();
                silofuse_nn::workspace::recycle(part);
            }
            assert_eq!(covered, len);
        }
        // An empty range yields no chunks.
        let mut empty = ddpm.chunked_sampler_range_from_base(5, 0, 6, 1.0, 4, base).unwrap();
        assert!(empty.next_chunk().is_none());
    }

    /// After warm-up every buffer a DDPM training step takes comes from the
    /// workspace arena: the miss counter stays flat, for both
    /// parameterizations, with the paper backbone's dropout layers.
    #[test]
    fn warm_train_step_allocates_nothing() {
        for param in [Parameterization::PredictNoise, Parameterization::PredictX0] {
            let mut rng = StdRng::seed_from_u64(5);
            let schedule = NoiseSchedule::new(ScheduleKind::Linear, 50);
            let backbone = DiffusionBackbone::new(BackboneConfig::paper_latent(6, 32), 5, &mut rng);
            let mut ddpm =
                GaussianDdpm::new(GaussianDiffusion::new(schedule, param), backbone, 1e-3);
            let x0 = randn(24, 6, &mut rng);
            for step in 0..8 {
                if step == 4 {
                    silofuse_nn::workspace::reset_counters();
                }
                ddpm.train_step(&x0, &mut rng);
            }
            assert_eq!(silofuse_nn::workspace::misses(), 0, "{param:?}: a warm step allocated");
        }
    }

    #[test]
    fn sample_coefficients_match_schedule_maths() {
        let schedule = NoiseSchedule::new(ScheduleKind::Linear, 40);
        let c = SampleCoefficients::build(&schedule, 10, 1.0).unwrap();
        assert!(!c.is_empty());
        assert_eq!(c.len(), c.steps().len());
        assert_eq!(c.steps()[0], 39);
        assert_eq!(*c.steps().last().unwrap(), 0);
        for (i, &t) in c.steps().iter().enumerate() {
            let ab = schedule.alpha_bar(t);
            assert_eq!(c.sqrt_ab[i].to_bits(), ab.sqrt().to_bits());
            assert_eq!(c.sqrt_one_minus_ab[i].to_bits(), (1.0f32 - ab).sqrt().to_bits());
        }
    }
}
