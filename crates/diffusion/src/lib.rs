//! # silofuse-diffusion
//!
//! Denoising diffusion substrate for the SiloFuse reproduction: variance
//! schedules, the Gaussian DDPM used on latent features (paper Eqs. 1, 2, 5),
//! multinomial diffusion for categorical features (TabDDPM's `M^t[v]` loss,
//! Eq. 3), and the MLP denoising backbone with sinusoidal time embeddings.
//!
//! It also holds [`train::TrainLoop`], the one resumable minibatch training
//! loop of the workspace: the latent DDPM here and the autoencoder,
//! TabDDPM and GAN models of `silofuse-models` all train through it, so
//! they share one checkpoint payload format and one resume rule.
//!
//! ## Example: train a tiny Gaussian DDPM
//!
//! ```
//! use silofuse_diffusion::schedule::{NoiseSchedule, ScheduleKind};
//! use silofuse_diffusion::gaussian::{GaussianDiffusion, GaussianDdpm, Parameterization};
//! use silofuse_diffusion::backbone::{BackboneConfig, DiffusionBackbone};
//! use rand::{rngs::StdRng, SeedableRng};
//! use silofuse_nn::init::randn;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let schedule = NoiseSchedule::new(ScheduleKind::Linear, 50);
//! let diffusion = GaussianDiffusion::new(schedule, Parameterization::PredictX0);
//! let backbone = DiffusionBackbone::new(
//!     BackboneConfig { data_dim: 3, hidden_dim: 32, depth: 2,
//!                      time_embed_dim: 8, dropout: 0.0, out_dim: 3 },
//!     0, &mut rng);
//! let mut ddpm = GaussianDdpm::new(diffusion, backbone, 1e-3);
//! let data = randn(64, 3, &mut rng);
//! for _ in 0..5 { ddpm.train_step(&data, &mut rng); }
//! let samples = ddpm.sample(16, 10, 1.0, &mut rng);
//! assert_eq!(samples.shape(), (16, 3));
//! ```

#![warn(missing_docs)]

pub mod backbone;
pub mod gaussian;
pub mod multinomial;
pub mod schedule;
pub mod train;

pub use backbone::{BackboneConfig, DiffusionBackbone};
pub use gaussian::{
    ChunkedSampler, GaussianDdpm, GaussianDiffusion, InvalidChunkRows, Parameterization,
    RowRangeOverflow, SampleCoefficients, SampleRequestError,
};
pub use multinomial::MultinomialDiffusion;
pub use schedule::{InvalidInferenceSteps, NoiseSchedule, ScheduleKind};
pub use train::{TrainLoop, TrainState};
