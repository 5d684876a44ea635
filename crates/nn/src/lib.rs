//! # silofuse-nn
//!
//! A from-scratch, dependency-light neural network substrate for the
//! SiloFuse reproduction: dense `f32` tensors, layers with explicit manual
//! backpropagation, losses, and the Adam optimizer.
//!
//! The crate deliberately implements *exactly* what the paper's models need —
//! MLPs with GELU, LeakyReLU GAN stacks, Conv1d, LayerNorm, dropout, an
//! embedding-gather input layer that reads categorical columns as sparse
//! index+value batches, Adam — with each layer caching its forward
//! activations and exposing a `backward` that returns the gradient with
//! respect to its input. That compositionality is what makes the end-to-end distributed
//! baseline (E2EDistr) possible: gradients flow decoder → diffusion backbone
//! → encoder across simulated silo boundaries.
//!
//! Every layer has two passes: `forward(&mut self)` is the training pass
//! that feeds `backward`, and `infer(&self)` is the inference pass, which
//! only reads the weights so threads can share one trained network.
//!
//! ## Example
//!
//! ```
//! use silofuse_nn::layers::{mlp, Layer};
//! use silofuse_nn::optim::Adam;
//! use silofuse_nn::{loss, init};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = mlp(&[4, 32, 1], None, 0, &mut rng);
//! let mut opt = Adam::new(1e-2);
//! let x = init::randn(64, 4, &mut rng);
//! let target = x.slice_cols(0, 1).map(|v| v * 0.5);
//! for _ in 0..50 {
//!     net.zero_grad();
//!     let pred = net.forward(&x);
//!     let (_l, grad) = loss::mse(&pred, &target);
//!     net.backward(&grad);
//!     opt.step(&mut net);
//! }
//! let fitted = net.infer(&x);
//! assert_eq!(fitted.shape(), (64, 1));
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod embedding;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod pool;
pub mod serialize;
pub mod simd;
pub mod sparse;
pub mod tensor;
pub mod workspace;

pub use layers::mlp;
pub use tensor::Tensor;
