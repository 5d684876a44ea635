//! The denoising neural backbone.

use rand::Rng;
use silofuse_nn::embedding::timestep_embedding;
use silofuse_nn::layers::{mlp, Layer, Sequential};
use silofuse_nn::{workspace, Tensor};

/// Architecture hyperparameters for a [`DiffusionBackbone`].
#[derive(Debug, Clone, Copy)]
pub struct BackboneConfig {
    /// Width of the data the backbone denoises.
    pub data_dim: usize,
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Number of hidden layers (the paper's diffusion backbone uses 8
    /// GELU layers; TabDDPM's MLP uses 6 layers of width 256).
    pub depth: usize,
    /// Sinusoidal time-embedding width (must be even).
    pub time_embed_dim: usize,
    /// Dropout probability between hidden layers (paper: 0.01).
    pub dropout: f32,
    /// Width of the backbone's output (usually `data_dim`; TabDDPM uses
    /// `n_numeric + sum(cardinalities)` logits).
    pub out_dim: usize,
}

impl BackboneConfig {
    /// The paper's §V-A diffusion backbone for latent models: 8 layers,
    /// GELU, dropout 0.01.
    pub fn paper_latent(data_dim: usize, hidden_dim: usize) -> Self {
        Self {
            data_dim,
            hidden_dim,
            depth: 8,
            time_embed_dim: 16,
            dropout: 0.01,
            out_dim: data_dim,
        }
    }

    /// TabDDPM's backbone: 6-layer MLP with hidden width 256.
    pub fn paper_tabddpm(data_dim: usize, out_dim: usize) -> Self {
        Self { data_dim, hidden_dim: 256, depth: 6, time_embed_dim: 16, dropout: 0.0, out_dim }
    }
}

/// An MLP that maps `[x_t ‖ time_embed(t)]` to a denoising prediction.
///
/// The backbone exposes a backward pass returning the gradient with respect
/// to `x_t` (the time-embedding slice is discarded), which is what the
/// end-to-end baselines propagate into the encoders.
pub struct DiffusionBackbone {
    net: Sequential,
    config: BackboneConfig,
}

impl std::fmt::Debug for DiffusionBackbone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DiffusionBackbone({:?})", self.config)
    }
}

impl DiffusionBackbone {
    /// Builds the backbone with seeded initialisation.
    pub fn new(config: BackboneConfig, seed: u64, rng: &mut impl Rng) -> Self {
        let mut dims = Vec::with_capacity(config.depth + 2);
        dims.push(config.data_dim + config.time_embed_dim);
        for _ in 0..config.depth {
            dims.push(config.hidden_dim);
        }
        dims.push(config.out_dim);
        let dropout = (config.dropout > 0.0).then_some(config.dropout);
        Self { net: mlp(&dims, dropout, seed, rng), config }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &BackboneConfig {
        &self.config
    }

    /// Training pass: predicts from noisy data `x_t` and per-row timesteps
    /// `t`, caching activations for [`DiffusionBackbone::backward_to_input`].
    ///
    /// # Panics
    /// Panics if `t.len() != x_t.rows()` or `x_t.cols() != data_dim`.
    pub fn predict(&mut self, x_t: &Tensor, t: &[usize]) -> Tensor {
        let input = self.network_input(x_t, t);
        let out = self.net.forward(&input);
        workspace::recycle(input);
        out
    }

    /// Inference pass: [`DiffusionBackbone::predict`] without caches or
    /// dropout, through a shared borrow.
    ///
    /// # Panics
    /// Panics if `t.len() != x_t.rows()` or `x_t.cols() != data_dim`.
    pub fn infer(&self, x_t: &Tensor, t: &[usize]) -> Tensor {
        let input = self.network_input(x_t, t);
        let out = self.net.infer(&input);
        workspace::recycle(input);
        out
    }

    /// Assembles the network input `[x_t ‖ emb(t)]` in one workspace
    /// buffer; a row whose timestep repeats the previous row's copies that
    /// row's embedding (while sampling, every row shares `t`).
    fn network_input(&self, x_t: &Tensor, t: &[usize]) -> Tensor {
        assert_eq!(t.len(), x_t.rows(), "one timestep per row");
        let d = self.config.data_dim;
        assert_eq!(x_t.cols(), d, "backbone data width mismatch");
        let width = d + self.config.time_embed_dim;
        let mut input = workspace::take(x_t.rows(), width);
        let data = input.as_mut_slice();
        for (r, &t_r) in t.iter().enumerate() {
            let row = r * width;
            data[row..row + d].copy_from_slice(x_t.row(r));
            if r > 0 && t[r - 1] == t_r {
                data.copy_within(row - width + d..row, row + d);
            } else {
                timestep_embedding(t_r, &mut data[row + d..row + width]);
            }
        }
        input
    }

    /// Backpropagates through the latest `predict`, accumulating parameter
    /// gradients and returning `dLoss/dx_t`.
    pub fn backward_to_input(&mut self, grad_output: &Tensor) -> Tensor {
        let grad_full = self.net.backward(grad_output);
        let grad = grad_full.slice_cols(0, self.config.data_dim);
        workspace::recycle(grad_full);
        grad
    }

    /// Accesses the underlying network for optimisation.
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// Total parameter count.
    pub fn param_count(&mut self) -> usize {
        self.net.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use silofuse_nn::init::randn;

    #[test]
    fn predict_shape_matches_out_dim() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = BackboneConfig {
            data_dim: 6,
            hidden_dim: 32,
            depth: 2,
            time_embed_dim: 8,
            dropout: 0.0,
            out_dim: 10,
        };
        let bb = DiffusionBackbone::new(cfg, 0, &mut rng);
        let x = randn(4, 6, &mut rng);
        let y = bb.infer(&x, &[0, 1, 2, 3]);
        assert_eq!(y.shape(), (4, 10));
    }

    #[test]
    fn backward_returns_data_width_grad() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = BackboneConfig::paper_latent(5, 16);
        let mut bb = DiffusionBackbone::new(cfg, 1, &mut rng);
        let x = randn(3, 5, &mut rng);
        let y = bb.predict(&x, &[7, 8, 9]);
        let g = bb.backward_to_input(&Tensor::full(y.rows(), y.cols(), 1.0));
        assert_eq!(g.shape(), (3, 5));
        assert!(g.all_finite());
    }

    #[test]
    fn different_timesteps_change_prediction() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = BackboneConfig::paper_latent(4, 16);
        let bb = DiffusionBackbone::new(cfg, 2, &mut rng);
        let x = randn(1, 4, &mut rng);
        let y0 = bb.infer(&x, &[0]);
        let y9 = bb.infer(&x, &[99]);
        assert_ne!(y0, y9);
    }

    #[test]
    fn paper_latent_config_has_eight_hidden_layers() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = BackboneConfig::paper_latent(10, 64);
        let mut bb = DiffusionBackbone::new(cfg, 3, &mut rng);
        // depth 8 hidden layers -> 9 Linear layers; params:
        // (10+16)*64+64 + 7*(64*64+64) + 64*10+10
        let expected = (10 + 16) * 64 + 64 + 7 * (64 * 64 + 64) + 64 * 10 + 10;
        assert_eq!(bb.param_count(), expected);
    }
}
