//! Layer normalisation.

use super::{Layer, Param};
use crate::tensor::Tensor;

const EPS: f32 = 1e-5;

/// Layer normalisation over the feature dimension of each row, with learned
/// per-feature scale (`gamma`) and shift (`beta`).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    /// Cache: normalised input `x_hat`, plus per-row `1/std`.
    cache: Option<(Tensor, Vec<f32>)>,
}

/// Hands back a training cache's storage for reuse: the old `x_hat` goes
/// to the workspace arena and its `1/std` vector is returned.
fn reclaim(cache: &mut Option<(Tensor, Vec<f32>)>) -> Vec<f32> {
    cache.take().map_or_else(Vec::new, |(x_hat, inv_stds)| {
        crate::workspace::recycle(x_hat);
        inv_stds
    })
}

impl LayerNorm {
    /// Creates a LayerNorm over `dim` features (gamma = 1, beta = 0).
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::full(1, dim, 1.0)),
            beta: Param::new(Tensor::zeros(1, dim)),
            cache: None,
        }
    }

    /// Normalises every row of `input` into `x_hat` (one `1/std` per row
    /// written to `inv_stds`) and returns the scaled, shifted output.
    fn normalize(&self, input: &Tensor, x_hat: &mut Tensor, inv_stds: &mut Vec<f32>) -> Tensor {
        let (rows, cols) = input.shape();
        assert_eq!(cols, self.gamma.value.cols(), "LayerNorm dim mismatch");
        inv_stds.clear();
        inv_stds.reserve(rows);
        let mut out = crate::workspace::take(rows, cols);
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        for r in 0..rows {
            let row = input.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + EPS).sqrt();
            inv_stds.push(inv_std);
            let xh_row = x_hat.row_mut(r);
            for (c, (o, &v)) in xh_row.iter_mut().zip(row.iter()).enumerate() {
                *o = (v - mean) * inv_std;
                out[(r, c)] = *o * gamma[c] + beta[c];
            }
        }
        out
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x_hat = crate::workspace::take(input.rows(), input.cols());
        let mut inv_stds = reclaim(&mut self.cache);
        let out = self.normalize(input, &mut x_hat, &mut inv_stds);
        self.cache = Some((x_hat, inv_stds));
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let mut x_hat = crate::workspace::take(input.rows(), input.cols());
        let out = self.normalize(input, &mut x_hat, &mut Vec::new());
        crate::workspace::recycle(x_hat);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (x_hat, inv_stds) =
            self.cache.as_ref().expect("LayerNorm::backward called without a cached forward pass");
        let (rows, cols) = grad_output.shape();
        let n = cols as f32;

        // Parameter grads: dgamma = sum_r g * x_hat ; dbeta = sum_r g.
        for r in 0..rows {
            let g_row = grad_output.row(r);
            let xh_row = x_hat.row(r);
            for c in 0..cols {
                self.gamma.grad.as_mut_slice()[c] += g_row[c] * xh_row[c];
                self.beta.grad.as_mut_slice()[c] += g_row[c];
            }
        }

        // Input grad, standard LayerNorm backward:
        // dx = (1/std) * (dxhat - mean(dxhat) - x_hat * mean(dxhat * x_hat))
        let gamma = self.gamma.value.as_slice();
        let mut out = crate::workspace::take(rows, cols);
        for (r, &inv_std) in inv_stds.iter().enumerate().take(rows) {
            let g_row = grad_output.row(r);
            let xh_row = x_hat.row(r);
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for c in 0..cols {
                let dxhat = g_row[c] * gamma[c];
                sum_dxhat += dxhat;
                sum_dxhat_xhat += dxhat * xh_row[c];
            }
            let mean_dxhat = sum_dxhat / n;
            let mean_dxhat_xhat = sum_dxhat_xhat / n;
            for c in 0..cols {
                let dxhat = g_row[c] * gamma[c];
                out.row_mut(r)[c] = inv_std * (dxhat - mean_dxhat - xh_row[c] * mean_dxhat_xhat);
            }
        }
        out
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn layernorm_output_is_normalised() {
        let ln = LayerNorm::new(8);
        let mut rng = StdRng::seed_from_u64(5);
        let x = crate::init::randn(4, 8, &mut rng).scale(3.0);
        let y = ln.infer(&x);
        for r in 0..4 {
            let row = y.row(r);
            let mean = row.iter().sum::<f32>() / 8.0;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut ln = LayerNorm::new(5);
        let mut rng = StdRng::seed_from_u64(6);
        // Randomise gamma/beta so the test isn't at the identity point.
        ln.visit_params(&mut |p| {
            for v in p.value.as_mut_slice() {
                *v += 0.3;
            }
        });
        let x = crate::init::randn(3, 5, &mut rng);
        gradcheck::check_input_grad(&mut ln, &x, 3e-2);
        gradcheck::check_param_grads(&mut ln, &x, 3e-2);
    }
}
