//! Normalisation layers: LayerNorm and BatchNorm1d.

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

/// Batch normalisation over the batch dimension, with running statistics for
/// inference.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    /// Cache: normalised input, per-column inv-std, centred input.
    cache: Option<(Tensor, Vec<f32>)>,
}

impl BatchNorm1d {
    /// Creates a BatchNorm over `dim` features with momentum 0.1.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::full(1, dim, 1.0)),
            beta: Param::new(Tensor::zeros(1, dim)),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.1,
            cache: None,
        }
    }

    /// Per-column batch mean and variance of `input` in pooled scratch
    /// rows, folded into the running statistics.
    fn batch_stats(&mut self, input: &Tensor) -> (Tensor, Tensor) {
        let (rows, cols) = input.shape();
        let mut means = crate::workspace::take(1, cols);
        input.sum_rows_into(means.as_mut_slice());
        for v in means.as_mut_slice() {
            *v /= rows as f32;
        }
        let mut vars = crate::workspace::take_zeroed(1, cols);
        for r in 0..rows {
            for ((&v, &m), out) in
                input.row(r).iter().zip(means.as_slice()).zip(vars.as_mut_slice())
            {
                let d = v - m;
                *out += d * d;
            }
        }
        for v in vars.as_mut_slice() {
            *v /= rows as f32;
        }
        for c in 0..cols {
            self.running_mean[c] =
                (1.0 - self.momentum) * self.running_mean[c] + self.momentum * means.as_slice()[c];
            self.running_var[c] =
                (1.0 - self.momentum) * self.running_var[c] + self.momentum * vars.as_slice()[c];
        }
        (means, vars)
    }

    /// Normalises `input` column-wise with `means`/`vars` into `x_hat`
    /// (one `1/std` per column written to `inv_stds`) and returns the
    /// scaled, shifted output.
    fn normalize(
        &self,
        input: &Tensor,
        means: &[f32],
        vars: &[f32],
        x_hat: &mut Tensor,
        inv_stds: &mut Vec<f32>,
    ) -> Tensor {
        let (rows, cols) = input.shape();
        assert_eq!(cols, self.gamma.value.cols(), "BatchNorm dim mismatch");
        inv_stds.clear();
        inv_stds.extend(vars.iter().map(|&v| 1.0 / (v + EPS).sqrt()));
        let mut out = crate::workspace::take(rows, cols);
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        for r in 0..rows {
            let xh_row = x_hat.row_mut(r);
            for (c, (o, &v)) in xh_row.iter_mut().zip(input.row(r).iter()).enumerate() {
                *o = (v - means[c]) * inv_stds[c];
                out[(r, c)] = *o * gamma[c] + beta[c];
            }
        }
        out
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (rows, cols) = input.shape();
        assert_eq!(cols, self.gamma.value.cols(), "BatchNorm dim mismatch");
        // A single-row batch has no batch statistics and normalises with
        // the running ones instead.
        let stats = (rows > 1).then(|| self.batch_stats(input));
        let mut inv_stds = reclaim(&mut self.cache);
        let mut x_hat = crate::workspace::take(rows, cols);
        let (means, vars) = match &stats {
            Some((m, v)) => (m.as_slice(), v.as_slice()),
            None => (self.running_mean.as_slice(), self.running_var.as_slice()),
        };
        let out = self.normalize(input, means, vars, &mut x_hat, &mut inv_stds);
        if let Some((means, vars)) = stats {
            crate::workspace::recycle(means);
            crate::workspace::recycle(vars);
        }
        self.cache = Some((x_hat, inv_stds));
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let mut x_hat = crate::workspace::take(input.rows(), input.cols());
        let out = self.normalize(
            input,
            &self.running_mean,
            &self.running_var,
            &mut x_hat,
            &mut Vec::new(),
        );
        crate::workspace::recycle(x_hat);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (x_hat, inv_stds) = self
            .cache
            .as_ref()
            .expect("BatchNorm1d::backward called without a cached forward pass");
        let (rows, cols) = grad_output.shape();
        let n = rows as f32;
        let gamma = self.gamma.value.as_slice();

        let mut sum_dxhat = crate::workspace::take_zeroed(1, cols);
        let mut sum_dxhat_xhat = crate::workspace::take_zeroed(1, cols);
        for r in 0..rows {
            let g_row = grad_output.row(r);
            let xh_row = x_hat.row(r);
            for c in 0..cols {
                let dxhat = g_row[c] * gamma[c];
                sum_dxhat.as_mut_slice()[c] += dxhat;
                sum_dxhat_xhat.as_mut_slice()[c] += dxhat * xh_row[c];
                self.gamma.grad.as_mut_slice()[c] += g_row[c] * xh_row[c];
                self.beta.grad.as_mut_slice()[c] += g_row[c];
            }
        }

        let mut out = crate::workspace::take(rows, cols);
        for r in 0..rows {
            let g_row = grad_output.row(r);
            let xh_row = x_hat.row(r);
            for c in 0..cols {
                let dxhat = g_row[c] * gamma[c];
                out.row_mut(r)[c] = inv_stds[c] / n
                    * (n * dxhat
                        - sum_dxhat.as_slice()[c]
                        - xh_row[c] * sum_dxhat_xhat.as_slice()[c]);
            }
        }
        crate::workspace::recycle(sum_dxhat);
        crate::workspace::recycle(sum_dxhat_xhat);
        out
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
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

    #[test]
    fn batchnorm_train_normalises_columns() {
        let mut bn = BatchNorm1d::new(3);
        let mut rng = StdRng::seed_from_u64(8);
        let x = crate::init::randn(64, 3, &mut rng).map(|v| v * 2.0 + 5.0);
        let y = bn.forward(&x);
        let means = y.mean_rows();
        for m in means {
            assert!(m.abs() < 1e-4, "column mean {m}");
        }
    }

    #[test]
    fn batchnorm_infer_uses_running_stats() {
        let mut bn = BatchNorm1d::new(2);
        let mut rng = StdRng::seed_from_u64(8);
        // Train a while so running stats converge toward the data stats.
        for _ in 0..200 {
            let x = crate::init::randn(32, 2, &mut rng).map(|v| v * 2.0 + 5.0);
            let _ = bn.forward(&x);
        }
        let x = crate::init::randn(16, 2, &mut rng).map(|v| v * 2.0 + 5.0);
        let y = bn.infer(&x);
        // Roughly standardised under running stats.
        let m = y.mean();
        assert!(m.abs() < 0.5, "mean {m}");
    }

    #[test]
    fn batchnorm_gradcheck() {
        let mut bn = BatchNorm1d::new(4);
        let mut rng = StdRng::seed_from_u64(10);
        let x = crate::init::randn(6, 4, &mut rng);
        gradcheck::check_input_grad(&mut bn, &x, 5e-2);
        gradcheck::check_param_grads(&mut bn, &x, 5e-2);
    }
}
