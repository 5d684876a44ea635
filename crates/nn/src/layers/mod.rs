//! Neural-network layers with explicit, cached backpropagation.
//!
//! Every layer implements [`Layer`] with two passes. The training pass
//! `forward(&mut self)` caches whatever `backward` needs and draws dropout
//! masks; `backward` consumes
//! the most recent cache and returns the gradient with respect to the
//! layer's input so stacks compose (this is what lets the end-to-end
//! SiloFuse baselines push gradients decoder → diffusion → encoder).
//! Parameter gradients are *accumulated*; call [`Layer::zero_grad`] before
//! each optimisation step. The inference pass `infer(&self)` only reads
//! the parameters, so any number of threads can run one shared model at
//! once.

mod activation;
mod conv;
mod dropout;
mod embedding_gather;
mod linear;
mod norm;
mod sequential;

pub use activation::{Activation, ActivationKind};
pub use conv::Conv1d;
pub use dropout::Dropout;
pub use embedding_gather::EmbeddingGather;
pub use linear::Linear;
pub use norm::LayerNorm;
pub use sequential::{mlp, mlp_with, Sequential};

use crate::sparse::SparseBatchRef;
use crate::tensor::Tensor;

/// A trainable parameter: current value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.rows(), value.cols());
        Self { value, grad }
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.scale_assign(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable layer over batches of row vectors.
pub trait Layer {
    /// Training pass: computes outputs from `input`, caching intermediates
    /// for `backward`. Stochastic layers draw from their own RNG here
    /// ([`Dropout`]).
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Inference pass: computes outputs from `input` reading only the
    /// parameters. Deterministic ([`Dropout`] is the identity), cache-free,
    /// and otherwise bit-identical to [`Layer::forward`].
    fn infer(&self, input: &Tensor) -> Tensor;

    /// Backpropagates `grad_output` through the most recent `forward`,
    /// accumulating parameter gradients and returning `dLoss/dInput`.
    ///
    /// # Panics
    /// May panic if called without a preceding `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Attempts a training pass over a sparse one-hot batch. Layers without
    /// a sparse input path return `None` (the default);
    /// [`EmbeddingGather`] consumes the batch, and [`Sequential`] delegates
    /// to its first layer.
    fn try_forward_sparse(&mut self, batch: SparseBatchRef<'_>) -> Option<Tensor> {
        let _ = batch;
        None
    }

    /// The inference twin of [`Layer::try_forward_sparse`].
    fn try_infer_sparse(&self, batch: SparseBatchRef<'_>) -> Option<Tensor> {
        let _ = batch;
        None
    }

    /// Visits every trainable parameter (stable order across calls).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every internal random stream the layer owns (stable order).
    ///
    /// Stochastic layers ([`Dropout`]) expose their generator here so that
    /// a training-state checkpoint can snapshot and restore the exact
    /// random stream; deterministic layers keep the default no-op.
    fn visit_rngs(&mut self, _f: &mut dyn FnMut(&mut rand::rngs::StdRng)) {}

    /// Zeroes all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use super::Layer;
    use crate::tensor::Tensor;

    /// Checks `dLoss/dInput` of `layer` against central finite differences
    /// for the scalar loss `sum(forward(x))`.
    pub fn check_input_grad(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let y = layer.forward(x);
        let grad_out = Tensor::full(y.rows(), y.cols(), 1.0);
        let analytic = layer.backward(&grad_out);

        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = layer.forward(&xp).sum();
            let fm = layer.forward(&xm).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let got = analytic.as_slice()[i];
            assert!(
                (numeric - got).abs() <= tol * (1.0 + numeric.abs()),
                "input grad mismatch at {i}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    /// Checks parameter gradients of `layer` against central finite
    /// differences for the scalar loss `sum(forward(x))`.
    pub fn check_param_grads(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        layer.zero_grad();
        let y = layer.forward(x);
        let grad_out = Tensor::full(y.rows(), y.cols(), 1.0);
        let _ = layer.backward(&grad_out);

        // Snapshot analytic grads.
        let mut analytic: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |p| analytic.push(p.grad.as_slice().to_vec()));

        let eps = 1e-3f32;
        let mut param_idx = 0;
        // For each parameter tensor, perturb each element.
        loop {
            let mut n_params = 0;
            layer.visit_params(&mut |_| n_params += 1);
            if param_idx >= n_params {
                break;
            }
            let len = {
                let mut l = 0;
                let mut i = 0;
                layer.visit_params(&mut |p| {
                    if i == param_idx {
                        l = p.len();
                    }
                    i += 1;
                });
                l
            };
            #[allow(clippy::needless_range_loop)]
            for e in 0..len {
                let perturb = |layer: &mut dyn Layer, delta: f32| {
                    let mut i = 0;
                    layer.visit_params(&mut |p| {
                        if i == param_idx {
                            p.value.as_mut_slice()[e] += delta;
                        }
                        i += 1;
                    });
                };
                perturb(layer, eps);
                let fp = layer.forward(x).sum();
                perturb(layer, -2.0 * eps);
                let fm = layer.forward(x).sum();
                perturb(layer, eps);
                let numeric = (fp - fm) / (2.0 * eps);
                let got = analytic[param_idx][e];
                assert!(
                    (numeric - got).abs() <= tol * (1.0 + numeric.abs()),
                    "param {param_idx} grad mismatch at {e}: numeric {numeric} vs analytic {got}"
                );
            }
            param_idx += 1;
        }
    }
}
