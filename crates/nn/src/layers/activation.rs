//! Element-wise activation functions.

use super::{Layer, Param};
use crate::tensor::Tensor;
use crate::{simd, workspace};

/// The supported activation nonlinearities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.2 for negative inputs (GAN default in the paper).
    LeakyRelu,
    /// Gaussian error linear unit (tanh approximation), the paper's choice
    /// for autoencoders and diffusion backbones (§V-A). Evaluated through
    /// the repo-owned [`simd::tanh`], never the host's libm.
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

const LEAKY_SLOPE: f32 = 0.2;

impl ActivationKind {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    LEAKY_SLOPE * x
                }
            }
            ActivationKind::Gelu => simd::gelu(x),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative of the activation at `x`.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::LeakyRelu => {
                if x >= 0.0 {
                    1.0
                } else {
                    LEAKY_SLOPE
                }
            }
            ActivationKind::Gelu => simd::gelu_grad(x),
            ActivationKind::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            ActivationKind::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
        }
    }
}

/// Stateless element-wise activation layer.
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
    /// What `backward` needs from `forward`: GELU's derivative, which the
    /// forward pass computes from the `tanh` it evaluates anyway, and the
    /// input for every other kind.
    cache: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, cache: None }
    }

    /// The nonlinearity this layer applies.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        if self.kind == ActivationKind::Gelu {
            let deriv = workspace::cache_slot(&mut self.cache, input.rows(), input.cols());
            return input.gelu_train(deriv);
        }
        workspace::cache_assign(&mut self.cache, input);
        self.infer(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        match self.kind {
            ActivationKind::Gelu => input.gelu(),
            kind => input.map(|v| kind.apply(v)),
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache =
            self.cache.as_ref().expect("Activation::backward called without a cached forward pass");
        match self.kind {
            ActivationKind::Gelu => grad_output.gelu_backward(cache),
            kind => grad_output.zip_with(cache, |g, x| g * kind.derivative(x)),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_clamps_negatives() {
        let a = Activation::new(ActivationKind::Relu);
        let x = Tensor::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        assert_eq!(a.infer(&x).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0, GELU(x) -> x for large x, GELU(-x) -> 0.
        let g = ActivationKind::Gelu;
        assert!(g.apply(0.0).abs() < 1e-7);
        assert!((g.apply(10.0) - 10.0).abs() < 1e-3);
        assert!(g.apply(-10.0).abs() < 1e-3);
        // Reference value from the tanh approximation: GELU(1) ~ 0.8412.
        assert!((g.apply(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn sigmoid_is_bounded_and_centred() {
        let s = ActivationKind::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-7);
        assert!(s.apply(50.0) <= 1.0 && s.apply(-50.0) >= 0.0);
    }

    #[test]
    fn all_kinds_pass_gradcheck() {
        let mut rng = StdRng::seed_from_u64(11);
        for kind in [
            ActivationKind::LeakyRelu,
            ActivationKind::Gelu,
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
        ] {
            let mut layer = Activation::new(kind);
            // Keep inputs away from ReLU kinks for stable finite differences.
            let x = crate::init::randn(4, 6, &mut rng).map(|v| v * 0.9 + 0.05);
            gradcheck::check_input_grad(&mut layer, &x, 2e-2);
        }
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let k = ActivationKind::LeakyRelu;
        assert_eq!(k.apply(-10.0), -2.0);
        assert_eq!(k.derivative(-1.0), 0.2);
        assert_eq!(k.derivative(1.0), 1.0);
    }
}
