//! Fully connected (dense) layer.

use super::{Layer, Param};
use crate::init::Init;
use crate::tensor::Tensor;
use rand::Rng;

/// Affine map `y = x W + b` with `W: in x out`, `b: 1 x out`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with the given fan-in/fan-out and initialiser.
    pub fn new(fan_in: usize, fan_out: usize, init: Init, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(init.sample(fan_in, fan_out, rng)),
            bias: Param::new(Tensor::zeros(1, fan_out)),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn fan_in(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output feature count.
    pub fn fan_out(&self) -> usize {
        self.weight.value.cols()
    }

    /// Immutable access to the weight matrix (for tests/inspection).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        crate::workspace::cache_assign(&mut self.cached_input, input);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let mut out = input.matmul(&self.weight.value);
        out.add_row_broadcast(self.bias.value.as_slice());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called without a cached forward pass");
        // dW = x^T g ; db = sum_rows(g) ; dx = g W^T
        let dw = input.transpose_matmul(grad_output);
        self.weight.grad.add_assign(&dw);
        crate::workspace::recycle(dw);
        let mut db = crate::workspace::take(1, grad_output.cols());
        grad_output.sum_rows_into(db.as_mut_slice());
        self.bias.grad.add_assign(&db);
        crate::workspace::recycle(db);
        grad_output.matmul_transpose(&self.weight.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(2, 2, Init::XavierUniform, &mut rng);
        // Overwrite with known weights.
        layer.weight.value = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        layer.bias.value = Tensor::from_vec(1, 2, vec![0.5, -0.5]);
        let x = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.infer(&x);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(4, 3, Init::XavierUniform, &mut rng);
        let x = crate::init::randn(5, 4, &mut rng);
        gradcheck::check_input_grad(&mut layer, &x, 1e-2);
        gradcheck::check_param_grads(&mut layer, &x, 1e-2);
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Linear::new(2, 2, Init::XavierUniform, &mut rng);
        let x = crate::init::randn(3, 2, &mut rng);
        let y = layer.forward(&x);
        let g = Tensor::full(y.rows(), y.cols(), 1.0);
        let _ = layer.backward(&g);
        let first = layer.weight.grad.clone();
        let _ = layer.forward(&x);
        let _ = layer.backward(&g);
        let doubled = layer.weight.grad.clone();
        assert_eq!(doubled, first.scale(2.0));
        layer.zero_grad();
        assert_eq!(layer.weight.grad.norm_sq(), 0.0);
    }

    #[test]
    fn param_count_is_weights_plus_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Linear::new(10, 7, Init::KaimingNormal, &mut rng);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
    }
}
