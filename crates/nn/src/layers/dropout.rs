//! Inverted dropout.

use super::{Layer, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Inverted dropout: zeroes each element with probability `p` during
/// training and scales the survivors by `1/(1-p)`; identity at inference.
///
/// The layer owns its RNG (seeded at construction) so whole networks stay
/// bit-for-bit reproducible without threading RNGs through every forward.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    /// The integer form of the keep test `rng.gen::<f32>() < 1 − p`
    /// (see [`rand::f32_below_threshold`]).
    threshold: u64,
    rng: StdRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` in `[0, 1)`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
        Self {
            p,
            threshold: rand::f32_below_threshold(1.0 - p),
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        if self.p == 0.0 {
            if let Some(mask) = self.mask.take() {
                crate::workspace::recycle(mask);
            }
            return self.infer(input);
        }
        let scale = 1.0 / (1.0 - self.p);
        // Reuse last step's mask buffer; the RNG is drawn in row-major
        // order either way, so resume streams stay bit-identical.
        let mut mask = match self.mask.take() {
            Some(m) if m.shape() == input.shape() => m,
            other => {
                if let Some(m) = other {
                    crate::workspace::recycle(m);
                }
                crate::workspace::take(input.rows(), input.cols())
            }
        };
        crate::backend::timed(crate::backend::DROPOUT_COUNTERS, || {
            crate::simd::dropout_mask(&mut self.rng, self.threshold, scale, mask.as_mut_slice());
        });
        let out = input.mul(&mask);
        self.mask = Some(mask);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        crate::workspace::take_copy(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => grad_output.mul(mask),
            None => crate::workspace::take_copy(grad_output),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_rngs(&mut self, f: &mut dyn FnMut(&mut StdRng)) {
        f(&mut self.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_is_identity() {
        let d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.infer(&x), x);
    }

    #[test]
    fn train_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::full(200, 50, 1.0);
        let y = d.forward(&x);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::full(4, 4, 1.0);
        let y = d.forward(&x);
        let g = d.backward(&Tensor::full(4, 4, 1.0));
        // Gradient must be zero exactly where the output was zero.
        for (yi, gi) in y.as_slice().iter().zip(g.as_slice().iter()) {
            assert_eq!(*yi == 0.0, *gi == 0.0);
        }
    }

    /// The mask is the per-element keep test `gen::<f32>() < 1 − p` on the
    /// layer's draws, and the layer's generator ends where those draws
    /// leave it, so a checkpoint resumes on the same stream.
    #[test]
    fn mask_is_the_per_element_keep_test() {
        use rand::Rng;
        let mut d = Dropout::new(0.1, 5);
        let mut draws = d.rng.clone();
        let x = Tensor::from_fn(192, 128, |r, c| (r * 128 + c) as f32 * 0.01 - 3.0);
        let y = d.forward(&x);
        let keep = 1.0 - 0.1f32;
        for (i, (&xi, &yi)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            let m = if draws.gen::<f32>() < keep { 1.0 / keep } else { 0.0 };
            assert_eq!((xi * m).to_bits(), yi.to_bits(), "element {i}");
        }
        assert_eq!(draws.state(), d.rng.state());
    }

    #[test]
    fn zero_probability_never_drops() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::full(8, 8, 2.0);
        assert_eq!(d.forward(&x), x);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0, 0);
    }
}
