//! Seeded weight initialisation schemes.

use crate::tensor::Tensor;
use rand::distributions::Distribution;
use rand::Rng;

/// Weight initialisation strategy for linear/conv layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    /// Suited to tanh/GELU-style activations.
    XavierUniform,
    /// Kaiming/He normal: `N(0, 2 / fan_in)`. Suited to ReLU-family activations.
    KaimingNormal,
    /// Standard normal scaled by `0.02` (GPT-style), useful for output heads.
    ScaledNormal,
}

impl Init {
    /// Samples a `fan_out x fan_in`-shaped weight matrix stored as
    /// `(in, out)`: rows index input features, columns output features,
    /// matching `x.matmul(w)` in the layers.
    pub fn sample(self, fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
        match self {
            Init::XavierUniform => {
                let a = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
                Tensor::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-a..=a))
            }
            Init::KaimingNormal => {
                let std = (2.0 / fan_in as f64).sqrt() as f32;
                let normal = rand::distributions::Standard;
                Tensor::from_fn(fan_in, fan_out, |_, _| {
                    let (u1, u2): (f64, f64) = (normal.sample(rng), normal.sample(rng));
                    gaussian(u1, u2) * std
                })
            }
            Init::ScaledNormal => {
                let normal = rand::distributions::Standard;
                Tensor::from_fn(fan_in, fan_out, |_, _| {
                    let (u1, u2): (f64, f64) = (normal.sample(rng), normal.sample(rng));
                    gaussian(u1, u2) * 0.02
                })
            }
        }
    }

    /// A new affine layer's parameters: a `fan_in × fan_out` weight drawn
    /// by [`Init::sample`] and a zero `1 × fan_out` bias.
    pub fn affine(self, fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> (Tensor, Tensor) {
        (self.sample(fan_in, fan_out, rng), Tensor::zeros(1, fan_out))
    }
}

/// Box–Muller transform of two uniforms in `(0, 1]`.
fn gaussian(u1: f64, u2: f64) -> f32 {
    let u1 = u1.max(1e-12);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// Fills a tensor with iid standard normal samples.
pub fn randn(rows: usize, cols: usize, rng: &mut impl Rng) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    randn_fill(t.as_mut_slice(), rng);
    t
}

/// Fills a slice with iid standard normals, consuming the RNG exactly like
/// [`randn`] (two uniforms per value, in order). Filling a buffer row by row
/// from per-row RNGs therefore reproduces the same values a whole-tensor
/// `randn` would draw from each row's RNG — the property the batched
/// sampler's per-row noise streams rely on.
pub fn randn_fill(out: &mut [f32], rng: &mut impl Rng) {
    for v in out {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        *v = gaussian(u1, u2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = Init::XavierUniform.sample(64, 64, &mut rng);
        let a = (6.0f64 / 128.0).sqrt() as f32;
        assert!(w.as_slice().iter().all(|&v| v.abs() <= a));
    }

    #[test]
    fn kaiming_std_is_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = Init::KaimingNormal.sample(256, 256, &mut rng);
        let n = w.len() as f32;
        let mean = w.sum() / n;
        let var = w.as_slice().iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let expected = 2.0 / 256.0;
        assert!((var - expected).abs() < expected * 0.3, "var {var} vs {expected}");
    }

    #[test]
    fn randn_has_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(42);
        let x = randn(200, 50, &mut rng);
        let n = x.len() as f32;
        let mean = x.sum() / n;
        let var = x.as_slice().iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        assert_eq!(
            Init::XavierUniform.sample(8, 8, &mut a),
            Init::XavierUniform.sample(8, 8, &mut b)
        );
    }
}
