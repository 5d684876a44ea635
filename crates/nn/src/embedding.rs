//! Sinusoidal timestep embeddings for diffusion backbones.

/// Writes the transformer-style sinusoidal embedding of diffusion timestep
/// `t` into `out`, whose length is the embedding width `dim`:
/// `out[2k] = sin(t / 10000^(2k/dim))`, cosine in odd slots.
///
/// # Panics
/// Panics if `out.len()` is zero or odd.
pub fn timestep_embedding(t: usize, out: &mut [f32]) {
    let dim = out.len();
    assert!(dim >= 2 && dim.is_multiple_of(2), "embedding dim must be even and >= 2");
    let half = dim / 2;
    for k in 0..half {
        let freq = (-(k as f64) * (10_000f64).ln() / half as f64).exp();
        let angle = t as f64 * freq;
        out[2 * k] = angle.sin() as f32;
        out[2 * k + 1] = angle.cos() as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embed(t: usize, dim: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; dim];
        timestep_embedding(t, &mut out);
        out
    }

    #[test]
    fn zero_timestep_is_cosine_one() {
        let e = embed(0, 8);
        for k in 0..4 {
            assert_eq!(e[2 * k], 0.0);
            assert_eq!(e[2 * k + 1], 1.0);
        }
    }

    #[test]
    fn distinct_timesteps_get_distinct_embeddings() {
        assert_ne!(embed(1, 16), embed(2, 16));
        assert_ne!(embed(2, 16), embed(100, 16));
    }

    #[test]
    fn values_are_bounded() {
        for t in [0, 50, 199] {
            assert!(embed(t, 32).iter().all(|&v| (-1.0..=1.0).contains(&v)));
        }
    }

    #[test]
    #[should_panic(expected = "embedding dim")]
    fn odd_dim_rejected() {
        let _ = embed(1, 7);
    }
}
