//! Adam, the optimizer every model trains with.

use crate::backend::{self, Backend};
use crate::layers::{Layer, Param};
use crate::simd::AdamStep;
use crate::tensor::Tensor;

/// Adam with bias correction (Kingma & Ba), the paper's training optimizer.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard `(0.9, 0.999, 1e-8)` hyperparameters.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Creates Adam with custom betas (GANs often use `beta1 = 0.5`).
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        Self { lr, beta1, beta2, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Applies one update to every parameter of `layer` through the
    /// backend's counted [`Backend::adam`] kernel and leaves the gradients
    /// untouched (call `zero_grad` yourself before the next pass).
    pub fn step(&mut self, layer: &mut dyn Layer) {
        silofuse_observe::count("nn.adam.steps", 1);
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bias1: 1.0 - self.beta1.powi(self.t as i32),
            bias2: 1.0 - self.beta2.powi(self.t as i32),
        };
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        layer.visit_params(&mut |p: &mut Param| {
            if ms.len() <= idx {
                ms.push(Tensor::zeros(p.value.rows(), p.value.cols()));
                vs.push(Tensor::zeros(p.value.rows(), p.value.cols()));
            }
            let (m, v) = (ms[idx].as_mut_slice(), vs[idx].as_mut_slice());
            backend::timed(backend::ADAM_COUNTERS, || {
                backend::get().adam(step, p.value.as_mut_slice(), p.grad.as_slice(), m, v);
            });
            idx += 1;
        });
    }

    /// Snapshots the full optimizer state (hyperparameters, step counter,
    /// first/second moments) for checkpointing.
    pub fn snapshot(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a snapshot taken with [`Adam::snapshot`]. The next
    /// [`Adam::step`] continues bit-for-bit where the snapshotted
    /// optimizer left off.
    pub fn restore(&mut self, state: AdamState) {
        self.lr = state.lr;
        self.beta1 = state.beta1;
        self.beta2 = state.beta2;
        self.eps = state.eps;
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }
}

/// A serializable snapshot of an [`Adam`] optimizer. Empty moment vectors
/// are valid: they describe an optimizer that has not stepped yet (moments
/// are allocated lazily on the first step).
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Completed step count (drives bias correction).
    pub t: u64,
    /// First moments, one tensor per parameter in visit order.
    pub m: Vec<Tensor>,
    /// Second moments, one tensor per parameter in visit order.
    pub v: Vec<Tensor>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::Linear;
    use crate::loss;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trains y = 2x + 1 with a single linear layer.
    fn train_linear(opt: &mut Adam, steps: usize) -> f32 {
        let mut rng = StdRng::seed_from_u64(100);
        let mut layer = Linear::new(1, 1, Init::XavierUniform, &mut rng);
        let x = crate::init::randn(64, 1, &mut rng);
        let target = x.map(|v| 2.0 * v + 1.0);
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            layer.zero_grad();
            let y = layer.forward(&x);
            let (l, g) = loss::mse(&y, &target);
            let _ = layer.backward(&g);
            opt.step(&mut layer);
            last = l;
        }
        last
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut opt = Adam::new(0.05);
        assert!(train_linear(&mut opt, 300) < 1e-3);
    }

    #[test]
    fn adam_snapshot_restore_resumes_bit_identically() {
        let run = |split_at: Option<usize>| {
            let mut rng = StdRng::seed_from_u64(200);
            let mut layer = Linear::new(2, 2, Init::XavierUniform, &mut rng);
            let x = crate::init::randn(16, 2, &mut rng);
            let target = x.map(|v| 3.0 * v - 0.5);
            let mut opt = Adam::new(0.01);
            for step in 0..20 {
                if split_at == Some(step) {
                    let snap = opt.snapshot();
                    let mut fresh = Adam::new(0.999); // wrong lr, must be overwritten
                    fresh.restore(snap);
                    opt = fresh;
                }
                layer.zero_grad();
                let y = layer.forward(&x);
                let (_, g) = loss::mse(&y, &target);
                let _ = layer.backward(&g);
                opt.step(&mut layer);
            }
            let mut out = Vec::new();
            layer.visit_params(&mut |p| out.extend_from_slice(p.value.as_slice()));
            out
        };
        let clean = run(None);
        for split in [0, 1, 7, 19] {
            assert_eq!(clean, run(Some(split)), "split at {split} diverged");
        }
    }
}
