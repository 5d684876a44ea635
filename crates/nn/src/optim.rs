//! First-order optimizers.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;

/// An optimizer steps a network's parameters using gradients accumulated by
/// `Layer::backward`.
pub trait Optimizer {
    /// Applies one update to every parameter of `layer` and leaves the
    /// gradients untouched (call `zero_grad` yourself before the next pass).
    fn step(&mut self, layer: &mut dyn Layer);
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, layer: &mut dyn Layer) {
        let mut idx = 0;
        let lr = self.lr;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        layer.visit_params(&mut |p: &mut Param| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.value.rows(), p.value.cols()));
            }
            let v = &mut velocity[idx];
            if momentum > 0.0 {
                v.scale_assign(momentum);
                v.add_scaled(&p.grad, 1.0);
                p.value.add_scaled(v, -lr);
            } else {
                p.value.add_scaled(&p.grad, -lr);
            }
            idx += 1;
        });
    }
}

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

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
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
    /// [`Optimizer::step`] continues bit-for-bit where the snapshotted
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

impl Optimizer for Adam {
    fn step(&mut self, layer: &mut dyn Layer) {
        silofuse_observe::count("nn.adam.steps", 1);
        self.t += 1;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.lr;
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        layer.visit_params(&mut |p: &mut Param| {
            if ms.len() <= idx {
                ms.push(Tensor::zeros(p.value.rows(), p.value.cols()));
                vs.push(Tensor::zeros(p.value.rows(), p.value.cols()));
            }
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            for ((mi, vi), (&gi, pv)) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice().iter_mut())
                .zip(p.grad.as_slice().iter().zip(p.value.as_mut_slice().iter_mut()))
            {
                *mi = b1 * *mi + (1.0 - b1) * gi;
                *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *pv -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

/// Clips the global L2 norm of all gradients of `layer` to `max_norm`.
/// Returns the pre-clip norm.
///
/// A non-finite norm (any NaN/Inf gradient) zeroes every gradient instead
/// of letting the poisoned scale reach the parameters — `NaN` fails every
/// `>` comparison, so the old code silently skipped clipping and the next
/// optimizer step corrupted the whole network. The non-finite norm is
/// still returned so callers can count the event.
pub fn clip_grad_norm(layer: &mut dyn Layer, max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    layer.visit_params(&mut |p| total += p.grad.norm_sq());
    let norm = total.sqrt();
    if !norm.is_finite() {
        // `scale_assign(0.0)` would keep NaNs alive (NaN * 0 = NaN); overwrite
        // the storage with zeros instead (no allocation).
        layer.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.0));
        return norm;
    }
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        layer.visit_params(&mut |p| p.grad.scale_assign(scale));
    }
    norm
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
    fn train_linear(opt: &mut dyn Optimizer, steps: usize) -> f32 {
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
    fn sgd_converges_on_linear_regression() {
        let mut opt = Sgd::new(0.1, 0.0);
        assert!(train_linear(&mut opt, 300) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges_faster() {
        let mut plain = Sgd::new(0.005, 0.0);
        let mut momentum = Sgd::new(0.005, 0.9);
        let l_plain = train_linear(&mut plain, 80);
        let l_momentum = train_linear(&mut momentum, 80);
        assert!(l_momentum < l_plain, "{l_momentum} !< {l_plain}");
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut opt = Adam::new(0.05);
        assert!(train_linear(&mut opt, 300) < 1e-3);
    }

    #[test]
    fn clip_grad_norm_bounds_norm() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(4, 4, Init::XavierUniform, &mut rng);
        let x = crate::init::randn(8, 4, &mut rng).scale(100.0);
        let y = layer.forward(&x);
        let (_, g) = loss::mse(&y, &y.map(|v| v + 100.0));
        let _ = layer.backward(&g);
        let pre = clip_grad_norm(&mut layer, 1.0);
        assert!(pre > 1.0);
        let mut post = 0.0;
        layer.visit_params(&mut |p| post += p.grad.norm_sq());
        assert!((post.sqrt() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_grad_norm_zeroes_non_finite_gradients() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut rng = StdRng::seed_from_u64(6);
            let mut layer = Linear::new(3, 3, Init::XavierUniform, &mut rng);
            let x = crate::init::randn(4, 3, &mut rng);
            let y = layer.forward(&x);
            let (_, g) = loss::mse(&y, &y.map(|v| v + 1.0));
            let _ = layer.backward(&g);
            layer.visit_params(&mut |p| p.grad.as_mut_slice()[0] = poison);
            let params_before = {
                let mut v = Vec::new();
                layer.visit_params(&mut |p| v.extend_from_slice(p.value.as_slice()));
                v
            };
            let norm = clip_grad_norm(&mut layer, 1.0);
            assert!(!norm.is_finite(), "norm {norm} should report the poisoned value");
            layer.visit_params(&mut |p| {
                assert!(p.grad.as_slice().iter().all(|&v| v == 0.0), "grads must be zeroed");
            });
            // A follow-up Adam step must now be a finite no-op direction,
            // not a parameter-corrupting NaN propagation.
            let mut opt = Adam::new(0.1);
            opt.step(&mut layer);
            let mut i = 0;
            layer.visit_params(&mut |p| {
                for &v in p.value.as_slice() {
                    assert!(v.is_finite(), "param {i} corrupted: {v}");
                    i += 1;
                }
            });
            let _ = params_before;
        }
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
