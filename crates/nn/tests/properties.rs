//! Property-based tests of the tensor algebra, losses, and layers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_nn::init::Init;
use silofuse_nn::layers::{Activation, ActivationKind, Layer, Linear};
use silofuse_nn::loss::{bce_with_logits, mse};
use silofuse_nn::Tensor;

fn arb_tensor(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Tensor::from_vec(r, c, data))
    })
}

fn approx_eq(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (A B)^T = B^T A^T.
    #[test]
    fn matmul_transpose_identity(seed in 0u64..500, m in 1usize..8, k in 1usize..8, n in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = silofuse_nn::init::randn(m, k, &mut rng);
        let b = silofuse_nn::init::randn(k, n, &mut rng);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(approx_eq(&left, &right, 1e-4));
    }

    /// The fused kernels agree with explicit transposition.
    #[test]
    fn fused_matmuls_agree(seed in 0u64..500, m in 1usize..8, k in 1usize..8, n in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = silofuse_nn::init::randn(m, k, &mut rng);
        let b = silofuse_nn::init::randn(n, k, &mut rng);
        prop_assert!(approx_eq(&a.matmul_transpose(&b), &a.matmul(&b.transpose()), 1e-4));
        let c = silofuse_nn::init::randn(m, n, &mut rng);
        let a_t = silofuse_nn::init::randn(m, k, &mut rng);
        prop_assert!(approx_eq(
            &a_t.transpose_matmul(&c),
            &a_t.transpose().matmul(&c),
            1e-4
        ));
    }

    /// Matmul distributes over addition: (A + B) C = AC + BC.
    #[test]
    fn matmul_distributes(seed in 0u64..500, m in 1usize..6, k in 1usize..6, n in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = silofuse_nn::init::randn(m, k, &mut rng);
        let b = silofuse_nn::init::randn(m, k, &mut rng);
        let c = silofuse_nn::init::randn(k, n, &mut rng);
        let left = a.add(&b).matmul(&c);
        let mut right = a.matmul(&c);
        right.add_assign(&b.matmul(&c));
        prop_assert!(approx_eq(&left, &right, 1e-3));
    }

    /// Column split/concat are inverse for arbitrary width partitions.
    #[test]
    fn split_concat_inverse(t in arb_tensor(10), cut in 0usize..10) {
        let cols = t.cols();
        let cut = cut % cols;
        if cut == 0 || cut == cols { return Ok(()); }
        let parts = t.split_cols(&[cut, cols - cut]);
        let joined = Tensor::concat_cols(&parts.iter().collect::<Vec<_>>());
        prop_assert_eq!(joined, t);
    }

    /// Softmax rows always form a probability distribution and are
    /// invariant to per-row logit shifts.
    #[test]
    fn softmax_invariants(t in arb_tensor(8), shift in -50.0f32..50.0) {
        let s = t.softmax_rows();
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        let shifted = t.map(|v| v + shift).softmax_rows();
        prop_assert!(approx_eq(&s, &shifted, 1e-3));
    }

    /// MSE is non-negative, zero iff equal, and symmetric.
    #[test]
    fn mse_properties(t in arb_tensor(6), u in arb_tensor(6)) {
        let (l_self, g_self) = mse(&t, &t);
        prop_assert_eq!(l_self, 0.0);
        prop_assert!(g_self.as_slice().iter().all(|&v| v == 0.0));
        if t.shape() == u.shape() {
            let (l_tu, _) = mse(&t, &u);
            let (l_ut, _) = mse(&u, &t);
            prop_assert!(l_tu >= 0.0);
            prop_assert!((l_tu - l_ut).abs() < 1e-3 * (1.0 + l_tu.abs()));
        }
    }

    /// BCE with logits is finite for any logits and any 0/1 targets.
    #[test]
    fn bce_is_always_finite(logits in arb_tensor(6), bits in proptest::collection::vec(any::<bool>(), 36)) {
        let target = Tensor::from_fn(logits.rows(), logits.cols(), |r, c| {
            f32::from(bits[(r * logits.cols() + c) % bits.len()])
        });
        let (l, g) = bce_with_logits(&logits, &target);
        prop_assert!(l.is_finite() && l >= 0.0);
        prop_assert!(g.all_finite());
    }

    /// LeakyReLU is monotone (GELU, the other kind, is not).
    #[test]
    fn monotone_activations(x in -20.0f32..20.0, dx in 0.001f32..5.0) {
        let kind = ActivationKind::LeakyRelu;
        prop_assert!(kind.apply(x + dx) >= kind.apply(x), "{kind:?} at {x}");
    }

    /// A linear layer is... linear: f(ax) = a f(x) + (1-a) bias-term.
    #[test]
    fn linear_layer_is_affine(seed in 0u64..200, alpha in -3.0f32..3.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::new(4, 3, Init::XavierUniform, &mut rng);
        let x = silofuse_nn::init::randn(2, 4, &mut rng);
        let zero = Tensor::zeros(2, 4);
        let f0 = layer.infer(&zero);
        let fx = layer.infer(&x);
        let fax = layer.infer(&x.scale(alpha));
        // f(ax) - f(0) = a (f(x) - f(0))
        let lhs = fax.sub(&f0);
        let rhs = fx.sub(&f0).scale(alpha);
        prop_assert!(approx_eq(&lhs, &rhs, 1e-3));
    }

    /// Backward through an activation never changes shape and is zero
    /// where the upstream gradient is zero.
    #[test]
    fn activation_backward_shape_and_sparsity(t in arb_tensor(6)) {
        let mut act = Activation::new(ActivationKind::Gelu);
        let y = act.forward(&t);
        prop_assert_eq!(y.shape(), t.shape());
        let zero_grad = Tensor::zeros(t.rows(), t.cols());
        let g = act.backward(&zero_grad);
        prop_assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }
}
