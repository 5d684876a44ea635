//! Global precision-state semantics and f16 layer-forward tolerance.
//!
//! These tests mutate process-global dispatch state (`set_precision`,
//! `force_f32`), which is *not* bit-identity-preserving the way
//! `set_threads` is — so they live in their own integration-test binary
//! (cargo runs each binary as a separate process) and inside a single
//! `#[test]` body so nothing in this process races the global flips.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_nn::backend::{self, Backend, HalfPrecision, Precision, Reference};
use silofuse_nn::f16::{round_f16, F16_EPS};
use silofuse_nn::init::{randn, Init};
use silofuse_nn::layers::{
    Activation, ActivationKind, BatchNorm1d, Conv1d, Dropout, Layer, LayerNorm, Linear, Sequential,
};
use silofuse_nn::Tensor;

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One forward pass of a fresh layer built by `make`.
fn forward_once(make: &dyn Fn() -> Box<dyn Layer>, x: &Tensor) -> Tensor {
    make().infer(x)
}

#[test]
fn precision_state_machine_and_f16_layer_tolerance() {
    // --- Default state: full precision, no composition. ---
    assert_eq!(backend::precision(), Precision::F32);
    let base_name = backend::name();

    // --- set_precision(F16) swaps the dispatched backend. ---
    backend::set_precision(Precision::F16);
    assert_eq!(backend::precision(), Precision::F16);
    assert_eq!(backend::get().name(), "f16");

    // --- force_f32 pins dispatch back to the base while held, nests, and
    // restores the composed backend on drop. ---
    {
        let _outer = backend::force_f32();
        assert_eq!(backend::get().name(), base_name, "guard must expose the base backend");
        {
            let _inner = backend::force_f32();
            assert_eq!(backend::get().name(), base_name);
        }
        assert_eq!(backend::get().name(), base_name, "inner drop must not unpin the outer guard");
    }
    assert_eq!(backend::get().name(), "f16", "dropping the last guard restores f16 dispatch");

    // --- Under the guard, math is bit-identical to plain f32 dispatch. ---
    let mut rng = StdRng::seed_from_u64(77);
    let x = randn(64, 48, &mut rng);
    let layer = {
        let mut rng = StdRng::seed_from_u64(78);
        Linear::new(48, 32, Init::XavierUniform, &mut rng)
    };
    let y16 = {
        let l = layer.clone();
        l.infer(&x)
    };
    let y_pinned = {
        let _f32 = backend::force_f32();
        let l = layer.clone();
        l.infer(&x)
    };
    backend::set_precision(Precision::F32);
    let y32 = {
        let l = layer.clone();
        l.infer(&x)
    };
    assert!(
        bits_eq(y_pinned.as_slice(), y32.as_slice()),
        "force_f32 under f16 precision must be bit-identical to plain f32"
    );
    assert!(
        !bits_eq(y16.as_slice(), y32.as_slice()),
        "f16 dispatch should actually round somewhere on a 48-deep product"
    );

    // --- f16 tolerance on every layer forward. Only the matmul-bearing
    // layers see rounded operands (HalfPrecision quantizes gemm inputs
    // only), so their outputs drift by at most ~2*F16_EPS per operand
    // relative to the |a|·|b| mass of each dot product; everything
    // elementwise stays bit-identical. ---
    type Factory = Box<dyn Fn() -> Box<dyn Layer>>;
    let gemm_layers: Vec<(&str, Factory)> = vec![
        (
            "linear",
            Box::new(|| {
                let mut rng = StdRng::seed_from_u64(81);
                Box::new(Linear::new(48, 32, Init::XavierUniform, &mut rng))
            }),
        ),
        (
            "conv1d",
            Box::new(|| {
                let mut rng = StdRng::seed_from_u64(82);
                Box::new(Conv1d::new(4, 6, 3, 1, 1, 12, &mut rng))
            }),
        ),
        (
            "mlp",
            Box::new(|| {
                let mut rng = StdRng::seed_from_u64(83);
                Box::new(
                    Sequential::new()
                        .push(Linear::new(48, 24, Init::KaimingNormal, &mut rng))
                        .push(Activation::new(ActivationKind::Gelu))
                        .push(Linear::new(24, 48, Init::XavierUniform, &mut rng)),
                )
            }),
        ),
    ];
    let elementwise_layers: Vec<(&str, Factory)> = vec![
        ("gelu", Box::new(|| Box::new(Activation::new(ActivationKind::Gelu)))),
        ("relu", Box::new(|| Box::new(Activation::new(ActivationKind::Relu)))),
        ("layernorm", Box::new(|| Box::new(LayerNorm::new(48)))),
        ("batchnorm", Box::new(|| Box::new(BatchNorm1d::new(48)))),
        ("dropout", Box::new(|| Box::new(Dropout::new(0.3, 84)))),
    ];

    let mut rng = StdRng::seed_from_u64(80);
    let x = randn(64, 48, &mut rng);

    let base32: Vec<Tensor> = gemm_layers.iter().map(|(_, f)| forward_once(f, &x)).collect();
    let elem32: Vec<Tensor> = elementwise_layers.iter().map(|(_, f)| forward_once(f, &x)).collect();

    backend::set_precision(Precision::F16);
    for ((name, f), y32) in gemm_layers.iter().zip(&base32) {
        let y16 = forward_once(f, &x);
        // Documented bound: each operand rounds by <= F16_EPS relative, so
        // a k-deep dot drifts by <= ~2*F16_EPS * k * max|a||b|; inputs are
        // unit-normal and weights Xavier-scaled, so 64 * F16_EPS of
        // headroom comfortably covers every layer here while still being
        // ~100x tighter than an f32->bf16 cast would need.
        let tol = 64.0 * F16_EPS;
        for (i, (&a, &b)) in y16.as_slice().iter().zip(y32.as_slice()).enumerate() {
            assert!(
                (a - b).abs() <= tol * (1.0 + b.abs()),
                "{name}[{i}]: f16 {a} vs f32 {b} exceeds tolerance {tol}"
            );
        }
    }
    for ((name, f), y32) in elementwise_layers.iter().zip(&elem32) {
        let y16 = forward_once(f, &x);
        assert!(
            bits_eq(y16.as_slice(), y32.as_slice()),
            "{name}: elementwise layers must be untouched by f16 precision"
        );
    }
    backend::set_precision(Precision::F32);

    // --- The wrapper itself is exactly "round operands, then the inner
    // backend": spot-check against explicit rounding. ---
    let half = HalfPrecision::new(std::sync::Arc::new(Reference));
    let a = [1.0f32, 0.1, -3.21875, 1000.5];
    let b = [0.333f32, -0.125, 7.77, 0.001];
    let mut got = [0.0f32; 4];
    half.gemm(2, 2, 2, &a, &b, &mut got);
    let ar: Vec<f32> = a.iter().map(|&v| round_f16(v)).collect();
    let br: Vec<f32> = b.iter().map(|&v| round_f16(v)).collect();
    let mut want = [0.0f32; 4];
    Reference.gemm(2, 2, 2, &ar, &br, &mut want);
    assert!(bits_eq(&got, &want), "HalfPrecision must equal round-then-gemm exactly");
}
