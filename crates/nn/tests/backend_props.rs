//! Backend equivalence properties: the `Parallel` backend must be
//! bit-identical to `Reference` at every thread count — this is what keeps
//! crash-resume byte-identical regardless of `--threads` — for the GEMMs,
//! the element-wise kernels, the decoder losses and Adam, plus a
//! finite-difference gradient check for `Conv1d` and the workspace arena's
//! zero-allocation guarantee for warm training steps.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use silofuse_nn::backend::{self, Backend, Parallel, Reference};
use silofuse_nn::init::{randn, Init};
use silofuse_nn::layers::{
    Activation, ActivationKind, Conv1d, Dropout, EmbeddingGather, Layer, LayerNorm, Linear,
    Sequential,
};
use silofuse_nn::loss::mse;
use silofuse_nn::optim::Adam;
use silofuse_nn::simd::AdamStep;
use silofuse_nn::sparse::{SparseBatchRef, SparseField, SparseSpec};
use silofuse_nn::{workspace, Tensor};

/// Thread counts exercised for the parallel backend; 7 is deliberately not
/// a divisor of typical row counts so block boundaries land unevenly.
const THREADS: [usize; 4] = [1, 2, 4, 7];

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Deterministic values with varied magnitudes so float summation order
/// matters: any accumulation-order drift in a parallel kernel shows up.
fn noise(n: usize, mut state: u64) -> Vec<f32> {
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0
        })
        .collect()
}

proptest! {
    // Dims up to 96 put many cases above the parallel dispatch threshold
    // (`96^3 > 2^19` multiply-adds), so both the inline and the fanned-out
    // paths are exercised.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `gemm` is bit-identical between Reference and Parallel at every
    /// thread count, for random shapes.
    #[test]
    fn gemm_bit_identical(seed in 0u64..1000, m in 1usize..96, k in 1usize..96, n in 1usize..96) {
        let a = noise(m * k, seed ^ 0xa5a5);
        let b = noise(k * n, seed ^ 0x5a5a);
        let mut want = vec![0.0f32; m * n];
        Reference.gemm(m, k, n, &a, &b, &mut want);
        for t in THREADS {
            let mut got = vec![0.0f32; m * n];
            Parallel::new(t).gemm(m, k, n, &a, &b, &mut got);
            prop_assert!(bits_eq(&want, &got), "gemm {m}x{k}x{n} diverged at {t} threads");
        }
    }

    /// `gemm_transpose` (A · Bᵀ) is bit-identical across backends.
    #[test]
    fn gemm_transpose_bit_identical(seed in 0u64..1000, m in 1usize..96, k in 1usize..96, n in 1usize..96) {
        let a = noise(m * k, seed ^ 0x1111);
        let b = noise(n * k, seed ^ 0x2222);
        let mut want = vec![0.0f32; m * n];
        Reference.gemm_transpose(m, k, n, &a, &b, &mut want);
        for t in THREADS {
            let mut got = vec![0.0f32; m * n];
            Parallel::new(t).gemm_transpose(m, k, n, &a, &b, &mut got);
            prop_assert!(bits_eq(&want, &got), "gemm_transpose {m}x{k}x{n} diverged at {t} threads");
        }
    }

    /// `transpose_gemm` (Aᵀ · B) is bit-identical across backends.
    #[test]
    fn transpose_gemm_bit_identical(seed in 0u64..1000, l in 1usize..96, m in 1usize..96, n in 1usize..96) {
        let a = noise(l * m, seed ^ 0x3333);
        let b = noise(l * n, seed ^ 0x4444);
        let mut want = vec![0.0f32; m * n];
        Reference.transpose_gemm(l, m, n, &a, &b, &mut want);
        for t in THREADS {
            let mut got = vec![0.0f32; m * n];
            Parallel::new(t).transpose_gemm(l, m, n, &a, &b, &mut got);
            prop_assert!(bits_eq(&want, &got), "transpose_gemm {l}x{m}x{n} diverged at {t} threads");
        }
    }

    /// The elementwise and reduction kernels agree bitwise too (sizes
    /// straddle the elementwise dispatch thresholds).
    #[test]
    fn elementwise_kernels_bit_identical(seed in 0u64..1000, rows in 1usize..1000, cols in 1usize..300) {
        let x = noise(rows * cols, seed ^ 0x7777);
        let y0 = noise(rows * cols, seed ^ 0x8888);
        for t in THREADS {
            let par = Parallel::new(t);

            let mut want = y0.clone();
            Reference.axpy(1.5, &x, &mut want);
            let mut got = y0.clone();
            par.axpy(1.5, &x, &mut got);
            prop_assert!(bits_eq(&want, &got), "axpy diverged at {t} threads");

            let f = |v: f32| (v * 0.5).tanh();
            let mut want = vec![0.0f32; x.len()];
            Reference.map(&x, &mut want, &f);
            let mut got = vec![0.0f32; x.len()];
            par.map(&x, &mut got, &f);
            prop_assert!(bits_eq(&want, &got), "map diverged at {t} threads");

            let g = |a: f32, b: f32| a.mul_add(b, a);
            let mut want = vec![0.0f32; x.len()];
            Reference.zip(&x, &y0, &mut want, &g);
            let mut got = vec![0.0f32; x.len()];
            par.zip(&x, &y0, &mut got, &g);
            prop_assert!(bits_eq(&want, &got), "zip diverged at {t} threads");

            let mut want = vec![0.0f32; cols];
            Reference.sum_rows(rows, cols, &x, &mut want);
            let mut got = vec![0.0f32; cols];
            par.sum_rows(rows, cols, &x, &mut got);
            prop_assert!(bits_eq(&want, &got), "sum_rows diverged at {t} threads");

            let mut want = x.clone();
            Reference.softmax_rows(rows, cols, &mut want);
            let mut got = x.clone();
            par.softmax_rows(rows, cols, &mut got);
            prop_assert!(bits_eq(&want, &got), "softmax diverged at {t} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The GELU kernels (inference, the fused training forward and the
    /// backward over its cached derivative) are bit-identical between
    /// Reference, which evaluates `gelu` and `gelu_grad` separately, and
    /// Parallel at every thread count. Lengths leave a SIMD tail of 1..=7
    /// lanes and reach past the GELU fan-out threshold; NaN, ±Inf, -0 and
    /// the |x| ≥ 22 branch ride along.
    #[test]
    fn gelu_kernels_bit_identical(seed in 0u64..1000, blocks in 0usize..12_000, tail in 1usize..8) {
        let len = blocks * 8 + tail;
        let mut x = noise(len, seed ^ 0x6e1);
        let grad = noise(len, seed ^ 0x9a4d);
        for (i, special) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 30.0, 1e-30]
            .into_iter()
            .enumerate()
        {
            x[(i * 7919 + seed as usize) % len] = special;
        }
        let mut want = vec![0.0f32; len];
        Reference.gelu(&x, &mut want);
        let (mut want_train, mut want_deriv) = (vec![0.0f32; len], vec![0.0f32; len]);
        Reference.gelu_train(&x, &mut want_train, &mut want_deriv);
        prop_assert!(bits_eq(&want, &want_train), "Reference gelu_train output is not gelu");
        let mut want_grad = vec![0.0f32; len];
        Reference.gelu_backward(&grad, &want_deriv, &mut want_grad);
        for t in THREADS {
            let par = Parallel::new(t);
            let mut got = vec![0.0f32; len];
            par.gelu(&x, &mut got);
            prop_assert!(bits_eq(&want, &got), "gelu len {len} diverged at {t} threads");
            let (mut got_train, mut got_deriv) = (vec![0.0f32; len], vec![0.0f32; len]);
            par.gelu_train(&x, &mut got_train, &mut got_deriv);
            prop_assert!(bits_eq(&want, &got_train), "fused gelu len {len} diverged at {t} threads");
            prop_assert!(bits_eq(&want_deriv, &got_deriv), "fused gelu' len {len} diverged at {t} threads");
            let mut got_grad = vec![0.0f32; len];
            par.gelu_backward(&grad, &got_deriv, &mut got_grad);
            prop_assert!(bits_eq(&want_grad, &got_grad), "gelu_backward len {len} diverged at {t} threads");
        }
    }
}

/// The register-blocked SIMD kernels tile 4 rows × 2 vectors of columns
/// and block k in chunks; every (m, k, n) tail combination around those
/// widths must fall back to narrower kernels that keep the exact scalar
/// accumulation order. Dims sweep 1..3 plus one-off-the-vector-width on
/// both sides for SSE (4 lanes), AVX2 (8 lanes), and the 2-vector tile
/// (16 columns). The reduced dimension also takes 0, whose product is all
/// +0.0, and every output starts as NaN, so an element a kernel skips
/// fails.
#[test]
fn gemm_variants_bit_identical_at_simd_tail_sizes() {
    let dims = [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17];
    for &m in &dims {
        for k in std::iter::once(0).chain(dims) {
            for &n in &dims {
                let seed = (m * 31 + k * 7 + n) as u64;
                let a = noise(m * k, seed ^ 0xaaaa);
                let b = noise(k * n, seed ^ 0xbbbb);
                let bt = noise(n * k, seed ^ 0xcccc);
                let at = noise(k * m, seed ^ 0xdddd);

                let mut want = vec![f32::NAN; m * n];
                Reference.gemm(m, k, n, &a, &b, &mut want);
                if k == 0 {
                    assert!(want.iter().all(|v| v.to_bits() == 0), "an empty sum is +0.0");
                }
                for t in [1usize, 2, 4] {
                    let mut got = vec![f32::NAN; m * n];
                    Parallel::new(t).gemm(m, k, n, &a, &b, &mut got);
                    assert!(bits_eq(&want, &got), "gemm {m}x{k}x{n} tail diverged at {t} threads");
                }

                let mut want = vec![f32::NAN; m * n];
                Reference.gemm_transpose(m, k, n, &a, &bt, &mut want);
                for t in [1usize, 2, 4] {
                    let mut got = vec![f32::NAN; m * n];
                    Parallel::new(t).gemm_transpose(m, k, n, &a, &bt, &mut got);
                    assert!(
                        bits_eq(&want, &got),
                        "gemm_transpose {m}x{k}x{n} tail diverged at {t} threads"
                    );
                }

                let mut want = vec![f32::NAN; m * n];
                Reference.transpose_gemm(k, m, n, &at, &b, &mut want);
                for t in [1usize, 2, 4] {
                    let mut got = vec![f32::NAN; m * n];
                    Parallel::new(t).transpose_gemm(k, m, n, &at, &b, &mut got);
                    assert!(
                        bits_eq(&want, &got),
                        "transpose_gemm {k}x{m}x{n} tail diverged at {t} threads"
                    );
                }
            }
        }
    }
}

/// The three GEMMs at Churn's silo-0 decoder-head shapes (192-row batch,
/// 128 hidden units, 2 946 outputs: a dozen column blocks, past the fan-out
/// threshold): the forward, the input gradient and the weight gradient are
/// bit-identical between Reference and Parallel at every thread count.
#[test]
fn wide_gemms_bit_identical() {
    let (m, h, n) = (192, 128, 2946);
    let x = noise(m * h, 0x1111);
    let w = noise(h * n, 0x2222);
    let g = noise(m * n, 0x3333);
    let mut want = vec![0.0f32; m * n];
    Reference.gemm(m, h, n, &x, &w, &mut want);
    for t in THREADS {
        let mut got = vec![f32::NAN; m * n];
        Parallel::new(t).gemm(m, h, n, &x, &w, &mut got);
        assert!(bits_eq(&want, &got), "head forward diverged at {t} threads");
    }
    let mut want = vec![0.0f32; m * h];
    Reference.gemm_transpose(m, n, h, &g, &w, &mut want);
    for t in THREADS {
        let mut got = vec![f32::NAN; m * h];
        Parallel::new(t).gemm_transpose(m, n, h, &g, &w, &mut got);
        assert!(bits_eq(&want, &got), "head input gradient diverged at {t} threads");
    }
    let mut want = vec![0.0f32; h * n];
    Reference.transpose_gemm(m, h, n, &x, &g, &mut want);
    for t in THREADS {
        let mut got = vec![f32::NAN; h * n];
        Parallel::new(t).transpose_gemm(m, h, n, &x, &g, &mut got);
        assert!(bits_eq(&want, &got), "head weight gradient diverged at {t} threads");
    }
}

/// The losses read their head columns in place at an offset into a wider
/// matrix, and the Adam update: Parallel's loss value, gradient (the
/// columns a loss must leave alone included) and updated parameters and
/// moments are bit-identical to Reference's at every thread count, on
/// shapes either side of the fan-out thresholds (Churn's 2932+7+7 groups
/// among them).
#[test]
fn loss_and_adam_kernels_bit_identical() {
    let ce_cases: [(usize, &[usize], usize, usize); 4] = [
        (3, &[2, 3], 1, 7),
        (64, &[64, 64], 2, 130),
        (192, &[40, 7, 5], 0, 52),
        (192, &[2932, 7, 7], 4, 2950),
    ];
    for (rows, groups, offset, ld) in ce_cases {
        let logits = noise(rows * ld, rows as u64 ^ 0xce);
        let picks = noise(rows * groups.len(), 0x7a);
        let targets: Vec<u32> = (0..rows * groups.len())
            .map(|i| (picks[i].abs() * 1000.0) as u32 % groups[i / rows] as u32)
            .collect();
        let sentinel = noise(rows * ld, 0x5e);
        let mut want = sentinel.clone();
        let want_loss =
            Reference.cross_entropy(rows, ld, offset, &logits, groups, &targets, &mut want);
        for t in THREADS {
            let mut got = sentinel.clone();
            let loss = Parallel::new(t)
                .cross_entropy(rows, ld, offset, &logits, groups, &targets, &mut got);
            let at = format!("cross_entropy rows {rows} groups {groups:?} at {t} threads");
            assert_eq!(want_loss.to_bits(), loss.to_bits(), "{at}");
            assert!(bits_eq(&want, &got), "{at}");
        }
    }

    for (rows, n, offset, ld) in
        [(5usize, 3usize, 0usize, 6usize), (192, 64, 2, 140), (300, 40, 0, 90)]
    {
        // Magnitudes up to 16 put some log-variances past the ±10 clamp.
        let heads: Vec<f32> = noise(rows * ld, n as u64 ^ 0x9a).iter().map(|v| v * 4.0).collect();
        let target = noise(rows * n, 0x7e);
        let sentinel = noise(rows * ld, 0x5e);
        let mut want = sentinel.clone();
        let want_loss = Reference.gaussian_nll(rows, n, ld, offset, &heads, &target, &mut want);
        for t in THREADS {
            let mut got = sentinel.clone();
            let loss =
                Parallel::new(t).gaussian_nll(rows, n, ld, offset, &heads, &target, &mut got);
            let at = format!("gaussian_nll rows {rows} n {n} at {t} threads");
            assert_eq!(want_loss.to_bits(), loss.to_bits(), "{at}");
            assert!(bits_eq(&want, &got), "{at}");
        }
    }

    // The coefficients are computed once: `powi` may round differently
    // where the compiler folds it to a constant, so each backend must see
    // the same values.
    let steps: Vec<AdamStep> = (1..=3)
        .map(|t| AdamStep {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bias1: 1.0 - 0.9f32.powi(t),
            bias2: 1.0 - 0.999f32.powi(t),
        })
        .collect();
    for len in [5usize, 1003, 40_000, 377_088] {
        let grad = noise(len, 0xad);
        let start = (noise(len, 1), noise(len, 2), noise(len, 3).iter().map(|v| v.abs()).collect());
        let run = |be: &dyn Backend| {
            let (mut p, mut m, mut v): (Vec<f32>, Vec<f32>, Vec<f32>) = start.clone();
            for &step in &steps {
                be.adam(step, &mut p, &grad, &mut m, &mut v);
            }
            (p, m, v)
        };
        let want = run(&Reference);
        for t in THREADS {
            let got = run(&Parallel::new(t));
            assert!(bits_eq(&want.0, &got.0), "adam value len {len} at {t} threads");
            assert!(bits_eq(&want.1, &got.1), "adam m len {len} at {t} threads");
            assert!(bits_eq(&want.2, &got.2), "adam v len {len} at {t} threads");
        }
    }
}

/// NaN and ±inf inputs flow through the SIMD kernels with the exact bit
/// patterns the scalar reference produces (x86 vector ops quiet NaNs the
/// same way scalar ops do, and the kernels never reorder the accumulation
/// that decides which special value wins).
#[test]
fn nan_and_inf_propagate_bitwise_identically() {
    for (case, (m, k, n)) in
        [(5usize, 33usize, 17usize), (8, 16, 16), (3, 9, 31)].into_iter().enumerate()
    {
        let seed = 0x5eed ^ case as u64;
        let mut a = noise(m * k, seed);
        let mut b = noise(k * n, seed ^ 0xffff);
        // Sprinkle specials at positions that land in vector bodies and in
        // scalar tails, including a 0 * inf pair that manufactures a NaN
        // inside the dot product itself.
        a[0] = f32::NAN;
        a[m * k - 1] = f32::INFINITY;
        b[k * n / 2] = f32::NEG_INFINITY;
        b[k * n - 1] = f32::NAN;
        a[m * k / 2] = 0.0;
        b[0] = f32::INFINITY;

        let mut want = vec![0.0f32; m * n];
        Reference.gemm(m, k, n, &a, &b, &mut want);
        assert!(want.iter().any(|v| v.is_nan()), "case {case}: specials never reached a NaN");
        for t in [1usize, 2, 4] {
            let mut got = vec![0.0f32; m * n];
            Parallel::new(t).gemm(m, k, n, &a, &b, &mut got);
            assert!(bits_eq(&want, &got), "case {case}: gemm NaN/inf diverged at {t} threads");
        }

        let mut want = vec![0.0f32; m * n];
        Reference.gemm_transpose(m, k, n, &a, &b, &mut want);
        for t in [1usize, 2, 4] {
            let mut got = vec![0.0f32; m * n];
            Parallel::new(t).gemm_transpose(m, k, n, &a, &b, &mut got);
            assert!(
                bits_eq(&want, &got),
                "case {case}: gemm_transpose NaN/inf diverged at {t} threads"
            );
        }

        let mut want_y = b[..m * k].to_vec();
        Reference.axpy(f32::INFINITY, &a, &mut want_y);
        for t in [1usize, 2, 4] {
            let mut got_y = b[..m * k].to_vec();
            Parallel::new(t).axpy(f32::INFINITY, &a, &mut got_y);
            assert!(bits_eq(&want_y, &got_y), "case {case}: axpy NaN/inf diverged at {t} threads");
        }
    }
}

/// Forward + backward one fresh layer, returning output, input gradient,
/// and all parameter gradients.
fn run_layer(make: &dyn Fn() -> Box<dyn Layer>, x: &Tensor) -> (Tensor, Tensor, Vec<f32>) {
    let mut layer = make();
    let y = layer.forward(x);
    let upstream = y.map(|v| v * 0.25 + 0.125);
    let gx = layer.backward(&upstream);
    let mut grads = Vec::new();
    layer.visit_params(&mut |p| grads.extend_from_slice(p.grad.as_slice()));
    (y, gx, grads)
}

/// Every layer's forward AND backward is bit-identical under the parallel
/// backend at every thread count. Input is 288×256 so the gemm and the
/// elementwise kernels both cross their parallel dispatch thresholds.
#[test]
fn layer_passes_bit_identical_across_thread_counts() {
    type Factory = Box<dyn Fn() -> Box<dyn Layer>>;
    let factories: Vec<(&str, Factory)> = vec![
        (
            "linear",
            Box::new(|| {
                let mut rng = StdRng::seed_from_u64(21);
                Box::new(Linear::new(256, 128, Init::XavierUniform, &mut rng))
            }),
        ),
        ("gelu", Box::new(|| Box::new(Activation::new(ActivationKind::Gelu)))),
        ("layernorm", Box::new(|| Box::new(LayerNorm::new(256)))),
        (
            // 4 channels × length 64 = the same 256 input columns.
            "conv1d",
            Box::new(|| {
                let mut rng = StdRng::seed_from_u64(22);
                Box::new(Conv1d::new(4, 6, 3, 1, 1, 64, &mut rng))
            }),
        ),
        ("dropout", Box::new(|| Box::new(Dropout::new(0.3, 23)))),
        (
            "mlp",
            Box::new(|| {
                let mut rng = StdRng::seed_from_u64(24);
                Box::new(
                    Sequential::new()
                        .push(Linear::new(256, 96, Init::KaimingNormal, &mut rng))
                        .push(Activation::new(ActivationKind::LeakyRelu))
                        .push(Linear::new(96, 256, Init::XavierUniform, &mut rng)),
                )
            }),
        ),
    ];

    let mut rng = StdRng::seed_from_u64(20);
    let x = randn(288, 256, &mut rng);

    let found = backend::threads();
    backend::set_threads(1);
    let baselines: Vec<_> = factories.iter().map(|(_, f)| run_layer(f, &x)).collect();
    for t in THREADS {
        backend::set_threads(t);
        for ((name, f), (y0, gx0, pg0)) in factories.iter().zip(&baselines) {
            let (y, gx, pg) = run_layer(f, &x);
            assert!(bits_eq(y0.as_slice(), y.as_slice()), "{name} forward diverged at {t} threads");
            assert!(
                bits_eq(gx0.as_slice(), gx.as_slice()),
                "{name} input grad diverged at {t} threads"
            );
            assert!(bits_eq(pg0, &pg), "{name} param grads diverged at {t} threads");
        }
    }
    backend::set_threads(found);
}

/// The sparse input layout of [`infer_matches_training_forward_across_thread_counts`]:
/// 256 densified columns, numeric slots between one-hot blocks.
fn gather_spec() -> SparseSpec {
    SparseSpec::new(vec![
        SparseField::Numeric { slot: 0 },
        SparseField::Categorical { offset: 1, width: 60 },
        SparseField::Numeric { slot: 61 },
        SparseField::Categorical { offset: 62, width: 194 },
    ])
}

fn gather_layer() -> EmbeddingGather {
    let mut rng = StdRng::seed_from_u64(43);
    EmbeddingGather::new(gather_spec(), 96, Init::XavierUniform, &mut rng)
}

/// `infer` is the training `forward` minus caches and randomness, at 1, 2
/// and 4 backend threads: bit-identical for every deterministic layer
/// (both input paths of `EmbeddingGather` included), and the identity for
/// `Dropout`.
#[test]
fn infer_matches_training_forward_across_thread_counts() {
    type Factory = Box<dyn Fn() -> Box<dyn Layer>>;
    let mut factories: Vec<(String, Factory)> = vec![
        (
            "linear".into(),
            Box::new(|| {
                let mut rng = StdRng::seed_from_u64(41);
                Box::new(Linear::new(256, 128, Init::XavierUniform, &mut rng))
            }),
        ),
        ("layernorm".into(), Box::new(|| Box::new(LayerNorm::new(256)))),
        (
            "conv1d".into(),
            Box::new(|| {
                let mut rng = StdRng::seed_from_u64(42);
                Box::new(Conv1d::new(4, 6, 3, 1, 1, 64, &mut rng))
            }),
        ),
        ("embedding-gather dense".into(), Box::new(|| Box::new(gather_layer()))),
    ];
    for kind in [ActivationKind::LeakyRelu, ActivationKind::Gelu] {
        factories.push((format!("{kind:?}"), Box::new(move || Box::new(Activation::new(kind)))));
    }

    let mut rng = StdRng::seed_from_u64(40);
    let x = randn(288, 256, &mut rng);
    let numeric = randn(288, 2, &mut rng);
    let indices: Vec<u32> = (0..288u32).flat_map(|r| [1 + r * 7 % 60, 62 + r * 13 % 194]).collect();
    let batch = SparseBatchRef { rows: 288, numeric: numeric.as_slice(), indices: &indices };

    let found = backend::threads();
    backend::set_threads(1);
    let mut baseline: Vec<Tensor> = factories.iter().map(|(_, make)| make().infer(&x)).collect();
    baseline.push(gather_layer().infer_sparse(batch));
    for t in [1usize, 2, 4] {
        backend::set_threads(t);
        let mut outputs = Vec::new();
        for (name, make) in &factories {
            let y = make().infer(&x);
            assert!(bits_eq(make().forward(&x).as_slice(), y.as_slice()), "{name} at {t} threads");
            outputs.push(y);
        }
        let y = gather_layer().infer_sparse(batch);
        let trained = gather_layer().forward_sparse(batch);
        assert!(bits_eq(trained.as_slice(), y.as_slice()), "sparse gather at {t} threads");
        let stack =
            Sequential::new().push(gather_layer()).push(Activation::new(ActivationKind::Gelu));
        let stacked = stack.try_infer_sparse(batch).expect("first layer gathers");
        assert!(bits_eq(stacked.as_slice(), y.gelu().as_slice()), "sparse stack at {t} threads");
        outputs.push(y);
        for ((name, _), (want, got)) in factories.iter().zip(baseline.iter().zip(&outputs)) {
            assert!(bits_eq(want.as_slice(), got.as_slice()), "{name} diverged at {t} threads");
        }

        assert_eq!(Dropout::new(0.3, 44).infer(&x), x, "dropout at {t} threads");
    }
    backend::set_threads(found);
}

/// Conv1d's analytic gradients match central finite differences, for both
/// the input gradient and every weight/bias entry probed.
#[test]
fn conv1d_backward_matches_finite_differences() {
    const EPS: f32 = 1e-2;
    let mut rng = StdRng::seed_from_u64(31);
    let mut conv = Conv1d::new(2, 3, 3, 1, 1, 8, &mut rng);
    let x = randn(4, 16, &mut rng);
    let out_cols = 3 * conv.output_len();
    let upstream = randn(4, out_cols, &mut rng);

    // Loss L = <forward(x), upstream>, so backward(upstream) is dL/dx.
    let loss = |conv: &mut Conv1d, input: &Tensor| -> f32 {
        let y = conv.forward(input);
        y.as_slice().iter().zip(upstream.as_slice()).map(|(a, b)| a * b).sum()
    };

    conv.zero_grad();
    let _ = conv.forward(&x);
    let gx = conv.backward(&upstream);
    let mut analytic = Vec::new();
    conv.visit_params(&mut |p| analytic.extend_from_slice(p.grad.as_slice()));

    for idx in [0usize, 5, 17, 33, 63] {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += EPS;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= EPS;
        let numeric = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * EPS);
        let got = gx.as_slice()[idx];
        assert!(
            (numeric - got).abs() < 1e-2 * (1.0 + numeric.abs()),
            "input grad {idx}: numeric {numeric} vs analytic {got}"
        );
    }

    // Perturb flat parameter position `k` (weights then bias, visit order).
    let nudge = |conv: &mut Conv1d, k: usize, delta: f32| {
        let mut base = 0;
        conv.visit_params(&mut |p| {
            let len = p.value.as_slice().len();
            if k >= base && k < base + len {
                p.value.as_mut_slice()[k - base] += delta;
            }
            base += len;
        });
    };
    for k in [0usize, 7, 17, 18, 20] {
        nudge(&mut conv, k, EPS);
        let fp = loss(&mut conv, &x);
        nudge(&mut conv, k, -2.0 * EPS);
        let fm = loss(&mut conv, &x);
        nudge(&mut conv, k, EPS);
        let numeric = (fp - fm) / (2.0 * EPS);
        assert!(
            (numeric - analytic[k]).abs() < 1e-2 * (1.0 + numeric.abs()),
            "param grad {k}: numeric {numeric} vs analytic {}",
            analytic[k]
        );
    }
}

/// After a few warm-up steps every buffer a training step needs is in the
/// thread-local workspace pool: further steps perform zero fresh tensor
/// allocations (the pool's miss counter stays flat).
#[test]
fn warm_training_step_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(41);
    let mut net = Sequential::new()
        .push(Linear::new(16, 24, Init::KaimingNormal, &mut rng))
        .push(LayerNorm::new(24))
        .push(Activation::new(ActivationKind::Gelu))
        .push(Dropout::new(0.1, 42))
        .push(Linear::new(24, 16, Init::XavierUniform, &mut rng));
    let x = randn(32, 16, &mut rng);
    let target = randn(32, 16, &mut rng);
    let mut opt = Adam::new(1e-3);

    for step in 0..8 {
        if step == 5 {
            // Pool and Adam moments are warm; from here on the arena must
            // satisfy every request from recycled buffers.
            workspace::reset_counters();
        }
        net.zero_grad();
        let pred = net.forward(&x);
        let (_, grad) = mse(&pred, &target);
        workspace::recycle(pred);
        let gin = net.backward(&grad);
        workspace::recycle(grad);
        workspace::recycle(gin);
        opt.step(&mut net);
    }
    assert_eq!(workspace::misses(), 0, "a warm training step allocated a fresh buffer");
    assert!(workspace::hits() > 0, "the arena was never used");
}
