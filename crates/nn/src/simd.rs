//! Runtime-dispatched SIMD micro-kernels for the dense backends.
//!
//! All three GEMM variants reduce to one broadcast-multiply-accumulate
//! pattern over a row-major right-hand side:
//!
//! ```text
//! out[r][j] = Σ_p  lhs(r, p) · rhs[p·n + j]      (p ascending)
//! ```
//!
//! - `gemm`:            `lhs(r, p) = a[r·k + p]`   (row stride `k`, p stride 1)
//! - `transpose_gemm`:  `lhs(c, p) = a[p·m + c]`   (row stride 1, p stride `m`)
//! - `gemm_transpose`:  after packing `Bᵀ` with [`pack_transpose`], identical
//!   to `gemm` — which is how it stops paying a strided load per multiply.
//!
//! [`broadcast_gemm`] implements that pattern with register-blocked
//! AVX-512, AVX2 or SSE2 micro-kernels (4 output rows × 32/16/8 columns
//! held in accumulator registers, the lhs element broadcast across lanes)
//! selected by runtime feature detection, with a scalar fallback. At
//! AVX-512 the last column tile narrower than 16 is one masked tile, so an
//! output 6 to 15 columns wide (a decoder head, the backbone's output)
//! does not fall to scalar loops.
//!
//! # Bit-identity
//!
//! Every kernel in this module is **bit-identical** to the scalar
//! [`Reference`](crate::backend::Reference) loops, by construction:
//!
//! - each output element is owned by exactly one SIMD lane and accumulated
//!   by a single chain of `add(acc, mul(av, bv))` in ascending `p` — the
//!   same IEEE operations in the same order as the scalar loop;
//! - multiply and add are issued as *separate* instructions, never fused:
//!   an FMA keeps the infinitely-precise product and would round
//!   differently from the reference;
//! - cache blocking over `p` starts each accumulator at +0.0 in the first
//!   block, where the first addend meets the same +0.0 a zero-filled output
//!   would hold, and stores and reloads it between blocks, which is exact;
//!   so the output is never zero-filled first. Blocking over output columns
//!   only changes which element a tile works on next, never the order of
//!   one element's sum;
//! - a masked lane runs the same IEEE operations as a full one, and the
//!   lanes masked off neither load nor store;
//! - tails (row, column, and depth) fall to narrower kernels or scalar
//!   loops that preserve the per-element accumulation order.
//!
//! NaN and Inf follow from the same construction: the lanewise vector ops
//! have the same IEEE special-value semantics as their scalar forms (x86
//! scalar f32 math is SSE anyway), so specials propagate bit-identically.
//!
//! # Element-wise kernels, GELU and the repo-owned `tanh`
//!
//! `axpy`, `scale`, the GELU slices, the Adam update and the dropout mask
//! are written once as `#[inline(always)]` scalar loops and compiled again
//! inside `#[target_feature(enable = "avx2")]` and
//! `#[target_feature(enable = "avx512f")]` functions, where LLVM
//! auto-vectorizes them at 8 and 16 lanes; there are no intrinsics. Rust
//! never contracts a multiply and an add into an FMA, so each lane runs the
//! scalar build's IEEE operations.
//!
//! [`gelu_slice`] and [`gelu_train_slice`] evaluate the GELU tanh
//! approximation through [`tanh`], a branch-free port of the fdlibm
//! `tanhf`/`expm1f` pair that glibc 2.36 ships: every branch computed, the
//! result selected, multiplies and adds kept separate, so the port
//! vectorizes and every level agrees bit for bit. The result no longer
//! depends on which `tanhf` the host's libm provides. Training calls
//! [`gelu_train_slice`], which writes the output and the derivative from
//! one `tanh` per element with the expressions of [`gelu`] and
//! [`gelu_grad`], so the backward pass is one multiply.
//!
//! # Selection
//!
//! The level is detected once and cached, best first: AVX-512 (`avx512f`),
//! AVX2, SSE2. `SILOFUSE_SIMD` caps it: `scalar` (or `0`/`off`/`none`)
//! forces the scalar fallback, `sse2` caps at SSE2, `avx2` at AVX2 (the CI
//! matrix uses these), and `avx512`, `auto` or unset pick the best the host
//! has. Any other value is an error, never the default level.

use rand::rngs::StdRng;
use std::ops::Range;
use std::sync::OnceLock;

/// Instruction-set level the kernels in this module will use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Plain scalar loops (also the non-x86_64 path).
    Scalar,
    /// 128-bit SSE2 kernels (baseline on x86_64).
    Sse2,
    /// 256-bit AVX2 kernels.
    Avx2,
    /// 512-bit AVX-512 kernels (`avx512f`).
    Avx512,
}

impl SimdLevel {
    /// Level name for telemetry and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Best level the host supports at runtime.
fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            SimdLevel::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// The level a `SILOFUSE_SIMD` value caps at, matched case-insensitively:
/// `scalar` (or `0`/`off`/`none`), `sse2` (or `sse`), `avx2`, and
/// `avx512`, `auto` or empty for no cap.
///
/// # Errors
/// A message naming the accepted values for any other value, so a
/// mistyped cap is never run as the default level.
fn parse_cap(value: &str) -> Result<SimdLevel, String> {
    match value.to_ascii_lowercase().as_str() {
        "scalar" | "0" | "off" | "none" => Ok(SimdLevel::Scalar),
        "sse2" | "sse" => Ok(SimdLevel::Sse2),
        "avx2" => Ok(SimdLevel::Avx2),
        "avx512" | "auto" | "" => Ok(SimdLevel::Avx512),
        _ => Err(format!(
            "SILOFUSE_SIMD={value:?} is not a SIMD level; use scalar, sse2, avx2, avx512 or auto"
        )),
    }
}

/// The cap the `SILOFUSE_SIMD` environment variable sets (see
/// [`parse_cap`]); no cap when it is unset.
///
/// # Errors
/// [`parse_cap`]'s message for an unknown value.
pub(crate) fn cap_from_env() -> Result<SimdLevel, String> {
    parse_cap(&std::env::var_os("SILOFUSE_SIMD").unwrap_or_default().to_string_lossy())
}

/// The active SIMD level: host capability capped by `SILOFUSE_SIMD`
/// (`scalar`, `sse2`, `avx2`, or `avx512`/`auto`/unset for no cap; see the
/// module docs). Detected once and cached for the process lifetime; never
/// above [`detect`].
///
/// # Panics
/// Panics, naming the accepted values, when `SILOFUSE_SIMD` holds any
/// other value. The CLI and the bench bins check it first
/// ([`crate::backend::check_env`]) and exit with a usage error instead.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| detect().min(cap_from_env().unwrap_or_else(|e| panic!("{e}"))))
}

/// k-dimension cache-block size: accumulators stay in registers for a full
/// block. Exact regardless of value (see module docs).
const KC: usize = 256;

/// Output-column block width: each k-block is walked in column blocks this
/// wide, so the `KC×NC` panel of `rhs` (256 KiB) stays in L2 while every
/// row tile streams over it. Without it a decoder head 2 946 wide streams
/// its whole 1.5–2.3 MB panel past the L2 once per 4-row tile. A multiple
/// of every level's two-vector tile (32, 16 and 8 columns), so only the
/// last block has column tails. Exact regardless of value.
const NC: usize = 256;

/// `out_block[local·n + j] = Σ_p lhs[r·lrs + p·lps] · rhs[p·n + j]` for the
/// absolute row indices `r` in `rows` (`local` is the index within the
/// range), `p` in `0..depth` ascending. `out_block` is fully overwritten.
///
/// Bit-identical to the scalar reference loops at every level; see the
/// module docs for why.
#[allow(clippy::too_many_arguments)]
pub fn broadcast_gemm(
    rows: Range<usize>,
    depth: usize,
    n: usize,
    lhs: &[f32],
    lrs: usize,
    lps: usize,
    rhs: &[f32],
    out_block: &mut [f32],
) {
    // SAFETY: `level()` never exceeds what `detect()` found on this host.
    unsafe { broadcast_gemm_at(level(), rows, depth, n, lhs, lrs, lps, rhs, out_block) }
}

/// [`broadcast_gemm`] at an explicit `level`.
///
/// # Safety
/// The host must support `level`: `level <= detect()`.
#[allow(clippy::too_many_arguments)]
unsafe fn broadcast_gemm_at(
    level: SimdLevel,
    rows: Range<usize>,
    depth: usize,
    n: usize,
    lhs: &[f32],
    lrs: usize,
    lps: usize,
    rhs: &[f32],
    out_block: &mut [f32],
) {
    // The kernels read through raw pointers; these bounds are what they
    // rely on.
    assert!(out_block.len() >= rows.len() * n);
    assert!(depth == 0 || rhs.len() >= depth * n);
    assert!(rows.is_empty() || depth == 0 || lhs.len() > (rows.end - 1) * lrs + (depth - 1) * lps);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            x86::broadcast_gemm_avx512(rows, depth, n, lhs, lrs, lps, rhs, out_block)
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => x86::broadcast_gemm_avx2(rows, depth, n, lhs, lrs, lps, rhs, out_block),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::broadcast_gemm_sse2(rows, depth, n, lhs, lrs, lps, rhs, out_block),
        _ => scalar_broadcast_gemm(rows, depth, n, lhs, lrs, lps, rhs, out_block),
    }
}

/// Packs columns `col0..col0 + dst.len() / rows` of `src` (a `rows×cols`
/// row-major matrix) transposed into `dst`, the matching rows of the
/// `cols×rows` row-major transpose: `dst[(c − col0)·rows + r] =
/// src[r·cols + c]`. Blocked so both sides stream through cache lines;
/// pure data movement, so it cannot affect numerics. Disjoint column
/// ranges write disjoint parts of the transpose, so threads can pack one
/// panel together.
pub fn pack_transpose(rows: usize, cols: usize, src: &[f32], col0: usize, dst: &mut [f32]) {
    let col1 = col0 + dst.len() / rows.max(1);
    debug_assert!(src.len() >= rows * cols && col1 <= cols);
    const TILE: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TILE).min(rows);
        let mut c0 = col0;
        while c0 < col1 {
            let c1 = (c0 + TILE).min(col1);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[(c - col0) * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// Dispatches one element-wise kernel to its AVX-512 or AVX2 build at those
/// levels, and to the scalar loop (which the x86_64 baseline compiles for
/// SSE2) otherwise.
macro_rules! dispatch_elementwise {
    ($level:expr, $avx512:ident, $avx2:ident, $loop:ident($($arg:expr),*)) => {
        match $level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => x86::$avx512($($arg),*),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => x86::$avx2($($arg),*),
            _ => $loop($($arg),*),
        }
    };
}

/// `y[i] += alpha · x[i]` (separate mul and add — bit-identical to scalar).
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    // SAFETY: `level()` never exceeds what `detect()` found on this host.
    unsafe { axpy_at(level(), alpha, x, y) }
}

/// [`axpy`] at an explicit `level`.
///
/// # Safety
/// The host must support `level`: `level <= detect()`.
unsafe fn axpy_at(level: SimdLevel, alpha: f32, x: &[f32], y: &mut [f32]) {
    dispatch_elementwise!(level, axpy_avx512, axpy_avx2, axpy_loop(alpha, x, y))
}

#[inline(always)]
fn axpy_loop(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `y[i] *= alpha` (bit-identical to scalar).
pub fn scale(alpha: f32, y: &mut [f32]) {
    // SAFETY: `level()` never exceeds what `detect()` found on this host.
    unsafe { scale_at(level(), alpha, y) }
}

/// [`scale`] at an explicit `level`.
///
/// # Safety
/// The host must support `level`: `level <= detect()`.
unsafe fn scale_at(level: SimdLevel, alpha: f32, y: &mut [f32]) {
    dispatch_elementwise!(level, scale_avx512, scale_avx2, scale_loop(alpha, y))
}

#[inline(always)]
fn scale_loop(alpha: f32, y: &mut [f32]) {
    for v in y.iter_mut() {
        *v *= alpha;
    }
}

/// Bias broadcast: `x[r·n + c] += bias[c]` over every whole `n`-wide row
/// of `x`, with `n = bias.len()` (one add per element — bit-identical to
/// scalar).
pub fn add_bias(bias: &[f32], x: &mut [f32]) {
    // SAFETY: `level()` never exceeds what `detect()` found on this host.
    unsafe { add_bias_at(level(), bias, x) }
}

/// [`add_bias`] at an explicit `level`.
///
/// # Safety
/// The host must support `level`: `level <= detect()`.
unsafe fn add_bias_at(level: SimdLevel, bias: &[f32], x: &mut [f32]) {
    dispatch_elementwise!(level, add_bias_avx512, add_bias_avx2, add_bias_loop(bias, x))
}

#[inline(always)]
fn add_bias_loop(bias: &[f32], x: &mut [f32]) {
    if bias.is_empty() {
        return;
    }
    for row in x.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// `√(2/π)`, the scale of the GELU tanh approximation.
const GELU_C: f32 = 0.797_884_6;

/// `tanh(√(2/π)·(x + 0.044715·x³))`, the one transcendental [`gelu`] and
/// [`gelu_grad`] share.
#[inline(always)]
fn gelu_tanh(x: f32) -> f32 {
    tanh(GELU_C * (x + 0.044715 * x * x * x))
}

/// [`gelu`] at `x` given `t = gelu_tanh(x)`.
#[inline(always)]
fn gelu_from_tanh(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// [`gelu_grad`] at `x` given `t = gelu_tanh(x)`.
#[inline(always)]
fn gelu_grad_from_tanh(x: f32, t: f32) -> f32 {
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// GELU, tanh approximation: `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    gelu_from_tanh(x, gelu_tanh(x))
}

/// Derivative of [`gelu`] at `x`.
#[inline(always)]
pub fn gelu_grad(x: f32) -> f32 {
    gelu_grad_from_tanh(x, gelu_tanh(x))
}

/// `out[i] = gelu(x[i])`.
pub fn gelu_slice(x: &[f32], out: &mut [f32]) {
    // SAFETY: `level()` never exceeds what `detect()` found on this host.
    unsafe { gelu_slice_at(level(), x, out) }
}

/// [`gelu_slice`] at an explicit `level`.
///
/// # Safety
/// The host must support `level`: `level <= detect()`.
unsafe fn gelu_slice_at(level: SimdLevel, x: &[f32], out: &mut [f32]) {
    dispatch_elementwise!(level, gelu_avx512, gelu_avx2, gelu_loop(x, out))
}

#[inline(always)]
fn gelu_loop(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = gelu(v);
    }
}

/// `out[i] = gelu(x[i])` and `deriv[i] = gelu_grad(x[i])`, from one
/// [`tanh`] per element: the training forward, which keeps the derivative
/// for the backward pass. Bit-identical to [`gelu`] and [`gelu_grad`],
/// which evaluate the same expressions.
pub fn gelu_train_slice(x: &[f32], out: &mut [f32], deriv: &mut [f32]) {
    // SAFETY: `level()` never exceeds what `detect()` found on this host.
    unsafe { gelu_train_slice_at(level(), x, out, deriv) }
}

/// [`gelu_train_slice`] at an explicit `level`.
///
/// # Safety
/// The host must support `level`: `level <= detect()`.
unsafe fn gelu_train_slice_at(level: SimdLevel, x: &[f32], out: &mut [f32], deriv: &mut [f32]) {
    dispatch_elementwise!(level, gelu_train_avx512, gelu_train_avx2, gelu_train_loop(x, out, deriv))
}

#[inline(always)]
fn gelu_train_loop(x: &[f32], out: &mut [f32], deriv: &mut [f32]) {
    for ((o, d), &v) in out.iter_mut().zip(deriv.iter_mut()).zip(x) {
        let t = gelu_tanh(v);
        *o = gelu_from_tanh(v, t);
        *d = gelu_grad_from_tanh(v, t);
    }
}

/// One Adam update's coefficients: the learning rate, the moment decays,
/// the denominator fuzz, and the two bias corrections `1 − βᵗ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// First-moment bias correction `1 − β₁ᵗ`.
    pub bias1: f32,
    /// Second-moment bias correction `1 − β₂ᵗ`.
    pub bias2: f32,
}

impl AdamStep {
    /// The update of one parameter element: moves the moments `m` and `v`
    /// by the gradient `g` and returns the step to subtract from the
    /// value.
    #[inline(always)]
    pub fn apply(self, g: f32, m: &mut f32, v: &mut f32) -> f32 {
        *m = self.beta1 * *m + (1.0 - self.beta1) * g;
        *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
        let m_hat = *m / self.bias1;
        let v_hat = *v / self.bias2;
        self.lr * m_hat / (v_hat.sqrt() + self.eps)
    }
}

/// One Adam step over a parameter slice and its gradient and moments (see
/// [`AdamStep::apply`]). Bit-identical to the scalar loop at every level:
/// lanes run the same IEEE operations, square root included.
pub(crate) fn adam_slice(
    step: AdamStep,
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    // SAFETY: `level()` never exceeds what `detect()` found on this host.
    unsafe { adam_slice_at(level(), step, value, grad, m, v) }
}

/// [`adam_slice`] at an explicit `level`.
///
/// # Safety
/// The host must support `level`: `level <= detect()`.
unsafe fn adam_slice_at(
    level: SimdLevel,
    step: AdamStep,
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    dispatch_elementwise!(level, adam_avx512, adam_avx2, adam_loop(step, value, grad, m, v))
}

#[inline(always)]
fn adam_loop(step: AdamStep, value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
    for (((p, &g), m), v) in value.iter_mut().zip(grad).zip(m.iter_mut()).zip(v.iter_mut()) {
        *p -= step.apply(g, m, v);
    }
}

/// Fills an inverted-dropout mask from the next `mask.len()` draws of
/// `rng`: `scale` where a draw's top 53 bits fall below `threshold`, else
/// `0`. With `threshold = rand::f32_below_threshold(keep)` that is the
/// per-element `rng.gen::<f32>() < keep` test, draw for draw, and `rng`
/// ends where those draws leave it; the draws come from one counter loop
/// ([`StdRng::fill_draws`]) that vectorizes.
pub(crate) fn dropout_mask(rng: &mut StdRng, threshold: u64, scale: f32, mask: &mut [f32]) {
    // SAFETY: `level()` never exceeds what `detect()` found on this host.
    unsafe { dropout_mask_at(level(), rng, threshold, scale, mask) }
}

/// [`dropout_mask`] at an explicit `level`.
///
/// # Safety
/// The host must support `level`: `level <= detect()`.
unsafe fn dropout_mask_at(
    level: SimdLevel,
    rng: &mut StdRng,
    threshold: u64,
    scale: f32,
    mask: &mut [f32],
) {
    dispatch_elementwise!(
        level,
        dropout_mask_avx512,
        dropout_mask_avx2,
        dropout_mask_loop(rng, threshold, scale, mask)
    )
}

#[inline(always)]
fn dropout_mask_loop(rng: &mut StdRng, threshold: u64, scale: f32, mask: &mut [f32]) {
    rng.fill_draws(mask, |x| if x >> 11 < threshold { scale } else { 0.0 });
}

// fdlibm `expm1f` constants as glibc's bit patterns: decimal literals can
// round to a neighbour (`1.442_695_1` is `0x3fb8aa3c`, one ulp off invln2).
/// `ln2_hi`, `ln2_lo`, `invln2`.
const LN2_BITS: [u32; 3] = [0x3f31_7180, 0x3717_f7d1, 0x3fb8_aa3b];
/// The scaled polynomial coefficients `Q1..Q5`.
const Q_BITS: [u32; 5] = [0xbd08_8889, 0x3ad0_0d01, 0xb8a6_70cd, 0x3686_7e54, 0xb457_edbb];
const TINY: f32 = 1.0e-30;

/// `if c { a } else { b }` as a bit-mask blend. LLVM keeps it a `select`;
/// a plain `if` can become a branch, and jump threading then duplicates
/// everything between two branches on one condition (the whole of expm1,
/// or tanh's division), work the vectorized loop would do twice.
#[inline(always)]
fn pick(c: bool, a: f32, b: f32) -> f32 {
    let mask = u32::from(c).wrapping_neg();
    f32::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// Hyperbolic tangent, bit-identical to glibc 2.36's `tanhf`
/// (`sysdeps/ieee754/flt-32/s_tanhf.c`) on every input.
///
/// Branch-free: each fdlibm branch is computed and the result selected, so
/// the function vectorizes when inlined into a slice loop.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let positive = (jx as i32) >= 0;
    // |x| ≥ 22, ±Inf and NaN skip expm1: give those lanes a finite stand-in
    // argument, whose result the final selects discard.
    let in_range = ix < 0x41b0_0000;
    let ax = f32::from_bits(if in_range { ix } else { 0 });
    let ge_one = ix >= 0x3f80_0000;
    let t = expm1(pick(ge_one, 2.0 * ax, -2.0 * ax));
    // |x| ≥ 1: 1 − 2/(t + 2); |x| < 1: −t/(t + 2). One division serves both.
    let q = pick(ge_one, 2.0, -t) / (t + 2.0);
    let z = pick(ge_one, 1.0 - q, q);
    let z = pick(in_range, z, 1.0 - TINY);
    let z = pick(positive, z, -z);
    // |x| < 2^-55, including ±0: tanh(x) = x·(1 + x).
    let z = pick(ix < 0x2400_0000, x * (1.0 + x), z);
    // fdlibm returns 1/x ± 1 here: ±1 for ±Inf, and for a NaN that NaN
    // quieted, which x + x also gives without spending a division.
    let special = pick(ix > 0x7f80_0000, x + x, pick(positive, 1.0, -1.0));
    pick(ix >= 0x7f80_0000, special, z)
}

/// fdlibm `expm1f` (glibc 2.36 `s_expm1f.c`) on the arguments [`tanh`]
/// passes: `2|x|` for `1 ≤ |x| < 22` and `-2|x|` for `|x| < 1`, i.e. finite
/// values in `(-2, 44)`. On that domain the overflow and `x < -27·ln2`
/// filters never fire and the reduction multiple `k` is never `1`, so those
/// branches are left out; every other branch is computed and selected.
#[inline(always)]
fn expm1(x: f32) -> f32 {
    let [ln2_hi, ln2_lo, invln2] = LN2_BITS.map(f32::from_bits);
    let [q1, q2, q3, q4, q5] = Q_BITS.map(f32::from_bits);
    let hx = x.to_bits() & 0x7fff_ffff;
    let negative = (x.to_bits() as i32) < 0;
    // Argument reduction x = k·ln2 + r. With kt = k as f32 the general
    // formula also reproduces fdlibm's k = -1 and k = 0 (no reduction)
    // special cases exactly: kt·ln2_hi and kt·ln2_lo are then exact.
    let kf = invln2 * x + pick(negative, -0.5, 0.5);
    // SAFETY: |x| < 44 on this domain, so kf is finite and |kf| < 64.
    let k_near = unsafe { kf.to_int_unchecked::<i32>() };
    // 0.5·ln2 < |x| < 1.5·ln2 only occurs for negative x here (positive
    // arguments are ≥ 2), where fdlibm fixes k = -1.
    let k = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        -1
    } else {
        k_near
    };
    let kt = k as f32;
    let hi = x - kt * ln2_hi;
    let lo = kt * ln2_lo;
    let r = hi - lo;
    let c = (hi - r) - lo;

    // r is now in the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let y_k0 = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let y_km1 = 0.5 * (r - e) - 0.5;
    // k ≤ -2 or k > 56: 2^k·(1 − (e − r)) − 1; 2 ≤ k < 23: 2^k·((1 − 2^-k)
    // − (e − r)). The exponent is scaled by adding k to the bit pattern.
    let scale = (k as u32) << 23;
    let wide = (k <= -2) | (k > 56);
    let one_minus = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let y = f32::from_bits((pick(wide, 1.0, one_minus) - (e - r)).to_bits().wrapping_add(scale));
    let y_mid = pick(wide, y - 1.0, y);
    // 23 ≤ k ≤ 56: 2^k·((r − (e + 2^-k)) + 1).
    let two_neg_k = f32::from_bits((0x7f_u32.wrapping_sub(k as u32)) << 23);
    let y_big = f32::from_bits(((r - (e + two_neg_k)) + 1.0).to_bits().wrapping_add(scale));

    let y = pick(wide | (k < 23), y_mid, y_big);
    let y = pick(k == -1, y_km1, y);
    let y = pick(k == 0, y_k0, y);
    // |x| < 2^-25: expm1(x) = x.
    pick(hx < 0x3300_0000, x, y)
}

/// Scalar fallback with the identical per-element accumulation order.
#[allow(clippy::too_many_arguments)]
fn scalar_broadcast_gemm(
    rows: Range<usize>,
    depth: usize,
    n: usize,
    lhs: &[f32],
    lrs: usize,
    lps: usize,
    rhs: &[f32],
    out_block: &mut [f32],
) {
    if depth == 0 {
        out_block[..rows.len() * n].fill(0.0);
    }
    let mut p0 = 0;
    while p0 < depth {
        let p1 = (p0 + KC).min(depth);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + NC).min(n);
            for (local, r) in rows.clone().enumerate() {
                let out_row = &mut out_block[local * n + j0..local * n + j1];
                if p0 == 0 {
                    out_row.fill(0.0);
                }
                for p in p0..p1 {
                    let av = lhs[r * lrs + p * lps];
                    let b_row = &rhs[p * n + j0..p * n + j1];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
            j0 = j1;
        }
        p0 = p1;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{KC, NC};
    use core::arch::x86_64::*;
    use std::ops::Range;

    /// Generates the register-blocked micro-kernel family for one vector
    /// width. Structure (identical for AVX-512/AVX2/SSE2, differing in lane
    /// count): k-blocks of [`KC`] → column blocks of [`NC`] → 4-row tiles
    /// (then 1-row tail) → column tiles of two vectors (then one, then one
    /// masked vector where the ISA has masked loads and stores, then
    /// scalar). Accumulators live in registers for a whole k-block, start
    /// at +0.0 in the first one and are stored/reloaded between blocks
    /// (exact); only a zero-depth product zero-fills its output.
    macro_rules! broadcast_gemm_impl {
        (
            $fn_name:ident, $tile4:ident, $tile1:ident, $feature:literal,
            $vec:ty, $lanes:expr, $load:ident, $store:ident, $set1:ident,
            $zero:ident, $add:ident, $mul:ident
            $(, masked: $mask:ident, $mload:ident, $mstore:ident)?
        ) => {
            /// See [`super::broadcast_gemm`].
            ///
            /// # Safety
            /// The host must support the instruction-set feature, and the
            /// slices must hold the elements the bounds asserted in
            /// [`super::broadcast_gemm_at`] require.
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            pub(super) unsafe fn $fn_name(
                rows: Range<usize>,
                depth: usize,
                n: usize,
                lhs: &[f32],
                lrs: usize,
                lps: usize,
                rhs: &[f32],
                out_block: &mut [f32],
            ) {
                let nrows = rows.len();
                if depth == 0 {
                    out_block[..nrows * n].fill(0.0);
                }
                let r0 = rows.start;
                let mut p0 = 0usize;
                while p0 < depth {
                    let p1 = (p0 + KC).min(depth);
                    let mut j0 = 0usize;
                    while j0 < n {
                        let j1 = (j0 + NC).min(n);
                        let mut i = 0usize;
                        while i + 4 <= nrows {
                            let out = &mut out_block[i * n..];
                            $tile4(r0 + i, p0, p1, n, j0, j1, lhs, lrs, lps, rhs, out);
                            i += 4;
                        }
                        while i < nrows {
                            let out = &mut out_block[i * n..];
                            $tile1(r0 + i, p0, p1, n, j0, j1, lhs, lrs, lps, rhs, out);
                            i += 1;
                        }
                        j0 = j1;
                    }
                    p0 = p1;
                }
            }

            /// 4 output rows × (2·lanes → lanes → masked → scalar) columns
            /// `j0..j1` for one k-block, starting from +0.0 in the first
            /// k-block (`p0 == 0`) and on top of `out` after it (absolute
            /// lhs row `r`, row stride `n`).
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $tile4(
                r: usize,
                p0: usize,
                p1: usize,
                n: usize,
                j0: usize,
                j1: usize,
                lhs: &[f32],
                lrs: usize,
                lps: usize,
                rhs: &[f32],
                out: &mut [f32],
            ) {
                const L: usize = $lanes;
                let lp = lhs.as_ptr();
                let bp = rhs.as_ptr();
                let op = out.as_mut_ptr();
                // The first k-block starts its sums at +0.0 in registers;
                // later blocks reload what the previous block stored.
                let first = p0 == 0;
                let mut j = j0;
                while j + 2 * L <= j1 {
                    let (o0, o1, o2, o3) =
                        (op.add(j), op.add(n + j), op.add(2 * n + j), op.add(3 * n + j));
                    let mut a00 = if first { $zero() } else { $load(o0) };
                    let mut a01 = if first { $zero() } else { $load(o0.add(L)) };
                    let mut a10 = if first { $zero() } else { $load(o1) };
                    let mut a11 = if first { $zero() } else { $load(o1.add(L)) };
                    let mut a20 = if first { $zero() } else { $load(o2) };
                    let mut a21 = if first { $zero() } else { $load(o2.add(L)) };
                    let mut a30 = if first { $zero() } else { $load(o3) };
                    let mut a31 = if first { $zero() } else { $load(o3.add(L)) };
                    for p in p0..p1 {
                        let b = bp.add(p * n + j);
                        let b0 = $load(b);
                        let b1 = $load(b.add(L));
                        let l = lp.add(p * lps);
                        let v0 = $set1(*l.add(r * lrs));
                        a00 = $add(a00, $mul(v0, b0));
                        a01 = $add(a01, $mul(v0, b1));
                        let v1 = $set1(*l.add((r + 1) * lrs));
                        a10 = $add(a10, $mul(v1, b0));
                        a11 = $add(a11, $mul(v1, b1));
                        let v2 = $set1(*l.add((r + 2) * lrs));
                        a20 = $add(a20, $mul(v2, b0));
                        a21 = $add(a21, $mul(v2, b1));
                        let v3 = $set1(*l.add((r + 3) * lrs));
                        a30 = $add(a30, $mul(v3, b0));
                        a31 = $add(a31, $mul(v3, b1));
                    }
                    $store(o0, a00);
                    $store(o0.add(L), a01);
                    $store(o1, a10);
                    $store(o1.add(L), a11);
                    $store(o2, a20);
                    $store(o2.add(L), a21);
                    $store(o3, a30);
                    $store(o3.add(L), a31);
                    j += 2 * L;
                }
                while j + L <= j1 {
                    let (o0, o1, o2, o3) =
                        (op.add(j), op.add(n + j), op.add(2 * n + j), op.add(3 * n + j));
                    let mut a0 = if first { $zero() } else { $load(o0) };
                    let mut a1 = if first { $zero() } else { $load(o1) };
                    let mut a2 = if first { $zero() } else { $load(o2) };
                    let mut a3 = if first { $zero() } else { $load(o3) };
                    for p in p0..p1 {
                        let b0 = $load(bp.add(p * n + j));
                        let l = lp.add(p * lps);
                        a0 = $add(a0, $mul($set1(*l.add(r * lrs)), b0));
                        a1 = $add(a1, $mul($set1(*l.add((r + 1) * lrs)), b0));
                        a2 = $add(a2, $mul($set1(*l.add((r + 2) * lrs)), b0));
                        a3 = $add(a3, $mul($set1(*l.add((r + 3) * lrs)), b0));
                    }
                    $store(o0, a0);
                    $store(o1, a1);
                    $store(o2, a2);
                    $store(o3, a3);
                    j += L;
                }
                $(
                    if j < j1 {
                        let m = $mask(j1 - j);
                        let (o0, o1, o2, o3) =
                            (op.add(j), op.add(n + j), op.add(2 * n + j), op.add(3 * n + j));
                        let mut a0 = if first { $zero() } else { $mload(m, o0) };
                        let mut a1 = if first { $zero() } else { $mload(m, o1) };
                        let mut a2 = if first { $zero() } else { $mload(m, o2) };
                        let mut a3 = if first { $zero() } else { $mload(m, o3) };
                        for p in p0..p1 {
                            let b0 = $mload(m, bp.add(p * n + j));
                            let l = lp.add(p * lps);
                            a0 = $add(a0, $mul($set1(*l.add(r * lrs)), b0));
                            a1 = $add(a1, $mul($set1(*l.add((r + 1) * lrs)), b0));
                            a2 = $add(a2, $mul($set1(*l.add((r + 2) * lrs)), b0));
                            a3 = $add(a3, $mul($set1(*l.add((r + 3) * lrs)), b0));
                        }
                        $mstore(o0, m, a0);
                        $mstore(o1, m, a1);
                        $mstore(o2, m, a2);
                        $mstore(o3, m, a3);
                        j = j1;
                    }
                )?
                while j < j1 {
                    for row in 0..4 {
                        let o = op.add(row * n + j);
                        let mut acc = if first { 0.0 } else { *o };
                        for p in p0..p1 {
                            acc += *lp.add((r + row) * lrs + p * lps) * *bp.add(p * n + j);
                        }
                        *o = acc;
                    }
                    j += 1;
                }
            }

            /// Single-row kernel for the row tail; same column structure.
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $tile1(
                r: usize,
                p0: usize,
                p1: usize,
                n: usize,
                j0: usize,
                j1: usize,
                lhs: &[f32],
                lrs: usize,
                lps: usize,
                rhs: &[f32],
                out: &mut [f32],
            ) {
                const L: usize = $lanes;
                let lp = lhs.as_ptr();
                let bp = rhs.as_ptr();
                let op = out.as_mut_ptr();
                // The first k-block starts its sums at +0.0 in registers;
                // later blocks reload what the previous block stored.
                let first = p0 == 0;
                let mut j = j0;
                while j + 2 * L <= j1 {
                    let o = op.add(j);
                    let mut a0 = if first { $zero() } else { $load(o) };
                    let mut a1 = if first { $zero() } else { $load(o.add(L)) };
                    for p in p0..p1 {
                        let b = bp.add(p * n + j);
                        let v = $set1(*lp.add(r * lrs + p * lps));
                        a0 = $add(a0, $mul(v, $load(b)));
                        a1 = $add(a1, $mul(v, $load(b.add(L))));
                    }
                    $store(o, a0);
                    $store(o.add(L), a1);
                    j += 2 * L;
                }
                while j + L <= j1 {
                    let o = op.add(j);
                    let mut a0 = if first { $zero() } else { $load(o) };
                    for p in p0..p1 {
                        let v = $set1(*lp.add(r * lrs + p * lps));
                        a0 = $add(a0, $mul(v, $load(bp.add(p * n + j))));
                    }
                    $store(o, a0);
                    j += L;
                }
                $(
                    if j < j1 {
                        let m = $mask(j1 - j);
                        let o = op.add(j);
                        let mut a0 = if first { $zero() } else { $mload(m, o) };
                        for p in p0..p1 {
                            let v = $set1(*lp.add(r * lrs + p * lps));
                            a0 = $add(a0, $mul(v, $mload(m, bp.add(p * n + j))));
                        }
                        $mstore(o, m, a0);
                        j = j1;
                    }
                )?
                while j < j1 {
                    let o = op.add(j);
                    let mut acc = if first { 0.0 } else { *o };
                    for p in p0..p1 {
                        acc += *lp.add(r * lrs + p * lps) * *bp.add(p * n + j);
                    }
                    *o = acc;
                    j += 1;
                }
            }
        };
    }

    /// Lane mask selecting the first `rem` of 16 lanes (`0 < rem < 16`).
    #[inline(always)]
    fn tail_mask16(rem: usize) -> __mmask16 {
        ((1u32 << rem) - 1) as __mmask16
    }

    broadcast_gemm_impl!(
        broadcast_gemm_avx512,
        tile4_avx512,
        tile1_avx512,
        "avx512f",
        __m512,
        16,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_setzero_ps,
        _mm512_add_ps,
        _mm512_mul_ps,
        masked: tail_mask16,
        _mm512_maskz_loadu_ps,
        _mm512_mask_storeu_ps
    );

    broadcast_gemm_impl!(
        broadcast_gemm_avx2,
        tile4_avx2,
        tile1_avx2,
        "avx2",
        __m256,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_setzero_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    );

    broadcast_gemm_impl!(
        broadcast_gemm_sse2,
        tile4_sse2,
        tile1_sse2,
        "sse2",
        __m128,
        4,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_set1_ps,
        _mm_setzero_ps,
        _mm_add_ps,
        _mm_mul_ps
    );

    /// Generates the element-wise kernels for one instruction-set feature:
    /// the `#[inline(always)]` scalar loops inline here and LLVM vectorizes
    /// them at the feature's width, so each lane runs the same IEEE
    /// operations as the scalar build.
    macro_rules! elementwise_impl {
        (
            $feature:literal, $axpy:ident, $scale:ident, $add_bias:ident, $gelu:ident,
            $gelu_train:ident, $adam:ident, $dropout_mask:ident
        ) => {
            /// [`super::axpy`] compiled for the feature.
            ///
            /// # Safety
            /// The host must support the instruction-set feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
                super::axpy_loop(alpha, x, y)
            }

            /// [`super::scale`] compiled for the feature.
            ///
            /// # Safety
            /// The host must support the instruction-set feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $scale(alpha: f32, y: &mut [f32]) {
                super::scale_loop(alpha, y)
            }

            /// [`super::add_bias`] compiled for the feature.
            ///
            /// # Safety
            /// The host must support the instruction-set feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $add_bias(bias: &[f32], x: &mut [f32]) {
                super::add_bias_loop(bias, x)
            }

            /// [`super::gelu_slice`] compiled for the feature.
            ///
            /// # Safety
            /// The host must support the instruction-set feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $gelu(x: &[f32], out: &mut [f32]) {
                super::gelu_loop(x, out)
            }

            /// [`super::gelu_train_slice`] compiled for the feature.
            ///
            /// # Safety
            /// The host must support the instruction-set feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $gelu_train(x: &[f32], out: &mut [f32], deriv: &mut [f32]) {
                super::gelu_train_loop(x, out, deriv)
            }

            /// [`super::adam_slice`] compiled for the feature.
            ///
            /// # Safety
            /// The host must support the instruction-set feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $adam(
                step: super::AdamStep,
                value: &mut [f32],
                grad: &[f32],
                m: &mut [f32],
                v: &mut [f32],
            ) {
                super::adam_loop(step, value, grad, m, v)
            }

            /// [`super::dropout_mask`] compiled for the feature.
            ///
            /// # Safety
            /// The host must support the instruction-set feature.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn $dropout_mask(
                rng: &mut super::StdRng,
                threshold: u64,
                scale: f32,
                mask: &mut [f32],
            ) {
                super::dropout_mask_loop(rng, threshold, scale, mask)
            }
        };
    }

    elementwise_impl!(
        "avx512f",
        axpy_avx512,
        scale_avx512,
        add_bias_avx512,
        gelu_avx512,
        gelu_train_avx512,
        adam_avx512,
        dropout_mask_avx512
    );
    elementwise_impl!(
        "avx2",
        axpy_avx2,
        scale_avx2,
        add_bias_avx2,
        gelu_avx2,
        gelu_train_avx2,
        adam_avx2,
        dropout_mask_avx2
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every level this host can run, lowest first. Tests check each of
    /// them whatever `SILOFUSE_SIMD` caps [`level`] at, so a capped run
    /// still covers the wider kernels; a level the host lacks is skipped.
    fn host_levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|&l| l <= detect())
            .collect()
    }

    fn noise(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64 * 20.0 - 10.0) as f32
            })
            .collect()
    }

    /// The scalar reference pattern every level must match bit for bit.
    fn oracle(
        rows: Range<usize>,
        depth: usize,
        n: usize,
        lhs: &[f32],
        lrs: usize,
        lps: usize,
        rhs: &[f32],
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; rows.len() * n];
        for (local, r) in rows.enumerate() {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..depth {
                    acc += lhs[r * lrs + p * lps] * rhs[p * n + j];
                }
                out[local * n + j] = acc;
            }
        }
        out
    }

    /// Every host level's kernel, in both lhs layouts, at every column
    /// count from 1 to 40 (so every masked AVX-512 width from 1 to 15, after
    /// zero, one and two full tiles), with 4-row tiles and 1-row tails and a
    /// depth past one `KC` block; at outputs around one and two `NC`
    /// column blocks and as wide as Churn's decoder head (2 946), at a
    /// depth past `KC`; and at depth 0, whose output is all +0.0. The
    /// output starts as NaN, so an element a kernel skips fails.
    #[test]
    fn broadcast_gemm_matches_oracle_at_awkward_shapes() {
        let mut shapes: Vec<(usize, usize, usize)> =
            (1..=40).map(|n| (1 + n % 9, 1 + (n * 7) % 31, n)).collect();
        shapes.extend([(8, 300, 19), (13, 64, 40), (16, 128, 13), (4, 16, 16)]);
        shapes.extend([(5, 0, 40), (1, 0, 3)]);
        shapes.extend([NC - 1, NC, NC + 1, 2 * NC + 17, 2946].map(|n| (5, KC + 44, n)));
        for level in host_levels() {
            for &(m, depth, n) in &shapes {
                // Row-major lhs (gemm layout) and strided lhs (transpose_gemm
                // layout, stride m) both go through the same kernel.
                for &(lrs, lps, lhs_len) in &[(depth, 1usize, m * depth), (1usize, m, depth * m)] {
                    let lhs = noise(lhs_len, (m * depth * n) as u64);
                    let rhs = noise(depth * n, (m + depth + n) as u64);
                    let want = oracle(0..m, depth, n, &lhs, lrs, lps, &rhs);
                    let mut got = vec![f32::NAN; m * n];
                    // SAFETY: `host_levels` lists only levels the host has.
                    unsafe {
                        broadcast_gemm_at(level, 0..m, depth, n, &lhs, lrs, lps, &rhs, &mut got)
                    };
                    assert_eq!(
                        bits(&want),
                        bits(&got),
                        "{m}x{depth}x{n} lrs={lrs} lps={lps} level={level:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn broadcast_gemm_respects_row_ranges() {
        let (m, depth, n) = (9, 21, 11);
        let lhs = noise(m * depth, 3);
        let rhs = noise(depth * n, 4);
        let full = oracle(0..m, depth, n, &lhs, depth, 1, &rhs);
        let mut got = vec![0.0f32; 4 * n];
        broadcast_gemm(3..7, depth, n, &lhs, depth, 1, &rhs, &mut got);
        assert_eq!(&full[3 * n..7 * n], &got[..]);
    }

    #[test]
    fn pack_transpose_round_trips() {
        let (r, c) = (37, 23);
        let src = noise(r * c, 5);
        let mut t = vec![0.0f32; r * c];
        pack_transpose(r, c, &src, 0, &mut t);
        for i in 0..r {
            for j in 0..c {
                assert_eq!(t[j * r + i], src[i * c + j]);
            }
        }
        // Packed in column blocks of any width, the panel is the same.
        for block in [1, 5, 22, 23] {
            let mut parts = vec![f32::NAN; r * c];
            for (b, chunk) in parts.chunks_mut(block * r).enumerate() {
                pack_transpose(r, c, &src, b * block, chunk);
            }
            assert_eq!(parts, t, "column blocks of {block}");
        }
    }

    #[test]
    fn axpy_and_scale_match_scalar() {
        for level in host_levels() {
            for len in [1, 7, 15, 16, 17, 31, 33, 1003] {
                let x = noise(len, 6);
                let y0 = noise(len, 7);
                let mut want = y0.clone();
                for (yv, &xv) in want.iter_mut().zip(&x) {
                    *yv += 0.37 * xv;
                }
                let mut got = y0.clone();
                // SAFETY: `host_levels` lists only levels the host has.
                unsafe { axpy_at(level, 0.37, &x, &mut got) };
                assert_eq!(bits(&want), bits(&got), "axpy len {len} level={level:?}");

                let mut want_s = y0.clone();
                for v in want_s.iter_mut() {
                    *v *= -1.25;
                }
                let mut got_s = y0;
                // SAFETY: as above.
                unsafe { scale_at(level, -1.25, &mut got_s) };
                assert_eq!(bits(&want_s), bits(&got_s), "scale len {len} level={level:?}");
            }
        }
    }

    #[test]
    fn add_bias_matches_scalar() {
        for level in host_levels() {
            for (rows, cols) in [(1, 1), (3, 7), (2, 16), (5, 17), (4, 33), (3, 1003), (0, 5)] {
                let bias = noise(cols, 8);
                let x0 = noise(rows * cols, 9);
                let mut want = x0.clone();
                for row in want.chunks_mut(cols) {
                    for (v, &b) in row.iter_mut().zip(&bias) {
                        *v += b;
                    }
                }
                let mut got = x0;
                // SAFETY: `host_levels` lists only levels the host has.
                unsafe { add_bias_at(level, &bias, &mut got) };
                assert_eq!(bits(&want), bits(&got), "add_bias {rows}x{cols} level={level:?}");
            }
        }
    }

    /// Every host level's Adam kernel equals the update written out
    /// element by element, bit for bit, over three steps.
    #[test]
    fn adam_matches_the_scalar_update() {
        for level in host_levels() {
            for len in [1, 7, 15, 16, 17, 31, 33, 1003] {
                let grad = noise(len, 21);
                let (mut want_p, mut want_m) = (noise(len, 22), noise(len, 23));
                let mut want_v: Vec<f32> = noise(len, 24).iter().map(|x| x.abs()).collect();
                let (mut p, mut m, mut v) = (want_p.clone(), want_m.clone(), want_v.clone());
                for t in 1..=3 {
                    let (b1, b2, lr, eps) = (0.9f32, 0.999f32, 1e-3f32, 1e-8f32);
                    let (bc1, bc2) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
                    for i in 0..len {
                        let g = grad[i];
                        want_m[i] = b1 * want_m[i] + (1.0 - b1) * g;
                        want_v[i] = b2 * want_v[i] + (1.0 - b2) * g * g;
                        want_p[i] -= lr * (want_m[i] / bc1) / ((want_v[i] / bc2).sqrt() + eps);
                    }
                    let step = AdamStep { lr, beta1: b1, beta2: b2, eps, bias1: bc1, bias2: bc2 };
                    // SAFETY: `host_levels` lists only levels the host has.
                    unsafe { adam_slice_at(level, step, &mut p, &grad, &mut m, &mut v) };
                }
                assert_eq!(bits(&want_p), bits(&p), "value len {len} level={level:?}");
                assert_eq!(bits(&want_m), bits(&m), "m len {len} level={level:?}");
                assert_eq!(bits(&want_v), bits(&v), "v len {len} level={level:?}");
            }
        }
    }

    /// Every host level's dropout mask equals the per-element test
    /// `gen::<f32>() < keep` on the same draws, and leaves the generator
    /// in the same state.
    #[test]
    fn dropout_mask_matches_the_per_element_draws() {
        use rand::{Rng, SeedableRng};
        for level in host_levels() {
            for seed in 0..8u64 {
                for keep in [0.5f32, 0.7, 0.9, 0.99] {
                    for len in [0, 1, 15, 16, 17, 1003, 192 * 128] {
                        let scale = 1.0 / keep;
                        let mut draws = StdRng::seed_from_u64(seed);
                        let want: Vec<f32> = (0..len)
                            .map(|_| if draws.gen::<f32>() < keep { scale } else { 0.0 })
                            .collect();
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut got = vec![f32::NAN; len];
                        let threshold = rand::f32_below_threshold(keep);
                        // SAFETY: `host_levels` lists only levels the host has.
                        unsafe { dropout_mask_at(level, &mut rng, threshold, scale, &mut got) };
                        let at = format!("seed {seed} keep {keep} len {len} level={level:?}");
                        assert_eq!(bits(&want), bits(&got), "{at}");
                        assert_eq!(draws.state(), rng.state(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn simd_cap_spellings() {
        for (value, want) in [
            ("scalar", SimdLevel::Scalar),
            ("OFF", SimdLevel::Scalar),
            ("sse2", SimdLevel::Sse2),
            ("AVX2", SimdLevel::Avx2),
            ("avx512", SimdLevel::Avx512),
            ("auto", SimdLevel::Avx512),
            ("", SimdLevel::Avx512),
        ] {
            assert_eq!(parse_cap(value), Ok(want), "{value:?}");
        }
        for value in ["avx-2", "sse4", "avx", "1", " avx2"] {
            let err = parse_cap(value).expect_err(value);
            assert!(err.contains("scalar, sse2, avx2, avx512 or auto"), "{err}");
        }
    }

    /// Inputs the fdlibm branches single out: ±0, subnormals, the
    /// |x| < 2^-55 and |x| ≥ 22 branches, ±Inf and quiet/signalling NaNs
    /// with payloads.
    const SPECIAL_BITS: [u32; 20] = [
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x8000_0001,
        0x007f_ffff,
        0x807f_ffff,
        0x2000_0000,
        0x41b0_0000,
        0xc1b0_0000,
        0x41af_ffff,
        0x4f00_0000,
        0x7f7f_ffff,
        0xff7f_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_0001,
        0x7f80_0001,
        0xff80_1234,
        0x7fff_ffff,
    ];

    /// Every `stride`-th f32 bit pattern, then [`SPECIAL_BITS`], in blocks.
    fn for_each_block(stride: u64, mut f: impl FnMut(&[f32])) {
        const BLOCK: usize = 4099; // odd, so SIMD tails occur
        let mut block = Vec::with_capacity(BLOCK);
        let mut bits = 0u64;
        while bits <= u64::from(u32::MAX) {
            block.push(f32::from_bits(bits as u32));
            if block.len() == BLOCK {
                f(&block);
                block.clear();
            }
            bits += stride;
        }
        block.extend(SPECIAL_BITS.iter().map(|&b| f32::from_bits(b)));
        f(&block);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every host level's build of the GELU kernels equals the scalar
    /// definitions bit for bit on every 97th f32 bit pattern plus the
    /// specials: the inference kernel equals [`gelu`], and the fused
    /// training kernel's output equals [`gelu`] and its derivative
    /// [`gelu_grad`]. Builds against the scalar code only: the host's libm
    /// plays no part.
    #[test]
    fn gelu_kernels_match_scalar_definition() {
        let levels = host_levels();
        let mut checked = 0usize;
        let (mut got, mut got_train, mut got_deriv) = (Vec::new(), Vec::new(), Vec::new());
        for_each_block(97, |x| {
            let want: Vec<f32> = x.iter().map(|&v| gelu(v)).collect();
            let want_deriv: Vec<f32> = x.iter().map(|&v| gelu_grad(v)).collect();
            for &level in &levels {
                got.resize(x.len(), 0.0);
                got_train.resize(x.len(), 0.0);
                got_deriv.resize(x.len(), 0.0);
                // SAFETY: `host_levels` lists only levels the host has.
                unsafe {
                    gelu_slice_at(level, x, &mut got);
                    gelu_train_slice_at(level, x, &mut got_train, &mut got_deriv);
                }
                for i in 0..x.len() {
                    let at = x[i].to_bits();
                    assert_eq!(want[i].to_bits(), got[i].to_bits(), "gelu {level:?} at {at:#010x}");
                    assert_eq!(
                        want[i].to_bits(),
                        got_train[i].to_bits(),
                        "fused gelu {level:?} at {at:#010x}"
                    );
                    assert_eq!(
                        want_deriv[i].to_bits(),
                        got_deriv[i].to_bits(),
                        "fused gelu_grad {level:?} at {at:#010x}"
                    );
                }
            }
            checked += x.len();
        });
        assert!(checked > (1 << 32) / 97);
    }

    /// Output bits of the port pinned at inputs covering every branch it
    /// takes, so an edit to the port fails on any host. The values are
    /// glibc 2.36's `tanhf`/`expm1f` results. `tanh` calls expm1(-2|x|) for
    /// |x| < 1 and expm1(2|x|) for |x| ≥ 1; comments name the expm1
    /// reduction multiple `k` of that argument.
    #[test]
    fn tanh_port_output_bits_are_pinned() {
        let pinned: [(f32, u32); 17] = [
            (0.0, 0x0000_0000),
            (-0.0, 0x8000_0000),
            (1.0e-20, 0x1e3c_e508), // |x| < 2^-55: x·(1 + x)
            (1.0e-8, 0x322b_cc77),  // |arg| < 2^-25: expm1(arg) = arg
            (0.1, 0x3dcc_1ebc),     // k = 0
            (-0.3, 0xbe95_26ed),    // k = -1
            (0.75, 0x3f22_991f),    // k = -2
            (-0.95, 0xbf3d_626d),   // k = -3
            (1.0, 0x3f42_f7d6),     // k = 3
            (-2.5, 0xbf7c_92c1),    // k = 7
            (4.0, 0x3f7f_d40c),     // k = 12
            (8.5, 0x3f7f_ffff),     // k = 25
            (-13.0, 0xbf80_0000),   // k = 38
            (20.0, 0x3f80_0000),    // k = 58
            (-21.9, 0xbf80_0000),   // k = 63
            (22.0, 0x3f80_0000),    // |x| ≥ 22: 1 − tiny
            (f32::NEG_INFINITY, 0xbf80_0000),
        ];
        for (x, want) in pinned {
            assert_eq!(tanh(x).to_bits(), want, "tanh({x:e})");
        }
        assert_eq!(tanh(f32::from_bits(0x7f80_0001)).to_bits(), 0x7fc0_0001, "sNaN quiets");
        // Near 1, tanh rounds most of expm1's bits away; pin expm1 itself
        // at one argument per branch.
        let pinned: [(f32, u32); 12] = [
            (-2.0e-8, 0xb2ab_cc77), // |x| < 2^-25
            (-0.2, 0xbe39_9ea5),    // k = 0
            (0.3, 0x3eb3_20b2),     // k = 0
            (-0.6, 0xbee7_022a),    // k = -1
            (-1.5, 0xbf46_e0f1),    // k = -2
            (-1.9, 0xbf59_b5df),    // k = -3
            (2.0, 0x40cc_7326),     // k = 3
            (10.0, 0x46ac_12ee),    // k = 14
            (17.0, 0x4bb8_49a4),    // k = 25
            (30.0, 0x551b_8238),    // k = 43
            (40.0, 0x5c51_106a),    // k = 58
            (43.8, 0x5f12_05a0),    // k = 63
        ];
        for (x, want) in pinned {
            assert_eq!(expm1(x).to_bits(), want, "expm1({x:e})");
        }
    }

    /// The port compiled for AVX2, as the GELU kernels compile it.
    ///
    /// # Safety
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh_avx2(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = tanh(v);
        }
    }

    /// The port compiled for AVX-512, as the GELU kernels compile it.
    ///
    /// # Safety
    /// The host must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn tanh_avx512(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = tanh(v);
        }
    }

    /// Every build of the port the host can run equals the host's `tanhf`
    /// on all 2^32 inputs. This pins the host libm (the port follows glibc
    /// 2.36); run it with `cargo test --release -p silofuse-nn --lib
    /// tanh_port_matches_host_libm -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; compares against the host libm"]
    fn tanh_port_matches_host_libm_on_every_input() {
        let levels = host_levels();
        let mut mismatches = 0u64;
        let mut got = Vec::new();
        for_each_block(1, |x| {
            for &v in x {
                if tanh(v).to_bits() != v.tanh().to_bits() {
                    mismatches += 1;
                }
            }
            #[cfg(target_arch = "x86_64")]
            for &level in &levels {
                got.resize(x.len(), 0.0);
                // SAFETY: `host_levels` lists only levels the host has.
                match level {
                    SimdLevel::Avx2 => unsafe { tanh_avx2(x, &mut got) },
                    SimdLevel::Avx512 => unsafe { tanh_avx512(x, &mut got) },
                    SimdLevel::Scalar | SimdLevel::Sse2 => continue,
                }
                for (g, &v) in got.iter().zip(x) {
                    if g.to_bits() != v.tanh().to_bits() {
                        mismatches += 1;
                    }
                }
            }
        });
        assert_eq!(mismatches, 0, "tanh port differs from the host libm");
    }

    #[test]
    fn nan_and_inf_propagate_like_scalar() {
        let (m, depth, n) = (5, 13, 17);
        let mut lhs = noise(m * depth, 8);
        let mut rhs = noise(depth * n, 9);
        lhs[7] = f32::NAN;
        lhs[m * depth - 1] = f32::INFINITY;
        rhs[3] = f32::NEG_INFINITY;
        rhs[depth * n / 2] = f32::NAN;
        let want = oracle(0..m, depth, n, &lhs, depth, 1, &rhs);
        for level in host_levels() {
            let mut got = vec![0.0f32; m * n];
            // SAFETY: `host_levels` lists only levels the host has.
            unsafe { broadcast_gemm_at(level, 0..m, depth, n, &lhs, depth, 1, &rhs, &mut got) };
            assert_eq!(bits(&want), bits(&got), "level={level:?}");
        }
    }
}
