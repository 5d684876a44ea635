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
//! [`broadcast_gemm`] implements that pattern with register-blocked AVX2 or
//! SSE2 micro-kernels (4 output rows × 16/8 columns held in accumulator
//! registers, the lhs element broadcast across lanes) selected by runtime
//! feature detection, with a scalar fallback.
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
//! - cache blocking over `p` stores and reloads the f32 accumulators
//!   between blocks, which is exact;
//! - tails (row, column, and depth) fall to narrower kernels or scalar
//!   loops that preserve the per-element accumulation order.
//!
//! NaN and Inf follow from the same construction: the lanewise vector ops
//! have the same IEEE special-value semantics as their scalar forms (x86
//! scalar f32 math is SSE anyway), so specials propagate bit-identically.
//!
//! # GELU and the repo-owned `tanh`
//!
//! [`gelu_slice`] and [`gelu_backward_slice`] evaluate the GELU tanh
//! approximation through [`tanh`], a branch-free port of the fdlibm
//! `tanhf`/`expm1f` pair that glibc 2.36 ships. The port is written once as
//! `#[inline(always)]` scalar code — every branch computed, the result
//! selected, multiplies and adds kept separate — and compiled a second time
//! inside a `#[target_feature(enable = "avx2")]` slice loop that LLVM
//! auto-vectorizes. Both builds perform the same IEEE operations per
//! element, so every level agrees bit for bit by construction, and the
//! result no longer depends on which `tanhf` the host's libm provides.
//!
//! # Selection
//!
//! The level is detected once and cached. `SILOFUSE_SIMD` overrides it:
//! `0`/`off`/`scalar` force the scalar fallback (the CI matrix uses this),
//! `sse2` caps at SSE2, `avx2`/`auto`/unset pick the best the host has.

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
}

impl SimdLevel {
    /// Level name for telemetry and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Best level the host supports at runtime.
fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
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

/// The active SIMD level: host capability capped by `SILOFUSE_SIMD`
/// (`0`/`off`/`scalar` → scalar, `sse2` → at most SSE2, anything else →
/// best available). Detected once and cached for the process lifetime.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let cap = match std::env::var("SILOFUSE_SIMD") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "0" | "off" | "scalar" | "none" => SimdLevel::Scalar,
                "sse" | "sse2" => SimdLevel::Sse2,
                _ => SimdLevel::Avx2,
            },
            Err(_) => SimdLevel::Avx2,
        };
        detect().min(cap)
    })
}

/// k-dimension cache-block size: accumulators stay in registers for a full
/// block; a `KC×n` panel of `rhs` stays hot while a tile of lhs rows
/// streams over it. Exact regardless of value (see module docs).
const KC: usize = 256;

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
    debug_assert!(out_block.len() >= rows.len() * n);
    debug_assert!(depth == 0 || rhs.len() >= depth * n);
    debug_assert!(
        rows.is_empty() || depth == 0 || lhs.len() > (rows.end - 1) * lrs + (depth - 1) * lps
    );
    #[cfg(target_arch = "x86_64")]
    match level() {
        // SAFETY: gated on runtime feature detection.
        SimdLevel::Avx2 => unsafe {
            x86::broadcast_gemm_avx2(rows, depth, n, lhs, lrs, lps, rhs, out_block)
        },
        // SAFETY: SSE2 is part of the x86_64 baseline.
        SimdLevel::Sse2 => unsafe {
            x86::broadcast_gemm_sse2(rows, depth, n, lhs, lrs, lps, rhs, out_block)
        },
        SimdLevel::Scalar => scalar_broadcast_gemm(rows, depth, n, lhs, lrs, lps, rhs, out_block),
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_broadcast_gemm(rows, depth, n, lhs, lrs, lps, rhs, out_block)
}

/// Packs `src` (a `rows×cols` row-major matrix) transposed into `dst`
/// (`cols×rows` row-major): `dst[c·rows + r] = src[r·cols + c]`. Blocked
/// so both sides stream through cache lines; pure data movement, so it
/// cannot affect numerics.
pub fn pack_transpose(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    debug_assert!(src.len() >= rows * cols);
    debug_assert!(dst.len() >= rows * cols);
    const TILE: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// `y[i] += alpha · x[i]` (separate mul and add — bit-identical to scalar).
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: gated on runtime feature detection.
        unsafe { x86::axpy_avx2(alpha, x, y) };
        return;
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `y[i] *= alpha` (bit-identical to scalar).
pub fn scale(alpha: f32, y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: gated on runtime feature detection.
        unsafe { x86::scale_avx2(alpha, y) };
        return;
    }
    for v in y.iter_mut() {
        *v *= alpha;
    }
}

/// `√(2/π)`, the scale of the GELU tanh approximation.
const GELU_C: f32 = 0.797_884_6;

/// GELU, tanh approximation: `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    let inner = GELU_C * (x + 0.044715 * x * x * x);
    0.5 * x * (1.0 + tanh(inner))
}

/// Derivative of [`gelu`] at `x`.
#[inline(always)]
pub fn gelu_grad(x: f32) -> f32 {
    let x3 = 0.044715 * x * x * x;
    let t = tanh(GELU_C * (x + x3));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// `out[i] = gelu(x[i])`.
pub fn gelu_slice(x: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: gated on runtime feature detection.
        unsafe { x86::gelu_avx2(x, out) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(x) {
        *o = gelu(v);
    }
}

/// `out[i] = grad[i] · gelu'(x[i])`.
pub fn gelu_backward_slice(grad: &[f32], x: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 {
        // SAFETY: gated on runtime feature detection.
        unsafe { x86::gelu_backward_avx2(grad, x, out) };
        return;
    }
    for ((o, &g), &v) in out.iter_mut().zip(grad).zip(x) {
        *o = g * gelu_grad(v);
    }
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
    out_block[..rows.len() * n].fill(0.0);
    let mut p0 = 0;
    while p0 < depth {
        let p1 = (p0 + KC).min(depth);
        for (local, r) in rows.clone().enumerate() {
            let out_row = &mut out_block[local * n..(local + 1) * n];
            for p in p0..p1 {
                let av = lhs[r * lrs + p * lps];
                let b_row = &rhs[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        p0 = p1;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::KC;
    use core::arch::x86_64::*;
    use std::ops::Range;

    /// Generates the register-blocked micro-kernel family for one vector
    /// width. Structure (identical for AVX2/SSE2, differing in lane count):
    /// k-blocks of [`KC`] → 4-row tiles (then 1-row tail) → column tiles of
    /// two vectors (then one, then scalar). Accumulators live in registers
    /// for a whole k-block and are stored/reloaded between blocks (exact).
    macro_rules! broadcast_gemm_impl {
        (
            $fn_name:ident, $tile4:ident, $tile1:ident, $feature:literal,
            $vec:ty, $lanes:expr, $load:ident, $store:ident, $set1:ident,
            $add:ident, $mul:ident
        ) => {
            /// See [`super::broadcast_gemm`]; caller must have verified the
            /// instruction-set feature at runtime.
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
                out_block[..nrows * n].fill(0.0);
                let r0 = rows.start;
                let mut p0 = 0usize;
                while p0 < depth {
                    let p1 = (p0 + KC).min(depth);
                    let mut i = 0usize;
                    while i + 4 <= nrows {
                        $tile4(r0 + i, p0, p1, n, lhs, lrs, lps, rhs, &mut out_block[i * n..]);
                        i += 4;
                    }
                    while i < nrows {
                        $tile1(r0 + i, p0, p1, n, lhs, lrs, lps, rhs, &mut out_block[i * n..]);
                        i += 1;
                    }
                    p0 = p1;
                }
            }

            /// 4 output rows × (2·lanes → lanes → scalar) columns for one
            /// k-block, accumulating on top of `out` (absolute lhs row `r`).
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $tile4(
                r: usize,
                p0: usize,
                p1: usize,
                n: usize,
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
                let mut j = 0usize;
                while j + 2 * L <= n {
                    let (o0, o1, o2, o3) =
                        (op.add(j), op.add(n + j), op.add(2 * n + j), op.add(3 * n + j));
                    let mut a00 = $load(o0);
                    let mut a01 = $load(o0.add(L));
                    let mut a10 = $load(o1);
                    let mut a11 = $load(o1.add(L));
                    let mut a20 = $load(o2);
                    let mut a21 = $load(o2.add(L));
                    let mut a30 = $load(o3);
                    let mut a31 = $load(o3.add(L));
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
                while j + L <= n {
                    let (o0, o1, o2, o3) =
                        (op.add(j), op.add(n + j), op.add(2 * n + j), op.add(3 * n + j));
                    let mut a0 = $load(o0);
                    let mut a1 = $load(o1);
                    let mut a2 = $load(o2);
                    let mut a3 = $load(o3);
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
                while j < n {
                    for row in 0..4 {
                        let o = op.add(row * n + j);
                        let mut acc = *o;
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
                let mut j = 0usize;
                while j + 2 * L <= n {
                    let o = op.add(j);
                    let mut a0 = $load(o);
                    let mut a1 = $load(o.add(L));
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
                while j + L <= n {
                    let o = op.add(j);
                    let mut a0 = $load(o);
                    for p in p0..p1 {
                        let v = $set1(*lp.add(r * lrs + p * lps));
                        a0 = $add(a0, $mul(v, $load(bp.add(p * n + j))));
                    }
                    $store(o, a0);
                    j += L;
                }
                while j < n {
                    let o = op.add(j);
                    let mut acc = *o;
                    for p in p0..p1 {
                        acc += *lp.add(r * lrs + p * lps) * *bp.add(p * n + j);
                    }
                    *o = acc;
                    j += 1;
                }
            }
        };
    }

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
        _mm_add_ps,
        _mm_mul_ps
    );

    /// AVX2 `y += alpha·x`: one lane per element, separate mul and add.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len().min(x.len());
        let a = _mm256_set1_ps(alpha);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let yv = _mm256_loadu_ps(yp.add(i));
            let xv = _mm256_loadu_ps(xp.add(i));
            _mm256_storeu_ps(yp.add(i), _mm256_add_ps(yv, _mm256_mul_ps(a, xv)));
            i += 8;
        }
        while i < n {
            *yp.add(i) += alpha * *xp.add(i);
            i += 1;
        }
    }

    /// [`super::gelu_slice`] compiled for AVX2: the `#[inline(always)]`
    /// scalar port inlines here and LLVM vectorizes the loop, so each lane
    /// runs the same IEEE operations as the scalar build.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gelu_avx2(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = super::gelu(v);
        }
    }

    /// [`super::gelu_backward_slice`] compiled for AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gelu_backward_avx2(grad: &[f32], x: &[f32], out: &mut [f32]) {
        for ((o, &g), &v) in out.iter_mut().zip(grad).zip(x) {
            *o = g * super::gelu_grad(v);
        }
    }

    /// AVX2 `y *= alpha`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_avx2(alpha: f32, y: &mut [f32]) {
        let n = y.len();
        let a = _mm256_set1_ps(alpha);
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(yp.add(i), _mm256_mul_ps(a, _mm256_loadu_ps(yp.add(i))));
            i += 8;
        }
        while i < n {
            *yp.add(i) *= alpha;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn broadcast_gemm_matches_oracle_at_awkward_shapes() {
        for &(m, depth, n) in &[
            (1, 1, 1),
            (2, 3, 2),
            (3, 7, 5),
            (4, 16, 16),
            (5, 17, 9),
            (7, 31, 33),
            (8, 300, 19),
            (13, 64, 40),
        ] {
            // Row-major lhs (gemm layout) and strided lhs (transpose_gemm
            // layout, stride m) both go through the same kernel.
            for &(lrs, lps, lhs_len) in &[(depth, 1usize, m * depth), (1usize, m, depth * m)] {
                let lhs = noise(lhs_len, (m * depth * n) as u64);
                let rhs = noise(depth * n, (m + depth + n) as u64);
                let want = oracle(0..m, depth, n, &lhs, lrs, lps, &rhs);
                let mut got = vec![f32::NAN; m * n];
                broadcast_gemm(0..m, depth, n, &lhs, lrs, lps, &rhs, &mut got);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{m}x{depth}x{n} lrs={lrs} lps={lps} level={:?}",
                    level()
                );
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
        pack_transpose(r, c, &src, &mut t);
        for i in 0..r {
            for j in 0..c {
                assert_eq!(t[j * r + i], src[i * c + j]);
            }
        }
    }

    #[test]
    fn axpy_and_scale_match_scalar() {
        let x = noise(1003, 6);
        let y0 = noise(1003, 7);
        let mut want = y0.clone();
        for (yv, &xv) in want.iter_mut().zip(&x) {
            *yv += 0.37 * xv;
        }
        let mut got = y0.clone();
        axpy(0.37, &x, &mut got);
        assert_eq!(want, got);

        let mut want_s = y0.clone();
        for v in want_s.iter_mut() {
            *v *= -1.25;
        }
        let mut got_s = y0;
        scale(-1.25, &mut got_s);
        assert_eq!(want_s, got_s);
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

    /// The AVX2 build of the GELU kernels equals the scalar definition bit
    /// for bit, forward and backward, on every 97th f32 bit pattern plus
    /// the specials. Scalar vs AVX2 only: the host's libm plays no part.
    #[test]
    fn gelu_kernels_match_scalar_definition() {
        let avx2 = cfg!(target_arch = "x86_64") && detect() == SimdLevel::Avx2;
        let mut checked = 0usize;
        for_each_block(97, |x| {
            let want: Vec<f32> = x.iter().map(|&v| gelu(v)).collect();
            // Upstream gradients of mixed sign and magnitude.
            let grad: Vec<f32> = (0..x.len()).map(|i| (i % 13) as f32 * 0.75 - 4.0).collect();
            let want_grad: Vec<f32> = grad.iter().zip(x).map(|(&g, &v)| g * gelu_grad(v)).collect();
            let mut got = vec![0.0f32; x.len()];
            let mut got_grad = vec![0.0f32; x.len()];
            gelu_slice(x, &mut got);
            gelu_backward_slice(&grad, x, &mut got_grad);
            assert_eq!(bits(&want), bits(&got), "gelu_slice at level {:?}", level());
            assert_eq!(bits(&want_grad), bits(&got_grad), "gelu_backward_slice");
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: AVX2 detected above (independent of SILOFUSE_SIMD,
                // so capped CI legs still check the AVX2 build).
                unsafe {
                    x86::gelu_avx2(x, &mut got);
                    x86::gelu_backward_avx2(&grad, x, &mut got_grad);
                }
                for i in 0..x.len() {
                    assert_eq!(
                        want[i].to_bits(),
                        got[i].to_bits(),
                        "gelu avx2 vs scalar at {:#010x}",
                        x[i].to_bits()
                    );
                    assert_eq!(
                        want_grad[i].to_bits(),
                        got_grad[i].to_bits(),
                        "gelu_grad avx2 vs scalar at {:#010x}",
                        x[i].to_bits()
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

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh_avx2(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = tanh(v);
        }
    }

    /// Both builds of the port equal the host's `tanhf` on all 2^32 inputs.
    /// This pins the host libm (the port follows glibc 2.36); run it with
    /// `cargo test --release -p silofuse-nn --lib tanh_port_matches_host_libm
    /// -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; compares against the host libm"]
    fn tanh_port_matches_host_libm_on_every_input() {
        let avx2 = cfg!(target_arch = "x86_64") && detect() == SimdLevel::Avx2;
        let mut mismatches = 0u64;
        let mut got = Vec::new();
        for_each_block(1, |x| {
            got.resize(x.len(), 0.0);
            for &v in x {
                if tanh(v).to_bits() != v.tanh().to_bits() {
                    mismatches += 1;
                }
            }
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: AVX2 detected above.
                unsafe { tanh_avx2(x, &mut got) };
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
        let mut got = vec![0.0f32; m * n];
        broadcast_gemm(0..m, depth, n, &lhs, depth, 1, &rhs, &mut got);
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
