//! Pluggable compute backends for the dense kernels.
//!
//! Every dense operation in this crate — the three GEMM variants, axpy,
//! element-wise map/zip, GELU (inference, training forward and backward),
//! row reductions, softmax, the two decoder losses and the Adam update —
//! dispatches through a [`Backend`]. Two implementations ship:
//!
//! - [`Reference`]: the original single-threaded scalar loops, kept as the
//!   correctness oracle.
//! - [`Parallel`]: register-blocked SIMD micro-kernels (AVX-512, AVX2 or
//!   SSE2 by runtime detection, scalar fallback — see [`crate::simd`]) whose
//!   output rows are partitioned into blocks and drained by the caller
//!   plus whatever idle cores the process-wide [`crate::pool`] lends it
//!   (a shared work queue — each thread grabs the next block, so uneven
//!   blocks self-balance). `gemm_transpose` packs the `Bᵀ` panel k-major
//!   first (a large panel split across the same workers), so the hot loop
//!   reads both operands contiguously instead of paying a strided load per
//!   multiply.
//!
//! # Determinism guarantee
//!
//! Every `Backend` is **bit-identical** to `Reference`, and `Parallel` is
//! so at every thread count and SIMD level. Each output element is
//! accumulated by exactly one worker (and one SIMD lane) in a fixed order —
//! ascending `k` for GEMM, ascending row for column reductions — with
//! separate multiply and add instructions (never FMA, which would round
//! differently). Floating-point addition is not associative, so this is a
//! hard requirement: the crash-recovery suite asserts byte-identical
//! resume, and a thread- or lane-dependent sum would break it. Blocked
//! iteration keeps the order intact because blocks are visited in
//! ascending order and accumulate into the same output slot.
//!
//! The one piece of global state is the worker count of the [`Parallel`]
//! that [`get`] returns. It is selected with [`set_threads`] (the CLI's
//! `--threads N`) or the `SILOFUSE_THREADS` environment variable, and
//! defaults to one worker per available core
//! ([`std::thread::available_parallelism`]). One worker means serial SIMD
//! kernels. Since no worker count changes a result, it may change at any
//! time, even while a model trains.

use crate::simd::AdamStep;
use crate::sparse::{SparseField, SparseSpec};
use crate::{pool, simd, workspace};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Element-wise unary function passed to backend map kernels.
pub type MapFn<'a> = &'a (dyn Fn(f32) -> f32 + Sync);
/// Element-wise binary function passed to backend zip kernels.
pub type ZipFn<'a> = &'a (dyn Fn(f32, f32) -> f32 + Sync);

/// A dense-math execution engine.
///
/// All matrices are row-major `f32` slices; shape arguments are trusted by
/// the kernels and validated by the callers (`Tensor` asserts shapes).
/// Implementations must be bit-identical to [`Reference`] — see the module
/// docs for why this is non-negotiable.
pub trait Backend: Send + Sync + fmt::Debug {
    /// Human-readable backend name for telemetry and bench reports.
    fn name(&self) -> &'static str;

    /// Worker-thread count this backend may use (1 for serial backends).
    fn threads(&self) -> usize;

    /// `out = A·B` with `A: m×k`, `B: k×n`, `out: m×n` (overwritten).
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `out = A·Bᵀ` with `A: m×k`, `B: n×k`, `out: m×n` (overwritten).
    fn gemm_transpose(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `out = Aᵀ·B` with `A: l×m`, `B: l×n`, `out: m×n` (overwritten).
    fn transpose_gemm(&self, l: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]);

    /// `y += alpha * x`.
    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]);

    /// `y *= alpha`.
    fn scale(&self, alpha: f32, y: &mut [f32]);

    /// `out[i] = f(x[i])`.
    fn map(&self, x: &[f32], out: &mut [f32], f: MapFn);

    /// `out[i] = f(a[i], b[i])`.
    fn zip(&self, a: &[f32], b: &[f32], out: &mut [f32], f: ZipFn);

    /// `y[i] = f(y[i], x[i])`.
    fn zip_inplace(&self, y: &mut [f32], x: &[f32], f: ZipFn);

    /// `out[i] = gelu(x[i])`, the tanh approximation evaluated through the
    /// repo-owned [`simd::tanh`] (see [`simd::gelu`]).
    fn gelu(&self, x: &[f32], out: &mut [f32]);

    /// The training forward: `out[i] = gelu(x[i])` and
    /// `deriv[i] = gelu'(x[i])` (see [`simd::gelu_grad`]), which the
    /// backward pass multiplies by.
    fn gelu_train(&self, x: &[f32], out: &mut [f32], deriv: &mut [f32]);

    /// GELU backward: `out[i] = grad[i] · deriv[i]`, with `deriv` the
    /// derivative [`Backend::gelu_train`] wrote.
    fn gelu_backward(&self, grad: &[f32], deriv: &[f32], out: &mut [f32]);

    /// Column sums over a `rows×cols` matrix: `out[c] = Σ_r x[r][c]`,
    /// accumulated in ascending row order (`out` overwritten, len `cols`).
    fn sum_rows(&self, rows: usize, cols: usize, x: &[f32], out: &mut [f32]);

    /// Row-wise numerically-stabilised softmax, in place.
    fn softmax_rows(&self, rows: usize, cols: usize, x: &mut [f32]);

    /// Grouped softmax cross entropy over the logit blocks that start at
    /// column `offset` of the `rows × ld` matrix `logits`: `groups` gives
    /// each block's width and `targets[g·rows + r]` the class of block `g`
    /// in row `r`. Writes the gradient of the mean loss into the same
    /// columns of `grad` (`rows × ld`, other columns untouched) and returns
    /// the mean of the `rows·groups.len()` terms, summed row by row and
    /// block by block.
    #[allow(clippy::too_many_arguments)]
    fn cross_entropy(
        &self,
        rows: usize,
        ld: usize,
        offset: usize,
        logits: &[f32],
        groups: &[usize],
        targets: &[u32],
        grad: &mut [f32],
    ) -> f32;

    /// Gaussian negative log-likelihood of the `rows × n` matrix `target`
    /// under the heads in the `rows × ld` matrix `heads`: `μ` in columns
    /// `offset..offset + n`, `log σ²` in the `n` after them (see
    /// [`crate::loss::gaussian_nll`]). Writes the gradient of the mean loss
    /// into the same columns of `grad` (`rows × ld`, other columns
    /// untouched) and returns the mean of the `rows·n` terms, summed in
    /// row-major order.
    #[allow(clippy::too_many_arguments)]
    fn gaussian_nll(
        &self,
        rows: usize,
        n: usize,
        ld: usize,
        offset: usize,
        heads: &[f32],
        target: &[f32],
        grad: &mut [f32],
    ) -> f32;

    /// One Adam update of a parameter slice from its gradient, moving the
    /// moments `m` and `v` (see [`AdamStep::apply`]).
    fn adam(&self, step: AdamStep, value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]);

    /// Sparse one-hot forward: `out = X·W` where `X` is the densified
    /// `rows × in_width` batch described by `spec` + (`numeric`,
    /// `indices`), `W: in_width × n`, `out: rows × n` (overwritten).
    ///
    /// Per output element, contributions accumulate in ascending one-hot
    /// slot order with separate multiply and add — exactly the dense
    /// [`Backend::gemm`] order over the densified batch, minus the skipped
    /// `0·w` terms, which cannot change a round-to-nearest accumulator
    /// (`(+0)+(±0) = +0`, and a partial sum that starts at `+0` never
    /// becomes `-0` by addition). The sparse path is therefore
    /// **bit-identical** to the dense oracle for finite weights; only
    /// non-finite weights (where `0·∞ = NaN` is skipped) diverge.
    #[allow(clippy::too_many_arguments)]
    fn gather_gemm(
        &self,
        rows: usize,
        n: usize,
        spec: &SparseSpec,
        numeric: &[f32],
        indices: &[u32],
        w: &[f32],
        out: &mut [f32],
    ) {
        gather_rows(0..rows, spec, numeric, indices, n, w, out);
    }

    /// Sparse weight-gradient scatter: `dw = Xᵀ·G` with the same densified
    /// `X` as [`Backend::gather_gemm`], `G: rows × n`,
    /// `dw: in_width × n` (overwritten).
    ///
    /// Per `dw` element, row contributions accumulate in ascending batch
    /// row order — the dense [`Backend::transpose_gemm`] order — with the
    /// skipped `0·g` terms again unable to perturb the accumulator, so the
    /// result is bit-identical to the dense oracle for finite gradients.
    #[allow(clippy::too_many_arguments)]
    fn scatter_grad(
        &self,
        rows: usize,
        n: usize,
        spec: &SparseSpec,
        numeric: &[f32],
        indices: &[u32],
        grad: &[f32],
        dw: &mut [f32],
    ) {
        scatter_weight_rows(0..spec.in_width(), spec, rows, numeric, indices, n, grad, dw);
    }

    /// How many workers this backend would apply to an element-wise op over
    /// `elems` elements. Callers use this to keep closures monomorphised
    /// (and fast) on the serial path: a return of 1 means "run it inline".
    fn elementwise_parallelism(&self, elems: usize) -> usize {
        let _ = elems;
        1
    }
}

// ---------------------------------------------------------------------------
// Shared micro-kernels.
//
// Both backends call these on (sub-)ranges of output rows, which is what
// makes them bit-identical by construction: the per-element accumulation
// sequence does not depend on how rows are partitioned across workers.
// ---------------------------------------------------------------------------

/// k-dimension cache-block size: a `KC×n` panel of `B` stays resident while
/// a block of `A` rows streams over it.
const KC: usize = 128;

/// `out_block = A[rows]·B`; accumulation ascending in `k` per element.
fn gemm_rows(rows: Range<usize>, k: usize, n: usize, a: &[f32], b: &[f32], out_block: &mut [f32]) {
    out_block.fill(0.0);
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        for (local, i) in rows.clone().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out_block[local * n..(local + 1) * n];
            for kk in k0..k1 {
                let av = a_row[kk];
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        k0 = k1;
    }
}

/// `out_block = A[rows]·Bᵀ`; each element is one dot product, ascending `k`.
fn gemm_transpose_rows(
    rows: Range<usize>,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out_block: &mut [f32],
) {
    for (local, i) in rows.clone().enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out_block[local * n..(local + 1) * n];
        for (o, j) in out_row.iter_mut().zip(0..n) {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// `out_block = (Aᵀ·B)[cols]` — the output-row range `cols` indexes columns
/// of `A: l×m`; accumulation ascending in `l` (the shared row index).
fn transpose_gemm_rows(
    cols: Range<usize>,
    l: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out_block: &mut [f32],
) {
    out_block.fill(0.0);
    for r in 0..l {
        let a_row = &a[r * m..(r + 1) * m];
        let b_row = &b[r * n..(r + 1) * n];
        for (local, c) in cols.clone().enumerate() {
            let av = a_row[c];
            let out_row = &mut out_block[local * n..(local + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `out_block = A[rows]·B` through the SIMD micro-kernels; bit-identical
/// to [`gemm_rows`] (`lhs(i, p) = a[i·k + p]`, ascending `k` per element).
fn fast_gemm_rows(
    rows: Range<usize>,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out_block: &mut [f32],
) {
    simd::broadcast_gemm(rows, k, n, a, k, 1, b, out_block);
}

/// `out_block = (Aᵀ·B)[cols]` through the SIMD micro-kernels;
/// bit-identical to [`transpose_gemm_rows`] (`lhs(c, r) = a[r·m + c]`,
/// ascending `r` per element).
fn fast_transpose_gemm_rows(
    cols: Range<usize>,
    l: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out_block: &mut [f32],
) {
    simd::broadcast_gemm(cols, l, n, a, 1, m, b, out_block);
}

/// Column sums for the column range `cols`; ascending row order.
fn sum_rows_cols(cols: Range<usize>, rows: usize, stride: usize, x: &[f32], out_block: &mut [f32]) {
    out_block.fill(0.0);
    for r in 0..rows {
        let row = &x[r * stride..(r + 1) * stride];
        for (o, c) in out_block.iter_mut().zip(cols.clone()) {
            *o += row[c];
        }
    }
}

/// `out_block = X[rows]·W` over a sparse batch: per row, walk the spec's
/// fields in ascending slot order and accumulate one weight row per field
/// via [`simd::axpy`] (separate multiply and add). Numeric fields apply
/// `axpy(value, …)` even when the value is zero — matching the dense
/// kernel's `0·w` terms bit for bit — while a categorical block
/// contributes only its hot slot's weight row.
fn gather_rows(
    rows: Range<usize>,
    spec: &SparseSpec,
    numeric: &[f32],
    indices: &[u32],
    n: usize,
    w: &[f32],
    out_block: &mut [f32],
) {
    let n_num = spec.n_numeric();
    let n_cat = spec.n_categorical();
    out_block.fill(0.0);
    for (local, r) in rows.clone().enumerate() {
        let out_row = &mut out_block[local * n..(local + 1) * n];
        let num_row = &numeric[r * n_num..(r + 1) * n_num];
        let idx_row = &indices[r * n_cat..(r + 1) * n_cat];
        let mut num_i = 0;
        let mut cat_i = 0;
        for field in spec.fields() {
            let (alpha, slot) = match *field {
                SparseField::Numeric { slot } => {
                    num_i += 1;
                    (num_row[num_i - 1], slot)
                }
                SparseField::Categorical { .. } => {
                    cat_i += 1;
                    (1.0, idx_row[cat_i - 1] as usize)
                }
            };
            simd::axpy(alpha, &w[slot * n..(slot + 1) * n], out_row);
        }
    }
}

/// `dw_block = (Xᵀ·G)[wrows]` over a sparse batch — the output-row range
/// `wrows` indexes rows of the weight gradient (slots of the densified
/// input). Accumulation walks batch rows in ascending order and each row
/// touches only the `dw` rows its nonzeros own, so partitioning by weight
/// row keeps every element single-writer in dense order.
#[allow(clippy::too_many_arguments)]
fn scatter_weight_rows(
    wrows: Range<usize>,
    spec: &SparseSpec,
    rows: usize,
    numeric: &[f32],
    indices: &[u32],
    n: usize,
    grad: &[f32],
    dw_block: &mut [f32],
) {
    let n_num = spec.n_numeric();
    let n_cat = spec.n_categorical();
    dw_block.fill(0.0);
    let start = wrows.start;
    for r in 0..rows {
        let g_row = &grad[r * n..(r + 1) * n];
        let num_row = &numeric[r * n_num..(r + 1) * n_num];
        let idx_row = &indices[r * n_cat..(r + 1) * n_cat];
        let mut num_i = 0;
        let mut cat_i = 0;
        for field in spec.fields() {
            let (alpha, slot) = match *field {
                SparseField::Numeric { slot } => {
                    num_i += 1;
                    (num_row[num_i - 1], slot)
                }
                SparseField::Categorical { .. } => {
                    cat_i += 1;
                    (1.0, idx_row[cat_i - 1] as usize)
                }
            };
            if wrows.contains(&slot) {
                let local = slot - start;
                simd::axpy(alpha, g_row, &mut dw_block[local * n..(local + 1) * n]);
            }
        }
    }
}

/// Numerically-stabilised softmax of one row, in place.
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Grouped softmax cross entropy for the rows `rows` of `logits` (see
/// [`Backend::cross_entropy`]; `total_rows` rows in all). Writes the
/// gradient of those rows into `grad`, which starts at row `rows.start`,
/// and hands each row's per-block loss terms to `term` in row-major
/// order.
#[allow(clippy::too_many_arguments)]
fn cross_entropy_rows(
    rows: Range<usize>,
    total_rows: usize,
    ld: usize,
    offset: usize,
    logits: &[f32],
    groups: &[usize],
    targets: &[u32],
    grad: &mut [f32],
    mut term: impl FnMut(f32),
) {
    let denom = (total_rows * groups.len().max(1)) as f32;
    for (local, r) in rows.enumerate() {
        let row = &logits[r * ld + offset..];
        let g_row = &mut grad[local * ld + offset..];
        let mut start = 0;
        for (g, &width) in groups.iter().enumerate() {
            let block = &row[start..start + width];
            let target = targets[g * total_rows + r] as usize;
            debug_assert!(target < width, "target class out of range");
            let max = block.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            // Each exp is evaluated once: kept in the gradient row, then
            // divided by the sum there.
            let g_block = &mut g_row[start..start + width];
            let mut sum = 0.0f32;
            for (e, &v) in g_block.iter_mut().zip(block) {
                *e = (v - max).exp();
                sum += *e;
            }
            let log_sum = sum.ln() + max;
            term(log_sum - block[target]);
            for (k, e) in g_block.iter_mut().enumerate() {
                let p = *e / sum;
                *e = (p - if k == target { 1.0 } else { 0.0 }) / denom;
            }
            start += width;
        }
    }
}

/// Gaussian NLL for the rows `rows` of `heads` (see
/// [`Backend::gaussian_nll`]; `total_rows` rows in all). Writes the
/// gradient of those rows into `grad`, which starts at row `rows.start`,
/// and hands each element's loss term to `term` in row-major order.
#[allow(clippy::too_many_arguments)]
fn gaussian_nll_rows(
    rows: Range<usize>,
    total_rows: usize,
    n: usize,
    ld: usize,
    offset: usize,
    heads: &[f32],
    target: &[f32],
    grad: &mut [f32],
    mut term: impl FnMut(f32),
) {
    const C: f32 = crate::loss::GAUSSIAN_NLL_LOG_VAR_CLAMP;
    let count = (total_rows * n) as f32;
    for (local, r) in rows.enumerate() {
        let mu = &heads[r * ld + offset..r * ld + offset + n];
        let log_var = &heads[r * ld + offset + n..r * ld + offset + 2 * n];
        let (g_mu, g_lv) = grad[local * ld + offset..local * ld + offset + 2 * n].split_at_mut(n);
        for c in 0..n {
            let m = mu[c];
            let lv_raw = log_var[c];
            let lv = lv_raw.clamp(-C, C);
            let x = target[r * n + c];
            let inv_var = (-lv).exp();
            let d = x - m;
            term(0.5 * (lv + d * d * inv_var));
            g_mu[c] = -(d * inv_var) / count;
            // d(clamp)/d(lv_raw) is 0 in the saturated zone: the clamped
            // loss is locally constant in log_var there.
            g_lv[c] = if lv_raw.abs() > C { 0.0 } else { 0.5 * (1.0 - d * d * inv_var) / count };
        }
    }
}

/// A loss-term sink for the row kernels that writes each term to the next
/// slot of `terms`.
fn fill(terms: &mut [f32]) -> impl FnMut(f32) + '_ {
    let mut slots = terms.iter_mut();
    move |t| *slots.next().expect("one slot per loss term") = t
}

// ---------------------------------------------------------------------------
// Reference backend: the oracle.
// ---------------------------------------------------------------------------

/// The original single-threaded scalar kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference;

impl Backend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn threads(&self) -> usize {
        1
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_rows(0..m, k, n, a, b, out);
    }

    fn gemm_transpose(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_transpose_rows(0..m, k, n, a, b, out);
    }

    fn transpose_gemm(&self, l: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        transpose_gemm_rows(0..m, l, m, n, a, b, out);
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv += alpha * xv;
        }
    }

    fn scale(&self, alpha: f32, y: &mut [f32]) {
        for v in y.iter_mut() {
            *v *= alpha;
        }
    }

    fn map(&self, x: &[f32], out: &mut [f32], f: MapFn) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = f(v);
        }
    }

    fn zip(&self, a: &[f32], b: &[f32], out: &mut [f32], f: ZipFn) {
        for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
            *o = f(av, bv);
        }
    }

    fn zip_inplace(&self, y: &mut [f32], x: &[f32], f: ZipFn) {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv = f(*yv, xv);
        }
    }

    fn gelu(&self, x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = simd::gelu(v);
        }
    }

    fn gelu_train(&self, x: &[f32], out: &mut [f32], deriv: &mut [f32]) {
        for ((o, d), &v) in out.iter_mut().zip(deriv.iter_mut()).zip(x) {
            *o = simd::gelu(v);
            *d = simd::gelu_grad(v);
        }
    }

    fn gelu_backward(&self, grad: &[f32], deriv: &[f32], out: &mut [f32]) {
        for ((o, &g), &d) in out.iter_mut().zip(grad).zip(deriv) {
            *o = g * d;
        }
    }

    fn sum_rows(&self, rows: usize, cols: usize, x: &[f32], out: &mut [f32]) {
        sum_rows_cols(0..cols, rows, cols, x, out);
    }

    fn softmax_rows(&self, rows: usize, cols: usize, x: &mut [f32]) {
        for r in 0..rows {
            softmax_row(&mut x[r * cols..(r + 1) * cols]);
        }
    }

    fn cross_entropy(
        &self,
        rows: usize,
        ld: usize,
        offset: usize,
        logits: &[f32],
        groups: &[usize],
        targets: &[u32],
        grad: &mut [f32],
    ) -> f32 {
        let mut loss = 0.0f32;
        cross_entropy_rows(0..rows, rows, ld, offset, logits, groups, targets, grad, |t| loss += t);
        loss / (rows * groups.len().max(1)) as f32
    }

    fn gaussian_nll(
        &self,
        rows: usize,
        n: usize,
        ld: usize,
        offset: usize,
        heads: &[f32],
        target: &[f32],
        grad: &mut [f32],
    ) -> f32 {
        let mut loss = 0.0f32;
        gaussian_nll_rows(0..rows, rows, n, ld, offset, heads, target, grad, |t| loss += t);
        loss / (rows * n) as f32
    }

    fn adam(&self, step: AdamStep, value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
        for (((p, &g), m), v) in value.iter_mut().zip(grad).zip(m.iter_mut()).zip(v.iter_mut()) {
            *p -= step.apply(g, m, v);
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel backend.
// ---------------------------------------------------------------------------

// Fan-out thresholds, measured with the worker pool on a 2-vCPU AVX2 host
// where waking a parked helper and joining it costs about 15 µs. Below
// each one, a 2-worker call ran no faster than the serial kernel.

/// Minimum multiply-add count before a GEMM fans out: 16×128×128 (2¹⁸)
/// ran at 0.55–0.64× on two workers, 32×128×128 at 1.0×, 64×128×128 at
/// 1.26–1.48×.
const PAR_GEMM_MIN_MADDS: usize = 1 << 19;
/// Minimum element count before GELU's inference or training forward fans
/// out: its `tanh` costs several ns per element, so 2¹⁴ elements ran at
/// 1.15–1.41× and 24 576 (a 192×128 training batch) at 1.47–1.64×.
const PAR_GELU_MIN: usize = 1 << 14;
/// Minimum element count before the `dyn Fn` map/zip family and softmax
/// fan out: map and zip ran at 1.46–1.55× at 2¹⁶ elements.
const PAR_ELEM_MIN: usize = 1 << 16;
/// Minimum element count before memory-bound `axpy`/`scale` (and GELU's
/// backward, one multiply per element, and `gemm_transpose`'s Bᵀ pack)
/// fan out: 0.78× at 2¹⁶ elements, 0.98× at 2¹⁷, 1.16× at 2¹⁸.
const PAR_STREAM_MIN: usize = 1 << 18;
/// Minimum logit (or Gaussian head) count before a loss fans out over row
/// blocks: each costs a libm `exp`, so 2¹³ logits ran at 1.4–1.8× on two
/// workers (on a 2-vCPU AVX-512 host) and 3 072 Gaussian heads at
/// 1.05–1.2×.
const PAR_LOSS_MIN: usize = 1 << 13;
/// Minimum parameter count before an Adam update fans out: three divisions
/// and a square root per element bound it, so 2¹⁵ parameters ran at
/// 1.35–1.4× on two workers (same host), 2¹⁴ at 1.0×.
const PAR_ADAM_MIN: usize = 1 << 15;

/// Register-blocked SIMD kernels over the process-wide worker pool.
///
/// Every kernel call is one compute entry of [`crate::pool`]: it occupies
/// a core while it runs and fans out only over cores that are idle. When
/// it gets helpers, output rows are split into `4×threads` blocks on a
/// shared queue that the caller and its helpers drain; otherwise the
/// kernel runs once over every row on the calling thread. Every output
/// element is produced by exactly one thread running the [`crate::simd`]
/// micro-kernels, which accumulate in the same per-element order as
/// [`Reference`], so results are bit-identical at any thread count and
/// SIMD level. The `map`/`zip` family takes `dyn Fn` closures and cannot
/// be explicitly vectorised; at one worker those calls are inlined
/// monomorphised by `Tensor` (see `elementwise_parallelism`) where LLVM
/// auto-vectorises them at the baseline SSE2 width. GELU has dedicated
/// kernels instead ([`simd::gelu_slice`], [`simd::gelu_train_slice`]),
/// compiled again for AVX2 and AVX-512, because its `tanh` is too long for
/// a `dyn Fn` call per element and vectorises only when the whole port
/// inlines into one loop.
#[derive(Debug, Clone, Copy)]
pub struct Parallel {
    threads: usize,
}

impl Parallel {
    /// A parallel backend using `threads` workers (min 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Runs `kernel` over `units` units of work (rows or elements) as one
    /// compute entry. When `fan_out` holds and the pool lends helpers,
    /// `split(whole, block)` cuts the work into jobs of `block` units each
    /// that the caller and its helpers drain; otherwise the kernel runs
    /// once on `whole`.
    fn run_split<T: Send>(
        &self,
        fan_out: bool,
        units: usize,
        whole: T,
        split: impl FnOnce(T, usize) -> Vec<T>,
        kernel: impl Fn(T) + Sync,
    ) {
        let lease = pool::lease(self.threads, if fan_out { units } else { 1 });
        if lease.parts() == 1 {
            return kernel(whole);
        }
        lease.run(split(whole, self.block(units)), kernel);
    }

    /// Units per job when `units` units fan out: `4×threads` jobs, so a
    /// slow core takes fewer of them.
    fn block(&self, units: usize) -> usize {
        units.div_ceil(self.threads * 4).max(1)
    }

    /// [`Parallel::run_split`] over `total_rows` output rows: `kernel` gets
    /// per-block `(row_range, chunk)` jobs. `row_width` is the number of
    /// `f32`s per output row; `kernel` must fully overwrite its chunk.
    fn run_rows(
        &self,
        fan_out: bool,
        total_rows: usize,
        row_width: usize,
        out: &mut [f32],
        kernel: impl Fn(Range<usize>, &mut [f32]) + Sync,
    ) {
        self.run_split(
            fan_out,
            total_rows,
            (0..total_rows, out),
            |(_, out), block| row_jobs(total_rows, row_width, out, block),
            |(rows, chunk)| kernel(rows, chunk),
        );
    }

    /// [`Parallel::run_split`] for a loss over `rows` rows of `ld` floats
    /// with `per_row` loss terms each. `kernel` gets per-block
    /// `(row_range, grad_chunk, terms_chunk)` jobs and writes the block's
    /// terms in row-major order (see [`fill`]) into a workspace buffer;
    /// the caller then sums them in that order, the order [`Reference`]
    /// sums in.
    fn run_loss(
        &self,
        fan_out: bool,
        rows: usize,
        ld: usize,
        per_row: usize,
        grad: &mut [f32],
        kernel: impl Fn(Range<usize>, &mut [f32], &mut [f32]) + Sync,
    ) -> f32 {
        let mut terms = workspace::take_vec(rows * per_row);
        self.run_split(
            fan_out && per_row > 0,
            rows,
            (0..rows, &mut grad[..rows * ld], &mut terms[..]),
            |(_, grad, terms), block| {
                grad.chunks_mut(block * ld)
                    .zip(terms.chunks_mut(block * per_row))
                    .enumerate()
                    .map(|(b, (grad, terms))| {
                        let start = b * block;
                        (start..(start + block).min(rows), grad, terms)
                    })
                    .collect()
            },
            |(rows, grad, terms)| kernel(rows, grad, terms),
        );
        let mut sum = 0.0f32;
        for &t in &terms {
            sum += t;
        }
        workspace::recycle_vec(terms);
        sum
    }

    /// [`Parallel::run_split`] for element-wise ops over one mutable slice;
    /// `kernel` gets each chunk's offset into `y`.
    fn run_elems(&self, fan_out: bool, y: &mut [f32], kernel: impl Fn(usize, &mut [f32]) + Sync) {
        self.run_split(
            fan_out,
            y.len(),
            (0, y),
            |(_, y), block| {
                y.chunks_mut(block).enumerate().map(|(b, chunk)| (b * block, chunk)).collect()
            },
            |(offset, chunk)| kernel(offset, chunk),
        );
    }
}

/// Cuts `out` (`total_rows` rows of `row_width` floats) into jobs of
/// `block` rows: each job's row range and its chunk of `out`.
fn row_jobs(
    total_rows: usize,
    row_width: usize,
    out: &mut [f32],
    block: usize,
) -> Vec<(Range<usize>, &mut [f32])> {
    out.chunks_mut(block * row_width)
        .enumerate()
        .map(|(b, chunk)| {
            let start = b * block;
            (start..(start + block).min(total_rows), chunk)
        })
        .collect()
}

impl Backend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let fan_out = m * k * n >= PAR_GEMM_MIN_MADDS;
        self.run_rows(fan_out, m, n, out, |rows, chunk| fast_gemm_rows(rows, k, n, a, b, chunk));
    }

    fn gemm_transpose(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let fan_out = m * k * n >= PAR_GEMM_MIN_MADDS;
        if simd::level() == simd::SimdLevel::Scalar {
            // Forced-scalar fallback: the original per-element dot loops.
            return self.run_rows(fan_out, m, n, out, |rows, chunk| {
                gemm_transpose_rows(rows, k, n, a, b, chunk)
            });
        }
        // Pack the Bᵀ panel k-major, then run the plain gemm kernel over
        // it: the per-element dot order is unchanged (still ascending k),
        // but every load is now contiguous. One lease covers both stages:
        // with helpers, a panel large enough for a memory-bound fan-out is
        // packed in blocks of panel rows by the caller and its helpers,
        // which then share it read-only for the GEMM's row blocks.
        let mut packed = workspace::take_vec(k * n);
        let lease = pool::lease(self.threads, if fan_out { m } else { 1 });
        if lease.parts() > 1 && k * n >= PAR_STREAM_MIN {
            let panel_rows = self.block(k);
            let packs = packed.chunks_mut(panel_rows * n).enumerate().collect();
            lease.run(packs, |(i, chunk)| simd::pack_transpose(n, k, b, i * panel_rows, chunk));
        } else {
            simd::pack_transpose(n, k, b, 0, &mut packed);
        }
        let bp: &[f32] = &packed;
        if lease.parts() == 1 {
            fast_gemm_rows(0..m, k, n, a, bp, out);
        } else {
            lease.run(row_jobs(m, n, out, self.block(m)), |(rows, chunk)| {
                fast_gemm_rows(rows, k, n, a, bp, chunk)
            });
        }
        workspace::recycle_vec(packed);
    }

    fn transpose_gemm(&self, l: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let fan_out = l * m * n >= PAR_GEMM_MIN_MADDS;
        self.run_rows(fan_out, m, n, out, |cols, chunk| {
            fast_transpose_gemm_rows(cols, l, m, n, a, b, chunk)
        });
    }

    fn gather_gemm(
        &self,
        rows: usize,
        n: usize,
        spec: &SparseSpec,
        numeric: &[f32],
        indices: &[u32],
        w: &[f32],
        out: &mut [f32],
    ) {
        // Cost scales with nonzeros, not the densified width.
        let fan_out = rows * spec.nnz_width() * n >= PAR_GEMM_MIN_MADDS;
        self.run_rows(fan_out, rows, n, out, |rows, chunk| {
            gather_rows(rows, spec, numeric, indices, n, w, chunk)
        });
    }

    fn scatter_grad(
        &self,
        rows: usize,
        n: usize,
        spec: &SparseSpec,
        numeric: &[f32],
        indices: &[u32],
        grad: &[f32],
        dw: &mut [f32],
    ) {
        let fan_out = rows * spec.nnz_width() * n >= PAR_GEMM_MIN_MADDS;
        // Partition by weight row: each dw element has a single writer
        // accumulating batch rows in ascending order, as Reference does.
        self.run_rows(fan_out, spec.in_width(), n, dw, |wrows, chunk| {
            scatter_weight_rows(wrows, spec, rows, numeric, indices, n, grad, chunk)
        });
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        self.run_elems(y.len() >= PAR_STREAM_MIN, y, |offset, chunk| {
            let end = offset + chunk.len();
            simd::axpy(alpha, &x[offset..end], chunk);
        });
    }

    fn scale(&self, alpha: f32, y: &mut [f32]) {
        self.run_elems(y.len() >= PAR_STREAM_MIN, y, |_, chunk| simd::scale(alpha, chunk));
    }

    fn map(&self, x: &[f32], out: &mut [f32], f: MapFn) {
        self.run_elems(x.len() >= PAR_ELEM_MIN, out, |offset, chunk| {
            let end = offset + chunk.len();
            Reference.map(&x[offset..end], chunk, f);
        });
    }

    fn zip(&self, a: &[f32], b: &[f32], out: &mut [f32], f: ZipFn) {
        self.run_elems(a.len() >= PAR_ELEM_MIN, out, |offset, chunk| {
            let end = offset + chunk.len();
            Reference.zip(&a[offset..end], &b[offset..end], chunk, f);
        });
    }

    fn zip_inplace(&self, y: &mut [f32], x: &[f32], f: ZipFn) {
        self.run_elems(y.len() >= PAR_ELEM_MIN, y, |offset, chunk| {
            let end = offset + chunk.len();
            Reference.zip_inplace(chunk, &x[offset..end], f);
        });
    }

    fn gelu(&self, x: &[f32], out: &mut [f32]) {
        self.run_elems(x.len() >= PAR_GELU_MIN, out, |offset, chunk| {
            simd::gelu_slice(&x[offset..offset + chunk.len()], chunk);
        });
    }

    fn gelu_train(&self, x: &[f32], out: &mut [f32], deriv: &mut [f32]) {
        self.run_split(
            x.len() >= PAR_GELU_MIN,
            x.len(),
            (x, out, deriv),
            |(x, out, deriv), block| {
                x.chunks(block)
                    .zip(out.chunks_mut(block).zip(deriv.chunks_mut(block)))
                    .map(|(x, (out, deriv))| (x, out, deriv))
                    .collect()
            },
            |(x, out, deriv)| simd::gelu_train_slice(x, out, deriv),
        );
    }

    fn gelu_backward(&self, grad: &[f32], deriv: &[f32], out: &mut [f32]) {
        self.run_elems(out.len() >= PAR_STREAM_MIN, out, |offset, chunk| {
            let end = offset + chunk.len();
            Reference.gelu_backward(&grad[offset..end], &deriv[offset..end], chunk);
        });
    }

    fn sum_rows(&self, rows: usize, cols: usize, x: &[f32], out: &mut [f32]) {
        // Never fans out: split into column blocks, every shape measured
        // (192×128 up to 1024×2946) ran at 0.2–0.65× on two workers.
        self.run_rows(false, cols, 1, out, |_, chunk| sum_rows_cols(0..cols, rows, cols, x, chunk));
    }

    fn softmax_rows(&self, rows: usize, cols: usize, x: &mut [f32]) {
        self.run_rows(rows * cols >= PAR_ELEM_MIN, rows, cols, x, |row_range, chunk| {
            for local in 0..row_range.len() {
                softmax_row(&mut chunk[local * cols..(local + 1) * cols]);
            }
        });
    }

    fn cross_entropy(
        &self,
        rows: usize,
        ld: usize,
        offset: usize,
        logits: &[f32],
        groups: &[usize],
        targets: &[u32],
        grad: &mut [f32],
    ) -> f32 {
        let fan_out = rows * groups.iter().sum::<usize>() >= PAR_LOSS_MIN;
        let sum = self.run_loss(fan_out, rows, ld, groups.len(), grad, |block, grad, terms| {
            cross_entropy_rows(block, rows, ld, offset, logits, groups, targets, grad, fill(terms))
        });
        sum / (rows * groups.len().max(1)) as f32
    }

    fn gaussian_nll(
        &self,
        rows: usize,
        n: usize,
        ld: usize,
        offset: usize,
        heads: &[f32],
        target: &[f32],
        grad: &mut [f32],
    ) -> f32 {
        let sum =
            self.run_loss(rows * n >= PAR_LOSS_MIN, rows, ld, n, grad, |block, grad, terms| {
                gaussian_nll_rows(block, rows, n, ld, offset, heads, target, grad, fill(terms))
            });
        sum / (rows * n) as f32
    }

    fn adam(&self, step: AdamStep, value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
        self.run_split(
            value.len() >= PAR_ADAM_MIN,
            value.len(),
            (value, grad, m, v),
            |(value, grad, m, v), block| {
                value
                    .chunks_mut(block)
                    .zip(grad.chunks(block))
                    .zip(m.chunks_mut(block).zip(v.chunks_mut(block)))
                    .map(|((value, grad), (m, v))| (value, grad, m, v))
                    .collect()
            },
            |(value, grad, m, v)| simd::adam_slice(step, value, grad, m, v),
        );
    }

    fn elementwise_parallelism(&self, elems: usize) -> usize {
        if elems >= PAR_ELEM_MIN && !pool::inside() {
            self.threads
        } else {
            1
        }
    }
}

// ---------------------------------------------------------------------------
// Global worker count.
// ---------------------------------------------------------------------------

/// The configured worker count; 0 until [`set_threads`] sets it or the
/// first [`threads`] call reads it from `SILOFUSE_THREADS` (see
/// [`parse_threads`]). It publishes no other data, so `Relaxed`.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The worker count a `SILOFUSE_THREADS` value asks for: `None` (one
/// worker per available core) when it is empty, else the whole number it
/// holds, where 0 and 1 both mean one worker (serial SIMD kernels).
///
/// # Errors
/// A message naming the accepted values when the value is not a whole
/// number, so a mistyped count is never run as the default.
fn parse_threads(value: &str) -> Result<Option<usize>, String> {
    if value.is_empty() {
        return Ok(None);
    }
    value.parse::<usize>().map(Some).map_err(|_| {
        format!(
            "SILOFUSE_THREADS={value:?} is not a worker count; \
             use a whole number such as 1 or 4, or leave it unset for one per core"
        )
    })
}

/// The worker count `SILOFUSE_THREADS` asks for (see [`parse_threads`]).
///
/// # Errors
/// [`parse_threads`]'s message for a value that is not a whole number.
fn threads_from_env() -> Result<usize, String> {
    let value = std::env::var_os("SILOFUSE_THREADS").unwrap_or_default();
    Ok(parse_threads(&value.to_string_lossy())?
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1))
}

/// Checks the two environment variables the kernels read:
/// `SILOFUSE_THREADS` must be empty or a whole number, and `SILOFUSE_SIMD`
/// empty or one of `scalar`, `sse2`, `avx2`, `avx512` and `auto` (see
/// [`simd::level`]). The CLI and the bench bins call this before any work
/// and exit with a usage error on `Err`; a kernel that meets a bad value
/// first panics with the same message.
///
/// # Errors
/// A message naming the variable, its value and the accepted values.
pub fn check_env() -> Result<(), String> {
    threads_from_env()?;
    simd::cap_from_env()?;
    Ok(())
}

/// The backend every `Tensor` kernel dispatches through: a [`Parallel`]
/// with the configured worker count.
pub fn get() -> Parallel {
    Parallel::new(threads())
}

/// Sets the worker count of every later kernel call: one [`Parallel`]
/// worker (serial SIMD kernels) for `n ≤ 1`, a share of the worker pool
/// otherwise.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The configured worker count.
///
/// # Panics
/// Panics with [`check_env`]'s message when [`set_threads`] has not set a
/// count and `SILOFUSE_THREADS` is not empty or a whole number.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = threads_from_env().unwrap_or_else(|e| panic!("{e}"));
            // A `set_threads` racing this first read wins over the env.
            match THREADS.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => n,
                Err(set) => set,
            }
        }
        n => n,
    }
}

/// Name of the backend [`get`] returns.
pub fn name() -> &'static str {
    get().name()
}

/// The numeric precision of every kernel: IEEE binary32, the only one.
///
/// It stays, with [`precision`], only because the pipeline benchmark
/// (`pipebench/src/host.rs`) stamps `precision=f32` on every result it
/// writes; it goes with the next change to that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full-precision f32 kernels.
    F32,
}

impl Precision {
    /// Mode name for bench reports: `"f32"`.
    pub fn name(self) -> &'static str {
        "f32"
    }
}

/// The precision every kernel computes in: always [`Precision::F32`].
pub fn precision() -> Precision {
    Precision::F32
}

/// Records the active backend's identity in the run telemetry: a gauge for
/// the worker-thread count and counters keyed by the backend's name and
/// the detected SIMD level. Fit entry points call this so every trace
/// states which backend produced it.
pub fn record_telemetry() {
    if !silofuse_observe::enabled() {
        return;
    }
    let be = get();
    silofuse_observe::gauge("nn.backend.threads", be.threads() as f64);
    silofuse_observe::count(&format!("nn.backend.{}", be.name()), 1);
    silofuse_observe::count(&format!("nn.backend.simd.{}", simd::level().name()), 1);
}

// ---------------------------------------------------------------------------
// Per-kernel timing.
// ---------------------------------------------------------------------------

/// Telemetry counter names for one kernel: total calls and cumulative
/// nanoseconds. Exposed so `silofuse-observe` consumers can discover them.
#[derive(Debug, Clone, Copy)]
pub struct KernelCounters {
    /// Counter incremented once per kernel invocation.
    pub calls: &'static str,
    /// Counter accumulating wall-clock nanoseconds across invocations.
    pub nanos: &'static str,
}

/// Counters for [`Backend::gemm`].
pub const GEMM_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.gemm.calls", nanos: "nn.kernel.gemm.ns" };
/// Counters for [`Backend::gemm_transpose`].
pub const GEMM_TRANSPOSE_COUNTERS: KernelCounters = KernelCounters {
    calls: "nn.kernel.gemm_transpose.calls",
    nanos: "nn.kernel.gemm_transpose.ns",
};
/// Counters for [`Backend::transpose_gemm`].
pub const TRANSPOSE_GEMM_COUNTERS: KernelCounters = KernelCounters {
    calls: "nn.kernel.transpose_gemm.calls",
    nanos: "nn.kernel.transpose_gemm.ns",
};
/// Counters for [`Backend::gather_gemm`].
pub const GATHER_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.gather.calls", nanos: "nn.kernel.gather.ns" };
/// Counters for [`Backend::scatter_grad`].
pub const SCATTER_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.scatter.calls", nanos: "nn.kernel.scatter.ns" };
/// Counters for [`Backend::axpy`] / [`Backend::scale`].
pub const AXPY_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.axpy.calls", nanos: "nn.kernel.axpy.ns" };
/// Counters for [`Backend::map`].
pub const MAP_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.map.calls", nanos: "nn.kernel.map.ns" };
/// Counters for [`Backend::zip`] / [`Backend::zip_inplace`].
pub const ZIP_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.zip.calls", nanos: "nn.kernel.zip.ns" };
/// Counters for [`Backend::gelu`] and [`Backend::gelu_train`].
pub const GELU_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.gelu.calls", nanos: "nn.kernel.gelu.ns" };
/// Counters for [`Backend::gelu_backward`].
pub const GELU_GRAD_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.gelu_grad.calls", nanos: "nn.kernel.gelu_grad.ns" };
/// Counters for [`Backend::sum_rows`].
pub const SUM_ROWS_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.sum_rows.calls", nanos: "nn.kernel.sum_rows.ns" };
/// Counters for [`Backend::softmax_rows`].
pub const SOFTMAX_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.softmax.calls", nanos: "nn.kernel.softmax.ns" };
/// Counters for [`Backend::cross_entropy`].
pub const CROSS_ENTROPY_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.cross_entropy.calls", nanos: "nn.kernel.cross_entropy.ns" };
/// Counters for [`Backend::gaussian_nll`].
pub const GAUSSIAN_NLL_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.gaussian_nll.calls", nanos: "nn.kernel.gaussian_nll.ns" };
/// Counters for [`Backend::adam`].
pub const ADAM_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.adam.calls", nanos: "nn.kernel.adam.ns" };

/// The kernel counter name pairs emitted by this crate.
pub const KERNEL_COUNTERS: &[KernelCounters] = &[
    GEMM_COUNTERS,
    GEMM_TRANSPOSE_COUNTERS,
    TRANSPOSE_GEMM_COUNTERS,
    GATHER_COUNTERS,
    SCATTER_COUNTERS,
    AXPY_COUNTERS,
    MAP_COUNTERS,
    ZIP_COUNTERS,
    GELU_COUNTERS,
    GELU_GRAD_COUNTERS,
    SUM_ROWS_COUNTERS,
    SOFTMAX_COUNTERS,
    CROSS_ENTROPY_COUNTERS,
    GAUSSIAN_NLL_COUNTERS,
    ADAM_COUNTERS,
];

/// Runs `f`, charging its wall-clock time to the kernel's telemetry
/// counters when tracing is live; a branch and nothing more when it is not.
#[inline]
pub(crate) fn timed<R>(counters: KernelCounters, f: impl FnOnce() -> R) -> R {
    if !silofuse_observe::enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let result = f();
    silofuse_observe::count(counters.calls, 1);
    silofuse_observe::count(counters.nanos, start.elapsed().as_nanos() as u64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize, f: impl FnMut(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    /// Pseudo-random but deterministic test data with varied magnitudes so
    /// float addition order actually matters.
    fn noise(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        filled(n, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64 * 20.0 - 10.0) as f32
        })
    }

    #[test]
    fn parallel_gemm_bit_identical_to_reference() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (17, 33, 9), (64, 96, 80), (130, 70, 50)] {
            let a = noise(m * k, 1);
            let b = noise(k * n, 2);
            let mut want = vec![0.0; m * n];
            Reference.gemm(m, k, n, &a, &b, &mut want);
            for threads in [1, 2, 4, 7] {
                let mut got = vec![f32::NAN; m * n];
                Parallel::new(threads).gemm(m, k, n, &a, &b, &mut got);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "gemm {m}x{k}x{n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_fanout_path_is_bit_identical() {
        // Big enough to clear PAR_GEMM_MIN_MADDS so the call fans out.
        let (m, k, n) = (128, 64, 96);
        let a = noise(m * k, 3);
        let b = noise(k * n, 4);
        let mut want = vec![0.0; m * n];
        Reference.gemm(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0; m * n];
        Parallel::new(4).gemm(m, k, n, &a, &b, &mut got);
        assert_eq!(want, got);

        let mut want_t = vec![0.0; m * n];
        Reference.gemm_transpose(m, k, n, &a, &noise(n * k, 5), &mut want_t);
        let mut got_t = vec![0.0; m * n];
        Parallel::new(4).gemm_transpose(m, k, n, &a, &noise(n * k, 5), &mut got_t);
        assert_eq!(want_t, got_t);
    }

    #[test]
    fn nan_and_inf_propagate_through_all_gemms() {
        let a = vec![0.0, 0.0];
        let b = vec![f32::NAN, 1.0, 2.0, 3.0];
        let mut out = vec![0.0; 2];
        Reference.gemm(1, 2, 2, &a, &b, &mut out);
        assert!(out[0].is_nan(), "0·NaN must reach the output");
        let b_inf = vec![f32::INFINITY, 1.0, 2.0, 3.0];
        Reference.gemm(1, 2, 2, &a, &b_inf, &mut out);
        assert!(out[0].is_nan(), "0·Inf is NaN");
    }

    #[test]
    fn elementwise_kernels_match() {
        // Past PAR_STREAM_MIN, so axpy and GELU's backward fan out as well
        // as map.
        let x = noise(300_000, 7);
        let y0 = noise(300_000, 8);
        let f: fn(f32) -> f32 = |v| v * 1.5 - 0.25;
        let mut want = vec![0.0; x.len()];
        Reference.map(&x, &mut want, &f);
        let mut got = vec![0.0; x.len()];
        Parallel::new(4).map(&x, &mut got, &f);
        assert_eq!(want, got);

        let mut want_y = y0.clone();
        Reference.axpy(0.75, &x, &mut want_y);
        let mut got_y = y0.clone();
        Parallel::new(4).axpy(0.75, &x, &mut got_y);
        assert_eq!(want_y, got_y);

        // GELU's backward multiply fans out as a streaming kernel.
        let mut want_g = vec![0.0; x.len()];
        Reference.gelu_backward(&x, &y0, &mut want_g);
        let mut got_g = vec![0.0; x.len()];
        Parallel::new(4).gelu_backward(&x, &y0, &mut got_g);
        assert_eq!(want_g, got_g);
    }

    #[test]
    fn reductions_and_softmax_match() {
        let (rows, cols) = (600, 300);
        let x = noise(rows * cols, 11);
        let mut want = vec![0.0; cols];
        Reference.sum_rows(rows, cols, &x, &mut want);
        let mut got = vec![0.0; cols];
        Parallel::new(7).sum_rows(rows, cols, &x, &mut got);
        assert_eq!(want, got);

        let mut want_s = x.clone();
        Reference.softmax_rows(rows, cols, &mut want_s);
        let mut got_s = x;
        Parallel::new(3).softmax_rows(rows, cols, &mut got_s);
        assert_eq!(want_s, got_s);
    }

    #[test]
    fn thread_count_spellings() {
        assert_eq!(parse_threads(""), Ok(None));
        assert_eq!(parse_threads("0"), Ok(Some(0)));
        assert_eq!(parse_threads("4"), Ok(Some(4)));
        for value in ["four", "-1", "2.5", " 4", "4 "] {
            let err = parse_threads(value).expect_err(value);
            assert!(err.contains("SILOFUSE_THREADS") && err.contains("whole number"), "{err}");
        }
    }

    #[test]
    fn set_threads_switches_global_backend() {
        let found = threads();
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(name(), "parallel");
        set_threads(1);
        assert_eq!(threads(), 1);
        // One worker still means the SIMD kernels, not the scalar oracle.
        assert_eq!(name(), "parallel");
        set_threads(found);
    }

    #[test]
    fn gemm_transpose_packed_path_matches_reference() {
        // Shapes straddling the fan-out threshold and awkward tails, so
        // both the serial packed path and the worker path are covered.
        for (m, k, n) in [(1, 1, 1), (2, 3, 5), (9, 33, 17), (96, 64, 64), (130, 70, 80)] {
            let a = noise(m * k, 21);
            let b = noise(n * k, 22);
            let mut want = vec![0.0; m * n];
            Reference.gemm_transpose(m, k, n, &a, &b, &mut want);
            for threads in [1, 2, 4] {
                let mut got = vec![f32::NAN; m * n];
                Parallel::new(threads).gemm_transpose(m, k, n, &a, &b, &mut got);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "gemm_transpose {m}x{k}x{n} threads={threads}"
                );
            }
        }
    }

    /// A deterministic sparse batch (interleaved numeric slots and one-hot
    /// blocks) together with its densified `rows × in_width` oracle form.
    fn sparse_fixture(rows: usize, seed: u64) -> (SparseSpec, Vec<f32>, Vec<u32>, Vec<f32>) {
        let spec = SparseSpec::new(vec![
            SparseField::Numeric { slot: 0 },
            SparseField::Categorical { offset: 1, width: 37 },
            SparseField::Numeric { slot: 38 },
            SparseField::Categorical { offset: 39, width: 5 },
            SparseField::Numeric { slot: 44 },
            SparseField::Categorical { offset: 45, width: 211 },
        ]);
        let numeric = noise(rows * spec.n_numeric(), seed);
        // Zero out some numeric slots: the dense oracle multiplies through
        // them, so the sparse path must too.
        let mut numeric = numeric;
        for v in numeric.iter_mut().step_by(7) {
            *v = 0.0;
        }
        let picks = noise(rows * spec.n_categorical(), seed + 1);
        let blocks: Vec<(usize, usize)> = spec
            .fields()
            .iter()
            .filter_map(|f| match *f {
                SparseField::Categorical { offset, width } => Some((offset, width)),
                SparseField::Numeric { .. } => None,
            })
            .collect();
        let mut indices = vec![0u32; rows * blocks.len()];
        for r in 0..rows {
            for (c, &(offset, width)) in blocks.iter().enumerate() {
                let pick = picks[r * blocks.len() + c].abs() as usize % width;
                indices[r * blocks.len() + c] = (offset + pick) as u32;
            }
        }
        let mut dense = vec![0.0f32; rows * spec.in_width()];
        for r in 0..rows {
            let row = &mut dense[r * spec.in_width()..(r + 1) * spec.in_width()];
            let mut num_i = 0;
            for field in spec.fields() {
                if let SparseField::Numeric { slot } = *field {
                    row[slot] = numeric[r * spec.n_numeric() + num_i];
                    num_i += 1;
                }
            }
            for c in 0..blocks.len() {
                row[indices[r * blocks.len() + c] as usize] = 1.0;
            }
        }
        (spec, numeric, indices, dense)
    }

    #[test]
    fn gather_bit_identical_to_dense_gemm() {
        // Sizes straddling the fan-out threshold; n varies to hit SIMD
        // tails in axpy.
        for (rows, n) in [(1, 1), (3, 9), (40, 33), (512, 96), (1024, 96)] {
            let (spec, numeric, indices, dense) = sparse_fixture(rows, 41);
            let w = noise(spec.in_width() * n, 42);
            let mut want = vec![0.0; rows * n];
            Reference.gemm(rows, spec.in_width(), n, &dense, &w, &mut want);
            let mut got = vec![f32::NAN; rows * n];
            Reference.gather_gemm(rows, n, &spec, &numeric, &indices, &w, &mut got);
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "gather vs dense gemm rows={rows} n={n}"
            );
            for threads in [1, 2, 4, 7] {
                let mut got_p = vec![f32::NAN; rows * n];
                Parallel::new(threads)
                    .gather_gemm(rows, n, &spec, &numeric, &indices, &w, &mut got_p);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got_p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "parallel gather rows={rows} n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn scatter_bit_identical_to_dense_transpose_gemm() {
        for (rows, n) in [(1, 1), (5, 7), (64, 48), (300, 64), (1024, 96)] {
            let (spec, numeric, indices, dense) = sparse_fixture(rows, 51);
            let grad = noise(rows * n, 52);
            let mut want = vec![0.0; spec.in_width() * n];
            Reference.transpose_gemm(rows, spec.in_width(), n, &dense, &grad, &mut want);
            let mut got = vec![f32::NAN; spec.in_width() * n];
            Reference.scatter_grad(rows, n, &spec, &numeric, &indices, &grad, &mut got);
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "scatter vs dense transpose_gemm rows={rows} n={n}"
            );
            for threads in [1, 2, 4, 7] {
                let mut got_p = vec![f32::NAN; spec.in_width() * n];
                Parallel::new(threads)
                    .scatter_grad(rows, n, &spec, &numeric, &indices, &grad, &mut got_p);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got_p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "parallel scatter rows={rows} n={n} threads={threads}"
                );
            }
        }
    }
}
