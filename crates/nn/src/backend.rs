//! Pluggable compute backends for the dense kernels.
//!
//! Every dense operation in this crate — the three GEMM variants, axpy,
//! element-wise map/zip, GELU forward and backward, row reductions, and
//! softmax — dispatches through a process-global [`Backend`]. Two
//! implementations ship:
//!
//! - [`Reference`]: the original single-threaded scalar loops, kept as the
//!   correctness oracle.
//! - [`Parallel`]: register-blocked SIMD micro-kernels (AVX2/SSE2 by
//!   runtime detection, scalar fallback — see [`crate::simd`]) whose
//!   output rows are partitioned into blocks and drained by a scoped
//!   worker pool (a shared MPMC work queue over the vendored crossbeam
//!   channels — idle workers grab the next block, so uneven blocks
//!   self-balance). `gemm_transpose` packs the `Bᵀ` panel k-major first,
//!   so the hot loop reads both operands contiguously instead of paying a
//!   strided load per multiply.
//! - [`HalfPrecision`]: an opt-in low-precision wrapper for synthesis —
//!   matrix-product operands are rounded to IEEE binary16 storage
//!   ([`crate::f16`]) and accumulated in f32. Selected with
//!   [`set_precision`] / `SILOFUSE_PRECISION=f16` / the CLI's
//!   `--precision f16`; *never* active while a [`force_f32`] guard is
//!   held, which every training entry point takes.
//!
//! # Determinism guarantee
//!
//! `Parallel` is **bit-identical** to `Reference` at every thread count
//! and SIMD level. Each output element is accumulated by exactly one
//! worker (and one SIMD lane) in a fixed order — ascending `k` for GEMM,
//! ascending row for column reductions — with separate multiply and add
//! instructions (never FMA, which would round differently). Floating-point
//! addition is not associative, so this is a hard requirement: the
//! crash-recovery suite asserts byte-identical resume, and a thread- or
//! lane-dependent sum would break it. Blocked iteration keeps the order
//! intact because blocks are visited in ascending order and accumulate
//! into the same output slot.
//!
//! `HalfPrecision` is deliberately *not* bit-identical — rounding operands
//! to f16 is the point. Training therefore pins itself to f32 with
//! [`force_f32`], so checkpoints, resume, and prefix-stable synthesis
//! guarantees are untouched; only inference opted in via the precision
//! switch sees the rounded path, and the bench + property tests gate it
//! against the f32 oracle within the documented tolerance
//! ([`crate::f16::F16_EPS`]-derived).
//!
//! The global backend is selected with [`set_threads`] (the CLI's
//! `--threads N`) or the `SILOFUSE_THREADS` environment variable; it
//! defaults to a single-worker [`Parallel`], i.e. serial SIMD kernels.

use crate::sparse::{SparseField, SparseSpec};
use crate::{f16, simd, workspace};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock, RwLock};

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

    /// `x[i] = f(x[i])`.
    fn map_inplace(&self, x: &mut [f32], f: MapFn);

    /// `out[i] = f(a[i], b[i])`.
    fn zip(&self, a: &[f32], b: &[f32], out: &mut [f32], f: ZipFn);

    /// `y[i] = f(y[i], x[i])`.
    fn zip_inplace(&self, y: &mut [f32], x: &[f32], f: ZipFn);

    /// `out[i] = gelu(x[i])`, the tanh approximation evaluated through the
    /// repo-owned [`simd::tanh`] (see [`simd::gelu`]).
    fn gelu(&self, x: &[f32], out: &mut [f32]);

    /// `out[i] = grad[i] · gelu'(x[i])` (see [`simd::gelu_grad`]).
    fn gelu_backward(&self, grad: &[f32], x: &[f32], out: &mut [f32]);

    /// Column sums over a `rows×cols` matrix: `out[c] = Σ_r x[r][c]`,
    /// accumulated in ascending row order (`out` overwritten, len `cols`).
    fn sum_rows(&self, rows: usize, cols: usize, x: &[f32], out: &mut [f32]);

    /// Row-wise numerically-stabilised softmax, in place.
    fn softmax_rows(&self, rows: usize, cols: usize, x: &mut [f32]);

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

    fn map_inplace(&self, x: &mut [f32], f: MapFn) {
        for v in x.iter_mut() {
            *v = f(*v);
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

    fn gelu_backward(&self, grad: &[f32], x: &[f32], out: &mut [f32]) {
        for ((o, &g), &v) in out.iter_mut().zip(grad).zip(x) {
            *o = g * simd::gelu_grad(v);
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
}

// ---------------------------------------------------------------------------
// Parallel backend.
// ---------------------------------------------------------------------------

/// Minimum multiply-add count before a GEMM fans out to workers; below it
/// the scoped-pool setup costs more than the kernel.
const PAR_GEMM_MIN_MADDS: usize = 1 << 18;
/// Minimum element count before element-wise / reduction ops fan out.
const PAR_ELEM_MIN: usize = 1 << 16;

/// Register-blocked SIMD kernels over a scoped worker pool.
///
/// Output rows are split into `4×threads` blocks pushed onto a shared MPMC
/// queue; each worker drains blocks until the queue is empty. Every output
/// element is produced by exactly one worker running the [`crate::simd`]
/// micro-kernels, which accumulate in the same per-element order as
/// [`Reference`], so results are bit-identical at any thread count and
/// SIMD level. The `map`/`zip` family takes `dyn Fn` closures and cannot
/// be explicitly vectorised; at one worker those calls are inlined
/// monomorphised by `Tensor` (see `elementwise_parallelism`) where LLVM
/// auto-vectorises them. GELU has dedicated kernels instead
/// ([`simd::gelu_slice`]), because its `tanh` only vectorises when the
/// whole port inlines into an AVX2 loop.
#[derive(Debug, Clone, Copy)]
pub struct Parallel {
    threads: usize,
}

impl Parallel {
    /// A parallel backend using `threads` workers (min 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Splits `out` into per-block `(row_range, chunk)` jobs and runs them
    /// on the worker pool. `row_width` is the number of `f32`s per output
    /// row; `kernel` must fully overwrite its chunk.
    fn run_rows(
        &self,
        total_rows: usize,
        row_width: usize,
        out: &mut [f32],
        kernel: impl Fn(Range<usize>, &mut [f32]) + Sync,
    ) {
        let block = total_rows.div_ceil(self.threads * 4).max(1);
        let jobs: Vec<(Range<usize>, &mut [f32])> = out
            .chunks_mut(block * row_width)
            .enumerate()
            .map(|(b, chunk)| {
                let start = b * block;
                (start..(start + block).min(total_rows), chunk)
            })
            .collect();
        run_jobs(self.threads, jobs, |(rows, chunk)| kernel(rows, chunk));
    }

    /// Chunked element-wise dispatch over one mutable slice.
    fn run_elems(&self, y: &mut [f32], kernel: impl Fn(usize, &mut [f32]) + Sync) {
        let n = y.len();
        let block = n.div_ceil(self.threads * 4).max(1);
        let jobs: Vec<(usize, &mut [f32])> =
            y.chunks_mut(block).enumerate().map(|(b, chunk)| (b * block, chunk)).collect();
        run_jobs(self.threads, jobs, |(offset, chunk)| kernel(offset, chunk));
    }
}

/// Drains `jobs` with up to `threads` scoped workers pulling from a shared
/// queue. Falls back to inline execution for a single job or single thread.
fn run_jobs<T: Send>(threads: usize, jobs: Vec<T>, work: impl Fn(T) + Sync) {
    if threads <= 1 || jobs.len() <= 1 {
        for job in jobs {
            work(job);
        }
        return;
    }
    let workers = threads.min(jobs.len());
    let (tx, rx) = crossbeam::channel::unbounded();
    for job in jobs {
        let _ = tx.send(job);
    }
    drop(tx);
    let work = &work;
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let rx = rx.clone();
            s.spawn(move |_| {
                // All jobs are enqueued before the scope starts and the
                // sender is dropped, so an empty queue means "done".
                while let Ok(job) = rx.try_recv() {
                    work(job);
                }
            });
        }
    })
    .expect("kernel worker panicked");
}

impl Backend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        if self.threads == 1 || m < 2 || m * k * n < PAR_GEMM_MIN_MADDS {
            return fast_gemm_rows(0..m, k, n, a, b, out);
        }
        self.run_rows(m, n, out, |rows, chunk| fast_gemm_rows(rows, k, n, a, b, chunk));
    }

    fn gemm_transpose(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        if simd::level() == simd::SimdLevel::Scalar {
            // Forced-scalar fallback: the original per-element dot loops.
            if self.threads == 1 || m < 2 || m * k * n < PAR_GEMM_MIN_MADDS {
                return gemm_transpose_rows(0..m, k, n, a, b, out);
            }
            return self
                .run_rows(m, n, out, |rows, chunk| gemm_transpose_rows(rows, k, n, a, b, chunk));
        }
        // Pack the Bᵀ panel k-major once on the calling thread, then run
        // the plain gemm kernel over it: the per-element dot order is
        // unchanged (still ascending k), but every load is now contiguous.
        // Workers share the packed panel read-only.
        let mut packed = workspace::take_vec(k * n);
        simd::pack_transpose(n, k, b, &mut packed);
        if self.threads == 1 || m < 2 || m * k * n < PAR_GEMM_MIN_MADDS {
            fast_gemm_rows(0..m, k, n, a, &packed, out);
        } else {
            let bp: &[f32] = &packed;
            self.run_rows(m, n, out, |rows, chunk| fast_gemm_rows(rows, k, n, a, bp, chunk));
        }
        workspace::recycle_vec(packed);
    }

    fn transpose_gemm(&self, l: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        if self.threads == 1 || m < 2 || l * m * n < PAR_GEMM_MIN_MADDS {
            return fast_transpose_gemm_rows(0..m, l, m, n, a, b, out);
        }
        self.run_rows(m, n, out, |cols, chunk| {
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
        let madds = rows * spec.nnz_width() * n;
        if self.threads == 1 || rows < 2 || madds < PAR_GEMM_MIN_MADDS {
            return gather_rows(0..rows, spec, numeric, indices, n, w, out);
        }
        self.run_rows(rows, n, out, |rows, chunk| {
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
        let madds = rows * spec.nnz_width() * n;
        let in_width = spec.in_width();
        if self.threads == 1 || in_width < 2 || madds < PAR_GEMM_MIN_MADDS {
            return scatter_weight_rows(0..in_width, spec, rows, numeric, indices, n, grad, dw);
        }
        // Partition by weight row: each dw element has a single writer
        // accumulating batch rows in ascending order, as Reference does.
        self.run_rows(in_width, n, dw, |wrows, chunk| {
            scatter_weight_rows(wrows, spec, rows, numeric, indices, n, grad, chunk)
        });
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        if self.threads == 1 || y.len() < PAR_ELEM_MIN {
            return simd::axpy(alpha, x, y);
        }
        self.run_elems(y, |offset, chunk| {
            let end = offset + chunk.len();
            simd::axpy(alpha, &x[offset..end], chunk);
        });
    }

    fn scale(&self, alpha: f32, y: &mut [f32]) {
        if self.threads == 1 || y.len() < PAR_ELEM_MIN {
            return simd::scale(alpha, y);
        }
        self.run_elems(y, |_, chunk| simd::scale(alpha, chunk));
    }

    fn map(&self, x: &[f32], out: &mut [f32], f: MapFn) {
        if self.threads == 1 || x.len() < PAR_ELEM_MIN {
            return Reference.map(x, out, f);
        }
        self.run_elems(out, |offset, chunk| {
            let end = offset + chunk.len();
            for (o, &v) in chunk.iter_mut().zip(&x[offset..end]) {
                *o = f(v);
            }
        });
    }

    fn map_inplace(&self, x: &mut [f32], f: MapFn) {
        if self.threads == 1 || x.len() < PAR_ELEM_MIN {
            return Reference.map_inplace(x, f);
        }
        self.run_elems(x, |_, chunk| {
            for v in chunk.iter_mut() {
                *v = f(*v);
            }
        });
    }

    fn zip(&self, a: &[f32], b: &[f32], out: &mut [f32], f: ZipFn) {
        if self.threads == 1 || a.len() < PAR_ELEM_MIN {
            return Reference.zip(a, b, out, f);
        }
        self.run_elems(out, |offset, chunk| {
            let end = offset + chunk.len();
            for ((o, &av), &bv) in chunk.iter_mut().zip(&a[offset..end]).zip(&b[offset..end]) {
                *o = f(av, bv);
            }
        });
    }

    fn zip_inplace(&self, y: &mut [f32], x: &[f32], f: ZipFn) {
        if self.threads == 1 || y.len() < PAR_ELEM_MIN {
            return Reference.zip_inplace(y, x, f);
        }
        self.run_elems(y, |offset, chunk| {
            let end = offset + chunk.len();
            for (yv, &xv) in chunk.iter_mut().zip(&x[offset..end]) {
                *yv = f(*yv, xv);
            }
        });
    }

    fn gelu(&self, x: &[f32], out: &mut [f32]) {
        if self.threads == 1 || x.len() < PAR_ELEM_MIN {
            return simd::gelu_slice(x, out);
        }
        self.run_elems(out, |offset, chunk| {
            simd::gelu_slice(&x[offset..offset + chunk.len()], chunk);
        });
    }

    fn gelu_backward(&self, grad: &[f32], x: &[f32], out: &mut [f32]) {
        if self.threads == 1 || x.len() < PAR_ELEM_MIN {
            return simd::gelu_backward_slice(grad, x, out);
        }
        self.run_elems(out, |offset, chunk| {
            let end = offset + chunk.len();
            simd::gelu_backward_slice(&grad[offset..end], &x[offset..end], chunk);
        });
    }

    fn sum_rows(&self, rows: usize, cols: usize, x: &[f32], out: &mut [f32]) {
        if self.threads == 1 || rows * cols < PAR_ELEM_MIN || cols < 2 {
            return Reference.sum_rows(rows, cols, x, out);
        }
        // Partition *columns*: each worker owns a column range and walks all
        // rows in ascending order, matching the reference accumulation.
        self.run_rows(cols, 1, out, |col_range, chunk| {
            sum_rows_cols(col_range, rows, cols, x, chunk)
        });
    }

    fn softmax_rows(&self, rows: usize, cols: usize, x: &mut [f32]) {
        if self.threads == 1 || rows * cols < PAR_ELEM_MIN || rows < 2 {
            return Reference.softmax_rows(rows, cols, x);
        }
        self.run_rows(rows, cols, x, |row_range, chunk| {
            for local in 0..row_range.len() {
                softmax_row(&mut chunk[local * cols..(local + 1) * cols]);
            }
        });
    }

    fn elementwise_parallelism(&self, elems: usize) -> usize {
        if elems >= PAR_ELEM_MIN {
            self.threads
        } else {
            1
        }
    }
}

// ---------------------------------------------------------------------------
// Half-precision inference backend.
// ---------------------------------------------------------------------------

/// Opt-in low-precision inference wrapper: f16 operand storage, f32
/// accumulation.
///
/// Every matrix-product operand (parameters *and* activations — whatever
/// feeds a `gemm` variant) is rounded to IEEE binary16 storage via
/// [`crate::f16::quantize_slice`] before the multiply; the multiply-add
/// chain itself runs in f32 through the wrapped backend, so accumulation
/// error does not compound on top of storage error. Element-wise kernels,
/// reductions, and softmax delegate unchanged in f32.
///
/// This backend is **not** bit-identical to [`Reference`] — rounding is
/// the point — which is why the global dispatch never routes through it
/// while a [`force_f32`] guard is held (training), and why the property
/// tests and the kernel bench gate its outputs against the f32 oracle
/// within the tolerance derived from [`crate::f16::F16_EPS`].
#[derive(Debug, Clone)]
pub struct HalfPrecision {
    inner: Arc<dyn Backend>,
}

impl HalfPrecision {
    /// Wraps `inner` so its matrix products see f16-rounded operands.
    pub fn new(inner: Arc<dyn Backend>) -> Self {
        Self { inner }
    }

    /// A pooled copy of `src` rounded through binary16 storage.
    fn quantized(src: &[f32]) -> Vec<f32> {
        let mut buf = workspace::take_vec(src.len());
        f16::quantize_slice(src, &mut buf);
        buf
    }
}

impl Backend for HalfPrecision {
    fn name(&self) -> &'static str {
        "f16"
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let qa = Self::quantized(a);
        let qb = Self::quantized(b);
        self.inner.gemm(m, k, n, &qa, &qb, out);
        workspace::recycle_vec(qa);
        workspace::recycle_vec(qb);
    }

    fn gemm_transpose(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let qa = Self::quantized(a);
        let qb = Self::quantized(b);
        self.inner.gemm_transpose(m, k, n, &qa, &qb, out);
        workspace::recycle_vec(qa);
        workspace::recycle_vec(qb);
    }

    fn transpose_gemm(&self, l: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        let qa = Self::quantized(a);
        let qb = Self::quantized(b);
        self.inner.transpose_gemm(l, m, n, &qa, &qb, out);
        workspace::recycle_vec(qa);
        workspace::recycle_vec(qb);
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
        // Quantizing the densified batch only touches its numeric slots —
        // one-hot 1.0/0.0 entries are f16-exact — so rounding `numeric`
        // and the weight table reproduces the dense f16 path exactly.
        let qnum = Self::quantized(numeric);
        let qw = Self::quantized(w);
        self.inner.gather_gemm(rows, n, spec, &qnum, indices, &qw, out);
        workspace::recycle_vec(qnum);
        workspace::recycle_vec(qw);
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
        // Training pins f32 via `force_f32`, so this path is exercised only
        // by the property tests; keep the transpose_gemm operand semantics.
        let qnum = Self::quantized(numeric);
        let qg = Self::quantized(grad);
        self.inner.scatter_grad(rows, n, spec, &qnum, indices, &qg, dw);
        workspace::recycle_vec(qnum);
        workspace::recycle_vec(qg);
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        self.inner.axpy(alpha, x, y);
    }

    fn scale(&self, alpha: f32, y: &mut [f32]) {
        self.inner.scale(alpha, y);
    }

    fn map(&self, x: &[f32], out: &mut [f32], f: MapFn) {
        self.inner.map(x, out, f);
    }

    fn map_inplace(&self, x: &mut [f32], f: MapFn) {
        self.inner.map_inplace(x, f);
    }

    fn zip(&self, a: &[f32], b: &[f32], out: &mut [f32], f: ZipFn) {
        self.inner.zip(a, b, out, f);
    }

    fn zip_inplace(&self, y: &mut [f32], x: &[f32], f: ZipFn) {
        self.inner.zip_inplace(y, x, f);
    }

    fn gelu(&self, x: &[f32], out: &mut [f32]) {
        self.inner.gelu(x, out);
    }

    fn gelu_backward(&self, grad: &[f32], x: &[f32], out: &mut [f32]) {
        self.inner.gelu_backward(grad, x, out);
    }

    fn sum_rows(&self, rows: usize, cols: usize, x: &[f32], out: &mut [f32]) {
        self.inner.sum_rows(rows, cols, x, out);
    }

    fn softmax_rows(&self, rows: usize, cols: usize, x: &mut [f32]) {
        self.inner.softmax_rows(rows, cols, x);
    }

    fn elementwise_parallelism(&self, elems: usize) -> usize {
        self.inner.elementwise_parallelism(elems)
    }
}

// ---------------------------------------------------------------------------
// Global backend selection.
// ---------------------------------------------------------------------------

/// Numeric precision mode for the global dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full-precision f32 kernels (default; the only mode training uses).
    F32,
    /// f16 operand storage with f32 accumulation ([`HalfPrecision`]),
    /// applied to inference unless a [`force_f32`] guard is held.
    F16,
}

impl Precision {
    /// Mode name for telemetry, bench reports, and CLI round-trips.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
        }
    }

    /// Parses a CLI/env spelling (`f32`/`full`/`single`, `f16`/`half`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "full" | "single" => Some(Precision::F32),
            "f16" | "half" => Some(Precision::F16),
            _ => None,
        }
    }
}

/// Global dispatch state: the installed base backend, the precision mode,
/// the precision-composed view of the base, and the depth of nested
/// [`force_f32`] guards currently pinning dispatch to the base.
struct State {
    base: Arc<dyn Backend>,
    composed: Arc<dyn Backend>,
    precision: Precision,
    forced_f32: usize,
}

static GLOBAL: OnceLock<RwLock<State>> = OnceLock::new();

fn slot() -> &'static RwLock<State> {
    GLOBAL.get_or_init(|| {
        let base = base_from_env();
        let precision = precision_from_env();
        let composed = compose(&base, precision);
        RwLock::new(State { base, composed, precision, forced_f32: 0 })
    })
}

/// The precision-composed view of `base`.
fn compose(base: &Arc<dyn Backend>, precision: Precision) -> Arc<dyn Backend> {
    match precision {
        Precision::F32 => base.clone(),
        Precision::F16 => Arc::new(HalfPrecision::new(base.clone())),
    }
}

/// Base backend implied by `SILOFUSE_THREADS` (unset/invalid/≤1 → one
/// worker, i.e. serial SIMD kernels).
fn base_from_env() -> Arc<dyn Backend> {
    let n = std::env::var("SILOFUSE_THREADS").ok().and_then(|v| v.parse::<usize>().ok());
    backend_for_threads(n.unwrap_or(1))
}

/// Precision implied by `SILOFUSE_PRECISION` (unset/unknown → f32).
fn precision_from_env() -> Precision {
    std::env::var("SILOFUSE_PRECISION")
        .ok()
        .and_then(|v| Precision::parse(&v))
        .unwrap_or(Precision::F32)
}

/// The process-global backend every `Tensor` kernel dispatches through:
/// the precision-composed backend, unless a [`force_f32`] guard pins
/// dispatch to the full-precision base.
pub fn get() -> Arc<dyn Backend> {
    let s = slot().read().unwrap_or_else(|e| e.into_inner());
    if s.forced_f32 > 0 {
        s.base.clone()
    } else {
        s.composed.clone()
    }
}

/// Installs `backend` as the process-global base backend; the active
/// precision mode is re-applied on top of it.
///
/// Safe to call at any time — base backends are bit-identical, so
/// in-flight training runs produce the same numbers regardless of when
/// the switch lands.
pub fn set(backend: Arc<dyn Backend>) {
    let mut s = slot().write().unwrap_or_else(|e| e.into_inner());
    s.composed = compose(&backend, s.precision);
    s.base = backend;
}

/// Selects the global precision mode. Unlike [`set`], this *does* change
/// numerics for inference callers (that is the point); training is
/// unaffected because its entry points hold a [`force_f32`] guard.
pub fn set_precision(precision: Precision) {
    let mut s = slot().write().unwrap_or_else(|e| e.into_inner());
    s.composed = compose(&s.base, precision);
    s.precision = precision;
}

/// The currently selected global precision mode.
pub fn precision() -> Precision {
    slot().read().unwrap_or_else(|e| e.into_inner()).precision
}

/// RAII guard pinning global dispatch to the full-precision f32 base
/// backend; see [`force_f32`].
pub struct ForceF32Guard(());

impl Drop for ForceF32Guard {
    fn drop(&mut self) {
        slot().write().unwrap_or_else(|e| e.into_inner()).forced_f32 -= 1;
    }
}

/// Pins global dispatch to the full-precision f32 base backend until the
/// returned guard drops. Guards nest (a counter, not a flag). Every
/// training entry point takes one, which is what makes "training stays
/// f32 and bit-identical" a structural guarantee rather than a
/// convention: even with `--precision f16`, gradient math can never
/// route through [`HalfPrecision`].
pub fn force_f32() -> ForceF32Guard {
    slot().write().unwrap_or_else(|e| e.into_inner()).forced_f32 += 1;
    ForceF32Guard(())
}

/// Selects the backend for a worker count: one [`Parallel`] worker (serial
/// SIMD kernels) for `n ≤ 1`, a worker pool otherwise.
pub fn set_threads(n: usize) {
    set(backend_for_threads(n));
}

/// The backend [`set_threads`] would install, without installing it.
pub fn backend_for_threads(n: usize) -> Arc<dyn Backend> {
    Arc::new(Parallel::new(n))
}

/// Worker-thread count of the current global backend.
pub fn threads() -> usize {
    get().threads()
}

/// Name of the current global backend.
pub fn name() -> &'static str {
    get().name()
}

/// Records the active backend's identity in the run telemetry: a gauge for
/// the worker-thread count and counters keyed by the backend's name, the
/// detected SIMD level, and the precision mode. Fit entry points call this
/// so every trace states which backend produced it.
pub fn record_telemetry() {
    if !silofuse_observe::enabled() {
        return;
    }
    let be = get();
    silofuse_observe::gauge("nn.backend.threads", be.threads() as f64);
    silofuse_observe::count(&format!("nn.backend.{}", be.name()), 1);
    silofuse_observe::count(&format!("nn.backend.simd.{}", simd::level().name()), 1);
    silofuse_observe::count(&format!("nn.backend.precision.{}", precision().name()), 1);
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
/// Counters for [`Backend::map`] / [`Backend::map_inplace`].
pub const MAP_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.map.calls", nanos: "nn.kernel.map.ns" };
/// Counters for [`Backend::zip`] / [`Backend::zip_inplace`].
pub const ZIP_COUNTERS: KernelCounters =
    KernelCounters { calls: "nn.kernel.zip.calls", nanos: "nn.kernel.zip.ns" };
/// Counters for [`Backend::gelu`].
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
        // Big enough to clear PAR_GEMM_MIN_MADDS so workers really spawn.
        let (m, k, n) = (96, 64, 64);
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
        let x = noise(100_000, 7);
        let y0 = noise(100_000, 8);
        let f: fn(f32) -> f32 = |v| v * 1.5 - 0.25;
        let mut want = vec![0.0; x.len()];
        Reference.map(&x, &mut want, &f);
        let mut got = vec![0.0; x.len()];
        Parallel::new(4).map(&x, &mut got, &f);
        assert_eq!(want, got);

        let mut want_y = y0.clone();
        Reference.axpy(0.75, &x, &mut want_y);
        let mut got_y = y0;
        Parallel::new(4).axpy(0.75, &x, &mut got_y);
        assert_eq!(want_y, got_y);
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
    fn set_threads_switches_global_backend() {
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(name(), "parallel");
        set_threads(1);
        assert_eq!(threads(), 1);
        // One worker still means the SIMD kernels, not the scalar oracle.
        assert_eq!(name(), "parallel");
    }

    #[test]
    fn gemm_transpose_packed_path_matches_reference() {
        // Shapes straddling the fan-out threshold and awkward tails, so
        // both the serial packed path and the worker path are covered.
        for (m, k, n) in [(1, 1, 1), (2, 3, 5), (9, 33, 17), (96, 64, 64), (130, 70, 50)] {
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

    #[test]
    fn half_precision_rounds_gemm_operands() {
        let (m, k, n) = (7, 19, 11);
        let a = noise(m * k, 31);
        let b = noise(k * n, 32);
        let qa: Vec<f32> = a.iter().map(|&v| f16::round_f16(v)).collect();
        let qb: Vec<f32> = b.iter().map(|&v| f16::round_f16(v)).collect();
        let mut want = vec![0.0; m * n];
        Reference.gemm(m, k, n, &qa, &qb, &mut want);
        let half = HalfPrecision::new(Arc::new(Reference));
        let mut got = vec![0.0; m * n];
        half.gemm(m, k, n, &a, &b, &mut got);
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "f16 gemm must equal f32 gemm over explicitly rounded operands"
        );
        // Elementwise ops are not quantized: f32 passthrough.
        let mut y = a.clone();
        let mut y_ref = a.clone();
        half.axpy(0.5, &b[..m * k], &mut y);
        Reference.axpy(0.5, &b[..m * k], &mut y_ref);
        assert_eq!(y, y_ref);
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
        for (rows, n) in [(1, 1), (3, 9), (40, 33), (512, 96)] {
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
        for (rows, n) in [(1, 1), (5, 7), (64, 48), (300, 64)] {
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

    #[test]
    fn half_precision_gather_matches_dense_f16_path() {
        let rows = 9;
        let n = 13;
        let (spec, numeric, indices, dense) = sparse_fixture(rows, 61);
        let w = noise(spec.in_width() * n, 62);
        let half = HalfPrecision::new(Arc::new(Reference));
        let mut want = vec![0.0; rows * n];
        half.gemm(rows, spec.in_width(), n, &dense, &w, &mut want);
        let mut got = vec![0.0; rows * n];
        half.gather_gemm(rows, n, &spec, &numeric, &indices, &w, &mut got);
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "f16 gather must equal f16 gemm over the densified batch"
        );
    }
}
