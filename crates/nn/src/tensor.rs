//! A minimal dense 2-D tensor over `f32`.
//!
//! Everything in this crate operates on batches of row vectors: a [`Tensor`]
//! with `rows` samples and `cols` features, stored row-major in a single
//! contiguous allocation. The design intentionally avoids views and
//! broadcasting machinery beyond what the SiloFuse models need; each
//! operation is explicit about shapes and checks them.
//!
//! The dense kernels (GEMM variants, axpy, map/zip, GELU, reductions,
//! softmax) dispatch through [`crate::backend::get`], so the same call runs
//! serial or parallel depending on `--threads` — with bit-identical results
//! either way.
//! Freshly produced tensors draw their storage from the
//! [`crate::workspace`] arena where possible.

use crate::backend::{self, Backend};
use crate::workspace;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `rows x cols` matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a tensor from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a tensor by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows (samples).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing storage, row-major.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new tensor containing the selected rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Returns the transpose as a new tensor.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self x other`.
    ///
    /// The hottest kernel in the crate; accumulation is unconditional and
    /// ascending in `k`, so NaN/Inf in either operand propagate naturally
    /// (no finiteness pre-scan) and the result is identical at any backend
    /// thread count.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = workspace::take(self.rows, other.cols);
        backend::timed(backend::GEMM_COUNTERS, || {
            backend::get().gemm(
                self.rows,
                self.cols,
                other.cols,
                &self.data,
                &other.data,
                out.as_mut_slice(),
            );
        });
        out
    }

    /// Matrix product `self x other^T` without materialising the transpose.
    pub fn matmul_transpose(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} vs {}x{}^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = workspace::take(self.rows, other.rows);
        backend::timed(backend::GEMM_TRANSPOSE_COUNTERS, || {
            backend::get().gemm_transpose(
                self.rows,
                self.cols,
                other.rows,
                &self.data,
                &other.data,
                out.as_mut_slice(),
            );
        });
        out
    }

    /// Matrix product `self^T x other` without materialising the transpose.
    pub fn transpose_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: {}x{}^T vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = workspace::take(self.cols, other.cols);
        backend::timed(backend::TRANSPOSE_GEMM_COUNTERS, || {
            backend::get().transpose_gemm(
                self.rows,
                self.cols,
                other.cols,
                &self.data,
                &other.data,
                out.as_mut_slice(),
            );
        });
        out
    }

    /// Element-wise addition into a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction into a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product into a new tensor.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise combination of two same-shape tensors.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_with shape mismatch");
        let mut out = workspace::take(self.rows, self.cols);
        let be = backend::get();
        if be.elementwise_parallelism(self.data.len()) > 1 {
            backend::timed(backend::ZIP_COUNTERS, || {
                be.zip(&self.data, &other.data, out.as_mut_slice(), &f);
            });
        } else {
            for ((o, &a), &b) in out.as_mut_slice().iter_mut().zip(&self.data).zip(&other.data) {
                *o = f(a, b);
            }
        }
        out
    }

    /// In-place element-wise combination: `self[i] = f(self[i], other[i])`.
    pub fn zip_assign(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(self.shape(), other.shape(), "zip_assign shape mismatch");
        let be = backend::get();
        if be.elementwise_parallelism(self.data.len()) > 1 {
            backend::timed(backend::ZIP_COUNTERS, || {
                be.zip_inplace(&mut self.data, &other.data, &f);
            });
        } else {
            for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
                *a = f(*a, b);
            }
        }
    }

    /// In-place element-wise addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.add_scaled(other, 1.0);
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        backend::timed(backend::AXPY_COUNTERS, || {
            backend::get().axpy(alpha, &other.data, &mut self.data);
        });
    }

    /// Returns `self * scalar` as a new tensor.
    pub fn scale(&self, scalar: f32) -> Tensor {
        self.map(|v| v * scalar)
    }

    /// In-place multiplication by a scalar.
    pub fn scale_assign(&mut self, scalar: f32) {
        backend::timed(backend::AXPY_COUNTERS, || {
            backend::get().scale(scalar, &mut self.data);
        });
    }

    /// Applies `f` element-wise into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = workspace::take(self.rows, self.cols);
        let be = backend::get();
        if be.elementwise_parallelism(self.data.len()) > 1 {
            backend::timed(backend::MAP_COUNTERS, || {
                be.map(&self.data, out.as_mut_slice(), &f);
            });
        } else {
            for (o, &v) in out.as_mut_slice().iter_mut().zip(&self.data) {
                *o = f(v);
            }
        }
        out
    }

    /// GELU (tanh approximation) element-wise into a new tensor, through
    /// the backend's counted [`backend::Backend::gelu`] kernel.
    pub fn gelu(&self) -> Tensor {
        let mut out = workspace::take(self.rows, self.cols);
        backend::timed(backend::GELU_COUNTERS, || {
            backend::get().gelu(&self.data, out.as_mut_slice());
        });
        out
    }

    /// GELU for training: returns `gelu(self)` and overwrites `deriv` with
    /// `gelu'(self)`, from one `tanh` per element, through the backend's
    /// [`backend::Backend::gelu_train`] kernel (counted as `gelu`).
    pub fn gelu_train(&self, deriv: &mut Tensor) -> Tensor {
        assert_eq!(self.shape(), deriv.shape(), "gelu_train shape mismatch");
        let mut out = workspace::take(self.rows, self.cols);
        backend::timed(backend::GELU_COUNTERS, || {
            backend::get().gelu_train(&self.data, out.as_mut_slice(), &mut deriv.data);
        });
        out
    }

    /// GELU backward for the upstream gradient `self`: `self[i] · deriv[i]`
    /// into a new tensor, with `deriv` the derivative
    /// [`Tensor::gelu_train`] wrote.
    pub fn gelu_backward(&self, deriv: &Tensor) -> Tensor {
        assert_eq!(self.shape(), deriv.shape(), "gelu_backward shape mismatch");
        let mut out = workspace::take(self.rows, self.cols);
        backend::timed(backend::GELU_GRAD_COUNTERS, || {
            backend::get().gelu_backward(&self.data, &deriv.data, out.as_mut_slice());
        });
        out
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Sum over rows, producing one value per column.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        self.sum_rows_into(&mut out);
        out
    }

    /// Sum over rows into a caller-provided per-column buffer (overwritten).
    ///
    /// # Panics
    /// Panics if `out.len() != self.cols()`.
    pub fn sum_rows_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "sum_rows_into length mismatch");
        backend::timed(backend::SUM_ROWS_COUNTERS, || {
            backend::get().sum_rows(self.rows, self.cols, &self.data, out);
        });
    }

    /// Mean over rows, producing one value per column.
    pub fn mean_rows(&self) -> Vec<f32> {
        let mut out = self.sum_rows();
        let n = self.rows.max(1) as f32;
        for v in &mut out {
            *v /= n;
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise concatenation of tensors that share a row count, into
    /// storage drawn from the workspace arena.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts disagree.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "concat_cols row count mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = workspace::take(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            let dst = out.row_mut(r);
            for p in parts {
                dst[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Splits the tensor column-wise into parts of the given widths.
    ///
    /// # Panics
    /// Panics if widths do not sum to `self.cols()`.
    pub fn split_cols(&self, widths: &[usize]) -> Vec<Tensor> {
        let total: usize = widths.iter().sum();
        assert_eq!(total, self.cols, "split widths must sum to column count");
        let mut parts: Vec<Tensor> = widths.iter().map(|&w| Tensor::zeros(self.rows, w)).collect();
        for r in 0..self.rows {
            let src = self.row(r);
            let mut offset = 0;
            for (part, &w) in parts.iter_mut().zip(widths.iter()) {
                part.row_mut(r).copy_from_slice(&src[offset..offset + w]);
                offset += w;
            }
        }
        parts
    }

    /// Extracts a contiguous column range `[start, start + width)` into
    /// storage drawn from the workspace arena.
    pub fn slice_cols(&self, start: usize, width: usize) -> Tensor {
        assert!(start + width <= self.cols, "slice_cols out of range");
        let mut out = workspace::take(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }

    /// Row-wise softmax in a new tensor (numerically stabilised).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = workspace::take_copy(self);
        backend::timed(backend::SOFTMAX_COUNTERS, || {
            backend::get().softmax_rows(self.rows, self.cols, out.as_mut_slice());
        });
        out
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Vertical (row-wise) concatenation of tensors that share a column count.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let cols = parts[0].cols;
        assert!(parts.iter().all(|p| p.cols == cols), "concat_rows column count mismatch");
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor { rows, cols, data }
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn zeros_and_shape() {
        let z = Tensor::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.len(), 12);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_known_values() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = t(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = t(4, 3, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0]);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_transpose(&b);
        assert_eq!(via_t, direct);
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit_transpose() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 4, &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let via_t = a.transpose().matmul(&b);
        let direct = a.transpose_matmul(&b);
        assert_eq!(via_t, direct);
    }

    #[test]
    fn transpose_involution() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn concat_then_split_round_trips() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t(2, 3, &[5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        let joined = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(joined.shape(), (2, 5));
        let parts = joined.split_cols(&[2, 3]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn slice_cols_extracts_range() {
        let a = t(2, 4, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let s = a.slice_cols(1, 2);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Softmax is monotone with the logits.
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let a = t(1, 3, &[1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
        assert!((s[(0, 0)] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Tensor::zeros(3, 2);
        a.add_row_broadcast(&[1.0, -2.0]);
        assert_eq!(a.sum_rows(), vec![3.0, -6.0]);
        assert_eq!(a.mean_rows(), vec![1.0, -2.0]);
        assert_eq!(a.sum(), -3.0);
    }

    #[test]
    fn select_rows_reorders() {
        let a = t(3, 2, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.as_slice(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = t(1, 2, &[1.0, 2.0]);
        let b = t(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_zero_rows_do_not_mask_nan_or_inf() {
        // A zero row in the left operand must still propagate a NaN/Inf
        // sitting in the right operand: 0 * NaN = NaN, 0 * Inf = NaN. The
        // kernels accumulate unconditionally, so nothing can mask them.
        let zero = t(1, 2, &[0.0, 0.0]);
        let nan_b = t(2, 2, &[f32::NAN, 1.0, 2.0, 3.0]);
        assert!(zero.matmul(&nan_b).as_slice()[0].is_nan(), "NaN must reach the output");
        let inf_b = t(2, 2, &[f32::INFINITY, 1.0, 2.0, 3.0]);
        assert!(inf_b.as_slice()[0].is_infinite());
        assert!(zero.matmul(&inf_b).as_slice()[0].is_nan(), "0 * Inf is NaN");

        let zero_col = t(2, 1, &[0.0, 0.0]);
        let got = zero_col.transpose_matmul(&nan_b);
        assert!(got.as_slice()[0].is_nan(), "transpose_matmul must propagate too");

        // Finite inputs with zero rows still produce exact zeros.
        let a = t(2, 2, &[0.0, 1.0, 0.0, 0.0]);
        let b = t(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.matmul(&b).as_slice(), &[7.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = t(1, 3, &[1.0, 2.0, 3.0]);
        let b = t(1, 3, &[10.0, 20.0, 30.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0]);
    }
}
