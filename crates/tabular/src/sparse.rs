//! Sparse categorical batch encoding: how categorical columns reach the
//! autoencoders and the linear GAN discriminator.
//!
//! The dense one-hot encoding ([`crate::encode::TableEncoder::encode`])
//! materialises `rows × #Aft` floats even though each categorical column
//! contributes exactly one nonzero per row. For the paper's widest schemas
//! (Churn's 2 932-way column, Intrusion at 268, Heloc at 239) almost the
//! entire buffer is zeros. [`SparseBatch`] stores the same information as
//! `rows × n_numeric` dense numeric slots plus `rows × n_categorical`
//! one-hot *slot indices* — memory and downstream FLOPs scale with
//! nonzeros, not with the expanded width.
//!
//! The buffer is preallocated and reused across training steps (the
//! `marlinflow` batch design): [`SparseBatch::clear`] resets the row count
//! without freeing, so steady-state training performs no per-step
//! allocation once capacity has been reached.

use crate::schema::Schema;

/// A reusable sparse encoding of a batch of rows.
///
/// Layout (both buffers row-major):
/// - `numeric`: `rows × n_numeric` scaled numeric values, in schema order of
///   the numeric columns. Values are bitwise identical to the corresponding
///   dense slots.
/// - `indices`: `rows × n_categorical` **absolute one-hot slot indices**
///   (`block_offset + code`), in schema order of the categorical columns.
///   Storing the absolute slot rather than the raw code means downstream
///   gather kernels index the weight table directly.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseBatch {
    rows: usize,
    n_numeric: usize,
    n_categorical: usize,
    numeric: Vec<f32>,
    indices: Vec<u32>,
}

impl SparseBatch {
    /// An empty batch shaped for `schema`. Buffers grow on first use and are
    /// then reused; pass the expected batch size to
    /// [`Self::reserve_rows`] to preallocate up front.
    pub fn for_schema(schema: &Schema) -> Self {
        Self {
            rows: 0,
            n_numeric: schema.numeric_count(),
            n_categorical: schema.categorical_count(),
            numeric: Vec::new(),
            indices: Vec::new(),
        }
    }

    /// Preallocates capacity for `rows` rows without changing the length.
    pub fn reserve_rows(&mut self, rows: usize) {
        let want_num = rows * self.n_numeric;
        let want_idx = rows * self.n_categorical;
        self.numeric.reserve(want_num.saturating_sub(self.numeric.len()));
        self.indices.reserve(want_idx.saturating_sub(self.indices.len()));
    }

    /// Drops all rows but keeps the allocations (the `marlinflow` reuse
    /// pattern): the next encode refills in place.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.numeric.clear();
        self.indices.clear();
    }

    /// Clears and resizes to hold exactly `rows` rows, zero-filled, ready to
    /// be written in place.
    pub(crate) fn reset(&mut self, rows: usize) {
        self.clear();
        self.rows = rows;
        self.numeric.resize(rows * self.n_numeric, 0.0);
        self.indices.resize(rows * self.n_categorical, 0);
    }

    /// Rows currently encoded.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Numeric slots per row.
    pub fn n_numeric(&self) -> usize {
        self.n_numeric
    }

    /// Categorical indices per row.
    pub fn n_categorical(&self) -> usize {
        self.n_categorical
    }

    /// Dense numeric values, row-major `rows × n_numeric`.
    pub fn numeric(&self) -> &[f32] {
        &self.numeric
    }

    /// Absolute one-hot slot indices, row-major `rows × n_categorical`.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Mutable view for encoders filling the batch in place.
    pub(crate) fn buffers_mut(&mut self) -> (&mut [f32], &mut [u32]) {
        (&mut self.numeric, &mut self.indices)
    }

    /// Bytes held by the encoded rows: 4 per numeric slot + 4 per
    /// categorical index — proportional to nonzeros, independent of the
    /// one-hot width.
    pub fn batch_bytes(&self) -> usize {
        self.numeric.len() * std::mem::size_of::<f32>()
            + self.indices.len() * std::mem::size_of::<u32>()
    }

    /// Nonzero entries represented per row batch (numeric slots, zero or
    /// not, plus one nonzero per categorical column).
    pub fn nonzeros(&self) -> usize {
        self.rows * (self.n_numeric + self.n_categorical)
    }
}

/// Bytes a dense one-hot encoding of the same batch would occupy.
pub fn dense_batch_bytes(rows: usize, one_hot_width: usize) -> usize {
    rows * one_hot_width * std::mem::size_of::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnMeta;

    fn wide_schema() -> Schema {
        Schema::new(vec![
            ColumnMeta::numeric("x"),
            ColumnMeta::categorical("c", 100),
            ColumnMeta::numeric("y"),
            ColumnMeta::categorical("d", 7),
        ])
    }

    #[test]
    fn clear_keeps_capacity() {
        let schema = wide_schema();
        let mut batch = SparseBatch::for_schema(&schema);
        batch.reset(64);
        assert_eq!(batch.rows(), 64);
        assert_eq!(batch.numeric().len(), 64 * 2);
        assert_eq!(batch.indices().len(), 64 * 2);
        let cap_num = batch.numeric.capacity();
        let cap_idx = batch.indices.capacity();
        batch.clear();
        assert_eq!(batch.rows(), 0);
        assert_eq!(batch.batch_bytes(), 0);
        batch.reset(64);
        assert_eq!(batch.numeric.capacity(), cap_num);
        assert_eq!(batch.indices.capacity(), cap_idx);
    }

    #[test]
    fn batch_bytes_track_nonzeros_not_width() {
        let schema = wide_schema(); // one-hot width 109
        let mut batch = SparseBatch::for_schema(&schema);
        batch.reset(10);
        assert_eq!(batch.batch_bytes(), 10 * (2 + 2) * 4);
        assert_eq!(batch.nonzeros(), 10 * 4);
        assert_eq!(dense_batch_bytes(10, schema.one_hot_width()), 10 * 109 * 4);
        assert!(batch.batch_bytes() < dense_batch_bytes(10, schema.one_hot_width()));
    }
}
