//! Feature encodings: scalers, quantile transforms, and one-hot table
//! encoding for neural models.

use crate::math::{normal_cdf, normal_ppf};
use crate::schema::{ColumnKind, Schema};
use crate::sparse::SparseBatch;
use crate::table::{Column, Table, TableError};

/// How numeric columns are scaled before entering a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingKind {
    /// Zero-mean, unit-variance standardisation.
    Standard,
    /// Rescale into `[-1, 1]` (GAN-friendly).
    MinMax,
    /// Empirical-CDF mapping onto a standard Gaussian (TabDDPM's
    /// quantile transformation).
    QuantileGaussian,
}

/// A numeric column's fitted scaling, as its parameters: what a saved
/// [`TableEncoder`] keeps of the data it was fitted on.
#[derive(Debug, Clone)]
pub enum NumericCodec {
    /// `(v − mean) / std`.
    Standard {
        /// Mean of the fitted values.
        mean: f64,
        /// Their standard deviation (floored at 1e-9).
        std: f64,
    },
    /// `2 (v − min) / (max − min) − 1`.
    MinMax {
        /// Smallest fitted value.
        min: f64,
        /// Largest fitted value (`min + 1` for a constant column).
        max: f64,
    },
    /// The empirical CDF mapped onto `N(0, 1)`.
    Quantile(QuantileTransformer),
}

impl NumericCodec {
    /// Fits on the *finite* values of a column; `None` when there are none
    /// (empty column, or every value is NaN/±inf) — callers map that to
    /// [`TableError::DegenerateColumn`] instead of fabricating a sentinel
    /// distribution. Constant columns are supported by every scaling:
    /// Standard floors the deviation, MinMax widens the range by 1, and the
    /// quantile transform inverts a single-point sample to that point.
    fn try_fit(kind: ScalingKind, values: &[f64]) -> Option<Self> {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return None;
        }
        Some(match kind {
            ScalingKind::Standard => {
                let n = finite.len() as f64;
                let mean = finite.iter().sum::<f64>() / n;
                let var = finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
                NumericCodec::Standard { mean, std: var.sqrt().max(1e-9) }
            }
            ScalingKind::MinMax => {
                let min = finite.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let (min, max) = if max > min {
                    (min, max)
                } else {
                    // Constant column: any non-degenerate range that keeps the
                    // observed value inside [-1, 1] round-trips correctly.
                    (min, min + 1.0)
                };
                NumericCodec::MinMax { min, max }
            }
            ScalingKind::QuantileGaussian => {
                NumericCodec::Quantile(QuantileTransformer::try_fit(values)?)
            }
        })
    }

    fn encode(&self, v: f64) -> f64 {
        match self {
            NumericCodec::Standard { mean, std } => (v - mean) / std,
            NumericCodec::MinMax { min, max } => 2.0 * (v - min) / (max - min) - 1.0,
            NumericCodec::Quantile(q) => q.transform(v),
        }
    }

    fn decode(&self, v: f64) -> f64 {
        match self {
            NumericCodec::Standard { mean, std } => v * std + mean,
            NumericCodec::MinMax { min, max } => {
                (v.clamp(-1.0, 1.0) + 1.0) / 2.0 * (max - min) + min
            }
            NumericCodec::Quantile(q) => q.inverse(v),
        }
    }
}

/// Maps a numeric column through its empirical CDF onto `N(0, 1)`.
///
/// This is the transformation TabDDPM applies to continuous features; it
/// makes arbitrary marginals Gaussian so that Gaussian diffusion is a good
/// fit, and its inverse restores the original marginal exactly (up to
/// interpolation).
#[derive(Debug, Clone)]
pub struct QuantileTransformer {
    sorted: Vec<f64>,
}

impl QuantileTransformer {
    /// Fits on the finite subset of `values`; `None` when no finite value
    /// remains (empty or all-NaN/±inf column) — there is no empirical CDF
    /// to invert, and fabricating one (the old behaviour pushed a `0.0`
    /// sentinel) silently invents a distribution the data never had. A
    /// single finite value fits a constant transformer: `transform` maps
    /// everything near the median score and `inverse` returns the value.
    pub fn try_fit(values: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(Self { sorted })
    }

    /// Fits on observed values.
    ///
    /// # Panics
    /// Panics when the column has no finite values; use [`Self::try_fit`]
    /// to handle degenerate columns as data instead.
    pub fn fit(values: &[f64]) -> Self {
        Self::try_fit(values)
            .expect("QuantileTransformer::fit: column has no finite values to fit on")
    }

    /// The finite fitted values, ascending ([`f64::total_cmp`] order):
    /// [`Self::try_fit`] on them rebuilds this transformer exactly.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Maps a value to its Gaussian score.
    pub fn transform(&self, v: f64) -> f64 {
        let n = self.sorted.len();
        // Fraction of the sample <= v, mid-ranked for ties.
        let lo = self.sorted.partition_point(|&x| x < v);
        let hi = self.sorted.partition_point(|&x| x <= v);
        let rank = (lo + hi) as f64 / 2.0;
        let p = (rank / n as f64).clamp(0.5 / n as f64, 1.0 - 0.5 / n as f64);
        normal_ppf(p)
    }

    /// Maps a Gaussian score back to the data scale.
    pub fn inverse(&self, z: f64) -> f64 {
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let p = normal_cdf(z).clamp(0.0, 1.0);
        let pos = p * (n - 1) as f64;
        let idx = pos.floor() as usize;
        if idx + 1 >= n {
            return self.sorted[n - 1];
        }
        let frac = pos - idx as f64;
        self.sorted[idx] * (1.0 - frac) + self.sorted[idx + 1] * frac
    }
}

/// Encodes a [`Table`] into a flat `f32` feature matrix (row-major) and back.
///
/// Layout follows schema order: a numeric column contributes one scaled slot,
/// a categorical column contributes `cardinality` one-hot slots. This is the
/// encoding every model in the reproduction consumes; its width is the
/// paper's `#Aft` (Table II).
#[derive(Debug, Clone)]
pub struct TableEncoder {
    schema: Schema,
    numeric_codecs: Vec<Option<NumericCodec>>,
}

impl TableEncoder {
    /// Fits the encoder on a reference table.
    ///
    /// # Errors
    /// Returns [`TableError::DegenerateColumn`] when a numeric column has
    /// no finite values (empty, or all NaN/±inf): no scaling can be fitted
    /// for it, and fabricating one would silently hand the models a
    /// distribution the data never had. Constant columns are fine — see
    /// `NumericCodec::try_fit` for the per-scaling handling.
    pub fn try_fit(table: &Table, scaling: ScalingKind) -> Result<Self, TableError> {
        let schema = table.schema().clone();
        let mut numeric_codecs = Vec::with_capacity(table.columns().len());
        for (column, col) in table.columns().iter().enumerate() {
            numeric_codecs.push(match col.as_numeric() {
                Some(values) => Some(
                    NumericCodec::try_fit(scaling, values)
                        .ok_or(TableError::DegenerateColumn { column })?,
                ),
                None => None,
            });
        }
        Ok(Self { schema, numeric_codecs })
    }

    /// Fits the encoder on a reference table.
    ///
    /// # Panics
    /// Panics when a numeric column has no finite values; use
    /// [`Self::try_fit`] to surface that as [`TableError::DegenerateColumn`].
    pub fn fit(table: &Table, scaling: ScalingKind) -> Self {
        Self::try_fit(table, scaling).unwrap_or_else(|e| panic!("TableEncoder::fit: {e}"))
    }

    /// Reassembles a fitted encoder from its [`Self::schema`] and
    /// [`Self::numeric_codecs`], such as a saved model's.
    ///
    /// # Errors
    /// [`TableError::ColumnCountMismatch`] when there is not one codec
    /// slot per column, and [`TableError::KindMismatch`] when a numeric
    /// column has no codec or a categorical one has one.
    pub fn from_parts(
        schema: Schema,
        numeric_codecs: Vec<Option<NumericCodec>>,
    ) -> Result<Self, TableError> {
        if numeric_codecs.len() != schema.width() {
            return Err(TableError::ColumnCountMismatch {
                expected: schema.width(),
                got: numeric_codecs.len(),
            });
        }
        for (column, (meta, codec)) in schema.columns().iter().zip(&numeric_codecs).enumerate() {
            if meta.kind.is_categorical() == codec.is_some() {
                return Err(TableError::KindMismatch { column });
            }
        }
        Ok(Self { schema, numeric_codecs })
    }

    /// The schema this encoder was fitted on.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Each column's fitted scaling, schema order: `Some` for a numeric
    /// column, `None` for a categorical one.
    pub fn numeric_codecs(&self) -> &[Option<NumericCodec>] {
        &self.numeric_codecs
    }

    /// Width of an encoded row.
    pub fn encoded_width(&self) -> usize {
        self.schema.one_hot_width()
    }

    /// Widths of the categorical logit groups, in schema order.
    pub fn categorical_group_widths(&self) -> Vec<usize> {
        self.schema
            .columns()
            .iter()
            .filter_map(|c| match c.kind {
                ColumnKind::Categorical { cardinality } => Some(cardinality as usize),
                ColumnKind::Numeric => None,
            })
            .collect()
    }

    /// Encodes a table into a row-major `f32` buffer of width
    /// [`Self::encoded_width`].
    ///
    /// # Errors
    /// Returns [`TableError::CategoryOutOfRange`] when a categorical code is
    /// `>= cardinality` of the fitted schema. [`Table::new`] already rejects
    /// such codes, but a corrupted or hand-assembled table would otherwise
    /// set a one-hot bit inside a *neighboring* column's block — validate
    /// here rather than write out of range.
    ///
    /// # Panics
    /// Panics if the table's schema disagrees with the fitted schema.
    pub fn try_encode(&self, table: &Table) -> Result<Vec<f32>, TableError> {
        assert_eq!(table.schema(), &self.schema, "encode: schema mismatch");
        let width = self.encoded_width();
        let rows = table.n_rows();
        let mut out = vec![0.0f32; rows * width];
        let mut offset = 0;
        for (col_idx, col) in table.columns().iter().enumerate() {
            match col {
                Column::Numeric(values) => {
                    let codec = self.numeric_codecs[col_idx]
                        .as_ref()
                        .expect("numeric codec fitted for numeric column");
                    for (r, &v) in values.iter().enumerate() {
                        out[r * width + offset] = codec.encode(v) as f32;
                    }
                    offset += 1;
                }
                Column::Categorical(codes) => {
                    let card = self.schema.columns()[col_idx].kind.one_hot_width();
                    for (r, &code) in codes.iter().enumerate() {
                        if code as usize >= card {
                            return Err(TableError::CategoryOutOfRange {
                                column: col_idx,
                                code,
                                cardinality: card as u32,
                            });
                        }
                        out[r * width + offset + code as usize] = 1.0;
                    }
                    offset += card;
                }
            }
        }
        Ok(out)
    }

    /// Encodes a table into a row-major `f32` buffer of width
    /// [`Self::encoded_width`].
    ///
    /// # Panics
    /// Panics if the table's schema disagrees with the fitted schema, or if
    /// a categorical code is out of range (use [`Self::try_encode`] to
    /// surface that as [`TableError::CategoryOutOfRange`]).
    pub fn encode(&self, table: &Table) -> Vec<f32> {
        self.try_encode(table).unwrap_or_else(|e| panic!("TableEncoder::encode: {e}"))
    }

    /// Encodes a table into a reusable [`SparseBatch`]: scaled numeric slots
    /// stay dense, each categorical column contributes one absolute one-hot
    /// slot index. Numeric values are bitwise identical to the dense slots
    /// from [`Self::encode`].
    ///
    /// # Errors
    /// Returns [`TableError::CategoryOutOfRange`] exactly as
    /// [`Self::try_encode`] does.
    ///
    /// # Panics
    /// Panics if the table's schema disagrees with the fitted schema or the
    /// batch was shaped for a different schema.
    pub fn encode_sparse_into(
        &self,
        table: &Table,
        out: &mut SparseBatch,
    ) -> Result<(), TableError> {
        assert_eq!(table.schema(), &self.schema, "encode_sparse_into: schema mismatch");
        assert_eq!(
            (out.n_numeric(), out.n_categorical()),
            (self.schema.numeric_count(), self.schema.categorical_count()),
            "encode_sparse_into: batch shaped for a different schema"
        );
        let rows = table.n_rows();
        let n_num = out.n_numeric();
        let n_cat = out.n_categorical();
        out.reset(rows);
        let (numeric, indices) = out.buffers_mut();
        let mut offset = 0;
        let mut num_idx = 0;
        let mut cat_idx = 0;
        for (col_idx, col) in table.columns().iter().enumerate() {
            match col {
                Column::Numeric(values) => {
                    let codec = self.numeric_codecs[col_idx]
                        .as_ref()
                        .expect("numeric codec fitted for numeric column");
                    for (r, &v) in values.iter().enumerate() {
                        numeric[r * n_num + num_idx] = codec.encode(v) as f32;
                    }
                    num_idx += 1;
                    offset += 1;
                }
                Column::Categorical(codes) => {
                    let card = self.schema.columns()[col_idx].kind.one_hot_width();
                    for (r, &code) in codes.iter().enumerate() {
                        if code as usize >= card {
                            return Err(TableError::CategoryOutOfRange {
                                column: col_idx,
                                code,
                                cardinality: card as u32,
                            });
                        }
                        indices[r * n_cat + cat_idx] = (offset + code as usize) as u32;
                    }
                    cat_idx += 1;
                    offset += card;
                }
            }
        }
        Ok(())
    }

    /// A [`SparseBatch`] shaped for this encoder's schema, ready for
    /// [`Self::encode_sparse_into`] and reusable across steps.
    pub fn sparse_batch(&self) -> SparseBatch {
        SparseBatch::for_schema(&self.schema)
    }

    /// Scaled numeric features only, row-major `rows × numeric_count`, in
    /// schema order. Values are bitwise identical to the numeric slots of
    /// [`Self::encode`] — this is the numeric-head regression target without
    /// materialising the one-hot blocks.
    pub fn numeric_features(&self, table: &Table) -> Vec<f32> {
        assert_eq!(table.schema(), &self.schema, "numeric_features: schema mismatch");
        let rows = table.n_rows();
        let n_num = self.schema.numeric_count();
        let mut out = vec![0.0f32; rows * n_num];
        let mut num_idx = 0;
        for (col_idx, col) in table.columns().iter().enumerate() {
            if let Column::Numeric(values) = col {
                let codec = self.numeric_codecs[col_idx]
                    .as_ref()
                    .expect("numeric codec fitted for numeric column");
                for (r, &v) in values.iter().enumerate() {
                    out[r * n_num + num_idx] = codec.encode(v) as f32;
                }
                num_idx += 1;
            }
        }
        out
    }

    /// Category codes for each categorical column (schema order), flattened
    /// column-major, as targets for grouped cross-entropy losses.
    pub fn categorical_targets(&self, table: &Table) -> CategoricalTargets {
        let cat_cols: Vec<&[u32]> =
            table.columns().iter().filter_map(Column::as_categorical).collect();
        let rows = table.n_rows();
        let mut codes = Vec::with_capacity(rows * cat_cols.len());
        for col in &cat_cols {
            codes.extend_from_slice(col);
        }
        CategoricalTargets { rows, groups: cat_cols.len(), codes }
    }

    /// Where each schema column's slots start in an encoded row: the
    /// layout [`Self::encode`] writes and [`Self::decode`] reads.
    pub fn slot_offsets(&self) -> Vec<usize> {
        let mut offset = 0;
        self.schema
            .columns()
            .iter()
            .map(|meta| {
                let at = offset;
                offset += meta.kind.one_hot_width();
                at
            })
            .collect()
    }

    /// Decodes a row-major `f32` buffer back into a table. Numeric slots are
    /// unscaled; categorical blocks are decoded by argmax. This is the
    /// contiguous case of [`Self::column_decoder`]: the encoder's own slot
    /// layout, every row in one block.
    ///
    /// # Errors
    /// Returns an error if `data.len()` is not a multiple of the encoded
    /// width (propagated as [`TableError::RaggedColumns`]).
    pub fn decode(&self, data: &[f32]) -> Result<Table, TableError> {
        let width = self.encoded_width();
        let mut out = self.column_decoder(self.slot_offsets(), data.len() / width.max(1));
        out.push_rows(data, width)?;
        out.finish()
    }

    /// A decoder that reads schema column `c` at `offsets[c]` of every row
    /// of a strided `f32` matrix, one block of rows at a time, into output
    /// columns allocated once for `rows` rows. A numeric column reads one
    /// scaled value there, a categorical column `cardinality` scores.
    ///
    /// # Panics
    /// Panics if `offsets` does not hold one offset per schema column.
    pub fn column_decoder(&self, offsets: Vec<usize>, rows: usize) -> ColumnDecoder<'_> {
        assert_eq!(offsets.len(), self.schema.width(), "column_decoder: one offset per column");
        let span = self
            .schema
            .columns()
            .iter()
            .zip(&offsets)
            .map(|(meta, &at)| at + meta.kind.one_hot_width())
            .max()
            .unwrap_or(0);
        let columns = self
            .schema
            .columns()
            .iter()
            .map(|meta| match meta.kind {
                ColumnKind::Numeric => Column::Numeric(Vec::with_capacity(rows)),
                ColumnKind::Categorical { .. } => Column::Categorical(Vec::with_capacity(rows)),
            })
            .collect();
        ColumnDecoder { encoder: self, offsets, span, columns }
    }
}

/// Decodes rows of a strided `f32` matrix into a [`Table`], block by block:
/// numeric slots are unscaled, categorical blocks decoded by argmax. Each
/// row's values depend on that row alone, so any split into blocks yields
/// the same table. Built by [`TableEncoder::column_decoder`].
#[derive(Debug)]
pub struct ColumnDecoder<'a> {
    encoder: &'a TableEncoder,
    offsets: Vec<usize>,
    /// Row width the offsets need: the end of the last column's slots.
    span: usize,
    columns: Vec<Column>,
}

impl ColumnDecoder<'_> {
    /// Decodes every row of `block` (row-major, `ld` floats per row) and
    /// appends it to the output columns.
    ///
    /// # Errors
    /// [`TableError::RaggedColumns`] if `ld` is zero or narrower than the
    /// offsets need, or `block.len()` is not a multiple of `ld`.
    pub fn push_rows(&mut self, block: &[f32], ld: usize) -> Result<(), TableError> {
        if ld == 0 || ld < self.span || !block.len().is_multiple_of(ld) {
            return Err(TableError::RaggedColumns);
        }
        let rows = block.chunks_exact(ld);
        let encoder = self.encoder;
        let layout =
            encoder.schema.columns().iter().zip(&encoder.numeric_codecs).zip(&self.offsets);
        for (column, ((meta, codec), &at)) in self.columns.iter_mut().zip(layout) {
            match column {
                Column::Numeric(values) => {
                    let codec = codec.as_ref().expect("numeric codec fitted for numeric column");
                    values.extend(rows.clone().map(|row| codec.decode(f64::from(row[at]))));
                }
                Column::Categorical(codes) => {
                    let card = meta.kind.one_hot_width();
                    codes.extend(rows.clone().map(|row| argmax(&row[at..at + card]) as u32));
                }
            }
        }
        Ok(())
    }

    /// The decoded table.
    ///
    /// # Errors
    /// Whatever [`Table::new`] rejects; argmax codes always lie inside
    /// their column's cardinality.
    pub fn finish(self) -> Result<Table, TableError> {
        Table::new(self.encoder.schema.clone(), self.columns)
    }
}

/// Grouped cross-entropy targets: one category code per (row, categorical
/// column), flattened **column-major** into a single allocation —
/// `codes[g * rows + r]` is row `r`'s code for group `g`. Column-major means
/// each group's codes are contiguous, so building from a column-major
/// [`Table`] is a straight `extend_from_slice` per column and per-group
/// consumers walk a contiguous slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalTargets {
    rows: usize,
    groups: usize,
    codes: Vec<u32>,
}

impl CategoricalTargets {
    /// Rows in the batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of categorical groups (columns).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Row `r`'s code for group `g`.
    pub fn class(&self, r: usize, g: usize) -> u32 {
        self.codes[g * self.rows + r]
    }

    /// All codes for group `g`, contiguous, one per row.
    pub fn group(&self, g: usize) -> &[u32] {
        &self.codes[g * self.rows..(g + 1) * self.rows]
    }

    /// The flat column-major buffer (`groups × rows`).
    pub fn as_slice(&self) -> &[u32] {
        &self.codes
    }
}

/// Index of the maximum element (first on ties).
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnMeta;

    fn demo() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::numeric("x"),
            ColumnMeta::categorical("c", 3),
            ColumnMeta::numeric("y"),
        ]);
        Table::new(
            schema,
            vec![
                Column::Numeric(vec![1.0, 2.0, 3.0, 4.0]),
                Column::Categorical(vec![0, 2, 1, 2]),
                Column::Numeric(vec![-10.0, 0.0, 10.0, 20.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn nan_bearing_numeric_column_does_not_panic() {
        // Fitting on a column with NaN holes must not panic in the
        // quantile sort; NaNs are filtered as non-finite.
        let qt = QuantileTransformer::fit(&[1.0, f64::NAN, 3.0, 2.0, f64::NAN]);
        let z = qt.transform(2.0);
        assert!(z.is_finite());
        assert!((qt.inverse(z) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn encoded_width_matches_schema() {
        let t = demo();
        let enc = TableEncoder::fit(&t, ScalingKind::Standard);
        assert_eq!(enc.encoded_width(), 1 + 3 + 1);
        assert_eq!(enc.categorical_group_widths(), vec![3]);
    }

    #[test]
    fn one_hot_block_is_exact() {
        let t = demo();
        let enc = TableEncoder::fit(&t, ScalingKind::Standard);
        let data = enc.encode(&t);
        let width = enc.encoded_width();
        // Row 1 has category 2 -> slots [1..4] are [0,0,1].
        assert_eq!(&data[width + 1..width + 4], &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn standard_scaling_round_trips() {
        let t = demo();
        let enc = TableEncoder::fit(&t, ScalingKind::Standard);
        let decoded = enc.decode(&enc.encode(&t)).unwrap();
        for (a, b) in
            decoded.column(0).as_numeric().unwrap().iter().zip(t.column(0).as_numeric().unwrap())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert_eq!(decoded.column(1), t.column(1));
    }

    #[test]
    fn minmax_bounds_encoded_values() {
        let t = demo();
        let enc = TableEncoder::fit(&t, ScalingKind::MinMax);
        let data = enc.encode(&t);
        let width = enc.encoded_width();
        for r in 0..t.n_rows() {
            let v = data[r * width]; // column x
            assert!((-1.0..=1.0).contains(&v));
        }
        let decoded = enc.decode(&data).unwrap();
        for (a, b) in
            decoded.column(2).as_numeric().unwrap().iter().zip(t.column(2).as_numeric().unwrap())
        {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn quantile_transform_round_trips() {
        let values: Vec<f64> =
            (0..500).map(|i| (i as f64 * 0.37).sin() * 10.0 + i as f64).collect();
        let q = QuantileTransformer::fit(&values);
        for &v in values.iter().step_by(37) {
            let z = q.transform(v);
            let back = q.inverse(z);
            assert!((back - v).abs() < 1.5, "{v} -> {z} -> {back}");
        }
    }

    #[test]
    fn quantile_transform_gaussianises() {
        // Heavily skewed data should map to roughly standard normal scores.
        let values: Vec<f64> = (1..=1000).map(|i| (i as f64).powi(3)).collect();
        let q = QuantileTransformer::fit(&values);
        let scores: Vec<f64> = values.iter().map(|&v| q.transform(v)).collect();
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / scores.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn constant_column_does_not_blow_up() {
        let schema = Schema::new(vec![ColumnMeta::numeric("k")]);
        let t = Table::new(schema, vec![Column::Numeric(vec![5.0; 10])]).unwrap();
        for kind in [ScalingKind::Standard, ScalingKind::MinMax, ScalingKind::QuantileGaussian] {
            let enc = TableEncoder::fit(&t, kind);
            let data = enc.encode(&t);
            assert!(data.iter().all(|v| v.is_finite()), "{kind:?}");
            let back = enc.decode(&data).unwrap();
            let v = back.column(0).as_numeric().unwrap()[0];
            assert!((v - 5.0).abs() < 1.0, "{kind:?}: {v}");
        }
    }

    #[test]
    fn all_nan_column_is_a_typed_error() {
        let schema = Schema::new(vec![ColumnMeta::numeric("a"), ColumnMeta::numeric("b")]);
        let t = Table::new(
            schema,
            vec![
                Column::Numeric(vec![1.0, 2.0, 3.0]),
                Column::Numeric(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            ],
        )
        .unwrap();
        for kind in [ScalingKind::Standard, ScalingKind::MinMax, ScalingKind::QuantileGaussian] {
            let err = TableEncoder::try_fit(&t, kind).unwrap_err();
            assert_eq!(err, TableError::DegenerateColumn { column: 1 }, "{kind:?}");
        }
        assert!(QuantileTransformer::try_fit(&[f64::NAN, f64::NAN]).is_none());
    }

    #[test]
    fn empty_column_is_a_typed_error() {
        let schema = Schema::new(vec![ColumnMeta::numeric("x")]);
        let t = Table::empty(schema);
        for kind in [ScalingKind::Standard, ScalingKind::MinMax, ScalingKind::QuantileGaussian] {
            let err = TableEncoder::try_fit(&t, kind).unwrap_err();
            assert_eq!(err, TableError::DegenerateColumn { column: 0 }, "{kind:?}");
        }
        assert!(QuantileTransformer::try_fit(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "no finite values")]
    fn fit_panics_on_degenerate_column() {
        let schema = Schema::new(vec![ColumnMeta::numeric("x")]);
        let t = Table::new(schema, vec![Column::Numeric(vec![f64::NAN])]).unwrap();
        let _ = TableEncoder::fit(&t, ScalingKind::Standard);
    }

    #[test]
    fn single_value_column_round_trips_under_all_scalings() {
        // One finite value amid NaN holes still fits: the codec is fitted
        // on the finite subset and decodes back to that value.
        let schema = Schema::new(vec![ColumnMeta::numeric("x")]);
        let t =
            Table::new(schema, vec![Column::Numeric(vec![f64::NAN, 7.5, f64::INFINITY])]).unwrap();
        for kind in [ScalingKind::Standard, ScalingKind::MinMax, ScalingKind::QuantileGaussian] {
            let enc = TableEncoder::try_fit(&t, kind).unwrap();
            let clean =
                Table::new(t.schema().clone(), vec![Column::Numeric(vec![7.5, 7.5, 7.5])]).unwrap();
            let data = enc.encode(&clean);
            assert!(data.iter().all(|v| v.is_finite()), "{kind:?}");
            let back = enc.decode(&data).unwrap();
            for &v in back.column(0).as_numeric().unwrap() {
                assert!((v - 7.5).abs() < 1.0, "{kind:?}: {v}");
            }
        }
    }

    #[test]
    fn decode_rejects_ragged_buffer() {
        let t = demo();
        let enc = TableEncoder::fit(&t, ScalingKind::Standard);
        assert!(enc.decode(&[0.0; 7]).is_err());
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    #[test]
    fn out_of_range_code_is_a_typed_encode_error() {
        let t = demo();
        let enc = TableEncoder::fit(&t, ScalingKind::Standard);
        // Simulate a corrupted table: column "c" has cardinality 3 but a
        // row carries code 7. Table::new would reject this, so build it
        // unchecked — encode must catch it instead of flipping a bit in
        // column "y"'s block (or past the buffer end).
        let bad = Table::new_unchecked(
            t.schema().clone(),
            vec![
                Column::Numeric(vec![1.0, 2.0]),
                Column::Categorical(vec![0, 7]),
                Column::Numeric(vec![0.0, 0.0]),
            ],
        );
        let expected = TableError::CategoryOutOfRange { column: 1, code: 7, cardinality: 3 };
        assert_eq!(enc.try_encode(&bad).unwrap_err(), expected);
        let mut batch = enc.sparse_batch();
        assert_eq!(enc.encode_sparse_into(&bad, &mut batch).unwrap_err(), expected);
    }

    #[test]
    #[should_panic(expected = "outside fitted cardinality")]
    fn encode_panics_on_out_of_range_code() {
        let t = demo();
        let enc = TableEncoder::fit(&t, ScalingKind::Standard);
        let bad = Table::new_unchecked(
            t.schema().clone(),
            vec![
                Column::Numeric(vec![1.0]),
                Column::Categorical(vec![3]),
                Column::Numeric(vec![0.0]),
            ],
        );
        let _ = enc.encode(&bad);
    }

    #[test]
    fn categorical_targets_are_column_major() {
        let t = demo(); // one categorical column: codes [0, 2, 1, 2]
        let enc = TableEncoder::fit(&t, ScalingKind::Standard);
        let targets = enc.categorical_targets(&t);
        assert_eq!(targets.rows(), 4);
        assert_eq!(targets.groups(), 1);
        assert_eq!(targets.as_slice(), &[0, 2, 1, 2]);
        assert_eq!(targets.group(0), &[0, 2, 1, 2]);
        assert_eq!(targets.class(1, 0), 2);

        // Two categorical columns: each group contiguous.
        let schema = Schema::new(vec![
            ColumnMeta::categorical("a", 3),
            ColumnMeta::numeric("x"),
            ColumnMeta::categorical("b", 4),
        ]);
        let t2 = Table::new(
            schema,
            vec![
                Column::Categorical(vec![1, 0]),
                Column::Numeric(vec![0.5, 1.5]),
                Column::Categorical(vec![3, 2]),
            ],
        )
        .unwrap();
        let enc2 = TableEncoder::fit(&t2, ScalingKind::Standard);
        let targets2 = enc2.categorical_targets(&t2);
        assert_eq!(targets2.as_slice(), &[1, 0, 3, 2]);
        assert_eq!(targets2.class(0, 1), 3);
        assert_eq!(targets2.class(1, 1), 2);
    }

    #[test]
    fn sparse_encoding_matches_dense_bitwise() {
        let t = demo();
        for kind in [ScalingKind::Standard, ScalingKind::MinMax, ScalingKind::QuantileGaussian] {
            let enc = TableEncoder::fit(&t, kind);
            let dense = enc.encode(&t);
            let width = enc.encoded_width();
            let mut batch = enc.sparse_batch();
            enc.encode_sparse_into(&t, &mut batch).unwrap();
            assert_eq!(batch.rows(), t.n_rows());
            assert_eq!(batch.n_numeric(), 2);
            assert_eq!(batch.n_categorical(), 1);
            let numeric = enc.numeric_features(&t);
            assert_eq!(batch.numeric(), &numeric[..], "{kind:?}");
            for r in 0..t.n_rows() {
                // Numeric slots bitwise identical to the dense encoding
                // (schema layout: x at slot 0, c block at 1..4, y at 4).
                assert_eq!(
                    batch.numeric()[r * 2].to_bits(),
                    dense[r * width].to_bits(),
                    "{kind:?} row {r} slot x"
                );
                assert_eq!(
                    batch.numeric()[r * 2 + 1].to_bits(),
                    dense[r * width + 4].to_bits(),
                    "{kind:?} row {r} slot y"
                );
                // The index is the absolute one-hot slot carrying the 1.0.
                let slot = batch.indices()[r] as usize;
                assert!((1..4).contains(&slot), "{kind:?} row {r} slot {slot}");
                assert_eq!(dense[r * width + slot], 1.0, "{kind:?} row {r}");
            }
        }
    }

    #[test]
    fn sparse_batch_reuse_across_batches() {
        let t = demo();
        let enc = TableEncoder::fit(&t, ScalingKind::Standard);
        let mut batch = enc.sparse_batch();
        batch.reserve_rows(t.n_rows());
        enc.encode_sparse_into(&t, &mut batch).unwrap();
        let first: Vec<u32> = batch.indices().to_vec();
        // Re-encode a smaller batch into the same buffers.
        let small = t.select_rows(&[2]);
        enc.encode_sparse_into(&small, &mut batch).unwrap();
        assert_eq!(batch.rows(), 1);
        assert_eq!(batch.indices(), &first[2..3]);
        // And the full batch again: identical to the first pass.
        enc.encode_sparse_into(&t, &mut batch).unwrap();
        assert_eq!(batch.indices(), &first[..]);
    }
}
