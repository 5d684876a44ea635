//! Output checks: every synthetic table the benchmark receives must have
//! the requested row count and the training table's schema, with finite
//! numerics and categorical codes inside the training cardinalities.

use silofuse_core::tabular::{Column, ColumnKind, Schema, Table};
use std::fmt;

/// Why a synthetic table failed its check.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The table holds a different number of rows than requested.
    RowCount { expected: usize, got: usize },
    /// Column count, a column's kind, or the schema metadata differs.
    Schema(String),
    /// A numeric cell is NaN or infinite.
    NonFinite { column: usize, row: usize },
    /// A categorical code is at or beyond the training cardinality.
    CodeOutOfRange { column: usize, row: usize, code: u32, cardinality: u32 },
    /// Two outputs that must be byte-identical are not.
    Mismatch(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::RowCount { expected, got } => {
                write!(f, "expected {expected} rows, got {got}")
            }
            CheckError::Schema(msg) => write!(f, "schema mismatch: {msg}"),
            CheckError::NonFinite { column, row } => {
                write!(f, "non-finite value at column {column}, row {row}")
            }
            CheckError::CodeOutOfRange { column, row, code, cardinality } => write!(
                f,
                "code {code} at column {column}, row {row} is outside cardinality {cardinality}"
            ),
            CheckError::Mismatch(msg) => write!(f, "{msg}"),
        }
    }
}

/// Checks `table` against the training `schema` and the requested row
/// count. Cell-level checks run against `schema` itself, not the table's
/// own schema, so a table that relabels a column's cardinality is still
/// caught by its codes.
pub fn check_table(table: &Table, schema: &Schema, rows: usize) -> Result<(), CheckError> {
    if table.n_rows() != rows {
        return Err(CheckError::RowCount { expected: rows, got: table.n_rows() });
    }
    if table.n_cols() != schema.width() {
        return Err(CheckError::Schema(format!(
            "{} columns, training schema has {}",
            table.n_cols(),
            schema.width()
        )));
    }
    for (c, (column, meta)) in table.columns().iter().zip(schema.columns()).enumerate() {
        match (column, meta.kind) {
            (Column::Numeric(values), ColumnKind::Numeric) => {
                if let Some(row) = values.iter().position(|v| !v.is_finite()) {
                    return Err(CheckError::NonFinite { column: c, row });
                }
            }
            (Column::Categorical(codes), ColumnKind::Categorical { cardinality }) => {
                if let Some(row) = codes.iter().position(|&code| code >= cardinality) {
                    return Err(CheckError::CodeOutOfRange {
                        column: c,
                        row,
                        code: codes[row],
                        cardinality,
                    });
                }
            }
            _ => return Err(CheckError::Schema(format!("column {c} has the wrong kind"))),
        }
    }
    if table.schema() != schema {
        return Err(CheckError::Schema("column names or cardinalities differ".into()));
    }
    Ok(())
}

/// Canonical bytes of a table's cells, column by column: f64 bit
/// patterns for numerics and u32 codes, little-endian. Two tables with
/// equal bytes and equal schemas are byte-for-byte the same output.
pub fn table_bytes(table: &Table) -> Vec<u8> {
    let mut out = Vec::with_capacity(table.n_rows() * table.n_cols() * 8);
    for column in table.columns() {
        match column {
            Column::Numeric(values) => {
                for v in values {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Column::Categorical(codes) => {
                for code in codes {
                    out.extend_from_slice(&code.to_le_bytes());
                }
            }
        }
    }
    out
}

/// `table` as the serve wire carries it: the row grid holds f32, so each
/// numeric cell is rounded to the nearest f32; codes travel exactly.
pub fn wire_rounded(table: &Table) -> Table {
    let columns = table
        .columns()
        .iter()
        .map(|column| match column {
            Column::Numeric(values) => {
                Column::Numeric(values.iter().map(|&v| f64::from(v as f32)).collect())
            }
            Column::Categorical(codes) => Column::Categorical(codes.clone()),
        })
        .collect();
    Table::new(table.schema().clone(), columns).expect("same schema, same codes")
}

/// FNV-1a fingerprint over the canonical bytes of `tables`, in order.
/// Runs at the same seed must print the same fingerprint.
pub fn fingerprint<'a>(tables: impl IntoIterator<Item = &'a Table>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for table in tables {
        for b in table_bytes(table) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Tally of the operations a workload attempted and the ones that failed
/// (errors, rejections, and failed output checks).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks and errors that left no output to check;
    /// rejections are failures but do not make the output wrong.
    pub wrong: u64,
    pub messages: Vec<String>,
}

impl Ledger {
    /// Records one operation that produced output or an error.
    pub fn op<T, E: fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.wrong += 1;
                self.messages.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records one output check.
    pub fn check(&mut self, what: &str, result: Result<(), CheckError>) {
        self.op(what, result);
    }

    /// Records one rejected attempt: a failure that produced no output.
    pub fn rejected(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.messages.push(format!("{what}: rejected"));
    }

    /// Share of attempted operations that failed.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.fail_share()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_core::tabular::ColumnMeta;

    fn schema(cardinality: u32) -> Schema {
        Schema::new(vec![ColumnMeta::numeric("x"), ColumnMeta::categorical("k", cardinality)])
    }

    fn table(cardinality: u32, xs: Vec<f64>, codes: Vec<u32>) -> Table {
        Table::new(schema(cardinality), vec![Column::Numeric(xs), Column::Categorical(codes)])
            .expect("valid test table")
    }

    #[test]
    fn a_valid_table_passes() {
        let t = table(3, vec![0.5, -1.0], vec![0, 2]);
        assert_eq!(check_table(&t, &schema(3), 2), Ok(()));
    }

    #[test]
    fn a_wrong_row_count_is_rejected() {
        let t = table(3, vec![0.5, -1.0], vec![0, 2]);
        assert_eq!(
            check_table(&t, &schema(3), 3),
            Err(CheckError::RowCount { expected: 3, got: 2 })
        );
    }

    #[test]
    fn a_nan_is_rejected() {
        let t = table(3, vec![0.5, f64::NAN], vec![0, 2]);
        assert_eq!(
            check_table(&t, &schema(3), 2),
            Err(CheckError::NonFinite { column: 0, row: 1 })
        );
        let t = table(3, vec![f64::INFINITY, 0.0], vec![0, 2]);
        assert_eq!(
            check_table(&t, &schema(3), 2),
            Err(CheckError::NonFinite { column: 0, row: 0 })
        );
    }

    #[test]
    fn an_out_of_range_code_is_rejected() {
        // The table's own schema admits code 7; the training schema does not.
        let t = table(10, vec![0.5, 1.0], vec![1, 7]);
        assert_eq!(
            check_table(&t, &schema(4), 2),
            Err(CheckError::CodeOutOfRange { column: 1, row: 1, code: 7, cardinality: 4 })
        );
    }

    #[test]
    fn a_different_schema_is_rejected() {
        let t = table(5, vec![0.5], vec![1]);
        assert!(matches!(check_table(&t, &schema(4), 1), Err(CheckError::Schema(_))));
        let narrow = Table::new(
            Schema::new(vec![ColumnMeta::numeric("x")]),
            vec![Column::Numeric(vec![0.0])],
        )
        .unwrap();
        assert!(matches!(check_table(&narrow, &schema(4), 1), Err(CheckError::Schema(_))));
    }

    #[test]
    fn fingerprints_follow_bytes() {
        let a = table(3, vec![0.5, -1.0], vec![0, 2]);
        let b = table(3, vec![0.5, -1.0], vec![0, 2]);
        let c = table(3, vec![0.5, -1.0], vec![0, 1]);
        assert_eq!(fingerprint([&a]), fingerprint([&b]));
        assert_ne!(fingerprint([&a]), fingerprint([&c]));
        assert_eq!(table_bytes(&a), table_bytes(&b));
    }

    #[test]
    fn wire_rounding_keeps_codes_and_rounds_numerics_to_f32() {
        let t = table(3, vec![0.1, 2.5], vec![0, 2]);
        let w = wire_rounded(&t);
        assert_eq!(w.column(1), t.column(1));
        assert_eq!(w.column(0), &Column::Numeric(vec![f64::from(0.1f32), 2.5]));
        assert_ne!(table_bytes(&w), table_bytes(&t), "0.1 is not an f32");
        assert_eq!(table_bytes(&wire_rounded(&w)), table_bytes(&w));
    }

    #[test]
    fn the_ledger_counts_failures_against_attempts() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.op("fit", Ok::<_, String>(1)), Some(1));
        ledger.check("rows", Err(CheckError::RowCount { expected: 2, got: 1 }));
        ledger.rejected("fetch");
        ledger.check("rows", Ok(()));
        assert_eq!((ledger.attempted, ledger.failed, ledger.wrong), (4, 2, 1));
        assert_eq!(ledger.fail_share(), 0.5);
        assert_eq!(ledger.ok_share(), 0.5);
    }
}
