//! CSV import/export for [`Table`], with schema inference.
//!
//! A downstream user's data arrives as CSV; this module turns it into a
//! validated [`Table`] (inferring numeric vs categorical columns and
//! building category vocabularies) and writes synthetic tables back out.
//! The parser handles quoted fields, embedded commas, and doubled quotes;
//! it is deliberately strict about ragged rows.

use crate::schema::{ColumnKind, ColumnMeta, Schema};
use crate::table::{Column, Table};
use std::collections::{HashMap, HashSet};

/// Errors raised while reading CSV data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input had no header line.
    Empty,
    /// A data row had a different field count than the header.
    RaggedRow {
        /// 1-based data row number.
        row: usize,
        /// Fields found.
        got: usize,
        /// Fields expected.
        expected: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based line number.
        line: usize,
    },
    /// A column exceeded `u32::MAX` distinct categories.
    TooManyCategories {
        /// Column name.
        column: String,
    },
    /// The header names a column the schema being read against lacks.
    UnknownColumn {
        /// Column name.
        column: String,
    },
    /// The header lacks a column of the schema being read against.
    MissingColumn {
        /// Column name.
        column: String,
    },
    /// A field the schema being read against has no value for: a label
    /// outside a categorical column's vocabulary, or a non-number in a
    /// numeric column.
    UnknownLabel {
        /// Column name.
        column: String,
        /// The field as written.
        label: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Empty => write!(f, "CSV input is empty"),
            CsvError::RaggedRow { row, got, expected } => {
                write!(f, "row {row} has {got} fields, expected {expected}")
            }
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quote starting at line {line}")
            }
            CsvError::TooManyCategories { column } => {
                write!(f, "column {column} has more than u32::MAX categories")
            }
            CsvError::UnknownColumn { column } => write!(f, "unknown column {column}"),
            CsvError::MissingColumn { column } => write!(f, "missing column {column}"),
            CsvError::UnknownLabel { column, label } => {
                write!(f, "column {column} has no value `{label}`")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// A table read from CSV plus the per-column category vocabularies needed to
/// map codes back to the original string labels.
#[derive(Debug, Clone)]
pub struct CsvTable {
    /// The parsed, validated table.
    pub table: Table,
    /// `vocab[i]` is `Some(labels)` for categorical column `i` (code `c`
    /// corresponds to `labels[c]`), `None` for numeric columns.
    pub vocabularies: Vec<Option<Vec<String>>>,
}

/// Parses CSV text (first line = header) into a table. A column is numeric
/// when *every* non-empty field parses as `f64`; otherwise it is
/// categorical with labels ordered by first appearance. Empty numeric
/// fields become `NaN`-free column means; empty categorical fields become
/// their own category `""`.
pub fn read_csv(text: &str) -> Result<CsvTable, CsvError> {
    let (header, data) = parse_table(text)?;
    let mut metas = Vec::with_capacity(header.len());
    let mut vocabularies = Vec::with_capacity(header.len());
    for (c, name) in header.iter().enumerate() {
        let fields: Vec<&str> = data.iter().map(|r| r[c].as_str()).collect();
        if fields.iter().any(|f| !f.is_empty()) && numeric_values(&fields).is_ok() {
            metas.push(ColumnMeta::numeric(name.clone()));
            vocabularies.push(None);
        } else {
            let mut seen = HashSet::new();
            let vocab: Vec<String> =
                fields.into_iter().filter(|f| seen.insert(*f)).map(String::from).collect();
            let cardinality = u32::try_from(vocab.len())
                .map_err(|_| CsvError::TooManyCategories { column: name.clone() })?;
            metas.push(ColumnMeta::categorical(name.clone(), cardinality.max(1)));
            vocabularies.push(Some(vocab));
        }
    }
    let columns: Vec<usize> = (0..header.len()).collect();
    code_table(&data, &columns, Schema::new(metas), vocabularies)
}

/// Parses CSV text against the schema and vocabularies of `like`, a table
/// read earlier (the real data a synthetic file is scored against), so
/// both tables code every category the same way. Columns are matched by
/// header name and come out in `like`'s order with `like`'s kinds. A
/// categorical field gets its label's code in `like`'s vocabulary,
/// whatever order labels first appear in here; a category this text never
/// uses keeps its code and simply has no rows.
///
/// # Errors
/// Those of [`read_csv`], plus [`CsvError::UnknownColumn`] for a header
/// name `like` lacks, [`CsvError::MissingColumn`] for a column of `like`
/// the header lacks, and [`CsvError::UnknownLabel`] for a field `like`'s
/// column has no value for.
pub fn read_csv_as(text: &str, like: &CsvTable) -> Result<CsvTable, CsvError> {
    let (header, data) = parse_table(text)?;
    let schema = like.table.schema();
    if let Some(name) = header.iter().find(|name| schema.index_of(name).is_none()) {
        return Err(CsvError::UnknownColumn { column: name.clone() });
    }
    let columns = schema
        .columns()
        .iter()
        .map(|meta| {
            let position = header.iter().position(|name| *name == meta.name);
            position.ok_or_else(|| CsvError::MissingColumn { column: meta.name.clone() })
        })
        .collect::<Result<Vec<usize>, _>>()?;
    code_table(&data, &columns, schema.clone(), like.vocabularies.clone())
}

/// Codes `data` as a table with `schema`: schema column `i` reads field
/// `columns[i]` of every row, as a number when numeric and as its label's
/// index in `vocabularies[i]` when categorical.
fn code_table(
    data: &[Vec<String>],
    columns: &[usize],
    schema: Schema,
    vocabularies: Vec<Option<Vec<String>>>,
) -> Result<CsvTable, CsvError> {
    let mut coded = Vec::with_capacity(columns.len());
    for ((meta, vocab), &c) in schema.columns().iter().zip(&vocabularies).zip(columns) {
        let fields: Vec<&str> = data.iter().map(|r| r[c].as_str()).collect();
        let unknown =
            |label: &str| CsvError::UnknownLabel { column: meta.name.clone(), label: label.into() };
        coded.push(match meta.kind {
            ColumnKind::Numeric => Column::Numeric(numeric_values(&fields).map_err(unknown)?),
            ColumnKind::Categorical { cardinality } => {
                // Labels past the cardinality have no valid code.
                let index: HashMap<&str, u32> = vocab
                    .iter()
                    .flatten()
                    .zip(0..cardinality)
                    .map(|(label, code)| (label.as_str(), code))
                    .collect();
                let codes = fields.iter().map(|f| index.get(f).copied().ok_or_else(|| unknown(f)));
                Column::Categorical(codes.collect::<Result<_, _>>()?)
            }
        });
    }
    let table = Table::new(schema, coded).expect("coded columns follow the schema");
    Ok(CsvTable { table, vocabularies })
}

/// Splits CSV text into its header and data rows, rejecting ragged rows.
fn parse_table(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>), CsvError> {
    let mut rows = parse_rows(text)?.into_iter();
    let header = rows.next().ok_or(CsvError::Empty)?;
    let data: Vec<Vec<String>> = rows.collect();
    for (i, row) in data.iter().enumerate() {
        if row.len() != header.len() {
            return Err(CsvError::RaggedRow { row: i + 1, got: row.len(), expected: header.len() });
        }
    }
    Ok((header, data))
}

/// A numeric column's values, empty fields imputed with the mean of the
/// rest, or the first non-empty field that is not a number.
fn numeric_values<'a>(fields: &[&'a str]) -> Result<Vec<f64>, &'a str> {
    let parsed = fields
        .iter()
        .map(|f| if f.is_empty() { Ok(None) } else { f.trim().parse().map(Some).map_err(|_| *f) })
        .collect::<Result<Vec<Option<f64>>, _>>()?;
    let present: Vec<f64> = parsed.iter().filter_map(|v| *v).collect();
    let mean = present.iter().sum::<f64>() / present.len().max(1) as f64;
    Ok(parsed.into_iter().map(|v| v.unwrap_or(mean)).collect())
}

/// Serialises a table to CSV. Categorical codes are written through
/// `vocabularies` when provided (e.g. from [`read_csv`]); otherwise the raw
/// codes are written.
pub fn write_csv(table: &Table, vocabularies: Option<&[Option<Vec<String>>]>) -> String {
    let mut out = String::new();
    let header: Vec<String> = table.schema().columns().iter().map(|c| escape(&c.name)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for r in 0..table.n_rows() {
        let mut fields = Vec::with_capacity(table.n_cols());
        for (i, col) in table.columns().iter().enumerate() {
            let field = match col {
                Column::Numeric(v) => format_float(v[r]),
                Column::Categorical(codes) => {
                    let code = codes[r];
                    match vocabularies.and_then(|v| v[i].as_ref()) {
                        Some(vocab) if (code as usize) < vocab.len() => {
                            escape(&vocab[code as usize])
                        }
                        _ => code.to_string(),
                    }
                }
            };
            fields.push(field);
        }
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn format_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Splits CSV text into rows of fields, honouring quotes.
fn parse_rows(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut rows = Vec::new();
    let mut field = String::new();
    let mut row: Vec<String> = Vec::new();
    let mut in_quotes = false;
    let mut quote_line = 0usize;
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    while let Some(ch) = chars.next() {
        match ch {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if field.is_empty() => {
                in_quotes = true;
                quote_line = line;
            }
            ',' if !in_quotes => {
                row.push(std::mem::take(&mut field));
            }
            '\r' if !in_quotes => {} // tolerate CRLF
            '\n' if !in_quotes => {
                line += 1;
                row.push(std::mem::take(&mut field));
                if !(row.len() == 1 && row[0].is_empty()) {
                    rows.push(std::mem::take(&mut row));
                } else {
                    row.clear();
                }
            }
            '\n' => {
                line += 1;
                field.push('\n');
            }
            other => field.push(other),
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line: quote_line });
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnKind;

    const SAMPLE: &str = "age,city,income\n34,Delft,51000\n28,The Hague,43000\n45,Delft,87000\n";

    #[test]
    fn infers_mixed_schema() {
        let csv = read_csv(SAMPLE).unwrap();
        let s = csv.table.schema();
        assert_eq!(s.columns()[0].kind, ColumnKind::Numeric);
        assert_eq!(s.columns()[1].kind, ColumnKind::Categorical { cardinality: 2 });
        assert_eq!(s.columns()[2].kind, ColumnKind::Numeric);
        assert_eq!(csv.table.n_rows(), 3);
    }

    #[test]
    fn vocabulary_orders_by_first_appearance() {
        let csv = read_csv(SAMPLE).unwrap();
        let vocab = csv.vocabularies[1].as_ref().unwrap();
        assert_eq!(vocab, &vec!["Delft".to_string(), "The Hague".to_string()]);
        assert_eq!(csv.table.column(1).as_categorical().unwrap(), &[0, 1, 0]);
    }

    #[test]
    fn round_trips_through_write() {
        let csv = read_csv(SAMPLE).unwrap();
        let written = write_csv(&csv.table, Some(&csv.vocabularies));
        let reread = read_csv(&written).unwrap();
        assert_eq!(reread.table, csv.table);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let text = "name,score\n\"Doe, Jane\",10\n\"He said \"\"hi\"\"\",20\n";
        let csv = read_csv(text).unwrap();
        let vocab = csv.vocabularies[0].as_ref().unwrap();
        assert_eq!(vocab[0], "Doe, Jane");
        assert_eq!(vocab[1], "He said \"hi\"");
        // And escaping survives a round trip.
        let rt = read_csv(&write_csv(&csv.table, Some(&csv.vocabularies))).unwrap();
        assert_eq!(rt.vocabularies[0].as_ref().unwrap()[0], "Doe, Jane");
    }

    #[test]
    fn missing_numeric_values_are_imputed_with_mean() {
        // (Fully blank lines are skipped; a missing value needs a delimiter.)
        let text = "x,y\n1,a\n,b\n3,c\n";
        let csv = read_csv(text).unwrap();
        let v = csv.table.column(0).as_numeric().unwrap();
        assert_eq!(v, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let text = "a,b\n1,2\n3\n";
        assert!(matches!(read_csv(text), Err(CsvError::RaggedRow { row: 2, .. })));
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        let text = "a\n\"oops\n";
        assert!(matches!(read_csv(text), Err(CsvError::UnterminatedQuote { .. })));
    }

    #[test]
    fn empty_input_is_rejected() {
        assert_eq!(read_csv("").unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn crlf_line_endings_are_tolerated() {
        let text = "a,b\r\n1,x\r\n2,y\r\n";
        let csv = read_csv(text).unwrap();
        assert_eq!(csv.table.n_rows(), 2);
        assert_eq!(csv.vocabularies[1].as_ref().unwrap(), &vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn reading_against_a_table_codes_labels_by_its_vocabulary() {
        let real = read_csv(SAMPLE).unwrap();
        // Labels first appear in the other order, and the columns are
        // permuted: codes still follow the real vocabulary and the real
        // column order.
        let synth = read_csv_as(
            "city,income,age
The Hague,1,2
Delft,3,4
",
            &real,
        )
        .unwrap();
        assert_eq!(synth.table.schema(), real.table.schema());
        assert_eq!(synth.table.column(1).as_categorical().unwrap(), &[1, 0]);
        assert_eq!(synth.table.column(0).as_numeric().unwrap(), &[2.0, 4.0]);
        assert_eq!(synth.vocabularies, real.vocabularies);
    }

    #[test]
    fn a_category_the_text_lacks_keeps_its_code() {
        let real = read_csv(SAMPLE).unwrap();
        let synth = read_csv_as(
            "age,city,income
1,The Hague,2
3,The Hague,4
",
            &real,
        )
        .unwrap();
        // Read alone, the column would have one category, coded 0.
        assert_eq!(
            synth.table.schema().columns()[1].kind,
            ColumnKind::Categorical { cardinality: 2 }
        );
        assert_eq!(synth.table.column(1).as_categorical().unwrap(), &[1, 1]);
    }

    #[test]
    fn unknown_labels_and_columns_are_typed_errors() {
        let real = read_csv(SAMPLE).unwrap();
        assert_eq!(
            read_csv_as(
                "age,city,income
1,Leiden,2
",
                &real
            )
            .unwrap_err(),
            CsvError::UnknownLabel { column: "city".into(), label: "Leiden".into() }
        );
        assert_eq!(
            read_csv_as(
                "age,city,income
old,Delft,2
",
                &real
            )
            .unwrap_err(),
            CsvError::UnknownLabel { column: "age".into(), label: "old".into() }
        );
        assert_eq!(
            read_csv_as(
                "age,town,income
1,Delft,2
",
                &real
            )
            .unwrap_err(),
            CsvError::UnknownColumn { column: "town".into() }
        );
        assert_eq!(
            read_csv_as(
                "age,income
1,2
",
                &real
            )
            .unwrap_err(),
            CsvError::MissingColumn { column: "city".into() }
        );
    }

    #[test]
    fn integer_like_floats_print_without_decimals() {
        let csv = read_csv("v\n1\n2.5\n").unwrap();
        let out = write_csv(&csv.table, None);
        assert!(out.contains("\n1\n"));
        assert!(out.contains("2.5"));
    }
}
