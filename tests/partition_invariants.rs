//! Property-based invariants of the data layer: vertical partitioning,
//! feature encodings, the copula generator, and the wire codec.

use proptest::prelude::*;
use silofuse_core::distributed::message::{ChunkColumn, CodecError};
use silofuse_core::distributed::Message;
use silofuse_core::tabular::encode::{ScalingKind, TableEncoder};
use silofuse_core::tabular::partition::{PartitionPlan, PartitionStrategy};
use silofuse_core::tabular::schema::{ColumnMeta, Schema};
use silofuse_core::tabular::table::{Column, Table};

/// Strategy: a small random mixed-type table.
fn arb_table() -> impl Strategy<Value = Table> {
    (2usize..40, 1usize..10, 0u64..1000).prop_flat_map(|(rows, cols, seed)| {
        let col_kinds = proptest::collection::vec(0u8..2, cols);
        (Just(rows), col_kinds, Just(seed)).prop_map(|(rows, kinds, seed)| {
            let mut metas = Vec::new();
            let mut columns = Vec::new();
            for (i, kind) in kinds.iter().enumerate() {
                if *kind == 0 {
                    metas.push(ColumnMeta::numeric(format!("n{i}")));
                    columns.push(Column::Numeric(
                        (0..rows)
                            .map(|r| ((r as f64 + seed as f64) * 0.37 + i as f64).sin() * 10.0)
                            .collect(),
                    ));
                } else {
                    let card = 2 + (i as u32 % 5);
                    metas.push(ColumnMeta::categorical(format!("c{i}"), card));
                    columns.push(Column::Categorical(
                        (0..rows).map(|r| ((r + i + seed as usize) as u32) % card).collect(),
                    ));
                }
            }
            Table::new(Schema::new(metas), columns).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// split → reassemble is the identity for any table, client count, and
    /// partition strategy.
    #[test]
    fn partition_round_trip(table in arb_table(), clients in 1usize..6, seed in 0u64..100,
                            permuted in any::<bool>()) {
        prop_assume!(clients <= table.n_cols());
        let strategy = if permuted {
            PartitionStrategy::Permuted { seed }
        } else {
            PartitionStrategy::Default
        };
        let plan = PartitionPlan::new(table.n_cols(), clients, strategy);
        let parts = plan.split(&table);
        // Every column appears exactly once across partitions.
        let total: usize = parts.iter().map(Table::n_cols).sum();
        prop_assert_eq!(total, table.n_cols());
        let back = plan.reassemble(&parts.iter().collect::<Vec<_>>());
        prop_assert_eq!(back, table);
    }

    /// Encode → decode round-trips categoricals exactly and numerics within
    /// tolerance, for every scaling kind.
    #[test]
    fn encoder_round_trip(table in arb_table(), kind in 0u8..3) {
        let scaling = match kind {
            0 => ScalingKind::Standard,
            1 => ScalingKind::MinMax,
            _ => ScalingKind::QuantileGaussian,
        };
        let enc = TableEncoder::fit(&table, scaling);
        let data = enc.encode(&table);
        prop_assert_eq!(data.len(), table.n_rows() * enc.encoded_width());
        prop_assert!(data.iter().all(|v| v.is_finite()));
        let back = enc.decode(&data).unwrap();
        for (orig, rec) in table.columns().iter().zip(back.columns()) {
            match (orig, rec) {
                (Column::Categorical(a), Column::Categorical(b)) => prop_assert_eq!(a, b),
                (Column::Numeric(a), Column::Numeric(b)) => {
                    let range = a.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                        - a.iter().cloned().fold(f64::INFINITY, f64::min);
                    // The quantile transform interpolates the empirical CDF,
                    // so its inverse error shrinks with sample size; allow a
                    // 1/n term on top of the 5% band.
                    let tol = range.max(1.0) * (0.05 + 2.0 / a.len() as f64) + 1e-6;
                    for (x, y) in a.iter().zip(b) {
                        prop_assert!((x - y).abs() <= tol,
                            "numeric round trip {x} -> {y} (tol {tol})");
                    }
                }
                _ => prop_assert!(false, "kind flip"),
            }
        }
    }

    /// One-hot width equals the sum of per-column one-hot widths, always.
    #[test]
    fn one_hot_width_is_additive(table in arb_table()) {
        let total: usize = table
            .schema()
            .columns()
            .iter()
            .map(|c| c.kind.one_hot_width())
            .sum();
        prop_assert_eq!(table.schema().one_hot_width(), total);
    }

    /// The wire codec is lossless and its size report is exact.
    #[test]
    fn codec_round_trip(client in 0u32..16, rows in 1u32..32, cols in 1u32..16,
                        fill in -100.0f32..100.0) {
        let data = vec![fill; (rows * cols) as usize];
        let msg = Message::LatentUpload { client, rows, cols, data };
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), msg.wire_size());
        prop_assert_eq!(Message::decode(encoded).unwrap(), msg);
    }

    /// A typed serve chunk of any width mix is lossless, costs exactly
    /// `25 + cols + rows·Σwidth` bytes, and every cut of it is refused as
    /// truncated.
    #[test]
    fn typed_chunk_codec_round_trip(rows in 0u32..24, kinds in proptest::collection::vec(0u8..4, 1..12),
                                    first_row in any::<u64>(), seed in any::<u32>()) {
        let cell = |r: u32, c: usize| seed.wrapping_add(r.wrapping_mul(2_654_435_761)) ^ c as u32;
        let columns: Vec<ChunkColumn> = kinds
            .iter()
            .enumerate()
            .map(|(c, kind)| match kind {
                0 => ChunkColumn::F32((0..rows).map(|r| f32::from_bits(cell(r, c) & 0x7f7f_ffff)).collect()),
                1 => ChunkColumn::U8((0..rows).map(|r| cell(r, c) as u8).collect()),
                2 => ChunkColumn::U16((0..rows).map(|r| cell(r, c) as u16).collect()),
                _ => ChunkColumn::U32((0..rows).map(|r| cell(r, c)).collect()),
            })
            .collect();
        let row_bytes: usize = columns.iter().map(|c| c.width().bytes()).sum();
        let msg = Message::ServeChunk { job: u64::from(seed), first_row, rows, columns };
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), msg.wire_size());
        prop_assert_eq!(msg.wire_size(), 25 + kinds.len() + rows as usize * row_bytes);
        for cut in 0..encoded.len() {
            prop_assert_eq!(Message::decode(encoded.slice(0..cut)), Err(CodecError::Truncated));
        }
        prop_assert_eq!(Message::decode(encoded).unwrap(), msg);
    }

    /// Row selection preserves per-row content for any index multiset.
    #[test]
    fn select_rows_is_consistent(table in arb_table(),
                                 picks in proptest::collection::vec(0usize..1000, 1..20)) {
        let n = table.n_rows();
        let idx: Vec<usize> = picks.into_iter().map(|p| p % n).collect();
        let sel = table.select_rows(&idx);
        prop_assert_eq!(sel.n_rows(), idx.len());
        for (new_r, &old_r) in idx.iter().enumerate() {
            for (col_new, col_old) in sel.columns().iter().zip(table.columns()) {
                match (col_new, col_old) {
                    (Column::Numeric(a), Column::Numeric(b)) =>
                        prop_assert_eq!(a[new_r], b[old_r]),
                    (Column::Categorical(a), Column::Categorical(b)) =>
                        prop_assert_eq!(a[new_r], b[old_r]),
                    _ => prop_assert!(false),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The copula generator always produces schema-valid tables whose
    /// categorical codes respect the declared cardinalities.
    #[test]
    fn generator_output_is_always_valid(seed in 0u64..50, rows in 1usize..200,
                                        strength in 0.0f64..0.9) {
        use silofuse_core::tabular::synthetic::{GeneratorConfig, Marginal, TaskKind};
        let cfg = GeneratorConfig {
            marginals: vec![
                ("a".into(), Marginal::Gaussian { mean: 0.0, std: 1.0 }),
                ("b".into(), Marginal::Categorical { weights: vec![1.0, 2.0, 3.0] }),
                ("c".into(), Marginal::LogNormal { mu: 0.0, sigma: 0.4 }),
            ],
            task: TaskKind::Classification { classes: 3 },
            correlation_strength: strength,
            seed,
        };
        let t = cfg.generate(rows, seed ^ 7);
        prop_assert_eq!(t.n_rows(), rows);
        let codes = t.column(1).as_categorical().unwrap();
        prop_assert!(codes.iter().all(|&c| c < 3));
        let target = t.column(3).as_categorical().unwrap();
        prop_assert!(target.iter().all(|&c| c < 3));
        let ln = t.column(2).as_numeric().unwrap();
        prop_assert!(ln.iter().all(|&v| v > 0.0 && v.is_finite()));
    }
}
