//! Multi-tenant synthesis service: a [`ModelRegistry`] of fitted
//! synthesizers (reloaded from a snapshot of what sampling reads, written
//! when each fit completes), a [`SynthesisServer`] running one service
//! thread per tenant connection over the byte-accounted transport, and
//! admission control that *rejects* excess load with a typed
//! [`crate::ProtocolError::Overloaded`] instead of queueing it.
//!
//! ## Cursor pagination
//!
//! Every job is identified by a tenant-chosen `(model, job)` pair; the
//! per-row noise stream is keyed off [`job_base`] and the **absolute**
//! row index, so a job is a pure function of its identity. Fetching rows
//! `0..8192` now and `8192..16384` later yields bytes identical to one
//! big fetch — across chunk-size changes, thread counts, and server
//! restarts (the reloaded model is the one that served before, bit for
//! bit). Serve traffic rides the control ledger
//! ([`silofuse_distributed::Message::is_control`]), so the Fig. 10
//! training-communication accounting stays clean.
//!
//! ```no_run
//! use silofuse_core::serve::{ModelRegistry, ModelSpec, ServeConfig, SynthesisServer};
//! use silofuse_core::TrainBudget;
//!
//! let specs = vec![ModelSpec::new("loan", "Loan", 512, 42, TrainBudget::quick())];
//! let registry = ModelRegistry::open(None, 50, &specs).unwrap();
//! let mut server = SynthesisServer::new(registry, ServeConfig::default()).unwrap();
//! let tenant = server.connect("acme");
//! let model = tenant.model_id("loan").unwrap();
//! let first = tenant.fetch(model, 7, 0, 256).unwrap();   // rows 0..256
//! let rest = tenant.fetch(model, 7, 256, 256).unwrap();  // rows 256..512
//! assert_eq!(first.schema(), rest.schema());
//! drop(tenant);
//! server.shutdown();
//! ```

mod admission;
mod registry;
mod server;

pub use registry::{ModelRegistry, ModelSpec};
pub use server::{SynthesisServer, TenantClient};

use silofuse_checkpoint::CheckpointError;
use silofuse_diffusion::SampleRequestError;
use silofuse_distributed::message::{ChunkColumn, ColumnWidth};
use silofuse_distributed::transport::TransportError;
use silofuse_distributed::{NetConfig, ServeRejectCode};
use silofuse_tabular::{Column, ColumnKind, Schema, Table};
use std::fmt;

/// Knobs of a [`SynthesisServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Jobs allowed to synthesize concurrently across all tenants, each
    /// on its own tenant thread, in parallel even when they share a
    /// model; requests beyond this are rejected, never queued.
    pub max_in_flight: usize,
    /// Concurrent-job quota for any single tenant (one tenant may hold
    /// several connections).
    pub per_tenant_max: usize,
    /// Rows per streamed [`silofuse_distributed::Message::ServeChunk`].
    pub chunk_rows: usize,
    /// Network model for tenant links (fault plan, retry policy); the
    /// default is a perfect in-process link.
    pub net: NetConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { max_in_flight: 4, per_tenant_max: 2, chunk_rows: 2048, net: NetConfig::default() }
    }
}

impl ServeConfig {
    /// Validates the bounds; every limit must be at least 1 (a zero
    /// `chunk_rows` is the same degenerate request the synthesis layer
    /// rejects with [`silofuse_diffusion::InvalidChunkRows`]).
    pub fn validate(&self) -> Result<(), ServeError> {
        for (name, v) in [
            ("max_in_flight", self.max_in_flight),
            ("per_tenant_max", self.per_tenant_max),
            ("chunk_rows", self.chunk_rows),
        ] {
            if v == 0 {
                return Err(ServeError::Config(format!("{name} must be at least 1")));
            }
        }
        Ok(())
    }
}

/// Errors surfaced by the serve layer, registry loading included.
#[derive(Debug)]
pub enum ServeError {
    /// A [`ModelSpec`] names a dataset profile the build doesn't know.
    UnknownProfile(String),
    /// Two registry specs share a model name.
    DuplicateModel(String),
    /// A [`ServeConfig`] bound is zero.
    Config(String),
    /// Checkpoint load/store failure while opening the registry.
    Checkpoint(CheckpointError),
    /// A model's checkpoint directory holds a model fitted from another
    /// [`ModelSpec`]; raised before anything is generated or served.
    SpecMismatch {
        /// The model's registry name.
        model: String,
        /// The spec field that differs, e.g. `seed` or `budget.ae_steps`.
        field: String,
        /// Its value in the directory.
        saved: String,
        /// Its value in the spec asked for.
        requested: String,
    },
    /// A degenerate synthesis request (zero chunk rows / zero steps).
    Sample(SampleRequestError),
    /// The transport failed mid-job.
    Transport(TransportError),
    /// The server rejected the job with the given wire code.
    Rejected {
        /// Job id the rejection answers.
        job: u64,
        /// Why — admission overload, bad request, or unknown model.
        code: ServeRejectCode,
    },
    /// The peer violated the serve protocol (bad chunk geometry, unknown
    /// model id in a reply, ...).
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownProfile(name) => write!(f, "unknown dataset profile `{name}`"),
            ServeError::DuplicateModel(name) => write!(f, "duplicate model name `{name}`"),
            ServeError::Config(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Checkpoint(e) => write!(f, "registry checkpoint: {e}"),
            ServeError::SpecMismatch { model, field, saved, requested } => write!(
                f,
                "model `{model}`: its checkpoint directory was fitted with {field} = {saved}, \
                 not the requested {requested}"
            ),
            ServeError::Sample(e) => write!(f, "synthesis request: {e}"),
            ServeError::Transport(e) => write!(f, "serve transport: {e}"),
            ServeError::Rejected { job, code } => write!(f, "job {job} rejected: {code:?}"),
            ServeError::Protocol(msg) => write!(f, "serve protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Sample(e) => Some(e),
            ServeError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<SampleRequestError> for ServeError {
    fn from(e: SampleRequestError) -> Self {
        ServeError::Sample(e)
    }
}

impl From<TransportError> for ServeError {
    fn from(e: TransportError) -> Self {
        ServeError::Transport(e)
    }
}

/// Base seed of a job's per-row noise streams: a pure function of the
/// model name and the tenant-chosen job id — FNV-1a over the name,
/// splitmix64-finalised with the id folded in. Never drawn from a live
/// RNG, so any fetch of any row range of job `(model, job)` sees the
/// same stream, today and after a server restart.
pub fn job_base(model: &str, job: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in model.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let mut z = h ^ job.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The width a column of `kind` travels in on the tenant link: f32 for a
/// numeric, the narrowest code width that holds a categorical's
/// cardinality.
fn wire_width(kind: ColumnKind) -> ColumnWidth {
    match kind {
        ColumnKind::Numeric => ColumnWidth::F32,
        ColumnKind::Categorical { cardinality } => ColumnWidth::for_cardinality(cardinality),
    }
}

/// A sampled table's columns as the typed columns a
/// [`silofuse_distributed::Message::ServeChunk`] carries. Numeric values
/// are rounded to f32: the decoder's inverse scaling runs in f64, so a
/// served value equals [`ModelRegistry::sample`]'s to f32 precision, not
/// bit for bit. Codes travel in [`wire_width`], which holds every code
/// below the column's cardinality, so they are exact.
pub(crate) fn chunk_columns(table: &Table) -> Vec<ChunkColumn> {
    let kinds = table.schema().columns().iter().map(|meta| meta.kind);
    kinds
        .zip(table.columns())
        .map(|(kind, column)| match column {
            Column::Numeric(values) => ChunkColumn::F32(values.iter().map(|&v| v as f32).collect()),
            // A `Table` keeps every code below its cardinality, so the
            // narrowing casts are exact.
            Column::Categorical(codes) => match wire_width(kind) {
                ColumnWidth::U8 => ChunkColumn::U8(codes.iter().map(|&c| c as u8).collect()),
                ColumnWidth::U16 => ChunkColumn::U16(codes.iter().map(|&c| c as u16).collect()),
                ColumnWidth::U32 | ColumnWidth::F32 => ChunkColumn::U32(codes.clone()),
            },
        })
        .collect()
}

/// Appends one received chunk's columns to `columns`, the growing columns
/// of a fetch's result. Each chunk column must arrive in the width
/// `schema` gives it ([`wire_width`]); codes are widened, numerics
/// widened to f64. Codes are checked against their cardinality when the
/// result is assembled ([`Table::new`]).
pub(crate) fn append_chunk(
    schema: &Schema,
    columns: &mut [Column],
    chunk: Vec<ChunkColumn>,
) -> Result<(), ServeError> {
    if chunk.len() != columns.len() {
        return Err(ServeError::Protocol(format!(
            "chunk carries {} columns, the schema has {}",
            chunk.len(),
            columns.len()
        )));
    }
    for (c, ((meta, column), cells)) in schema.columns().iter().zip(columns).zip(chunk).enumerate()
    {
        let want = wire_width(meta.kind);
        if cells.width() != want {
            return Err(ServeError::Protocol(format!(
                "column {c} arrived as {:?}, its schema needs {want:?}",
                cells.width()
            )));
        }
        match (column, cells) {
            (Column::Numeric(values), ChunkColumn::F32(cells)) => {
                values.extend(cells.into_iter().map(f64::from));
            }
            (Column::Categorical(codes), ChunkColumn::U8(cells)) => {
                codes.extend(cells.into_iter().map(u32::from));
            }
            (Column::Categorical(codes), ChunkColumn::U16(cells)) => {
                codes.extend(cells.into_iter().map(u32::from));
            }
            (Column::Categorical(codes), ChunkColumn::U32(cells)) => codes.extend(cells),
            _ => return Err(ServeError::Protocol(format!("column {c} is not of its schema kind"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_distributed::Message;
    use silofuse_tabular::ColumnMeta;

    #[test]
    fn job_base_is_deterministic_and_spreads() {
        assert_eq!(job_base("loan", 7), job_base("loan", 7));
        assert_ne!(job_base("loan", 7), job_base("loan", 8));
        assert_ne!(job_base("loan", 7), job_base("adult", 7));
        // Sequential job ids must not produce correlated bases.
        let a = job_base("loan", 0);
        let b = job_base("loan", 1);
        assert!((a ^ b).count_ones() > 8, "{a:#x} vs {b:#x}");
    }

    /// Numerics, a 5-way, a 2 932-way (u16) and a 70 000-way (u32)
    /// column, with each code column's largest code.
    fn wide_table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::numeric("x"),
            ColumnMeta::categorical("k", 5),
            ColumnMeta::categorical("zip", 2_932),
            ColumnMeta::categorical("id", 70_000),
            ColumnMeta::numeric("y"),
        ]);
        // f32-representable values, as the decoder produces.
        Table::new(
            schema,
            vec![
                Column::Numeric(vec![0.5, -1.25, 3.0]),
                Column::Categorical(vec![0, 4, 2]),
                Column::Categorical(vec![2_931, 256, 0]),
                Column::Categorical(vec![69_999, 65_536, 1]),
                Column::Numeric(vec![f64::from(1.1f32), 0.0, f64::from(-2.7f32)]),
            ],
        )
        .unwrap()
    }

    /// `table`'s rows `rows` as they arrive off the wire: encoded and
    /// decoded as one chunk.
    fn over_the_wire(table: &Table, rows: std::ops::Range<usize>) -> Vec<ChunkColumn> {
        let part = table.select_rows(&rows.collect::<Vec<_>>());
        let chunk = Message::ServeChunk {
            job: 1,
            first_row: 0,
            rows: part.n_rows() as u32,
            columns: chunk_columns(&part),
        };
        match Message::decode(chunk.encode()) {
            Ok(Message::ServeChunk { columns, .. }) => columns,
            other => panic!("a chunk decodes to a chunk, got {other:?}"),
        }
    }

    #[test]
    fn chunks_round_trip_tables_bit_exactly() {
        let table = wide_table();
        let widths: Vec<_> = chunk_columns(&table).iter().map(ChunkColumn::width).collect();
        use ColumnWidth::{F32, U16, U32, U8};
        assert_eq!(widths, [F32, U8, U16, U32, F32]);
        // Two chunks appended one after the other give back the table.
        let mut columns = Table::empty(table.schema().clone()).columns().to_vec();
        for rows in [0..2, 2..3] {
            append_chunk(table.schema(), &mut columns, over_the_wire(&table, rows)).unwrap();
        }
        assert_eq!(Table::new(table.schema().clone(), columns).unwrap(), table);
    }

    #[test]
    fn chunks_with_bad_widths_or_codes_are_typed_errors() {
        let table = wide_table();
        let schema = table.schema();
        let empty = || Table::empty(schema.clone()).columns().to_vec();
        let good = || over_the_wire(&table, 0..3);
        // A code column in a wider or narrower width than its cardinality
        // gives, a numeric sent as codes, and a code column sent as f32.
        for (c, column) in [
            (1, ChunkColumn::U16(vec![0, 4, 2])),
            (2, ChunkColumn::U8(vec![0, 1, 2])),
            (3, ChunkColumn::U16(vec![0, 1, 2])),
            (0, ChunkColumn::U32(vec![0, 1, 2])),
            (1, ChunkColumn::F32(vec![0.0, 4.0, 2.0])),
        ] {
            let mut chunk = good();
            chunk[c] = column;
            let got = append_chunk(schema, &mut empty(), chunk);
            assert!(matches!(got, Err(ServeError::Protocol(_))), "column {c}: {got:?}");
        }
        // A missing column.
        let mut short = good();
        short.pop();
        assert!(matches!(append_chunk(schema, &mut empty(), short), Err(ServeError::Protocol(_))));
        // A code at its column's cardinality travels in the right width
        // and is refused when the result is assembled.
        let mut chunk = good();
        chunk[2] = ChunkColumn::U16(vec![2_932, 0, 0]);
        let mut columns = empty();
        append_chunk(schema, &mut columns, chunk).unwrap();
        assert!(Table::new(schema.clone(), columns).is_err());
    }

    #[test]
    fn zero_bounds_are_rejected_at_validation() {
        assert!(ServeConfig::default().validate().is_ok());
        for f in [
            |c: &mut ServeConfig| c.max_in_flight = 0,
            |c: &mut ServeConfig| c.per_tenant_max = 0,
            |c: &mut ServeConfig| c.chunk_rows = 0,
        ] {
            let mut cfg = ServeConfig::default();
            f(&mut cfg);
            assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
        }
    }
}
