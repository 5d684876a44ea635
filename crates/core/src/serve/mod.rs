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

/// Flattens a table into the row-major f32 grid a
/// [`silofuse_distributed::Message::ServeChunk`] carries. Numeric values
/// are rounded to f32: the decoder's inverse scaling runs in f64, so a
/// served value equals [`ModelRegistry::sample`]'s to f32 precision, not
/// bit for bit. Categorical codes are small integers, exact in f32 below
/// 2^24.
pub(crate) fn table_to_grid(table: &Table) -> Vec<f32> {
    let (rows, cols) = (table.n_rows(), table.n_cols());
    let mut grid = vec![0.0f32; rows * cols];
    for (c, col) in table.columns().iter().enumerate() {
        match col {
            Column::Numeric(values) => {
                for (r, v) in values.iter().enumerate() {
                    grid[r * cols + c] = *v as f32;
                }
            }
            Column::Categorical(codes) => {
                for (r, code) in codes.iter().enumerate() {
                    grid[r * cols + c] = *code as f32;
                }
            }
        }
    }
    grid
}

/// Rebuilds a table from a row-major grid received off the wire,
/// validating geometry and category codes against `schema` (via
/// [`Table::new`]) so a lying server cannot materialise junk rows.
pub(crate) fn grid_to_table(
    schema: &Schema,
    rows: usize,
    grid: &[f32],
) -> Result<Table, ServeError> {
    let cols = schema.width();
    if grid.len() != rows * cols {
        return Err(ServeError::Protocol(format!(
            "grid holds {} values, geometry says {rows}x{cols}",
            grid.len()
        )));
    }
    let columns = schema
        .columns()
        .iter()
        .enumerate()
        .map(|(c, meta)| match meta.kind {
            ColumnKind::Numeric => {
                Column::Numeric((0..rows).map(|r| f64::from(grid[r * cols + c])).collect())
            }
            ColumnKind::Categorical { .. } => {
                Column::Categorical((0..rows).map(|r| grid[r * cols + c] as u32).collect())
            }
        })
        .collect();
    Table::new(schema.clone(), columns)
        .map_err(|e| ServeError::Protocol(format!("grid does not satisfy schema: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn grid_round_trips_tables_bit_exactly() {
        let schema = Schema::new(vec![
            ColumnMeta::numeric("x"),
            ColumnMeta::categorical("k", 5),
            ColumnMeta::numeric("y"),
        ]);
        // f32-representable values, as the decoder produces.
        let table = Table::new(
            schema.clone(),
            vec![
                Column::Numeric(vec![0.5, -1.25, 3.0]),
                Column::Categorical(vec![0, 4, 2]),
                Column::Numeric(vec![f64::from(1.1f32), 0.0, f64::from(-2.7f32)]),
            ],
        )
        .unwrap();
        let grid = table_to_grid(&table);
        assert_eq!(grid.len(), 9);
        let back = grid_to_table(&schema, 3, &grid).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn grids_with_bad_geometry_or_codes_are_typed_errors() {
        let schema = Schema::new(vec![ColumnMeta::categorical("k", 2)]);
        assert!(matches!(grid_to_table(&schema, 2, &[0.0]), Err(ServeError::Protocol(_))));
        // Code 9 is outside cardinality 2: Table::new must refuse it.
        assert!(matches!(grid_to_table(&schema, 1, &[9.0]), Err(ServeError::Protocol(_))));
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
