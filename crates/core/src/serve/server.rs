//! The synthesis server and its tenant-side client. Each tenant
//! connection is a real [`link_with`] duplex link served by a dedicated
//! thread running inside that tenant's telemetry scope, so queue
//! pressure, job counts, and rows served are attributable per tenant in
//! the Prometheus exposition. Serve messages are control-plane traffic:
//! they never pollute the Fig. 10 training-communication ledgers.

use super::admission::Admission;
use super::registry::ModelRegistry;
use super::{append_chunk, chunk_columns, ServeConfig, ServeError};
use silofuse_diffusion::RowRangeOverflow;
use silofuse_distributed::transport::{
    link_with, new_stats, Endpoint, SharedStats, TransportError,
};
use silofuse_distributed::{CommStats, Message, ServeRejectCode};
use silofuse_observe as observe;
use silofuse_tabular::{Schema, Table};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running multi-tenant synthesis service; see the module docs of
/// [`crate::serve`].
pub struct SynthesisServer {
    registry: Arc<ModelRegistry>,
    config: ServeConfig,
    admission: Arc<Admission>,
    stats: SharedStats,
    workers: Vec<JoinHandle<()>>,
    next_link: u64,
}

impl SynthesisServer {
    /// Starts a server over `registry`. Fails on a degenerate config
    /// (any zero bound).
    pub fn new(registry: ModelRegistry, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let admission = Admission::new(config.max_in_flight, config.per_tenant_max);
        Ok(Self {
            registry: Arc::new(registry),
            config,
            admission,
            stats: new_stats(),
            workers: Vec::new(),
            next_link: 0,
        })
    }

    /// The registry being served.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Wire traffic across every tenant link so far. All serve messages
    /// are control-ledger traffic (`bytes_control`), leaving the Fig. 10
    /// up/down counters untouched.
    pub fn comm_stats(&self) -> CommStats {
        *self.stats.lock()
    }

    /// Opens a connection for `tenant` and spawns its service thread.
    /// One tenant may connect multiple times; all its connections share
    /// the per-tenant admission quota.
    pub fn connect(&mut self, tenant: &str) -> TenantClient {
        let link_id = self.next_link;
        self.next_link += 1;
        let (client, coord) = link_with(Arc::clone(&self.stats), link_id, &self.config.net);
        let registry = Arc::clone(&self.registry);
        let admission = Arc::clone(&self.admission);
        let chunk_rows = self.config.chunk_rows;
        let name = tenant.to_string();
        self.workers.push(std::thread::spawn(move || {
            serve_tenant(&coord, &name, &registry, &admission, chunk_rows);
        }));
        TenantClient {
            endpoint: client,
            tenant: tenant.to_string(),
            catalog: self.registry.catalog(),
        }
    }

    /// Joins every service thread. Drop all [`TenantClient`]s first —
    /// a worker exits when its tenant's endpoint disconnects.
    pub fn shutdown(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// One tenant connection's service loop.
fn serve_tenant(
    coord: &Endpoint,
    tenant: &str,
    registry: &ModelRegistry,
    admission: &Arc<Admission>,
    chunk_rows: usize,
) {
    let scope_name = format!("tenant-{tenant}");
    let _scope = observe::scope(&scope_name);
    loop {
        let msg = match coord.recv() {
            Ok(msg) => msg,
            // A lease expiring just means the tenant is quiet; heal our
            // own in-flight chunks and keep listening.
            Err(TransportError::Timeout) => {
                coord.retransmit_unacked();
                continue;
            }
            Err(_) => break,
        };
        let Message::ServeRequest { model, job, start_row, rows } = msg else {
            // Serve links speak only the serve subset; anything else is
            // a stray frame, not worth killing the connection over.
            continue;
        };
        handle_request(coord, tenant, registry, admission, chunk_rows, model, job, start_row, rows);
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_request(
    coord: &Endpoint,
    tenant: &str,
    registry: &ModelRegistry,
    admission: &Arc<Admission>,
    chunk_rows: usize,
    model: u32,
    job: u64,
    start_row: u64,
    rows: u32,
) {
    let reject = |code| {
        observe::count(observe::names::SERVE_REJECTED, 1);
        let _ = coord.send(&Message::ServeReject { job, code });
    };
    admission.note_waiting(1);
    let admitted = admission.try_admit(tenant);
    admission.note_waiting(-1);
    let Ok(_permit) = admitted else {
        return reject(ServeRejectCode::Overloaded);
    };
    let _span = observe::span(observe::names::SERVE_JOB_SPAN);
    observe::count(observe::names::SERVE_JOBS, 1);
    if registry.entry(model).is_none() {
        return reject(ServeRejectCode::UnknownModel);
    }
    // A range past the last addressable row is refused whole, before any
    // of its chunks is sampled.
    if RowRangeOverflow::check(start_row, u64::from(rows)).is_err() {
        return reject(ServeRejectCode::InvalidRequest);
    }
    let mut done = 0u64;
    while done < u64::from(rows) {
        let take = (u64::from(rows) - done).min(chunk_rows as u64) as u32;
        let first_row = start_row + done;
        let Ok(table) = registry.sample(model, job, first_row, take) else {
            return reject(ServeRejectCode::InvalidRequest);
        };
        let columns = chunk_columns(&table);
        if coord.send(&Message::ServeChunk { job, first_row, rows: take, columns }).is_err() {
            return;
        }
        observe::count(observe::names::SERVE_ROWS, u64::from(take));
        done += u64::from(take);
    }
}

/// A tenant's handle on the service: the connect-time catalog snapshot
/// plus a blocking [`TenantClient::fetch`] that reassembles streamed
/// chunks into a [`Table`].
pub struct TenantClient {
    endpoint: Endpoint,
    tenant: String,
    catalog: Vec<(String, Schema)>,
}

impl TenantClient {
    /// The tenant name this connection was opened for.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The wire id of the cataloged model named `name`.
    pub fn model_id(&self, name: &str) -> Option<u32> {
        self.catalog.iter().position(|(n, _)| n == name).map(|i| i as u32)
    }

    /// Schema of the cataloged model `model`.
    pub fn schema(&self, model: u32) -> Option<&Schema> {
        self.catalog.get(model as usize).map(|(_, schema)| schema)
    }

    /// Fetches rows `start_row .. start_row + rows` of job
    /// `(model, job)`. Pagination is a pure cursor: any split of a range
    /// into fetches — including fetches against a restarted server —
    /// returns bytes identical to one big fetch.
    ///
    /// Each streamed chunk is a typed column frame (see
    /// [`Message::ServeChunk`]); its columns are appended straight onto
    /// the result's. Chunks must arrive contiguously from the cursor, each
    /// column in the width the catalog schema gives it, and every code
    /// below its column's cardinality. Codes are exact at any
    /// cardinality; numerics are the sampled values rounded to f32.
    ///
    /// # Errors
    /// [`ServeError::Rejected`] when admission or validation refuses the
    /// job (back off and retry on
    /// [`ServeRejectCode::Overloaded`]), [`ServeError::Transport`] on
    /// link failure or a frame that does not decode,
    /// [`ServeError::Protocol`] on a chunk that leaves a gap, overlaps,
    /// repeats, runs past the range, or disagrees with the schema.
    pub fn fetch(
        &self,
        model: u32,
        job: u64,
        start_row: u64,
        rows: u32,
    ) -> Result<Table, ServeError> {
        let schema = self
            .schema(model)
            .ok_or_else(|| ServeError::Protocol(format!("model id {model} not in catalog")))?
            .clone();
        if rows == 0 {
            return Ok(Table::empty(schema));
        }
        self.endpoint.send(&Message::ServeRequest { model, job, start_row, rows })?;
        let mut columns = Table::empty(schema.clone()).columns().to_vec();
        let mut got = 0u32;
        while got < rows {
            match self.endpoint.recv()? {
                Message::ServeChunk { job: j, first_row, rows: r, columns: chunk } if j == job => {
                    if first_row.checked_sub(start_row) != Some(u64::from(got)) {
                        return Err(ServeError::Protocol(format!(
                            "chunk at row {first_row}, expected offset {got} from cursor \
                             {start_row}"
                        )));
                    }
                    if r > rows - got {
                        return Err(ServeError::Protocol(format!(
                            "chunk of {r} rows at offset {got} runs past the {rows} requested"
                        )));
                    }
                    append_chunk(&schema, &mut columns, chunk)?;
                    got += r;
                }
                Message::ServeReject { job: j, code } if j == job => {
                    return Err(ServeError::Rejected { job, code });
                }
                // A chunk from a previous (abandoned) job on this
                // connection; skip it.
                _ => continue,
            }
        }
        Table::new(schema, columns)
            .map_err(|e| ServeError::Protocol(format!("chunks do not satisfy schema: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silofuse_distributed::message::ChunkColumn;
    use silofuse_distributed::NetConfig;
    use silofuse_tabular::{Column, ColumnMeta};

    /// A client whose catalog holds one model of a numeric and a 3-way
    /// column, and the server end of its link, which the test speaks for.
    fn client() -> (TenantClient, Endpoint) {
        let (endpoint, coord) = link_with(new_stats(), 0, &NetConfig::default());
        let schema = Schema::new(vec![ColumnMeta::numeric("x"), ColumnMeta::categorical("k", 3)]);
        let catalog = vec![("m".to_string(), schema)];
        (TenantClient { endpoint, tenant: "t".into(), catalog }, coord)
    }

    /// Rows `first_row..first_row + codes.len()` of job 3, with `codes` as
    /// the 3-way column in whatever width it holds.
    fn chunk(first_row: u64, codes: ChunkColumn) -> Message {
        let rows = codes.len() as u32;
        let x = ChunkColumn::F32((0..rows).map(|r| r as f32 * 0.5).collect());
        Message::ServeChunk { job: 3, first_row, rows, columns: vec![x, codes] }
    }

    /// Fetches rows 10..14 of job 3 after the server end queued `replies`.
    /// The server end hangs up once the request arrives, so a client that
    /// wants more than the replies sees the link close instead of waiting.
    fn fetch_after(replies: &[Message]) -> Result<Table, ServeError> {
        let (client, coord) = client();
        for reply in replies {
            coord.send(reply).unwrap();
        }
        std::thread::scope(|s| {
            s.spawn(move || coord.recv());
            client.fetch(0, 3, 10, 4)
        })
    }

    #[test]
    fn contiguous_chunks_of_the_schema_widths_assemble_the_range() {
        let table = fetch_after(&[
            chunk(10, ChunkColumn::U8(vec![0, 2])),
            // Another job's chunk on the same connection is skipped.
            Message::ServeChunk { job: 2, first_row: 0, rows: 0, columns: Vec::new() },
            chunk(12, ChunkColumn::U8(vec![1, 2])),
        ])
        .unwrap();
        assert_eq!(table.column(0), &Column::Numeric(vec![0.0, 0.5, 0.0, 0.5]));
        assert_eq!(table.column(1), &Column::Categorical(vec![0, 2, 1, 2]));
    }

    #[test]
    fn a_chunk_that_disagrees_with_the_schema_or_the_cursor_is_a_protocol_error() {
        let codes = || ChunkColumn::U8(vec![0, 1]);
        for (case, replies) in [
            ("a u16 width for a 3-way column", vec![chunk(10, ChunkColumn::U16(vec![0, 1]))]),
            ("f32 cells for a 3-way column", vec![chunk(10, ChunkColumn::F32(vec![0.0, -1.0]))]),
            ("a code at the cardinality", vec![chunk(10, ChunkColumn::U8(vec![0, 3, 0, 0]))]),
            ("a repeated chunk", vec![chunk(10, codes()), chunk(10, codes())]),
            ("a gap", vec![chunk(10, codes()), chunk(13, codes())]),
            ("an overlap", vec![chunk(10, codes()), chunk(11, codes())]),
            ("a chunk before the cursor", vec![chunk(9, codes())]),
            (
                "a chunk past the range",
                vec![chunk(10, codes()), chunk(12, ChunkColumn::U8(vec![0; 3]))],
            ),
        ] {
            let got = fetch_after(&replies);
            assert!(matches!(got, Err(ServeError::Protocol(_))), "{case}: {got:?}");
        }
    }
}
