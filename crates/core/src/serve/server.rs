//! The synthesis server and its tenant-side client. Each tenant
//! connection is a real [`link_with`] duplex link served by a dedicated
//! thread running inside that tenant's telemetry scope, so queue
//! pressure, job counts, and rows served are attributable per tenant in
//! the Prometheus exposition. Serve messages are control-plane traffic:
//! they never pollute the Fig. 10 training-communication ledgers.

use super::admission::Admission;
use super::registry::ModelRegistry;
use super::{grid_to_table, table_to_grid, ServeConfig, ServeError};
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
        let cols = table.n_cols() as u32;
        let data = table_to_grid(&table);
        if coord.send(&Message::ServeChunk { job, first_row, rows: take, cols, data }).is_err() {
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
    /// # Errors
    /// [`ServeError::Rejected`] when admission or validation refuses the
    /// job (back off and retry on
    /// [`ServeRejectCode::Overloaded`]), [`ServeError::Transport`] on
    /// link failure, [`ServeError::Protocol`] on malformed chunks.
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
        let cols = schema.width();
        self.endpoint.send(&Message::ServeRequest { model, job, start_row, rows })?;
        let mut grid = vec![0.0f32; rows as usize * cols];
        let mut got = 0u32;
        while got < rows {
            match self.endpoint.recv()? {
                Message::ServeChunk { job: j, first_row, rows: r, cols: c, data } if j == job => {
                    let offset = first_row.checked_sub(start_row).ok_or_else(|| {
                        ServeError::Protocol(format!(
                            "chunk at row {first_row} precedes cursor {start_row}"
                        ))
                    })?;
                    if c as usize != cols
                        || offset + u64::from(r) > u64::from(rows)
                        || data.len() != r as usize * cols
                    {
                        return Err(ServeError::Protocol(format!(
                            "chunk geometry {r}x{c} at offset {offset} does not fit {rows}x{cols}"
                        )));
                    }
                    let at = offset as usize * cols;
                    grid[at..at + data.len()].copy_from_slice(&data);
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
        grid_to_table(&schema, rows as usize, &grid)
    }
}
