//! Spans, metrics, scopes, tracing, and run telemetry for the SiloFuse
//! stack.
//!
//! Everything routes through one process-global [`TelemetryHub`] behind
//! an `AtomicBool` fast path: until [`init`] is called, every
//! instrumentation entry point ([`span`], [`comm`], [`train_epoch`], ...)
//! is a single relaxed atomic load and an immediate return, so
//! instrumented code pays nothing when tracing is off.
//!
//! The hub holds one [`Telemetry`] store per logical actor
//! (`coordinator`, `silo0`, ...). A thread pins itself to an actor with
//! [`scope`]; everything it records while the guard lives — spans,
//! counters, events, Lamport ticks — is attributed to that actor, while
//! unpinned threads fall back to the hub's default scope, preserving the
//! old single-store behavior for existing call sites.
//!
//! The pieces:
//! - [`spans`] — scoped RAII wall-clock timers that nest into a span tree
//!   (per-path call counts, total/mean/max), thread-aware via a
//!   thread-local span stack.
//! - [`metrics`] — a registry of counters, gauges, and fixed-bucket
//!   log₂ histograms with p50/p90/p99 readout.
//! - [`events`] — the train/comm/wire/phase event types a [`Telemetry`]
//!   store records.
//! - [`scope`] — the per-actor [`TelemetryHub`] and the RAII
//!   actor-context guard.
//! - [`trace`] — the wire-level [`TraceContext`] (Lamport clocks, no
//!   wall time in the ordering path), the causally-merged cross-silo
//!   trace, and the critical-path report.
//! - [`expose`] — Prometheus text-format snapshots plus a periodic
//!   atomic-rename [`expose::Flusher`] for live exposition.
//! - [`export`] — a hand-rolled JSONL exporter writing
//!   `target/experiments/telemetry/<run>.jsonl` and the human-readable
//!   span-tree renderer.
//! - [`cli`] — what the command-line binaries share: console writes that
//!   survive a closed pipe, and [`cli::TracedRun`], which starts and
//!   finishes a traced run.

pub mod cli;
pub mod events;
pub mod export;
pub mod expose;
pub mod metrics;
pub mod scope;
pub mod spans;
pub mod trace;

/// Canonical metric and span names emitted by the transport fault layer,
/// so producers (`silofuse-distributed`) and consumers (bench reports,
/// tests) cannot drift apart on spelling.
pub mod names {
    /// Counter: transmissions silently dropped by the fault injector.
    pub const FAULT_DROP: &str = "fault.drop";
    /// Counter: transmissions delivered twice by the fault injector.
    pub const FAULT_DUPLICATE: &str = "fault.duplicate";
    /// Counter: transmissions delayed by the fault injector.
    pub const FAULT_DELAY: &str = "fault.delay";
    /// Counter: links killed by a scripted disconnect.
    pub const FAULT_DISCONNECT: &str = "fault.disconnect";
    /// Span wrapping each fault-injection decision on the send path.
    pub const FAULT_INJECT_SPAN: &str = "fault-inject";
    /// Counter: data frames retransmitted by the reliability layer.
    pub const TRANSPORT_RETRANSMIT: &str = "transport.retransmit";
    /// Counter: bounded receives that expired without a frame.
    pub const TRANSPORT_TIMEOUT: &str = "transport.timeout";
    /// Counter: replayed frames discarded by the dedup window.
    pub const TRANSPORT_DUPLICATE: &str = "transport.duplicate_dropped";
    /// Counter: out-of-order frames dropped beyond the reorder window
    /// (recovered later by sender retransmission).
    pub const TRANSPORT_REORDER_DROP: &str = "transport.reorder_dropped";
    /// Counter: checkpoints written by `silofuse-checkpoint`.
    pub const CHECKPOINT_WRITES: &str = "checkpoint.writes";
    /// Counter: checkpoints loaded for resume.
    pub const CHECKPOINT_LOADS: &str = "checkpoint.loads";
    /// Counter: total checkpoint bytes written.
    pub const CHECKPOINT_BYTES: &str = "checkpoint.bytes_written";
    /// Counter: total bytes of checkpoint files loaded and verified.
    pub const CHECKPOINT_BYTES_READ: &str = "checkpoint.bytes_read";
    /// Counter: injected process crashes fired.
    pub const CHECKPOINT_CRASH: &str = "checkpoint.crash_injected";
    /// Span wrapping each atomic checkpoint write.
    pub const CHECKPOINT_WRITE_SPAN: &str = "checkpoint.write";
    /// Span wrapping each checkpoint load + verification.
    pub const CHECKPOINT_LOAD_SPAN: &str = "checkpoint.load";
    /// Counter: stale `.tmp` files swept at checkpointer startup (debris
    /// of a crash mid-atomic-write).
    pub const CHECKPOINT_TMP_SWEPT: &str = "checkpoint.tmp_swept";
    /// Counter: synthesis jobs admitted by the serve layer.
    pub const SERVE_JOBS: &str = "serve.jobs";
    /// Counter: synthesis jobs rejected at admission (overload/quota).
    pub const SERVE_REJECTED: &str = "serve.rejected";
    /// Counter: synthetic rows served, recorded in each tenant's scope.
    pub const SERVE_ROWS: &str = "serve.rows_served";
    /// Gauge: jobs currently synthesizing across all tenants.
    pub const SERVE_IN_FLIGHT: &str = "serve.in_flight";
    /// Gauge: requests waiting at the admission gate right now.
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Span wrapping one admitted synthesis job end to end.
    pub const SERVE_JOB_SPAN: &str = "serve.job";
    /// Counter: synthetic latent rows produced by the batched sampler.
    pub const SYNTH_ROWS: &str = "synth.rows";
    /// Counter: latent chunks streamed by the batched sampler.
    pub const SYNTH_CHUNKS: &str = "synth.chunks";
    /// Span wrapping one streamed chunk of batched reverse diffusion.
    pub const SYNTH_CHUNK_SPAN: &str = "synth.chunk";
    /// Counter: latent chunks whose rows were split across cores borrowed
    /// from the worker pool.
    pub const SYNTH_SPLIT_CHUNKS: &str = "synth.split_chunks";
    /// Counter: compute entries (kernel calls, sampling chunks) that
    /// borrowed at least one idle core from the worker pool.
    pub const POOL_DISPATCHES: &str = "nn.pool.dispatches";
    /// Counter: compute entries that wanted helpers but found no idle
    /// core, and ran inline on their caller.
    pub const POOL_INLINE: &str = "nn.pool.inline";
    /// Span wrapping every blocking transport receive; the per-actor
    /// comm-wait-vs-compute breakdown in `trace-report` sums these.
    pub const COMM_WAIT_SPAN: &str = "comm-wait";
    /// Counter: transmissions swallowed by an active link partition.
    pub const FAULT_PARTITION: &str = "fault.partition";
    /// Gauge: silos currently Healthy in the membership table.
    pub const MEMBERSHIP_HEALTHY: &str = "membership.healthy";
    /// Gauge: silos currently Suspected (missed heartbeats, not yet dead).
    pub const MEMBERSHIP_SUSPECTED: &str = "membership.suspected";
    /// Gauge: silos currently Dead (retry budget exhausted).
    pub const MEMBERSHIP_DEAD: &str = "membership.dead";
    /// Gauge: silos that died and later rejoined the run.
    pub const MEMBERSHIP_REJOINED: &str = "membership.rejoined";
    /// Counter: heartbeats absorbed by the coordinator.
    pub const SUPERVISION_HEARTBEATS: &str = "supervision.heartbeats";
    /// Counter: heartbeat misses observed by the failure detector.
    pub const SUPERVISION_MISSES: &str = "supervision.misses";
    /// Counter: degradation events (a silo declared dead while the run
    /// continued under quorum/best-effort).
    pub const SUPERVISION_DEGRADED: &str = "supervision.degraded";
    /// Counter: silos that completed the rejoin handshake mid-run.
    pub const SUPERVISION_REJOINS: &str = "supervision.rejoins";
}

pub use events::{CommEvent, Direction, Event, PhaseEvent, TrainEvent, WireEvent, WireOp};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use scope::{ScopeGuard, TelemetryHub};
pub use spans::{fmt_duration, SpanGuard, SpanRow, SpanStat};
pub use trace::{TraceContext, TraceReport};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<RwLock<Option<Arc<TelemetryHub>>>> = OnceLock::new();

fn slot() -> &'static RwLock<Option<Arc<TelemetryHub>>> {
    GLOBAL.get_or_init(|| RwLock::new(None))
}

/// Installs a fresh [`TelemetryHub`] named `run` and enables
/// instrumentation, returning the hub's default scope (the store that
/// unpinned threads record into).
///
/// Replaces any previously installed hub (its data is dropped unless
/// another `Arc` to it is held), so tests can re-init freely.
pub fn init(run: &str) -> Arc<Telemetry> {
    init_scoped(run, scope::DEFAULT_ACTOR).default_scope()
}

/// Like [`init`], but names the default scope `default_actor` (e.g.
/// `"bench"` or `"cli"`) and returns the whole hub.
pub fn init_scoped(run: &str, default_actor: &str) -> Arc<TelemetryHub> {
    let hub = Arc::new(TelemetryHub::new(run, default_actor));
    *slot().write().unwrap_or_else(|e| e.into_inner()) = Some(hub.clone());
    ENABLED.store(true, Ordering::SeqCst);
    hub
}

/// Disables instrumentation and drops the installed hub.
pub fn shutdown() {
    ENABLED.store(false, Ordering::SeqCst);
    *slot().write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether instrumentation is currently live. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed hub, if tracing is enabled.
pub fn hub() -> Option<Arc<TelemetryHub>> {
    if !enabled() {
        return None;
    }
    slot().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// The telemetry store the current thread records into: the innermost
/// [`scope`] guard's actor if one is active, else the hub's default
/// scope. `None` when tracing is off.
pub fn handle() -> Option<Arc<Telemetry>> {
    if !enabled() {
        return None;
    }
    if let Some(scoped) = scope::current_scope() {
        return Some(scoped);
    }
    slot().read().unwrap_or_else(|e| e.into_inner()).as_ref().map(|hub| hub.default_scope())
}

/// Pins the current thread to `actor`'s telemetry scope until the guard
/// drops; see [`scope::enter`]. Inert when tracing is off.
pub fn scope(actor: &str) -> ScopeGuard {
    scope::enter(actor)
}

/// Opens a scoped span timer; see [`spans::span`].
#[inline]
pub fn span(name: &str) -> SpanGuard {
    spans::span(name)
}

/// Opens a pipeline-phase span: emits a [`PhaseEvent`] with a per-scope
/// sequence number, then behaves exactly like [`span`].
pub fn phase(name: &'static str) -> SpanGuard {
    if let Some(t) = handle() {
        let event = PhaseEvent { phase: name, seq: t.next_phase_seq() };
        t.phase(&event);
    }
    spans::span(name)
}

/// Emits a per-epoch training event; no-op when tracing is off.
pub fn train_epoch(model: &'static str, epoch: u64, loss: f64, lr: f64, rows: u64) {
    if let Some(t) = handle() {
        t.train(&TrainEvent::Epoch { model, epoch, loss, lr, rows });
    }
}

/// Emits a communication event and feeds the per-message-kind byte
/// histogram `comm.bytes.<kind>.<up|down>`; no-op when tracing is off.
pub fn comm(direction: Direction, msg_kind: &'static str, bytes: u64) {
    if let Some(t) = handle() {
        t.comm(&CommEvent { direction, msg_kind, bytes });
    }
}

/// Records a traced payload crossing a link (timestamp stamped on
/// recording); no-op when tracing is off.
pub fn wire(event: WireEvent) {
    if let Some(t) = handle() {
        t.wire(&event);
    }
}

/// Adds `n` to the named counter; no-op when tracing is off.
pub fn count(name: &str, n: u64) {
    if let Some(t) = handle() {
        t.metrics().counter(name).add(n);
    }
}

/// Sets the named gauge; no-op when tracing is off.
pub fn gauge(name: &str, value: f64) {
    if let Some(t) = handle() {
        t.metrics().gauge(name).set(value);
    }
}

/// Records `value` into the named histogram; no-op when tracing is off.
pub fn record(name: &str, value: f64) {
    if let Some(t) = handle() {
        t.metrics().histogram(name).observe(value);
    }
}

/// Event-throttling stride: emit roughly 32 epoch events over `steps`
/// training steps (always including step 0).
pub fn epoch_stride(steps: usize) -> usize {
    (steps / 32).max(1)
}

/// The concrete telemetry store for one actor scope: span tree, metrics
/// registry, Lamport clock, and the recorded event log.
pub struct Telemetry {
    run: String,
    actor: String,
    epoch: Instant,
    lamport: AtomicU64,
    spans: Mutex<HashMap<String, SpanEntry>>,
    span_order: AtomicU64,
    metrics: Registry,
    events: Mutex<Vec<Event>>,
    phase_seq: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
struct SpanEntry {
    stat: SpanStat,
    order: u64,
}

impl Telemetry {
    /// A fresh, empty store for run `run` under the default actor name.
    pub fn new(run: &str) -> Self {
        Self::with_epoch(run, scope::DEFAULT_ACTOR, Instant::now())
    }

    /// A fresh store attributed to `actor`, with timestamps measured
    /// from `epoch` (shared across a hub's scopes so they compare).
    pub(crate) fn with_epoch(run: &str, actor: &str, epoch: Instant) -> Self {
        Self {
            run: run.to_string(),
            actor: actor.to_string(),
            epoch,
            lamport: AtomicU64::new(0),
            spans: Mutex::new(HashMap::new()),
            span_order: AtomicU64::new(0),
            metrics: Registry::new(),
            events: Mutex::new(Vec::new()),
            phase_seq: AtomicU64::new(0),
        }
    }

    /// The run name this telemetry was installed under.
    pub fn run(&self) -> &str {
        &self.run
    }

    /// The actor this scope is attributed to.
    pub fn actor(&self) -> &str {
        &self.actor
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Snapshot of every recorded event, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Current Lamport time (0 until the first tick or merge).
    pub fn lamport(&self) -> u64 {
        self.lamport.load(Ordering::Relaxed)
    }

    /// Advances the Lamport clock for a local send and returns the new
    /// time.
    pub fn tick_lamport(&self) -> u64 {
        self.lamport.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Merges a Lamport time seen on the wire: the clock becomes
    /// `max(local, seen) + 1`. Returns the new local time.
    pub fn merge_lamport(&self, seen: u64) -> u64 {
        let mut current = self.lamport.load(Ordering::Relaxed);
        loop {
            let next = current.max(seen) + 1;
            match self.lamport.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return next,
                Err(actual) => current = actual,
            }
        }
    }

    /// Nanoseconds elapsed since this scope's epoch, saturating at
    /// `u64::MAX` (585 years — effectively never).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn next_phase_seq(&self) -> u64 {
        self.phase_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Folds one timed call into the span tree under `path`
    /// (`"/"`-separated). Called by [`SpanGuard`] on drop.
    pub fn record_span(&self, path: &str, elapsed: Duration) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let entry = spans.entry(path.to_string()).or_insert_with(|| SpanEntry {
            stat: SpanStat::default(),
            order: self.span_order.fetch_add(1, Ordering::Relaxed),
        });
        entry.stat.calls += 1;
        entry.stat.total += elapsed;
        entry.stat.max = entry.stat.max.max(elapsed);
    }

    /// The aggregated span tree flattened depth-first, siblings in
    /// first-recorded order. Parents that never completed themselves
    /// appear with zero calls.
    pub fn span_rows(&self) -> Vec<SpanRow> {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans::build_rows(spans.iter().map(|(path, e)| (path.as_str(), e.stat, e.order)))
    }

    /// Plain-text span-tree summary (indented, aligned columns).
    pub fn render_span_tree(&self) -> String {
        spans::render_rows(&self.span_rows())
    }

    /// Records a training progress event.
    pub fn train(&self, event: &TrainEvent) {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(Event::Train(event.clone()));
    }

    /// Records a network transfer event and feeds its byte histogram.
    pub fn comm(&self, event: &CommEvent) {
        let name = format!("comm.bytes.{}.{}", event.msg_kind, event.direction.as_str());
        self.metrics.histogram(&name).observe(event.bytes as f64);
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(Event::Comm(event.clone()));
    }

    /// Records a traced payload crossing a link, stamped with the time.
    pub fn wire(&self, event: &WireEvent) {
        let mut stamped = event.clone();
        stamped.at_nanos = self.elapsed_nanos();
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(Event::Wire(stamped));
    }

    /// Records a pipeline phase entry.
    pub fn phase(&self, event: &PhaseEvent) {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(Event::Phase(event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global telemetry slot is process-wide; serialize the tests
    // that install into it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_instrumentation_is_inert() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        shutdown();
        assert!(!enabled());
        assert!(handle().is_none());
        assert!(hub().is_none());
        let g = span("never-recorded");
        assert!(!g.is_active());
        drop(g);
        let s = scope("coordinator");
        assert!(!s.is_active());
        drop(s);
        train_epoch("ae", 0, 1.0, 1e-3, 64);
        comm(Direction::Up, "LatentUpload", 128);
        count("c", 1);
        assert!(trace::ctx_for_send().is_none());
    }

    #[test]
    fn init_records_spans_events_and_metrics() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let t = init("unit");
        {
            let _outer = span("outer");
            let _inner = span("inner");
            std::thread::sleep(Duration::from_millis(1));
        }
        train_epoch("ae", 3, 0.5, 1e-3, 64);
        comm(Direction::Down, "Ack", 1);
        count("steps", 2);
        count("steps", 3);
        shutdown();

        assert_eq!(t.run(), "unit");
        assert_eq!(t.actor(), scope::DEFAULT_ACTOR);
        let rows = t.span_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "outer");
        assert_eq!(rows[1].name, "inner");
        assert_eq!(rows[1].depth, 1);
        assert!(rows[0].stat.total >= rows[1].stat.total);

        let events = t.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::Train(TrainEvent::Epoch { epoch: 3, .. })));
        assert!(matches!(events[1], Event::Comm(CommEvent { bytes: 1, .. })));
        assert_eq!(t.metrics().counter("steps").get(), 5);
        assert_eq!(t.metrics().histogram("comm.bytes.Ack.down").count(), 1);
    }

    #[test]
    fn phase_events_carry_increasing_seq() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let t = init("phases");
        drop(phase("encode"));
        drop(phase("sample"));
        shutdown();
        let phases: Vec<_> = t
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Phase(p) => Some((p.phase, p.seq)),
                _ => None,
            })
            .collect();
        assert_eq!(phases, vec![("encode", 0), ("sample", 1)]);
    }

    #[test]
    fn scope_guard_attributes_recording_to_its_actor() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let hub = init_scoped("scoped-run", "bench");
        count("shared.metric", 1);
        {
            let _s = scope("silo0");
            count("shared.metric", 10);
            drop(span("silo-work"));
        }
        count("shared.metric", 100);
        shutdown();

        let default = hub.default_scope();
        assert_eq!(default.actor(), "bench");
        assert_eq!(default.metrics().counter("shared.metric").get(), 101);
        let silo = hub.scope("silo0");
        assert_eq!(silo.metrics().counter("shared.metric").get(), 10);
        assert_eq!(silo.span_rows().len(), 1, "span landed in the silo scope");
        assert!(default.span_rows().is_empty());
    }

    #[test]
    fn lamport_clock_ticks_and_merges_monotonically() {
        let t = Telemetry::new("lamport");
        assert_eq!(t.lamport(), 0);
        assert_eq!(t.tick_lamport(), 1);
        assert_eq!(t.merge_lamport(10), 11, "merge jumps past the seen time");
        assert_eq!(t.merge_lamport(3), 12, "stale merges still advance locally");
        assert_eq!(t.tick_lamport(), 13);
    }
}
