//! Byte-accounted in-process transport between clients and the coordinator.
//!
//! Two operating modes share one endpoint API:
//!
//! - **Plain** ([`link`], or [`link_with`] without a fault plan): messages
//!   cross the channel as raw encoded [`Message`] bytes, exactly as the
//!   original implementation — byte counts, message counts, and blocking
//!   semantics are unchanged.
//! - **Reliable** ([`link_with`] with a [`FaultPlan`] installed): every
//!   payload is wrapped in a sequenced [`Frame`], transmissions pass
//!   through the deterministic fault injector, receivers deduplicate and
//!   reorder through a cumulative-ack window, and silent peers trigger
//!   exponential-backoff retransmission bounded by the [`RetryPolicy`].
//!
//! Accounting contract: `bytes_up`/`bytes_down`/`messages_*` and the
//! `comm.bytes.*` histograms count each application payload's **first
//! transmission exactly once** (framed size in reliable mode), so Fig. 10
//! reconciliation holds under faults. Retransmissions land in
//! `bytes_retried`/`retransmits`, standalone ack frames in `bytes_ack`,
//! replays discarded by the dedup window in `duplicates_dropped`, and
//! expired bounded receives in `timeouts`.
//!
//! When tracing is enabled every send ticks the current actor scope's
//! Lamport clock and stamps a [`silofuse_observe::TraceContext`] onto
//! the payload; every decode merges the received clock and records a
//! wire event. The trace header's bytes are ledgered separately in
//! `bytes_trace` so traced runs keep Fig. 10-comparable byte counts,
//! and untraced runs are byte-identical to before.

use crate::error::ProtocolError;
use crate::faults::{FaultAction, LinkFaults, NetConfig, PartitionWindow, RetryPolicy};
use crate::message::{CodecError, Frame, Message};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use silofuse_observe as observe;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cumulative communication statistics, shared by every link of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommStats {
    /// Bytes sent client → coordinator (first transmissions only).
    pub bytes_up: u64,
    /// Bytes sent coordinator → client (first transmissions only).
    pub bytes_down: u64,
    /// Messages sent client → coordinator.
    pub messages_up: u64,
    /// Messages sent coordinator → client.
    pub messages_down: u64,
    /// Protocol-level communication rounds (incremented by protocols, not
    /// by the transport).
    pub rounds: u64,
    /// Bytes retransmitted by the reliability layer (both directions);
    /// reported separately so Fig. 10 byte counts stay loss-free.
    pub bytes_retried: u64,
    /// Data frames retransmitted by the reliability layer.
    pub retransmits: u64,
    /// Standalone ack frame bytes (reliability-layer overhead).
    pub bytes_ack: u64,
    /// Replayed frames discarded by the receive-side dedup window.
    pub duplicates_dropped: u64,
    /// Bounded receives that expired without delivering a message.
    pub timeouts: u64,
    /// Trace-header bytes added to first transmissions while tracing was
    /// enabled; kept out of `bytes_up`/`bytes_down` so traced and
    /// untraced runs report identical payload byte counts.
    pub bytes_trace: u64,
    /// Supervision control-plane bytes (heartbeats, rejoin handshake),
    /// both directions. Kept out of `bytes_up`/`bytes_down` so Fig. 10
    /// protocol byte accounting is identical with supervision on or off.
    pub bytes_control: u64,
    /// Supervision control-plane messages, both directions.
    pub messages_control: u64,
    /// Out-of-order frames dropped because they landed beyond the
    /// receive-side reorder window ([`RetryPolicy::reorder_window`]);
    /// recovered by sender retransmission, so delivery semantics are
    /// unchanged — only buffering is bounded.
    pub reorder_dropped: u64,
    /// High-water mark of frames held in the reorder buffer, across
    /// every link of the run. Bounded by the configured reorder window;
    /// the fault proptests assert this.
    pub reorder_buffered_peak: u64,
}

impl CommStats {
    /// Total first-transmission bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }

    /// Total non-payload overhead (retransmitted, ack, trace-header, and
    /// supervision control bytes) that is deliberately excluded from
    /// [`CommStats::total_bytes`].
    pub fn overhead_bytes(&self) -> u64 {
        self.bytes_retried + self.bytes_ack + self.bytes_trace + self.bytes_control
    }
}

/// Shared handle to a run's statistics.
pub type SharedStats = Arc<Mutex<CommStats>>;

/// Creates a fresh statistics handle.
pub fn new_stats() -> SharedStats {
    Arc::new(Mutex::new(CommStats::default()))
}

/// Transport-layer errors.
#[derive(Debug)]
pub enum TransportError {
    /// The peer hung up.
    Disconnected,
    /// The payload failed to decode.
    Codec(CodecError),
    /// A bounded receive expired without delivering a message.
    Timeout,
    /// The retry budget was exhausted without the peer responding. The
    /// context distinguishes a slow link from a dead peer: how many
    /// bounded attempts were made and how long the exponential backoff
    /// waited, in units of [`RetryPolicy::tick`].
    RetryExhausted {
        /// Bounded receive attempts made before giving up.
        attempts: u32,
        /// Total silent wait, in backoff ticks of [`RetryPolicy::tick`].
        backoff_ticks: u64,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Codec(e) => write!(f, "codec error: {e}"),
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::RetryExhausted { attempts, backoff_ticks } => write!(
                f,
                "retry budget exhausted after {attempts} attempts ({backoff_ticks} backoff ticks)"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// One end of a duplex client↔coordinator link, made by [`link`] or
/// [`link_with`]. The client end sends upstream and the coordinator end
/// downstream; each ledgers its own direction in the link's [`CommStats`].
#[derive(Debug)]
pub struct Endpoint {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    dir: observe::Direction,
    link: u64,
    stats: SharedStats,
    reliable: Option<Reliable>,
}

/// Reliability-layer state: retry policy plus the mutable window.
#[derive(Debug)]
struct Reliable {
    policy: RetryPolicy,
    state: Mutex<ReliableState>,
}

#[derive(Debug)]
struct ReliableState {
    /// Next sequence number assigned to an outgoing data frame.
    next_seq: u64,
    /// Sent-but-unacknowledged payloads, in sequence order.
    unacked: VecDeque<(u64, Bytes)>,
    /// Next peer sequence number this side will deliver.
    next_expected: u64,
    /// Out-of-order peer payloads buffered until the gap fills.
    buffered: BTreeMap<u64, Bytes>,
    /// In-order payloads ready for `recv`.
    delivered: VecDeque<Bytes>,
    /// Fault injector for this end's outgoing direction.
    faults: LinkFaults,
}

impl ReliableState {
    fn new(faults: LinkFaults) -> Self {
        Self {
            next_seq: 0,
            unacked: VecDeque::new(),
            next_expected: 0,
            buffered: BTreeMap::new(),
            delivered: VecDeque::new(),
            faults,
        }
    }
}

impl Endpoint {
    /// Sends a message to the peer, counted in this end's direction.
    pub fn send(&self, msg: &Message) -> Result<(), TransportError> {
        // Tick the current actor's Lamport clock and stamp the context
        // on the wire; `None` (tracing off) keeps the encoding
        // byte-identical to the untraced format.
        let ctx = observe::trace::ctx_for_send();
        let payload = msg.encode_traced(ctx.as_ref());
        let trace_overhead = (payload.len() - msg.wire_size()) as u64;
        let base = msg.wire_size() as u64;
        // Supervision control traffic (heartbeats, rejoin handshake) is
        // ledgered in `bytes_control` and skips the `comm.bytes.*`
        // histograms, so Fig. 10 accounting never sees it.
        let control = msg.is_control();
        let Some(rel) = &self.reliable else {
            if !control {
                observe::comm(self.dir, msg.kind(), base);
            }
            self.note_send(msg.kind(), base, base, trace_overhead, control, ctx.as_ref());
            return self.tx.send(payload).map_err(|_| TransportError::Disconnected);
        };
        let mut st = rel.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        let frame = Frame::Data { seq, ack: st.next_expected, payload: payload.clone() };
        let bytes = frame.encode();
        st.unacked.push_back((seq, payload));
        // Counted = framed size minus the trace header, so traced and
        // untraced reliable runs ledger identical first-transmission
        // bytes.
        let counted = bytes.len() as u64 - trace_overhead;
        if !control {
            observe::comm(self.dir, msg.kind(), counted);
        }
        self.note_send(msg.kind(), counted, base, trace_overhead, control, ctx.as_ref());
        self.transmit(&mut st.faults, bytes, true)
    }

    /// Ledgers one first transmission (`counted` bytes, framed size in
    /// reliable mode) for this end's direction and, in traced mode,
    /// records the wire event under the sending scope with the `base`
    /// message size — matching what the receive side will record.
    fn note_send(
        &self,
        kind: &'static str,
        counted: u64,
        base: u64,
        trace_overhead: u64,
        control: bool,
        ctx: Option<&observe::TraceContext>,
    ) {
        {
            let mut s = self.stats.lock();
            if control {
                s.bytes_control += counted;
                s.messages_control += 1;
            } else {
                match self.dir {
                    observe::Direction::Up => {
                        s.bytes_up += counted;
                        s.messages_up += 1;
                    }
                    observe::Direction::Down => {
                        s.bytes_down += counted;
                        s.messages_down += 1;
                    }
                }
            }
            s.bytes_trace += trace_overhead;
        }
        if let Some(ctx) = ctx {
            observe::wire(observe::WireEvent {
                op: observe::WireOp::Send,
                link: self.link,
                direction: self.dir,
                msg_kind: kind,
                bytes: base,
                lamport: ctx.lamport,
                at_nanos: 0,
            });
        }
    }

    /// Decodes a delivered payload; if it carries a trace context, merges
    /// the sender's Lamport time into the current scope's clock and
    /// records the receive under the receiving scope.
    fn decode_delivered(&self, bytes: Bytes) -> Result<Message, TransportError> {
        let (msg, ctx) = Message::decode_traced(bytes).map_err(TransportError::Codec)?;
        if let Some(ctx) = ctx {
            let lamport = observe::trace::merge_on_recv(&ctx);
            // Traffic direction is the *sender's*: the opposite of the
            // direction this end sends in.
            let direction = match self.dir {
                observe::Direction::Up => observe::Direction::Down,
                observe::Direction::Down => observe::Direction::Up,
            };
            observe::wire(observe::WireEvent {
                op: observe::WireOp::Recv,
                link: self.link,
                direction,
                msg_kind: msg.kind(),
                bytes: msg.wire_size() as u64,
                lamport,
                at_nanos: 0,
            });
        }
        Ok(msg)
    }

    /// Pushes raw frame bytes through the fault injector onto the wire.
    /// `Drop`/`Blackhole` swallow the transmission *successfully* — the
    /// sender only learns through missing acks. `first` is false for
    /// retransmissions, which never advance the partition clock.
    fn transmit(
        &self,
        faults: &mut LinkFaults,
        bytes: Bytes,
        first: bool,
    ) -> Result<(), TransportError> {
        let action = {
            let _g = observe::span(observe::names::FAULT_INJECT_SPAN);
            faults.next_for(first)
        };
        match action {
            FaultAction::Deliver { extra_copy, delay } => {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                self.tx.send(bytes.clone()).map_err(|_| TransportError::Disconnected)?;
                if extra_copy {
                    // The duplicate races the original only on a real
                    // network; in-process FIFO keeps it adjacent.
                    let _ = self.tx.send(bytes);
                }
                Ok(())
            }
            FaultAction::Drop | FaultAction::Blackhole => Ok(()),
        }
    }

    /// Blocks until the peer sends a message. Under a fault plan the
    /// wait is bounded by [`RetryPolicy::recv_deadline`].
    pub fn recv(&self) -> Result<Message, TransportError> {
        let _wait = observe::span(observe::names::COMM_WAIT_SPAN);
        match &self.reliable {
            None => {
                let bytes = self.rx.recv().map_err(|_| TransportError::Disconnected)?;
                self.decode_delivered(bytes)
            }
            Some(rel) => self.recv_reliable(rel, rel.policy.recv_deadline),
        }
    }

    /// Receives with an explicit time budget.
    pub fn recv_timeout(&self, budget: Duration) -> Result<Message, TransportError> {
        let _wait = observe::span(observe::names::COMM_WAIT_SPAN);
        match &self.reliable {
            None => match self.rx.recv_timeout(budget) {
                Ok(bytes) => self.decode_delivered(bytes),
                Err(RecvTimeoutError::Timeout) => {
                    self.note_timeout();
                    Err(TransportError::Timeout)
                }
                Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
            },
            Some(rel) => self.recv_reliable(rel, budget),
        }
    }

    /// Bounded reliable receive: drains frames, retransmits this end's
    /// own unacked payloads on silent ticks (exponential backoff), and
    /// returns [`TransportError::Timeout`] once `budget` expires.
    fn recv_reliable(&self, rel: &Reliable, budget: Duration) -> Result<Message, TransportError> {
        let deadline = Instant::now() + budget;
        let mut tick = rel.policy.tick.max(Duration::from_micros(100));
        loop {
            if let Some(payload) = rel.state.lock().delivered.pop_front() {
                return self.decode_delivered(payload);
            }
            let now = Instant::now();
            if now >= deadline {
                self.note_timeout();
                return Err(TransportError::Timeout);
            }
            match self.rx.recv_timeout(tick.min(deadline - now)) {
                Ok(bytes) => {
                    self.process_frame(rel, bytes)?;
                    tick = rel.policy.tick.max(Duration::from_micros(100));
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.retransmit_unacked();
                    tick = (tick * 2).min(rel.policy.max_backoff);
                }
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Disconnected),
            }
        }
    }

    fn note_timeout(&self) {
        self.stats.lock().timeouts += 1;
        observe::count(observe::names::TRANSPORT_TIMEOUT, 1);
    }

    /// Applies one incoming frame: clears acked payloads, deduplicates or
    /// buffers data, and acks the new cumulative watermark.
    fn process_frame(&self, rel: &Reliable, bytes: Bytes) -> Result<(), TransportError> {
        let frame = Frame::decode(bytes).map_err(TransportError::Codec)?;
        let mut st = rel.state.lock();
        match frame {
            Frame::Ack { ack } => {
                Self::apply_ack(&mut st, ack);
            }
            Frame::Data { seq, ack, payload } => {
                Self::apply_ack(&mut st, ack);
                if seq < st.next_expected {
                    self.note_duplicate();
                } else if seq == st.next_expected {
                    st.next_expected += 1;
                    st.delivered.push_back(payload);
                    while let Some(p) = {
                        let next = st.next_expected;
                        st.buffered.remove(&next)
                    } {
                        st.delivered.push_back(p);
                        st.next_expected += 1;
                    }
                } else if seq - st.next_expected >= rel.policy.reorder_window.max(1) as u64 {
                    // Beyond the reorder window: drop instead of buffering.
                    // The frame is still unacked on the sender, so a later
                    // retransmission redelivers it once the gap closes —
                    // the buffer stays bounded under reorder/dup-heavy
                    // fault plans without changing delivery semantics.
                    self.note_reorder_drop();
                } else {
                    if st.buffered.insert(seq, payload).is_some() {
                        self.note_duplicate();
                    }
                    let held = st.buffered.len() as u64;
                    debug_assert!(
                        held <= rel.policy.reorder_window.max(1) as u64,
                        "reorder buffer {held} exceeded window {}",
                        rel.policy.reorder_window
                    );
                    let mut s = self.stats.lock();
                    s.reorder_buffered_peak = s.reorder_buffered_peak.max(held);
                }
                self.send_ack(&st);
            }
        }
        Ok(())
    }

    fn note_duplicate(&self) {
        self.stats.lock().duplicates_dropped += 1;
        observe::count(observe::names::TRANSPORT_DUPLICATE, 1);
    }

    fn note_reorder_drop(&self) {
        self.stats.lock().reorder_dropped += 1;
        observe::count(observe::names::TRANSPORT_REORDER_DROP, 1);
    }

    fn apply_ack(st: &mut ReliableState, ack: u64) {
        while st.unacked.front().is_some_and(|(seq, _)| *seq < ack) {
            st.unacked.pop_front();
        }
    }

    /// Emits a standalone cumulative ack. Acks bypass fault injection:
    /// they are idempotent watermarks, and perturbing them only changes
    /// retransmission timing, never delivery semantics. A dead peer is
    /// not an error here — the payload was already delivered locally.
    fn send_ack(&self, st: &ReliableState) {
        let bytes = Frame::Ack { ack: st.next_expected }.encode();
        self.stats.lock().bytes_ack += bytes.len() as u64;
        let _ = self.tx.send(bytes);
    }

    /// Re-sends every unacknowledged payload (through fault injection),
    /// ledgered as `bytes_retried`/`retransmits`; no-op on a plain link.
    /// Same-thread protocol loops call this on the *peer* endpoint when
    /// their own bounded receive times out (see [`recv_retrying`]).
    pub fn retransmit_unacked(&self) {
        let Some(rel) = &self.reliable else {
            return;
        };
        let mut st = rel.state.lock();
        if st.unacked.is_empty() {
            return;
        }
        let ack = st.next_expected;
        let frames: Vec<(u64, Bytes)> = st.unacked.iter().cloned().collect();
        for (seq, payload) in frames {
            let bytes = Frame::Data { seq, ack, payload }.encode();
            {
                let mut s = self.stats.lock();
                s.bytes_retried += bytes.len() as u64;
                s.retransmits += 1;
            }
            observe::count(observe::names::TRANSPORT_RETRANSMIT, 1);
            let _ = self.transmit(&mut st.faults, bytes, false);
        }
    }

    /// Highest peer sequence number delivered so far on this end, if
    /// any — the "last frame seq" operators see in a
    /// [`crate::error::ProtocolError::SiloDead`].
    pub fn last_delivered_seq(&self) -> Option<u64> {
        let rel = self.reliable.as_ref()?;
        rel.state.lock().next_expected.checked_sub(1)
    }

    /// Drives the link until every payload this end sent is acked or
    /// `budget` expires; returns whether the send window drained (always
    /// `true` on a plain link). Frames received along the way are
    /// buffered for later `recv`.
    pub fn flush(&self, budget: Duration) -> bool {
        let Some(rel) = &self.reliable else {
            return true;
        };
        let _wait = observe::span(observe::names::COMM_WAIT_SPAN);
        let deadline = Instant::now() + budget;
        let mut tick = rel.policy.tick.max(Duration::from_micros(100));
        loop {
            if rel.state.lock().unacked.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            match self.rx.recv_timeout(tick.min(deadline - now)) {
                Ok(bytes) => {
                    if self.process_frame(rel, bytes).is_err() {
                        return false;
                    }
                    tick = rel.policy.tick.max(Duration::from_micros(100));
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.retransmit_unacked();
                    tick = (tick * 2).min(rel.policy.max_backoff);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return rel.state.lock().unacked.is_empty();
                }
            }
        }
    }

    /// Whether any sent payload is still awaiting a transport ack.
    pub fn has_unacked(&self) -> bool {
        self.reliable.as_ref().is_some_and(|rel| !rel.state.lock().unacked.is_empty())
    }
}

/// Creates a duplex client↔coordinator link whose traffic is counted in
/// `stats`. Messages are physically serialised on send and deserialised on
/// receive, so the byte counts are exact wire sizes. Equivalent to
/// [`link_with`] on a perfect network.
pub fn link(stats: SharedStats) -> (Endpoint, Endpoint) {
    link_with(stats, 0, &NetConfig::default())
}

/// Salt distinguishing the up-direction fault stream from the down one.
const SALT_UP: u64 = 0;
const SALT_DOWN: u64 = 1;

/// Creates a duplex link under `net`: with a fault plan installed the
/// reliability layer (framing, acks, dedup, retransmission) activates and
/// the per-direction injectors are seeded from `(plan.seed, link_id,
/// direction)`; without one the link is byte-identical to [`link`].
pub fn link_with(stats: SharedStats, link_id: u64, net: &NetConfig) -> (Endpoint, Endpoint) {
    let (up_tx, up_rx) = unbounded();
    let (down_tx, down_rx) = unbounded();
    // A partitioned link shares one two-direction window, clocked by the
    // client end's first up transmissions.
    let partition = net.faults.as_ref().and_then(|plan| PartitionWindow::for_link(plan, link_id));
    let reliable = |salt: u64| {
        net.faults.clone().map(|plan| Reliable {
            policy: net.retry,
            state: Mutex::new(ReliableState::new(LinkFaults::with_partition(
                plan,
                link_id,
                salt,
                partition.clone(),
            ))),
        })
    };
    (
        Endpoint {
            tx: up_tx,
            rx: down_rx,
            dir: observe::Direction::Up,
            link: link_id,
            stats: Arc::clone(&stats),
            reliable: reliable(SALT_UP),
        },
        Endpoint {
            tx: down_tx,
            rx: up_rx,
            dir: observe::Direction::Down,
            link: link_id,
            stats,
            reliable: reliable(SALT_DOWN),
        },
    )
}

/// Bounded receive with a peer "kick" between attempts, for protocol
/// phases where one thread holds **both** ends of a link (stacked
/// synthesis, every E2EDistr step): nobody else can retransmit the peer's
/// lost frame, so on each timeout `kick` should call
/// `retransmit_unacked()` on the peer endpoint. Gives up with
/// [`TransportError::RetryExhausted`] after [`RetryPolicy::max_retries`]
/// silent attempts, reporting how many attempts were made and how long
/// the backoff waited (in [`RetryPolicy::tick`] units).
pub fn recv_retrying(
    policy: &RetryPolicy,
    mut recv: impl FnMut(Duration) -> Result<Message, TransportError>,
    mut kick: impl FnMut(),
) -> Result<Message, TransportError> {
    let base = policy.tick.max(Duration::from_micros(100));
    let mut wait = base;
    let mut attempts = 0u32;
    let mut backoff_ticks = 0u64;
    for _ in 0..=policy.max_retries {
        attempts += 1;
        match recv(wait) {
            Err(TransportError::Timeout) => {
                backoff_ticks += (wait.as_nanos() / base.as_nanos().max(1)) as u64;
                kick();
                wait = (wait * 2).min(policy.max_backoff);
            }
            other => return other,
        }
    }
    Err(TransportError::RetryExhausted { attempts, backoff_ticks })
}

/// The shared "receive from silo `client` or declare it dead" block: a
/// kick-driven bounded receive whose failure is wrapped as a typed
/// [`ProtocolError::SiloDead`] carrying the retry-budget context
/// (attempts, elapsed backoff ticks, last delivered frame seq). `from` is
/// the endpoint being read; `peer` is the opposite endpoint of the same
/// link, kicked on silent ticks when one thread holds both ends (pass
/// `from` itself when the peer runs on its own thread).
pub fn recv_or_dead(
    policy: &RetryPolicy,
    phase: &'static str,
    client: usize,
    from: &Endpoint,
    peer: &Endpoint,
) -> Result<Message, ProtocolError> {
    recv_retrying(policy, |d| from.recv_timeout(d), || peer.retransmit_unacked())
        .map_err(|source| dead_silo(phase, client, from, source))
}

/// Wraps a transport error as [`ProtocolError::SiloDead`], attaching the
/// retry context recorded by [`recv_retrying`] and the last frame seq
/// delivered on `from`.
pub fn dead_silo(
    phase: &'static str,
    client: usize,
    from: &Endpoint,
    source: TransportError,
) -> ProtocolError {
    let retry = match &source {
        TransportError::RetryExhausted { attempts, backoff_ticks } => {
            Some(crate::error::RetryContext {
                attempts: *attempts,
                backoff_ticks: *backoff_ticks,
                last_seq: from.last_delivered_seq(),
            })
        }
        _ => None,
    };
    ProtocolError::SiloDead { client, phase, retry, source }
}

/// Marks one protocol round completed.
pub fn bump_round(stats: &SharedStats) {
    stats.lock().rounds += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    #[test]
    fn bytes_are_counted_per_direction() {
        let stats = new_stats();
        let (client, coord) = link(Arc::clone(&stats));
        let up = Message::LatentUpload { client: 0, rows: 2, cols: 2, data: vec![1.0; 4] };
        client.send(&up).unwrap();
        assert_eq!(coord.recv().unwrap(), up);
        let down = Message::Ack;
        coord.send(&down).unwrap();
        assert_eq!(client.recv().unwrap(), down);

        let s = *stats.lock();
        assert_eq!(s.bytes_up, up.wire_size() as u64);
        assert_eq!(s.bytes_down, down.wire_size() as u64);
        assert_eq!(s.messages_up, 1);
        assert_eq!(s.messages_down, 1);
        assert_eq!(s.overhead_bytes(), 0);
    }

    #[test]
    fn links_share_one_stats_ledger() {
        let stats = new_stats();
        let (c1, _k1) = link(Arc::clone(&stats));
        let (c2, _k2) = link(Arc::clone(&stats));
        c1.send(&Message::Ack).unwrap();
        c2.send(&Message::Ack).unwrap();
        assert_eq!(stats.lock().messages_up, 2);
    }

    #[test]
    fn disconnect_is_an_error() {
        let stats = new_stats();
        let (client, coord) = link(stats);
        drop(coord);
        assert!(matches!(client.send(&Message::Ack), Err(TransportError::Disconnected)));
    }

    #[test]
    fn works_across_threads() {
        let stats = new_stats();
        let (client, coord) = link(Arc::clone(&stats));
        let handle = std::thread::spawn(move || {
            let msg = coord.recv().unwrap();
            coord.send(&msg).unwrap();
        });
        let m = Message::SynthesisRequest { client: 1, n: 5 };
        client.send(&m).unwrap();
        assert_eq!(client.recv().unwrap(), m);
        handle.join().unwrap();
        assert_eq!(stats.lock().total_bytes(), 2 * m.wire_size() as u64);
    }

    fn fast_net(plan: FaultPlan) -> NetConfig {
        NetConfig { faults: Some(plan), retry: RetryPolicy::fast(), ..NetConfig::default() }
    }

    #[test]
    fn reliable_noop_plan_delivers_and_counts_framed_bytes() {
        let stats = new_stats();
        let net = fast_net(FaultPlan::default());
        let (client, coord) = link_with(Arc::clone(&stats), 0, &net);
        let m = Message::SynthesisRequest { client: 1, n: 5 };
        client.send(&m).unwrap();
        assert_eq!(coord.recv().unwrap(), m);
        let s = *stats.lock();
        // Framed first transmission: 17-byte header + payload.
        assert_eq!(s.bytes_up, 17 + m.wire_size() as u64);
        assert_eq!(s.messages_up, 1);
        assert_eq!(s.bytes_retried, 0);
        // Delivery triggered exactly one standalone ack.
        assert_eq!(s.bytes_ack, 9);
    }

    #[test]
    fn scripted_drop_recovers_via_kick_retransmission() {
        let stats = new_stats();
        let net = fast_net(FaultPlan { drop_nth: vec![0], ..Default::default() });
        let (client, coord) = link_with(Arc::clone(&stats), 0, &net);
        let m = Message::LatentUpload { client: 0, rows: 2, cols: 2, data: vec![0.5; 4] };
        client.send(&m).unwrap(); // transmission 0: dropped
        let got =
            recv_retrying(&net.retry, |d| coord.recv_timeout(d), || client.retransmit_unacked())
                .unwrap();
        assert_eq!(got, m);
        let s = *stats.lock();
        assert!(s.retransmits >= 1, "drop must force a retransmission");
        assert!(s.bytes_retried > 0);
        assert_eq!(s.messages_up, 1, "retries are not new messages");
        assert!(s.timeouts >= 1);
    }

    #[test]
    fn duplicates_are_dropped_exactly_once_effective() {
        let stats = new_stats();
        let net = fast_net(FaultPlan { duplicate: 1.0, ..Default::default() });
        let (client, coord) = link_with(Arc::clone(&stats), 0, &net);
        let m = Message::SynthesisRequest { client: 0, n: 3 };
        client.send(&m).unwrap(); // delivered twice by the injector
        assert_eq!(coord.recv().unwrap(), m);
        // The replay must be eaten by the dedup window, not delivered.
        assert!(matches!(
            coord.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        ));
        assert!(stats.lock().duplicates_dropped >= 1);
    }

    #[test]
    fn blackhole_exhausts_retry_budget() {
        let stats = new_stats();
        let net = fast_net(FaultPlan { disconnect_after: Some(0), ..Default::default() });
        let (client, coord) = link_with(stats, 0, &net);
        let m = Message::Ack;
        client.send(&m).unwrap(); // swallowed by the black hole
        let err = recv_retrying(
            &RetryPolicy { recv_deadline: Duration::from_millis(50), ..RetryPolicy::fast() },
            |d| coord.recv_timeout(d),
            || client.retransmit_unacked(),
        )
        .unwrap_err();
        let TransportError::RetryExhausted { attempts, backoff_ticks } = err else {
            panic!("expected RetryExhausted, got {err:?}");
        };
        assert_eq!(attempts, RetryPolicy::fast().max_retries + 1);
        assert!(backoff_ticks >= u64::from(attempts) - 1, "every silent attempt waits >= 1 tick");
        assert!(client.has_unacked());
    }

    #[test]
    fn reordered_frames_are_delivered_in_sequence() {
        // Drop transmission 1 (the second message); after both sends the
        // kick retransmits it and the receiver must deliver 0 then 1.
        let stats = new_stats();
        let net = fast_net(FaultPlan { drop_nth: vec![1], ..Default::default() });
        let (client, coord) = link_with(stats, 0, &net);
        let a = Message::SynthesisRequest { client: 0, n: 1 };
        let b = Message::SynthesisRequest { client: 0, n: 2 };
        client.send(&a).unwrap();
        client.send(&b).unwrap(); // dropped
        let recv = |_| {
            recv_retrying(&net.retry, |d| coord.recv_timeout(d), || client.retransmit_unacked())
                .unwrap()
        };
        assert_eq!(recv(()), a);
        assert_eq!(recv(()), b);
    }

    #[test]
    fn control_bytes_never_touch_protocol_ledgers() {
        // Plain link.
        let stats = new_stats();
        let (client, coord) = link(Arc::clone(&stats));
        let beat = Message::Heartbeat { client: 0, tick: 3 };
        client.send(&beat).unwrap();
        assert_eq!(coord.recv().unwrap(), beat);
        {
            let s = *stats.lock();
            assert_eq!(s.bytes_up, 0, "heartbeats must not leak into bytes_up");
            assert_eq!(s.messages_up, 0);
            assert_eq!(s.bytes_control, beat.wire_size() as u64);
            assert_eq!(s.messages_control, 1);
        }
        // Reliable link: framed size, still in the control ledger only.
        let stats = new_stats();
        let net = fast_net(FaultPlan::default());
        let (client, coord) = link_with(Arc::clone(&stats), 0, &net);
        let rejoin = Message::RejoinRequest { client: 0, resume_step: 8 };
        client.send(&rejoin).unwrap();
        assert_eq!(coord.recv().unwrap(), rejoin);
        let s = *stats.lock();
        assert_eq!(s.bytes_up, 0);
        assert_eq!(s.bytes_control, 17 + rejoin.wire_size() as u64);
        assert_eq!(s.messages_control, 1);
    }

    #[test]
    fn partitioned_link_heals_and_replays_in_order() {
        // Up transmissions 0 delivered, 1..3 cut, 3 heals. The coordinator
        // keeps sending into the partition; after heal, kick-driven
        // retransmission replays everything in sequence order.
        let stats = new_stats();
        let net = fast_net(FaultPlan {
            partition_at: Some(1),
            rejoin_at: Some(3),
            partition_client: 0,
            ..Default::default()
        });
        let (client, coord) = link_with(Arc::clone(&stats), 0, &net);
        let beat = |t| Message::Heartbeat { client: 0, tick: t };
        client.send(&beat(0)).unwrap(); // up 0: delivered
        assert_eq!(coord.recv().unwrap(), beat(0));

        // Coordinator sends two payloads into the (soon) dead link.
        let a = Message::SyntheticLatents { client: 0, rows: 1, cols: 2, data: vec![1.0, 2.0] };
        let b = Message::SyntheticLatents { client: 0, rows: 1, cols: 2, data: vec![3.0, 4.0] };
        client.send(&beat(1)).unwrap(); // up 1: cut — partition engages
        coord.send(&a).unwrap(); // down: swallowed (partition active)
        coord.send(&b).unwrap(); // down: swallowed
        assert!(matches!(
            client.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        ));

        client.send(&beat(2)).unwrap(); // up 2: cut
        client.send(&beat(3)).unwrap(); // up 3: heals the link
                                        // The beats lost to the partition replay in sequence order before
                                        // the fresh one is delivered.
        let recv_up = || {
            recv_retrying(&net.retry, |d| coord.recv_timeout(d), || client.retransmit_unacked())
                .unwrap()
        };
        assert_eq!(recv_up(), beat(1), "lost beats replay in order after heal");
        assert_eq!(recv_up(), beat(2));
        assert_eq!(recv_up(), beat(3));
        // The coordinator's swallowed payloads replay the same way.
        let recv = || {
            recv_retrying(&net.retry, |d| client.recv_timeout(d), || coord.retransmit_unacked())
                .unwrap()
        };
        assert_eq!(recv(), a);
        assert_eq!(recv(), b);
        let s = *stats.lock();
        assert!(s.bytes_retried > 0, "replay is ledgered as retransmission overhead");
        assert_eq!(s.bytes_down, (17 + a.wire_size() + 17 + b.wire_size()) as u64);
    }

    #[test]
    fn recv_or_dead_wraps_retry_context() {
        let stats = new_stats();
        let net = fast_net(FaultPlan {
            partition_at: Some(1),
            partition_client: 0,
            ..Default::default()
        });
        let (client, coord) = link_with(stats, 0, &net);
        client.send(&Message::Heartbeat { client: 0, tick: 0 }).unwrap(); // delivered
        assert!(coord.recv().is_ok());
        client.send(&Message::Ack).unwrap(); // cut forever
        let policy = RetryPolicy { max_retries: 3, ..RetryPolicy::fast() };
        let err = recv_or_dead(&policy, "latent-upload", 0, &coord, &client).unwrap_err();
        let ProtocolError::SiloDead { client: c, phase, retry, .. } = err else {
            panic!("expected SiloDead");
        };
        assert_eq!(c, 0);
        assert_eq!(phase, "latent-upload");
        let ctx = retry.expect("retry exhaustion carries context");
        assert_eq!(ctx.attempts, 4);
        assert_eq!(ctx.last_seq, Some(0), "seq 0 (the beat) was the last delivered frame");
    }

    #[test]
    fn flush_drains_the_send_window() {
        let stats = new_stats();
        let net = fast_net(FaultPlan::default());
        let (client, coord) = link_with(stats, 0, &net);
        client.send(&Message::Ack).unwrap();
        assert!(client.has_unacked());
        assert_eq!(coord.recv().unwrap(), Message::Ack); // acks seq 0
        assert!(client.flush(Duration::from_millis(200)), "ack should drain the window");
        assert!(!client.has_unacked());
    }
}
