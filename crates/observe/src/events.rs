//! Telemetry event types: train, comm, wire and phase events.

/// Which way a message crossed the client↔coordinator link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → coordinator.
    Up,
    /// Coordinator → client.
    Down,
}

impl Direction {
    /// Lowercase wire/metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Up => "up",
            Direction::Down => "down",
        }
    }
}

/// Model-training progress events.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainEvent {
    /// One (possibly throttled) training epoch/step report.
    Epoch {
        /// Which model emitted it (`"autoencoder"`, `"ddpm"`, ...).
        model: &'static str,
        /// Step or epoch index within the fit.
        epoch: u64,
        /// Loss at this step.
        loss: f64,
        /// Learning rate in effect.
        lr: f64,
        /// Rows in the batch/table this step trained on.
        rows: u64,
    },
}

/// One message crossing the simulated network link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommEvent {
    /// Transfer direction.
    pub direction: Direction,
    /// `Message::kind()` of the payload.
    pub msg_kind: &'static str,
    /// Wire size in bytes.
    pub bytes: u64,
}

/// Whether a wire event marks a payload leaving or arriving at an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireOp {
    /// Payload handed to the link by this actor.
    Send,
    /// Payload delivered to this actor and decoded.
    Recv,
}

impl WireOp {
    /// Lowercase wire/metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            WireOp::Send => "send",
            WireOp::Recv => "recv",
        }
    }
}

/// One traced transport payload crossing a link boundary, stamped with
/// the local actor's Lamport time — the raw material of the merged
/// cross-silo trace. Only recorded when a [`crate::TraceContext`] rode
/// on the wire, i.e. when tracing was enabled at send time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEvent {
    /// Send or receive, from the recording actor's point of view.
    pub op: WireOp,
    /// Stable link id (the transport's `link_id`), pairing the send and
    /// receive sides of the same payload across actors.
    pub link: u64,
    /// Traffic direction on the link (up = client → coordinator).
    pub direction: Direction,
    /// `Message::kind()` of the payload.
    pub msg_kind: &'static str,
    /// Base wire size in bytes (excluding the trace header itself).
    pub bytes: u64,
    /// The recording actor's Lamport time after the tick (send) or
    /// merge (receive). The *only* input to causal ordering.
    pub lamport: u64,
    /// Nanoseconds since the hub's epoch when the event was recorded;
    /// stamped by the [`crate::Telemetry`] that records it (construct
    /// with 0). Used for durations in reports only — never for ordering.
    pub at_nanos: u64,
}

/// Entry into a named pipeline phase (encode, latent-train, sample, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Phase name.
    pub phase: &'static str,
    /// Global phase entry counter (order across the whole run).
    pub seq: u64,
}

/// A recorded event, preserved in arrival order for export.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// See [`TrainEvent`].
    Train(TrainEvent),
    /// See [`CommEvent`].
    Comm(CommEvent),
    /// See [`WireEvent`].
    Wire(WireEvent),
    /// See [`PhaseEvent`].
    Phase(PhaseEvent),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_labels() {
        assert_eq!(Direction::Up.as_str(), "up");
        assert_eq!(Direction::Down.as_str(), "down");
    }
}
