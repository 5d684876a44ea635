//! Typed protocol failures.
//!
//! Under a [`crate::faults::FaultPlan`], every blocking receive is bounded
//! and every retransmission budgeted; when a silo stays silent past the
//! budget the protocols return one of these instead of hanging on an
//! unbounded channel or panicking through an `expect`.

use crate::transport::TransportError;
use silofuse_checkpoint::CheckpointError;

/// Retry-budget context attached to a [`ProtocolError::SiloDead`], so an
/// operator can tell a slow link (few attempts, short backoff) from a
/// dead peer (full budget burned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryContext {
    /// Bounded receive attempts made before giving up.
    pub attempts: u32,
    /// Total silent wait, in [`crate::faults::RetryPolicy::tick`] units.
    pub backoff_ticks: u64,
    /// Highest frame sequence number ever delivered from the silo on
    /// this link, if any — `None` means the silo was never heard from.
    pub last_seq: Option<u64>,
}

impl std::fmt::Display for RetryContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "after {} attempts over {} backoff ticks; ", self.attempts, self.backoff_ticks)?;
        match self.last_seq {
            Some(seq) => write!(f, "last frame seq {seq}"),
            None => write!(f, "never heard from"),
        }
    }
}

/// A distributed protocol run failed.
#[derive(Debug)]
pub enum ProtocolError {
    /// A silo exhausted its retry/timeout budget during `phase`.
    SiloDead {
        /// Client index (coordinator-relative link id).
        client: usize,
        /// Protocol phase that gave up (`"latent-upload"`, `"grad-download"`, ...).
        phase: &'static str,
        /// Retry-budget context when the cause was retry exhaustion.
        retry: Option<RetryContext>,
        /// The transport-level cause.
        source: TransportError,
    },
    /// Too many silos died for the configured
    /// [`crate::supervision::DegradePolicy`] to keep the run alive.
    QuorumLost {
        /// Protocol phase in which the quorum was lost.
        phase: &'static str,
        /// Live silos at the time of the check.
        alive: usize,
        /// Total silos in the run.
        total: usize,
        /// Minimum live silos the policy requires.
        required: usize,
    },
    /// A peer sent a message the protocol state machine cannot accept.
    Unexpected {
        /// Protocol phase that received it.
        phase: &'static str,
        /// Debug rendering of the offending message.
        got: String,
    },
    /// A node crashed (injected via `crash_at`) with no checkpointer
    /// enabled, so it cannot restart and rejoin.
    Crashed {
        /// The node that died (`"silo 2"`, `"coordinator"`).
        node: String,
        /// Phase the crash fired in.
        phase: String,
        /// Completed-step count at the crash.
        step: u64,
    },
    /// Checkpoint I/O or state restoration failed on a node.
    Checkpoint {
        /// The node that failed (`"silo 2"`, `"coordinator"`).
        node: String,
        /// The checkpoint-level cause.
        source: CheckpointError,
    },
    /// A request carried parameters the protocol must reject (e.g. an
    /// inference-step count of zero or above the schedule length, or a
    /// zero synthesis chunk size).
    InvalidRequest {
        /// Protocol phase that rejected the request.
        phase: &'static str,
        /// The cause of the rejection.
        source: silofuse_diffusion::SampleRequestError,
    },
    /// A caller named a client index the run does not have.
    NoSuchClient {
        /// The requested client index.
        client: usize,
        /// Number of clients in the run (valid indices are `0..clients`).
        clients: usize,
    },
    /// The serving layer refused to admit a new synthesis job: either
    /// the server-wide in-flight bound or the tenant's own quota is
    /// already full. The request was rejected immediately instead of
    /// queuing forever — the caller should back off and retry.
    Overloaded {
        /// Tenant whose job was refused.
        tenant: String,
        /// Jobs currently running against the contended bound.
        in_flight: usize,
        /// The bound that was hit (server-wide or per-tenant).
        limit: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::SiloDead { client, phase, retry, source } => {
                write!(f, "silo {client} declared dead during {phase}: {source}")?;
                if let Some(ctx) = retry {
                    write!(f, " ({ctx})")?;
                }
                Ok(())
            }
            ProtocolError::QuorumLost { phase, alive, total, required } => {
                write!(
                    f,
                    "quorum lost during {phase}: {alive} of {total} silos alive, \
                     policy requires {required}"
                )
            }
            ProtocolError::Unexpected { phase, got } => {
                write!(f, "unexpected message during {phase}: {got}")
            }
            ProtocolError::Crashed { node, phase, step } => {
                write!(f, "{node} crashed during {phase} at step {step} with no checkpointer; cannot rejoin")
            }
            ProtocolError::Checkpoint { node, source } => {
                write!(f, "checkpoint failure on {node}: {source}")
            }
            ProtocolError::InvalidRequest { phase, source } => {
                write!(f, "invalid request during {phase}: {source}")
            }
            ProtocolError::NoSuchClient { client, clients } => {
                write!(f, "no client {client}: the run has {clients} clients")
            }
            ProtocolError::Overloaded { tenant, in_flight, limit } => {
                write!(
                    f,
                    "tenant {tenant} rejected: {in_flight} jobs in flight at limit {limit}; \
                     back off and retry"
                )
            }
        }
    }
}

impl ProtocolError {
    /// Maps `node`'s checkpoint failures to protocol errors: an injected
    /// crash keeps its phase and step as [`ProtocolError::Crashed`],
    /// anything else becomes [`ProtocolError::Checkpoint`].
    pub(crate) fn checkpoint(node: &str) -> impl Fn(CheckpointError) -> Self + Copy + '_ {
        move |source| match source {
            CheckpointError::Crashed { phase, step } => {
                ProtocolError::Crashed { node: node.into(), phase, step }
            }
            source => ProtocolError::Checkpoint { node: node.into(), source },
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::SiloDead { source, .. } => Some(source),
            ProtocolError::Checkpoint { source, .. } => Some(source),
            ProtocolError::InvalidRequest { source, .. } => Some(source),
            ProtocolError::Unexpected { .. }
            | ProtocolError::Crashed { .. }
            | ProtocolError::QuorumLost { .. }
            | ProtocolError::NoSuchClient { .. }
            | ProtocolError::Overloaded { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_silo_and_phase() {
        let e = ProtocolError::SiloDead {
            client: 2,
            phase: "latent-upload",
            retry: Some(RetryContext { attempts: 12, backoff_ticks: 57, last_seq: Some(4) }),
            source: TransportError::RetryExhausted { attempts: 12, backoff_ticks: 57 },
        };
        let msg = e.to_string();
        assert!(msg.contains("silo 2"), "{msg}");
        assert!(msg.contains("latent-upload"), "{msg}");
        // The retry-budget context lets operators tell a slow link from a
        // dead peer.
        assert!(msg.contains("12 attempts"), "{msg}");
        assert!(msg.contains("57 backoff ticks"), "{msg}");
        assert!(msg.contains("last frame seq 4"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_without_retry_context_stays_terse() {
        let e = ProtocolError::SiloDead {
            client: 0,
            phase: "grad-download",
            retry: None,
            source: TransportError::Disconnected,
        };
        let msg = e.to_string();
        assert!(msg.contains("peer disconnected"), "{msg}");
        assert!(!msg.contains("attempts"), "{msg}");
        // A silo never heard from renders explicitly.
        let ctx = RetryContext { attempts: 3, backoff_ticks: 3, last_seq: None };
        assert!(ctx.to_string().contains("never heard from"));
    }

    #[test]
    fn overloaded_display_names_tenant_and_bound() {
        let e = ProtocolError::Overloaded { tenant: "acme".to_string(), in_flight: 4, limit: 4 };
        let msg = e.to_string();
        assert!(msg.contains("acme"), "{msg}");
        assert!(msg.contains("4 jobs in flight at limit 4"), "{msg}");
        assert!(msg.contains("back off"), "{msg}");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn quorum_lost_display_names_the_arithmetic() {
        let e =
            ProtocolError::QuorumLost { phase: "latent-upload", alive: 1, total: 3, required: 2 };
        let msg = e.to_string();
        assert!(msg.contains("1 of 3"), "{msg}");
        assert!(msg.contains("requires 2"), "{msg}");
        assert!(std::error::Error::source(&e).is_none());
    }
}
