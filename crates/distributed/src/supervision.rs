//! Silo supervision: heartbeat failure detection, per-run membership,
//! and quorum-gated graceful degradation.
//!
//! The paper's cross-silo protocols assume every feature silo stays
//! online for the whole pipeline. Real federated deployments must keep
//! serving when a participant drops, so the coordinator runs a
//! deterministic, tick-based failure detector over the reliable
//! transport:
//!
//! - Silos send [`crate::message::Heartbeat`] control frames stamped
//!   with their *logical* clock (training step or synthesis chunk —
//!   never wall clock). Heartbeats ride the reliable layer but are
//!   ledgered in [`crate::transport::CommStats::bytes_control`], so the
//!   paper's Fig. 10 byte accounting is untouched.
//! - The coordinator's bounded receives feed a [`MembershipTable`]:
//!   silent ticks push a silo Healthy → Suspected; retry-budget
//!   exhaustion (deterministic for a fixed fault plan) pushes it
//!   Suspected → Dead; a later heartbeat or rejoin handshake brings it
//!   back as Rejoined.
//! - A [`DegradePolicy`] decides what a death means: `fail-fast` aborts
//!   the run with a typed [`crate::error::ProtocolError::SiloDead`],
//!   `quorum(k)` keeps going while at least `k` silos survive,
//!   `best-effort` keeps going while any survive. Under degradation the
//!   dead silo's feature columns are emitted as typed
//!   [`SiloOutput::Masked`] values — never silently imputed.
//!
//! Each protocol has a single synthesis engine, and supervision is its
//! policy rather than a second code path: the default
//! [`SupervisorConfig`] (fail-fast, heartbeats off, no silo pre-dead) is
//! the plain fail-fast protocol, byte for byte on the wire.
//!
//! Everything here is driven by logical clocks and the deterministic
//! retry budget, so a fixed seed and fault plan produce bit-identical
//! degraded output at any thread count. Only the transient Suspected
//! state may differ with wall-clock timing; it never affects output.

use crate::transport::{Endpoint, TransportError};
use crate::Message;
use silofuse_observe as observe;
use silofuse_tabular::schema::Schema;
use silofuse_tabular::table::Table;
use std::time::Duration;

/// Liveness state of one silo, as seen by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiloHealth {
    /// Heartbeats (or protocol traffic) arriving normally.
    Healthy,
    /// Missed enough consecutive detector ticks to be suspect; not yet
    /// declared dead. Transient — never affects protocol output.
    Suspected,
    /// Retry budget exhausted: the coordinator will not wait for this
    /// silo again unless it rejoins.
    Dead,
    /// Was dead, then completed the rejoin handshake and caught up.
    Rejoined,
}

impl SiloHealth {
    /// Stable lowercase name for logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            SiloHealth::Healthy => "healthy",
            SiloHealth::Suspected => "suspected",
            SiloHealth::Dead => "dead",
            SiloHealth::Rejoined => "rejoined",
        }
    }

    /// Whether the coordinator should still exchange traffic with the
    /// silo (Healthy, Suspected, and Rejoined silos are all live).
    pub fn is_alive(self) -> bool {
        !matches!(self, SiloHealth::Dead)
    }
}

/// One recorded membership transition, stamped with the detector's
/// logical tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Which silo transitioned.
    pub silo: usize,
    /// Logical tick (protocol-phase specific: training step, upload
    /// index, or synthesis chunk) at which the transition was observed.
    pub tick: u64,
    /// State before the transition.
    pub from: SiloHealth,
    /// State after the transition.
    pub to: SiloHealth,
}

/// Per-run membership table driven by the failure detector.
///
/// Tracks each silo's [`SiloHealth`] plus a consecutive-miss counter, and
/// records every transition in an event log for post-run inspection. All
/// transitions update the `membership.*` gauges in `silofuse-observe`.
#[derive(Debug, Clone)]
pub struct MembershipTable {
    states: Vec<SiloHealth>,
    misses: Vec<u32>,
    suspect_after: u32,
    events: Vec<MembershipEvent>,
}

impl MembershipTable {
    /// A table of `n` healthy silos; silos listed in `pre_dead` start
    /// Dead at tick 0 (used to build surviving-silos-only oracle runs
    /// with silo indices — and therefore per-silo seeds — preserved).
    pub fn new(n: usize, suspect_after: u32, pre_dead: &[usize]) -> Self {
        let mut table = Self {
            states: vec![SiloHealth::Healthy; n],
            misses: vec![0; n],
            suspect_after: suspect_after.max(1),
            events: Vec::new(),
        };
        for &silo in pre_dead {
            if silo < n {
                table.transition(silo, SiloHealth::Dead, 0);
            }
        }
        table.publish_gauges();
        table
    }

    /// Current state of `silo`.
    pub fn state(&self, silo: usize) -> SiloHealth {
        self.states[silo]
    }

    /// Whether `silo` is live (not Dead).
    pub fn is_alive(&self, silo: usize) -> bool {
        self.states[silo].is_alive()
    }

    /// Number of live silos.
    pub fn n_alive(&self) -> usize {
        self.states.iter().filter(|s| s.is_alive()).count()
    }

    /// Total number of silos in the run.
    pub fn n_total(&self) -> usize {
        self.states.len()
    }

    /// Indices of live silos, ascending.
    pub fn alive_indices(&self) -> Vec<usize> {
        (0..self.states.len()).filter(|&i| self.is_alive(i)).collect()
    }

    /// Indices of dead silos, ascending.
    pub fn dead_indices(&self) -> Vec<usize> {
        (0..self.states.len()).filter(|&i| !self.is_alive(i)).collect()
    }

    /// The transition log, in observation order.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// Records a heartbeat (or any protocol traffic) from `silo`: the
    /// miss counter resets and a Suspected silo returns to Healthy. A
    /// slow-but-alive silo is therefore never declared dead by beat
    /// processing alone — only retry-budget exhaustion kills.
    pub fn beat(&mut self, silo: usize, tick: u64) {
        observe::count(observe::names::SUPERVISION_HEARTBEATS, 1);
        self.misses[silo] = 0;
        if self.states[silo] == SiloHealth::Suspected {
            self.transition(silo, SiloHealth::Healthy, tick);
            self.publish_gauges();
        }
    }

    /// Records one silent detector tick for `silo`; after `suspect_after`
    /// consecutive misses a Healthy/Rejoined silo becomes Suspected.
    /// Returns the state after the miss.
    pub fn miss(&mut self, silo: usize, tick: u64) -> SiloHealth {
        observe::count(observe::names::SUPERVISION_MISSES, 1);
        self.misses[silo] = self.misses[silo].saturating_add(1);
        if self.misses[silo] >= self.suspect_after
            && matches!(self.states[silo], SiloHealth::Healthy | SiloHealth::Rejoined)
        {
            self.transition(silo, SiloHealth::Suspected, tick);
            self.publish_gauges();
        }
        self.states[silo]
    }

    /// Declares `silo` dead (retry budget exhausted).
    pub fn mark_dead(&mut self, silo: usize, tick: u64) {
        if self.states[silo] != SiloHealth::Dead {
            self.transition(silo, SiloHealth::Dead, tick);
            self.publish_gauges();
        }
    }

    /// Marks a dead `silo` as rejoined (handshake completed, caught up).
    pub fn mark_rejoined(&mut self, silo: usize, tick: u64) {
        self.misses[silo] = 0;
        if self.states[silo] == SiloHealth::Dead {
            observe::count(observe::names::SUPERVISION_REJOINS, 1);
            self.transition(silo, SiloHealth::Rejoined, tick);
            self.publish_gauges();
        }
    }

    fn transition(&mut self, silo: usize, to: SiloHealth, tick: u64) {
        let from = self.states[silo];
        self.states[silo] = to;
        self.events.push(MembershipEvent { silo, tick, from, to });
    }

    fn publish_gauges(&self) {
        let count = |want: SiloHealth| self.states.iter().filter(|&&s| s == want).count() as f64;
        observe::gauge(observe::names::MEMBERSHIP_HEALTHY, count(SiloHealth::Healthy));
        observe::gauge(observe::names::MEMBERSHIP_SUSPECTED, count(SiloHealth::Suspected));
        observe::gauge(observe::names::MEMBERSHIP_DEAD, count(SiloHealth::Dead));
        observe::gauge(observe::names::MEMBERSHIP_REJOINED, count(SiloHealth::Rejoined));
    }
}

/// What the coordinator does when a silo's retry budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// The default: the first dead silo aborts the run with a typed
    /// [`crate::error::ProtocolError::SiloDead`].
    #[default]
    FailFast,
    /// Continue while at least `k` silos survive; fewer aborts with
    /// [`crate::error::ProtocolError::QuorumLost`].
    Quorum(usize),
    /// Continue while at least one silo survives.
    BestEffort,
}

impl DegradePolicy {
    /// Parses the CLI syntax: `fail-fast`, `quorum` (paired with
    /// `--quorum k`), or `best-effort`.
    pub fn parse(value: &str, quorum: usize) -> Result<Self, String> {
        match value {
            "fail-fast" => Ok(DegradePolicy::FailFast),
            "quorum" => {
                if quorum == 0 {
                    return Err("--degrade quorum requires --quorum k with k >= 1".to_string());
                }
                Ok(DegradePolicy::Quorum(quorum))
            }
            "best-effort" => Ok(DegradePolicy::BestEffort),
            other => Err(format!(
                "--degrade: unknown policy `{other}` (expected fail-fast | quorum | best-effort)"
            )),
        }
    }

    /// Stable name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DegradePolicy::FailFast => "fail-fast",
            DegradePolicy::Quorum(_) => "quorum",
            DegradePolicy::BestEffort => "best-effort",
        }
    }

    /// Whether a run with `alive` of `total` silos may continue.
    pub fn permits(&self, alive: usize, total: usize) -> bool {
        match *self {
            DegradePolicy::FailFast => alive == total,
            DegradePolicy::Quorum(k) => alive >= k.min(total),
            DegradePolicy::BestEffort => alive >= 1,
        }
    }

    /// Whether deaths are survivable at all under this policy.
    pub fn degrades(&self) -> bool {
        !matches!(self, DegradePolicy::FailFast)
    }

    /// Minimum live silos this policy requires in a `total`-silo run
    /// (the `required` reported by
    /// [`crate::error::ProtocolError::QuorumLost`]).
    pub fn required(&self, total: usize) -> usize {
        match *self {
            DegradePolicy::FailFast => total,
            DegradePolicy::Quorum(k) => k.min(total),
            DegradePolicy::BestEffort => 1.min(total),
        }
    }
}

/// Configuration of the supervision layer, carried on
/// [`crate::faults::NetConfig`]. The default disables supervision
/// entirely (no heartbeats, fail-fast on death, no silo pre-dead): the
/// protocols' synthesis engines then run as plain fail-fast protocols
/// with exact byte accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Degradation policy applied when a silo dies.
    pub policy: DegradePolicy,
    /// Send a heartbeat every this many logical ticks of client work
    /// (training steps during fits; every chunk during synthesis).
    /// `0` disables heartbeats.
    pub heartbeat_every: u64,
    /// Consecutive silent detector ticks before a silo is Suspected.
    pub suspect_after: u32,
    /// Silos excluded from the run at tick 0 (never spawned), with their
    /// indices — and therefore per-silo seeds — preserved. This is how
    /// surviving-silos-only oracle runs are built for the degraded
    /// bit-identity gate.
    pub pre_dead: Vec<usize>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            policy: DegradePolicy::FailFast,
            heartbeat_every: 0,
            suspect_after: 3,
            pre_dead: Vec::new(),
        }
    }
}

impl SupervisorConfig {
    /// A supervisor that degrades under `policy`, beating every
    /// `heartbeat_every` ticks.
    pub fn new(policy: DegradePolicy, heartbeat_every: u64) -> Self {
        Self { policy, heartbeat_every, ..Self::default() }
    }

    /// Whether any part of the supervision layer is active (heartbeats
    /// flow or deaths are survivable or silos are pre-declared dead).
    pub fn enabled(&self) -> bool {
        self.heartbeat_every > 0 || self.policy.degrades() || !self.pre_dead.is_empty()
    }

    /// Whether clients should emit heartbeats.
    pub fn heartbeats_enabled(&self) -> bool {
        self.heartbeat_every > 0
    }

    /// Builder: pre-declare `silos` dead at tick 0 (oracle runs).
    pub fn with_pre_dead(mut self, silos: Vec<usize>) -> Self {
        self.pre_dead = silos;
        self
    }

    /// Builds the membership table for an `n`-silo run.
    pub fn membership(&self, n: usize) -> MembershipTable {
        MembershipTable::new(n, self.suspect_after, &self.pre_dead)
    }

    /// The lease-based failure detector: receives silo `silo`'s next
    /// protocol frame from `from`, one bounded receive of `lease` per
    /// lease. Any frame renews the lease; heartbeats are absorbed into
    /// `membership` and the wait goes on. `suspect_after` consecutive
    /// silent leases suspect the silo, and one more exhausts the budget
    /// as [`TransportError::RetryExhausted`]. `kick` runs on every silent
    /// lease, as in [`crate::transport::recv_retrying`]: a thread that
    /// holds both ends of the link retransmits the silo's frames there.
    ///
    /// Deliveries are governed solely by the deterministic fault plan, so
    /// the Dead verdict is identical at any thread count (only the
    /// transient Suspected state can differ with timing, and it never
    /// affects output).
    pub(crate) fn recv_leased(
        &self,
        silo: usize,
        from: &Endpoint,
        lease: Duration,
        membership: &mut MembershipTable,
        mut kick: impl FnMut(),
    ) -> Result<Message, TransportError> {
        let budget = u64::from(self.suspect_after) + 1;
        let mut misses = 0u64;
        loop {
            match from.recv_timeout(lease) {
                Ok(Message::Heartbeat { client, tick }) => {
                    if (client as usize) < membership.n_total() {
                        membership.beat(client as usize, tick);
                    }
                    misses = 0;
                }
                Ok(msg) => return Ok(msg),
                Err(TransportError::Timeout) => {
                    kick();
                    misses += 1;
                    membership.miss(silo, misses);
                    if misses >= budget {
                        return Err(TransportError::RetryExhausted {
                            attempts: misses as u32,
                            backoff_ticks: misses,
                        });
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// One silo's share of a synthesis result under graceful degradation.
///
/// A dead silo's columns are *typed as masked*, never silently imputed:
/// downstream consumers must decide explicitly what a masked partition
/// means for them.
#[derive(Debug, Clone, PartialEq)]
pub enum SiloOutput {
    /// The silo was alive: its decoded synthetic feature columns.
    Decoded(Table),
    /// The silo was dead at synthesis time: its columns exist in the
    /// logical output schema but carry no values.
    Masked {
        /// Schema of the columns this silo would have produced.
        schema: Schema,
        /// Number of synthetic rows the run produced (matching the
        /// decoded partitions).
        rows: usize,
    },
}

impl SiloOutput {
    /// The decoded table, if this partition was produced.
    pub fn decoded(&self) -> Option<&Table> {
        match self {
            SiloOutput::Decoded(t) => Some(t),
            SiloOutput::Masked { .. } => None,
        }
    }

    /// Whether this partition is masked.
    pub fn is_masked(&self) -> bool {
        matches!(self, SiloOutput::Masked { .. })
    }

    /// Column names of this partition (decoded or masked).
    pub fn column_names(&self) -> Vec<String> {
        let schema = match self {
            SiloOutput::Decoded(t) => t.schema(),
            SiloOutput::Masked { schema, .. } => schema,
        };
        schema.columns().iter().map(|c| c.name.clone()).collect()
    }

    /// Row count of this partition.
    pub fn rows(&self) -> usize {
        match self {
            SiloOutput::Decoded(t) => t.n_rows(),
            SiloOutput::Masked { rows, .. } => *rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_transitions_and_log() {
        let mut m = MembershipTable::new(3, 2, &[]);
        assert_eq!(m.n_alive(), 3);
        assert_eq!(m.state(1), SiloHealth::Healthy);

        // One miss: still healthy. Two: suspected. A beat heals.
        assert_eq!(m.miss(1, 10), SiloHealth::Healthy);
        assert_eq!(m.miss(1, 11), SiloHealth::Suspected);
        m.beat(1, 12);
        assert_eq!(m.state(1), SiloHealth::Healthy);

        // Death is terminal until a rejoin.
        m.mark_dead(1, 20);
        assert!(!m.is_alive(1));
        assert_eq!(m.n_alive(), 2);
        assert_eq!(m.alive_indices(), vec![0, 2]);
        assert_eq!(m.dead_indices(), vec![1]);
        m.mark_rejoined(1, 30);
        assert_eq!(m.state(1), SiloHealth::Rejoined);
        assert!(m.is_alive(1));
        assert_eq!(m.n_alive(), 3);

        let transitions: Vec<(usize, SiloHealth, SiloHealth)> =
            m.events().iter().map(|e| (e.silo, e.from, e.to)).collect();
        assert_eq!(
            transitions,
            vec![
                (1, SiloHealth::Healthy, SiloHealth::Suspected),
                (1, SiloHealth::Suspected, SiloHealth::Healthy),
                (1, SiloHealth::Healthy, SiloHealth::Dead),
                (1, SiloHealth::Dead, SiloHealth::Rejoined),
            ]
        );
    }

    #[test]
    fn beats_never_resurrect_the_dead() {
        // Only the rejoin handshake revives a dead silo; a stray beat
        // (e.g. one buffered before the partition) must not.
        let mut m = MembershipTable::new(2, 1, &[]);
        m.mark_dead(0, 5);
        m.beat(0, 6);
        assert_eq!(m.state(0), SiloHealth::Dead);
    }

    #[test]
    fn pre_dead_silos_start_dead_with_indices_preserved() {
        let m = MembershipTable::new(3, 3, &[1]);
        assert_eq!(m.alive_indices(), vec![0, 2]);
        assert_eq!(m.state(1), SiloHealth::Dead);
        assert_eq!(m.events().len(), 1);
        assert_eq!(m.events()[0].tick, 0);
    }

    #[test]
    fn degrade_policy_parse_and_permits() {
        assert_eq!(DegradePolicy::parse("fail-fast", 0).unwrap(), DegradePolicy::FailFast);
        assert_eq!(DegradePolicy::parse("quorum", 2).unwrap(), DegradePolicy::Quorum(2));
        assert_eq!(DegradePolicy::parse("best-effort", 0).unwrap(), DegradePolicy::BestEffort);
        assert!(DegradePolicy::parse("quorum", 0).is_err());
        assert!(DegradePolicy::parse("sometimes", 0).is_err());

        assert!(DegradePolicy::FailFast.permits(3, 3));
        assert!(!DegradePolicy::FailFast.permits(2, 3));
        assert!(DegradePolicy::Quorum(2).permits(2, 3));
        assert!(!DegradePolicy::Quorum(2).permits(1, 3));
        assert!(DegradePolicy::BestEffort.permits(1, 3));
        assert!(!DegradePolicy::BestEffort.permits(0, 3));
        // A quorum larger than the cohort degenerates to "all alive".
        assert!(DegradePolicy::Quorum(9).permits(3, 3));

        assert_eq!(DegradePolicy::FailFast.required(3), 3);
        assert_eq!(DegradePolicy::Quorum(2).required(3), 2);
        assert_eq!(DegradePolicy::Quorum(9).required(3), 3);
        assert_eq!(DegradePolicy::BestEffort.required(3), 1);
    }

    #[test]
    fn default_supervisor_is_disabled() {
        let sup = SupervisorConfig::default();
        assert!(!sup.enabled());
        assert!(!sup.heartbeats_enabled());
        assert!(!sup.policy.degrades());
        assert!(SupervisorConfig::new(DegradePolicy::BestEffort, 0).enabled());
        assert!(SupervisorConfig::new(DegradePolicy::FailFast, 4).enabled());
        assert!(SupervisorConfig::default().with_pre_dead(vec![0]).enabled());
    }

    #[test]
    fn silo_output_exposes_masked_shape() {
        use silofuse_tabular::schema::ColumnMeta;
        let schema =
            Schema::new(vec![ColumnMeta::numeric("age"), ColumnMeta::categorical("job", 4)]);
        let masked = SiloOutput::Masked { schema, rows: 10 };
        assert!(masked.is_masked());
        assert_eq!(masked.rows(), 10);
        assert_eq!(masked.column_names(), vec!["age".to_string(), "job".to_string()]);
        assert!(masked.decoded().is_none());
    }
}
