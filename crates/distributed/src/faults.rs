//! Deterministic fault injection for the cross-silo transport.
//!
//! A [`FaultPlan`] describes, per link and direction, how the simulated
//! network misbehaves: independent drop/duplicate probabilities, a bounded
//! uniform delivery delay, a scripted "drop transmission N" schedule, and a
//! hard disconnect after N transmissions (the link turns into a black
//! hole). Every decision is drawn from a [`StdRng`] seeded from
//! `plan.seed`, the link id, and the direction, so a given plan replays
//! identically across runs — the property the fault-matrix integration
//! test pins down.
//!
//! Injection happens *beneath* [`crate::transport::link_with`]: protocols
//! never see a fault directly, only its consequences (a recv timeout, a
//! retransmission, a deduplicated replay, or a dead peer once the retry
//! budget is exhausted).

use crate::supervision::SupervisorConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silofuse_checkpoint::CrashPoint;
use silofuse_observe as observe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A seeded, per-link fault schedule. `FaultPlan::default()` injects
/// nothing (but still routes traffic through the reliable delivery layer).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that a transmission is silently dropped.
    pub drop: f64,
    /// Probability that a transmission is delivered twice.
    pub duplicate: f64,
    /// Maximum injected delivery delay (uniform in `[0, delay]`).
    pub delay: Duration,
    /// Kill the link (black hole both ways) after this many transmissions
    /// on a direction.
    pub disconnect_after: Option<u64>,
    /// Scripted schedule: drop exactly the N-th transmission (0-based,
    /// counted per link direction), regardless of `drop`.
    pub drop_nth: Vec<u64>,
    /// Kill a node at `phase:step` (e.g. `ae-train:40`, `latent-upload:0`,
    /// `latent-train:100`, `joint-train:12`). The node restarts, reloads
    /// its last checkpoint, and rejoins the protocol; without a
    /// checkpointer the crash is fatal
    /// ([`crate::error::ProtocolError::Crashed`]).
    pub crash_at: Option<CrashPoint>,
    /// Which client silo the crash targets for client-side phases
    /// (`ae-train`, `latent-upload`). Coordinator phases (`latent-train`,
    /// `joint-train`) ignore it.
    pub crash_client: usize,
    /// Partition the target link (black hole *both* directions) starting
    /// at this up-direction transmission index. The partition clock is the
    /// link's logical up-transmission counter (first transmissions only,
    /// never retransmissions), so a fixed plan always cuts the same
    /// protocol message regardless of wall-clock timing.
    pub partition_at: Option<u64>,
    /// Heal the partition at this up-transmission index (the indexed
    /// transmission is delivered again). `None` leaves the link dead for
    /// the rest of the run. Must be greater than `partition_at`.
    pub rejoin_at: Option<u64>,
    /// Which client link `partition_at`/`rejoin_at` target.
    pub partition_client: usize,
    /// Master seed for all per-link RNG streams.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            delay: Duration::ZERO,
            disconnect_after: None,
            drop_nth: Vec::new(),
            crash_at: None,
            crash_client: 0,
            partition_at: None,
            rejoin_at: None,
            partition_client: 0,
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// Parses the CLI syntax
    /// `drop=0.05,delay=10ms,dup=0.02,disconnect_after=40,drop_nth=3;9,crash_at=ae-train:40,crash_client=1,seed=7`.
    ///
    /// Every key is optional; unknown keys are an error. `delay` accepts
    /// `10ms`, `2s`, or a bare number of milliseconds. `crash_at` takes a
    /// `phase:step` pair (use step `0` for the one-shot `latent-upload`
    /// phase).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("--faults: expected key=value, got `{part}`"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "drop" => plan.drop = parse_prob(key, value)?,
                "dup" | "duplicate" => plan.duplicate = parse_prob(key, value)?,
                "delay" => plan.delay = parse_duration(value)?,
                "disconnect_after" => {
                    plan.disconnect_after = Some(
                        value
                            .parse()
                            .map_err(|_| format!("--faults: bad disconnect_after `{value}`"))?,
                    );
                }
                "drop_nth" => {
                    plan.drop_nth = value
                        .split(';')
                        .map(|v| {
                            v.trim()
                                .parse()
                                .map_err(|_| format!("--faults: bad drop_nth entry `{v}`"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "crash_at" => {
                    plan.crash_at =
                        Some(CrashPoint::parse(value).map_err(|e| format!("--faults: {e}"))?);
                }
                "crash_client" => {
                    plan.crash_client = value
                        .parse()
                        .map_err(|_| format!("--faults: bad crash_client `{value}`"))?;
                }
                "partition_at" => {
                    plan.partition_at = Some(
                        value
                            .parse()
                            .map_err(|_| format!("--faults: bad partition_at `{value}`"))?,
                    );
                }
                "rejoin_at" => {
                    plan.rejoin_at = Some(
                        value.parse().map_err(|_| format!("--faults: bad rejoin_at `{value}`"))?,
                    );
                }
                "partition_client" => {
                    plan.partition_client = value
                        .parse()
                        .map_err(|_| format!("--faults: bad partition_client `{value}`"))?;
                }
                "seed" => {
                    plan.seed =
                        value.parse().map_err(|_| format!("--faults: bad seed `{value}`"))?;
                }
                other => return Err(format!("--faults: unknown key `{other}`")),
            }
        }
        if let (Some(p), Some(r)) = (plan.partition_at, plan.rejoin_at) {
            if r <= p {
                return Err(format!(
                    "--faults: rejoin_at ({r}) must be greater than partition_at ({p})"
                ));
            }
        }
        if plan.rejoin_at.is_some() && plan.partition_at.is_none() {
            return Err("--faults: rejoin_at requires partition_at".to_string());
        }
        Ok(plan)
    }

    /// True when the plan can never perturb a message or kill a node.
    pub fn is_noop(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.delay == Duration::ZERO
            && self.disconnect_after.is_none()
            && self.drop_nth.is_empty()
            && self.crash_at.is_none()
            && self.partition_at.is_none()
    }
}

fn parse_prob(key: &str, value: &str) -> Result<f64, String> {
    let p: f64 =
        value.parse().map_err(|_| format!("--faults: bad probability for `{key}`: `{value}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("--faults: `{key}` must be in [0, 1], got {p}"));
    }
    Ok(p)
}

/// Parses a duration argument: `10ms`, `250us`, `2s`, or a bare number of
/// milliseconds. Shared by the `--faults delay=` key and the CLI retry
/// flags (`--retry-deadline`, `--retry-max-backoff`).
pub fn parse_duration(value: &str) -> Result<Duration, String> {
    let (digits, unit) = match value.find(|c: char| c.is_ascii_alphabetic()) {
        Some(i) => value.split_at(i),
        None => (value, "ms"),
    };
    let n: u64 = digits.parse().map_err(|_| format!("--faults: bad delay `{value}`"))?;
    match unit {
        "ms" => Ok(Duration::from_millis(n)),
        "us" => Ok(Duration::from_micros(n)),
        "s" => Ok(Duration::from_secs(n)),
        other => Err(format!("--faults: unknown delay unit `{other}`")),
    }
}

/// Retransmission and timeout policy of the reliable delivery layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Initial recv poll interval; doubles per silent tick (exponential
    /// backoff) up to [`RetryPolicy::max_backoff`].
    pub tick: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Retransmission rounds a protocol attempts before declaring the
    /// peer silo dead.
    pub max_retries: u32,
    /// Overall budget for a single blocking receive; a peer that stays
    /// silent this long is dead (replaces the seed's block-forever recv).
    pub recv_deadline: Duration,
    /// Receive-side reorder buffer cap, in frames. An out-of-order frame
    /// whose sequence number is `>= next_expected + reorder_window` is
    /// dropped instead of buffered (the sender's retransmission recovers
    /// it), so dup/reorder-heavy fault plans cannot grow the buffer
    /// without bound. Must be at least 1.
    pub reorder_window: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(2),
            max_backoff: Duration::from_millis(64),
            max_retries: 16,
            recv_deadline: Duration::from_secs(30),
            reorder_window: 64,
        }
    }
}

impl RetryPolicy {
    /// A tight policy for tests: millisecond ticks, sub-second deadline.
    pub fn fast() -> Self {
        Self {
            tick: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            max_retries: 10,
            recv_deadline: Duration::from_millis(400),
            reorder_window: 64,
        }
    }
}

/// Network configuration handed to protocols: an optional fault plan plus
/// the retry policy. `NetConfig::default()` is the perfect network the
/// seed assumed — the transport then behaves byte-identically to the
/// fault-free implementation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetConfig {
    /// Fault schedule; `None` disables the reliability layer entirely.
    pub faults: Option<FaultPlan>,
    /// Retransmission policy (only consulted when `faults` is set).
    pub retry: RetryPolicy,
    /// Supervision layer configuration (heartbeats, membership,
    /// degradation policy). `SupervisorConfig::default()` disables it,
    /// preserving fail-fast semantics and exact byte accounting.
    pub supervision: SupervisorConfig,
}

impl NetConfig {
    /// A faulty network with the default retry policy.
    pub fn faulty(plan: FaultPlan) -> Self {
        Self { faults: Some(plan), ..Self::default() }
    }

    /// Whether the reliability layer (framing, acks, dedup) is active.
    pub fn reliable(&self) -> bool {
        self.faults.is_some()
    }
}

/// What the injector decided for one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Deliver normally; `extra_copy` requests a duplicate delivery.
    Deliver {
        /// Deliver a second copy of the frame.
        extra_copy: bool,
        /// Sleep this long before enqueuing (sender-side, preserves FIFO).
        delay: Duration,
    },
    /// Silently drop this transmission.
    Drop,
    /// The link is dead: swallow this and every later transmission.
    Blackhole,
}

/// Shared two-direction partition state for one link, driven by a logical
/// clock: the count of *first* up-direction transmissions attempted so
/// far. Up transmission `n` is swallowed iff
/// `partition_at <= n < rejoin_at`; the down direction (and any
/// retransmission) is swallowed while the latest up index sits inside
/// that window. Keying both directions off the silo's own send progress
/// keeps the cut deterministic for a fixed plan — wall-clock retry timing
/// never moves it.
#[derive(Debug)]
pub(crate) struct PartitionWindow {
    partition_at: u64,
    rejoin_at: Option<u64>,
    up_sent: AtomicU64,
}

impl PartitionWindow {
    pub(crate) fn new(partition_at: u64, rejoin_at: Option<u64>) -> Arc<Self> {
        Arc::new(Self { partition_at, rejoin_at, up_sent: AtomicU64::new(0) })
    }

    /// Builds the window for `link_id` if the plan partitions that link.
    pub(crate) fn for_link(plan: &FaultPlan, link_id: u64) -> Option<Arc<Self>> {
        match plan.partition_at {
            Some(at) if plan.partition_client as u64 == link_id => {
                Some(Self::new(at, plan.rejoin_at))
            }
            _ => None,
        }
    }

    fn swallows_index(&self, n: u64) -> bool {
        n >= self.partition_at && self.rejoin_at.is_none_or(|r| n < r)
    }

    /// Advances the up-transmission clock for a first transmission and
    /// reports whether that transmission is swallowed.
    pub(crate) fn on_first_up(&self) -> bool {
        let n = self.up_sent.fetch_add(1, Ordering::SeqCst);
        self.swallows_index(n)
    }

    /// Whether the partition is currently active (for down-direction
    /// traffic and retransmissions in either direction).
    pub(crate) fn active(&self) -> bool {
        let t = self.up_sent.load(Ordering::SeqCst);
        t > self.partition_at && self.rejoin_at.is_none_or(|r| t <= r)
    }
}

/// Per-link, per-direction injector state.
#[derive(Debug)]
pub(crate) struct LinkFaults {
    plan: FaultPlan,
    rng: StdRng,
    sent: u64,
    dead: bool,
    partition: Option<Arc<PartitionWindow>>,
    /// True on the client half of the link (its sends are "up").
    is_up: bool,
}

impl LinkFaults {
    pub(crate) fn with_partition(
        plan: FaultPlan,
        link_id: u64,
        direction_salt: u64,
        partition: Option<Arc<PartitionWindow>>,
    ) -> Self {
        let seed = plan
            .seed
            .wrapping_add(link_id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(direction_salt.wrapping_mul(0xd1b5_4a32_d192_ed03));
        let is_up = direction_salt == 0;
        Self { plan, rng: StdRng::seed_from_u64(seed), sent: 0, dead: false, partition, is_up }
    }

    /// Decides the fate of the next transmission; `first` is false for
    /// retransmissions, which never advance the partition clock (their
    /// count is wall-clock dependent and must not move the cut point).
    /// Always draws the same number of RNG values so the stream stays
    /// aligned across outcomes.
    pub(crate) fn next_for(&mut self, first: bool) -> FaultAction {
        let n = self.sent;
        self.sent += 1;
        if self.dead {
            return FaultAction::Blackhole;
        }
        if let Some(win) = &self.partition {
            let cut = if self.is_up && first { win.on_first_up() } else { win.active() };
            if cut {
                observe::count(observe::names::FAULT_PARTITION, 1);
                return FaultAction::Blackhole;
            }
        }
        if self.plan.disconnect_after.is_some_and(|k| n >= k) {
            self.dead = true;
            observe::count(observe::names::FAULT_DISCONNECT, 1);
            return FaultAction::Blackhole;
        }
        let drop_draw: f64 = self.rng.gen();
        let dup_draw: f64 = self.rng.gen();
        let delay_draw: f64 = self.rng.gen();
        if self.plan.drop_nth.contains(&n) || drop_draw < self.plan.drop {
            observe::count(observe::names::FAULT_DROP, 1);
            return FaultAction::Drop;
        }
        let extra_copy = dup_draw < self.plan.duplicate;
        if extra_copy {
            observe::count(observe::names::FAULT_DUPLICATE, 1);
        }
        let delay = self.plan.delay.mul_f64(delay_draw);
        if !delay.is_zero() {
            observe::count(observe::names::FAULT_DELAY, 1);
        }
        FaultAction::Deliver { extra_copy, delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "drop=0.05,delay=10ms,dup=0.02,disconnect_after=40,drop_nth=3;9,seed=7",
        )
        .unwrap();
        assert_eq!(plan.drop, 0.05);
        assert_eq!(plan.duplicate, 0.02);
        assert_eq!(plan.delay, Duration::from_millis(10));
        assert_eq!(plan.disconnect_after, Some(40));
        assert_eq!(plan.drop_nth, vec![3, 9]);
        assert_eq!(plan.seed, 7);
        assert!(!plan.is_noop());
    }

    #[test]
    fn parse_defaults_and_units() {
        assert!(FaultPlan::parse("").unwrap().is_noop());
        assert_eq!(FaultPlan::parse("delay=2s").unwrap().delay, Duration::from_secs(2));
        assert_eq!(FaultPlan::parse("delay=5").unwrap().delay, Duration::from_millis(5));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("nope=1").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("delay=1h").is_err());
        assert!(FaultPlan::parse("crash_at=ae-train").is_err());
        assert!(FaultPlan::parse("crash_at=:3").is_err());
        assert!(FaultPlan::parse("crash_client=x").is_err());
    }

    #[test]
    fn parse_crash_keys() {
        let plan = FaultPlan::parse("crash_at=latent-train:120,crash_client=2").unwrap();
        let cp = plan.crash_at.as_ref().unwrap();
        assert_eq!(cp.phase, "latent-train");
        assert_eq!(cp.step, 120);
        assert_eq!(plan.crash_client, 2);
        assert!(!plan.is_noop(), "a crash plan perturbs the run");
        assert!(FaultPlan::parse("crash_client=1").unwrap().is_noop());
    }

    #[test]
    fn injector_is_deterministic_per_link() {
        let plan = FaultPlan { drop: 0.3, duplicate: 0.3, seed: 11, ..Default::default() };
        let run = |link: u64| {
            let mut f = LinkFaults::with_partition(plan.clone(), link, 1, None);
            (0..64).map(|_| f.next_for(true)).collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0), "same link replays identically");
        assert_ne!(run(0), run(1), "links draw independent streams");
    }

    #[test]
    fn parse_partition_keys() {
        let plan = FaultPlan::parse("partition_at=4,rejoin_at=9,partition_client=2").unwrap();
        assert_eq!(plan.partition_at, Some(4));
        assert_eq!(plan.rejoin_at, Some(9));
        assert_eq!(plan.partition_client, 2);
        assert!(!plan.is_noop(), "a partition plan perturbs the run");
        assert!(FaultPlan::parse("partition_at=4,rejoin_at=4").is_err());
        assert!(FaultPlan::parse("partition_at=4,rejoin_at=2").is_err());
        assert!(FaultPlan::parse("rejoin_at=9").is_err(), "rejoin without partition");
        assert!(FaultPlan::parse("partition_at=x").is_err());
    }

    #[test]
    fn partition_window_cuts_and_heals_on_up_clock() {
        let win = PartitionWindow::new(2, Some(4));
        // Up indices 0,1 delivered; 2,3 swallowed; 4 heals.
        assert!(!win.on_first_up());
        assert!(!win.active(), "partition not yet reached");
        assert!(!win.on_first_up());
        assert!(win.on_first_up(), "index 2 is cut");
        assert!(win.active(), "down direction dead while cut");
        assert!(win.on_first_up());
        assert!(win.active());
        assert!(!win.on_first_up(), "index 4 heals the link");
        assert!(!win.active(), "down direction heals with it");
    }

    #[test]
    fn partition_without_rejoin_is_permanent() {
        let win = PartitionWindow::new(1, None);
        assert!(!win.on_first_up());
        for _ in 0..8 {
            assert!(win.on_first_up());
            assert!(win.active());
        }
    }

    #[test]
    fn retransmissions_do_not_advance_partition_clock() {
        let plan = FaultPlan { partition_at: Some(1), partition_client: 0, ..Default::default() };
        let win = PartitionWindow::for_link(&plan, 0).unwrap();
        let mut up = LinkFaults::with_partition(plan.clone(), 0, 0, Some(win.clone()));
        let mut down = LinkFaults::with_partition(plan.clone(), 0, 1, Some(win));
        assert!(matches!(up.next_for(true), FaultAction::Deliver { .. }));
        // Retransmissions before the cut point leave the clock alone.
        for _ in 0..5 {
            assert!(matches!(up.next_for(false), FaultAction::Deliver { .. }));
            assert!(matches!(down.next_for(false), FaultAction::Deliver { .. }));
        }
        assert_eq!(up.next_for(true), FaultAction::Blackhole, "index 1 is cut");
        assert_eq!(down.next_for(true), FaultAction::Blackhole, "down dies with it");
        assert_eq!(up.next_for(false), FaultAction::Blackhole);
    }

    #[test]
    fn for_link_targets_only_the_partition_client() {
        let plan = FaultPlan { partition_at: Some(0), partition_client: 1, ..Default::default() };
        assert!(PartitionWindow::for_link(&plan, 0).is_none());
        assert!(PartitionWindow::for_link(&plan, 1).is_some());
        assert!(PartitionWindow::for_link(&FaultPlan::default(), 1).is_none());
    }

    #[test]
    fn scripted_drops_and_disconnect_fire_exactly() {
        let plan = FaultPlan { drop_nth: vec![1], disconnect_after: Some(3), ..Default::default() };
        let mut f = LinkFaults::with_partition(plan, 0, 0, None);
        assert!(matches!(f.next_for(true), FaultAction::Deliver { .. }));
        assert_eq!(f.next_for(true), FaultAction::Drop);
        assert!(matches!(f.next_for(true), FaultAction::Deliver { .. }));
        assert_eq!(f.next_for(true), FaultAction::Blackhole);
        assert_eq!(f.next_for(true), FaultAction::Blackhole);
    }
}
