//! Deterministic adversarial fault injection at the radio seam (DST).
//!
//! A [`FaultPlan`] describes *wire-level* adversity — extra frame drops,
//! duplicated deliveries, delayed (and therefore reordered) deliveries,
//! time-windowed link partitions, and byzantine-silent senders — plus
//! *scenario-level* churn storms that harnesses apply through scheduled
//! control closures (the kernel cannot construct applications, so mass
//! leave/join bursts are data here and actions in `pds-dst`).
//!
//! The determinism contract of DESIGN.md §8 is preserved by construction:
//!
//! * Every probabilistic fault decision consumes a **plan-owned** rng
//!   stream seeded from [`FaultPlan::seed`], never the kernel stream, so a
//!   run with a no-op plan installed dispatches the exact event stream —
//!   and replay digest — of a run with no plan at all.
//! * Partition and silence checks are pure time/id predicates (no rng).
//! * Delayed and duplicated deliveries travel through the ordinary event
//!   queue as `FaultDeliver` events, so they are folded into the replay
//!   digest and replay identically across runs.
//! * With no plan installed the delivery path pays a single
//!   `Option::is_some` branch (mirroring the trace-sink pattern).

use crate::radio::Frame;
use pds_core::NodeId;
use pds_core::SimRng;
use pds_core::{SimDuration, SimTime};
use pds_det::DetMap;

/// A time window during which the node set is split in two and frames
/// crossing the split are cut (both directions). Healing is implicit:
/// outside `[from, until)` the link behaves normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive) — the partition heals here.
    pub until: SimTime,
    /// Nodes with id `< boundary` form one side, the rest the other.
    pub boundary: u32,
}

impl PartitionWindow {
    /// Whether a frame from `s` to `r` at `now` crosses the cut.
    #[must_use]
    pub fn cuts(&self, s: NodeId, r: NodeId, now: SimTime) -> bool {
        self.from <= now && now < self.until && (s.0 < self.boundary) != (r.0 < self.boundary)
    }
}

/// A time window during which one node is byzantine-silent: it keeps
/// transmitting (occupying airtime, colliding with others) but none of its
/// frames are ever received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SilenceWindow {
    /// The silenced transmitter.
    pub node: u32,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl SilenceWindow {
    /// Whether frames sent by `s` at `now` are suppressed.
    #[must_use]
    pub fn silences(&self, s: NodeId, now: SimTime) -> bool {
        self.node == s.0 && self.from <= now && now < self.until
    }
}

/// A mass leave/join burst. The kernel carries this as plan data only; DST
/// harnesses turn it into `World::schedule` closures (removing `leave`
/// nodes at `at` and re-adding fresh ones `rejoin_after` later when
/// `rejoin` is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnStorm {
    /// When the burst strikes.
    pub at: SimTime,
    /// How many nodes leave at once.
    pub leave: u32,
    /// Whether replacements join afterwards.
    pub rejoin: bool,
    /// Delay before replacements join (ignored unless `rejoin`).
    pub rejoin_after: SimDuration,
}

/// A complete deterministic fault schedule for one run.
///
/// Identical (world seed, plan) pairs replay identically; the plan's own
/// `seed` feeds every probabilistic fault decision.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan-owned rng stream (independent of the world seed).
    pub seed: u64,
    /// Extra per-reception drop probability, on top of natural losses.
    pub drop_prob: f64,
    /// Probability a received frame is *also* re-delivered later.
    pub dup_prob: f64,
    /// Probability a received frame is delayed instead of delivered now
    /// (delays reorder it against every frame in between).
    pub delay_prob: f64,
    /// Upper bound of the uniform extra delivery delay.
    pub delay_max: SimDuration,
    /// Link-level partitions (with implicit heal at each window end).
    pub partitions: Vec<PartitionWindow>,
    /// Byzantine-silent transmitter windows.
    pub silences: Vec<SilenceWindow>,
    /// Churn storms, applied by harnesses (see [`ChurnStorm`]).
    pub storms: Vec<ChurnStorm>,
}

impl FaultPlan {
    /// A plan that injects nothing. Installing it must leave replay
    /// digests and statistics bit-identical to running with no plan.
    #[must_use]
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_max: SimDuration::from_millis(200),
            partitions: Vec::new(),
            silences: Vec::new(),
            storms: Vec::new(),
        }
    }

    /// Whether this plan can ever perturb the wire.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.partitions.is_empty()
            && self.silences.is_empty()
    }

    /// Whether a frame from `s` to `r` at `now` is cut by a partition or a
    /// silence window (pure predicate; consumes no randomness).
    #[must_use]
    pub fn cuts(&self, s: NodeId, r: NodeId, now: SimTime) -> bool {
        self.silences.iter().any(|w| w.silences(s, now))
            || self.partitions.iter().any(|w| w.cuts(s, r, now))
    }
}

/// A reception diverted off the immediate delivery path, waiting on its
/// `FaultDeliver` event.
#[derive(Debug)]
pub(crate) struct PendingDelivery {
    pub receiver: NodeId,
    /// Originating transmission id (for tracing).
    pub tx: u64,
    pub frame: Frame,
}

/// Kernel-side state of an installed [`FaultPlan`].
#[derive(Debug)]
pub(crate) struct FaultState {
    pub plan: FaultPlan,
    /// The plan-owned rng stream. Never forked from the world rng, so
    /// installing a plan cannot perturb kernel randomness.
    rng: SimRng,
    pub pending: DetMap<u64, PendingDelivery>,
    next_pending: u64,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SimRng::new(plan.seed);
        Self {
            plan,
            rng,
            pending: DetMap::default(),
            next_pending: 0,
        }
    }

    /// Rolls the extra-drop fault for one reception.
    pub fn roll_drop(&mut self) -> bool {
        self.plan.drop_prob > 0.0 && self.rng.chance(self.plan.drop_prob)
    }

    /// Rolls the delay fault; `Some(at)` diverts the reception to `at`.
    pub fn roll_delay(&mut self, now: SimTime) -> Option<SimTime> {
        if self.plan.delay_prob > 0.0 && self.rng.chance(self.plan.delay_prob) {
            Some(now + self.extra_delay())
        } else {
            None
        }
    }

    /// Rolls the duplicate fault; `Some(at)` schedules a second delivery
    /// at `at` in addition to the immediate one.
    pub fn roll_dup(&mut self, now: SimTime) -> Option<SimTime> {
        if self.plan.dup_prob > 0.0 && self.rng.chance(self.plan.dup_prob) {
            Some(now + self.extra_delay())
        } else {
            None
        }
    }

    fn extra_delay(&mut self) -> SimDuration {
        let hi = self.plan.delay_max.as_micros().max(1);
        SimDuration::from_micros(self.rng.range_u64(1, hi + 1))
    }

    /// Registers a diverted reception; the caller schedules the returned
    /// id's `FaultDeliver` event.
    pub fn enqueue(&mut self, receiver: NodeId, tx: u64, frame: Frame) -> u64 {
        let id = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(
            id,
            PendingDelivery {
                receiver,
                tx,
                frame,
            },
        );
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn partition_cuts_only_across_boundary_inside_window() {
        let w = PartitionWindow {
            from: t(1.0),
            until: t(2.0),
            boundary: 4,
        };
        assert!(w.cuts(NodeId(0), NodeId(7), t(1.5)));
        assert!(w.cuts(NodeId(7), NodeId(0), t(1.0)));
        assert!(!w.cuts(NodeId(0), NodeId(3), t(1.5)), "same side");
        assert!(!w.cuts(NodeId(0), NodeId(7), t(0.5)), "before window");
        assert!(!w.cuts(NodeId(0), NodeId(7), t(2.0)), "healed");
    }

    #[test]
    fn silence_suppresses_one_sender_in_window() {
        let w = SilenceWindow {
            node: 3,
            from: t(0.0),
            until: t(5.0),
        };
        assert!(w.silences(NodeId(3), t(4.9)));
        assert!(!w.silences(NodeId(2), t(4.9)));
        assert!(!w.silences(NodeId(3), t(5.0)));
    }

    #[test]
    fn noop_plan_is_noop_and_storms_do_not_count() {
        let mut p = FaultPlan::none(9);
        assert!(p.is_noop());
        p.storms.push(ChurnStorm {
            at: t(1.0),
            leave: 3,
            rejoin: true,
            rejoin_after: SimDuration::from_secs(2),
        });
        assert!(p.is_noop(), "storms are harness-side, not wire-side");
        p.drop_prob = 0.1;
        assert!(!p.is_noop());
    }

    #[test]
    fn rolls_are_deterministic_per_seed() {
        let mut plan = FaultPlan::none(42);
        plan.drop_prob = 0.5;
        plan.delay_prob = 0.3;
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for _ in 0..200 {
            assert_eq!(a.roll_drop(), b.roll_drop());
            assert_eq!(a.roll_delay(t(1.0)), b.roll_delay(t(1.0)));
        }
    }

    #[test]
    fn zero_probability_rolls_consume_no_rng() {
        // A no-op plan must leave its rng untouched so the guard in
        // `roll_*` is airtight; drop_prob == 0 short-circuits.
        let mut s = FaultState::new(FaultPlan::none(7));
        for _ in 0..100 {
            assert!(!s.roll_drop());
            assert!(s.roll_delay(t(0.0)).is_none());
            assert!(s.roll_dup(t(0.0)).is_none());
        }
        let mut fresh = SimRng::new(7);
        assert_eq!(s.rng.next_u64(), fresh.next_u64(), "stream unconsumed");
    }
}
