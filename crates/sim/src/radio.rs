//! Geometry, transmissions on the air, and their physical verdicts. The
//! frames they carry are the transport's wire format
//! ([`crate::transport::Frame`]).
//!
//! Propagation is a disk model: a frame transmitted by `s` can be received
//! by every alive node within `RANGE_M` of `s` — the broadcast/overhearing
//! property PDS exploits. Receptions fail on collision (another in-range
//! transmission overlaps in time), half-duplex conflict, or baseline random
//! loss; see [`World`](crate::World) for the delivery rules.

use crate::config::RANGE_M;
use crate::medium::Medium;
use crate::spatial::TxEntry;
use crate::transport::Frame;
use pds_core::NodeId;
use pds_core::SimTime;
use std::fmt;

/// A point in the 2-D simulation area, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East–west coordinate in meters.
    pub x: f64,
    /// North–south coordinate in meters.
    pub y: f64,
}

impl Position {
    /// Creates a position from coordinates in meters.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other` in meters.
    #[must_use]
    pub fn distance(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// Piecewise-linear motion: a node walks from `from` toward `to` at
/// `speed_mps`, then stays at `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Motion {
    pub from: Position,
    pub to: Position,
    pub depart: SimTime,
    pub speed_mps: f64,
}

impl Motion {
    /// A node standing still at `pos`.
    pub(crate) fn stationary(pos: Position, now: SimTime) -> Self {
        Self {
            from: pos,
            to: pos,
            depart: now,
            speed_mps: 0.0,
        }
    }

    /// Position at time `at` (clamped to the destination).
    pub(crate) fn position(&self, at: SimTime) -> Position {
        let total = self.from.distance(&self.to);
        if total <= f64::EPSILON || self.speed_mps <= 0.0 {
            return if at >= self.arrival() {
                self.to
            } else {
                self.from
            };
        }
        let walked = self.speed_mps * at.since(self.depart).as_secs_f64();
        if walked >= total {
            return self.to;
        }
        let f = walked / total;
        Position::new(
            self.from.x + (self.to.x - self.from.x) * f,
            self.from.y + (self.to.y - self.from.y) * f,
        )
    }

    /// Time the node reaches (or reached) its destination.
    pub(crate) fn arrival(&self) -> SimTime {
        let total = self.from.distance(&self.to);
        if total <= f64::EPSILON || self.speed_mps <= 0.0 {
            return self.depart;
        }
        self.depart + pds_core::SimDuration::from_secs_f64(total / self.speed_mps)
    }
}

/// A transmission in progress (or recently finished, kept for overlap
/// checks).
#[derive(Debug, Clone)]
pub(crate) struct Transmission {
    pub id: u64,
    pub sender: NodeId,
    /// Sender position captured at transmission start. Frames last
    /// milliseconds and nodes move at pedestrian speed, so this is the
    /// delivery geometry even if the sender moves or leaves mid-frame.
    pub start_pos: Position,
    pub start: SimTime,
    pub end: SimTime,
    pub frame: Frame,
}

impl Transmission {
    /// Whether two transmission windows overlap in time.
    pub(crate) fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && start < self.end
    }
}

/// Physical receive verdict for one in-range receiver of a transmission.
/// Everything that consumes randomness (baseline loss, fault rolls)
/// happens later, in `tx_end`'s commit loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhysOutcome {
    /// The receiver was transmitting an overlapping frame of its own.
    HalfDuplex,
    /// Interference beat the capture threshold at this receiver.
    Collided,
    /// Survived the physical layer; loss and fault rolls decide the rest.
    Survivor,
}

/// How [`phys_verdicts`] settled its receiver decisions (half-duplex ones
/// excluded): diagnostics, never simulation state. A run whose `fallback`
/// share is large has left the regime the far-field bound was built for
/// (DESIGN.md §18).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VerdictPaths {
    /// Receivers of transmissions cleared as a whole: no near interferer,
    /// and the far-field bound cannot beat capture even at the range edge.
    pub cleared: u64,
    /// Decided from the near sum and the far-field bound, with margin.
    pub bounded: u64,
    /// Every interferer was near, so the near sum *was* the full sum.
    pub exact: u64,
    /// Margin tests inconclusive: decided by the exhaustive sum.
    pub fallback: u64,
    /// Received powers computed by `powf` (path-loss memo misses).
    pub powf: u64,
    /// Received powers read back from the path-loss memo.
    pub memo_hits: u64,
}

/// Reusable candidate buffers for [`phys_verdicts`] — hot-path
/// allocations otherwise; the medium owns one.
#[derive(Debug, Default)]
pub(crate) struct PhysScratch {
    /// Receiver candidates from the node grid.
    pub cands_nodes: Vec<(NodeId, Motion)>,
    /// Interferer candidates from the transmission grid.
    pub cands_tx: Vec<TxEntry>,
    /// Deduplicated receivers with evaluated positions.
    pub receivers: Vec<(NodeId, Position)>,
    /// Deduplicated interferers with start positions.
    pub interferers: Vec<(NodeId, Position)>,
    /// The interferers within [`FAR_SPLIT`] ranges of the sender, in the
    /// same (ascending id) order.
    pub near: Vec<(NodeId, Position)>,
    /// Received power by distance.
    pub memo: PathLossMemo,
}

/// Slots of the [`PathLossMemo`]: 64 KiB of `(key, power)` pairs.
const MEMO_SLOTS: usize = 1 << 12;

/// An exact, direct-mapped memo of the received power `d.max(1.0)^-α`.
///
/// Static nodes see the same sender distances frame after frame, so most
/// arguments are exact repeats. The key is the bit pattern of
/// `d.max(1.0)`, which is never 0 (the empty mark), and a hit returns the
/// value `powf` produced for that very argument: every verdict is
/// bit-identical with or without the memo. A colliding key overwrites the
/// slot. A memo serves one α, its medium's, which is fixed for the life of
/// the medium, so no entry ever goes stale.
#[derive(Debug, Default)]
pub(crate) struct PathLossMemo {
    /// `(key bits, power)`, or `(0, _)` when empty. The default memo has
    /// no slots and remembers nothing.
    slots: Box<[(u64, f64)]>,
}

impl PathLossMemo {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![(0, 0.0); MEMO_SLOTS].into_boxed_slice(),
        }
    }

    /// The slot of `key`. Fibonacci hashing: the top bits of the product
    /// mix every key bit, so keys that differ only in low mantissa bits
    /// spread too.
    fn slot(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// Received power at distance `d` for path-loss exponent `alpha`, with
    /// a 1 m reference floor, counted into `paths`.
    pub(crate) fn power(&mut self, d: f64, alpha: f64, paths: &mut VerdictPaths) -> f64 {
        let x = d.max(1.0);
        let key = x.to_bits();
        match self.slots.get_mut(Self::slot(key)) {
            Some(&mut (k, p)) if k == key => {
                paths.memo_hits += 1;
                p
            }
            Some(entry) => {
                paths.powf += 1;
                let p = x.powf(-alpha);
                *entry = (key, p);
                p
            }
            // The default memo: nothing to remember into.
            None => {
                paths.powf += 1;
                x.powf(-alpha)
            }
        }
    }
}

/// Interferers farther than this many decode ranges from the *sender* are
/// bounded once per transmission instead of evaluated at every receiver.
/// Not a knob: any value > 1 gives the same verdicts (the bound is sound
/// and the fallback exact), it only trades near-list length against
/// bound tightness, and 3 sits past carrier-sense range (2×), where
/// concurrent senders are rare.
const FAR_SPLIT: f64 = 3.0;

/// The bound reasons with relative rounding errors, which hold only away
/// from the subnormal range: below this edge-of-range power (or above its
/// reciprocal as capture threshold) every interferer is treated as near.
const BOUND_MIN_POWER: f64 = 1e-100;

/// Computes the physical receive verdicts of `tx`, evaluated at its end
/// time, into `out` in ascending receiver-id order, and adds how each was
/// settled to `paths`.
///
/// Pure over the medium: two calls over equal state produce bit-identical
/// verdicts.
///
/// The capture decision at a receiver is *defined* by the exhaustive f64
/// interference sum over every interferer in ascending id order. Most
/// decisions are nowhere near that threshold, so they are settled by a
/// sound bound instead (DESIGN.md §18): an interferer `D` from the sender
/// is at least `D − range` from every in-range receiver, and power does
/// not grow with distance, so one `powf` per far interferer bounds its
/// contribution at all receivers at once. Only a decision within the
/// bound's slack of the threshold runs the exhaustive sum, unchanged.
pub(crate) fn phys_verdicts(
    medium: &Medium,
    tx: &Transmission,
    out: &mut Vec<(NodeId, PhysOutcome)>,
    scratch: &mut PhysScratch,
    paths: &mut VerdictPaths,
) {
    // `tx_end` dispatches exactly at the transmission's end time, so every
    // position below is evaluated at `tx.end`.
    let at = tx.end;
    let radio = &medium.radio;
    let range = RANGE_M;
    let tx_pos = tx.start_pos;
    // Candidates must come out ascending by id: the per-receiver rng rolls
    // at commit consume the shared stream, so receiver *order* is part of
    // the replay contract.
    let receivers = &mut scratch.receivers;
    receivers.clear();
    let cands = &mut scratch.cands_nodes;
    cands.clear();
    medium.node_grid.query_into(tx_pos, range, at, cands);
    cands.sort_unstable_by_key(|&(r, _)| r);
    cands.dedup_by_key(|&mut (r, _)| r);
    receivers.extend(
        cands
            .iter()
            .filter(|&&(r, _)| r != tx.sender)
            .map(|&(r, m)| (r, m.position(at))),
    );
    let path_loss = radio.path_loss_exp;
    let capture = radio.capture_sinr;
    let trunc = range * radio.interference_range_factor;
    // Received power at distance d goes through the memo.
    let memo = &mut scratch.memo;
    // Everything that could interfere with this frame at *some* receiver,
    // in ascending id order (f64 addition is not associative; the exact
    // per-receiver sum order is part of the replay contract).
    let keep =
        |t: &Transmission| t.id != tx.id && t.sender != tx.sender && t.overlaps(tx.start, tx.end);
    let interferers = &mut scratch.interferers;
    interferers.clear();
    if trunc.is_finite() {
        let cands = &mut scratch.cands_tx;
        cands.clear();
        medium.tx_grid.query_into(tx_pos, trunc + range, cands);
        cands.sort_unstable_by_key(|t| t.id);
        cands.dedup_by_key(|t| t.id);
        interferers.extend(
            cands
                .iter()
                .filter(|t| {
                    t.id != tx.id && t.sender != tx.sender && t.start < tx.end && tx.start < t.end
                })
                .map(|t| (t.sender, t.pos)),
        );
    } else {
        interferers.extend(
            medium
                .transmissions
                .values()
                .filter(|t| keep(t))
                .map(|t| (t.sender, t.start_pos)),
        );
    }
    // The exhaustive interference sum at one receiver over `list`: the
    // definition of the verdict when `list` is every interferer.
    let interference = |memo: &mut PathLossMemo,
                        paths: &mut VerdictPaths,
                        list: &[(NodeId, Position)],
                        r: NodeId,
                        rpos: Position|
     -> f64 {
        list.iter()
            .filter(|&&(s, _)| s != r)
            .map(|&(_, p)| p.distance(&rpos))
            .filter(|&d| d <= trunc)
            .map(|d| memo.power(d, path_loss, paths))
            .sum()
    };
    let collided = |signal: f64, interference: f64| {
        if interference > 0.0 && signal < capture * interference {
            PhysOutcome::Collided
        } else {
            PhysOutcome::Survivor
        }
    };
    // Far-field split. `u_far` bounds, at every in-range receiver, what
    // the far interferers can add to its sum; the horizon and `s != r`
    // filters only ever remove terms, so it stays an upper bound.
    let p_edge = memo.power(range, path_loss, paths);
    let split = if p_edge >= BOUND_MIN_POWER && capture * BOUND_MIN_POWER <= 1.0 {
        FAR_SPLIT * range
    } else {
        f64::INFINITY
    };
    let near = &mut scratch.near;
    near.clear();
    let mut u_far = 0.0;
    for &(s, p) in scratch.interferers.iter() {
        let d = tx_pos.distance(&p);
        if d > split && d.is_finite() {
            u_far += memo.power(d - range, path_loss, paths);
        } else {
            near.push((s, p));
        }
    }
    let all_near = near.len() == scratch.interferers.len();
    // Relative slack that dominates every rounding the bound is exposed
    // to: n summed terms, the α-amplified distance roundings, `powf`.
    let eps = (4.0 * scratch.interferers.len() as f64 + 32.0 * path_loss + 64.0) * f64::EPSILON;
    // No near interferer and even an edge-of-range signal captures over
    // the whole far field: every receiver survives, no arithmetic each.
    let clear = near.is_empty() && p_edge >= capture * u_far * (1.0 + eps);
    for &(r, rpos) in scratch.receivers.iter() {
        let d = tx_pos.distance(&rpos);
        if d > range {
            continue;
        }
        let half_duplex = medium.tx_by_sender.get(r.0 as usize).is_some_and(|ids| {
            ids.iter().any(|tid| {
                medium
                    .transmissions
                    .get(tid)
                    .is_some_and(|t| t.overlaps(tx.start, tx.end))
            })
        });
        if half_duplex {
            out.push((r, PhysOutcome::HalfDuplex));
            continue;
        }
        if clear {
            paths.cleared += 1;
            out.push((r, PhysOutcome::Survivor));
            continue;
        }
        let signal = memo.power(d, path_loss, paths);
        let near_sum = interference(memo, paths, near, r, rpos);
        let outcome = if all_near {
            paths.exact += 1;
            collided(signal, near_sum)
        } else if signal >= capture * (near_sum + u_far) * (1.0 + eps) {
            paths.bounded += 1;
            PhysOutcome::Survivor
        } else if signal < capture * near_sum * (1.0 - eps) {
            paths.bounded += 1;
            PhysOutcome::Collided
        } else {
            paths.fallback += 1;
            collided(
                signal,
                interference(memo, paths, &scratch.interferers, r, rpos),
            )
        };
        out.push((r, outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::transport::{FrameKind, MessageId};
    use pds_det::BitSet;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_motion_never_moves() {
        let m = Motion::stationary(Position::new(1.0, 2.0), SimTime::ZERO);
        assert_eq!(
            m.position(SimTime::from_secs_f64(100.0)),
            Position::new(1.0, 2.0)
        );
        assert_eq!(m.arrival(), SimTime::ZERO);
    }

    #[test]
    fn motion_interpolates_linearly() {
        let m = Motion {
            from: Position::new(0.0, 0.0),
            to: Position::new(10.0, 0.0),
            depart: SimTime::ZERO,
            speed_mps: 1.0,
        };
        let half = m.position(SimTime::from_secs_f64(5.0));
        assert!((half.x - 5.0).abs() < 1e-9);
        assert_eq!(m.position(SimTime::from_secs_f64(20.0)), m.to);
        assert_eq!(m.arrival(), SimTime::from_secs_f64(10.0));
    }

    #[test]
    fn transmission_overlap_rules() {
        let tx = Transmission {
            id: 1,
            sender: NodeId(0),
            start_pos: Position::new(0.0, 0.0),
            start: SimTime::from_micros(100),
            end: SimTime::from_micros(200),
            frame: Frame {
                sender: NodeId(0),
                wire_bytes: 100,
                class: 0,
                kind: FrameKind::Ack {
                    msg: MessageId {
                        origin: NodeId(0),
                        seq: 0,
                    },
                    received: BitSet::new(1),
                },
            },
        };
        assert!(tx.overlaps(SimTime::from_micros(150), SimTime::from_micros(250)));
        assert!(tx.overlaps(SimTime::from_micros(50), SimTime::from_micros(101)));
        assert!(!tx.overlaps(SimTime::from_micros(200), SimTime::from_micros(300)));
        assert!(!tx.overlaps(SimTime::from_micros(0), SimTime::from_micros(100)));
    }

    // ---- physical verdicts: far-field bound vs the exhaustive loop --------

    /// The slow-and-obvious reference: every alive node is a receiver
    /// candidate, every transmission an interferer candidate, and a
    /// verdict is the full ascending-id interference sum against the
    /// capture threshold. It reads the authoritative tables only, so it
    /// checks grid enumeration, the `tx_by_sender` lists and the
    /// far-field bound of [`phys_verdicts`] at once, bit for bit.
    fn oracle_verdicts(scene: &Scene, tx: &Transmission) -> Vec<(NodeId, PhysOutcome)> {
        let radio = &scene.medium.radio;
        let range = RANGE_M;
        let trunc = range * radio.interference_range_factor;
        let power = |d: f64| d.max(1.0).powf(-radio.path_loss_exp);
        let concurrent = || {
            scene
                .medium
                .transmissions
                .values()
                .filter(|t| t.id != tx.id && t.overlaps(tx.start, tx.end))
        };
        let mut out = Vec::new();
        for (r, m) in scene.medium.motions.iter() {
            let rpos = m.position(tx.end);
            if r == tx.sender || tx.start_pos.distance(&rpos) > range {
                continue;
            }
            if concurrent().any(|t| t.sender == r) {
                out.push((r, PhysOutcome::HalfDuplex));
                continue;
            }
            let interference: f64 = concurrent()
                .filter(|t| t.sender != tx.sender)
                .map(|t| t.start_pos.distance(&rpos))
                .filter(|&d| d <= trunc)
                .map(power)
                .sum();
            let signal = power(tx.start_pos.distance(&rpos));
            if interference > 0.0 && signal < radio.capture_sinr * interference {
                out.push((r, PhysOutcome::Collided));
            } else {
                out.push((r, PhysOutcome::Survivor));
            }
        }
        out
    }

    /// A medium built by hand through the kernel's own type.
    struct Scene {
        medium: Medium,
    }

    impl Scene {
        fn new(config: SimConfig) -> Self {
            Self {
                medium: Medium::new(&config),
            }
        }

        fn node(&mut self, motion: Motion) -> NodeId {
            let id = NodeId(self.medium.motions.len() as u32);
            self.medium.place(id, motion, SimTime::ZERO);
            id
        }

        fn node_at(&mut self, x: f64, y: f64) -> NodeId {
            self.node(Motion::stationary(Position::new(x, y), SimTime::ZERO))
        }

        /// Puts `sender` on the air over `[start_us, end_us)`.
        fn transmit(&mut self, sender: NodeId, start_us: u64, end_us: u64) -> u64 {
            let start = SimTime::from_micros(start_us);
            let end = SimTime::from_micros(end_us);
            let pos = self.medium.position(sender, start).expect("node");
            let frame = Frame {
                sender,
                wire_bytes: 100,
                class: 0,
                kind: FrameKind::Ack {
                    msg: MessageId {
                        origin: sender,
                        seq: 0,
                    },
                    received: BitSet::new(1),
                },
            };
            self.medium.begin(sender, pos, start, end, frame)
        }

        /// Verdicts of `tx` from the bounded function, checked against
        /// the oracle, plus how they were reached (the decision counts;
        /// the power counts depend on the memo's state and are zeroed).
        /// A second call on the now warm memo must agree.
        fn verdicts(&self, tx: u64) -> (Vec<(NodeId, PhysOutcome)>, VerdictPaths) {
            let tx = self.medium.transmissions.get(&tx).expect("transmission");
            let mut scratch = PhysScratch {
                memo: PathLossMemo::new(),
                ..PhysScratch::default()
            };
            let (mut got, mut paths) = (Vec::new(), VerdictPaths::default());
            phys_verdicts(&self.medium, tx, &mut got, &mut scratch, &mut paths);
            assert_eq!(
                got,
                oracle_verdicts(self, tx),
                "verdicts differ from the exhaustive reference"
            );
            assert!(paths.powf > 0, "a cold memo computes the edge power");
            let (mut warm, mut warm_paths) = (Vec::new(), VerdictPaths::default());
            phys_verdicts(&self.medium, tx, &mut warm, &mut scratch, &mut warm_paths);
            let decisions = |p: VerdictPaths| VerdictPaths {
                powf: 0,
                memo_hits: 0,
                ..p
            };
            assert_eq!(warm, got, "a warm memo changes no verdict");
            assert_eq!(decisions(warm_paths), decisions(paths));
            (got, decisions(paths))
        }
    }

    fn radio_config(alpha: f64, capture: f64, horizon: f64) -> SimConfig {
        let mut c = SimConfig::default();
        c.radio.path_loss_exp = alpha;
        c.radio.capture_sinr = capture;
        c.radio.interference_range_factor = horizon;
        c
    }

    /// A random layout: up to 200 nodes (a third of them walking) in an
    /// arena a few to a few dozen ranges wide, up to 64 other
    /// transmissions around the subject's airtime.
    fn random_scene(seed: u64) -> (Scene, u64) {
        let mut rng = pds_core::SimRng::new(seed);
        let mut pick = |xs: &[f64]| xs[rng.range_u64(0, xs.len() as u64) as usize];
        let alpha = pick(&[0.0, 2.0, 2.7, 3.0, 4.0]);
        let capture = pick(&[0.5, 1.0, 2.0, 10.0]);
        let horizon = pick(&[1.5, 4.0, f64::INFINITY]);
        let side = pick(&[150.0, 400.0, 1200.0, 5000.0]);
        let mut scene = Scene::new(radio_config(alpha, capture, horizon));
        let n = rng.range_u64(2, 201);
        for _ in 0..n {
            let from = Position::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side));
            let motion = if rng.chance(0.33) {
                Motion {
                    from,
                    to: Position::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)),
                    depart: SimTime::ZERO,
                    speed_mps: rng.range_f64(0.5, 30.0),
                }
            } else {
                Motion::stationary(from, SimTime::ZERO)
            };
            scene.node(motion);
        }
        // The subject is on the air over [1000, 2300) µs; the others start
        // and end anywhere around it, so some miss it entirely.
        let others = rng.range_u64(0, 65).min(n - 1);
        let subject = rng.range_u64(0, others + 1);
        let mut subject_id = 0;
        for sender in 0..=others {
            if sender == subject {
                subject_id = scene.transmit(NodeId(sender as u32), 1000, 2300);
            } else {
                let start = rng.range_u64(0, 2600);
                scene.transmit(NodeId(sender as u32), start, start + rng.range_u64(1, 1400));
            }
        }
        (scene, subject_id)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]
        #[test]
        fn bounded_verdicts_equal_exhaustive_on_random_layouts(seed in proptest::prelude::any::<u64>()) {
            let (scene, subject) = random_scene(seed);
            scene.verdicts(subject);
        }
    }

    #[test]
    fn path_loss_memo_is_bit_identical_to_powf() {
        let mut rng = pds_core::SimRng::new(44);
        // Grid-exact, sub-metre (floored to 1 m) and arbitrary distances,
        // drawn with repeats so that hits, misses and evictions all occur.
        let mut pool: Vec<f64> = (0..3_000).map(|_| rng.range_f64(0.0, 1_500.0)).collect();
        pool.extend((0..200).map(|i| f64::from(i) * 5.0));
        pool.extend([0.0, 0.25, 1.0, f64::MIN_POSITIVE, 1e300]);
        for alpha in [0.0, 2.0, 2.7, 3.0, 4.0] {
            let mut memo = PathLossMemo::new();
            let mut paths = VerdictPaths::default();
            for _ in 0..20_000 {
                let d = pool[rng.range_u64(0, pool.len() as u64) as usize];
                let want = d.max(1.0).powf(-alpha);
                assert_eq!(
                    memo.power(d, alpha, &mut paths).to_bits(),
                    want.to_bits(),
                    "{d} at α {alpha}"
                );
            }
            assert_eq!(paths.powf + paths.memo_hits, 20_000);
            assert!(paths.powf > 0 && paths.memo_hits > 0, "{paths:?}");
        }
    }

    #[test]
    fn colliding_distances_evict_each_other_and_stay_exact() {
        let slot = |d: f64| PathLossMemo::slot(d.max(1.0).to_bits());
        let a = 37.5;
        let b = (1..)
            .map(|i| a + f64::from(i) * 0.125)
            .find(|&b| slot(b) == slot(a))
            .expect("some distance shares the slot");
        let mut memo = PathLossMemo::new();
        let mut paths = VerdictPaths::default();
        for d in [a, b, a, b, b, a] {
            assert_eq!(
                memo.power(d, 3.0, &mut paths).to_bits(),
                d.powf(-3.0).to_bits()
            );
        }
        // Each switch of key misses; only the repeated `b` hits.
        assert_eq!((paths.powf, paths.memo_hits), (5, 1));
    }

    #[test]
    fn random_layouts_reach_every_decision_path() {
        // The equality proptest is vacuous if the bound never engages.
        let mut total = VerdictPaths::default();
        for seed in 0..200 {
            let (scene, subject) = random_scene(seed);
            let (_, p) = scene.verdicts(subject);
            total.cleared += p.cleared;
            total.bounded += p.bounded;
            total.exact += p.exact;
            total.fallback += p.fallback;
        }
        assert!(
            total.cleared > 0 && total.bounded > 0 && total.exact > 0 && total.fallback > 0,
            "{total:?}"
        );
    }

    /// Sender at the origin, receiver 50 m east, a far interferer 300 m
    /// west (four ranges: bounded, never summed per receiver), and a near
    /// interferer east of the receiver, placed so that
    /// `signal / (capture × interference)` is `1 + delta`.
    fn near_tie_scene(delta: f64) -> (Scene, u64, f64) {
        let config = radio_config(3.0, 2.0, f64::INFINITY);
        let power = |d: f64| d.max(1.0).powf(-3.0);
        let wanted = power(50.0) / (2.0 * (1.0 + delta)) - power(350.0);
        let x = wanted.powf(-1.0 / 3.0);
        let mut scene = Scene::new(config);
        let sender = scene.node_at(0.0, 0.0);
        scene.node_at(50.0, 0.0);
        let far = scene.node_at(-300.0, 0.0);
        let near = scene.node_at(50.0 + x, 0.0);
        let subject = scene.transmit(sender, 1000, 2300);
        scene.transmit(far, 900, 2000);
        scene.transmit(near, 1200, 2500);
        let ratio = power(50.0) / (2.0 * (power(350.0) + power(x)));
        (scene, subject, ratio)
    }

    #[test]
    fn near_ties_fall_back_to_the_exhaustive_sum() {
        for magnitude in [1e-12, 1e-9, 1e-6] {
            for delta in [magnitude, -magnitude] {
                let (scene, subject, ratio) = near_tie_scene(delta);
                assert!(
                    (ratio - 1.0 - delta).abs() < 1e-13,
                    "generator missed the tie: {ratio} for delta {delta}"
                );
                let (verdicts, paths) = scene.verdicts(subject);
                let want = if delta > 0.0 {
                    PhysOutcome::Survivor
                } else {
                    PhysOutcome::Collided
                };
                assert_eq!(verdicts, vec![(NodeId(1), want)], "delta {delta}");
                assert_eq!(
                    paths,
                    VerdictPaths {
                        fallback: 1,
                        ..VerdictPaths::default()
                    },
                    "delta {delta}"
                );
            }
        }
    }

    #[test]
    fn exact_ties_survive_on_either_exact_path() {
        // Receiver equidistant from the sender and a lone interferer at
        // capture 1: signal == interference, and `<` does not hold. Every
        // interferer is near, so the near sum is the full sum.
        let mut scene = Scene::new(radio_config(3.0, 1.0, f64::INFINITY));
        let sender = scene.node_at(0.0, 0.0);
        scene.node_at(60.0, 0.0);
        let other = scene.node_at(120.0, 0.0);
        let subject = scene.transmit(sender, 1000, 2300);
        scene.transmit(other, 1100, 2400);
        let (verdicts, paths) = scene.verdicts(subject);
        assert_eq!(verdicts, vec![(NodeId(1), PhysOutcome::Survivor)]);
        assert_eq!((paths.exact, paths.fallback), (1, 0));

        // The same tie through the fallback: at α = 0 every power is 1, so
        // one near and one far interferer at capture 0.5 tie exactly, and
        // the bound (which cannot tell 2 × 0.5 from the signal) defers.
        let mut scene = Scene::new(radio_config(0.0, 0.5, f64::INFINITY));
        let sender = scene.node_at(0.0, 0.0);
        scene.node_at(60.0, 0.0);
        let near = scene.node_at(150.0, 0.0);
        let far = scene.node_at(-400.0, 0.0);
        let subject = scene.transmit(sender, 1000, 2300);
        scene.transmit(near, 1100, 2400);
        scene.transmit(far, 1100, 2400);
        let (verdicts, paths) = scene.verdicts(subject);
        assert_eq!(verdicts, vec![(NodeId(1), PhysOutcome::Survivor)]);
        assert_eq!((paths.exact, paths.fallback), (0, 1));
    }

    #[test]
    fn far_only_interference_clears_the_whole_transmission() {
        let mut scene = Scene::new(radio_config(3.0, 2.0, f64::INFINITY));
        let sender = scene.node_at(0.0, 0.0);
        for i in 0..6 {
            scene.node_at(10.0 + 10.0 * f64::from(i), 5.0);
        }
        let subject = scene.transmit(sender, 1000, 2300);
        // Twenty concurrent senders on a ring 20 ranges out: together
        // still far below an edge-of-range signal over capture.
        for i in 0..20 {
            let angle = f64::from(i) * std::f64::consts::TAU / 20.0;
            let s = scene.node_at(1500.0 * angle.cos(), 1500.0 * angle.sin());
            scene.transmit(s, 1100, 2400);
        }
        let (verdicts, paths) = scene.verdicts(subject);
        assert_eq!(verdicts.len(), 6);
        assert!(verdicts.iter().all(|&(_, o)| o == PhysOutcome::Survivor));
        assert_eq!(
            paths,
            VerdictPaths {
                cleared: 6,
                ..VerdictPaths::default()
            }
        );
    }

    #[test]
    fn a_strong_near_interferer_collides_without_the_full_sum() {
        let mut scene = Scene::new(radio_config(3.0, 2.0, f64::INFINITY));
        let sender = scene.node_at(0.0, 0.0);
        scene.node_at(70.0, 0.0);
        // Hidden terminal 30 m past the receiver, and one far sender that
        // keeps the near sum from being the full sum.
        let hidden = scene.node_at(100.0, 0.0);
        let far = scene.node_at(-600.0, 0.0);
        // A second receiver next to the sender, out of the hidden
        // terminal's reach: survives on the bound.
        scene.node_at(-5.0, 0.0);
        let subject = scene.transmit(sender, 1000, 2300);
        scene.transmit(hidden, 1100, 2400);
        scene.transmit(far, 1100, 2400);
        let (verdicts, paths) = scene.verdicts(subject);
        assert_eq!(
            verdicts,
            vec![
                (NodeId(1), PhysOutcome::Collided),
                (NodeId(4), PhysOutcome::Survivor)
            ]
        );
        assert_eq!(
            paths,
            VerdictPaths {
                bounded: 2,
                ..VerdictPaths::default()
            }
        );
    }

    #[test]
    fn powers_near_the_subnormal_range_disable_the_bound() {
        // 75^-200 underflows: relative-error reasoning is void there, so
        // every interferer must be treated as near (the exact path).
        for (alpha, capture) in [(200.0, 2.0), (3.0, 1e200)] {
            let mut scene = Scene::new(radio_config(alpha, capture, f64::INFINITY));
            let sender = scene.node_at(0.0, 0.0);
            scene.node_at(0.5, 0.0);
            scene.node_at(40.0, 0.0);
            let far = scene.node_at(-600.0, 0.0);
            let subject = scene.transmit(sender, 1000, 2300);
            scene.transmit(far, 1100, 2400);
            let (verdicts, paths) = scene.verdicts(subject);
            assert_eq!(verdicts.len(), 2);
            assert_eq!(
                paths,
                VerdictPaths {
                    exact: 2,
                    ..VerdictPaths::default()
                }
            );
        }
    }
}
