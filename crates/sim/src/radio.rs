//! Geometry and the on-air representation of frames.
//!
//! Propagation is a disk model: a frame transmitted by `s` can be received
//! by every alive node within `range_m` of `s` — the broadcast/overhearing
//! property PDS exploits. Receptions fail on collision (another in-range
//! transmission overlaps in time), half-duplex conflict, or baseline random
//! loss; see [`World`](crate::World) for the delivery rules.

use crate::config::{SimConfig, SpatialIndex};
use crate::slab::{DenseTable, SeqSlab};
use crate::spatial::{NodeGrid, TxEntry, TxGrid};
use crate::transport::MessageId;
use bytes::Bytes;
use pds_core::NodeId;
use pds_core::SimTime;
use std::fmt;
use std::sync::Arc;

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
    pub fn stationary(pos: Position, now: SimTime) -> Self {
        Self {
            from: pos,
            to: pos,
            depart: now,
            speed_mps: 0.0,
        }
    }

    /// Position at time `at` (clamped to the destination).
    pub fn position(&self, at: SimTime) -> Position {
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
    pub fn arrival(&self) -> SimTime {
        let total = self.from.distance(&self.to);
        if total <= f64::EPSILON || self.speed_mps <= 0.0 {
            return self.depart;
        }
        self.depart + pds_core::SimDuration::from_secs_f64(total / self.speed_mps)
    }
}

/// Bit set over fragment indices, used in selective acks.
///
/// The first 64 bits live inline: messages rarely fragment past 64
/// pieces, and the receive path creates one of these per message, so the
/// common case must not allocate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct FragSet {
    word0: u64,
    spill: Vec<u64>,
    count: u32,
}

impl FragSet {
    pub fn new(frag_count: u32) -> Self {
        let words = (frag_count as usize).div_ceil(64).max(1);
        Self {
            word0: 0,
            spill: vec![0; words - 1],
            count: 0,
        }
    }

    /// Sets a bit; returns true if newly set.
    pub fn set(&mut self, idx: u32) -> bool {
        let (w, b) = (idx as usize / 64, idx % 64);
        let mask = 1u64 << b;
        let word = if w == 0 {
            &mut self.word0
        } else {
            &mut self.spill[w - 1]
        };
        if *word & mask == 0 {
            *word |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    pub fn contains(&self, idx: u32) -> bool {
        let (w, b) = (idx as usize / 64, idx % 64);
        let word = if w == 0 {
            Some(self.word0)
        } else {
            self.spill.get(w - 1).copied()
        };
        word.is_some_and(|word| word & (1u64 << b) != 0)
    }

    #[cfg(test)]
    pub fn len(&self) -> u32 {
        self.count
    }

    pub fn is_complete(&self, frag_count: u32) -> bool {
        self.count >= frag_count
    }

    /// A set with every fragment bit up to `frag_count` present. The
    /// transport's delivered-message tombstones rebuild their (complete)
    /// ack bitmap with this instead of retaining one per message; the
    /// wire size (`byte_len`) depends only on `frag_count`, so the
    /// rebuilt ack frame is byte-identical to the retained one.
    pub fn full(frag_count: u32) -> Self {
        let mut s = Self::new(frag_count);
        for i in 0..frag_count {
            s.set(i);
        }
        s
    }

    /// Merges another set into this one (bitwise or).
    pub fn merge(&mut self, other: &FragSet) {
        if other.spill.len() > self.spill.len() {
            self.spill.resize(other.spill.len(), 0);
        }
        self.word0 |= other.word0;
        for (w, o) in self.spill.iter_mut().zip(other.spill.iter()) {
            *w |= *o;
        }
        self.count =
            self.word0.count_ones() + self.spill.iter().map(|w| w.count_ones()).sum::<u32>();
    }

    /// Wire size of the bitmap in bytes.
    pub fn byte_len(&self) -> usize {
        (1 + self.spill.len()) * 8
    }

    #[cfg(test)]
    pub fn iter_missing(&self, frag_count: u32) -> impl Iterator<Item = u32> + '_ {
        (0..frag_count).filter(move |&i| !self.contains(i))
    }
}

/// A frame on the air: the unit of transmission, ≤ `max_frame_bytes`.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub sender: NodeId,
    pub wire_bytes: usize,
    /// Traffic class of the carried message (see [`pds_obs::class`]);
    /// always `OTHER` for acks.
    pub class: u8,
    pub kind: FrameKind,
}

#[derive(Debug, Clone)]
pub(crate) enum FrameKind {
    /// One fragment of an application message.
    Data {
        msg: MessageId,
        frag: u32,
        frag_count: u32,
        /// Shared across all fragments of a message (and with the sender's
        /// tracking state): cloning a frame is a refcount bump, not a list
        /// copy.
        intended: Arc<[NodeId]>,
        /// The *whole* message payload, shared by every fragment (and the
        /// sender's tracking state) — an ns-3-style shared packet buffer.
        /// The fragment's own bytes are the `frag`-th `frag_payload`-sized
        /// window of it; per-fragment wire length is computed
        /// arithmetically, so fragment slices never materialize and
        /// reassembly is a refcount bump instead of a memcpy.
        payload: Bytes,
        /// Total wire bytes of the whole message (for overhead metadata).
        msg_wire_bytes: u32,
    },
    /// Selective acknowledgement of the fragments of `msg` received so far.
    Ack { msg: MessageId, received: FragSet },
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
    pub fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && start < self.end
    }
}

/// Physical receive verdict for one in-range receiver of a transmission.
/// Everything that consumes randomness (baseline loss, fault rolls)
/// happens later, on the sequential commit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhysOutcome {
    /// The receiver was transmitting an overlapping frame of its own.
    HalfDuplex,
    /// Interference beat the capture threshold at this receiver.
    Collided,
    /// Survived the physical layer; loss and fault rolls decide the rest.
    Survivor,
}

/// Borrowed, `Sync` view of exactly the world state [`phys_verdicts`]
/// reads. Constructible both from `&World` (inline recompute) and from a
/// disjoint-field destructure (shard rounds, where the remaining `World`
/// fields hold non-`Sync` application boxes).
#[derive(Clone, Copy)]
pub(crate) struct PhysArgs<'a> {
    pub config: &'a SimConfig,
    /// Motions of all alive nodes, keyed identically to the node table.
    pub motions: &'a DenseTable<Motion>,
    pub transmissions: &'a SeqSlab<Transmission>,
    /// Live transmission ids per sender, indexed by raw node id (empty
    /// lists for nodes that are not transmitting).
    pub tx_by_sender: &'a [Vec<u64>],
    pub node_grid: &'a NodeGrid,
    pub tx_grid: &'a TxGrid,
}

/// Reusable candidate buffers for [`phys_verdicts`] — hot-path
/// allocations otherwise. Each worker owns one; the world keeps one for
/// inline recomputes.
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
}

/// Computes the physical receive verdicts of `tx`, evaluated at its end
/// time, into `out` in ascending receiver-id order.
///
/// This is a pure transcription of the sequential `tx_end` decision
/// logic: same candidate enumeration per [`SpatialIndex`] mode, same
/// sort/dedup, same exact-range filters, and the same f64 interference
/// summation order — so two calls over equal state produce bit-identical
/// verdicts no matter which thread runs them.
pub(crate) fn phys_verdicts(
    a: &PhysArgs<'_>,
    tx: &Transmission,
    out: &mut Vec<(NodeId, PhysOutcome)>,
    scratch: &mut PhysScratch,
) {
    // `tx_end` dispatches exactly at the transmission's end time, so every
    // position below is evaluated at `tx.end`.
    let at = tx.end;
    let radio = &a.config.radio;
    let range = radio.range_m;
    let tx_pos = tx.start_pos;
    // Candidates must come out ascending by id in both index modes: the
    // per-receiver rng rolls at commit consume the shared stream, so
    // receiver *order* is part of the replay contract.
    let receivers = &mut scratch.receivers;
    receivers.clear();
    match a.config.spatial.index {
        SpatialIndex::BruteForce => receivers.extend(
            a.motions
                .iter()
                .filter(|&(r, _)| r != tx.sender)
                .map(|(r, m)| (r, m.position(at))),
        ),
        SpatialIndex::Grid => {
            let cands = &mut scratch.cands_nodes;
            cands.clear();
            a.node_grid.query_into(tx_pos, range, at, cands);
            cands.sort_unstable_by_key(|&(r, _)| r);
            cands.dedup_by_key(|&mut (r, _)| r);
            receivers.extend(
                cands
                    .iter()
                    .filter(|&&(r, _)| r != tx.sender)
                    .map(|&(r, m)| (r, m.position(at))),
            );
        }
    }
    let path_loss = radio.path_loss_exp;
    let capture = radio.capture_sinr;
    let trunc = range * radio.interference_range_factor;
    // Received power at distance d, with a 1 m reference floor.
    let power = |d: f64| d.max(1.0).powf(-path_loss);
    // Everything that could interfere with this frame at *some* receiver,
    // in ascending id order (f64 addition is not associative; the exact
    // per-receiver sum order is part of the replay contract).
    let keep =
        |t: &Transmission| t.id != tx.id && t.sender != tx.sender && t.overlaps(tx.start, tx.end);
    let interferers = &mut scratch.interferers;
    interferers.clear();
    if a.config.spatial.index == SpatialIndex::Grid && trunc.is_finite() {
        let cands = &mut scratch.cands_tx;
        cands.clear();
        a.tx_grid.query_into(tx_pos, trunc + range, cands);
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
            a.transmissions
                .values()
                .filter(|t| keep(t))
                .map(|t| (t.sender, t.start_pos)),
        );
    }
    for &(r, rpos) in scratch.receivers.iter() {
        if tx_pos.distance(&rpos) > range {
            continue;
        }
        let half_duplex = a.tx_by_sender.get(r.0 as usize).is_some_and(|ids| {
            ids.iter().any(|tid| {
                a.transmissions
                    .get(tid)
                    .is_some_and(|t| t.overlaps(tx.start, tx.end))
            })
        });
        if half_duplex {
            out.push((r, PhysOutcome::HalfDuplex));
            continue;
        }
        let interference: f64 = scratch
            .interferers
            .iter()
            .filter(|&&(s, _)| s != r)
            .map(|&(_, p)| p.distance(&rpos))
            .filter(|&d| d <= trunc)
            .map(power)
            .sum();
        if interference > 0.0 && power(tx_pos.distance(&rpos)) < capture * interference {
            out.push((r, PhysOutcome::Collided));
            continue;
        }
        out.push((r, PhysOutcome::Survivor));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fragset_counts_and_completes() {
        let mut s = FragSet::new(130);
        assert!(!s.is_complete(130));
        for i in 0..130 {
            assert!(s.set(i), "index {i} should be new");
        }
        assert!(!s.set(5));
        assert!(s.is_complete(130));
        assert_eq!(s.len(), 130);
        assert_eq!(s.iter_missing(130).count(), 0);
    }

    #[test]
    fn fragset_merge_unions() {
        let mut a = FragSet::new(10);
        a.set(1);
        let mut b = FragSet::new(10);
        b.set(2);
        b.set(1);
        a.merge(&b);
        assert!(a.contains(1) && a.contains(2));
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter_missing(10).count(), 8);
    }

    #[test]
    fn fragset_full_is_complete() {
        assert!(FragSet::full(65).is_complete(65));
        assert_eq!(FragSet::full(65).byte_len(), 16);
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
                    received: FragSet::new(1),
                },
            },
        };
        assert!(tx.overlaps(SimTime::from_micros(150), SimTime::from_micros(250)));
        assert!(tx.overlaps(SimTime::from_micros(50), SimTime::from_micros(101)));
        assert!(!tx.overlaps(SimTime::from_micros(200), SimTime::from_micros(300)));
        assert!(!tx.overlaps(SimTime::from_micros(0), SimTime::from_micros(100)));
    }
}
