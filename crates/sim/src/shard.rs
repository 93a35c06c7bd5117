//! Spatial sharding: deterministic intra-run parallel stepping.
//!
//! Sweeps already parallelize across runs; this module parallelizes
//! *within* one run without touching the replay contract. The arena is
//! partitioned into shards by striping the
//! [`NodeGrid`](crate::spatial::NodeGrid) cell x-coordinate
//! of each transmission's start position. Within a conservative lookahead
//! window (one maximum frame airtime — no transmission that starts after
//! `now` can end before `now + max_airtime`, and radio propagation is
//! instantaneous, so the window bounds everything the physical layer can
//! still learn about), a scoped worker pool precomputes, per transmission
//! ending inside the window, the **physical receive verdict** of every
//! in-range receiver: half-duplex, collided, or survivor.
//!
//! The verdict function [`phys_verdicts`] (in `radio.rs`, shared with the
//! sequential `tx_end` path) is pure over world state that is frozen for
//! the window unless an invalidating action occurs (node
//! add/remove/move/teleport, or a new transmission starting nearby).
//! [`World`](crate::World) tags each cached verdict with a state
//! fingerprint (motion epoch, transmission-start log mark, drift pad) and
//! recomputes inline whenever the fingerprint no longer holds — so a
//! cached verdict is used only when it is provably equal to what the
//! sequential path would compute.
//!
//! Every random draw — baseline loss, fault rolls, MAC defers, ACK jitter
//! — stays on the sequential commit path in ascending-receiver order, and
//! shard workers never touch the event queue, stats, rng, or trace sink.
//! Replay digests and [`Stats`](crate::Stats) are therefore bit-identical
//! for any shard count, by construction rather than by synchronization:
//! cross-shard radio events need no boundary merge because their commit
//! order *is* the sequential `(time, seq)` dispatch order.

use crate::config::RadioConfig;
use crate::radio::{phys_verdicts, PhysArgs, PhysOutcome, PhysScratch, Position};
use crate::spatial::cell_of;
use pds_core::{NodeId, SimDuration};

/// A verdict list precomputed by a shard round, plus the fingerprint of
/// the world state it was computed against.
#[derive(Debug)]
pub(crate) struct CachedVerdict {
    /// [`World::motion_epoch`](crate::World) at the round; any node
    /// add/remove/move/teleport since then invalidates the entry.
    pub epoch: u64,
    /// Absolute index into the transmission-start log at the round; log
    /// entries at or past this mark are the transmissions that started
    /// after the verdict was computed and must be checked for overlap.
    pub log_mark: u64,
    /// Maximum distance any in-flight walker can have drifted over the
    /// lookahead window (`max_speed × lookahead`), used to pad the
    /// half-duplex invalidation radius.
    pub pad_m: f64,
    /// In-range receivers in ascending id order with their outcomes.
    pub verdicts: Vec<(NodeId, PhysOutcome)>,
}

/// The conservative lookahead window: the airtime of the largest frame.
/// A transmission that starts at or after `now` occupies the air for at
/// most this long, so precomputing only ends within `(now, now + Δ]`
/// bounds how much any yet-unseen transmission can invalidate.
pub(crate) fn lookahead(radio: &RadioConfig) -> SimDuration {
    radio.frame_airtime(radio.max_frame_bytes)
}

/// Shard owning position `pos`: stripes of node-grid columns, assigned
/// round-robin by cell x-coordinate. Striping (rather than block
/// partitioning) balances clustered layouts without knowing arena bounds.
pub(crate) fn shard_of(pos: Position, cell_m: f64, shards: u32) -> u32 {
    let (cx, _) = cell_of(pos, cell_m);
    let n = i64::from(shards.max(1));
    // rem_euclid keeps negative columns in range.
    (cx.rem_euclid(n)) as u32
}

/// One precomputed result: the transmission id and its ordered
/// per-receiver verdict list.
pub(crate) type TxVerdicts = (u64, Vec<(NodeId, PhysOutcome)>);

/// Runs one shard round: each worker computes the verdict lists for its
/// stripe of pending transmissions. Workers are observation-only — they
/// read the shared [`PhysArgs`] snapshot and return data; the caller
/// inserts results into the cache on the main thread, so cross-thread
/// scheduling can never reorder anything observable.
pub(crate) fn compute_sharded(a: &PhysArgs<'_>, work: &[Vec<u64>]) -> Vec<Vec<TxVerdicts>> {
    // The determinism lint bans threads in the simulation kernel; this is
    // the audited exception it names. Scoped workers only evaluate the
    // pure `phys_verdicts` function over a frozen `Sync` snapshot — no
    // rng, stats, queue, or trace access — so results are independent of
    // thread scheduling and the join order below is fixed by shard index.
    // lint: allow(thread-pool) -- audited shard executor: workers run the pure verdict function over a frozen snapshot and results merge in fixed shard order; see DESIGN.md §15.
    std::thread::scope(|s| {
        let handles: Vec<_> = work
            .iter()
            .map(|ids| {
                s.spawn(move || {
                    let mut scratch = PhysScratch::default();
                    let mut done = Vec::with_capacity(ids.len());
                    for id in ids {
                        let Some(tx) = a.transmissions.get(id) else {
                            continue;
                        };
                        let mut out = Vec::new();
                        phys_verdicts(a, tx, &mut out, &mut scratch);
                        done.push((*id, out));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookahead_is_the_largest_frame_airtime() {
        let r = RadioConfig::default();
        // 1500 B at 12 Mbps = 1 ms, plus 0.3 ms overhead.
        assert_eq!(lookahead(&r).as_micros(), 1300);
        assert_eq!(lookahead(&r), r.frame_airtime(r.max_frame_bytes));
    }

    #[test]
    fn shard_assignment_stripes_by_cell_column() {
        let cell = 75.0;
        // Same column, different rows: same shard.
        let a = shard_of(Position { x: 10.0, y: 0.0 }, cell, 4);
        let b = shard_of(Position { x: 10.0, y: 500.0 }, cell, 4);
        assert_eq!(a, b);
        // Adjacent columns go to adjacent shards.
        let c = shard_of(
            Position {
                x: 10.0 + cell,
                y: 0.0,
            },
            cell,
            4,
        );
        assert_eq!(c, (a + 1) % 4);
    }

    #[test]
    fn shard_assignment_at_cell_boundaries() {
        let cell = 75.0;
        // x = cell_m is the first point of column 1, not column 0 —
        // matching `cell_of`'s floor semantics exactly.
        let s0 = shard_of(Position { x: 74.999, y: 0.0 }, cell, 2);
        let s1 = shard_of(Position { x: 75.0, y: 0.0 }, cell, 2);
        assert_ne!(s0, s1);
        // Negative columns stay in range (rem_euclid, not %).
        for shards in [1u32, 2, 3, 4, 8] {
            for x in [-1000.0, -75.0, -0.001, 0.0, 74.999, 75.0, 1000.0] {
                let s = shard_of(Position { x, y: 0.0 }, cell, shards);
                assert!(s < shards, "shard {s} out of range for {shards} shards");
            }
        }
        // x = -0.001 is column -1 → last shard; x = 0.0 is column 0.
        assert_eq!(shard_of(Position { x: -0.001, y: 0.0 }, cell, 4), 3);
        assert_eq!(shard_of(Position { x: 0.0, y: 0.0 }, cell, 4), 0);
    }

    #[test]
    fn zero_shards_is_treated_as_one() {
        assert_eq!(shard_of(Position { x: 300.0, y: 0.0 }, 75.0, 0), 0);
    }
}
