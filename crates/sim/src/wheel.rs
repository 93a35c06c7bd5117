//! Hierarchical timer wheel — the O(1)-amortized scheduler behind the
//! kernel's event queue (DESIGN.md §11).
//!
//! Six hashed wheel levels of 64 slots each cover the next 64⁶ µs (~19.1 h
//! of simulated time) at 1 µs resolution; anything farther is parked in a
//! sorted overflow tier and promoted into the wheel when its window opens.
//! The structure reproduces the exact pop order of a binary heap keyed on
//! `(time, insertion seq)`:
//!
//! * **Earliest-time-first** — the first occupied slot of the first
//!   occupied level always holds the globally earliest deadline, because
//!   every level-`k` candidate deadline is strictly below every deadline
//!   still parked at level `k+1` or in the overflow tier.
//! * **Insertion-stable ties** — a slot is a FIFO: pushes append, and
//!   cascades (which re-place a whole expired slot one or more levels
//!   down) preserve relative order. Level selection uses the tokio-style
//!   XOR rule — an entry lands at the level of the *highest* 6-bit group
//!   in which its deadline differs from the wheel's current time — which
//!   guarantees the cascade for a time window always completes before any
//!   later push can land directly inside that window. Together these make
//!   same-tick events pop in push order even across cascades.
//!
//! There is deliberately no `peek`: computing the exact next deadline may
//! require cascading, and cascading advances the wheel's internal clock —
//! which must never move past the caller's horizon, or a later push at a
//! time the kernel considers "future" would be in the wheel's past. The
//! consuming API is [`TimerWheel::pop_until`], which only cascades windows
//! whose deadline lies at or before the horizon.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use pds_core::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask selecting a slot index from a deadline.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Number of wheel levels.
const LEVELS: usize = 6;
/// Ticks (µs) covered by the wheel proper: 64⁶ = 2³⁶ µs ≈ 19.1 hours.
/// Deadlines farther than this from the wheel clock go to the overflow
/// tier.
const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32);
/// Capacity (entries) a slot keeps across a cascade. Enough that
/// steady-state kernel churn cascades without allocating; small enough
/// that the 384 slots together retain well under a megabyte however
/// large the bursts they once parked.
const SLOT_KEEP: usize = 32;

#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    value: T,
}

#[derive(Debug)]
struct Level<T> {
    /// Bit `s` set ⇔ `slots[s]` is non-empty.
    occupied: u64,
    slots: [VecDeque<Entry<T>>; SLOTS],
}

impl<T> Level<T> {
    fn new() -> Self {
        Self {
            occupied: 0,
            slots: std::array::from_fn(|_| VecDeque::new()),
        }
    }

    /// The FIFO queue for `slot`. The single audited indexing site of the
    /// per-level slot array.
    #[expect(
        clippy::indexing_slicing,
        reason = "every caller derives `slot` by masking with SLOT_MASK, which is < SLOTS"
    )]
    fn slot_mut(&mut self, slot: usize) -> &mut VecDeque<Entry<T>> {
        &mut self.slots[slot]
    }
}

/// A deterministic hierarchical timer wheel.
///
/// Pops values in `(time, insertion order)` order — bit-identical to a
/// `BinaryHeap` keyed on `(time, push seq)` — with O(1) amortized pushes
/// and pops. Scheduling in the past (before the last popped deadline) is a
/// kernel contract violation; the wheel clamps such deadlines to its clock
/// in release builds and asserts in debug builds.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// The wheel clock: never ahead of any pending deadline, never behind
    /// any popped one. Advances only inside [`Self::pop_until`], and only
    /// up to the caller's horizon.
    elapsed: u64,
    levels: Box<[Level<T>; LEVELS]>,
    /// Far-future entries, sorted by `(deadline, seq)`; promoted into the
    /// wheel one 64⁶-µs window at a time.
    overflow: BTreeMap<(u64, u64), T>,
    next_seq: u64,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            elapsed: 0,
            levels: Box::new(std::array::from_fn(|_| Level::new())),
            overflow: BTreeMap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Number of pending entries (wheel levels + overflow tier).
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel level at `index`. The single audited indexing site of the
    /// level array.
    #[expect(
        clippy::indexing_slicing,
        reason = "`index` comes from the XOR rule or a tier scan, both bounded by LEVELS"
    )]
    fn level_mut(&mut self, index: usize) -> &mut Level<T> {
        &mut self.levels[index]
    }

    /// Schedules `value` at time `at`.
    pub fn push(&mut self, at: SimTime, value: T) {
        let at = at.as_micros();
        debug_assert!(
            at >= self.elapsed,
            "scheduled {at} µs in the past (wheel clock {} µs)",
            self.elapsed
        );
        let at = at.max(self.elapsed);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.place(at, seq, value);
    }

    /// Removes and returns the earliest entry whose deadline is `<=
    /// horizon`, or `None` if none is due. Never advances the wheel clock
    /// past `horizon`, so pushes at any time `>= horizon` remain valid
    /// between calls.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, T)> {
        let horizon = horizon.as_micros();
        loop {
            let (tier, deadline) = self.next_ready()?;
            if deadline > horizon {
                return None;
            }
            self.elapsed = deadline;
            if tier == 0 {
                // Level-0 slots hold exactly one tick, so the FIFO front is
                // the global `(time, seq)` minimum.
                let slot = (deadline & SLOT_MASK) as usize;
                let Some(entry) = self.level_mut(0).slot_mut(slot).pop_front() else {
                    // An occupancy bit with an empty queue cannot happen by
                    // construction; self-heal the bitmap rather than panic.
                    debug_assert!(false, "stale occupancy bit at level 0 slot {slot}");
                    self.level_mut(0).occupied &= !(1 << slot);
                    continue;
                };
                debug_assert_eq!(entry.at, deadline);
                let level = self.level_mut(0);
                if level.slot_mut(slot).is_empty() {
                    level.occupied &= !(1 << slot);
                }
                self.len -= 1;
                return Some((SimTime::from_micros(entry.at), entry.value));
            } else if tier < LEVELS {
                // Cascade: the expired slot's window has opened. Re-place
                // its entries in FIFO order; each lands strictly below
                // `tier` because its deadline now agrees with the wheel
                // clock on every 6-bit group at or above `tier`.
                let shift = SLOT_BITS * tier as u32;
                let slot = ((deadline >> shift) & SLOT_MASK) as usize;
                let mut queue = std::mem::take(self.level_mut(tier).slot_mut(slot));
                self.level_mut(tier).occupied &= !(1 << slot);
                for entry in queue.drain(..) {
                    self.place(entry.at, entry.seq, entry.value);
                }
                // Hand the drained buffer back so steady-state cascades
                // reuse it, but shrunk: unshrunk, every slot keeps the
                // capacity of the largest burst it ever parked.
                queue.shrink_to(SLOT_KEEP);
                *self.level_mut(tier).slot_mut(slot) = queue;
            } else {
                // Promote the overflow window that just opened. BTreeMap
                // iteration is `(deadline, seq)`-sorted, which `place`
                // preserves within each slot.
                let batch = match deadline.checked_add(WHEEL_SPAN) {
                    Some(end) => {
                        let rest = self.overflow.split_off(&(end, 0));
                        std::mem::replace(&mut self.overflow, rest)
                    }
                    // Window ends beyond u64::MAX: everything left is in it.
                    None => std::mem::take(&mut self.overflow),
                };
                for ((at, seq), value) in batch {
                    self.place(at, seq, value);
                }
            }
        }
    }

    /// Files an entry under the level/slot (or overflow tier) its deadline
    /// selects relative to the current wheel clock. Does not touch `len`.
    fn place(&mut self, at: u64, seq: u64, value: T) {
        // XOR rule: the level is the highest 6-bit group where `at`
        // disagrees with the clock. `| SLOT_MASK` folds the `at == elapsed`
        // case into level 0.
        let masked = (at ^ self.elapsed) | SLOT_MASK;
        if masked >= WHEEL_SPAN {
            self.overflow.insert((at, seq), value);
            return;
        }
        let level = (63 - masked.leading_zeros()) as usize / SLOT_BITS as usize;
        let slot = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let state = self.level_mut(level);
        state.slot_mut(slot).push_back(Entry { at, seq, value });
        state.occupied |= 1 << slot;
    }

    /// The first occupied tier (wheel level, or `LEVELS` for the overflow)
    /// and the deadline of its first occupied slot/window. For level 0 the
    /// deadline is the exact entry time; for higher tiers it is the window
    /// start, i.e. the earliest the window can need cascading.
    fn next_ready(&self) -> Option<(usize, u64)> {
        for (level, state) in self.levels.iter().enumerate() {
            if state.occupied == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let cursor = (self.elapsed >> shift) & SLOT_MASK;
            debug_assert_eq!(
                state.occupied & ((1u64 << cursor) - 1),
                0,
                "stale slot behind the cursor at level {level}"
            );
            let slot = u64::from(state.occupied.trailing_zeros());
            let window = self.elapsed & !((1u64 << (shift + SLOT_BITS)) - 1);
            return Some((level, window | (slot << shift)));
        }
        self.overflow
            .first_key_value()
            .map(|(&(at, _), _)| (LEVELS, at & !(WHEEL_SPAN - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn drain(wheel: &mut TimerWheel<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| wheel.pop_until(SimTime::MAX))
            .map(|(at, v)| (at.as_micros(), v))
            .collect()
    }

    #[test]
    fn pops_in_time_order_with_insertion_stable_ties() {
        let mut w = TimerWheel::new();
        w.push(t(30), 0);
        w.push(t(10), 1);
        w.push(t(10), 2);
        w.push(t(20), 3);
        w.push(t(10), 4);
        assert_eq!(w.len(), 5);
        assert_eq!(
            drain(&mut w),
            vec![(10, 1), (10, 2), (10, 4), (20, 3), (30, 0)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn pop_until_gates_on_horizon_without_losing_events() {
        let mut w = TimerWheel::new();
        w.push(t(100), 7);
        assert_eq!(w.pop_until(t(99)), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_until(t(100)), Some((t(100), 7)));
        assert_eq!(w.pop_until(t(u64::MAX)), None);
    }

    #[test]
    fn level_rollover_crossing_slot_windows() {
        // Deadlines straddling the level-0 window boundary at 64 and the
        // level-1 boundary at 4096 still pop in global order.
        let mut w = TimerWheel::new();
        for (i, at) in [63u64, 64, 65, 4095, 4096, 4097, 62].iter().enumerate() {
            w.push(t(*at), i as u32);
        }
        assert_eq!(
            drain(&mut w),
            vec![
                (62, 6),
                (63, 0),
                (64, 1),
                (65, 2),
                (4095, 3),
                (4096, 4),
                (4097, 5)
            ]
        );
    }

    #[test]
    fn same_tick_fifo_survives_a_cascade() {
        // `a` parks at level 1 awaiting cascade; after the wheel clock
        // advances into `a`'s level-0 window, `b` is pushed directly at the
        // same tick. The XOR rule guarantees the cascade already ran, so
        // `a` (earlier seq) still pops first.
        let mut w = TimerWheel::new();
        w.push(t(5000), 1); // level 1 from clock 0
        w.push(t(4992), 0); // same level-1 slot, opens the window
        assert_eq!(w.pop_until(t(4992)), Some((t(4992), 0)));
        w.push(t(5000), 2); // lands directly in level 0
        assert_eq!(drain(&mut w), vec![(5000, 1), (5000, 2)]);
    }

    #[test]
    fn far_future_overflow_promotion() {
        let mut w = TimerWheel::new();
        let span = 1u64 << 36;
        w.push(t(2 * span + 5), 3);
        w.push(t(span + 7), 1);
        w.push(t(span + 7), 2); // same-tick tie across the overflow tier
        w.push(t(42), 0);
        assert_eq!(w.len(), 4);
        // Nothing due yet besides the near event.
        assert_eq!(w.pop_until(t(1000)), Some((t(42), 0)));
        assert_eq!(w.pop_until(t(1000)), None);
        assert_eq!(
            drain(&mut w),
            vec![(span + 7, 1), (span + 7, 2), (2 * span + 5, 3)]
        );
    }

    #[test]
    fn deadlines_near_u64_max_do_not_overflow() {
        let mut w = TimerWheel::new();
        w.push(t(u64::MAX), 1);
        w.push(t(u64::MAX - 1), 0);
        w.push(t(5), 9);
        assert_eq!(
            drain(&mut w),
            vec![(5, 9), (u64::MAX - 1, 0), (u64::MAX, 1)]
        );
    }

    #[test]
    fn drained_wheel_does_not_retain_burst_capacity() {
        // 50 000 distinct deadlines inside one level-3 slot: the burst
        // parks in a single queue and cascades down through levels 2–0.
        let mut w = TimerWheel::new();
        let window = 1u64 << (SLOT_BITS * 3);
        for i in 0..50_000u32 {
            w.push(t(window + u64::from(i) * 5), i);
        }
        assert_eq!(drain(&mut w).len(), 50_000);
        let retained: usize = w
            .levels
            .iter()
            .flat_map(|level| level.slots.iter())
            .map(VecDeque::capacity)
            .sum();
        assert!(retained <= 4096, "empty wheel retains {retained} entries");
    }

    #[test]
    fn matches_sorted_reference_under_interleaved_churn() {
        // Deterministic LCG-driven churn: interleaved pushes (with heavy
        // same-tick ties) and horizon-bounded pops, checked against a
        // sorted-vector reference model keyed on (time, seq).
        let mut lcg: u64 = 0x243F_6A88_85A3_08D3;
        let mut step = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let mut model: Vec<(u64, u64, u32)> = Vec::new();
        let mut frontier = 0u64;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for round in 0..2000u32 {
            if step() % 3 != 0 {
                // Small offsets force ties and level-0 churn; occasional
                // big ones exercise upper levels and the overflow tier.
                let offset = match step() % 10 {
                    0 => step() % (1 << 37),
                    1 => step() % 100_000,
                    _ => step() % 16,
                };
                let at = frontier.saturating_add(offset);
                w.push(t(at), round);
                model.push((at, seq, round));
                seq += 1;
            } else {
                // Mirror the kernel contract: after a `pop_until(horizon)`
                // phase the clock is `horizon`, and every later push is at
                // or after it.
                let horizon = frontier.saturating_add(step() % 50_000);
                while let Some((at, v)) = w.pop_until(t(horizon)) {
                    popped.push((at.as_micros(), v));
                }
                frontier = horizon;
                model.sort_unstable();
                while let Some(&(at, _, v)) = model.first() {
                    if at > horizon {
                        break;
                    }
                    expected.push((at, v));
                    model.remove(0);
                }
                assert_eq!(popped, expected, "divergence at round {round}");
            }
        }
        assert_eq!(w.len(), model.len());
        popped.extend(drain(&mut w));
        model.sort_unstable();
        expected.extend(model.iter().map(|&(at, _, v)| (at, v)));
        assert_eq!(popped, expected);
    }
}
