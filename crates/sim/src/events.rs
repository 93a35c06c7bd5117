//! The deterministic event queue at the heart of the kernel.
//!
//! [`EventQueue`] is the hierarchical [`TimerWheel`] of DESIGN.md §11:
//! pops are ordered by `(time, insertion seq)`, O(1) amortized. The
//! `BinaryHeap` it replaced lives on in this module's tests as the
//! reference the wheel is differentially checked against.
//!
//! The consuming API is `pop_until(horizon)` rather than peek + pop: a
//! timer wheel cannot compute its exact minimum without cascading, and
//! cascading must never advance the wheel clock past the kernel's run
//! horizon (see `wheel.rs`).

use crate::wheel::TimerWheel;
use pds_core::{NodeId, TimerId};

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// Call `on_start` for a freshly added node.
    Start(NodeId),
    /// A node's MAC attempts to (re)start transmission. `deferred` is set on
    /// the second phase of the sense–defer–transmit sequence.
    MacTry {
        /// The transmitting node.
        node: NodeId,
        /// Whether the initial random defer has already been served.
        deferred: bool,
    },
    /// A transmission finishes; deliver to receivers.
    TxEnd(u64),
    /// The leaky bucket may release more frames.
    BucketDrain(NodeId),
    /// A timer (application or transport) fires.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Timer identity within the node's table.
        id: TimerId,
    },
    /// A scheduled control closure (scenario orchestration) runs.
    Control(u64),
    /// Periodic transport garbage collection.
    Sweep,
    /// A fault-delayed or fault-duplicated reception arrives (DST layer).
    /// Never scheduled unless a `FaultPlan` is installed, so faultless
    /// replay digests are untouched by the variant's existence.
    FaultDeliver(u64),
}

/// The kernel's time-ordered, insertion-stable event queue.
pub(crate) type EventQueue = TimerWheel<EventKind>;

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::{SimRng, SimTime};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Debug)]
    struct QueuedEvent {
        at: SimTime,
        seq: u64,
        kind: EventKind,
    }

    impl PartialEq for QueuedEvent {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for QueuedEvent {}

    impl PartialOrd for QueuedEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for QueuedEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest first; ties
            // break by insertion sequence for determinism.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The reference binary-heap scheduler the kernel ran on before the
    /// wheel: earliest-time-first with insertion-`seq` tie-breaking.
    #[derive(Debug, Default)]
    struct HeapQueue {
        heap: BinaryHeap<QueuedEvent>,
        next_seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, at: SimTime, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(QueuedEvent { at, seq, kind });
        }

        fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, EventKind)> {
            if self.heap.peek()?.at > horizon {
                return None;
            }
            self.heap.pop().map(|e| (e.at, e.kind))
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn drain(q: &mut EventQueue) -> Vec<(SimTime, EventKind)> {
        std::iter::from_fn(|| q.pop_until(SimTime::MAX)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), EventKind::Sweep);
        q.push(t(10), EventKind::Control(1));
        q.push(t(20), EventKind::Control(2));
        let times: Vec<_> = drain(&mut q).into_iter().map(|e| e.0).collect();
        assert_eq!(times, vec![t(10), t(20), t(30)]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(5), EventKind::Control(1));
        q.push(t(5), EventKind::Control(2));
        q.push(t(5), EventKind::Control(3));
        let order: Vec<_> = drain(&mut q)
            .into_iter()
            .map(|(_, k)| match k {
                EventKind::Control(n) => n,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_until(SimTime::MAX), None);
        q.push(t(50), EventKind::Sweep);
        q.push(t(40), EventKind::Sweep);
        assert_eq!(q.pop_until(t(39)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_until(t(40)).map(|e| e.0), Some(t(40)));
        assert_eq!(q.len(), 1);
    }

    /// The in-process differential gate: a kernel-shaped random workload
    /// (interleaved pushes with heavy same-tick ties, horizon-bounded pop
    /// phases, far-future sweeps) must pop from the wheel exactly as from
    /// the reference heap.
    #[test]
    fn wheel_and_heap_pop_identical_streams() {
        let mut rng = SimRng::new(0xE5E2);
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::default();
        let mut frontier = 0u64;
        for round in 0..5000u64 {
            if rng.range_u64(0, 4) > 0 {
                let offset = match rng.range_u64(0, 12) {
                    0 => rng.range_u64(0, 1 << 37), // overflow tier
                    1..=3 => rng.range_u64(0, 500_000),
                    _ => rng.range_u64(0, 8), // same-tick ties
                };
                let at = t(frontier.saturating_add(offset));
                let kind = match round % 3 {
                    0 => EventKind::Control(round),
                    1 => EventKind::Sweep,
                    _ => EventKind::TxEnd(round),
                };
                wheel.push(at, kind.clone());
                heap.push(at, kind);
            } else {
                let horizon = t(frontier.saturating_add(rng.range_u64(0, 300_000)));
                loop {
                    let a = wheel.pop_until(horizon);
                    let b = heap.pop_until(horizon);
                    assert_eq!(a, b, "divergence at round {round}");
                    if a.is_none() {
                        break;
                    }
                }
                frontier = horizon.as_micros();
            }
        }
        assert_eq!(wheel.len(), heap.heap.len());
        let rest: Vec<_> = std::iter::from_fn(|| heap.pop_until(SimTime::MAX)).collect();
        assert_eq!(drain(&mut wheel), rest);
    }
}
