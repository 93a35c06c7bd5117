//! Streaming replay digest over the dispatched event stream.
//!
//! Always on: the kernel folds every event it dispatches — virtual
//! timestamp, kind, and identifying payload — into a running FNV-1a
//! accumulator. Two runs that dispatched the same events at the same
//! virtual times in the same order end with the same digest; any
//! divergence (a reordered MAC attempt, a timer firing one microsecond
//! late, a different rng roll changing a backoff) changes it.
//!
//! This is the enforcement half of the determinism contract (DESIGN.md §8):
//! the `replay_digest` tests of this crate pin the digest of one scenario
//! and require it unchanged across reruns, re-bucket intervals, trace
//! sinks and no-op fault plans.

use crate::events::EventKind;
use pds_core::SimTime;

/// Incremental FNV-1a fold of the dispatched event stream.
///
/// The digest is order- and value-sensitive: every field is folded as its
/// 8 little-endian bytes, and each event kind contributes a distinct tag so
/// that, e.g., `TxEnd(5)` and `Control(5)` at the same instant cannot
/// collide structurally.
#[derive(Debug, Clone)]
pub(crate) struct ReplayDigest {
    hash: u64,
}

impl Default for ReplayDigest {
    fn default() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl ReplayDigest {
    fn fold(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one dispatched event at virtual time `now`: the time, the
    /// kind's tag ([`EventKind::slot`] + 1), then its identifying payload.
    pub(crate) fn record(&mut self, now: SimTime, kind: &EventKind) {
        self.fold(now.as_micros());
        self.fold(kind.slot() as u64 + 1);
        match *kind {
            EventKind::Start(node) | EventKind::BucketDrain(node) => self.fold(u64::from(node.0)),
            EventKind::MacTry { node, deferred } => {
                self.fold(u64::from(node.0));
                self.fold(u64::from(deferred));
            }
            EventKind::TxEnd(id) | EventKind::Control(id) | EventKind::FaultDeliver(id) => {
                self.fold(id);
            }
            EventKind::Timer { node, id, .. } => {
                self.fold(u64::from(node.0));
                self.fold(id.0);
            }
            EventKind::Sweep => {}
        }
    }

    /// The digest of everything recorded so far.
    pub(crate) fn value(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TimerKind;
    use pds_core::{NodeId, TimerId};

    #[test]
    fn same_stream_same_digest() {
        let stream = [
            (SimTime::from_micros(1), EventKind::Start(NodeId(0))),
            (
                SimTime::from_micros(5),
                EventKind::MacTry {
                    node: NodeId(0),
                    deferred: false,
                },
            ),
            (SimTime::from_micros(9), EventKind::TxEnd(3)),
        ];
        let digest = |events: &[(SimTime, EventKind)]| {
            let mut d = ReplayDigest::default();
            for (at, kind) in events {
                d.record(*at, kind);
            }
            d.value()
        };
        assert_eq!(digest(&stream), digest(&stream));
    }

    #[test]
    fn digest_is_order_and_payload_sensitive() {
        let a = (SimTime::from_micros(1), EventKind::TxEnd(1));
        let b = (
            SimTime::from_micros(2),
            EventKind::Timer {
                node: NodeId(1),
                id: TimerId(9),
                kind: TimerKind::App(0),
            },
        );
        let digest = |events: &[&(SimTime, EventKind)]| {
            let mut d = ReplayDigest::default();
            for (at, kind) in events {
                d.record(*at, kind);
            }
            d.value()
        };
        assert_ne!(digest(&[&a, &b]), digest(&[&b, &a]));
        assert_ne!(
            digest(&[&(SimTime::from_micros(1), EventKind::TxEnd(1))]),
            digest(&[&(SimTime::from_micros(1), EventKind::Control(1))]),
            "kind tags must separate same-payload events"
        );
        // A timer folds its node and id, never what it does.
        let retr = (
            SimTime::from_micros(2),
            EventKind::Timer {
                node: NodeId(1),
                id: TimerId(9),
                kind: TimerKind::Retr(4),
            },
        );
        assert_eq!(digest(&[&b]), digest(&[&retr]));
    }
}
