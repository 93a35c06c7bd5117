//! Chunk Distribution Information — per-chunk distance-vector routing state
//! (§IV-A).
//!
//! Like distance-vector routing, but the destination is a *data chunk*
//! rather than an address: each entry records via which neighbor the
//! nearest known copy of a chunk can be reached and at what hop count.
//! Entries for chunks the node does not itself hold expire, so obsolete
//! routes disappear.

use crate::ids::{ChunkId, ItemName};
use crate::time::ExpiryBound;
use crate::{NodeId, SimTime};
use pds_det::DetMap;
use std::collections::BTreeMap;

/// One CDI route: chunk reachable `hops` away via `neighbor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CdiEntry {
    /// Next hop toward the nearest known copy.
    pub neighbor: NodeId,
    /// Distance in hops (0 = the chunk is local).
    pub hops: u32,
    /// When this route lapses.
    pub expires_at: SimTime,
}

/// The CDI table of one node.
///
/// # Examples
///
/// ```
/// use pds_core::{CdiTable, ChunkId, ItemName, NodeId};
/// use pds_core::SimTime;
///
/// let mut cdi = CdiTable::new();
/// let item = ItemName::new("clip");
/// cdi.observe(&item, ChunkId(0), NodeId(3), 2, SimTime::from_secs_f64(30.0));
/// assert_eq!(cdi.candidates(&item, ChunkId(0), SimTime::ZERO), [(NodeId(3), 2)]);
/// ```
#[derive(Debug, Default)]
pub struct CdiTable {
    // item → chunk → neighbor → entry  (all min-hop neighbors are kept, so
    // the assignment step can balance load across them).
    routes: DetMap<ItemName, BTreeMap<ChunkId, BTreeMap<NodeId, CdiEntry>>>,
    // No route's `expires_at` is earlier than this.
    next_expiry: ExpiryBound,
}

impl CdiTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes that `chunk` of `item` is reachable via `neighbor` at
    /// `hops`. Keeps the entry if it ties or beats the neighbor's previous
    /// distance; prunes strictly worse same-neighbor state. Entries from
    /// other neighbors are kept (the per-chunk minimum is computed on read),
    /// so a later, closer route simply shadows them.
    pub fn observe(
        &mut self,
        item: &ItemName,
        chunk: ChunkId,
        neighbor: NodeId,
        hops: u32,
        expires_at: SimTime,
    ) {
        let per_neighbor = self
            .routes
            .entry(item.clone())
            .or_default()
            .entry(chunk)
            .or_default();
        match per_neighbor.get_mut(&neighbor) {
            Some(e) if e.hops < hops && e.expires_at > expires_at => {}
            Some(e) => {
                if hops <= e.hops {
                    e.hops = hops;
                }
                e.expires_at = e.expires_at.max(expires_at);
            }
            None => {
                self.next_expiry.note(expires_at);
                per_neighbor.insert(
                    neighbor,
                    CdiEntry {
                        neighbor,
                        hops,
                        expires_at,
                    },
                );
            }
        }
    }

    /// The smallest known hop count to `chunk` of `item` at `now`.
    #[cfg(test)]
    pub(crate) fn best_hops(&self, item: &ItemName, chunk: ChunkId, now: SimTime) -> Option<u32> {
        self.routes
            .get(item)?
            .get(&chunk)?
            .values()
            .filter(|e| e.expires_at > now)
            .map(|e| e.hops)
            .min()
    }

    /// All unexpired `(neighbor, hops)` routes for `chunk` of `item`,
    /// ascending by neighbor id. Used to build the assignment problem.
    #[must_use]
    pub fn candidates(&self, item: &ItemName, chunk: ChunkId, now: SimTime) -> Vec<(NodeId, u32)> {
        self.routes
            .get(item)
            .and_then(|m| m.get(&chunk))
            .map(|per_neighbor| {
                per_neighbor
                    .values()
                    .filter(|e| e.expires_at > now)
                    .map(|e| (e.neighbor, e.hops))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Per-chunk minimum hop counts for `item` — the `(ChunkId, HopCount)`
    /// pairs a CDI response carries (§IV-A).
    #[must_use]
    pub(crate) fn summary(&self, item: &ItemName, now: SimTime) -> Vec<(ChunkId, u32)> {
        self.routes
            .get(item)
            .map(|chunks| {
                chunks
                    .iter()
                    .filter_map(|(&c, per_neighbor)| {
                        per_neighbor
                            .values()
                            .filter(|e| e.expires_at > now)
                            .map(|e| e.hops)
                            .min()
                            .map(|h| (c, h))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Chunks of `item` with at least one unexpired route.
    #[must_use]
    pub(crate) fn covered_chunks(&self, item: &ItemName, now: SimTime) -> Vec<ChunkId> {
        self.summary(item, now)
            .into_iter()
            .map(|(c, _)| c)
            .collect()
    }

    /// Drops expired routes (and empty item groups). Scans only once the
    /// earliest expiry may have passed.
    pub(crate) fn gc(&mut self, now: SimTime) {
        if self.next_expiry.due(now) {
            self.sweep(now);
        }
    }

    /// The full scan behind [`CdiTable::gc`]: drops every expired route
    /// and rebuilds the expiry bound from the survivors.
    fn sweep(&mut self, now: SimTime) {
        let mut next = ExpiryBound::default();
        for chunks in self.routes.values_mut() {
            for per_neighbor in chunks.values_mut() {
                per_neighbor.retain(|_, e| next.keep(e.expires_at, now));
            }
            chunks.retain(|_, per_neighbor| !per_neighbor.is_empty());
        }
        self.routes.retain(|_, chunks| !chunks.is_empty());
        self.next_expiry = next;
    }

    /// Total number of stored routes (diagnostics).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.routes
            .values()
            .flat_map(|c| c.values())
            .map(BTreeMap::len)
            .sum()
    }

    /// Whether the table holds no routes. O(1): `observe` never leaves an
    /// empty group behind and `gc` drops the ones it empties.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn item() -> ItemName {
        ItemName::new("vid")
    }

    #[test]
    fn observe_and_read_back() {
        let mut cdi = CdiTable::new();
        cdi.observe(&item(), ChunkId(0), NodeId(1), 2, t(10.0));
        assert_eq!(cdi.best_hops(&item(), ChunkId(0), t(0.0)), Some(2));
        assert_eq!(
            cdi.candidates(&item(), ChunkId(0), t(0.0)),
            vec![(NodeId(1), 2)]
        );
        assert_eq!(cdi.best_hops(&item(), ChunkId(1), t(0.0)), None);
    }

    #[test]
    fn closer_route_improves_same_neighbor() {
        let mut cdi = CdiTable::new();
        cdi.observe(&item(), ChunkId(0), NodeId(1), 3, t(10.0));
        cdi.observe(&item(), ChunkId(0), NodeId(1), 1, t(10.0));
        assert_eq!(cdi.best_hops(&item(), ChunkId(0), t(0.0)), Some(1));
        // A worse later report does not regress the stored distance.
        cdi.observe(&item(), ChunkId(0), NodeId(1), 4, t(20.0));
        assert_eq!(cdi.best_hops(&item(), ChunkId(0), t(0.0)), Some(1));
    }

    #[test]
    fn multiple_neighbors_all_kept() {
        let mut cdi = CdiTable::new();
        cdi.observe(&item(), ChunkId(0), NodeId(1), 1, t(10.0));
        cdi.observe(&item(), ChunkId(0), NodeId(2), 1, t(10.0));
        cdi.observe(&item(), ChunkId(0), NodeId(3), 4, t(10.0));
        let c = cdi.candidates(&item(), ChunkId(0), t(0.0));
        assert_eq!(c.len(), 3);
        assert_eq!(cdi.best_hops(&item(), ChunkId(0), t(0.0)), Some(1));
    }

    #[test]
    fn expiry_hides_and_gc_removes() {
        let mut cdi = CdiTable::new();
        cdi.observe(&item(), ChunkId(0), NodeId(1), 1, t(5.0));
        cdi.observe(&item(), ChunkId(1), NodeId(2), 2, t(50.0));
        assert_eq!(cdi.best_hops(&item(), ChunkId(0), t(6.0)), None);
        assert_eq!(cdi.best_hops(&item(), ChunkId(1), t(6.0)), Some(2));
        assert_eq!(cdi.len(), 2);
        cdi.gc(t(6.0));
        assert_eq!(cdi.len(), 1);
        assert!(!cdi.is_empty());
        cdi.gc(t(100.0));
        assert!(cdi.is_empty());
    }

    #[test]
    fn observe_extends_expiry() {
        let mut cdi = CdiTable::new();
        cdi.observe(&item(), ChunkId(0), NodeId(1), 1, t(5.0));
        cdi.observe(&item(), ChunkId(0), NodeId(1), 1, t(50.0));
        assert_eq!(cdi.best_hops(&item(), ChunkId(0), t(10.0)), Some(1));
    }

    #[test]
    fn summary_reports_minima() {
        let mut cdi = CdiTable::new();
        cdi.observe(&item(), ChunkId(0), NodeId(1), 2, t(10.0));
        cdi.observe(&item(), ChunkId(0), NodeId(2), 1, t(10.0));
        cdi.observe(&item(), ChunkId(3), NodeId(1), 0, t(10.0));
        let mut s = cdi.summary(&item(), t(0.0));
        s.sort();
        assert_eq!(s, vec![(ChunkId(0), 1), (ChunkId(3), 0)]);
        assert_eq!(
            cdi.covered_chunks(&item(), t(0.0)),
            vec![ChunkId(0), ChunkId(3)]
        );
    }

    #[test]
    fn gc_removes_what_a_full_sweep_removes() {
        // The same op sequence on two tables; the twin sweeps at every gc
        // instant (the rule before the expiry bound), the table only when
        // its bound is due.
        let mut rng = crate::SimRng::new(0xcd1);
        let mut skipped = 0;
        for _ in 0..20 {
            let (mut cdi, mut twin) = (CdiTable::new(), CdiTable::new());
            let mut now = 0;
            for _ in 0..400 {
                now += rng.range_u64(0, 3_000_000);
                if rng.chance(0.8) {
                    // A new route, or a refresh or extension of a held one.
                    let item = ItemName::new(if rng.chance(0.5) { "a" } else { "b" });
                    let chunk = ChunkId(rng.range_u64(0, 4) as u32);
                    let neighbor = NodeId(rng.range_u64(0, 4) as u32);
                    let hops = rng.range_u64(0, 4) as u32;
                    let until = SimTime::from_micros(now + rng.range_u64(1, 20_000_000));
                    cdi.observe(&item, chunk, neighbor, hops, until);
                    twin.observe(&item, chunk, neighbor, hops, until);
                } else {
                    let at = SimTime::from_micros(now);
                    skipped += usize::from(!cdi.next_expiry.due(at));
                    cdi.gc(at);
                    twin.sweep(at);
                    assert_eq!(cdi.routes, twin.routes);
                }
            }
        }
        assert!(skipped > 0, "no gc was skipped");
    }

    #[test]
    fn gc_is_idempotent() {
        let mut cdi = CdiTable::new();
        cdi.observe(&item(), ChunkId(0), NodeId(1), 1, t(5.0));
        cdi.gc(t(10.0));
        let after_first = cdi.len();
        cdi.gc(t(10.0));
        assert_eq!(cdi.len(), after_first);
        assert!(cdi.is_empty());
    }

    #[test]
    fn candidates_are_sorted_by_neighbor_id() {
        let mut cdi = CdiTable::new();
        cdi.observe(&item(), ChunkId(0), NodeId(9), 2, t(10.0));
        cdi.observe(&item(), ChunkId(0), NodeId(3), 2, t(10.0));
        cdi.observe(&item(), ChunkId(0), NodeId(6), 2, t(10.0));
        let ids: Vec<u32> = cdi
            .candidates(&item(), ChunkId(0), t(0.0))
            .into_iter()
            .map(|(n, _)| n.0)
            .collect();
        assert_eq!(ids, vec![3, 6, 9], "deterministic order for assignment");
    }

    #[test]
    fn items_are_independent() {
        let mut cdi = CdiTable::new();
        cdi.observe(&ItemName::new("a"), ChunkId(0), NodeId(1), 1, t(10.0));
        assert_eq!(cdi.best_hops(&ItemName::new("b"), ChunkId(0), t(0.0)), None);
        assert!(cdi.summary(&ItemName::new("b"), t(0.0)).is_empty());
    }
}
