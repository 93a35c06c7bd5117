//! Load-balanced chunk-to-neighbor assignment (§IV-B, Eq. 1).
//!
//! Choosing which neighbor to request each chunk from is a min-max
//! Generalized Assignment Problem: minimize the maximum per-neighbor load
//! subject to each chunk being assigned to exactly one neighbor that can
//! serve it. GAP is NP-hard; the paper uses an `O(|N||C|²)` repair
//! heuristic: assign each chunk to its least-hop neighbor, then repeatedly
//! move one chunk off the most-loaded neighbor (to the alternative with the
//! next-smallest hop count) while that decreases the maximum load.

use crate::ids::ChunkId;
use crate::NodeId;
use std::collections::BTreeMap;

/// Which assignment algorithm to use (ablation hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignStrategy {
    /// The paper's min-max repair heuristic.
    #[default]
    MinMax,
    /// Pure least-hop greedy with no load balancing (the starting point of
    /// the heuristic) — kept as the ablation baseline.
    Greedy,
}

/// The candidate providers of one chunk: `(neighbor, hop count)` pairs.
pub(crate) type ChunkCandidates = (ChunkId, Vec<(NodeId, u32)>);

/// Assigns every chunk to one capable neighbor.
///
/// Chunks with an empty candidate list are omitted from the result (the
/// caller treats them as unroutable and falls back to CDI re-query).
/// Deterministic: ties prefer the lower hop count, then the currently
/// less-loaded neighbor, then the smaller node id.
///
/// # Examples
///
/// ```
/// use pds_core::{min_max_assign, AssignStrategy, ChunkId, NodeId};
///
/// // Two neighbors both hold both chunks at hop 1: the min-max heuristic
/// // spreads the load instead of sending both requests to one neighbor.
/// let candidates = vec![
///     (ChunkId(0), vec![(NodeId(1), 1), (NodeId(2), 1)]),
///     (ChunkId(1), vec![(NodeId(1), 1), (NodeId(2), 1)]),
/// ];
/// let plan = min_max_assign(&candidates, AssignStrategy::MinMax);
/// assert_eq!(plan.len(), 2, "both neighbors get one chunk each");
/// ```
#[must_use]
pub fn min_max_assign(
    chunks: &[ChunkCandidates],
    strategy: AssignStrategy,
) -> BTreeMap<NodeId, Vec<ChunkId>> {
    // Working state: per-chunk chosen provider and per-neighbor load, where
    // load is the sum of assigned hop counts (the objective of Eq. 1; a hop
    // count is the cost of hauling that chunk through the network).
    let mut choice: Vec<Option<(NodeId, u32)>> = Vec::with_capacity(chunks.len());
    let mut load: BTreeMap<NodeId, u64> = BTreeMap::new();

    // Initial greedy: least hop count; ties to the less-loaded neighbor.
    for (_, cands) in chunks {
        if cands.is_empty() {
            choice.push(None);
            continue;
        }
        let min_hop = cands.iter().map(|&(_, h)| h).min().expect("non-empty");
        let best = cands
            .iter()
            .filter(|&&(_, h)| h == min_hop)
            .min_by_key(|&&(n, _)| (load.get(&n).copied().unwrap_or(0), n))
            .expect("non-empty");
        choice.push(Some(*best));
        *load.entry(best.0).or_default() += u64::from(best.1.max(1));
    }

    if strategy == AssignStrategy::MinMax {
        // Repair loop: move one chunk off the most-loaded neighbor while the
        // maximum load decreases.
        while let Some((&max_n, &max_load)) = load.iter().max_by_key(|&(n, l)| (*l, *n)) {
            let mut best_move: Option<(usize, NodeId, u32, u64)> = None; // (chunk idx, to, hop, resulting max)
            for (idx, (_, cands)) in chunks.iter().enumerate() {
                let Some((cur_n, cur_h)) = choice[idx] else {
                    continue;
                };
                if cur_n != max_n {
                    continue;
                }
                for &(alt_n, alt_h) in cands {
                    if alt_n == max_n {
                        continue;
                    }
                    let new_from = max_load - u64::from(cur_h.max(1));
                    let new_to = load.get(&alt_n).copied().unwrap_or(0) + u64::from(alt_h.max(1));
                    // Resulting max among the two touched neighbors; others
                    // are ≤ max_load by definition of max_n... except other
                    // neighbors tied at max_load, so account for them.
                    let other_max = load
                        .iter()
                        .filter(|&(n, _)| *n != max_n && *n != alt_n)
                        .map(|(_, &l)| l)
                        .max()
                        .unwrap_or(0);
                    let resulting = new_from.max(new_to).max(other_max);
                    if resulting < max_load
                        && best_move.is_none_or(|(_, _, _, best)| resulting < best)
                    {
                        best_move = Some((idx, alt_n, alt_h, resulting));
                    }
                }
            }
            let Some((idx, to, hop, _)) = best_move else {
                break; // no improving move: maximum load no longer decreases
            };
            let (from_n, from_h) = choice[idx].expect("chosen");
            *load.get_mut(&from_n).expect("loaded") -= u64::from(from_h.max(1));
            if load[&from_n] == 0 {
                load.remove(&from_n);
            }
            *load.entry(to).or_default() += u64::from(hop.max(1));
            choice[idx] = Some((to, hop));
        }
    }

    let mut plan: BTreeMap<NodeId, Vec<ChunkId>> = BTreeMap::new();
    for ((chunk, _), chosen) in chunks.iter().zip(choice) {
        if let Some((n, _)) = chosen {
            plan.entry(n).or_default().push(*chunk);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn c(i: u32) -> ChunkId {
        ChunkId(i)
    }

    fn assert_valid(plan: &BTreeMap<NodeId, Vec<ChunkId>>, chunks: &[ChunkCandidates]) {
        // Every routable chunk assigned exactly once, to a capable neighbor.
        let mut seen = pds_det::DetSet::default();
        for (node, assigned) in plan {
            for chunk in assigned {
                assert!(seen.insert(*chunk), "chunk {chunk} assigned twice");
                let cands = &chunks
                    .iter()
                    .find(|(id, _)| id == chunk)
                    .expect("known chunk")
                    .1;
                assert!(
                    cands.iter().any(|(cn, _)| cn == node),
                    "chunk {chunk} assigned to incapable neighbor {node}"
                );
            }
        }
        let routable = chunks.iter().filter(|(_, v)| !v.is_empty()).count();
        assert_eq!(seen.len(), routable, "all routable chunks assigned");
    }

    #[test]
    fn spreads_load_across_equal_neighbors() {
        let chunks: Vec<ChunkCandidates> = (0..10)
            .map(|i| (c(i), vec![(n(1), 1), (n(2), 1)]))
            .collect();
        let plan = min_max_assign(&chunks, AssignStrategy::MinMax);
        assert_valid(&plan, &chunks);
        assert_eq!(plan[&n(1)].len(), 5);
        assert_eq!(plan[&n(2)].len(), 5);
    }

    #[test]
    fn greedy_piles_onto_first_neighbor_when_tied() {
        // Greedy with load-aware tie-breaking still alternates; use uneven
        // hops to expose the difference: neighbor 1 is closest for all.
        let chunks: Vec<ChunkCandidates> =
            (0..8).map(|i| (c(i), vec![(n(1), 1), (n(2), 2)])).collect();
        let greedy = min_max_assign(&chunks, AssignStrategy::Greedy);
        assert_valid(&greedy, &chunks);
        assert_eq!(greedy[&n(1)].len(), 8, "greedy always takes the least hop");

        let balanced = min_max_assign(&chunks, AssignStrategy::MinMax);
        assert_valid(&balanced, &chunks);
        let max_load = balanced.values().map(Vec::len).max().unwrap();
        assert!(
            max_load < 8,
            "min-max should move some chunks off the hot neighbor"
        );
    }

    #[test]
    fn single_provider_gets_everything() {
        let chunks: Vec<ChunkCandidates> = (0..5).map(|i| (c(i), vec![(n(3), 2)])).collect();
        let plan = min_max_assign(&chunks, AssignStrategy::MinMax);
        assert_valid(&plan, &chunks);
        assert_eq!(plan[&n(3)].len(), 5);
    }

    #[test]
    fn unroutable_chunks_are_omitted() {
        let chunks: Vec<ChunkCandidates> = vec![
            (c(0), vec![(n(1), 1)]),
            (c(1), vec![]),
            (c(2), vec![(n(1), 1)]),
        ];
        let plan = min_max_assign(&chunks, AssignStrategy::MinMax);
        assert_valid(&plan, &chunks);
        let assigned: usize = plan.values().map(Vec::len).sum();
        assert_eq!(assigned, 2);
    }

    #[test]
    fn empty_input_gives_empty_plan() {
        let plan = min_max_assign(&[], AssignStrategy::MinMax);
        assert!(plan.is_empty());
    }

    #[test]
    fn minmax_never_worse_than_greedy() {
        // Pseudo-random instances; the repair loop must never increase the
        // maximum hop-weighted load.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let n_chunks = 1 + (rand() % 12) as u32;
            let n_neighbors = 1 + (rand() % 4) as u32;
            let chunks: Vec<ChunkCandidates> = (0..n_chunks)
                .map(|i| {
                    let mut cands: Vec<(NodeId, u32)> = Vec::new();
                    for j in 0..n_neighbors {
                        if rand() % 4 != 0 {
                            cands.push((n(j), 1 + (rand() % 3) as u32));
                        }
                    }
                    (c(i), cands)
                })
                .collect();
            let load_of = |plan: &BTreeMap<NodeId, Vec<ChunkId>>| -> u64 {
                plan.iter()
                    .map(|(node, assigned)| {
                        assigned
                            .iter()
                            .map(|chunk| {
                                let cands =
                                    &chunks.iter().find(|(id, _)| id == chunk).expect("chunk").1;
                                u64::from(
                                    cands
                                        .iter()
                                        .find(|(cn, _)| cn == node)
                                        .expect("capable")
                                        .1
                                        .max(1),
                                )
                            })
                            .sum::<u64>()
                    })
                    .max()
                    .unwrap_or(0)
            };
            let greedy = min_max_assign(&chunks, AssignStrategy::Greedy);
            let minmax = min_max_assign(&chunks, AssignStrategy::MinMax);
            assert_valid(&greedy, &chunks);
            assert_valid(&minmax, &chunks);
            assert!(
                load_of(&minmax) <= load_of(&greedy),
                "minmax {} > greedy {}",
                load_of(&minmax),
                load_of(&greedy)
            );
        }
    }

    #[test]
    fn deterministic_output() {
        let chunks: Vec<ChunkCandidates> = (0..6)
            .map(|i| (c(i), vec![(n(1), 1), (n(2), 1), (n(3), 2)]))
            .collect();
        let a = min_max_assign(&chunks, AssignStrategy::MinMax);
        let b = min_max_assign(&chunks, AssignStrategy::MinMax);
        assert_eq!(a, b);
    }
}
