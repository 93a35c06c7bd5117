//! Slab storage for kernel tables: dense, id-indexed, allocation-light.
//!
//! The kernel used to key everything off `BTreeMap`s — node state,
//! motions, in-flight transmissions. City-scale worlds (10k–100k nodes,
//! ROADMAP item 2) turn those maps into the dominant memory and cache
//! cost: every lookup chases tree nodes and every entry pays pointer and
//! balance overhead. This module replaces them with two slab shapes that
//! preserve the determinism contract *exactly*:
//!
//! * [`DenseTable`] — a dense vector indexed by a monotone id
//!   ([`NodeId`]). Iteration order is ascending id, bit-identical to the
//!   `BTreeMap` it replaces, which matters wherever iteration feeds
//!   shared-rng draws or f64 summation (DESIGN.md §8).
//! * [`SeqSlab`] — a base-offset ring for values keyed by a monotone
//!   `u64` sequence with a bounded live window (transmissions are pruned
//!   at `now − 2×max_airtime`; controls fire and leave). Lookup is an
//!   index subtraction; iteration is ascending key order.
//!
//! **Generation-checked handles.** Ids in this kernel are never reused:
//! `next_node`, `next_tx` and `next_ctrl` only ever increment. A monotone
//! id therefore *is* a generation-checked handle — the degenerate case
//! where the slot index and the generation coincide. A stale handle (a
//! scheduled event naming a removed node, a pruned transmission id) can
//! never alias a newer entry: [`DenseTable::get`] finds an empty slot and
//! [`SeqSlab::get`] finds the key below its base, both returning `None`.
//! The `debug_assert` in [`SeqSlab::insert`] pins the monotonicity this
//! safety rests on.
//!
//! [`NodeTable`] adds the struct-of-arrays split on top of [`DenseTable`]:
//! the radio-phase flags that MAC/TX dispatches touch constantly live in
//! a parallel byte array (same idiom as the SoA grids in `spatial.rs`),
//! so the hot path reads one cache line instead of dragging in the whole
//! per-node struct.

use pds_core::NodeId;
use std::collections::VecDeque;

/// Radio-phase flag: the node's radio is currently transmitting.
pub(crate) const FLAG_TRANSMITTING: u8 = 1 << 0;
/// Radio-phase flag: a `MacTry` event is already scheduled.
pub(crate) const FLAG_MAC_SCHEDULED: u8 = 1 << 1;
/// Radio-phase flag: a `BucketDrain` event is already scheduled.
pub(crate) const FLAG_BUCKET_SCHEDULED: u8 = 1 << 2;

/// A dense slab indexed by [`NodeId`]. Replaces `BTreeMap<NodeId, T>`
/// with identical ascending-id iteration order and O(1) lookup.
///
/// Node ids are monotone and never reused (see the module docs), so a
/// slot, once vacated, stays vacant; peak memory is bounded by the
/// highest id ever issued, not by churn.
#[derive(Debug, Clone)]
pub(crate) struct DenseTable<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for DenseTable<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<T> DenseTable<T> {
    /// Pre-sizes the slab for `n` nodes, so large scenario setup does not
    /// pay repeated doubling copies (and their transient peak-heap spikes).
    pub fn reserve(&mut self, n: usize) {
        let need = n.saturating_sub(self.slots.len());
        self.slots.reserve(need);
    }

    pub fn get(&self, id: &NodeId) -> Option<&T> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    pub fn get_mut(&mut self, id: &NodeId) -> Option<&mut T> {
        self.slots.get_mut(id.0 as usize)?.as_mut()
    }

    pub fn contains_key(&self, id: &NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Inserts at `id`, growing the slab as needed. Returns the previous
    /// occupant, if any (never happens for monotone ids).
    pub fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        let i = id.0 as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = self.slots.get_mut(i)?;
        let old = slot.replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    pub fn remove(&mut self, id: &NodeId) -> Option<T> {
        let old = self.slots.get_mut(id.0 as usize)?.take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    pub fn len(&self) -> usize {
        self.live
    }

    /// Occupied ids, ascending — no allocation, unlike collecting keys.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((NodeId(i as u32), s.as_ref()?)))
    }

    /// Values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Mutable values in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

/// [`DenseTable`] plus a struct-of-arrays split: a parallel byte of hot
/// radio-phase flags per slot (`FLAG_*`), kept outside the cold per-node
/// struct so MAC/TX dispatches touch a compact array.
#[derive(Debug)]
pub(crate) struct NodeTable<T> {
    table: DenseTable<T>,
    flags: Vec<u8>,
}

impl<T> Default for NodeTable<T> {
    fn default() -> Self {
        Self {
            table: DenseTable::default(),
            flags: Vec::new(),
        }
    }
}

impl<T> NodeTable<T> {
    /// Pre-sizes both arrays (see [`DenseTable::reserve`]).
    pub fn reserve(&mut self, n: usize) {
        self.table.reserve(n);
        self.flags.reserve(n.saturating_sub(self.flags.len()));
    }

    pub fn get(&self, id: &NodeId) -> Option<&T> {
        self.table.get(id)
    }

    pub fn get_mut(&mut self, id: &NodeId) -> Option<&mut T> {
        self.table.get_mut(id)
    }

    /// The cold struct and the hot flags byte together — the common shape
    /// of MAC/TX call sites, borrowed disjointly from the two arrays.
    pub fn parts_mut(&mut self, id: &NodeId) -> Option<(&mut T, &mut u8)> {
        let state = self.table.get_mut(id)?;
        let flags = self.flags.get_mut(id.0 as usize)?;
        Some((state, flags))
    }

    /// Current flags byte, 0 if the node is gone.
    #[cfg(test)]
    pub fn flags(&self, id: &NodeId) -> u8 {
        if !self.table.contains_key(id) {
            return 0;
        }
        self.flags.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Sets or clears one flag bit; no-op if the node is gone.
    pub fn set_flag(&mut self, id: &NodeId, flag: u8, on: bool) {
        if let Some((_, flags)) = self.parts_mut(id) {
            if on {
                *flags |= flag;
            } else {
                *flags &= !flag;
            }
        }
    }

    pub fn contains_key(&self, id: &NodeId) -> bool {
        self.table.contains_key(id)
    }

    pub fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        let i = id.0 as usize;
        if self.flags.len() <= i {
            self.flags.resize(i + 1, 0);
        }
        if let Some(f) = self.flags.get_mut(i) {
            *f = 0;
        }
        self.table.insert(id, value)
    }

    pub fn remove(&mut self, id: &NodeId) -> Option<T> {
        if let Some(f) = self.flags.get_mut(id.0 as usize) {
            *f = 0;
        }
        self.table.remove(id)
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.table.keys()
    }

    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.table.values()
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.table.values_mut()
    }
}

/// A base-offset slab for values keyed by a monotone `u64` sequence with
/// a bounded live window. Replaces `BTreeMap<u64, T>` for transmissions
/// and scheduled controls: O(1) lookup by subtraction, ascending-key
/// iteration, and memory proportional to the live window (the leading
/// run of vacated slots is reclaimed as the base advances).
#[derive(Debug)]
pub(crate) struct SeqSlab<T> {
    /// Key of the first slot in `slots`.
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for SeqSlab<T> {
    fn default() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> SeqSlab<T> {
    fn index(&self, key: u64) -> Option<usize> {
        usize::try_from(key.checked_sub(self.base)?).ok()
    }

    /// Inserts the next value. `key` must be exactly one past the highest
    /// key ever inserted — callers allocate keys from a monotone counter,
    /// which is what makes stale handles unambiguous (module docs).
    pub fn insert(&mut self, key: u64, value: T) {
        debug_assert_eq!(
            key,
            self.base + self.slots.len() as u64,
            "SeqSlab keys must be allocated monotonically"
        );
        self.slots.push_back(Some(value));
        self.live += 1;
    }

    pub fn get(&self, key: &u64) -> Option<&T> {
        self.slots.get(self.index(*key)?)?.as_ref()
    }

    /// Removes `key`, advancing the base past any leading vacated run so
    /// the ring stays proportional to the live window.
    pub fn remove(&mut self, key: &u64) -> Option<T> {
        let i = self.index(*key)?;
        let old = self.slots.get_mut(i)?.take();
        if old.is_some() {
            self.live -= 1;
        }
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        old
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Values in ascending key order — the iteration order every f64
    /// interference sum depends on.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_table_iterates_ascending_like_a_btreemap() {
        let mut t: DenseTable<&'static str> = DenseTable::default();
        for (i, v) in [(3u32, "c"), (0, "a"), (7, "d"), (1, "b")] {
            t.insert(NodeId(i), v);
        }
        let ids: Vec<u32> = t.keys().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 3, 7]);
        let vals: Vec<&str> = t.values().copied().collect();
        assert_eq!(vals, vec!["a", "b", "c", "d"]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(&NodeId(3)), Some(&"c"));
        assert_eq!(t.get(&NodeId(2)), None);
    }

    #[test]
    fn dense_table_remove_vacates_without_aliasing() {
        let mut t: DenseTable<u32> = DenseTable::default();
        t.insert(NodeId(0), 10);
        t.insert(NodeId(1), 11);
        assert_eq!(t.remove(&NodeId(0)), Some(10));
        assert_eq!(t.remove(&NodeId(0)), None, "double remove is a miss");
        assert_eq!(t.len(), 1);
        // A stale handle to the vacated slot stays a miss forever: ids are
        // never reused, so there is nothing to alias.
        assert_eq!(t.get(&NodeId(0)), None);
        assert!(!t.contains_key(&NodeId(0)));
        assert_eq!(t.keys().count(), 1);
    }

    #[test]
    fn node_table_flags_are_per_slot_and_reset_on_insert() {
        let mut t: NodeTable<u32> = NodeTable::default();
        t.insert(NodeId(2), 5);
        assert_eq!(t.flags(&NodeId(2)), 0);
        t.set_flag(&NodeId(2), FLAG_TRANSMITTING, true);
        t.set_flag(&NodeId(2), FLAG_MAC_SCHEDULED, true);
        assert_eq!(t.flags(&NodeId(2)), FLAG_TRANSMITTING | FLAG_MAC_SCHEDULED);
        t.set_flag(&NodeId(2), FLAG_TRANSMITTING, false);
        assert_eq!(t.flags(&NodeId(2)), FLAG_MAC_SCHEDULED);
        // Flags of a dead node read as 0 and writes are no-ops.
        t.remove(&NodeId(2));
        assert_eq!(t.flags(&NodeId(2)), 0);
        t.set_flag(&NodeId(2), FLAG_TRANSMITTING, true);
        assert_eq!(t.flags(&NodeId(2)), 0);
        // parts_mut hands out both halves together.
        t.insert(NodeId(0), 1);
        let (v, f) = t.parts_mut(&NodeId(0)).expect("live");
        *v = 9;
        *f |= FLAG_BUCKET_SCHEDULED;
        assert_eq!(t.get(&NodeId(0)), Some(&9));
        assert_eq!(t.flags(&NodeId(0)), FLAG_BUCKET_SCHEDULED);
    }

    #[test]
    fn seq_slab_window_advances_and_stale_keys_miss() {
        let mut s: SeqSlab<u64> = SeqSlab::default();
        for k in 0..5u64 {
            s.insert(k, k * 100);
        }
        assert_eq!(s.len(), 5);
        let vals: Vec<u64> = s.values().copied().collect();
        assert_eq!(vals, vec![0, 100, 200, 300, 400]);
        // Remove out of order: a hole, then the leading run collapses.
        assert_eq!(s.remove(&1), Some(100));
        assert_eq!(s.remove(&0), Some(0));
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(&0), None, "pruned handle misses");
        assert_eq!(s.get(&1), None);
        assert_eq!(s.get(&2), Some(&200));
        let vals: Vec<u64> = s.values().copied().collect();
        assert_eq!(vals, vec![200, 300, 400], "ascending after base advance");
        // New inserts continue the monotone sequence.
        s.insert(5, 500);
        assert_eq!(s.get(&5), Some(&500));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn seq_slab_removing_all_resets_window_to_empty() {
        let mut s: SeqSlab<&'static str> = SeqSlab::default();
        s.insert(0, "a");
        s.insert(1, "b");
        assert_eq!(s.remove(&0), Some("a"));
        assert_eq!(s.remove(&1), Some("b"));
        assert_eq!(s.len(), 0);
        assert_eq!(s.values().count(), 0);
        s.insert(2, "c");
        assert_eq!(s.get(&2), Some(&"c"));
        assert_eq!(s.remove(&2), Some("c"));
        assert_eq!(s.remove(&2), None);
    }
}
