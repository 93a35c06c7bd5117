//! Deterministic collections for the PDS workspace.
//!
//! The simulator's headline guarantee is that identical (config, seed,
//! scenario) triples replay **bit-identically** — across processes and
//! across machines. Std's `HashMap`/`HashSet` break that discipline in two
//! ways:
//!
//! 1. **Randomized hashing.** `RandomState` seeds SipHash from OS entropy
//!    per process, so iteration order differs between two runs of the same
//!    binary. Any iteration that feeds event ordering, rng consumption, or
//!    floating-point accumulation order silently destroys replay equality.
//! 2. **HashDoS resistance nobody needs.** Keys here are simulated ids and
//!    grid cells, not attacker-controlled input; SipHash's per-lookup cost
//!    shows up directly in the event-loop profile.
//!
//! [`DetMap`]/[`DetSet`] replace both uses: a fixed-seed multiply-xor
//! hasher ([`DetHasher`]) makes iteration order a pure function of the
//! insert/remove history — the same in every process, every run. Where
//! code additionally needs an order that is independent of *insertion
//! history* (e.g. wire-visible lists), [`SortedIterExt::iter_sorted`]
//! provides key-ascending iteration, or use `BTreeMap` directly.
//!
//! `cargo xtask lint` statically rejects std `HashMap`/
//! `HashSet` in the simulation crates; this crate is the single audited
//! place that touches them.
//!
//! # Examples
//!
//! ```
//! use pds_det::{DetMap, SortedIterExt};
//!
//! let mut m: DetMap<u32, &str> = DetMap::default();
//! m.insert(2, "b");
//! m.insert(1, "a");
//! let sorted: Vec<_> = m.iter_sorted().map(|(k, v)| (*k, *v)).collect();
//! assert_eq!(sorted, vec![(1, "a"), (2, "b")]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The whole point of this crate is to wrap the std hash collections behind
// a deterministic hasher; it is the one audited exemption from the
// workspace-wide `disallowed-types` clippy config.
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fixed-seed multiply-xor hasher for the small keys used across the
/// workspace (node/chunk/query ids, grid cells, entry keys).
///
/// Identical input bytes hash identically in every process — there is no
/// per-process random state — which is what makes [`DetMap`] iteration
/// order replay-stable. Quality is FNV/Fibonacci-grade: plenty for
/// simulated-id keys, and substantially cheaper per probe than SipHash on
/// the radio hot paths (dozens of map probes per simulation event).
#[derive(Clone, Copy, Default)]
pub struct DetHasher(u64);

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Zero-sized, entropy-free `BuildHasher` producing [`DetHasher`]s.
pub type DetState = BuildHasherDefault<DetHasher>;

/// A `HashMap` with deterministic, replay-stable iteration order.
///
/// Iteration order is a pure function of the sequence of inserts and
/// removes — identical across processes and machines for the same history.
/// It is *not* sorted and *not* insertion-order; callers that need an
/// order independent of history use [`SortedIterExt::iter_sorted`].
///
/// Construct with `DetMap::default()` (std's `new()` is only defined for
/// `RandomState`) or collect from an iterator.
pub type DetMap<K, V> = HashMap<K, V, DetState>;

/// A `HashSet` with deterministic, replay-stable iteration order.
///
/// Same contract as [`DetMap`]; construct with `DetSet::default()`.
pub type DetSet<T> = HashSet<T, DetState>;

/// Re-export of the hash-map entry API so migrated code never names
/// `std::collections::hash_map` (which the determinism lint rejects).
pub use std::collections::hash_map::Entry as MapEntry;

/// Creates an empty [`DetMap`] with room for `n` entries.
#[must_use]
pub fn map_with_capacity<K, V>(n: usize) -> DetMap<K, V> {
    DetMap::with_capacity_and_hasher(n, DetState::default())
}

/// Creates an empty [`DetSet`] with room for `n` items.
#[must_use]
pub fn set_with_capacity<T>(n: usize) -> DetSet<T> {
    DetSet::with_capacity_and_hasher(n, DetState::default())
}

/// Key-ascending iteration over the deterministic collections, for the
/// places where order must not depend on insertion history at all (wire
/// formats, user-visible listings, f64 accumulation).
pub trait SortedIterExt {
    /// The `(key, value)` — or plain item — type yielded.
    type Item;
    /// Iterates entries ascending by key, independent of insertion order.
    fn iter_sorted(self) -> std::vec::IntoIter<Self::Item>;
}

impl<'a, K: Ord, V> SortedIterExt for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    fn iter_sorted(self) -> std::vec::IntoIter<Self::Item> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v.into_iter()
    }
}

impl<'a, T: Ord> SortedIterExt for &'a DetSet<T> {
    type Item = &'a T;
    fn iter_sorted(self) -> std::vec::IntoIter<Self::Item> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_unstable();
        v.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics_and_entry_api() {
        let mut m: DetMap<u64, u64> = DetMap::default();
        assert!(m.insert(1, 10).is_none());
        match m.entry(2) {
            MapEntry::Vacant(v) => {
                v.insert(20);
            }
            MapEntry::Occupied(_) => panic!("fresh key"),
        }
        *m.entry(1).or_insert(0) += 5;
        assert_eq!(m.get(&1), Some(&15));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn collect_uses_det_state() {
        let m: DetMap<u32, u32> = (0..10).map(|i| (i, i * i)).collect();
        assert_eq!(m.get(&3), Some(&9));
        let s: DetSet<u32> = (0..10).collect();
        assert!(s.contains(&7));
    }

    #[test]
    fn iter_sorted_is_key_ascending() {
        let mut m: DetMap<i32, &str> = DetMap::default();
        for k in [5, -1, 3, 0] {
            m.insert(k, "x");
        }
        let keys: Vec<i32> = m.iter_sorted().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![-1, 0, 3, 5]);
        let mut s: DetSet<&str> = DetSet::default();
        s.extend(["pear", "apple", "fig"]);
        let items: Vec<&str> = s.iter_sorted().copied().collect();
        assert_eq!(items, vec!["apple", "fig", "pear"]);
    }

    #[test]
    fn with_capacity_helpers() {
        let mut m = map_with_capacity::<u8, u8>(32);
        assert!(m.capacity() >= 32);
        m.insert(1, 1);
        let mut s = set_with_capacity::<u8>(32);
        assert!(s.capacity() >= 32);
        s.insert(1);
    }

    #[test]
    fn hasher_is_entropy_free() {
        // Two independently constructed states hash identically — the
        // property RandomState lacks.
        let hash = |k: u64| {
            use std::hash::BuildHasher;
            DetState::default().hash_one(k)
        };
        assert_eq!(hash(0xdead_beef), hash(0xdead_beef));
        assert_ne!(hash(1), hash(2));
    }
}
