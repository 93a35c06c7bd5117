//! A set of small indices over a universe fixed at construction.

/// A set of indices drawn from `0..n`, where `n` (the universe) is fixed
/// when the set is built.
///
/// One bit per index: PDR's outstanding and received chunks (§IV) and the
/// selective-ack transport's received fragments (§V-1) are all sets of
/// this shape. The first 64 bits live inline, so a set over at most 64
/// indices — nearly every message's fragments, most items' chunks — never
/// allocates, and the rest sit in one exactly sized slice. An index at or
/// past `n` is never a member: [`insert`] refuses it, so no input can grow
/// the set past what it was sized for.
///
/// [`insert`]: BitSet::insert
///
/// # Examples
///
/// ```
/// use pds_det::BitSet;
///
/// let mut s = BitSet::new(130);
/// assert!(s.insert(129) && s.insert(3));
/// assert!(!s.insert(130), "outside the universe");
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 129]);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    word0: u64,
    spill: Box<[u64]>,
    universe: u32,
    len: u32,
}

impl BitSet {
    /// An empty set over `0..n`.
    #[must_use]
    pub fn new(n: u32) -> Self {
        let words = (n as usize).div_ceil(64).max(1);
        Self {
            word0: 0,
            spill: vec![0; words - 1].into_boxed_slice(),
            universe: n,
            len: 0,
        }
    }

    /// The set holding every index of `0..n`.
    #[must_use]
    pub fn full(n: u32) -> Self {
        let mut s = Self::new(n);
        (0..n).for_each(|i| _ = s.insert(i));
        s
    }

    #[inline]
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.word0).chain(self.spill.iter().copied())
    }

    #[inline]
    fn word(&self, w: usize) -> Option<u64> {
        if w == 0 {
            Some(self.word0)
        } else {
            self.spill.get(w - 1).copied()
        }
    }

    /// The word holding `i`, with `i`'s bit in it; `None` past the universe.
    #[inline]
    fn slot(&mut self, i: u32) -> Option<(&mut u64, u64)> {
        let word = match i / 64 {
            _ if i >= self.universe => None,
            0 => Some(&mut self.word0),
            w => self.spill.get_mut(w as usize - 1),
        };
        word.map(|word| (word, 1 << (i % 64)))
    }

    /// Adds `i`; returns `true` if it was newly added. An index at or past
    /// the universe is refused: nothing is set and the result is `false`.
    #[inline]
    pub fn insert(&mut self, i: u32) -> bool {
        let new = self.slot(i).is_some_and(|(word, bit)| {
            let new = *word & bit == 0;
            *word |= bit;
            new
        });
        self.len += u32::from(new);
        new
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: u32) -> bool {
        let had = self.slot(i).is_some_and(|(word, bit)| {
            let had = *word & bit != 0;
            *word &= !bit;
            had
        });
        self.len -= u32::from(had);
        had
    }

    /// Whether `i` is present; `false` for any index past the universe.
    #[inline]
    #[must_use]
    pub fn contains(&self, i: u32) -> bool {
        i < self.universe
            && self
                .word(i as usize / 64)
                .is_some_and(|w| w & 1 << (i % 64) != 0)
    }

    /// Number of indices present.
    #[inline]
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether no index is present.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every index of the universe is present (vacuously so for
    /// an empty universe).
    #[inline]
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.universe
    }

    /// Adds every index of `other` that lies inside this set's universe.
    pub fn union_with(&mut self, other: &BitSet) {
        self.word0 |= other.word0;
        for (w, o) in self.spill.iter_mut().zip(&other.spill) {
            *w |= *o;
        }
        // Clear what `other`'s larger universe set past ours.
        let tail = self.universe % 64;
        if tail != 0 || self.universe == 0 {
            *self.spill.last_mut().unwrap_or(&mut self.word0) &= (1 << tail) - 1;
        }
        self.len = self.words().map(u64::count_ones).sum();
    }

    /// The present indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().enumerate().flat_map(|(w, mut word)| {
            std::iter::from_fn(move || {
                let b = (word != 0).then(|| word.trailing_zeros())?;
                word &= word - 1;
                Some(w as u32 * 64 + b)
            })
        })
    }

    /// Wire size of the bitmap in bytes: `8·max(1, ⌈n/64⌉)`.
    #[inline]
    #[must_use]
    pub fn byte_len(&self) -> usize {
        (1 + self.spill.len()) * 8
    }

    /// Heap bytes behind the set (the words past the inline first one).
    #[inline]
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.spill.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn counts_and_completes() {
        let mut s = BitSet::new(130);
        assert!(!s.is_full());
        for i in 0..130 {
            assert!(s.insert(i), "index {i} should be new");
        }
        assert!(!s.insert(5));
        assert!(s.is_full());
        assert_eq!(s.len(), 130);
        assert_eq!((0..130).filter(|&i| !s.contains(i)).count(), 0);
    }

    #[test]
    fn union_with_unions() {
        let mut a = BitSet::new(10);
        a.insert(1);
        let mut b = BitSet::new(10);
        b.insert(2);
        b.insert(1);
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(2));
        assert_eq!(a.len(), 2);
        assert_eq!((0..10).filter(|&i| !a.contains(i)).count(), 8);
    }

    #[test]
    fn full_is_full_and_sized_for_the_wire() {
        assert!(BitSet::full(65).is_full());
        assert_eq!(BitSet::full(65).byte_len(), 16);
        assert_eq!(BitSet::new(0).byte_len(), 8);
        assert_eq!(BitSet::new(64).byte_len(), 8);
        assert_eq!(BitSet::new(64).heap_bytes(), 0, "one word stays inline");
    }

    #[test]
    fn tracks_membership_like_a_btreeset() {
        let mut s = BitSet::new(131);
        for i in [0, 3, 130] {
            s.insert(i);
        }
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(130));
        assert!(!s.contains(1) && !s.contains(999));
        assert!(s.remove(3));
        assert!(!s.remove(3), "double remove is a no-op");
        assert!(!s.insert(0), "duplicate insert is a no-op");
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        // 131 indices fit in three words: two on the heap, ~16 bytes.
        assert!(s.heap_bytes() <= 64);
    }

    #[test]
    fn indices_past_the_universe_are_refused() {
        let mut s = BitSet::new(3);
        assert!(!s.insert(3) && !s.insert(u32::MAX));
        assert!(!s.contains(3) && !s.remove(3));
        assert!(s.is_empty());
        let mut wide = BitSet::new(100);
        wide.insert(2);
        wide.insert(7);
        wide.insert(99);
        s.union_with(&wide);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(s.len(), 1);
        let mut empty = BitSet::default();
        empty.union_with(&wide);
        assert!(empty.is_empty() && empty.is_full());
        assert_eq!(
            size_of::<BitSet>(),
            32,
            "the size of the `Vec` set it replaced"
        );
    }

    proptest! {
        #[test]
        fn matches_a_btreeset(
            n in 0u32..300,
            ops in proptest::collection::vec((0u8..3, 0u32..320), 0..200),
            other in proptest::collection::vec(0u32..320, 0..64),
        ) {
            let mut s = BitSet::new(n);
            let mut oracle: BTreeSet<u32> = BTreeSet::new();
            for (op, i) in ops {
                let in_range = i < n;
                match op {
                    0 => prop_assert_eq!(s.insert(i), in_range && oracle.insert(i)),
                    1 => prop_assert_eq!(s.remove(i), oracle.remove(&i)),
                    _ => prop_assert_eq!(s.contains(i), oracle.contains(&i)),
                }
                prop_assert_eq!(s.len() as usize, oracle.len());
            }
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), oracle.iter().copied().collect::<Vec<_>>());
            let mut o = BitSet::new(320);
            for &i in &other {
                o.insert(i);
            }
            s.union_with(&o);
            oracle.extend(other.into_iter().filter(|&i| i < n));
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), oracle.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(s.len() as usize, oracle.len());
            prop_assert_eq!(s.is_full(), oracle.len() == n as usize);
        }
    }
}
