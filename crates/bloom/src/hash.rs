//! Hashing primitives for Bloom filters.
//!
//! Index derivation uses the classic Kirsch–Mitzenmacher double-hashing
//! scheme: two independent 64-bit digests `h1`, `h2` of the element generate
//! the family `g_i(x) = h1 + i * h2 (mod m)`, which preserves the asymptotic
//! false-positive behaviour of `k` independent hash functions.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;
/// Seed offset of the second digest; keeps `h2` independent of `h1`.
const H2_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, seedable, non-cryptographic 64-bit hash (FNV-1a core with a
/// splitmix64 finalizer).
///
/// The `seed` selects an independent hash family; PDS rotates the seed every
/// discovery round so false positives do not persist across rounds.
///
/// The reference the tests hold [`probes`] to: production code computes
/// both digests of an element in one pass over its bytes.
#[cfg(test)]
#[must_use]
pub(crate) fn hash64(data: &[u8], seed: u64) -> u64 {
    let mut h = FNV_OFFSET ^ splitmix64(seed);
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    splitmix64(h)
}

/// The splitmix64 finalizer: a cheap bijective mixer with good avalanche.
#[must_use]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `k` bit indices (in `0..m`) probed for one element, computed
/// lazily: no allocation, and a membership test can stop at the first
/// clear bit. Built by [`probes`].
#[derive(Debug, Clone)]
pub(crate) struct Probes {
    h1: u64,
    h2: u64,
    m: u64,
    next: u32,
    k: u32,
}

impl Iterator for Probes {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.next == self.k {
            return None;
        }
        let i = u64::from(self.next);
        self.next += 1;
        Some(self.h1.wrapping_add(i.wrapping_mul(self.h2)) % self.m)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.k - self.next) as usize;
        (left, Some(left))
    }
}

/// The probe sequence for `data` under the hash family selected by `seed`.
///
/// Both FNV digests are computed in a single pass over `data`. The index
/// sequence decides every false positive, so it is pinned by a test: a
/// faster hash is a protocol change, not an optimisation.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub(crate) fn probes(data: &[u8], seed: u64, k: u32, m: u64) -> Probes {
    assert!(m > 0, "bloom filter must have at least one bit");
    let mut h1 = FNV_OFFSET ^ splitmix64(seed);
    let mut h2 = FNV_OFFSET ^ splitmix64(seed ^ H2_SEED);
    for &b in data {
        let b = u64::from(b);
        h1 = (h1 ^ b).wrapping_mul(FNV_PRIME);
        h2 = (h2 ^ b).wrapping_mul(FNV_PRIME);
    }
    Probes {
        h1: splitmix64(h1),
        h2: splitmix64(h2) | 1, // odd => full period
        m,
        next: 0,
        k,
    }
}

/// The `k` bit indices (in `0..m`) probed for `data` under the hash family
/// selected by `seed` — what the filter's lazy probe iterator yields,
/// collected.
///
/// Exposed publicly so tests and downstream diagnostics can reason about
/// probe positions without reimplementing the scheme.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn double_hash_indices(data: &[u8], seed: u64, k: u32, m: u64) -> Vec<u64> {
    probes(data, seed, k, m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_depends_on_seed() {
        let a = hash64(b"entry", 1);
        let b = hash64(b"entry", 2);
        assert_ne!(a, b);
    }

    #[test]
    fn hash64_depends_on_data() {
        assert_ne!(hash64(b"a", 7), hash64(b"b", 7));
    }

    #[test]
    fn hash64_is_deterministic() {
        assert_eq!(hash64(b"same", 42), hash64(b"same", 42));
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // Not a proof, but distinct inputs should stay distinct.
        let outs: Vec<u64> = (0u64..1000).map(splitmix64).collect();
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), outs.len());
    }

    #[test]
    fn indices_in_range_and_count() {
        let idx = double_hash_indices(b"x", 3, 7, 100);
        assert_eq!(idx.len(), 7);
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn indices_zero_bits_panics() {
        let _ = double_hash_indices(b"x", 0, 1, 0);
    }

    #[test]
    fn probes_match_the_two_digest_reference() {
        // Random (data, seed, k, m): the one-pass lazy iterator must yield
        // exactly g_i = h1 + i * (h2 | 1) mod m over the reference hash.
        let mut state = 0x00c0_ffee_u64;
        let mut next = || {
            state = splitmix64(state);
            state
        };
        for _ in 0..2_000 {
            let data: Vec<u8> = (0..next() % 48).map(|_| next() as u8).collect();
            let (seed, k, m) = (next(), (next() % 17) as u32, next() % 1_000_003 + 1);
            let h1 = hash64(&data, seed);
            let h2 = hash64(&data, seed ^ H2_SEED) | 1;
            let reference: Vec<u64> = (0..u64::from(k))
                .map(|i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
                .collect();
            let lazy = probes(&data, seed, k, m);
            assert_eq!(lazy.size_hint(), (k as usize, Some(k as usize)));
            assert_eq!(lazy.collect::<Vec<_>>(), reference);
            assert_eq!(double_hash_indices(&data, seed, k, m), reference);
        }
    }

    #[test]
    fn probe_indices_are_pinned() {
        // Taken from the allocating implementation this iterator replaced.
        // The indices decide which entries a filter falsely reports present,
        // hence what is sent on the air: a different hash changes every
        // simulated result and replay digest.
        assert_eq!(
            double_hash_indices(b"pds-entry", 0x5eed_0000_0000_0003, 7, 95_851),
            [92_583, 16_651, 89_943, 67_384, 87_303, 64_744, 42_185]
        );
        assert_eq!(double_hash_indices(b"", 0, 3, 64), [12, 1, 54]);
    }

    #[test]
    fn indices_change_with_seed() {
        let a = double_hash_indices(b"x", 1, 4, 1 << 20);
        let b = double_hash_indices(b"x", 2, 4, 1 << 20);
        assert_ne!(a, b);
    }
}
