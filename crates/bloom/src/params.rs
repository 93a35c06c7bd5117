//! Bloom filter sizing.

use std::num::NonZeroU32;

/// Sizing parameters for a [`BloomFilter`](crate::BloomFilter).
///
/// The PDS consumer computes these from the number of metadata entries it has
/// already received and a target false-positive probability (the paper uses
/// `p < 0.01`, §V-3).
///
/// # Examples
///
/// ```
/// use pds_bloom::BloomParams;
///
/// let p = BloomParams::optimal(10_000, 0.01);
/// assert!(p.bits() >= 10_000); // ~9.6 bits per element at 1 % FPR
/// assert_eq!(p.hashes(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BloomParams {
    bits: u64,
    // Non-zero, as `new` asserts: the spare value lets an
    // `Option<BloomFilter>` take no more room than a filter.
    hashes: NonZeroU32,
}

impl BloomParams {
    /// Creates parameters from an explicit bit count and hash count.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `hashes == 0`.
    #[must_use]
    pub(crate) fn new(bits: u64, hashes: u32) -> Self {
        assert!(bits > 0, "bloom filter must have at least one bit");
        let Some(hashes) = NonZeroU32::new(hashes) else {
            panic!("bloom filter must use at least one hash");
        };
        Self { bits, hashes }
    }

    /// Computes the smallest parameters achieving false-positive probability
    /// `fpp` for an expected `items` insertions, using the standard formulas
    /// `m = -n ln p / (ln 2)^2` and `k = (m/n) ln 2`.
    ///
    /// `items == 0` yields a minimal 64-bit filter (a consumer that has
    /// received nothing sends an empty filter that matches nothing).
    ///
    /// # Panics
    ///
    /// Panics if `fpp` is not strictly between 0 and 1.
    #[must_use]
    pub fn optimal(items: usize, fpp: f64) -> Self {
        assert!(
            fpp > 0.0 && fpp < 1.0,
            "false positive rate must be in (0, 1)"
        );
        if items == 0 {
            return Self::new(64, 1);
        }
        let n = items as f64;
        let ln2 = core::f64::consts::LN_2;
        let m = (-n * fpp.ln() / (ln2 * ln2)).ceil();
        let bits = (m as u64).max(64);
        let k = ((bits as f64 / n) * ln2).round().max(1.0);
        Self::new(bits, k as u32)
    }

    /// Number of bits in the filter.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Number of hash probes per element.
    #[must_use]
    pub fn hashes(&self) -> u32 {
        self.hashes.get()
    }

    /// Number of bytes the bit array occupies.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        usize::try_from(self.bits.div_ceil(8)).expect("filter fits in memory")
    }

    /// Predicted false-positive probability after `items` insertions:
    /// `(1 - e^{-kn/m})^k`.
    #[cfg(test)]
    pub(crate) fn expected_fpp(&self, items: usize) -> f64 {
        let k = f64::from(self.hashes.get());
        let n = items as f64;
        let m = self.bits as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }
}

impl Default for BloomParams {
    /// Defaults sized for ~1000 elements at 1 % false positives — a typical
    /// single-round metadata haul in the paper's normal-load scenarios.
    fn default() -> Self {
        Self::optimal(1000, 0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_matches_textbook_values() {
        // 10 000 items at 1 % → ~95 851 bits, 7 hashes.
        let p = BloomParams::optimal(10_000, 0.01);
        assert!((95_000..97_000).contains(&p.bits()), "bits = {}", p.bits());
        assert_eq!(p.hashes(), 7);
    }

    #[test]
    fn optimal_zero_items_is_minimal() {
        let p = BloomParams::optimal(0, 0.01);
        assert_eq!(p.bits(), 64);
        assert_eq!(p.hashes(), 1);
    }

    #[test]
    fn expected_fpp_close_to_target() {
        let p = BloomParams::optimal(5_000, 0.01);
        let fpp = p.expected_fpp(5_000);
        assert!(fpp <= 0.012, "fpp = {fpp}");
    }

    #[test]
    fn byte_len_rounds_up() {
        assert_eq!(BloomParams::new(9, 1).byte_len(), 2);
        assert_eq!(BloomParams::new(8, 1).byte_len(), 1);
    }

    #[test]
    #[should_panic(expected = "false positive rate")]
    fn optimal_rejects_bad_fpp() {
        let _ = BloomParams::optimal(10, 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one hash")]
    fn new_rejects_zero_hashes() {
        let _ = BloomParams::new(10, 0);
    }

    #[test]
    fn default_is_reasonable() {
        let p = BloomParams::default();
        assert!(p.bits() > 0 && p.hashes() > 0);
    }
}
