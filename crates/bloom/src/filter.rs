//! The Bloom filter proper, including the wire encoding used to embed
//! filters in PDS query messages.

use crate::hash::{probes, Probes};
use crate::params::BloomParams;
use std::fmt;

/// A seedable Bloom filter over byte-string elements.
///
/// Guarantees **no false negatives**: after `insert(x)`, `contains(x)` is
/// always `true` for the same hash family (same seed). False positives occur
/// with the probability predicted by [`BloomParams::expected_fpp`].
///
/// # Examples
///
/// ```
/// use pds_bloom::{BloomFilter, BloomParams};
///
/// let mut seen = BloomFilter::with_round(BloomParams::optimal(100, 0.01), 3);
/// seen.insert(b"entry-1");
/// assert!(seen.contains(b"entry-1"));
/// assert!(!seen.contains(b"entry-2") || true); // may rarely be a false positive
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BloomFilter {
    params: BloomParams,
    seed: u64,
    bits: Vec<u8>,
    items: u64,
}

impl BloomFilter {
    /// Creates an empty filter with the round-0 hash family.
    #[must_use]
    pub fn new(params: BloomParams) -> Self {
        Self::with_round(params, 0)
    }

    /// Creates an empty filter whose hash family is derived from `round`.
    ///
    /// PDS builds a fresh filter per discovery round; distinct rounds use
    /// distinct hash families so a false positive in round *r* is independent
    /// of round *r+1* (§V-3 of the paper).
    #[must_use]
    pub fn with_round(params: BloomParams, round: u32) -> Self {
        Self {
            params,
            seed: 0x5eed_0000_0000_0000 ^ u64::from(round),
            bits: vec![0; params.byte_len()],
            items: 0,
        }
    }

    /// The sizing parameters this filter was built with.
    #[must_use]
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// The hash-family seed (derived from the discovery round).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of `insert` calls so far (counts duplicates).
    #[must_use]
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Whether no element has ever been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Inserts an element. Returns `true` if the element was *not* already
    /// reported present (i.e. at least one probed bit was newly set).
    pub fn insert(&mut self, element: &[u8]) -> bool {
        let mut newly_set = false;
        for idx in self.probes(element) {
            let (byte, mask) = Self::locate(idx);
            if let Some(b) = self.bits.get_mut(byte) {
                newly_set |= *b & mask == 0;
                *b |= mask;
            }
        }
        self.items += 1;
        newly_set
    }

    /// Tests membership. Never returns `false` for an inserted element.
    /// Stops at the first clear bit.
    #[must_use]
    pub fn contains(&self, element: &[u8]) -> bool {
        self.probes(element).all(|idx| {
            let (byte, mask) = Self::locate(idx);
            self.bits.get(byte).is_some_and(|b| b & mask != 0)
        })
    }

    fn probes(&self, element: &[u8]) -> Probes {
        probes(element, self.seed, self.params.hashes(), self.params.bits())
    }

    /// Fraction of bits set — a saturation diagnostic. A healthy filter sits
    /// near 0.5 at design load.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|b| b.count_ones()).sum();
        f64::from(set) / self.params.bits() as f64
    }

    /// Serializes the filter for embedding in a query message.
    ///
    /// Layout: `bits:u64 | hashes:u32 | seed:u64 | items:u64 | bitarray`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28 + self.bits.len());
        out.extend_from_slice(&self.params.bits().to_le_bytes());
        out.extend_from_slice(&self.params.hashes().to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.items.to_le_bytes());
        out.extend_from_slice(&self.bits);
        out
    }

    /// Deserializes a filter previously produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeBloomError`] if the buffer is truncated or the header
    /// is inconsistent with the payload length.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeBloomError> {
        if buf.len() < 28 {
            return Err(DecodeBloomError::Truncated);
        }
        let bits = u64::from_le_bytes(buf[0..8].try_into().expect("slice len 8"));
        let hashes = u32::from_le_bytes(buf[8..12].try_into().expect("slice len 4"));
        let seed = u64::from_le_bytes(buf[12..20].try_into().expect("slice len 8"));
        let items = u64::from_le_bytes(buf[20..28].try_into().expect("slice len 8"));
        if bits == 0 || hashes == 0 {
            return Err(DecodeBloomError::BadHeader);
        }
        let params = BloomParams::new(bits, hashes);
        let body = &buf[28..];
        if body.len() != params.byte_len() {
            return Err(DecodeBloomError::LengthMismatch {
                expected: params.byte_len(),
                actual: body.len(),
            });
        }
        Ok(Self {
            params,
            seed,
            bits: body.to_vec(),
            items,
        })
    }

    /// Size of the encoded form in bytes, for message-overhead accounting.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        28 + self.bits.len()
    }

    /// Byte offset and bit mask of bit `idx`. An index past the address
    /// space maps past the bit array, where `get` finds nothing.
    fn locate(idx: u64) -> (usize, u8) {
        (
            usize::try_from(idx / 8).unwrap_or(usize::MAX),
            1u8 << (idx % 8),
        )
    }
}

impl fmt::Debug for BloomFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BloomFilter")
            .field("bits", &self.params.bits())
            .field("hashes", &self.params.hashes())
            .field("seed", &self.seed)
            .field("items", &self.items)
            .field("fill_ratio", &self.fill_ratio())
            .finish()
    }
}

/// Error decoding a serialized [`BloomFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeBloomError {
    /// The buffer was shorter than the fixed header.
    Truncated,
    /// The header contained a zero bit or hash count.
    BadHeader,
    /// The payload length disagreed with the header's bit count.
    LengthMismatch {
        /// Byte length implied by the header.
        expected: usize,
        /// Byte length actually present.
        actual: usize,
    },
}

impl fmt::Display for DecodeBloomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "bloom filter buffer shorter than header"),
            Self::BadHeader => write!(f, "bloom filter header has zero bits or hashes"),
            Self::LengthMismatch { expected, actual } => write!(
                f,
                "bloom filter payload length {actual} does not match header ({expected})"
            ),
        }
    }
}

impl std::error::Error for DecodeBloomError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(n: usize) -> BloomFilter {
        BloomFilter::new(BloomParams::optimal(n, 0.01))
    }

    #[test]
    fn no_false_negatives_small() {
        let mut f = filter(100);
        for i in 0..100u32 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..100u32 {
            assert!(f.contains(&i.to_le_bytes()), "lost element {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_design() {
        let mut f = filter(2000);
        for i in 0..2000u32 {
            f.insert(format!("in-{i}").as_bytes());
        }
        let fp = (0..20_000u32)
            .filter(|i| f.contains(format!("out-{i}").as_bytes()))
            .count();
        let rate = fp as f64 / 20_000.0;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn empty_filter_matches_nothing_mostly() {
        let f = filter(100);
        assert!(f.is_empty());
        assert!(!f.contains(b"anything"));
    }

    #[test]
    fn insert_reports_novelty() {
        let mut f = filter(100);
        assert!(f.insert(b"x"));
        assert!(!f.insert(b"x"), "re-inserting must not set new bits");
        assert_eq!(f.items(), 2);
    }

    #[test]
    fn membership_agrees_with_the_collected_indices() {
        // `contains` short-circuits and `insert` walks the lazy iterator;
        // both must touch exactly the bits `double_hash_indices` names.
        let params = BloomParams::new(1_021, 5);
        let mut f = BloomFilter::with_round(params, 2);
        let mut expected = vec![0u8; params.byte_len()];
        for i in 0..60u32 {
            let element = i.to_le_bytes();
            f.insert(&element);
            for idx in crate::double_hash_indices(&element, f.seed(), 5, 1_021) {
                expected[(idx / 8) as usize] |= 1 << (idx % 8);
            }
        }
        assert_eq!(f.bits, expected);
        for i in 0..2_000u32 {
            let element = i.to_le_bytes();
            let all_set = crate::double_hash_indices(&element, f.seed(), 5, 1_021)
                .into_iter()
                .all(|idx| expected[(idx / 8) as usize] & (1 << (idx % 8)) != 0);
            assert_eq!(f.contains(&element), all_set, "element {i}");
        }
    }

    #[test]
    fn rounds_use_distinct_hash_families() {
        let params = BloomParams::optimal(100, 0.01);
        let a = BloomFilter::with_round(params, 0);
        let b = BloomFilter::with_round(params, 1);
        assert_ne!(a.seed(), b.seed());
    }

    #[test]
    fn cross_round_false_positives_decay() {
        // An element that happens to be a false positive in round r should
        // (almost always) not be one in round r+1.
        let params = BloomParams::new(256, 4); // deliberately small => many FPs
        let mut r0 = BloomFilter::with_round(params, 0);
        let mut r1 = BloomFilter::with_round(params, 1);
        for i in 0..80u32 {
            r0.insert(&i.to_le_bytes());
            r1.insert(&i.to_le_bytes());
        }
        let fp_both = (1000..6000u32)
            .filter(|i| r0.contains(&i.to_le_bytes()) && r1.contains(&i.to_le_bytes()))
            .count() as f64
            / 5000.0;
        let fp_r0 = (1000..6000u32)
            .filter(|i| r0.contains(&i.to_le_bytes()))
            .count() as f64
            / 5000.0;
        assert!(
            fp_both < fp_r0,
            "joint FP rate {fp_both} should be below single-round {fp_r0}"
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut f = BloomFilter::with_round(BloomParams::optimal(50, 0.02), 7);
        for i in 0..50u32 {
            f.insert(&i.to_le_bytes());
        }
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let g = BloomFilter::decode(&bytes).expect("roundtrip");
        assert_eq!(f, g);
        for i in 0..50u32 {
            assert!(g.contains(&i.to_le_bytes()));
        }
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(
            BloomFilter::decode(&[0u8; 10]),
            Err(DecodeBloomError::Truncated)
        );
    }

    #[test]
    fn decode_rejects_zero_header() {
        let buf = [0u8; 28];
        assert_eq!(BloomFilter::decode(&buf), Err(DecodeBloomError::BadHeader));
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let f = filter(10);
        let mut bytes = f.encode();
        bytes.pop();
        assert!(matches!(
            BloomFilter::decode(&bytes),
            Err(DecodeBloomError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn fill_ratio_grows() {
        let mut f = filter(500);
        let before = f.fill_ratio();
        for i in 0..500u32 {
            f.insert(&i.to_le_bytes());
        }
        assert!(f.fill_ratio() > before);
        assert!(f.fill_ratio() < 0.75, "overfull at design load");
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", filter(10));
        assert!(s.contains("BloomFilter"));
    }
}
