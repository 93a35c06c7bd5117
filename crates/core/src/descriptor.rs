//! Data descriptors — self-describing metadata entries (§II-B).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::config::MAX_ITEM_CHUNKS;
use crate::ids::{ChunkId, ItemName};
use crate::value::{AttrRef, AttrValue};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Well-known attribute names.
pub(crate) mod attrs {
    /// Unique item name for large chunked items.
    pub(crate) const NAME: &str = "name";
    /// Number of chunks of a large item.
    pub(crate) const TOTAL_CHUNKS: &str = "total_chunks";
    /// Chunk index, present only on chunk descriptors.
    pub(crate) const CHUNK_ID: &str = "chunk_id";
}

/// Canonical identity of a metadata entry: the byte encoding of its
/// descriptor. Used as the Bloom-filter element and dedup key.
///
/// A key *is* its descriptor's shared handle (a descriptor is its
/// encoding), so a map keyed by `EntryKey` whose value is the descriptor
/// holds one allocation per entry, not two. Equality, ordering and hashing
/// go by the key bytes alone — `Hash` feeds the hasher exactly what the
/// byte slice does, which is what lets maps be probed with `&[u8]` and
/// keeps `DetMap` iteration order (wire-visible through
/// `DataStore::match_metadata`) a function of the bytes.
#[derive(Debug, Clone)]
pub struct EntryKey(DataDescriptor);

impl EntryKey {
    /// The key bytes (what gets inserted into Bloom filters).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        self.0.encode()
    }

    /// The descriptor this key identifies.
    #[must_use]
    pub(crate) fn descriptor(&self) -> &DataDescriptor {
        &self.0
    }
}

impl PartialEq for EntryKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for EntryKey {}

impl PartialOrd for EntryKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EntryKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for EntryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl Borrow<[u8]> for EntryKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// A data descriptor: a set of named attribute values describing one data
/// item (or one chunk of a large item).
///
/// A descriptor *is* its canonical encoding — a count byte, then each
/// attribute as a length-prefixed name and a tagged value, names strictly
/// ascending — held in one shared `Arc<[u8]>`. `clone()` is a reference
/// count bump, [`encode`](Self::encode) / [`entry_key`](Self::entry_key) /
/// [`encoded_len`](Self::encoded_len) derive nothing, and attributes are
/// read from the bytes in place as [`AttrRef`]s. The store, a discovery
/// session and every relayed response that mention an entry share that
/// one allocation. Equality is equality of the encodings, so it agrees
/// with [`EntryKey`] equality even for `-0.0` or a NaN from the wire.
///
/// # Examples
///
/// ```
/// use pds_core::{AttrValue, DataDescriptor};
///
/// let video = DataDescriptor::builder()
///     .attr("ns", "events")
///     .attr("type", "video")
///     .attr("name", "parade-finale")
///     .attr("total_chunks", AttrValue::Int(80))
///     .build();
/// assert_eq!(video.total_chunks(), Some(80));
/// assert_eq!(video.name(), Some("parade-finale"));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DataDescriptor(Arc<[u8]>);

/// Most attributes a descriptor can hold: the count travels as one byte.
const MAX_ATTRS: usize = u8::MAX as usize;
/// Longest string value: its length travels as two bytes.
const MAX_STR_LEN: usize = u16::MAX as usize;

impl Default for DataDescriptor {
    fn default() -> Self {
        Self::canonical(std::iter::empty())
    }
}

impl fmt::Debug for DataDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl DataDescriptor {
    /// Starts building a descriptor.
    #[must_use]
    pub fn builder() -> DescriptorBuilder {
        DescriptorBuilder::default()
    }

    /// Encodes name-sorted, unique attributes once.
    ///
    /// # Panics
    ///
    /// Panics on more than 255 attributes: the count would wrap on the
    /// wire, and the wire form is the identity.
    fn canonical<'a>(attrs: impl Iterator<Item = (&'a str, AttrRef<'a>)> + Clone) -> Self {
        let (count, len) = attrs.clone().fold((0, 1), |(count, len), (k, v)| {
            (count + 1, len + 1 + k.len() + v.encoded_len())
        });
        assert!(
            count <= MAX_ATTRS,
            "a descriptor holds at most 255 attributes"
        );
        let mut encoded = Vec::with_capacity(len);
        encoded.push(count as u8);
        for (k, v) in attrs {
            encoded.push(k.len() as u8);
            encoded.extend_from_slice(k.as_bytes());
            v.encode(&mut encoded);
        }
        Self(encoded.into())
    }

    /// Looks up an attribute by name, reading it in place: a forward scan
    /// that stops at the first name past `name`, since names ascend.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<AttrRef<'_>> {
        self.iter()
            .take_while(|&(k, _)| k <= name)
            .find(|&(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Iterates attributes in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, AttrRef<'_>)> + Clone {
        let mut rest = self.0.get(1..).unwrap_or_default();
        std::iter::from_fn(move || read_attr(&mut rest))
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.first().map_or(0, |&n| usize::from(n))
    }

    /// Whether the descriptor has no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `name` attribute, if present and a string.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        match self.get(attrs::NAME) {
            Some(AttrRef::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The `name` attribute as an [`ItemName`], if present and a string.
    #[must_use]
    pub(crate) fn item_name(&self) -> Option<ItemName> {
        self.name().map(ItemName::new)
    }

    /// The `total_chunks` attribute, if present and an integer in
    /// `0..=MAX_ITEM_CHUNKS`.
    #[must_use]
    pub fn total_chunks(&self) -> Option<u32> {
        match self.get(attrs::TOTAL_CHUNKS) {
            Some(AttrRef::Int(n)) => u32::try_from(n).ok().filter(|&n| n <= MAX_ITEM_CHUNKS),
            _ => None,
        }
    }

    /// The `chunk_id` attribute, if present — i.e. this describes a chunk
    /// rather than a whole item.
    #[must_use]
    pub fn chunk_id(&self) -> Option<ChunkId> {
        match self.get(attrs::CHUNK_ID) {
            Some(AttrRef::Int(n)) => u32::try_from(n).ok().map(ChunkId),
            _ => None,
        }
    }

    /// The descriptor of chunk `id`: this descriptor plus a `chunk_id`
    /// attribute (the paper: "the descriptor of each chunk is simply the
    /// data item descriptor appended by a chunk id attribute").
    ///
    /// # Panics
    ///
    /// Panics if the descriptor already holds 255 other attributes.
    #[cfg(test)]
    pub(crate) fn chunk_descriptor(&self, id: ChunkId) -> DataDescriptor {
        let below = self.iter().take_while(|&(k, _)| k < attrs::CHUNK_ID);
        let above = self.iter().skip_while(|&(k, _)| k <= attrs::CHUNK_ID);
        let chunk_id = (attrs::CHUNK_ID, AttrRef::Int(i64::from(id.0)));
        Self::canonical(below.chain(std::iter::once(chunk_id)).chain(above))
    }

    /// This descriptor with any `chunk_id` removed — the whole-item
    /// descriptor a chunk belongs to (the same handle when there is none).
    #[must_use]
    pub(crate) fn item_descriptor(&self) -> DataDescriptor {
        if self.get(attrs::CHUNK_ID).is_none() {
            return self.clone();
        }
        Self::canonical(self.iter().filter(|&(k, _)| k != attrs::CHUNK_ID))
    }

    /// Canonical encoding, used as identity (Bloom elements, dedup keys):
    /// another handle on this descriptor, compared and hashed by
    /// [`encode`](Self::encode)'s bytes.
    #[must_use]
    pub fn entry_key(&self) -> EntryKey {
        EntryKey(self.clone())
    }

    /// The serialized descriptor — the descriptor itself.
    #[must_use]
    pub fn encode(&self) -> &[u8] {
        &self.0
    }

    /// Wire size of the encoded form.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.0.len()
    }

    /// Deserializes a descriptor from the front of `buf`, advancing it.
    ///
    /// Only the canonical encoding is read: attribute names non-empty and
    /// strictly ascending, as every descriptor is built. The bytes read
    /// then *are* the descriptor — validated in place and copied once — so
    /// a decoded descriptor encodes to exactly the bytes it was read from,
    /// and one attribute set has one identity. Any other order (unsorted,
    /// or a repeated name) is refused.
    ///
    /// Returns `None` on truncation, malformed content or another order.
    pub fn decode(buf: &mut &[u8]) -> Option<Self> {
        let wire = *buf;
        let (&n, mut rest) = wire.split_first()?;
        // Names ascend strictly from the empty name, which none may be.
        let mut prev = "";
        for _ in 0..n {
            let (name, _) = read_attr(&mut rest)?;
            if name <= prev {
                return None;
            }
            prev = name;
        }
        let read = wire.get(..wire.len() - rest.len())?;
        *buf = rest;
        Some(Self(read.into()))
    }
}

impl fmt::Display for DataDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// Reads one attribute — a length-prefixed UTF-8 name, then a value —
/// from the front of `buf`, advancing it; `None` on malformed content.
fn read_attr<'a>(buf: &mut &'a [u8]) -> Option<(&'a str, AttrRef<'a>)> {
    let (&len, rest) = buf.split_first()?;
    let (name, mut rest) = rest.split_at_checked(usize::from(len))?;
    let name = std::str::from_utf8(name).ok()?;
    let value = AttrRef::read(&mut rest)?;
    *buf = rest;
    Some((name, value))
}

/// Asserts that an attribute fits its wire form: a name of 1–255 bytes
/// (one length byte) and, for a string, a value of at most 65 535 bytes
/// (two length bytes). A longer length would wrap when encoded.
pub(crate) fn assert_fits_wire(name: &str, value: &AttrValue) {
    assert!(
        !name.is_empty() && name.len() <= 255,
        "attribute name must be 1–255 bytes"
    );
    if let AttrValue::Str(s) = value {
        assert!(
            s.len() <= MAX_STR_LEN,
            "string attribute value must be at most 65535 bytes"
        );
    }
}

/// Incremental builder for [`DataDescriptor`].
#[derive(Debug, Default)]
pub struct DescriptorBuilder {
    attrs: Vec<(String, AttrValue)>,
}

impl DescriptorBuilder {
    /// Adds (or replaces) an attribute.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or longer than 255 bytes, if a float
    /// value is NaN (NaN would break total ordering and canonical identity),
    /// or if a string value is longer than 65 535 bytes (its length would
    /// wrap in the canonical encoding).
    #[must_use]
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        let (name, value) = (name.into(), value.into());
        assert_fits_wire(&name, &value);
        if let AttrValue::Float(f) = value {
            assert!(!f.is_nan(), "attribute value must not be NaN");
        }
        match self.attrs.binary_search_by(|(k, _)| k.cmp(&name)) {
            Ok(i) => {
                if let Some(slot) = self.attrs.get_mut(i) {
                    slot.1 = value;
                }
            }
            Err(i) => self.attrs.insert(i, (name, value)),
        }
        self
    }

    /// Finishes the descriptor.
    ///
    /// # Panics
    ///
    /// Panics if more than 255 attributes were added (the count would wrap
    /// in the canonical encoding).
    #[must_use]
    pub fn build(self) -> DataDescriptor {
        DataDescriptor::canonical(self.attrs.iter().map(|(k, v)| (k.as_str(), v.view())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataDescriptor {
        DataDescriptor::builder()
            .attr("ns", "env")
            .attr("type", "no2")
            .attr("time", AttrValue::Time(100))
            .attr("x", 1.5)
            .build()
    }

    #[test]
    fn builder_sets_and_replaces() {
        let d = DataDescriptor::builder()
            .attr("a", 1i64)
            .attr("a", 2i64)
            .build();
        assert_eq!(d.get("a"), Some(AttrRef::Int(2)));
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn encode_decode_round_trips() {
        let d = sample();
        let bytes = d.encode();
        assert_eq!(bytes.len(), d.encoded_len());
        let mut slice = bytes;
        let back = DataDescriptor::decode(&mut slice).expect("decodes");
        assert_eq!(back, d);
    }

    #[test]
    fn entry_key_is_canonical() {
        // Attribute insertion order must not matter.
        let a = DataDescriptor::builder()
            .attr("x", 1i64)
            .attr("y", 2i64)
            .build();
        let b = DataDescriptor::builder()
            .attr("y", 2i64)
            .attr("x", 1i64)
            .build();
        assert_eq!(a.entry_key(), b.entry_key());
        let c = DataDescriptor::builder()
            .attr("x", 1i64)
            .attr("y", 3i64)
            .build();
        assert_ne!(a.entry_key(), c.entry_key());
    }

    #[test]
    fn chunk_descriptor_appends_chunk_id() {
        let item = DataDescriptor::builder()
            .attr(attrs::NAME, "vid")
            .attr(attrs::TOTAL_CHUNKS, AttrValue::Int(4))
            .build();
        let chunk = item.chunk_descriptor(ChunkId(2));
        assert_eq!(chunk.chunk_id(), Some(ChunkId(2)));
        assert_eq!(chunk.item_descriptor(), item);
        assert_eq!(item.chunk_id(), None);
        assert_eq!(chunk.total_chunks(), Some(4));
        assert_eq!(chunk.item_name(), Some(ItemName::new("vid")));
    }

    #[test]
    fn total_chunks_stops_at_the_item_limit() {
        let with = |n: u32| {
            DataDescriptor::builder()
                .attr(attrs::TOTAL_CHUNKS, AttrValue::Int(i64::from(n)))
                .build()
                .total_chunks()
        };
        assert_eq!(with(MAX_ITEM_CHUNKS), Some(MAX_ITEM_CHUNKS));
        assert_eq!(with(MAX_ITEM_CHUNKS + 1), None);
    }

    #[test]
    fn entry_size_is_compact() {
        // The paper budgets ~30 bytes per metadata entry; short attribute
        // names keep ours in the same regime.
        let d = DataDescriptor::builder()
            .attr("ns", "e")
            .attr("type", "no2")
            .attr("time", AttrValue::Time(1_451_635_200))
            .build();
        assert!(
            d.encoded_len() <= 48,
            "entry too large: {} bytes",
            d.encoded_len()
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = DataDescriptor::builder().attr("x", f64::NAN);
    }

    #[test]
    #[should_panic(expected = "1–255")]
    fn empty_name_rejected() {
        let _ = DataDescriptor::builder().attr("", 1i64);
    }

    #[test]
    #[should_panic(expected = "at most 255 attributes")]
    fn too_many_attributes_rejected() {
        // The count travels as one byte: a 256th attribute would wrap it
        // to 0 and cache a key that decodes to an empty descriptor.
        let mut b = DataDescriptor::builder();
        for i in 0..256 {
            b = b.attr(format!("a{i:03}"), 1i64);
        }
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "at most 65535 bytes")]
    fn oversized_string_rejected() {
        // The length travels as two bytes.
        let _ = DataDescriptor::builder().attr("x", "y".repeat(65_536));
    }

    #[test]
    fn limits_themselves_are_accepted_and_round_trip() {
        let mut b = DataDescriptor::builder().attr("big", "y".repeat(65_535));
        for i in 0..254 {
            b = b.attr(format!("a{i:03}"), 1i64);
        }
        let d = b.build();
        assert_eq!(d.len(), 255);
        let mut slice = d.encode();
        assert_eq!(DataDescriptor::decode(&mut slice), Some(d.clone()));
        assert!(slice.is_empty());
    }

    /// Hand-writes a wire form: attributes in the order given.
    fn wire(attrs: &[(&str, AttrValue)]) -> Vec<u8> {
        let mut out = vec![attrs.len() as u8];
        for (k, v) in attrs {
            out.push(k.len() as u8);
            out.extend_from_slice(k.as_bytes());
            v.encode(&mut out);
        }
        out
    }

    #[test]
    fn decode_keeps_canonical_bytes_and_refuses_any_other_order() {
        let d = DataDescriptor::builder()
            .attr("a", 1i64)
            .attr("b", "two")
            .attr("c", 3.5)
            .build();
        let (a, b, c) = (
            ("a", AttrValue::Int(1)),
            ("b", AttrValue::from("two")),
            ("c", AttrValue::Float(3.5)),
        );
        // Canonical order: the wire bytes are the descriptor and its key.
        let canonical = wire(&[a.clone(), b.clone(), c.clone()]);
        assert_eq!(canonical, d.encode());
        let mut slice = &canonical[..];
        let back = DataDescriptor::decode(&mut slice).expect("decodes");
        assert!(slice.is_empty());
        assert_eq!(back.entry_key(), d.entry_key());
        // Unsorted, or a repeated name: the same attribute set spelled
        // another way would be a second identity, so it is refused and
        // the buffer is left where it was.
        let stale = ("b", AttrValue::Int(0));
        for hostile in [
            wire(&[c.clone(), a.clone(), b.clone()]),
            wire(&[a.clone(), stale.clone(), b.clone(), c.clone()]),
            wire(&[a.clone(), b.clone(), b.clone(), c.clone()]),
            wire(&[stale, c, b, a.clone()]),
            // And a name no builder writes.
            wire(&[("", AttrValue::Int(0)), a]),
        ] {
            let mut slice = &hostile[..];
            assert_eq!(DataDescriptor::decode(&mut slice), None);
            assert_eq!(slice, &hostile[..]);
        }
    }

    #[test]
    fn equality_is_entry_key_equality() {
        // Signed zeros are equal as floats but encode, and so key,
        // differently: the store holds them as two entries.
        let zero = DataDescriptor::builder().attr("x", 0.0).build();
        let minus = DataDescriptor::builder().attr("x", -0.0).build();
        assert_ne!(zero.entry_key(), minus.entry_key());
        assert_ne!(zero, minus);
        // The builder rejects NaN but the wire can carry one: the decoded
        // descriptor still equals its own clone.
        let nan = wire(&[("x", AttrValue::Float(f64::NAN))]);
        let d = DataDescriptor::decode(&mut &nan[..]).expect("decodes");
        assert_eq!(d.clone(), d);
        assert_eq!(d.clone().entry_key(), d.entry_key());
    }

    #[test]
    fn entry_key_hashes_like_its_bytes() {
        // Maps keyed by `EntryKey` are probed with `&[u8]`, and their
        // iteration order (wire-visible) is a function of these hashes:
        // both need exactly the byte slice's `Hash`.
        use std::hash::BuildHasher;
        let state = pds_det::DetState::default();
        let key = sample().entry_key();
        assert_eq!(state.hash_one(&key), state.hash_one(key.as_bytes()));
        assert_eq!(
            state.hash_one(&key),
            state.hash_one(key.as_bytes().to_vec())
        );
    }

    #[test]
    fn item_descriptor_of_a_whole_item_is_the_same_handle() {
        let item = DataDescriptor::builder().attr(attrs::NAME, "vid").build();
        assert!(std::ptr::eq(item.item_descriptor().encode(), item.encode()));
        assert_eq!(item.name(), Some("vid"));
        assert_eq!(sample().name(), None);
    }

    #[test]
    fn decode_rejects_truncated() {
        let d = sample();
        let bytes = d.encode();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut slice = &bytes[..cut];
            assert_eq!(DataDescriptor::decode(&mut slice), None, "cut at {cut}");
        }
    }

    #[test]
    fn display_lists_attributes() {
        let s = sample().to_string();
        assert!(s.contains("type=no2"));
        assert!(s.starts_with('{') && s.ends_with('}'));
    }
}
