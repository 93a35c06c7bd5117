//! Data descriptors — self-describing metadata entries (§II-B).

use crate::ids::{ChunkId, ItemName};
use crate::value::AttrValue;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Well-known attribute names.
pub mod attrs {
    /// Namespace where the data type is defined.
    pub const NAMESPACE: &str = "ns";
    /// Data type (e.g. `no2`, `video`, or the system types `metadata`/`cdi`).
    pub const TYPE: &str = "type";
    /// Unique item name for large chunked items.
    pub const NAME: &str = "name";
    /// Number of chunks of a large item.
    pub const TOTAL_CHUNKS: &str = "total_chunks";
    /// Chunk index, present only on chunk descriptors.
    pub const CHUNK_ID: &str = "chunk_id";
    /// Generation time.
    pub const TIME: &str = "time";
}

/// An interned attribute name: the six well-known names every descriptor
/// in the system uses are enum atoms (no heap allocation, one byte),
/// and only genuinely custom names pay for an owned string.
///
/// A city-scale world holds millions of descriptor attributes — almost
/// all of them named `ns`/`type`/`name`/`time`/`chunk_id`/`total_chunks`.
/// As `String` keys those cost ~24 bytes of struct plus a heap block
/// each; as atoms they cost nothing. Ordering and equality are defined
/// by the *name string* (see [`AttrName::as_str`]), so sorted iteration,
/// canonical encodings and [`EntryKey`]s are byte-identical to the
/// string-keyed representation this replaces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttrName {
    /// `chunk_id`
    ChunkId,
    /// `name`
    Name,
    /// `ns`
    Ns,
    /// `time`
    Time,
    /// `total_chunks`
    TotalChunks,
    /// `type`
    Type,
    /// Any other attribute name.
    Other(Box<str>),
}

impl AttrName {
    /// The name as a string slice — the canonical form that defines
    /// ordering, equality and the wire encoding.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match self {
            AttrName::ChunkId => attrs::CHUNK_ID,
            AttrName::Name => attrs::NAME,
            AttrName::Ns => attrs::NAMESPACE,
            AttrName::Time => attrs::TIME,
            AttrName::TotalChunks => attrs::TOTAL_CHUNKS,
            AttrName::Type => attrs::TYPE,
            AttrName::Other(s) => s,
        }
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        match s {
            attrs::CHUNK_ID => AttrName::ChunkId,
            attrs::NAME => AttrName::Name,
            attrs::NAMESPACE => AttrName::Ns,
            attrs::TIME => AttrName::Time,
            attrs::TOTAL_CHUNKS => AttrName::TotalChunks,
            attrs::TYPE => AttrName::Type,
            other => AttrName::Other(other.into()),
        }
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> Self {
        AttrName::from(s.as_str())
    }
}

impl PartialOrd for AttrName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrName {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Canonical identity of a metadata entry: the byte encoding of its
/// descriptor. Used as the Bloom-filter element and dedup key.
///
/// A key *is* its descriptor's shared handle (the encoding is cached
/// there), so a map keyed by `EntryKey` whose value is the descriptor
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
    pub fn descriptor(&self) -> &DataDescriptor {
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
/// Attributes are kept sorted by name, so equal descriptors have equal
/// canonical encodings ([`DataDescriptor::entry_key`]).
///
/// A descriptor is an immutable shared handle: the attributes and their
/// canonical encoding live behind one `Arc`, so `clone()` is a reference
/// count bump and [`encode`](Self::encode) /
/// [`entry_key`](Self::entry_key) / [`encoded_len`](Self::encoded_len)
/// never re-derive anything. The store, a discovery session and every
/// relayed response that mention an entry share that one allocation.
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
/// assert_eq!(video.item_name().unwrap().as_str(), "parade-finale");
/// ```
#[derive(Clone)]
pub struct DataDescriptor(Arc<Canonical>);

/// What a descriptor handle points at. `encoded` is always the canonical
/// encoding of `attrs`; nothing mutates either after construction.
struct Canonical {
    /// Sorted by name, unique — a flat slice, not a tree: descriptors have
    /// a handful of attributes, and one contiguous allocation (with
    /// interned [`AttrName`] atoms) replaces a B-tree node per map.
    attrs: Box<[(AttrName, AttrValue)]>,
    encoded: Box<[u8]>,
}

/// Most attributes a descriptor can hold: the count travels as one byte.
const MAX_ATTRS: usize = u8::MAX as usize;
/// Longest string value: its length travels as two bytes.
const MAX_STR_LEN: usize = u16::MAX as usize;

impl Default for DataDescriptor {
    fn default() -> Self {
        Self::canonical(Vec::new())
    }
}

impl PartialEq for DataDescriptor {
    fn eq(&self, other: &Self) -> bool {
        self.0.attrs == other.0.attrs
    }
}

impl fmt::Debug for DataDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataDescriptor")
            .field("attrs", &self.0.attrs)
            .finish()
    }
}

impl DataDescriptor {
    /// Starts building a descriptor.
    #[must_use]
    pub fn builder() -> DescriptorBuilder {
        DescriptorBuilder::default()
    }

    /// Wraps name-sorted, unique attributes, encoding them once.
    ///
    /// # Panics
    ///
    /// Panics on more than 255 attributes: the count would wrap on the
    /// wire, and the wire form is the identity.
    fn canonical(attrs: Vec<(AttrName, AttrValue)>) -> Self {
        assert!(
            attrs.len() <= MAX_ATTRS,
            "a descriptor holds at most 255 attributes"
        );
        let len = 1 + attrs
            .iter()
            .map(|(k, v)| 1 + k.as_str().len() + v.encoded_len())
            .sum::<usize>();
        let mut encoded = Vec::with_capacity(len);
        encoded.push(attrs.len() as u8);
        for (k, v) in &attrs {
            let k = k.as_str();
            encoded.push(k.len() as u8);
            encoded.extend_from_slice(k.as_bytes());
            v.encode(&mut encoded);
        }
        Self(Arc::new(Canonical {
            attrs: attrs.into(),
            encoded: encoded.into(),
        }))
    }

    /// Looks up an attribute by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        let attrs = &self.0.attrs;
        attrs
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .and_then(|i| attrs.get(i).map(|(_, v)| v))
    }

    /// Iterates attributes in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.0.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.attrs.len()
    }

    /// Whether the descriptor has no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.attrs.is_empty()
    }

    /// The `name` attribute, if present and a string.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        match self.get(attrs::NAME) {
            Some(AttrValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The `name` attribute as an [`ItemName`], if present and a string.
    #[must_use]
    pub fn item_name(&self) -> Option<ItemName> {
        self.name().map(ItemName::new)
    }

    /// The `total_chunks` attribute, if present and an integer.
    #[must_use]
    pub fn total_chunks(&self) -> Option<u32> {
        match self.get(attrs::TOTAL_CHUNKS) {
            Some(AttrValue::Int(n)) if *n >= 0 => u32::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The `chunk_id` attribute, if present — i.e. this describes a chunk
    /// rather than a whole item.
    #[must_use]
    pub fn chunk_id(&self) -> Option<ChunkId> {
        match self.get(attrs::CHUNK_ID) {
            Some(AttrValue::Int(n)) if *n >= 0 => u32::try_from(*n).ok().map(ChunkId),
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
    #[must_use]
    pub fn chunk_descriptor(&self, id: ChunkId) -> DataDescriptor {
        let mut attrs = self.0.attrs.to_vec();
        insert_sorted(
            &mut attrs,
            AttrName::ChunkId,
            AttrValue::Int(i64::from(id.0)),
        );
        Self::canonical(attrs)
    }

    /// This descriptor with any `chunk_id` removed — the whole-item
    /// descriptor a chunk belongs to (the same handle when there is none).
    #[must_use]
    pub fn item_descriptor(&self) -> DataDescriptor {
        if self.get(attrs::CHUNK_ID).is_none() {
            return self.clone();
        }
        let mut attrs = self.0.attrs.to_vec();
        attrs.retain(|(k, _)| !matches!(k, AttrName::ChunkId));
        Self::canonical(attrs)
    }

    /// Canonical encoding, used as identity (Bloom elements, dedup keys):
    /// another handle on this descriptor, compared and hashed by
    /// [`encode`](Self::encode)'s bytes.
    #[must_use]
    pub fn entry_key(&self) -> EntryKey {
        EntryKey(self.clone())
    }

    /// The serialized descriptor — computed once, when it was built or
    /// decoded.
    #[must_use]
    pub fn encode(&self) -> &[u8] {
        &self.0.encoded
    }

    /// Wire size of the encoded form.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.0.encoded.len()
    }

    /// Deserializes a descriptor from the front of `buf`, advancing it.
    ///
    /// Senders write attributes in canonical order (names strictly
    /// ascending), and then the bytes read *are* the encoding: they are
    /// kept as the key. Any other order — unsorted, or a repeated name,
    /// where the last value wins — is re-encoded canonically, so a hostile
    /// wire form cannot mint a second identity for one attribute set.
    ///
    /// Returns `None` on truncation or malformed content.
    pub fn decode(buf: &mut &[u8]) -> Option<Self> {
        let wire = *buf;
        let (&n, mut rest) = wire.split_first()?;
        let mut attrs: Vec<(AttrName, AttrValue)> = Vec::with_capacity(usize::from(n));
        let mut ascending = true;
        for _ in 0..n {
            let (&klen, after) = rest.split_first()?;
            let (name, after) = after.split_at_checked(usize::from(klen))?;
            let name = std::str::from_utf8(name).ok()?;
            rest = after;
            let value = AttrValue::decode(&mut rest)?;
            ascending &= attrs.last().is_none_or(|(prev, _)| prev.as_str() < name);
            insert_sorted(&mut attrs, AttrName::from(name), value);
        }
        *buf = rest;
        if !ascending {
            return Some(Self::canonical(attrs));
        }
        let encoded = wire.get(..wire.len() - rest.len())?;
        Some(Self(Arc::new(Canonical {
            attrs: attrs.into(),
            encoded: encoded.into(),
        })))
    }
}

impl fmt::Display for DataDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.0.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// Inserts (or replaces) `name` in a name-sorted attribute vec.
fn insert_sorted(attrs: &mut Vec<(AttrName, AttrValue)>, name: AttrName, value: AttrValue) {
    match attrs.binary_search_by(|(k, _)| k.as_str().cmp(name.as_str())) {
        Ok(i) => {
            if let Some(slot) = attrs.get_mut(i) {
                slot.1 = value;
            }
        }
        Err(i) => attrs.insert(i, (name, value)),
    }
}

/// Incremental builder for [`DataDescriptor`].
#[derive(Debug, Default)]
pub struct DescriptorBuilder {
    attrs: Vec<(AttrName, AttrValue)>,
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
        let name = name.into();
        assert!(
            !name.is_empty() && name.len() <= 255,
            "attribute name must be 1–255 bytes"
        );
        let value = value.into();
        match &value {
            AttrValue::Float(f) => assert!(!f.is_nan(), "attribute value must not be NaN"),
            AttrValue::Str(s) => assert!(
                s.len() <= MAX_STR_LEN,
                "string attribute value must be at most 65535 bytes"
            ),
            AttrValue::Int(_) | AttrValue::Time(_) => {}
        }
        insert_sorted(&mut self.attrs, AttrName::from(name), value);
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
        DataDescriptor::canonical(self.attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataDescriptor {
        DataDescriptor::builder()
            .attr(attrs::NAMESPACE, "env")
            .attr(attrs::TYPE, "no2")
            .attr(attrs::TIME, AttrValue::Time(100))
            .attr("x", 1.5)
            .build()
    }

    #[test]
    fn builder_sets_and_replaces() {
        let d = DataDescriptor::builder()
            .attr("a", 1i64)
            .attr("a", 2i64)
            .build();
        assert_eq!(d.get("a"), Some(&AttrValue::Int(2)));
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
    fn decode_keeps_canonical_bytes_and_re_encodes_any_other_order() {
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
        // Canonical order: the wire bytes are the key.
        let canonical = wire(&[a.clone(), b.clone(), c.clone()]);
        assert_eq!(canonical, d.encode());
        // Unsorted, and a repeated name (the last value wins): the same
        // descriptor, the same key — not whatever was on the wire.
        let stale = ("b", AttrValue::Int(0));
        for hostile in [
            wire(&[c.clone(), a.clone(), b.clone()]),
            wire(&[a.clone(), stale.clone(), b.clone(), c.clone()]),
            wire(&[stale, c, b, a]),
        ] {
            assert_ne!(hostile, d.encode());
            let mut slice = &hostile[..];
            let back = DataDescriptor::decode(&mut slice).expect("decodes");
            assert!(slice.is_empty());
            assert_eq!(back, d);
            assert_eq!(back.encode(), d.encode());
            assert_eq!(back.entry_key(), d.entry_key());
        }
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
