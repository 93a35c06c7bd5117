//! The per-node Data Store: metadata entries, small-item payloads and
//! chunks (§II-C).
//!
//! The store enforces the paper's synchronization rule: a metadata entry
//! cached *without* its payload carries an expiration time and is removed at
//! expiry; entries whose payload (or any chunk of the item) is present live
//! as long as the payload does.
//!
//! Opportunistically cached chunks and small payloads share one byte
//! budget, [`CHUNK_CACHE_BYTES`]; above it the least recently used of them
//! is evicted (§VII: storage is finite, so cached data needs a replacement
//! strategy), and a metadata entry it alone kept alive goes with it. Such
//! an entry lived as long as its data: it kept no expiry while the data was
//! held, so it goes even if it was heard again with a TTL not yet passed,
//! and the next response carrying it caches it anew.
//! Locally produced chunks and payloads are pinned and never evicted.

use crate::config::CHUNK_CACHE_BYTES;
use crate::descriptor::{DataDescriptor, EntryKey};
use crate::ids::{ChunkId, ItemName};
use crate::predicate::QueryFilter;
use crate::time::ExpiryBound;
use crate::SimTime;
use bytes::Bytes;
use pds_det::DetMap;
use std::collections::{btree_map, BTreeMap};

/// The expiry of a metadata entry that never expires: the data was
/// produced locally, or the entry was cached to expire never.
const NEVER: SimTime = SimTime::MAX;

/// The expiry of a metadata entry that lives as long as its payload (or
/// any chunk of the item) is held: it never expires, and it is removed
/// when the last of them is evicted.
const HELD: SimTime = SimTime::from_micros(u64::MAX - 1);

/// Whether an entry with this expiry ever expires.
fn expires(at: SimTime) -> bool {
    at < HELD
}

/// One held chunk or small payload: its bytes and its place in the
/// eviction order.
#[derive(Debug, Clone)]
struct Held {
    data: Bytes,
    /// The store's `access_clock` at the last store or serve. Each is a
    /// fresh tick, so no two held values share one and the LRU victim is
    /// unique whatever order the maps iterate in.
    last_access: u64,
    /// Produced locally: never evicted, never on the cache budget.
    pinned: bool,
}

impl Held {
    /// Stores `data` again: refreshes recency; pinning is sticky (own data
    /// stays pinned even if later overheard). Returns the bytes that leave
    /// the cache budget.
    fn restore(&mut self, last_access: u64, pinned: bool) -> usize {
        self.last_access = last_access;
        if pinned && !self.pinned {
            self.pinned = true;
            return self.data.len();
        }
        0
    }
}

/// A node's data store.
///
/// # Examples
///
/// ```
/// use pds_core::{DataDescriptor, DataStore, QueryFilter};
/// use pds_core::SimTime;
///
/// let mut store = DataStore::new();
/// store.insert_own(
///     DataDescriptor::builder().attr("type", "no2").build(),
///     None,
/// );
/// let now = SimTime::ZERO;
/// assert_eq!(store.match_metadata(&QueryFilter::match_all(), now).len(), 1);
/// ```
#[derive(Debug)]
pub struct DataStore {
    // Each entry's descriptor is its key; the value is when it expires,
    // `NEVER` for an own entry, `HELD` for one its held data pins.
    metadata: DetMap<EntryKey, SimTime>,
    // How many `metadata` entries expire at all: what `gc` could ever
    // remove, kept so the owner can ask in O(1).
    expiring: usize,
    // No expiry in `metadata` is earlier than this.
    next_expiry: ExpiryBound,
    // Every held small payload and chunk, with its eviction bookkeeping.
    small_payloads: DetMap<EntryKey, Held>,
    chunks: DetMap<ItemName, BTreeMap<ChunkId, Held>>,
    // Index: item name → entry key of the whole-item (chunk-less) descriptor.
    items_by_name: DetMap<ItemName, EntryKey>,
    // Cache accounting for opportunistically stored data: the budget and
    // the bytes of every unpinned chunk and payload.
    cache_capacity: usize,
    cached_bytes: usize,
    access_clock: u64,
}

impl Default for DataStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DataStore {
    /// Creates an empty store with the `CHUNK_CACHE_BYTES` cache budget.
    #[must_use]
    pub fn new() -> Self {
        Self {
            metadata: DetMap::default(),
            expiring: 0,
            next_expiry: ExpiryBound::default(),
            small_payloads: DetMap::default(),
            chunks: DetMap::default(),
            items_by_name: DetMap::default(),
            cache_capacity: CHUNK_CACHE_BYTES,
            cached_bytes: 0,
            access_clock: 0,
        }
    }

    /// Shrinks the cache budget so a test can reach eviction with a few
    /// small chunks or payloads. Evicts immediately if the cache is over
    /// the new budget.
    #[cfg(test)]
    pub(crate) fn set_chunk_cache_bytes(&mut self, capacity: usize) {
        self.cache_capacity = capacity;
        self.maybe_evict();
    }

    /// Inserts a locally produced data item: metadata (never expiring) plus
    /// an optional small payload.
    pub fn insert_own(&mut self, descriptor: DataDescriptor, payload: Option<Bytes>) {
        if let Some(p) = payload {
            self.store_payload(&descriptor, p, true);
        }
        self.index_item(&descriptor);
        let replaced = self.metadata.insert(descriptor.entry_key(), NEVER);
        if replaced.is_some_and(expires) {
            self.expiring -= 1;
        }
    }

    /// Points the item's name at `descriptor`, if it describes a whole item.
    fn index_item(&mut self, descriptor: &DataDescriptor) {
        if descriptor.chunk_id().is_some() {
            return;
        }
        let Some(name) = descriptor.name() else {
            return;
        };
        match self.items_by_name.get_mut(name) {
            Some(key) => *key = descriptor.entry_key(),
            None => {
                self.items_by_name
                    .insert(ItemName::new(name), descriptor.entry_key());
            }
        }
    }

    /// The whole-item descriptor registered under `name`, if any metadata
    /// entry for it has been seen.
    #[must_use]
    pub(crate) fn item_descriptor_by_name(&self, name: &ItemName) -> Option<&DataDescriptor> {
        let key = self.items_by_name.get(name)?;
        self.metadata
            .get_key_value(key)
            .map(|(k, _)| k.descriptor())
    }

    /// The descriptor a holder's chunk responses for `name` carry: the
    /// whole-item descriptor if one is known, else one naming the item only.
    #[must_use]
    pub(crate) fn chunk_descriptor(&self, name: &ItemName) -> DataDescriptor {
        self.item_descriptor_by_name(name)
            .cloned()
            .unwrap_or_else(|| {
                DataDescriptor::builder()
                    .attr(crate::descriptor::attrs::NAME, name.as_str())
                    .build()
            })
    }

    /// Caches a metadata entry learned from the network. If the entry is
    /// already present, a later expiration extends it; entries backed by a
    /// payload stay non-expiring, and so does one cached to expire at
    /// `SimTime::MAX`. Returns `true` if the entry was new.
    pub fn cache_metadata(&mut self, descriptor: DataDescriptor, expires_at: SimTime) -> bool {
        let has_payload = self.small_payloads.contains_key(descriptor.encode())
            || self.has_any_chunk(&descriptor);
        let expires_at = if has_payload {
            expires_at.max(HELD)
        } else {
            expires_at
        };
        match self.metadata.entry(descriptor.entry_key()) {
            pds_det::MapEntry::Occupied(mut e) => {
                let at = e.get_mut();
                if *at < expires_at {
                    if expires(*at) && !expires(expires_at) {
                        self.expiring -= 1;
                    }
                    *at = expires_at;
                }
                false
            }
            pds_det::MapEntry::Vacant(v) => {
                v.insert(expires_at);
                if expires(expires_at) {
                    self.expiring += 1;
                    self.next_expiry.note(expires_at);
                }
                self.index_item(&descriptor);
                true
            }
        }
    }

    /// Caches a small item's payload heard from the network (the entry
    /// lives as long as the payload): evictable, like a cached chunk.
    pub(crate) fn cache_small_payload(&mut self, descriptor: &DataDescriptor, payload: Bytes) {
        self.store_payload(descriptor, payload, false);
        self.maybe_evict();
    }

    fn store_payload(&mut self, descriptor: &DataDescriptor, data: Bytes, pinned: bool) {
        self.access_clock += 1;
        let last_access = self.access_clock;
        match self.small_payloads.entry(descriptor.entry_key()) {
            pds_det::MapEntry::Occupied(mut e) => {
                self.cached_bytes -= e.get_mut().restore(last_access, pinned);
            }
            pds_det::MapEntry::Vacant(v) => {
                if !pinned {
                    self.cached_bytes += data.len();
                }
                v.insert(Held {
                    data,
                    last_access,
                    pinned,
                });
            }
        }
        self.pin_metadata(descriptor);
    }

    /// Makes the entry for `descriptor` live as long as its data, adding it
    /// if absent: its payload (or a chunk of the item) is now held.
    fn pin_metadata(&mut self, descriptor: &DataDescriptor) {
        if let Some(at) = self.metadata.get_mut(descriptor.encode()) {
            if expires(*at) {
                *at = HELD;
                self.expiring -= 1;
            }
        } else {
            self.metadata.insert(descriptor.entry_key(), HELD);
        }
    }

    /// Stores one *locally produced* chunk: pinned, never evicted; pins the
    /// item's metadata entry (the paper: an entry lives as long as *any*
    /// chunk of the item).
    pub fn insert_chunk(&mut self, item_descriptor: &DataDescriptor, chunk: ChunkId, data: Bytes) {
        self.store_chunk(item_descriptor, chunk, data, true);
    }

    /// Opportunistically caches a chunk received or overheard from the
    /// network: evictable, least recently used first, once cached chunks
    /// pass the store's byte budget.
    pub(crate) fn cache_chunk(
        &mut self,
        item_descriptor: &DataDescriptor,
        chunk: ChunkId,
        data: Bytes,
    ) {
        self.store_chunk(item_descriptor, chunk, data, false);
        self.maybe_evict();
    }

    fn store_chunk(
        &mut self,
        item_descriptor: &DataDescriptor,
        chunk: ChunkId,
        data: Bytes,
        pinned: bool,
    ) {
        let Some(name) = item_descriptor.item_name() else {
            return;
        };
        self.access_clock += 1;
        let last_access = self.access_clock;
        match self.chunks.entry(name).or_default().entry(chunk) {
            btree_map::Entry::Occupied(mut e) => {
                self.cached_bytes -= e.get_mut().restore(last_access, pinned);
            }
            btree_map::Entry::Vacant(v) => {
                if !pinned {
                    self.cached_bytes += data.len();
                }
                v.insert(Held {
                    data,
                    last_access,
                    pinned,
                });
            }
        }
        self.index_item(item_descriptor);
        self.pin_metadata(item_descriptor);
    }

    /// Evicts least recently used cached (unpinned) chunks and payloads
    /// until within budget. An entry left without its payload or any chunk
    /// of its item is removed with the last of them.
    fn maybe_evict(&mut self) {
        while self.cached_bytes > self.cache_capacity {
            // A chunk is `Ok((item, chunk))`, a payload `Err(key)`.
            let chunks = self
                .chunks
                .iter()
                .flat_map(|(item, held)| held.iter().map(move |(&c, h)| (h, Ok((item, c)))));
            let payloads = self.small_payloads.iter().map(|(key, h)| (h, Err(key)));
            let victim = chunks
                .chain(payloads)
                .filter(|(h, _)| !h.pinned)
                .min_by_key(|(h, _)| h.last_access);
            match victim.map(|(_, v)| v) {
                None => return, // everything left is pinned
                Some(Ok((item, c))) => {
                    let item = item.clone();
                    let per_item = self.chunks.get_mut(&item).expect("victim's item");
                    let held = per_item.remove(&c).expect("victim");
                    self.cached_bytes -= held.data.len();
                    if per_item.is_empty() {
                        self.chunks.remove(&item);
                        self.release_item(&item);
                    }
                }
                Some(Err(key)) => {
                    let key = key.clone();
                    let held = self.small_payloads.remove(&key).expect("victim");
                    self.cached_bytes -= held.data.len();
                    let descriptor = key.descriptor();
                    if self.metadata.get(&key) == Some(&HELD) && !self.has_any_chunk(descriptor) {
                        self.metadata.remove(&key);
                        if let Some(name) = descriptor.name() {
                            self.unindex(name);
                        }
                    }
                }
            }
        }
    }

    /// Removes the held entries named `item`, whose last chunk is gone,
    /// that no payload keeps: the store kept them only for those chunks.
    fn release_item(&mut self, item: &ItemName) {
        let Self {
            metadata,
            small_payloads,
            ..
        } = self;
        metadata.retain(|key, &mut at| {
            at != HELD
                || key.descriptor().name() != Some(item.as_str())
                || small_payloads.contains_key(key)
        });
        self.unindex(item.as_str());
    }

    /// Drops the item index slot for `name` if its entry is gone.
    fn unindex(&mut self, name: &str) {
        let gone = |key| !self.metadata.contains_key(key);
        if self.items_by_name.get(name).is_some_and(gone) {
            self.items_by_name.remove(name);
        }
    }

    /// Bytes currently used by evictable cached chunks and payloads.
    #[cfg(test)]
    pub(crate) fn cached_chunk_bytes(&self) -> usize {
        self.cached_bytes
    }

    /// Whether the store holds chunk `chunk` of `item`.
    #[must_use]
    pub fn has_chunk(&self, item: &ItemName, chunk: ChunkId) -> bool {
        self.chunks
            .get(item)
            .is_some_and(|m| m.contains_key(&chunk))
    }

    /// The bytes of chunk `chunk` of `item`, if held (a peek: does not
    /// count as a use for LRU eviction).
    #[must_use]
    pub fn chunk(&self, item: &ItemName, chunk: ChunkId) -> Option<Bytes> {
        self.chunks.get(item)?.get(&chunk).map(|h| h.data.clone())
    }

    /// Like [`DataStore::chunk`], but counts as a use for LRU eviction —
    /// the serving path uses this.
    #[must_use]
    pub(crate) fn fetch_chunk(&mut self, item: &ItemName, chunk: ChunkId) -> Option<Bytes> {
        let held = self.chunks.get_mut(item)?.get_mut(&chunk)?;
        self.access_clock += 1;
        held.last_access = self.access_clock;
        Some(held.data.clone())
    }

    /// Ids of held chunks of `item`, ascending.
    #[must_use]
    pub fn chunk_ids(&self, item: &ItemName) -> Vec<ChunkId> {
        self.chunks
            .get(item)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }

    fn has_any_chunk(&self, descriptor: &DataDescriptor) -> bool {
        descriptor
            .name()
            .is_some_and(|name| self.chunks.get(name).is_some_and(|m| !m.is_empty()))
    }

    /// The small payload for this descriptor, if held (a peek: does not
    /// count as a use for LRU eviction).
    #[must_use]
    pub fn small_payload(&self, descriptor: &DataDescriptor) -> Option<Bytes> {
        self.small_payloads
            .get(descriptor.encode())
            .map(|h| h.data.clone())
    }

    /// Counts the payload for this descriptor, if held, as a use for LRU
    /// eviction — the serving path calls this, as it fetches chunks.
    pub(crate) fn touch_small_payload(&mut self, descriptor: &DataDescriptor) {
        if let Some(held) = self.small_payloads.get_mut(descriptor.encode()) {
            self.access_clock += 1;
            held.last_access = self.access_clock;
        }
    }

    /// All unexpired metadata entries matching `filter`, in unspecified
    /// order.
    #[must_use]
    pub fn match_metadata(&self, filter: &QueryFilter, now: SimTime) -> Vec<&DataDescriptor> {
        self.metadata
            .iter()
            .filter(|&(_, &at)| at > now)
            .map(|(k, _)| k.descriptor())
            .filter(|d| filter.matches(d))
            .collect()
    }

    /// Whether a metadata entry for this descriptor is present (expired or
    /// not).
    #[cfg(test)]
    pub(crate) fn contains_metadata(&self, descriptor: &DataDescriptor) -> bool {
        self.metadata.contains_key(descriptor.encode())
    }

    /// Number of metadata entries currently stored.
    #[must_use]
    pub fn metadata_len(&self) -> usize {
        self.metadata.len()
    }

    /// Number of stored metadata entries that expire (cached without their
    /// payload): the entries [`DataStore::gc`] may remove.
    #[must_use]
    pub(crate) fn expiring_len(&self) -> usize {
        self.expiring
    }

    /// Removes expired payload-less metadata entries (§II-C). Scans only
    /// once the earliest expiry may have passed.
    pub(crate) fn gc(&mut self, now: SimTime) {
        if self.next_expiry.due(now) {
            self.sweep(now);
        }
    }

    /// The full scan behind [`DataStore::gc`]: removes every expired entry,
    /// and the name index's entries for them, and rebuilds the expiry
    /// bound from the survivors.
    fn sweep(&mut self, now: SimTime) {
        let before = self.metadata.len();
        let mut next = ExpiryBound::default();
        self.metadata
            .retain(|_, &mut at| !expires(at) || next.keep(at, now));
        self.expiring -= before - self.metadata.len();
        self.next_expiry = next;
        let metadata = &self.metadata;
        self.items_by_name
            .retain(|_, key| metadata.contains_key(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Predicate, Relation};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn desc(ty: &str) -> DataDescriptor {
        DataDescriptor::builder().attr("type", ty).build()
    }

    fn item_desc(name: &str, chunks: i64) -> DataDescriptor {
        DataDescriptor::builder()
            .attr("type", "video")
            .attr("name", name)
            .attr("total_chunks", chunks)
            .build()
    }

    #[test]
    fn own_data_never_expires() {
        let mut s = DataStore::new();
        s.insert_own(desc("no2"), None);
        s.gc(t(1_000_000.0));
        assert_eq!(s.metadata_len(), 1);
    }

    #[test]
    fn cached_metadata_expires_without_payload() {
        let mut s = DataStore::new();
        assert!(s.cache_metadata(desc("no2"), t(10.0)));
        assert_eq!(s.match_metadata(&QueryFilter::match_all(), t(5.0)).len(), 1);
        // Expired entries stop matching even before gc.
        assert_eq!(
            s.match_metadata(&QueryFilter::match_all(), t(11.0)).len(),
            0
        );
        s.gc(t(11.0));
        assert_eq!(s.metadata_len(), 0);
    }

    #[test]
    fn recache_extends_expiry() {
        let mut s = DataStore::new();
        assert!(s.cache_metadata(desc("no2"), t(10.0)));
        assert!(!s.cache_metadata(desc("no2"), t(20.0)), "not new");
        s.gc(t(15.0));
        assert_eq!(s.metadata_len(), 1, "extended to t=20");
    }

    #[test]
    fn payload_pins_metadata() {
        let mut s = DataStore::new();
        s.cache_metadata(desc("no2"), t(10.0));
        s.cache_small_payload(&desc("no2"), Bytes::from_static(b"v"));
        s.gc(t(100.0));
        assert_eq!(s.metadata_len(), 1);
        assert_eq!(
            s.small_payload(&desc("no2")),
            Some(Bytes::from_static(b"v"))
        );
    }

    #[test]
    fn chunk_pins_item_metadata() {
        let mut s = DataStore::new();
        let item = item_desc("vid", 4);
        s.cache_metadata(item.clone(), t(10.0));
        s.insert_chunk(&item, ChunkId(2), Bytes::from_static(b"cc"));
        s.gc(t(100.0));
        assert!(s.contains_metadata(&item));
        assert!(s.has_chunk(&ItemName::new("vid"), ChunkId(2)));
        assert!(!s.has_chunk(&ItemName::new("vid"), ChunkId(0)));
        assert_eq!(s.chunk_ids(&ItemName::new("vid")), vec![ChunkId(2)]);
        assert_eq!(
            s.chunk(&ItemName::new("vid"), ChunkId(2)),
            Some(Bytes::from_static(b"cc"))
        );
    }

    #[test]
    fn caching_metadata_after_chunk_is_pinned() {
        let mut s = DataStore::new();
        let item = item_desc("vid", 4);
        s.insert_chunk(&item, ChunkId(0), Bytes::from_static(b"c"));
        // Re-learning the entry from the network must not add an expiry.
        s.cache_metadata(item.clone(), t(10.0));
        s.gc(t(100.0));
        assert!(s.contains_metadata(&item));
    }

    #[test]
    fn match_respects_filter() {
        let mut s = DataStore::new();
        s.insert_own(desc("no2"), None);
        s.insert_own(desc("co2"), None);
        let f = QueryFilter::new(vec![Predicate::new("type", Relation::Eq, "no2")]);
        let m = s.match_metadata(&f, t(0.0));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].get("type"), Some(crate::AttrRef::Str("no2")));
    }

    #[test]
    fn item_descriptor_lookup_by_name() {
        let mut s = DataStore::new();
        let item = item_desc("vid", 4);
        s.insert_own(item.clone(), None);
        assert_eq!(
            s.item_descriptor_by_name(&ItemName::new("vid")),
            Some(&item)
        );
        assert_eq!(s.item_descriptor_by_name(&ItemName::new("nope")), None);
        // Chunk descriptors must not shadow the whole-item entry.
        let chunk_desc = item.chunk_descriptor(ChunkId(0));
        s.cache_metadata(chunk_desc, t(100.0));
        assert_eq!(
            s.item_descriptor_by_name(&ItemName::new("vid")),
            Some(&item)
        );
    }

    #[test]
    fn cache_respects_byte_budget_lru() {
        let mut s = DataStore::new();
        s.set_chunk_cache_bytes(2_000);
        let item = item_desc("vid", 4);
        for c in 0..4u32 {
            s.cache_chunk(&item, ChunkId(c), Bytes::from(vec![0u8; 1_000]));
        }
        assert!(s.cached_chunk_bytes() <= 2_000);
        // Oldest (0, 1) evicted; newest (2, 3) kept.
        assert!(!s.has_chunk(&ItemName::new("vid"), ChunkId(0)));
        assert!(!s.has_chunk(&ItemName::new("vid"), ChunkId(1)));
        assert!(s.has_chunk(&ItemName::new("vid"), ChunkId(2)));
        assert!(s.has_chunk(&ItemName::new("vid"), ChunkId(3)));
    }

    #[test]
    fn lru_eviction_honours_access_recency() {
        let mut s = DataStore::new();
        s.set_chunk_cache_bytes(2_000);
        let item = item_desc("vid", 3);
        s.cache_chunk(&item, ChunkId(0), Bytes::from(vec![0u8; 1_000]));
        s.cache_chunk(&item, ChunkId(1), Bytes::from(vec![0u8; 1_000]));
        // Touch chunk 0 so chunk 1 becomes the LRU victim.
        let _ = s.fetch_chunk(&ItemName::new("vid"), ChunkId(0));
        s.cache_chunk(&item, ChunkId(2), Bytes::from(vec![0u8; 1_000]));
        assert!(
            s.has_chunk(&ItemName::new("vid"), ChunkId(0)),
            "recently used survives"
        );
        assert!(
            !s.has_chunk(&ItemName::new("vid"), ChunkId(1)),
            "LRU victim"
        );
        assert!(s.has_chunk(&ItemName::new("vid"), ChunkId(2)));
    }

    #[test]
    fn lru_eviction_spans_items() {
        // Two items' chunks, cached interleaved: the victim is the least
        // recently used chunk of the whole store, not of one item.
        let mut s = DataStore::new();
        s.set_chunk_cache_bytes(3_000);
        let (a, b) = (item_desc("a", 4), item_desc("b", 4));
        let (na, nb) = (ItemName::new("a"), ItemName::new("b"));
        let kb = || Bytes::from(vec![0u8; 1_000]);
        s.cache_chunk(&a, ChunkId(0), kb());
        s.cache_chunk(&b, ChunkId(0), kb());
        s.cache_chunk(&a, ChunkId(1), kb());
        // Touch a/0: b/0 is now the oldest chunk of the store.
        let _ = s.fetch_chunk(&na, ChunkId(0));
        s.cache_chunk(&b, ChunkId(1), kb());
        assert!(!s.has_chunk(&nb, ChunkId(0)), "the store-wide LRU goes");
        assert_eq!(s.chunk_ids(&na), vec![ChunkId(0), ChunkId(1)]);
        assert_eq!(s.chunk_ids(&nb), vec![ChunkId(1)]);
        // Next out are a/1 (stored before the touch), then a/0.
        s.cache_chunk(&b, ChunkId(2), kb());
        assert_eq!(s.chunk_ids(&na), vec![ChunkId(0)]);
        s.cache_chunk(&b, ChunkId(3), kb());
        assert!(s.chunk_ids(&na).is_empty());
        assert_eq!(s.chunk_ids(&nb), vec![ChunkId(1), ChunkId(2), ChunkId(3)]);
        assert_eq!(s.cached_chunk_bytes(), 3_000);
    }

    #[test]
    fn own_chunks_are_never_evicted() {
        let mut s = DataStore::new();
        s.set_chunk_cache_bytes(500);
        let item = item_desc("vid", 3);
        s.insert_chunk(&item, ChunkId(0), Bytes::from(vec![0u8; 1_000]));
        s.cache_chunk(&item, ChunkId(1), Bytes::from(vec![0u8; 1_000]));
        // The cached chunk must go; the pinned one stays despite the budget.
        assert!(
            s.has_chunk(&ItemName::new("vid"), ChunkId(0)),
            "own data pinned"
        );
        assert!(!s.has_chunk(&ItemName::new("vid"), ChunkId(1)));
        assert_eq!(s.cached_chunk_bytes(), 0);
    }

    #[test]
    fn pinning_a_cached_chunk_takes_it_off_the_budget() {
        let mut s = DataStore::new();
        s.set_chunk_cache_bytes(1_500);
        let item = item_desc("vid", 3);
        let vid = ItemName::new("vid");
        let unpinned_bytes = |s: &DataStore| -> usize {
            s.chunks
                .values()
                .flat_map(BTreeMap::values)
                .filter(|h| !h.pinned)
                .map(|h| h.data.len())
                .sum()
        };
        // First overheard, then produced locally: the same chunk, now pinned.
        s.cache_chunk(&item, ChunkId(0), Bytes::from(vec![0u8; 1_000]));
        assert_eq!(s.cached_chunk_bytes(), 1_000);
        s.insert_chunk(&item, ChunkId(0), Bytes::from(vec![0u8; 1_000]));
        assert_eq!(s.cached_chunk_bytes(), unpinned_bytes(&s));
        assert_eq!(s.cached_chunk_bytes(), 0);
        // 1 000 evictable bytes fit a 1 500-byte budget.
        s.cache_chunk(&item, ChunkId(1), Bytes::from(vec![0u8; 1_000]));
        assert!(s.has_chunk(&vid, ChunkId(0)), "own data pinned");
        assert!(s.has_chunk(&vid, ChunkId(1)), "fits the budget");
        assert_eq!(s.cached_chunk_bytes(), unpinned_bytes(&s));
        assert_eq!(s.cached_chunk_bytes(), 1_000);
        // Overhearing the pinned chunk again changes nothing.
        s.cache_chunk(&item, ChunkId(0), Bytes::from(vec![0u8; 1_000]));
        assert_eq!(s.cached_chunk_bytes(), 1_000);
        assert!(s.has_chunk(&vid, ChunkId(1)));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        // Far below the default budget, caching keeps every chunk.
        let mut s = DataStore::new();
        let item = item_desc("vid", 8);
        for c in 0..8u32 {
            s.cache_chunk(&item, ChunkId(c), Bytes::from(vec![0u8; 10_000]));
        }
        assert_eq!(s.chunk_ids(&ItemName::new("vid")).len(), 8);
        assert_eq!(s.cached_chunk_bytes(), 80_000);
    }

    #[test]
    fn default_store_evicts_past_the_chunk_cache_budget() {
        // Every chunk clones one shared buffer: the budget counts each
        // chunk's bytes, the test allocates one chunk.
        const CHUNK: usize = 256 * 1024;
        let data = Bytes::from(vec![0u8; CHUNK]);
        let fit = u32::try_from(CHUNK_CACHE_BYTES / CHUNK).expect("small");
        let mut s = DataStore::new();
        let vid = ItemName::new("vid");
        let item = item_desc("vid", i64::from(fit) + 2);
        s.insert_chunk(&item, ChunkId(0), data.clone());
        for c in 1..=fit {
            s.cache_chunk(&item, ChunkId(c), data.clone());
        }
        assert_eq!(s.cached_chunk_bytes(), fit as usize * CHUNK);
        assert!(s.has_chunk(&vid, ChunkId(1)), "within budget: no eviction");
        s.cache_chunk(&item, ChunkId(fit + 1), data);
        assert!(!s.has_chunk(&vid, ChunkId(1)), "least recently used goes");
        assert!(s.has_chunk(&vid, ChunkId(2)));
        assert!(s.has_chunk(&vid, ChunkId(fit + 1)));
        assert!(s.has_chunk(&vid, ChunkId(0)), "own data pinned");
        assert_eq!(s.cached_chunk_bytes(), fit as usize * CHUNK);
    }

    #[test]
    fn expiring_len_counts_what_gc_can_remove() {
        let mut s = DataStore::new();
        let recount = |s: &DataStore| s.metadata.values().filter(|&&at| expires(at)).count();
        let item = item_desc("vid", 4);
        s.insert_own(desc("own"), None);
        assert!(s.cache_metadata(desc("a"), t(10.0)));
        assert!(s.cache_metadata(desc("b"), t(10.0)));
        assert!(s.cache_metadata(desc("c"), t(30.0)));
        assert!(s.cache_metadata(item.clone(), t(10.0)));
        assert_eq!(s.expiring_len(), 4);
        // Re-caching extends, it does not add.
        assert!(!s.cache_metadata(desc("a"), t(20.0)));
        // A payload, a chunk, or local production each pin one entry.
        s.cache_small_payload(&desc("b"), Bytes::from_static(b"v"));
        s.insert_chunk(&item, ChunkId(0), Bytes::from_static(b"c"));
        s.insert_own(desc("c"), None);
        assert_eq!(s.expiring_len(), 1);
        assert_eq!(s.expiring_len(), recount(&s));
        // Payload-backed re-caching stays pinned.
        assert!(!s.cache_metadata(desc("b"), t(50.0)));
        s.gc(t(15.0));
        assert_eq!(s.expiring_len(), 1, "a was extended to t=20");
        s.gc(t(20.0));
        assert_eq!(s.expiring_len(), 0);
        assert_eq!(s.expiring_len(), recount(&s));
        assert_eq!(s.metadata_len(), 4, "own, b, c and the item stay");
    }

    #[test]
    fn item_index_is_empty_after_its_entries_expire() {
        let mut s = DataStore::new();
        for i in 0..100 {
            assert!(s.cache_metadata(item_desc(&format!("vid{i}"), 8), t(10.0)));
        }
        assert_eq!(s.items_by_name.len(), 100);
        s.gc(t(11.0));
        assert_eq!(s.metadata_len(), 0);
        assert!(s.items_by_name.is_empty());
        assert!(s.item_descriptor_by_name(&ItemName::new("vid0")).is_none());
    }

    #[test]
    fn gc_removes_what_a_full_sweep_removes() {
        // The same op sequence on two stores; the twin sweeps at every gc
        // instant (the rule before the expiry bound), the store only when
        // its bound is due.
        let mut rng = crate::SimRng::new(0x5707e);
        let mut skipped = 0;
        for _ in 0..20 {
            let (mut s, mut twin) = (DataStore::new(), DataStore::new());
            let mut now = 0;
            for _ in 0..400 {
                now += rng.range_u64(0, 3_000_000);
                let d = desc(&format!("e{}", rng.range_u64(0, 12)));
                let until = SimTime::from_micros(now + rng.range_u64(1, 20_000_000));
                match rng.range_u64(0, 6) {
                    // Insert, or extend an entry already cached.
                    0..=2 => {
                        s.cache_metadata(d.clone(), until);
                        twin.cache_metadata(d, until);
                    }
                    // A payload or local production takes the expiry away.
                    3 => {
                        s.cache_small_payload(&d, Bytes::from_static(b"v"));
                        twin.cache_small_payload(&d, Bytes::from_static(b"v"));
                    }
                    4 => {
                        s.insert_own(d.clone(), None);
                        twin.insert_own(d, None);
                    }
                    _ => {
                        let at = SimTime::from_micros(now);
                        skipped += usize::from(!s.next_expiry.due(at));
                        s.gc(at);
                        twin.sweep(at);
                        assert_eq!(s.metadata, twin.metadata);
                        assert_eq!(s.expiring, twin.expiring);
                    }
                }
            }
        }
        assert!(skipped > 0, "no gc was skipped");
    }

    #[test]
    fn metadata_order_is_the_key_tables_order() {
        // `match_metadata` order is wire-visible (DESIGN.md §17, invariant
        // 1). A reference table of the keys alone, driven by the same map
        // calls, must iterate in the same order. The calls matter, not just
        // the key set: `insert` of a present key may grow the table. A model
        // of each entry's expiry (`None`: pinned) decides what is live.
        let mut rng = crate::SimRng::new(0x0de7);
        for _ in 0..10 {
            let mut s = DataStore::new();
            let mut keys: DetMap<EntryKey, ()> = DetMap::default();
            let mut expiry: BTreeMap<Vec<u8>, Option<SimTime>> = BTreeMap::new();
            let (mut payloads, mut chunked) = (Vec::new(), Vec::new());
            let mut now = 0;
            for _ in 0..400 {
                now += rng.range_u64(0, 2_000_000);
                let at = SimTime::from_micros(now);
                let n = rng.range_u64(0, 40);
                let d = if n.is_multiple_of(4) {
                    item_desc(&format!("v{n}"), 4)
                } else {
                    desc(&format!("e{n}"))
                };
                let key = d.entry_key();
                // What the store does to the entry: expire at `Some(t)`,
                // or pin with `None`.
                let until = match rng.range_u64(0, 8) {
                    // Insert, or extend an entry already cached.
                    0..=3 => {
                        let until =
                            at + crate::SimDuration::from_micros(rng.range_u64(1, 20_000_000));
                        s.cache_metadata(d.clone(), until);
                        let pinned = payloads.contains(&key)
                            || d.name().is_some_and(|n| chunked.iter().any(|c| c == n));
                        (!pinned).then_some(until)
                    }
                    // A payload, a chunk or local production pins it.
                    4 => {
                        s.cache_small_payload(&d, Bytes::from_static(b"v"));
                        payloads.push(key.clone());
                        None
                    }
                    5 if d.name().is_some() => {
                        s.insert_chunk(&d, ChunkId(0), Bytes::from_static(b"c"));
                        chunked.extend(d.name().map(str::to_owned));
                        None
                    }
                    5 => {
                        s.insert_own(d.clone(), None);
                        keys.insert(key.clone(), ());
                        None
                    }
                    _ => {
                        s.gc(at);
                        expiry.retain(|_, t| t.is_none_or(|t| t > at));
                        keys.retain(|k, ()| expiry.contains_key(k.as_bytes()));
                        continue;
                    }
                };
                match expiry.get_mut(key.as_bytes()) {
                    Some(t) => *t = t.zip(until).map(|(t, until)| t.max(until)),
                    None => {
                        expiry.insert(key.as_bytes().to_vec(), until);
                        // Caching and pinning insert an absent key only.
                        keys.entry(key).or_insert(());
                    }
                }
                let live: Vec<&[u8]> = keys
                    .keys()
                    .map(EntryKey::as_bytes)
                    .filter(|k| expiry[*k].is_none_or(|t| t > at))
                    .collect();
                let matched: Vec<&[u8]> = s
                    .match_metadata(&QueryFilter::match_all(), at)
                    .into_iter()
                    .map(DataDescriptor::encode)
                    .collect();
                assert_eq!(matched, live);
            }
            let expiring = expiry.values().filter(|t| t.is_some()).count();
            assert_eq!(s.expiring_len(), expiring);
        }
    }

    #[test]
    fn a_metadata_bucket_is_at_most_24_bytes() {
        // The descriptor is the key; the value is its expiry alone.
        assert!(size_of::<(EntryKey, SimTime)>() <= 24);
    }

    #[test]
    fn metadata_len_counts_entries() {
        let mut s = DataStore::new();
        assert_eq!(s.metadata_len(), 0);
        s.insert_own(desc("a"), None);
        s.insert_own(desc("b"), None);
        s.insert_own(desc("a"), None); // duplicate key
        assert_eq!(s.metadata_len(), 2);
    }

    #[test]
    fn overheard_payloads_share_the_chunk_budget_lru() {
        // Seeded ops on a shrunk budget: cache or serve a payload, cache or
        // fetch a chunk. After each, the store holds exactly what a plain
        // LRU model over both kinds holds.
        let mut rng = crate::SimRng::new(0x5a11);
        let vid = item_desc("vid", 64);
        let name = ItemName::new("vid");
        let at = |model: &[(bool, u32, usize)], chunk, id| {
            model.iter().position(|&(k, i, _)| (k, i) == (chunk, id))
        };
        for _ in 0..20 {
            let mut s = DataStore::new();
            s.set_chunk_cache_bytes(2_000);
            // (is a chunk, id, bytes), least recently used first.
            let mut model: Vec<(bool, u32, usize)> = Vec::new();
            for _ in 0..200 {
                let (chunk, id) = (rng.chance(0.5), rng.range_u64(0, 12) as u32);
                let len = 100 + rng.range_u64(0, 400) as usize;
                let fetch = rng.chance(0.3);
                let held = at(&model, chunk, id);
                if fetch && chunk {
                    let _ = s.fetch_chunk(&name, ChunkId(id));
                } else if fetch {
                    s.touch_small_payload(&desc(&id.to_string()));
                } else if chunk {
                    s.cache_chunk(&vid, ChunkId(id), Bytes::from(vec![0u8; len]));
                } else {
                    s.cache_small_payload(&desc(&id.to_string()), Bytes::from(vec![0u8; len]));
                }
                match held {
                    Some(i) => {
                        let used = model.remove(i);
                        model.push(used);
                    }
                    None if !fetch => model.push((chunk, id, len)),
                    None => {}
                }
                while model.iter().map(|&(_, _, n)| n).sum::<usize>() > 2_000 {
                    model.remove(0);
                }
                for id in 0..12 {
                    let has_payload = s.small_payload(&desc(&id.to_string())).is_some();
                    assert_eq!(has_payload, at(&model, false, id).is_some(), "payload {id}");
                    assert_eq!(
                        s.has_chunk(&name, ChunkId(id)),
                        at(&model, true, id).is_some()
                    );
                }
                let bytes = model.iter().map(|&(_, _, n)| n).sum::<usize>();
                assert_eq!(s.cached_chunk_bytes(), bytes);
            }
        }
    }

    #[test]
    fn own_payloads_stay_pinned_off_the_budget() {
        let mut s = DataStore::new();
        s.set_chunk_cache_bytes(1_000);
        s.insert_own(desc("own"), Some(Bytes::from(vec![0u8; 800])));
        s.cache_small_payload(&desc("a"), Bytes::from(vec![0u8; 600]));
        s.cache_small_payload(&desc("b"), Bytes::from(vec![0u8; 600]));
        // Heard again: pinning is sticky.
        s.cache_small_payload(&desc("own"), Bytes::from(vec![0u8; 800]));
        assert!(s.small_payload(&desc("own")).is_some());
        assert!(s.small_payload(&desc("a")).is_none(), "LRU victim");
        assert!(s.small_payload(&desc("b")).is_some());
        assert_eq!(s.cached_chunk_bytes(), 600);
    }

    #[test]
    fn evicted_data_takes_its_metadata_entry_with_it() {
        let mut s = DataStore::new();
        s.set_chunk_cache_bytes(1_000);
        let kb = || Bytes::from(vec![0u8; 600]);
        // A payload's entry, one own entry with an overheard payload, and a
        // cached item whose metadata is known.
        s.cache_small_payload(&desc("a"), kb());
        s.insert_own(desc("own"), None);
        s.cache_small_payload(&desc("own"), kb());
        assert!(s.small_payload(&desc("a")).is_none());
        assert!(!s.contains_metadata(&desc("a")), "evicted payload's entry");
        let vid = item_desc("vid", 4);
        assert!(s.cache_metadata(vid.clone(), t(10.0)));
        s.cache_chunk(&vid, ChunkId(0), kb());
        assert!(s.small_payload(&desc("own")).is_none());
        assert!(s.contains_metadata(&desc("own")), "own entries stay");
        s.cache_chunk(&vid, ChunkId(1), kb());
        assert!(s.contains_metadata(&vid), "one chunk left");
        s.cache_small_payload(&desc("b"), kb());
        assert!(s.chunk_ids(&ItemName::new("vid")).is_empty());
        assert!(!s.contains_metadata(&vid), "the last chunk's entry");
        assert!(s.item_descriptor_by_name(&ItemName::new("vid")).is_none());
        assert_eq!(s.expiring_len(), 0);
        assert_eq!(s.metadata_len(), 2, "own and b");
        // A whole item's payload: its name's index slot goes with it.
        let clip = item_desc("clip", 1);
        assert!(s.cache_metadata(clip.clone(), t(10.0)));
        s.cache_small_payload(&clip, kb());
        assert!(s.item_descriptor_by_name(&ItemName::new("clip")).is_some());
        s.cache_small_payload(&desc("c"), kb());
        assert!(!s.contains_metadata(&clip));
        assert!(s.item_descriptor_by_name(&ItemName::new("clip")).is_none());
    }
}
