//! The per-node Data Store: metadata entries, small-item payloads and
//! chunks (§II-C).
//!
//! The store enforces the paper's synchronization rule: a metadata entry
//! cached *without* its payload carries an expiration time and is removed at
//! expiry; entries whose payload (or any chunk of the item) is present live
//! as long as the payload does.
//!
//! Opportunistically cached chunks share one byte budget,
//! [`CHUNK_CACHE_BYTES`]; above it the least recently used cached chunk is
//! evicted (§VII: storage is finite, so cached chunks need a replacement
//! strategy). Locally produced chunks are pinned and never evicted.

use crate::config::CHUNK_CACHE_BYTES;
use crate::descriptor::{DataDescriptor, EntryKey};
use crate::ids::{ChunkId, ItemName};
use crate::predicate::QueryFilter;
use crate::SimTime;
use bytes::Bytes;
use pds_det::DetMap;
use std::collections::BTreeMap;

/// One stored metadata entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaEntry {
    /// The descriptor.
    pub descriptor: DataDescriptor,
    /// Expiration for payload-less cached entries; `None` while the payload
    /// (or any chunk of the item) is held, or for locally produced data.
    pub expires_at: Option<SimTime>,
}

#[derive(Debug, Clone)]
struct CachedChunkMeta {
    bytes: usize,
    last_access: u64,
    pinned: bool,
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
    metadata: DetMap<EntryKey, MetaEntry>,
    // How many `metadata` entries carry an `expires_at`: what `gc` could
    // ever remove, kept so the owner can ask in O(1).
    expiring: usize,
    small_payloads: DetMap<EntryKey, Bytes>,
    chunks: DetMap<ItemName, BTreeMap<ChunkId, Bytes>>,
    // Index: item name → entry key of the whole-item (chunk-less) descriptor.
    items_by_name: DetMap<ItemName, EntryKey>,
    // Cache accounting for opportunistically stored chunks.
    cache_capacity: usize,
    chunk_meta: DetMap<(ItemName, ChunkId), CachedChunkMeta>,
    cached_bytes: usize,
    access_clock: u64,
}

impl Default for DataStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DataStore {
    /// Creates an empty store with the [`CHUNK_CACHE_BYTES`] cache budget.
    #[must_use]
    pub fn new() -> Self {
        Self {
            metadata: DetMap::default(),
            expiring: 0,
            small_payloads: DetMap::default(),
            chunks: DetMap::default(),
            items_by_name: DetMap::default(),
            cache_capacity: CHUNK_CACHE_BYTES,
            chunk_meta: DetMap::default(),
            cached_bytes: 0,
            access_clock: 0,
        }
    }

    /// Shrinks the cache budget so a test can reach eviction with a few
    /// small chunks. Evicts immediately if the cache is over the new budget.
    #[cfg(test)]
    pub(crate) fn set_chunk_cache_bytes(&mut self, capacity: usize) {
        self.cache_capacity = capacity;
        self.maybe_evict();
    }

    /// Inserts a locally produced data item: metadata (never expiring) plus
    /// an optional small payload.
    pub fn insert_own(&mut self, descriptor: DataDescriptor, payload: Option<Bytes>) {
        if let Some(p) = payload {
            self.small_payloads.insert(descriptor.entry_key(), p);
        }
        self.index_item(&descriptor);
        let replaced = self.metadata.insert(
            descriptor.entry_key(),
            MetaEntry {
                descriptor,
                expires_at: None,
            },
        );
        if replaced.is_some_and(|e| e.expires_at.is_some()) {
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
    pub fn item_descriptor_by_name(&self, name: &ItemName) -> Option<&DataDescriptor> {
        let key = self.items_by_name.get(name)?;
        self.metadata.get(key).map(|e| &e.descriptor)
    }

    /// Caches a metadata entry learned from the network. If the entry is
    /// already present, a later expiration extends it; entries backed by a
    /// payload stay non-expiring. Returns `true` if the entry was new.
    pub fn cache_metadata(&mut self, descriptor: DataDescriptor, expires_at: SimTime) -> bool {
        let has_payload = self.small_payloads.contains_key(descriptor.encode())
            || self.has_any_chunk(&descriptor);
        match self.metadata.entry(descriptor.entry_key()) {
            pds_det::MapEntry::Occupied(mut e) => {
                let entry = e.get_mut();
                if entry.expires_at.is_some() {
                    if has_payload {
                        entry.expires_at = None;
                        self.expiring -= 1;
                    } else if entry.expires_at.is_some_and(|t| t < expires_at) {
                        entry.expires_at = Some(expires_at);
                    }
                }
                false
            }
            pds_det::MapEntry::Vacant(v) => {
                v.insert(MetaEntry {
                    descriptor: descriptor.clone(),
                    expires_at: if has_payload { None } else { Some(expires_at) },
                });
                self.expiring += usize::from(!has_payload);
                self.index_item(&descriptor);
                true
            }
        }
    }

    /// Caches a small item's payload (entry becomes non-expiring).
    pub fn cache_small_payload(&mut self, descriptor: &DataDescriptor, payload: Bytes) {
        self.small_payloads.insert(descriptor.entry_key(), payload);
        self.pin_metadata(descriptor);
    }

    /// Makes the entry for `descriptor` non-expiring, adding it if absent:
    /// its payload (or a chunk of the item) is now held.
    fn pin_metadata(&mut self, descriptor: &DataDescriptor) {
        if let Some(e) = self.metadata.get_mut(descriptor.encode()) {
            if e.expires_at.take().is_some() {
                self.expiring -= 1;
            }
        } else {
            self.metadata.insert(
                descriptor.entry_key(),
                MetaEntry {
                    descriptor: descriptor.clone(),
                    expires_at: None,
                },
            );
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
    pub fn cache_chunk(&mut self, item_descriptor: &DataDescriptor, chunk: ChunkId, data: Bytes) {
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
        let key = (name.clone(), chunk);
        match self.chunk_meta.get_mut(&key) {
            Some(meta) => {
                // Re-storing an existing chunk: refresh recency; pinning is
                // sticky (own data stays pinned even if later overheard).
                meta.last_access = self.access_clock;
                if pinned && !meta.pinned {
                    // No longer evictable, so no longer on the cache budget.
                    meta.pinned = true;
                    self.cached_bytes -= meta.bytes;
                }
            }
            None => {
                if !pinned {
                    self.cached_bytes += data.len();
                }
                self.chunk_meta.insert(
                    key,
                    CachedChunkMeta {
                        bytes: data.len(),
                        last_access: self.access_clock,
                        pinned,
                    },
                );
                self.chunks.entry(name).or_default().insert(chunk, data);
            }
        }
        self.index_item(item_descriptor);
        self.pin_metadata(item_descriptor);
    }

    /// Evicts least recently used cached (unpinned) chunks until within
    /// budget.
    fn maybe_evict(&mut self) {
        while self.cached_bytes > self.cache_capacity {
            let victim = self
                .chunk_meta
                .iter()
                .filter(|(_, m)| !m.pinned)
                .min_by_key(|(_, m)| m.last_access)
                .map(|(k, _)| k.clone());
            let Some((item, chunk)) = victim else {
                return; // everything left is pinned
            };
            let meta = self
                .chunk_meta
                .remove(&(item.clone(), chunk))
                .expect("victim");
            self.cached_bytes = self.cached_bytes.saturating_sub(meta.bytes);
            if let Some(per_item) = self.chunks.get_mut(&item) {
                per_item.remove(&chunk);
                if per_item.is_empty() {
                    self.chunks.remove(&item);
                }
            }
        }
    }

    /// Bytes currently used by evictable cached chunks.
    #[must_use]
    pub fn cached_chunk_bytes(&self) -> usize {
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
        self.chunks.get(item).and_then(|m| m.get(&chunk)).cloned()
    }

    /// Like [`DataStore::chunk`], but counts as a use for LRU eviction —
    /// the serving path uses this.
    #[must_use]
    pub fn fetch_chunk(&mut self, item: &ItemName, chunk: ChunkId) -> Option<Bytes> {
        let data = self.chunks.get(item).and_then(|m| m.get(&chunk)).cloned()?;
        self.access_clock += 1;
        if let Some(meta) = self.chunk_meta.get_mut(&(item.clone(), chunk)) {
            meta.last_access = self.access_clock;
        }
        Some(data)
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

    /// Whether a small payload for this descriptor is held.
    #[must_use]
    pub fn small_payload(&self, descriptor: &DataDescriptor) -> Option<Bytes> {
        self.small_payloads.get(descriptor.encode()).cloned()
    }

    /// All unexpired metadata entries matching `filter`, in unspecified
    /// order.
    #[must_use]
    pub fn match_metadata(&self, filter: &QueryFilter, now: SimTime) -> Vec<&DataDescriptor> {
        self.metadata
            .values()
            .filter(|e| e.expires_at.is_none_or(|t| t > now))
            .filter(|e| filter.matches(&e.descriptor))
            .map(|e| &e.descriptor)
            .collect()
    }

    /// Whether a metadata entry for this descriptor is present (expired or
    /// not).
    #[must_use]
    pub fn contains_metadata(&self, descriptor: &DataDescriptor) -> bool {
        self.metadata.contains_key(descriptor.encode())
    }

    /// Number of metadata entries currently stored.
    #[must_use]
    pub fn metadata_len(&self) -> usize {
        self.metadata.len()
    }

    /// Number of stored metadata entries that carry an expiration (cached
    /// without their payload): the entries [`DataStore::gc`] may remove.
    #[must_use]
    pub(crate) fn expiring_len(&self) -> usize {
        self.expiring
    }

    /// Removes expired payload-less metadata entries (§II-C).
    pub fn gc(&mut self, now: SimTime) {
        let before = self.metadata.len();
        self.metadata
            .retain(|_, e| e.expires_at.is_none_or(|t| t > now));
        self.expiring -= before - self.metadata.len();
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
            s.chunk_meta
                .values()
                .filter(|m| !m.pinned)
                .map(|m| m.bytes)
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
        let recount = |s: &DataStore| {
            s.metadata
                .values()
                .filter(|e| e.expires_at.is_some())
                .count()
        };
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
    fn metadata_len_counts_entries() {
        let mut s = DataStore::new();
        assert_eq!(s.metadata_len(), 0);
        s.insert_own(desc("a"), None);
        s.insert_own(desc("b"), None);
        s.insert_own(desc("a"), None); // duplicate key
        assert_eq!(s.metadata_len(), 2);
    }
}
