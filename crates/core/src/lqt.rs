//! The Lingering Query Table (§III-A).
//!
//! Unlike a CCN/NDN Interest — consumed by its first matching Data — a
//! lingering query stays in the table until its expiration and keeps routing
//! the continuing stream of responses back toward its sender. The table also
//! holds each query's Bloom filter (cached at insertion, §III-B-2) which
//! en-route rewriting mutates, and the per-query bookkeeping PDR needs
//! (remaining requested chunks, best CDI distances already reported).

use crate::ids::{ChunkId, ItemName, QueryId};
use crate::message::{QueryKind, QueryMessage};
use crate::{NodeId, SimTime};
use pds_bloom::BloomFilter;
use pds_det::DetMap;
use std::collections::VecDeque;

/// Canonical Bloom-filter / dedup key for a chunk of an item (used by MDR
/// redundancy detection and consumer-side chunk tracking).
#[must_use]
pub fn chunk_key(item: &ItemName, chunk: ChunkId) -> Vec<u8> {
    let mut k = Vec::with_capacity(item.as_str().len() + 5);
    k.extend_from_slice(item.as_str().as_bytes());
    k.push(0);
    k.extend_from_slice(&chunk.0.to_le_bytes());
    k
}

/// A dense bitset of chunk ids. Chunk ids are small and dense
/// (`0..total_chunks`), so one bit per chunk replaces a `BTreeSet` node
/// per chunk — a ~100× shrink for the outstanding-chunk tracking every
/// directed chunk query carries, which is what the per-node LQT byte
/// budget counts at city scale.
#[derive(Debug, Clone, Default)]
pub struct ChunkSet {
    words: Vec<u64>,
    len: u32,
}

impl ChunkSet {
    /// Adds a chunk; returns `true` if newly added.
    pub fn insert(&mut self, c: ChunkId) -> bool {
        let (w, b) = (c.0 as usize / 64, c.0 % 64);
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let mask = 1u64 << b;
        if *word & mask == 0 {
            *word |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes a chunk; returns `true` if it was present.
    pub fn remove(&mut self, c: &ChunkId) -> bool {
        let (w, b) = (c.0 as usize / 64, c.0 % 64);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let mask = 1u64 << b;
        if *word & mask != 0 {
            *word &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Whether a chunk is present.
    #[must_use]
    pub fn contains(&self, c: &ChunkId) -> bool {
        let (w, b) = (c.0 as usize / 64, c.0 % 64);
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Number of chunks present.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

impl FromIterator<ChunkId> for ChunkSet {
    fn from_iter<I: IntoIterator<Item = ChunkId>>(iter: I) -> Self {
        let mut s = ChunkSet::default();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// One lingering query and its mutable en-route state.
#[derive(Debug)]
pub struct Lingering {
    /// The query as last received.
    pub query: QueryMessage,
    /// The neighbor that transmitted it — where responses are routed.
    pub upstream: NodeId,
    /// The query's Bloom filter, decoded once and rewritten en-route.
    pub bloom: Option<BloomFilter>,
    /// For [`QueryKind::Chunks`]: chunks still owed upstream; relaying a
    /// chunk removes it so later copies are not re-relayed.
    pub remaining_chunks: ChunkSet,
    /// For [`QueryKind::Cdi`]: best hop count already reported upstream per
    /// chunk; only improvements are forwarded.
    pub reported_cdi: DetMap<ChunkId, u32>,
    /// One-shot ablation: set after the first forwarded response.
    pub exhausted: bool,
}

impl Lingering {
    /// Whether the query is still alive at `now`.
    #[must_use]
    pub fn unexpired(&self, now: SimTime) -> bool {
        self.query.expires_at > now
    }

    /// Whether `key` is already covered by the query's Bloom filter (i.e.
    /// the consumer has it, or it was already sent toward them).
    #[must_use]
    pub fn bloom_contains(&self, key: &[u8]) -> bool {
        self.bloom.as_ref().is_some_and(|b| b.contains(key))
    }

    /// Records that `key` has been sent toward the consumer.
    pub fn bloom_insert(&mut self, key: &[u8]) {
        if let Some(b) = &mut self.bloom {
            b.insert(key);
        }
    }

    /// Approximate resident bytes of this entry: struct plus the heap
    /// behind it (cached Bloom bits, outstanding-chunk bitset, reported-CDI
    /// map, and the query's own allocations). Drives the table's byte
    /// budget; an estimate, not an exact accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let bloom = self
            .bloom
            .as_ref()
            .map_or(0, |b| b.params().byte_len() + 32);
        let query = self.query.bloom.as_ref().map_or(0, Vec::capacity)
            + match &self.query.kind {
                QueryKind::Cdi { descriptor } => descriptor.encoded_len() * 2,
                QueryKind::Chunks { item, chunks } => {
                    item.as_str().len() + chunks.capacity() * size_of::<ChunkId>()
                }
                QueryKind::MdrChunks { item, .. } => item.as_str().len(),
                QueryKind::Metadata | QueryKind::SmallData => 0,
            };
        size_of::<Self>()
            + bloom
            + query
            + self.remaining_chunks.approx_bytes()
            + self.reported_cdi.capacity() * (size_of::<ChunkId>() + size_of::<u32>() + 8)
    }
}

/// The table of lingering queries, keyed by query id.
///
/// # Examples
///
/// ```
/// use pds_core::{
///     LingeringQueryTable, NodeId, QueryFilter, QueryId, QueryKind, QueryMessage,
/// };
/// use pds_core::SimTime;
///
/// let mut lqt = LingeringQueryTable::new();
/// let q = QueryMessage {
///     id: QueryId(1),
///     kind: QueryKind::Metadata,
///     sender: NodeId(7),
///     expires_at: SimTime::from_secs_f64(20.0),
///     filter: QueryFilter::match_all(),
///     bloom: None,
///     round: 0,
///     ttl_hops: 0,
/// };
/// assert!(lqt.insert(q.clone(), NodeId(7)));
/// assert!(lqt.seen(QueryId(1)), "redundant copies are detected");
/// assert_eq!(lqt.match_metadata(SimTime::ZERO).len(), 1);
/// ```
#[derive(Debug)]
pub struct LingeringQueryTable {
    entries: DetMap<QueryId, Lingering>,
    /// Insertion order, for byte-budget eviction (oldest first). Ids whose
    /// entries were removed through `remove`/`gc` are skipped lazily.
    order: VecDeque<QueryId>,
    /// Per-node cap on the table's approximate resident bytes
    /// ([`LingeringQueryTable::approx_bytes`]); inserting past it evicts
    /// the oldest entries. `usize::MAX` = unbounded.
    byte_budget: usize,
}

impl Default for LingeringQueryTable {
    fn default() -> Self {
        Self {
            entries: DetMap::default(),
            order: VecDeque::new(),
            byte_budget: usize::MAX,
        }
    }
}

impl LingeringQueryTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table that evicts oldest queries once its
    /// approximate footprint exceeds `byte_budget` bytes (the city-scale
    /// per-node memory knob; see `PdsConfig::lqt_byte_budget`).
    #[must_use]
    pub fn with_budget(byte_budget: usize) -> Self {
        Self {
            byte_budget,
            ..Self::default()
        }
    }

    /// Approximate resident bytes across all held entries.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.entries.values().map(Lingering::approx_bytes).sum()
    }

    /// Whether a query with this id has been received (and is still held).
    #[must_use]
    pub fn seen(&self, id: QueryId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Inserts a freshly received query. The Bloom filter is decoded and
    /// cached; malformed filters are treated as absent (the query still
    /// works, just without pruning). For bloom-less metadata / small-data /
    /// MDR queries an empty filter is created, so en-route rewriting can
    /// still suppress duplicate replies from different providers
    /// (§III-B-2). Returns `false` (and leaves the table unchanged) if the
    /// id is already present.
    pub fn insert(&mut self, query: QueryMessage, upstream: NodeId) -> bool {
        if self.entries.contains_key(&query.id) {
            return false;
        }
        // A finite byte budget also bounds the capacity of blooms this
        // node synthesizes for bloom-less queries (decoded wire blooms are
        // kept verbatim): there is no point provisioning a 4096-entry
        // filter per query when the whole table must fit tens of KB.
        let cap_limit = if self.byte_budget == usize::MAX {
            usize::MAX
        } else {
            (self.byte_budget / 16).max(64)
        };
        let bloom = query
            .bloom
            .as_deref()
            .and_then(|b| BloomFilter::decode(b).ok())
            .or_else(|| {
                let capacity = match &query.kind {
                    QueryKind::Metadata | QueryKind::SmallData => Some(4096),
                    QueryKind::MdrChunks { total_chunks, .. } => {
                        Some((*total_chunks as usize * 2).max(64))
                    }
                    _ => None,
                };
                capacity.map(|n| {
                    BloomFilter::with_round(
                        pds_bloom::BloomParams::optimal(n.min(cap_limit), 0.01),
                        query.round,
                    )
                })
            });
        let remaining_chunks: ChunkSet = match &query.kind {
            QueryKind::Chunks { chunks, .. } => chunks.iter().copied().collect(),
            _ => ChunkSet::default(),
        };
        let id = query.id;
        self.entries.insert(
            id,
            Lingering {
                query,
                upstream,
                bloom,
                remaining_chunks,
                reported_cdi: DetMap::default(),
                exhausted: false,
            },
        );
        // A removed-then-reinserted id must not leave a stale front-of-queue
        // occurrence that would evict the live entry early.
        self.order.retain(|&q| q != id);
        self.order.push_back(id);
        self.enforce_budget(id);
        true
    }

    /// Evicts oldest entries (insertion order) until the approximate
    /// footprint fits the byte budget. The entry just inserted (`keep`) is
    /// never evicted: a budget too small for one query would otherwise
    /// make the table reject everything, and dropping the *newest* state
    /// is the one behavior change callers could observe immediately.
    fn enforce_budget(&mut self, keep: QueryId) {
        if self.byte_budget == usize::MAX {
            return;
        }
        let mut total = self.approx_bytes();
        while total > self.byte_budget && self.entries.len() > 1 {
            // Pop lazily past ids already removed via `remove`/`gc`.
            let Some(oldest) = self.order.front().copied() else {
                return;
            };
            if oldest == keep {
                return;
            }
            self.order.pop_front();
            if let Some(evicted) = self.entries.remove(&oldest) {
                total = total.saturating_sub(evicted.approx_bytes());
            }
        }
    }

    /// Mutable access to one entry.
    pub fn get_mut(&mut self, id: QueryId) -> Option<&mut Lingering> {
        self.entries.get_mut(&id)
    }

    /// Shared access to one entry.
    #[must_use]
    pub fn get(&self, id: QueryId) -> Option<&Lingering> {
        self.entries.get(&id)
    }

    /// Removes one entry (one-shot ablation, or consumer-side cleanup).
    pub fn remove(&mut self, id: QueryId) -> Option<Lingering> {
        self.entries.remove(&id)
    }

    /// Unexpired, non-exhausted metadata queries.
    pub fn match_metadata(&mut self, now: SimTime) -> Vec<&mut Lingering> {
        self.match_kind(now, |k| matches!(k, QueryKind::Metadata))
    }

    /// Unexpired, non-exhausted small-data queries.
    pub fn match_small_data(&mut self, now: SimTime) -> Vec<&mut Lingering> {
        self.match_kind(now, |k| matches!(k, QueryKind::SmallData))
    }

    /// Unexpired CDI queries for `item`.
    pub fn match_cdi(&mut self, item: &ItemName, now: SimTime) -> Vec<&mut Lingering> {
        self.match_kind(
            now,
            |k| matches!(k, QueryKind::Cdi { descriptor } if descriptor.item_name().as_ref() == Some(item)),
        )
    }

    /// Unexpired queries that still want chunk `chunk` of `item`: directed
    /// chunk queries with the chunk outstanding, and MDR queries whose Bloom
    /// filter does not cover it.
    pub fn match_chunk(
        &mut self,
        item: &ItemName,
        chunk: ChunkId,
        now: SimTime,
    ) -> Vec<&mut Lingering> {
        let key = chunk_key(item, chunk);
        self.entries
            .values_mut()
            .filter(|l| l.unexpired(now) && !l.exhausted)
            .filter(|l| match &l.query.kind {
                QueryKind::Chunks { item: i, .. } => {
                    i == item && l.remaining_chunks.contains(&chunk)
                }
                QueryKind::MdrChunks { item: i, .. } => i == item && !l.bloom_contains(&key),
                _ => false,
            })
            .collect()
    }

    fn match_kind(
        &mut self,
        now: SimTime,
        pred: impl Fn(&QueryKind) -> bool,
    ) -> Vec<&mut Lingering> {
        self.entries
            .values_mut()
            .filter(|l| l.unexpired(now) && !l.exhausted && pred(&l.query.kind))
            .collect()
    }

    /// Iterates all held entries (diagnostics, tests).
    pub fn iter(&self) -> impl Iterator<Item = &Lingering> {
        self.entries.values()
    }

    /// Drops expired queries.
    pub fn gc(&mut self, now: SimTime) {
        self.entries.retain(|_, l| l.unexpired(now));
        let entries = &self.entries;
        self.order.retain(|q| entries.contains_key(q));
    }

    /// Number of held queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::QueryFilter;
    use pds_bloom::BloomParams;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn query(id: u64, kind: QueryKind, expires: f64) -> QueryMessage {
        QueryMessage {
            id: QueryId(id),
            kind,
            sender: NodeId(1),
            expires_at: t(expires),
            filter: QueryFilter::match_all(),
            bloom: None,
            round: 0,
            ttl_hops: 0,
        }
    }

    #[test]
    fn insert_dedups_by_id() {
        let mut lqt = LingeringQueryTable::new();
        assert!(lqt.insert(query(1, QueryKind::Metadata, 10.0), NodeId(2)));
        assert!(!lqt.insert(query(1, QueryKind::Metadata, 10.0), NodeId(3)));
        assert!(lqt.seen(QueryId(1)));
        assert_eq!(lqt.len(), 1);
        assert_eq!(lqt.get(QueryId(1)).expect("present").upstream, NodeId(2));
    }

    #[test]
    fn expiration_gates_matching_and_gc() {
        let mut lqt = LingeringQueryTable::new();
        lqt.insert(query(1, QueryKind::Metadata, 10.0), NodeId(2));
        assert_eq!(lqt.match_metadata(t(5.0)).len(), 1);
        assert_eq!(
            lqt.match_metadata(t(10.0)).len(),
            0,
            "expires_at is exclusive"
        );
        lqt.gc(t(10.0));
        assert!(lqt.is_empty());
    }

    #[test]
    fn match_is_kind_specific() {
        let mut lqt = LingeringQueryTable::new();
        lqt.insert(query(1, QueryKind::Metadata, 10.0), NodeId(2));
        lqt.insert(query(2, QueryKind::SmallData, 10.0), NodeId(2));
        lqt.insert(
            query(
                3,
                QueryKind::Cdi {
                    descriptor: crate::DataDescriptor::builder().attr("name", "vid").build(),
                },
                10.0,
            ),
            NodeId(2),
        );
        assert_eq!(lqt.match_metadata(t(0.0)).len(), 1);
        assert_eq!(lqt.match_small_data(t(0.0)).len(), 1);
        assert_eq!(lqt.match_cdi(&ItemName::new("vid"), t(0.0)).len(), 1);
        assert_eq!(lqt.match_cdi(&ItemName::new("other"), t(0.0)).len(), 0);
    }

    #[test]
    fn chunk_matching_tracks_remaining() {
        let mut lqt = LingeringQueryTable::new();
        lqt.insert(
            query(
                1,
                QueryKind::Chunks {
                    item: ItemName::new("vid"),
                    chunks: vec![ChunkId(0), ChunkId(1)],
                },
                10.0,
            ),
            NodeId(2),
        );
        let item = ItemName::new("vid");
        assert_eq!(lqt.match_chunk(&item, ChunkId(0), t(0.0)).len(), 1);
        // Mark chunk 0 relayed.
        lqt.get_mut(QueryId(1))
            .expect("present")
            .remaining_chunks
            .remove(&ChunkId(0));
        assert_eq!(lqt.match_chunk(&item, ChunkId(0), t(0.0)).len(), 0);
        assert_eq!(lqt.match_chunk(&item, ChunkId(1), t(0.0)).len(), 1);
        assert_eq!(lqt.match_chunk(&item, ChunkId(9), t(0.0)).len(), 0);
    }

    #[test]
    fn mdr_matching_respects_bloom() {
        let item = ItemName::new("vid");
        let mut bloom = BloomFilter::new(BloomParams::optimal(10, 0.01));
        bloom.insert(&chunk_key(&item, ChunkId(0)));
        let mut q = query(
            1,
            QueryKind::MdrChunks {
                item: item.clone(),
                total_chunks: 4,
            },
            10.0,
        );
        q.bloom = Some(bloom.encode());
        let mut lqt = LingeringQueryTable::new();
        lqt.insert(q, NodeId(2));
        assert_eq!(
            lqt.match_chunk(&item, ChunkId(0), t(0.0)).len(),
            0,
            "chunk 0 in bloom"
        );
        assert_eq!(lqt.match_chunk(&item, ChunkId(1), t(0.0)).len(), 1);
    }

    #[test]
    fn exhausted_entries_do_not_match() {
        let mut lqt = LingeringQueryTable::new();
        lqt.insert(query(1, QueryKind::Metadata, 10.0), NodeId(2));
        lqt.get_mut(QueryId(1)).expect("present").exhausted = true;
        assert_eq!(lqt.match_metadata(t(0.0)).len(), 0);
    }

    #[test]
    fn bloom_rewriting_round_trip() {
        let mut bloom = BloomFilter::new(BloomParams::optimal(10, 0.01));
        bloom.insert(b"already-have");
        let mut q = query(1, QueryKind::Metadata, 10.0);
        q.bloom = Some(bloom.encode());
        let mut lqt = LingeringQueryTable::new();
        lqt.insert(q, NodeId(2));
        let l = lqt.get_mut(QueryId(1)).expect("present");
        assert!(l.bloom_contains(b"already-have"));
        assert!(!l.bloom_contains(b"fresh-entry"));
        l.bloom_insert(b"fresh-entry");
        assert!(l.bloom_contains(b"fresh-entry"));
    }

    #[test]
    fn malformed_bloom_replaced_with_fresh_empty() {
        let mut q = query(1, QueryKind::Metadata, 10.0);
        q.bloom = Some(vec![1, 2, 3]);
        let mut lqt = LingeringQueryTable::new();
        lqt.insert(q, NodeId(2));
        let l = lqt.get(QueryId(1)).expect("present");
        assert!(l.bloom.is_some(), "metadata queries always get a bloom");
        assert!(!l.bloom_contains(b"anything"));
    }

    #[test]
    fn bloomless_flooded_kinds_get_empty_bloom() {
        let mut lqt = LingeringQueryTable::new();
        lqt.insert(query(1, QueryKind::Metadata, 10.0), NodeId(2));
        lqt.insert(
            query(
                2,
                QueryKind::MdrChunks {
                    item: ItemName::new("vid"),
                    total_chunks: 8,
                },
                10.0,
            ),
            NodeId(2),
        );
        lqt.insert(
            query(
                3,
                QueryKind::Chunks {
                    item: ItemName::new("vid"),
                    chunks: vec![ChunkId(0)],
                },
                10.0,
            ),
            NodeId(2),
        );
        assert!(lqt.get(QueryId(1)).expect("q1").bloom.is_some());
        assert!(lqt.get(QueryId(2)).expect("q2").bloom.is_some());
        assert!(
            lqt.get(QueryId(3)).expect("q3").bloom.is_none(),
            "directed chunk queries dedup via remaining_chunks instead"
        );
    }

    #[test]
    fn chunk_set_tracks_membership_like_a_btreeset() {
        let mut s: ChunkSet = [ChunkId(0), ChunkId(3), ChunkId(130)].into_iter().collect();
        assert_eq!(s.len(), 3);
        assert!(s.contains(&ChunkId(0)) && s.contains(&ChunkId(130)));
        assert!(!s.contains(&ChunkId(1)) && !s.contains(&ChunkId(999)));
        assert!(s.remove(&ChunkId(3)));
        assert!(!s.remove(&ChunkId(3)), "double remove is a no-op");
        assert!(!s.insert(ChunkId(0)), "duplicate insert is a no-op");
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        // 131 chunks fit in three words: the whole set is ~24 heap bytes.
        assert!(s.approx_bytes() <= 64);
    }

    #[test]
    fn byte_budget_evicts_oldest_queries() {
        let budget = 8 * 1024;
        let mut lqt = LingeringQueryTable::with_budget(budget);
        for i in 0..64 {
            lqt.insert(query(i, QueryKind::Metadata, 10.0), NodeId(2));
        }
        assert!(
            lqt.approx_bytes() <= budget,
            "footprint {} exceeds budget {budget}",
            lqt.approx_bytes()
        );
        assert!(!lqt.seen(QueryId(0)), "oldest evicted first");
        assert!(lqt.seen(QueryId(63)), "newest always kept");
        assert!(!lqt.is_empty() && lqt.len() < 64);
    }

    #[test]
    fn unbounded_table_never_evicts() {
        let mut lqt = LingeringQueryTable::new();
        for i in 0..64 {
            lqt.insert(query(i, QueryKind::Metadata, 10.0), NodeId(2));
        }
        assert_eq!(lqt.len(), 64);
        assert!(lqt.seen(QueryId(0)));
    }

    #[test]
    fn chunk_key_is_injective_on_samples() {
        let a = chunk_key(&ItemName::new("vid"), ChunkId(1));
        let b = chunk_key(&ItemName::new("vid"), ChunkId(2));
        let c = chunk_key(&ItemName::new("vid2"), ChunkId(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
