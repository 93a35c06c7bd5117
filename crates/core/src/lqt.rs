//! The Lingering Query Table (§III-A).
//!
//! Unlike a CCN/NDN Interest — consumed by its first matching Data — a
//! lingering query stays in the table until its expiration and keeps routing
//! the continuing stream of responses back toward its sender. The table also
//! holds each query's Bloom filter (cached at insertion, §III-B-2) which
//! en-route rewriting mutates, and the per-query bookkeeping PDR needs
//! (remaining requested chunks, best CDI distances already reported). A
//! chunk query's remaining chunks are a [`BitSet`] sized to the largest id
//! it names, and never past `MAX_ITEM_CHUNKS`.

use crate::config::MAX_ITEM_CHUNKS;
use crate::ids::{ChunkId, ItemName, QueryId};
use crate::message::{QueryKind, QueryMessage};
use crate::time::ExpiryBound;
use crate::{NodeId, SimTime};
use bytes::Bytes;
use pds_bloom::BloomFilter;
use pds_det::{BitSet, DetMap};
use std::borrow::Borrow;
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

/// One lingering query and its mutable en-route state.
#[derive(Debug)]
pub struct Lingering {
    /// The query as last received, less a wire Bloom filter that decoded:
    /// that one is held only as `bloom`, and `query.bloom` keeps just a
    /// malformed filter, verbatim. Its `expires_at` is the entry's expiry
    /// as of insertion: lowered later, the entry stops matching at once
    /// but [`LingeringQueryTable`]'s `gc` may keep it until the earliest
    /// expiry it was inserted with.
    pub query: QueryMessage,
    /// The neighbor that transmitted it — where responses are routed.
    pub upstream: NodeId,
    /// The query's Bloom filter, decoded once and rewritten en-route.
    pub bloom: Option<BloomFilter>,
    /// Whether `bloom` was decoded from the query's wire filter rather
    /// than synthesized here.
    wire_bloom: bool,
    /// For [`QueryKind::Chunks`]: chunks still owed upstream; relaying a
    /// chunk removes it so later copies are not re-relayed.
    pub remaining_chunks: BitSet,
    /// For [`QueryKind::Cdi`]: best hop count already reported upstream per
    /// chunk; only improvements are forwarded.
    pub reported_cdi: DetMap<ChunkId, u32>,
}

impl Lingering {
    /// Whether the query is still alive at `now`.
    #[must_use]
    pub(crate) fn unexpired(&self, now: SimTime) -> bool {
        self.query.expires_at > now
    }

    /// Whether `key` is already covered by the query's Bloom filter (i.e.
    /// the consumer has it, or it was already sent toward them).
    #[must_use]
    pub(crate) fn bloom_contains(&self, key: &[u8]) -> bool {
        self.bloom.as_ref().is_some_and(|b| b.contains(key))
    }

    /// Records that `key` has been sent toward the consumer.
    pub(crate) fn bloom_insert(&mut self, key: &[u8]) {
        if let Some(b) = &mut self.bloom {
            b.insert(key);
        }
    }

    /// Approximate resident bytes of this entry: struct plus the heap
    /// behind it (cached Bloom bits, outstanding-chunk bitset, reported-CDI
    /// map, and the query's own allocations). Drives the table's byte
    /// budget; an estimate, not an exact accounting. The query is charged
    /// as it was received, with its wire Bloom filter, whether or not that
    /// is still held, and the filter in full, whether its bits are shared
    /// or its own: the budget evicts the same entries either way.
    #[must_use]
    pub(crate) fn approx_bytes(&self) -> usize {
        let (bloom, wire) = self.bloom.as_ref().map_or((0, 0), |b| {
            let wire = if self.wire_bloom { b.encoded_len() } else { 0 };
            (b.params().byte_len() + 32, wire)
        });
        let query = wire
            + self.query.bloom.as_ref().map_or(0, Vec::len)
            + match &self.query.kind {
                QueryKind::Cdi { descriptor } => descriptor.encoded_len() * 2,
                QueryKind::Chunks { item, chunks } => {
                    item.as_str().len() + chunks.capacity() * size_of::<ChunkId>()
                }
                QueryKind::MdrChunks { item, .. } => item.as_str().len(),
                QueryKind::Metadata | QueryKind::SmallData => 0,
            };
        ENTRY_BYTES
            + bloom
            + query
            + self.remaining_chunks.heap_bytes()
            + self.reported_cdi.capacity() * (size_of::<ChunkId>() + size_of::<u32>() + 8)
    }
}

/// What [`Lingering::approx_bytes`] charges for an entry before the heap
/// behind it: the size of the entry as it was when the budget was set, so
/// that a change of layout moves no eviction.
const ENTRY_BYTES: usize = 248;

/// Per-node byte budget of every engine's lingering query table
/// ([`LingeringQueryTable::approx_bytes`]): tens of simultaneous lingering
/// queries, so only genuine memory pressure evicts.
pub(crate) const NODE_BYTE_BUDGET: usize = 512 * 1024;

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
/// assert!(lqt.insert(&q, NodeId(7)));
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
    /// No held query's `expires_at` is earlier than this.
    next_expiry: ExpiryBound,
}

impl Default for LingeringQueryTable {
    fn default() -> Self {
        Self {
            entries: DetMap::default(),
            order: VecDeque::new(),
            byte_budget: usize::MAX,
            next_expiry: ExpiryBound::default(),
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
    /// approximate footprint exceeds `byte_budget` bytes (every engine
    /// uses `NODE_BYTE_BUDGET`).
    #[must_use]
    pub fn with_budget(byte_budget: usize) -> Self {
        Self {
            byte_budget,
            ..Self::default()
        }
    }

    /// Approximate resident bytes across all held entries.
    #[must_use]
    pub(crate) fn approx_bytes(&self) -> usize {
        self.entries.values().map(Lingering::approx_bytes).sum()
    }

    /// Whether a query with this id has been received (and is still held).
    #[must_use]
    pub fn seen(&self, id: QueryId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Inserts a freshly received query. The Bloom filter is decoded from
    /// the borrowed wire bytes and held decoded only; malformed filters are
    /// treated as absent (the query still works, just without pruning).
    /// For bloom-less metadata / small-data / MDR queries an empty filter
    /// is created, so en-route rewriting can still suppress duplicate
    /// replies from different providers (§III-B-2). Returns `false` (and
    /// leaves the table unchanged) if the id is already present.
    pub fn insert(&mut self, query: impl Borrow<QueryMessage>, upstream: NodeId) -> bool {
        self.insert_received(query.borrow(), upstream, None)
    }

    /// [`insert`](Self::insert), given `shared`, the query's Bloom filter
    /// as a view of the bytes it arrived in: the held filter shares them
    /// until it is written into. Without it the filter is copied out of
    /// the query.
    pub(crate) fn insert_received(
        &mut self,
        query: &QueryMessage,
        upstream: NodeId,
        shared: Option<Bytes>,
    ) -> bool {
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
        let decoded = match shared {
            Some(view) => Some(BloomFilter::decode_shared(&view)),
            None => query.bloom.as_deref().map(BloomFilter::decode),
        };
        let (wire, malformed) = match decoded {
            Some(Ok(b)) => (Some(b), None),
            Some(Err(_)) => (None, query.bloom.clone()),
            None => (None, None),
        };
        let wire_bloom = wire.is_some();
        let bloom = wire.or_else(|| {
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
        let remaining_chunks = match &query.kind {
            QueryKind::Chunks { chunks, .. } => {
                let n = chunks.iter().map(|c| c.0.saturating_add(1)).max();
                let mut set = BitSet::new(n.unwrap_or(0).min(MAX_ITEM_CHUNKS));
                for c in chunks {
                    set.insert(c.0);
                }
                set
            }
            _ => BitSet::default(),
        };
        let id = query.id;
        self.next_expiry.note(query.expires_at);
        self.entries.insert(
            id,
            Lingering {
                query: QueryMessage {
                    kind: query.kind.clone(),
                    filter: query.filter.clone(),
                    bloom: malformed,
                    ..*query
                },
                upstream,
                bloom,
                wire_bloom,
                remaining_chunks,
                reported_cdi: DetMap::default(),
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
    pub(crate) fn get_mut(&mut self, id: QueryId) -> Option<&mut Lingering> {
        self.entries.get_mut(&id)
    }

    /// Shared access to one entry.
    #[must_use]
    pub(crate) fn get(&self, id: QueryId) -> Option<&Lingering> {
        self.entries.get(&id)
    }

    /// Removes one entry (one-shot ablation, or consumer-side cleanup).
    pub(crate) fn remove(&mut self, id: QueryId) -> Option<Lingering> {
        let removed = self.entries.remove(&id);
        if self.entries.is_empty() {
            // Nothing left for the lazily skipped ids to shadow: an empty
            // table is fully clean, so `gc` has nothing to do on it.
            self.order.clear();
        }
        removed
    }

    /// Unexpired discovery queries: [`QueryKind::SmallData`]
    /// ones if `small_data`, else [`QueryKind::Metadata`] ones.
    pub(crate) fn match_discovery(
        &mut self,
        small_data: bool,
        now: SimTime,
    ) -> Vec<&mut Lingering> {
        // One closure per kind, so the flag is read once, not per entry.
        if small_data {
            self.match_kind(now, |k| matches!(k, QueryKind::SmallData))
        } else {
            self.match_kind(now, |k| matches!(k, QueryKind::Metadata))
        }
    }

    /// Unexpired metadata queries.
    pub fn match_metadata(&mut self, now: SimTime) -> Vec<&mut Lingering> {
        self.match_discovery(false, now)
    }

    /// Unexpired CDI queries for `item`.
    pub(crate) fn match_cdi(&mut self, item: &ItemName, now: SimTime) -> Vec<&mut Lingering> {
        self.match_kind(
            now,
            |k| matches!(k, QueryKind::Cdi { descriptor } if descriptor.item_name().as_ref() == Some(item)),
        )
    }

    /// Unexpired queries that still want chunk `chunk` of `item`: directed
    /// chunk queries with the chunk outstanding, and MDR queries whose Bloom
    /// filter does not cover it.
    pub(crate) fn match_chunk(
        &mut self,
        item: &ItemName,
        chunk: ChunkId,
        now: SimTime,
    ) -> Vec<&mut Lingering> {
        let key = chunk_key(item, chunk);
        self.entries
            .values_mut()
            .filter(|l| l.unexpired(now))
            .filter(|l| match &l.query.kind {
                QueryKind::Chunks { item: i, .. } => {
                    i == item && l.remaining_chunks.contains(chunk.0)
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
            .filter(|l| l.unexpired(now) && pred(&l.query.kind))
            .collect()
    }

    /// Iterates all held entries (diagnostics, tests).
    pub fn iter(&self) -> impl Iterator<Item = &Lingering> {
        self.entries.values()
    }

    /// Drops expired queries. Scans only once the earliest expiry may
    /// have passed; until then ids dropped by `remove` stay in the
    /// eviction queue, where `enforce_budget` skips them.
    pub(crate) fn gc(&mut self, now: SimTime) {
        if self.next_expiry.due(now) {
            self.sweep(now);
        }
    }

    /// The full scan behind [`LingeringQueryTable::gc`]: drops every
    /// expired query and stale queue id, and rebuilds the expiry bound
    /// from the survivors.
    fn sweep(&mut self, now: SimTime) {
        let mut next = ExpiryBound::default();
        self.entries
            .retain(|_, l| next.keep(l.query.expires_at, now));
        let entries = &self.entries;
        self.order.retain(|q| entries.contains_key(q));
        self.next_expiry = next;
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
        assert_eq!(lqt.match_discovery(true, t(0.0)).len(), 1);
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
            .remove(0);
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
    fn a_saturated_table_keeps_only_the_newest() {
        // Smaller than any one entry: the table is saturated by a single
        // query, and only the newest survives an insert.
        let mut lqt = LingeringQueryTable::with_budget(1);
        lqt.insert(query(0, QueryKind::Metadata, 10.0), NodeId(2));
        assert!(lqt.seen(QueryId(0)), "a lone entry is never evicted");
        for i in 1..=10 {
            lqt.insert(query(i, QueryKind::Metadata, 10.0), NodeId(2));
            assert_eq!(lqt.len(), 1, "saturated: each insert evicts the previous");
            assert!(lqt.seen(QueryId(i)));
        }
        assert!(!lqt.insert(query(10, QueryKind::Metadata, 10.0), NodeId(2)));
        lqt.remove(QueryId(10));
        lqt.insert(query(12, QueryKind::Metadata, 10.0), NodeId(2));
        lqt.gc(t(10.0));
        assert!(lqt.is_empty());
    }

    #[test]
    fn gc_removes_what_a_full_sweep_removes() {
        // The same op sequence on two tables; the twin sweeps at every gc
        // instant (the rule before the expiry bound), the table only when
        // its bound is due. A small budget makes inserts evict.
        fn live(lqt: &LingeringQueryTable) -> (Vec<(QueryId, SimTime)>, Vec<QueryId>) {
            let mut entries: Vec<_> = lqt
                .entries
                .iter()
                .map(|(&id, l)| (id, l.query.expires_at))
                .collect();
            entries.sort_unstable();
            let order = lqt.order.iter().copied().filter(|&q| lqt.seen(q)).collect();
            (entries, order)
        }
        let mut rng = crate::SimRng::new(0x1a7);
        let mut skipped = 0;
        for budget in [usize::MAX, 6 * 1024] {
            for _ in 0..10 {
                let mut lqt = LingeringQueryTable::with_budget(budget);
                let mut twin = LingeringQueryTable::with_budget(budget);
                let mut now = 0;
                for _ in 0..400 {
                    now += rng.range_u64(0, 3_000_000);
                    let id = rng.range_u64(0, 24);
                    match rng.range_u64(0, 5) {
                        // Insert (a held id is refused, as a redundant copy).
                        0..=2 => {
                            let expires = (now + rng.range_u64(1, 20_000_000)) as f64 / 1e6;
                            let q = query(id, QueryKind::Metadata, expires);
                            assert_eq!(lqt.insert(q.clone(), NodeId(2)), twin.insert(q, NodeId(2)));
                        }
                        3 => {
                            lqt.remove(QueryId(id));
                            twin.remove(QueryId(id));
                        }
                        _ => {
                            let at = SimTime::from_micros(now);
                            skipped += usize::from(!lqt.next_expiry.due(at));
                            lqt.gc(at);
                            twin.sweep(at);
                            assert_eq!(live(&lqt), live(&twin));
                        }
                    }
                }
            }
        }
        assert!(skipped > 0, "no gc was skipped");
    }

    /// A query of a seeded mix: every kind, with a wire Bloom filter, a
    /// malformed one or none.
    fn seeded_query(rng: &mut crate::SimRng, id: u64, now: u64) -> QueryMessage {
        let expires_at = SimTime::from_micros(now + rng.range_u64(1, 20_000_000));
        let item = ItemName::new(format!("item{}", rng.range_u64(0, 4)));
        let kind = match rng.range_u64(0, 5) {
            0 => QueryKind::Metadata,
            1 => QueryKind::SmallData,
            2 => QueryKind::Cdi {
                descriptor: crate::DataDescriptor::builder()
                    .attr("name", item.as_str())
                    .build(),
            },
            3 => QueryKind::Chunks {
                chunks: (0..rng.range_u64(1, 40))
                    .map(|c| ChunkId(c as u32 * 3))
                    .collect(),
                item,
            },
            _ => QueryKind::MdrChunks {
                item,
                total_chunks: rng.range_u64(1, 200) as u32,
            },
        };
        let bloom = match rng.range_u64(0, 3) {
            0 => None,
            1 => {
                let n = rng.range_u64(1, 400) as usize;
                let mut b = BloomFilter::with_round(BloomParams::optimal(n, 0.01), 1);
                b.insert(b"held");
                Some(b.encode())
            }
            _ => Some(vec![7; rng.range_u64(0, 300) as usize]),
        };
        QueryMessage {
            id: QueryId(id),
            kind,
            sender: NodeId(1),
            expires_at,
            filter: QueryFilter::match_all(),
            bloom,
            round: rng.range_u64(0, 3) as u32,
            ttl_hops: 0,
        }
    }

    #[test]
    fn approx_bytes_charges_the_query_as_received() {
        // The charge when the entry kept the whole received query: its
        // wire Bloom bytes next to the decoded filter.
        let as_received = |q: &QueryMessage, l: &Lingering| {
            size_of::<Lingering>()
                + l.bloom.as_ref().map_or(0, |b| b.params().byte_len() + 32)
                + q.bloom.as_ref().map_or(0, Vec::len)
        };
        let mut wire = BloomFilter::with_round(BloomParams::optimal(300, 0.01), 1);
        wire.insert(b"held");
        let mut lqt = LingeringQueryTable::new();
        for (id, bloom) in [
            (1, Some(wire.encode())),
            (2, Some(vec![1, 2, 3])),
            (3, None),
        ] {
            let mut q = query(id, QueryKind::Metadata, 10.0);
            q.bloom = bloom;
            lqt.insert(&q, NodeId(2));
            let l = lqt.get(q.id).expect("present");
            assert_eq!(l.approx_bytes(), as_received(&q, l), "query {id}");
            // Only a malformed filter is kept in wire form.
            assert_eq!(l.query.bloom.is_some(), id == 2, "query {id}");
        }
        // The wire filter is held decoded, bit for bit.
        let held = lqt.get(QueryId(1)).and_then(|l| l.bloom.as_ref());
        assert_eq!(held.map(BloomFilter::encode), Some(wire.encode()));

        // A seeded mix of kinds, filters, redundant copies, removes and gc
        // under a small budget evicts exactly the ids, and charges exactly
        // the bytes, that a table holding every received query whole did.
        assert_eq!(seeded_ops(false), (EVICTED.to_vec(), 2_622_463));
    }

    /// The ids [`seeded_ops`] evicts, in order.
    const EVICTED: [u64; 67] = [
        36, 40, 42, 46, 47, 48, 49, 57, 50, 60, 71, 79, 83, 81, 85, 84, 86, 54, 108, 55, 111, 113,
        116, 115, 119, 121, 122, 124, 125, 128, 64, 130, 69, 134, 68, 142, 141, 71, 145, 146, 147,
        149, 74, 150, 153, 154, 155, 156, 158, 159, 160, 162, 163, 164, 168, 169, 170, 171, 172,
        173, 87, 175, 88, 177, 178, 179, 180,
    ];

    /// What an entry was charged before filters shared their bits: the
    /// struct's 248 bytes, a full filter whether shared or not, the query
    /// as received, and the heap of its bookkeeping.
    fn charge_before_sharing(l: &Lingering) -> usize {
        let bloom = l.bloom.as_ref().map_or(0, |b| {
            let wire = if l.wire_bloom { b.encoded_len() } else { 0 };
            b.params().byte_len() + 32 + wire
        });
        let kind = match &l.query.kind {
            QueryKind::Cdi { descriptor } => descriptor.encoded_len() * 2,
            QueryKind::Chunks { item, chunks } => {
                item.as_str().len() + chunks.capacity() * size_of::<ChunkId>()
            }
            QueryKind::MdrChunks { item, .. } => item.as_str().len(),
            QueryKind::Metadata | QueryKind::SmallData => 0,
        };
        248 + bloom
            + l.query.bloom.as_ref().map_or(0, Vec::len)
            + kind
            + l.remaining_chunks.heap_bytes()
            + l.reported_cdi.capacity() * (size_of::<ChunkId>() + size_of::<u32>() + 8)
    }

    /// Runs a seeded mix of kinds, filters, redundant copies, removes, gc
    /// and inserts that write into filters on a table of a 16 KB budget,
    /// the wire filters given as shared views if `shared`. Checks every
    /// entry's charge after every step; returns the evicted ids and the
    /// table's charge summed over the inserts.
    fn seeded_ops(shared: bool) -> (Vec<u64>, usize) {
        let mut rng = crate::SimRng::new(0xb1_00f);
        let mut lqt = LingeringQueryTable::with_budget(16 * 1024);
        let (mut evicted, mut charged) = (Vec::new(), 0);
        let (mut now, mut next_id) = (0, 0);
        for _ in 0..300 {
            now += rng.range_u64(0, 1_000_000);
            match rng.range_u64(0, 10) {
                0..=6 => {
                    let id = if rng.range_u64(0, 8) == 0 {
                        next_id / 2
                    } else {
                        next_id
                    };
                    next_id += 1;
                    let q = seeded_query(&mut rng, id, now);
                    let before: Vec<QueryId> = lqt.entries.keys().copied().collect();
                    let wire = q.bloom.clone().filter(|_| shared).map(Bytes::from);
                    lqt.insert_received(&q, NodeId(2), wire);
                    evicted.extend(before.into_iter().filter(|&q| !lqt.seen(q)).map(|q| q.0));
                    charged += lqt.approx_bytes();
                    // Half the filters held are then written into.
                    if let Some(l) = lqt.get_mut(q.id).filter(|_| id % 2 == 0) {
                        l.bloom_insert(b"sent on");
                    }
                }
                7 => {
                    lqt.remove(QueryId(rng.range_u64(0, next_id + 1)));
                }
                _ => lqt.gc(SimTime::from_micros(now)),
            }
            for l in lqt.iter() {
                assert_eq!(
                    l.approx_bytes(),
                    charge_before_sharing(l),
                    "{:?}",
                    l.query.id
                );
            }
        }
        (evicted, charged)
    }

    #[test]
    fn a_shared_filter_is_charged_as_a_copy_and_evicts_the_same_entries() {
        assert_eq!(seeded_ops(true), seeded_ops(false));
        assert_eq!(seeded_ops(true).0, EVICTED);
        // The shared path did share: a view's bits lie in its wire bytes.
        let mut b = BloomFilter::with_round(BloomParams::optimal(300, 0.01), 1);
        b.insert(b"held");
        let wire = Bytes::from(b.encode());
        let mut q = query(1, QueryKind::Metadata, 10.0);
        q.bloom = Some(wire.to_vec());
        let mut lqt = LingeringQueryTable::new();
        lqt.insert_received(&q, NodeId(2), Some(wire.clone()));
        let l = lqt.get_mut(QueryId(1)).expect("present");
        let bits = |l: &Lingering| l.bloom.as_ref().map(|b| b.as_ref().as_ptr());
        assert!(wire.as_ptr_range().contains(&bits(l).expect("a filter")));
        let charge = l.approx_bytes();
        l.bloom_insert(b"fresh");
        assert!(!wire.as_ptr_range().contains(&bits(l).expect("a filter")));
        assert_eq!(
            l.approx_bytes(),
            charge,
            "a copy is charged as the view was"
        );
    }

    #[test]
    fn a_lingering_query_is_248_bytes() {
        // `approx_bytes` charges `ENTRY_BYTES` per entry, this size: a
        // layout that differs keeps the charge and moves no eviction.
        assert_eq!(size_of::<Lingering>(), 248);
        assert_eq!(ENTRY_BYTES, 248);
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
