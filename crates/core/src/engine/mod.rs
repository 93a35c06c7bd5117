//! The PDS protocol engine: a pure, radio-agnostic state machine.
//!
//! The engine owns a node's Data Store, Lingering Query Table, CDI table and
//! recent-response cache, and turns incoming messages (plus virtual time)
//! into outgoing messages. All side effects are returned as [`Outgoing`]
//! values; [`PdsNode`](crate::PdsNode) performs the actual radio I/O. This
//! split makes Algorithms 1 and 2 of the paper directly unit-testable.

mod mdr;
mod pdd;
mod pdr;
#[cfg(test)]
mod tests;

use crate::cdi::CdiTable;
use crate::config::PdsConfig;
use crate::ids::{ChunkId, ItemName, QueryId, ResponseId};
use crate::lqt::LingeringQueryTable;
use crate::message::{
    MessageHeader, PdsMessage, QueryKind, QueryMessage, ResponseKind, ResponseMessage,
};
use crate::sessions::{DiscoverySession, RetrievalSession};
use crate::store::DataStore;
use crate::{NodeId, SimRng, SimTime};
use pds_bloom::BloomFilter;
use pds_det::DetMap;
use pds_obs::Phase;

/// Maximum recursion depth of chunk-query division (guards against
/// transient CDI routing loops; carried in the query's `round` field).
pub(crate) const MAX_CHUNK_QUERY_DEPTH: u32 = 16;
/// How long received response ids are remembered for redundant-copy
/// detection.
const RECENT_RESPONSE_HORIZON_SECS: u64 = 60;
/// How long an outstanding sub-query suppresses re-division of the same
/// chunk. Long enough to absorb the duplicate-query burst of one wave,
/// short enough that recovery re-requests pass.
const PENDING_CHUNK_HORIZON: crate::SimDuration = crate::SimDuration::from_secs(8);

/// How much random delay to apply before transmitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jitter {
    /// Send immediately (directed queries, path relays).
    None,
    /// Short jitter (the configured response jitter): spreads simultaneous
    /// small responders after a flood.
    Fast,
    /// Long jitter (~100× response jitter): spreads simultaneous *chunk*
    /// responders — when a flooded MDR query makes every holder serve
    /// 256 KB messages at once, staggering lets en-route Bloom rewriting
    /// suppress later duplicates instead of jamming the medium.
    Slow,
}

/// A message the engine wants transmitted.
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// The message.
    pub message: PdsMessage,
    /// Intended next-hop receivers; empty = all neighbors (flood,
    /// unreliable).
    pub intended: Vec<NodeId>,
    /// Randomized send delay class.
    pub jitter: Jitter,
    /// How many times the node re-submits this message if the per-hop
    /// transport reports delivery failure (the data still exists locally —
    /// a relay that failed to push a cached chunk upstream just tries
    /// again).
    pub retries_left: u8,
    /// Protocol phase this message belongs to (PDD / PDR / MDR); drives the
    /// frame traffic class for per-phase overhead accounting and trace
    /// attribution.
    pub phase: Phase,
    /// True when the message originates from this node's *own* consumer
    /// session (discovery or retrieval) rather than a relay / flood
    /// forward. Drives the session correlation id in `QuerySent` traces;
    /// no protocol behavior depends on it.
    pub own_session: bool,
    /// Raw id of the query this response answers (0 = not a direct answer,
    /// e.g. a batched relay serving several lingering queries). Drives
    /// `ResponseSent` trace correlation; no protocol behavior depends on
    /// it.
    pub answers: u64,
}

/// The protocol phase a message's overhead is attributed to, derived from
/// its wire kind. MDR chunk *responses* travel as ordinary `Chunk`
/// responses and are classified where they originate (see
/// [`Outgoing::response_slow`]); relay hops re-derive from the wire kind,
/// so relayed MDR chunk data counts as PDR — a documented approximation
/// (DESIGN.md §9).
pub(crate) fn phase_of(message: &PdsMessage) -> Phase {
    match message {
        PdsMessage::Query(q) => match q.kind {
            QueryKind::Metadata | QueryKind::SmallData => Phase::Pdd,
            QueryKind::Cdi { .. } | QueryKind::Chunks { .. } => Phase::Pdr,
            QueryKind::MdrChunks { .. } => Phase::Mdr,
        },
        PdsMessage::Response(r) => match r.kind {
            ResponseKind::Metadata { .. } | ResponseKind::SmallData { .. } => Phase::Pdd,
            ResponseKind::Cdi { .. } | ResponseKind::Chunk { .. } => Phase::Pdr,
        },
    }
}

impl Outgoing {
    pub(crate) fn query(q: QueryMessage, intended: Vec<NodeId>) -> Self {
        let message = PdsMessage::Query(q);
        let phase = phase_of(&message);
        Self {
            message,
            intended,
            jitter: Jitter::None,
            retries_left: 2,
            phase,
            own_session: false,
            answers: 0,
        }
    }

    pub(crate) fn response(r: ResponseMessage, intended: Vec<NodeId>, jitter: bool) -> Self {
        let message = PdsMessage::Response(r);
        let phase = phase_of(&message);
        Self {
            message,
            intended,
            jitter: if jitter { Jitter::Fast } else { Jitter::None },
            retries_left: 2,
            phase,
            own_session: false,
            answers: 0,
        }
    }

    /// Slow-jittered chunk response — only the MDR baseline uses this
    /// (staggering flooded chunk responders), so the phase is MDR even
    /// though the wire kind is a plain `Chunk` response.
    pub(crate) fn response_slow(r: ResponseMessage, intended: Vec<NodeId>) -> Self {
        Self {
            message: PdsMessage::Response(r),
            intended,
            jitter: Jitter::Slow,
            retries_left: 2,
            phase: Phase::Mdr,
            own_session: false,
            answers: 0,
        }
    }

    /// Marks the message as originated by this node's own consumer session
    /// (see [`Outgoing::own_session`]).
    pub(crate) fn for_session(mut self) -> Self {
        self.own_session = true;
        self
    }

    /// Records the query this response directly answers (see
    /// [`Outgoing::answers`]).
    pub(crate) fn answering(mut self, q: QueryId) -> Self {
        self.answers = q.0;
        self
    }
}

/// The per-node PDS protocol state machine.
///
/// See the [crate documentation](crate) for the protocol overview. Typical
/// embedding: feed [`PdsEngine::handle_message`] every received message,
/// call [`PdsEngine::poll`] periodically (round control, phase transitions,
/// recovery), and [`PdsEngine::gc`] occasionally; transmit every returned
/// [`Outgoing`].
#[derive(Debug)]
pub struct PdsEngine {
    pub(crate) id: NodeId,
    pub(crate) config: PdsConfig,
    pub(crate) store: DataStore,
    pub(crate) lqt: LingeringQueryTable,
    pub(crate) cdi: CdiTable,
    pub(crate) recent_responses: DetMap<ResponseId, SimTime>,
    /// Chunks this node has an outstanding sub-query for (value = that
    /// query's expiry). Prevents every new upstream from spawning another
    /// sub-query tree for the same chunk — without it the recursive
    /// division builds looping query subgraphs and each arriving chunk is
    /// relayed to dozens of upstreams.
    pub(crate) pending_chunk: DetMap<(ItemName, ChunkId), SimTime>,
    pub(crate) rng: SimRng,
    pub(crate) discovery: Option<DiscoverySession>,
    pub(crate) retrieval: Option<RetrievalSession>,
}

impl PdsEngine {
    /// Creates an engine for node `id`. `seed` drives query/response id
    /// generation (ids must be globally unique, so give each node a
    /// distinct seed).
    #[must_use]
    pub fn new(id: NodeId, config: PdsConfig, seed: u64) -> Self {
        let mut store = DataStore::new();
        store.set_chunk_cache(config.chunk_cache);
        let lqt_budget = config.lqt_byte_budget;
        Self {
            id,
            config,
            store,
            lqt: LingeringQueryTable::with_budget(lqt_budget),
            cdi: CdiTable::new(),
            recent_responses: DetMap::default(),
            pending_chunk: DetMap::default(),
            rng: SimRng::new(seed ^ 0x7064_735f_656e_6769),
            discovery: None,
            retrieval: None,
        }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The protocol configuration.
    #[must_use]
    pub fn config(&self) -> &PdsConfig {
        &self.config
    }

    /// The node's data store (read access).
    #[must_use]
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// The node's data store (write access, e.g. to seed locally produced
    /// data).
    pub fn store_mut(&mut self) -> &mut DataStore {
        &mut self.store
    }

    /// The node's CDI table.
    #[must_use]
    pub fn cdi(&self) -> &CdiTable {
        &self.cdi
    }

    /// The node's lingering query table.
    #[must_use]
    pub fn lqt(&self) -> &LingeringQueryTable {
        &self.lqt
    }

    /// The running or finished discovery session, if any.
    #[must_use]
    pub fn discovery(&self) -> Option<&DiscoverySession> {
        self.discovery.as_ref()
    }

    /// The running or finished retrieval session, if any.
    #[must_use]
    pub fn retrieval(&self) -> Option<&RetrievalSession> {
        self.retrieval.as_ref()
    }

    /// Whether the message behind `header` is a copy Algorithms 1 and 2
    /// discard on sight — a query already in the LQT or past its expiry, a
    /// response id seen recently — so [`PdsEngine::handle_message`] would
    /// return nothing for it and it need not be decoded.
    #[must_use]
    pub(crate) fn is_redundant(&self, now: SimTime, header: &MessageHeader) -> bool {
        match *header {
            MessageHeader::Query { id, expires_at, .. } => {
                self.query_is_redundant(now, id, expires_at)
            }
            MessageHeader::Response { id, .. } => self.response_is_redundant(id),
        }
    }

    /// LQT lookup (Algorithm 1): a copy of a lingering query, or a query
    /// past its expiry, is discarded.
    fn query_is_redundant(&self, now: SimTime, id: QueryId, expires_at: SimTime) -> bool {
        self.lqt.seen(id) || expires_at <= now
    }

    /// RR lookup (Algorithm 2): a copy of a recently received response is
    /// discarded.
    fn response_is_redundant(&self, id: ResponseId) -> bool {
        self.recent_responses.contains_key(&id)
    }

    /// Processes one received message. `from` is the transmitting neighbor;
    /// `me_intended` is whether this node was in the transport's intended
    /// receiver list (or the list was empty). Returns messages to transmit.
    pub fn handle_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        me_intended: bool,
        message: PdsMessage,
    ) -> Vec<Outgoing> {
        match message {
            PdsMessage::Query(q) => self.handle_query(now, from, me_intended, q),
            PdsMessage::Response(r) => self.handle_response(now, from, me_intended, r),
        }
    }

    /// Periodic driver: round control for discovery, phase transitions and
    /// recovery for retrieval. Call at the configured poll cadence.
    pub fn poll(&mut self, now: SimTime) -> Vec<Outgoing> {
        let mut out = self.poll_discovery(now);
        out.extend(self.poll_retrieval(now));
        out
    }

    /// Garbage collection: expired metadata, lingering queries, CDI routes
    /// and stale response-dedup state.
    pub fn gc(&mut self, now: SimTime) {
        self.store.gc(now);
        self.lqt.gc(now);
        self.cdi.gc(now);
        let horizon = RECENT_RESPONSE_HORIZON_SECS * 1_000_000;
        self.recent_responses
            .retain(|_, &mut t| now.as_micros().saturating_sub(t.as_micros()) < horizon);
        self.pending_chunk.retain(|_, &mut t| t > now);
    }

    // ---- shared plumbing --------------------------------------------------

    fn handle_query(
        &mut self,
        now: SimTime,
        from: NodeId,
        me_intended: bool,
        q: QueryMessage,
    ) -> Vec<Outgoing> {
        if self.query_is_redundant(now, q.id, q.expires_at) {
            return Vec::new();
        }
        match &q.kind {
            QueryKind::Metadata | QueryKind::SmallData => {
                self.handle_discovery_query(now, from, me_intended, q)
            }
            QueryKind::Cdi { .. } => self.handle_cdi_query(now, from, me_intended, q),
            QueryKind::Chunks { .. } => self.handle_chunk_query(now, from, me_intended, q),
            QueryKind::MdrChunks { .. } => self.handle_mdr_query(now, from, me_intended, q),
        }
    }

    fn handle_response(
        &mut self,
        now: SimTime,
        from: NodeId,
        me_intended: bool,
        r: ResponseMessage,
    ) -> Vec<Outgoing> {
        if self.response_is_redundant(r.id) {
            return Vec::new();
        }
        self.recent_responses.insert(r.id, now);
        match r.kind {
            ResponseKind::Metadata { entries } => {
                self.handle_metadata_response(now, from, me_intended, r.id, entries)
            }
            ResponseKind::SmallData { items } => {
                self.handle_small_data_response(now, from, me_intended, r.id, items)
            }
            ResponseKind::Cdi { item, pairs } => {
                self.handle_cdi_response(now, from, me_intended, &item, &pairs)
            }
            ResponseKind::Chunk {
                descriptor,
                chunk,
                data,
            } => self.handle_chunk_response(now, from, me_intended, r.id, descriptor, chunk, data),
        }
    }

    pub(crate) fn new_query_id(&mut self) -> QueryId {
        QueryId(self.rng.next_u64())
    }

    pub(crate) fn new_response_id(&mut self) -> ResponseId {
        ResponseId(self.rng.next_u64())
    }

    /// Clears the outstanding-sub-query marks for `chunks` (the transport
    /// reported the sub-query undeliverable, so nothing is in flight and
    /// re-division must not be suppressed).
    pub fn clear_pending_chunks(&mut self, item: &ItemName, chunks: &[ChunkId]) {
        for c in chunks {
            self.pending_chunk.remove(&(item.clone(), *c));
        }
    }

    /// Registers the consumer's own flooded query in its LQT (upstream =
    /// self) so echoed copies relayed back by neighbors are recognized and
    /// discarded. Without this, the originator would treat its own query as
    /// foreign, create a lingering entry pointing outward, and advertise
    /// routes *back toward itself* — poisoning CDI distance vectors.
    pub(crate) fn register_own_query(&mut self, q: &QueryMessage) {
        let me = self.id;
        self.lqt.insert(q.clone(), me);
    }

    /// Forwards a flooded query: sender rewritten to this node, Bloom filter
    /// refreshed from the (possibly rewritten) lingering copy (§III-B-2).
    /// Returns `None` when the query's hop budget is spent or the node's
    /// probabilistic-flooding coin says no (broadcast-storm reduction,
    /// §VII).
    pub(crate) fn forward_flood(&mut self, q: &QueryMessage) -> Option<Outgoing> {
        if q.ttl_hops == 1 {
            return None; // budget spent at this hop
        }
        if self.config.forward_probability < 1.0
            && !self.rng.chance(self.config.forward_probability)
        {
            return None;
        }
        let rewritten = if self.config.rewrite {
            self.lqt.get(q.id).and_then(|l| l.bloom.as_ref())
        } else {
            None
        };
        let fq = QueryMessage {
            id: q.id,
            kind: q.kind.clone(),
            sender: self.id,
            expires_at: q.expires_at,
            filter: q.filter.clone(),
            bloom: rewritten
                .map(BloomFilter::encode)
                .or_else(|| q.bloom.clone()),
            round: q.round,
            ttl_hops: q.ttl_hops.saturating_sub(1),
        };
        Some(Outgoing::query(fq, Vec::new()))
    }
}
