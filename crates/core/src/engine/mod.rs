//! The PDS protocol engine: a pure, radio-agnostic state machine.
//!
//! The engine owns a node's Data Store, Lingering Query Table, CDI table and
//! recent-response cache, and turns incoming messages (plus virtual time)
//! into outgoing messages. All side effects are returned as [`Outgoing`]
//! values; [`PdsNode`](crate::PdsNode) performs the actual radio I/O. This
//! split makes Algorithms 1 and 2 of the paper directly unit-testable.

// The step functions run inside `World::dispatch`: a panic there leaves
// the event queue half-drained. The level is inherited by `pdd`, `pdr`
// and `mdr` (DESIGN.md §13).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod mdr;
mod pdd;
mod pdr;
#[cfg(test)]
mod tests;

use crate::cdi::CdiTable;
use crate::config::{PdsConfig, QUERY_LIFETIME, RESPONSE_JITTER};
use crate::ids::{ChunkId, ItemName, QueryId, ResponseId};
use crate::lqt::{LingeringQueryTable, NODE_BYTE_BUDGET};
use crate::message::{
    MessageHeader, PdsMessage, QueryKind, QueryMessage, ResponseKind, ResponseMessage,
};
use crate::predicate::QueryFilter;
use crate::sessions::{DiscoverySession, RetrievalSession};
use crate::store::DataStore;
use crate::time::ExpiryBound;
use crate::{NodeId, SimDuration, SimRng, SimTime};
use bytes::Bytes;
use pds_bloom::BloomFilter;
use pds_det::DetMap;
use pds_obs::{Phase, TraceKind};

/// Maximum recursion depth of chunk-query division (guards against
/// transient CDI routing loops; carried in the query's `round` field).
pub(crate) const MAX_CHUNK_QUERY_DEPTH: u32 = 16;
/// How long received response ids are remembered for redundant-copy
/// detection.
const RECENT_RESPONSE_HORIZON: SimDuration = SimDuration::from_secs(60);
/// How long an outstanding sub-query suppresses re-division of the same
/// chunk. Long enough to absorb the duplicate-query burst of one wave,
/// short enough that recovery re-requests pass.
const PENDING_CHUNK_HORIZON: SimDuration = SimDuration::from_secs(8);

/// Algorithm 2's recent-response ids, each with the instant it arrived;
/// an id is forgotten `RECENT_RESPONSE_HORIZON` after it arrived.
#[derive(Debug, Default)]
pub(crate) struct RecentResponses {
    seen: DetMap<ResponseId, SimTime>,
    /// No id in `seen` is forgotten before this.
    next_expiry: ExpiryBound,
}

impl RecentResponses {
    /// Remembers `id` as received at `now`.
    pub(crate) fn insert(&mut self, id: ResponseId, now: SimTime) {
        self.seen.insert(id, now);
        self.next_expiry.note(now + RECENT_RESPONSE_HORIZON);
    }

    /// Forgets the ids older than the horizon. Scans only once the oldest
    /// may have aged past it.
    pub(crate) fn gc(&mut self, now: SimTime) {
        if self.next_expiry.due(now) {
            self.sweep(now);
        }
    }

    /// The full scan behind [`RecentResponses::gc`].
    fn sweep(&mut self, now: SimTime) {
        let mut next = ExpiryBound::default();
        self.seen.retain(|_, &mut t| {
            let live = now.since(t) < RECENT_RESPONSE_HORIZON;
            if live {
                next.note(t + RECENT_RESPONSE_HORIZON);
            }
            live
        });
        self.next_expiry = next;
    }
}

/// How much random delay to apply before transmitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jitter {
    /// Send immediately (directed queries, path relays).
    None,
    /// Short jitter (the configured response jitter): spreads simultaneous
    /// small responders after a flood.
    Fast,
    /// Long jitter (100× response jitter): spreads simultaneous *chunk*
    /// responders — when a flooded MDR query makes every holder serve
    /// 256 KB messages at once, staggering lets en-route Bloom rewriting
    /// suppress later duplicates instead of jamming the medium.
    Slow,
}

impl Jitter {
    /// The longest delay of this class; the send delay is drawn uniformly
    /// from `[0, max_delay)`.
    pub(crate) fn max_delay(self) -> SimDuration {
        match self {
            Self::None => SimDuration::ZERO,
            Self::Fast => RESPONSE_JITTER,
            Self::Slow => RESPONSE_JITTER.saturating_mul(100),
        }
    }
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
    /// The trace id of this node's *own* consumer session (discovery or
    /// retrieval) that sends the message, or 0 for a relay / flood
    /// forward. It is the session correlation id of `QuerySent` traces; no
    /// protocol behavior depends on it.
    pub session: u32,
    /// Raw id of the query this response answers (0 = not a direct answer,
    /// e.g. a batched relay serving several lingering queries). Drives
    /// `ResponseSent` trace correlation; no protocol behavior depends on
    /// it.
    pub answers: u64,
    /// The message's wire bytes, once known: the received bytes of a chunk
    /// response relayed unchanged, else the encoding of its first
    /// transmission, which a resend sends again.
    pub(crate) wire: Option<Bytes>,
}

impl Outgoing {
    /// `message` as a relay or responder sends it: charged to its kind's
    /// phase, retried twice, answering no query, in no session of ours.
    fn new(message: PdsMessage, intended: Vec<NodeId>, jitter: Jitter) -> Self {
        Self {
            phase: message.phase(),
            message,
            intended,
            jitter,
            retries_left: 2,
            session: 0,
            answers: 0,
            wire: None,
        }
    }

    pub(crate) fn query(q: QueryMessage, intended: Vec<NodeId>) -> Self {
        Self::new(PdsMessage::Query(q), intended, Jitter::None)
    }

    pub(crate) fn response(r: ResponseMessage, intended: Vec<NodeId>, jitter: bool) -> Self {
        let jitter = if jitter { Jitter::Fast } else { Jitter::None };
        Self::new(PdsMessage::Response(r), intended, jitter)
    }

    /// Slow-jittered chunk response — only the MDR baseline uses this
    /// (staggering flooded chunk responders), so the phase is MDR even
    /// though the wire kind is a plain `Chunk` response.
    pub(crate) fn response_slow(r: ResponseMessage, intended: Vec<NodeId>) -> Self {
        Self {
            phase: Phase::Mdr,
            ..Self::new(PdsMessage::Response(r), intended, Jitter::Slow)
        }
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
/// call [`PdsEngine::poll`] periodically while
/// [`PdsEngine::has_live_session`] (round control, phase transitions,
/// recovery), and [`PdsEngine::gc`] occasionally while
/// [`PdsEngine::holds_expiring_state`]; transmit every returned
/// [`Outgoing`].
#[derive(Debug)]
pub struct PdsEngine {
    pub(crate) id: NodeId,
    pub(crate) config: PdsConfig,
    pub(crate) store: DataStore,
    pub(crate) lqt: LingeringQueryTable,
    pub(crate) cdi: CdiTable,
    pub(crate) recent_responses: RecentResponses,
    /// Chunks this node has an outstanding sub-query for. The value is
    /// when the mark lapses: `divide_chunks` stores `now +
    /// PENDING_CHUNK_HORIZON` (8 s), whatever the query's own
    /// `expires_at` is (ROADMAP item 5 weighs tying it to the PDR
    /// watchdog instead). Prevents every new upstream from spawning
    /// another sub-query tree for the same chunk — without it the
    /// recursive division builds looping query subgraphs and each arriving
    /// chunk is relayed to dozens of upstreams.
    pub(crate) pending_chunk: DetMap<(ItemName, ChunkId), SimTime>,
    pub(crate) rng: SimRng,
    // Boxed: only a consumer runs a session, and an idle node should not
    // carry the room for one.
    pub(crate) discovery: Option<Box<DiscoverySession>>,
    pub(crate) retrieval: Option<Box<RetrievalSession>>,
    /// The trace id of the last session opened (0 = none yet).
    last_session: u32,
}

impl PdsEngine {
    /// Creates an engine for node `id`. `seed` drives query/response id
    /// generation (ids must be globally unique, so give each node a
    /// distinct seed).
    #[must_use]
    pub fn new(id: NodeId, config: PdsConfig, seed: u64) -> Self {
        Self {
            id,
            config,
            store: DataStore::new(),
            lqt: LingeringQueryTable::with_budget(NODE_BYTE_BUDGET),
            cdi: CdiTable::new(),
            recent_responses: RecentResponses::default(),
            pending_chunk: DetMap::default(),
            rng: SimRng::new(seed ^ 0x7064_735f_656e_6769),
            discovery: None,
            retrieval: None,
            last_session: 0,
        }
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

    /// The node's lingering query table.
    #[must_use]
    pub fn lqt(&self) -> &LingeringQueryTable {
        &self.lqt
    }

    /// The running or finished discovery session, if any.
    #[must_use]
    pub fn discovery(&self) -> Option<&DiscoverySession> {
        self.discovery.as_deref()
    }

    /// The running or finished retrieval session, if any.
    #[must_use]
    pub fn retrieval(&self) -> Option<&RetrievalSession> {
        self.retrieval.as_deref()
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
        self.recent_responses.seen.contains_key(&id)
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
            PdsMessage::Query(q) => self.handle_query(now, from, me_intended, &q, None),
            PdsMessage::Response(r) => self.handle_response(now, from, me_intended, r, None),
        }
    }

    /// [`PdsEngine::handle_message`], given the `wire` bytes `message` was
    /// decoded from: a chunk response relayed unchanged carries them, and a
    /// lingering query's Bloom filter is a view of them.
    pub(crate) fn handle_received(
        &mut self,
        now: SimTime,
        from: NodeId,
        me_intended: bool,
        message: &PdsMessage,
        wire: &Bytes,
    ) -> Vec<Outgoing> {
        match message {
            PdsMessage::Query(q) => self.handle_query(now, from, me_intended, q, Some(wire)),
            PdsMessage::Response(r) => {
                self.handle_response(now, from, me_intended, r.clone(), Some(wire))
            }
        }
    }

    /// Periodic driver: round control for discovery, phase transitions and
    /// recovery for retrieval. Call at the configured poll cadence while a
    /// session is live ([`PdsEngine::has_live_session`]); once every
    /// session has finished it returns nothing and changes nothing.
    pub fn poll(&mut self, now: SimTime) -> Vec<Outgoing> {
        let mut out = self.poll_discovery(now);
        out.extend(self.poll_retrieval(now));
        out
    }

    /// Whether a discovery or retrieval session of this node's is
    /// unfinished, i.e. whether [`PdsEngine::poll`] has anything to drive.
    #[must_use]
    pub fn has_live_session(&self) -> bool {
        self.discovery.as_ref().is_some_and(|d| !d.is_finished())
            || self.retrieval.as_ref().is_some_and(|r| !r.is_finished())
    }

    /// The `SessionStarted` event of each session opened since the last
    /// call. Call after every `start_*`, traced or not: each start is
    /// handed out once.
    pub(crate) fn untraced_starts(&mut self) -> impl Iterator<Item = (Phase, TraceKind)> {
        let discovery = self.discovery.as_mut().and_then(|s| s.trace.take_start());
        let retrieval = self.retrieval.as_mut().and_then(|s| s.trace.take_start());
        discovery.into_iter().chain(retrieval)
    }

    /// The `SessionFinished` event of each session that has finished
    /// since the last call, discovery first. Call only while a trace sink
    /// listens: each finish is handed out once.
    pub(crate) fn untraced_finishes(&mut self) -> impl Iterator<Item = (Phase, TraceKind)> {
        let discovery = self.discovery.as_mut().and_then(|s| {
            let r = s.report();
            let items = r.entries as u64;
            s.trace
                .take_finish(r.finished_at, r.latency, r.rounds, items)
        });
        let retrieval = self.retrieval.as_mut().and_then(|s| {
            let r = s.report();
            let items = u64::from(r.received_chunks);
            s.trace
                .take_finish(r.finished_at, r.latency, r.rounds, items)
        });
        discovery.into_iter().chain(retrieval)
    }

    /// Whether [`PdsEngine::gc`] could remove anything, now or once it
    /// expires: lingering queries, CDI routes, recent response ids,
    /// pending-chunk marks or expiring cached metadata. O(1).
    #[must_use]
    pub fn holds_expiring_state(&self) -> bool {
        !self.lqt.is_empty()
            || !self.cdi.is_empty()
            || !self.recent_responses.seen.is_empty()
            || !self.pending_chunk.is_empty()
            || self.store.expiring_len() > 0
    }

    /// Garbage collection: expired metadata, lingering queries, CDI routes
    /// and stale response-dedup state. Call periodically while
    /// [`PdsEngine::holds_expiring_state`]; otherwise it is a no-op.
    pub fn gc(&mut self, now: SimTime) {
        self.store.gc(now);
        self.lqt.gc(now);
        self.cdi.gc(now);
        self.recent_responses.gc(now);
        self.pending_chunk.retain(|_, &mut t| t > now);
    }

    // ---- shared plumbing --------------------------------------------------

    /// Handles a query, given the `wire` bytes it was decoded from if it
    /// came off the air (see [`PdsEngine::handle_received`]).
    fn handle_query(
        &mut self,
        now: SimTime,
        from: NodeId,
        me_intended: bool,
        q: &QueryMessage,
        wire: Option<&Bytes>,
    ) -> Vec<Outgoing> {
        if self.query_is_redundant(now, q.id, q.expires_at) {
            return Vec::new();
        }
        // A query lingers here, upstream its sender, before its handler
        // runs (a chunk query only at an intended receiver, see
        // `handle_chunk_query`). Its Bloom filter is a view of the bytes it
        // arrived in, shared by every receiver of the message.
        if me_intended || !matches!(q.kind, QueryKind::Chunks { .. }) {
            self.lqt
                .insert_received(q, q.sender, wire.and_then(|w| q.bloom_in(w)));
        }
        match &q.kind {
            QueryKind::Metadata | QueryKind::SmallData => {
                self.handle_discovery_query(now, me_intended, q)
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
        wire: Option<&Bytes>,
    ) -> Vec<Outgoing> {
        if self.response_is_redundant(r.id) {
            return Vec::new();
        }
        self.recent_responses.insert(r.id, now);
        match r.kind {
            ResponseKind::Metadata { entries } => {
                self.handle_discovery_response(now, me_intended, r.id, entries)
            }
            ResponseKind::SmallData { items } => {
                self.handle_discovery_response(now, me_intended, r.id, items)
            }
            ResponseKind::Cdi { item, pairs } => {
                self.handle_cdi_response(now, from, me_intended, &item, &pairs)
            }
            ResponseKind::Chunk { .. } => {
                self.handle_chunk_response(now, from, me_intended, r, wire)
            }
        }
    }

    pub(crate) fn new_query_id(&mut self) -> QueryId {
        QueryId(self.rng.next_u64())
    }

    pub(crate) fn new_response_id(&mut self) -> ResponseId {
        ResponseId(self.rng.next_u64())
    }

    /// Takes a message the transport finally failed to deliver, every
    /// resend spent. A chunk sub-query's chunks are then in flight no
    /// more, so their outstanding-sub-query marks are cleared and
    /// re-division is no longer suppressed.
    pub(crate) fn on_send_failed(&mut self, message: &PdsMessage) {
        if let PdsMessage::Query(QueryMessage {
            kind: QueryKind::Chunks { item, chunks },
            ..
        }) = message
        {
            for c in chunks {
                self.pending_chunk.remove(&(item.clone(), *c));
            }
        }
    }

    /// One of the consumer's own flooded queries — a discovery round, a
    /// CDI query or an MDR round — under a fresh id, sent by `session`.
    ///
    /// The query is registered in the LQT with upstream = self, so echoed
    /// copies relayed back by neighbors are recognized and discarded.
    /// Without this, the originator would treat its own query as foreign,
    /// create a lingering entry pointing outward, and advertise routes
    /// *back toward itself* — poisoning CDI distance vectors.
    pub(crate) fn own_query(
        &mut self,
        session: u32,
        now: SimTime,
        kind: QueryKind,
        filter: QueryFilter,
        bloom: Option<Vec<u8>>,
        round: u32,
    ) -> Outgoing {
        let query = QueryMessage {
            id: self.new_query_id(),
            kind,
            sender: self.id,
            expires_at: now + QUERY_LIFETIME,
            filter,
            bloom,
            round,
            ttl_hops: self.config.query_hop_limit.unwrap_or(0),
        };
        self.lqt.insert(&query, self.id);
        Outgoing {
            session,
            ..Outgoing::query(query, Vec::new())
        }
    }

    /// Forwards a flooded query: sender rewritten to this node, Bloom filter
    /// refreshed from the (possibly rewritten) lingering copy (§III-B-2).
    /// Returns `None` when the query's hop budget is spent.
    pub(crate) fn forward_flood(&self, q: &QueryMessage) -> Option<Outgoing> {
        if q.ttl_hops == 1 {
            return None; // budget spent at this hop
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
