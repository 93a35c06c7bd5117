//! Peer Data Retrieval: two-phase retrieval of large chunked items (§IV).
//!
//! Phase 1 floods a CDI query and collects Chunk Distribution Information —
//! per-chunk distance-vector routes built on demand. Phase 2 divides the
//! wanted chunks among nearest neighbors (min-max assignment), sends each a
//! directed chunk query, and lets every en-route node serve what it holds
//! and recursively divide the remainder. A watchdog re-requests chunks that
//! stall and re-floods CDI queries when routes are missing.

use super::{Outgoing, PdsEngine, MAX_CHUNK_QUERY_DEPTH};
use crate::assign::min_max_assign;
use crate::config::{
    CDI_TTL, METADATA_TTL, PHASE1_MIN, PHASE1_TIMEOUT, QUERY_LIFETIME, WATCHDOG, WATCHDOG_PER_CHUNK,
};
use crate::descriptor::DataDescriptor;
use crate::ids::{ChunkId, ItemName};
use crate::message::{QueryKind, QueryMessage, ResponseKind, ResponseMessage};
use crate::predicate::QueryFilter;
use crate::sessions::{RetrievalMode, RetrievalPhase, RetrievalSession, SessionTrace};
use crate::{NodeId, SimTime};
use bytes::Bytes;
use pds_det::{BitSet, DetMap};
use pds_obs::Phase;
use std::collections::BTreeSet;

impl PdsEngine {
    // ---- consumer API -----------------------------------------------------

    /// Starts a two-phase PDR retrieval of the large item `descriptor`
    /// describes. Returns the phase-1 CDI query flood.
    ///
    /// A descriptor without `name` or `total_chunks` attributes cannot
    /// drive a chunked retrieval; such a request is refused (no messages,
    /// no session) and asserts in debug builds.
    pub fn start_retrieval(&mut self, now: SimTime, descriptor: DataDescriptor) -> Vec<Outgoing> {
        match self.open_retrieval(now, descriptor.clone(), RetrievalMode::Pdr) {
            Some(_) => vec![self.cdi_query(now, descriptor)],
            None => Vec::new(),
        }
    }

    /// Opens the consumer's retrieval session for `descriptor`'s item, PDR
    /// or MDR alike, counting the chunks the store already holds. Returns
    /// the item and its chunk count while chunks remain to fetch; `None`
    /// when everything is held (the session is finished at once) or when
    /// the descriptor lacks `name` or `total_chunks` (no session; asserts
    /// in debug builds).
    pub(super) fn open_retrieval(
        &mut self,
        now: SimTime,
        descriptor: DataDescriptor,
        mode: RetrievalMode,
    ) -> Option<(ItemName, u32)> {
        let (Some(item), Some(total)) = (descriptor.item_name(), descriptor.total_chunks()) else {
            debug_assert!(
                false,
                "retrieval descriptor must carry `name` and `total_chunks`"
            );
            return None;
        };
        let mut received = BitSet::new(total);
        for c in self.store.chunk_ids(&item) {
            received.insert(c.0);
        }
        let done = received.is_full();
        let mdr = matches!(mode, RetrievalMode::Mdr(_));
        let phase = match (done, mdr) {
            (true, _) => RetrievalPhase::Done,
            (false, false) => RetrievalPhase::CdiCollection,
            (false, true) => RetrievalPhase::ChunkRetrieval,
        };
        let trace_phase = if mdr { Phase::Mdr } else { Phase::Pdr };
        self.retrieval = Some(Box::new(RetrievalSession {
            item: item.clone(),
            descriptor,
            total_chunks: total,
            received,
            bytes_received: 0,
            phase,
            started_at: now,
            phase_started_at: now,
            last_progress_at: now,
            finished_at: done.then_some(now),
            recovery_attempts: 0,
            // MDR's first round goes out with the session.
            rounds_sent: u32::from(mdr),
            mode,
            transitions: vec![(now, phase)],
            trace: SessionTrace::open(&mut self.last_session, trace_phase),
        }));
        (!done).then_some((item, total))
    }

    fn cdi_query(&mut self, now: SimTime, descriptor: DataDescriptor) -> Outgoing {
        let kind = QueryKind::Cdi { descriptor };
        let session = self.retrieval_trace();
        self.own_query(session, now, kind, QueryFilter::match_all(), None, 0)
    }

    /// The trace id of the consumer's retrieval session (0 = none).
    pub(super) fn retrieval_trace(&self) -> u32 {
        self.retrieval.as_ref().map_or(0, |s| s.trace.id)
    }

    /// Phase transitions, chunk-query waves and recovery (consumer side).
    pub(crate) fn poll_retrieval(&mut self, now: SimTime) -> Vec<Outgoing> {
        let Some(session) = &self.retrieval else {
            return Vec::new();
        };
        match (&session.mode, session.phase) {
            (_, RetrievalPhase::Done) => Vec::new(),
            (RetrievalMode::Mdr(_), _) => self.poll_mdr(now),
            (RetrievalMode::Pdr, RetrievalPhase::CdiCollection) => self.poll_cdi_phase(now),
            (RetrievalMode::Pdr, RetrievalPhase::ChunkRetrieval) => self.poll_chunk_phase(now),
        }
    }

    fn poll_cdi_phase(&mut self, now: SimTime) -> Vec<Outgoing> {
        let Some(session) = self.retrieval.as_ref() else {
            return Vec::new();
        };
        let elapsed = now.since(session.phase_started_at);
        let item = session.item.clone();
        let descriptor = session.descriptor.clone();
        let have = session.received.len();
        // Held chunks plus those with a route; an id outside the item is
        // no coverage.
        let mut covered = session.received.clone();
        for c in self.cdi.covered_chunks(&item, now) {
            covered.insert(c.0);
        }
        if (covered.is_full() && elapsed >= PHASE1_MIN) || elapsed >= PHASE1_TIMEOUT {
            if covered.len() > have {
                // Enough routes: move to phase 2 and send the first wave.
                if let Some(s) = &mut self.retrieval {
                    s.phase = RetrievalPhase::ChunkRetrieval;
                    s.phase_started_at = now;
                    s.rounds_sent += 1;
                    s.transitions.push((now, RetrievalPhase::ChunkRetrieval));
                }
                return self.chunk_query_wave(now, &item, true);
            }
            // No routes at all: re-flood the CDI query (recovery) or give up.
            let Some(s) = self.retrieval.as_mut() else {
                return Vec::new();
            };
            s.phase_started_at = now;
            if !s.try_recover() {
                self.finish_retrieval(now);
                return Vec::new();
            }
            return vec![self.cdi_query(now, descriptor)];
        }
        Vec::new()
    }

    fn poll_chunk_phase(&mut self, now: SimTime) -> Vec<Outgoing> {
        let (missing, stalled, descriptor, item) = {
            let Some(s) = self.retrieval.as_ref() else {
                return Vec::new();
            };
            let missing = s.missing();
            let threshold = WATCHDOG + WATCHDOG_PER_CHUNK.saturating_mul(missing.len() as u64);
            let stalled = now.since(s.last_progress_at.max(s.phase_started_at)) >= threshold;
            (missing, stalled, s.descriptor.clone(), s.item.clone())
        };
        if missing.is_empty() {
            self.finish_retrieval(now);
            return Vec::new();
        }
        if !stalled {
            return Vec::new();
        }
        // Recovery: re-request missing chunks; if some have no routes,
        // also re-flood the CDI query.
        let Some(s) = self.retrieval.as_mut() else {
            return Vec::new();
        };
        s.last_progress_at = now;
        s.rounds_sent += 1;
        if !s.try_recover() {
            self.finish_retrieval(now);
            return Vec::new();
        }
        // Recovery re-requests only chunks with no recent outstanding
        // sub-query; chunks legitimately in flight are left alone.
        let mut out = self.chunk_query_wave(now, &item, false);
        let unroutable = missing
            .iter()
            .any(|&c| self.cdi.candidates(&item, c, now).is_empty());
        if unroutable {
            out.push(self.cdi_query(now, descriptor));
        }
        out
    }

    /// Builds the consumer's directed chunk queries for all missing chunks
    /// with known routes, balancing load with the min-max heuristic.
    fn chunk_query_wave(&mut self, now: SimTime, item: &ItemName, force: bool) -> Vec<Outgoing> {
        let Some(session) = self.retrieval.as_ref() else {
            return Vec::new();
        };
        let (missing, trace) = (session.missing(), session.trace.id);
        // Chunk queries must outlive the (serialized) transfer they route:
        // scale the lingering horizon with the amount requested.
        let expires =
            now + QUERY_LIFETIME + WATCHDOG_PER_CHUNK.saturating_mul(missing.len() as u64 * 2);
        let mut out = self.divide_chunks(now, item, &missing, None, expires, 0, force);
        // Unlike en-route re-division, the wave is the session's own.
        for query in &mut out {
            query.session = trace;
        }
        out
    }

    /// The recursive query division shared by the consumer and en-route
    /// nodes: assign chunks to neighbors per CDI, one directed sub-query per
    /// neighbor (§IV-B). `force` (only the consumer's first phase-2 wave)
    /// requests chunks even when a sub-query is already outstanding;
    /// recovery waves and en-route division skip them — the in-flight copy
    /// will satisfy every lingering upstream.
    #[allow(clippy::too_many_arguments)] // the division context is irreducible
    fn divide_chunks(
        &mut self,
        now: SimTime,
        item: &ItemName,
        chunks: &[ChunkId],
        exclude: Option<NodeId>,
        expires_at: SimTime,
        depth: u32,
        force: bool,
    ) -> Vec<Outgoing> {
        if depth > MAX_CHUNK_QUERY_DEPTH {
            return Vec::new();
        }
        let me = self.id;
        let candidates: Vec<(ChunkId, Vec<(NodeId, u32)>)> = chunks
            .iter()
            .filter(|&&c| {
                force
                    || self
                        .pending_chunk
                        .get(&(item.clone(), c))
                        .is_none_or(|&e| e <= now)
            })
            .map(|&c| {
                let cands: Vec<(NodeId, u32)> = self
                    .cdi
                    .candidates(item, c, now)
                    .into_iter()
                    .filter(|&(n, _)| Some(n) != exclude && n != me)
                    .collect();
                (c, cands)
            })
            .collect();
        let plan = min_max_assign(&candidates, self.config.assign);
        let mut out = Vec::new();
        for (neighbor, assigned) in plan {
            for &c in &assigned {
                self.pending_chunk
                    .insert((item.clone(), c), now + super::PENDING_CHUNK_HORIZON);
            }
            let id = self.new_query_id();
            out.push(Outgoing::query(
                QueryMessage {
                    id,
                    kind: QueryKind::Chunks {
                        item: item.clone(),
                        chunks: assigned,
                    },
                    sender: me,
                    expires_at,
                    filter: QueryFilter::match_all(),
                    bloom: None,
                    round: depth,
                    ttl_hops: 0,
                },
                vec![neighbor],
            ));
        }
        out
    }

    pub(super) fn finish_retrieval(&mut self, now: SimTime) {
        if let Some(s) = &mut self.retrieval {
            if s.phase != RetrievalPhase::Done {
                s.transitions.push((now, RetrievalPhase::Done));
            }
            s.phase = RetrievalPhase::Done;
            if s.finished_at.is_none() {
                s.finished_at = Some(now);
            }
        }
    }

    // ---- CDI query / response (phase 1) -------------------------------------

    /// A node receiving a CDI query responds if it holds chunks or unexpired
    /// CDI entries of the item, then floods the query on (§IV-A).
    pub(crate) fn handle_cdi_query(
        &mut self,
        now: SimTime,
        _from: NodeId,
        me_intended: bool,
        q: &QueryMessage,
    ) -> Vec<Outgoing> {
        let QueryKind::Cdi { descriptor } = &q.kind else {
            return Vec::new();
        };
        let Some(item) = descriptor.item_name() else {
            return Vec::new();
        };
        // Learning the item's existence from the query itself is free
        // metadata.
        self.store
            .cache_metadata(descriptor.clone(), now + METADATA_TTL);

        let mut out = Vec::new();
        let pairs = self.cdi_summary_with_local(&item, now);
        if !pairs.is_empty() {
            let send: Vec<(ChunkId, u32)> = match self.lqt.get_mut(q.id) {
                Some(lingering) => {
                    let mut kept = Vec::new();
                    for (c, h) in pairs {
                        if lingering.reported_cdi.get(&c).is_none_or(|&r| h < r) {
                            lingering.reported_cdi.insert(c, h);
                            kept.push((c, h));
                        }
                    }
                    kept
                }
                None => Vec::new(),
            };
            if !send.is_empty() {
                let r = ResponseMessage {
                    id: self.new_response_id(),
                    sender: self.id,
                    kind: ResponseKind::Cdi { item, pairs: send },
                };
                out.push(Outgoing::response(r, vec![q.sender], true).answering(q.id));
            }
        }
        if me_intended {
            out.extend(self.forward_flood(q));
        }
        out
    }

    /// Per-chunk minimum distances as this node sees them: held chunks at
    /// hop 0, otherwise the best unexpired CDI route.
    fn cdi_summary_with_local(&self, item: &ItemName, now: SimTime) -> Vec<(ChunkId, u32)> {
        let mut best: DetMap<ChunkId, u32> = self.cdi.summary(item, now).into_iter().collect();
        for c in self.store.chunk_ids(item) {
            best.insert(c, 0);
        }
        let mut v: Vec<(ChunkId, u32)> = best.into_iter().collect();
        v.sort_unstable_by_key(|&(c, _)| c);
        v
    }

    /// The chunk count of `item` as this node knows it: from its own
    /// retrieval session, its stored metadata, or a lingering CDI query's
    /// descriptor, in that order.
    fn known_total_chunks(&self, item: &ItemName) -> Option<u32> {
        if let Some(s) = self.retrieval.as_ref().filter(|s| &s.item == item) {
            return Some(s.total_chunks);
        }
        if let Some(n) = self
            .store
            .item_descriptor_by_name(item)
            .and_then(DataDescriptor::total_chunks)
        {
            return Some(n);
        }
        self.lqt.iter().find_map(|l| match &l.query.kind {
            QueryKind::Cdi { descriptor } if descriptor.item_name().as_ref() == Some(item) => {
                descriptor.total_chunks()
            }
            _ => None,
        })
    }

    /// Handles a CDI response: update routes (hop+1 via the transmitter),
    /// then relay improvements toward matching lingering CDI queries
    /// (§IV-A). A pair naming a chunk outside the item, when the node
    /// knows the item's chunk count, is no route at all and is dropped.
    pub(crate) fn handle_cdi_response(
        &mut self,
        now: SimTime,
        from: NodeId,
        me_intended: bool,
        item: &ItemName,
        pairs: &[(ChunkId, u32)],
    ) -> Vec<Outgoing> {
        let ttl = CDI_TTL;
        let total = self.known_total_chunks(item).unwrap_or(u32::MAX);
        for &(c, h) in pairs.iter().filter(|(c, _)| c.0 < total) {
            self.cdi
                .observe(item, c, from, h.saturating_add(1), now + ttl);
        }
        if !me_intended {
            return Vec::new();
        }
        let me = self.id;
        let summary = self.cdi_summary_with_local(item, now);
        let mut sends: Vec<(NodeId, Vec<(ChunkId, u32)>)> = Vec::new();
        {
            let matching = self.lqt.match_cdi(item, now);
            let mut per_upstream: DetMap<NodeId, Vec<(ChunkId, u32)>> = DetMap::default();
            for l in matching {
                if l.upstream == me {
                    continue;
                }
                let mut improved = Vec::new();
                for &(c, h) in &summary {
                    if l.reported_cdi.get(&c).is_none_or(|&r| h < r) {
                        l.reported_cdi.insert(c, h);
                        improved.push((c, h));
                    }
                }
                if !improved.is_empty() {
                    per_upstream.entry(l.upstream).or_default().extend(improved);
                }
            }
            for (upstream, mut pairs) in per_upstream {
                pairs.sort_unstable_by_key(|&(c, _)| c);
                pairs.dedup();
                sends.push((upstream, pairs));
            }
        }
        sends.sort_unstable_by_key(|&(n, _)| n);
        let mut out = Vec::new();
        for (upstream, pairs) in sends {
            let r = ResponseMessage {
                id: self.new_response_id(),
                sender: me,
                kind: ResponseKind::Cdi {
                    item: item.clone(),
                    pairs,
                },
            };
            out.push(Outgoing::response(r, vec![upstream], false));
        }
        out
    }

    // ---- chunk query / response (phase 2) -----------------------------------

    /// Handles a directed chunk query: serve held chunks, recursively divide
    /// the rest among nearest neighbors (§IV-B). Only the intended receiver
    /// holds the lingering routing entry ([`PdsEngine::handle_query`]
    /// makes none elsewhere) — if overhearers did too, a chunk
    /// passing them on its real delivery path would be relayed to upstreams
    /// that already received it on their own path, multiplying every chunk
    /// transmission by the overheard-branch count.
    pub(crate) fn handle_chunk_query(
        &mut self,
        now: SimTime,
        _from: NodeId,
        me_intended: bool,
        q: &QueryMessage,
    ) -> Vec<Outgoing> {
        if !me_intended {
            return Vec::new();
        }
        let QueryKind::Chunks { item, chunks } = &q.kind else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut remaining = Vec::new();
        let item_descriptor = self.store.chunk_descriptor(item);
        for &c in chunks {
            if let Some(data) = self.store.fetch_chunk(item, c) {
                if let Some(l) = self.lqt.get_mut(q.id) {
                    l.remaining_chunks.remove(c.0);
                }
                let r = ResponseMessage {
                    id: self.new_response_id(),
                    sender: self.id,
                    kind: ResponseKind::Chunk {
                        descriptor: item_descriptor.clone(),
                        chunk: c,
                        data,
                    },
                };
                out.push(Outgoing::response(r, vec![q.sender], false).answering(q.id));
            } else {
                remaining.push(c);
            }
        }
        if !remaining.is_empty() {
            out.extend(self.divide_chunks(
                now,
                item,
                &remaining,
                Some(q.sender),
                q.expires_at,
                q.round + 1,
                false,
            ));
        }
        out
    }

    /// Handles a chunk response: cache the chunk (every receiver, §III-A-2's
    /// opportunistic caching applied to data), update CDI, feed our own
    /// retrieval, and relay toward lingering queries that still want it.
    ///
    /// The relay is `r` itself, unchanged: its id, its `sender` (the node
    /// that served it) and its chunk. It carries `wire`, the bytes `r`
    /// arrived as, so every hop sends the one buffer its server encoded.
    pub(crate) fn handle_chunk_response(
        &mut self,
        now: SimTime,
        from: NodeId,
        me_intended: bool,
        r: ResponseMessage,
        wire: Option<&Bytes>,
    ) -> Vec<Outgoing> {
        let ResponseKind::Chunk {
            descriptor,
            chunk,
            data,
        } = &r.kind
        else {
            return Vec::new();
        };
        let chunk = *chunk;
        // A chunk outside the item, as its descriptor states it, is no
        // chunk at all: dropped before it is cached, routed or relayed.
        if descriptor.total_chunks().is_some_and(|n| chunk.0 >= n) {
            return Vec::new();
        }
        let item_descriptor = descriptor.item_descriptor();
        let Some(item) = item_descriptor.item_name() else {
            return Vec::new();
        };
        // Opportunistic caching: we now hold the chunk; the transmitter
        // holds it one hop away.
        self.store
            .cache_chunk(&item_descriptor, chunk, data.clone());
        self.cdi.observe(&item, chunk, from, 1, now + CDI_TTL);
        self.pending_chunk.remove(&(item.clone(), chunk));

        // Feed our own retrieval session (intended or overheard alike).
        self.absorb_chunk(now, me_intended, &item, chunk, data.len() as u64);

        if !me_intended {
            return Vec::new();
        }
        // Relay toward lingering queries that still owe this chunk
        // upstream; remove it from their remaining sets (or insert into MDR
        // blooms) so later copies are not re-relayed.
        let me = self.id;
        let mut receivers: BTreeSet<NodeId> = BTreeSet::new();
        {
            let key = crate::lqt::chunk_key(&item, chunk);
            for l in self.lqt.match_chunk(&item, chunk, now) {
                if l.upstream == me {
                    continue;
                }
                receivers.insert(l.upstream);
                match &l.query.kind {
                    QueryKind::Chunks { .. } => {
                        l.remaining_chunks.remove(chunk.0);
                    }
                    QueryKind::MdrChunks { .. } => {
                        // MDR's redundancy detection is intrinsic to the
                        // baseline (§VI-B-3), independent of the PDD
                        // rewrite ablation.
                        l.bloom_insert(&key);
                    }
                    _ => {}
                }
            }
        }
        if receivers.is_empty() {
            return Vec::new();
        }
        vec![Outgoing {
            wire: wire.cloned(),
            ..Outgoing::response(r, receivers.into_iter().collect(), false)
        }]
    }

    pub(crate) fn absorb_chunk(
        &mut self,
        now: SimTime,
        me_intended: bool,
        item: &ItemName,
        chunk: ChunkId,
        bytes: u64,
    ) {
        let Some(s) = &mut self.retrieval else {
            return;
        };
        if &s.item != item || s.is_finished() {
            return;
        }
        let new = s.received.insert(chunk.0);
        if new {
            s.bytes_received += bytes;
            s.last_progress_at = now;
        }
        if let RetrievalMode::Mdr(ctrl) = &mut s.mode {
            if me_intended {
                ctrl.on_response(now, u64::from(new));
            }
        }
    }
}
