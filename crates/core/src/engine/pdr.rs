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
use crate::descriptor::DataDescriptor;
use crate::ids::{ChunkId, ItemName, ResponseId};
use crate::message::{QueryKind, QueryMessage, ResponseKind, ResponseMessage};
use crate::predicate::QueryFilter;
use crate::sessions::{RetrievalPhase, RetrievalSession};
use crate::{NodeId, SimTime};
use bytes::Bytes;
use pds_det::DetMap;
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
        let (Some(item), Some(total)) = (descriptor.item_name(), descriptor.total_chunks()) else {
            debug_assert!(
                false,
                "retrieval descriptor must carry `name` and `total_chunks`"
            );
            return Vec::new();
        };
        let received: BTreeSet<ChunkId> = self.store.chunk_ids(&item).into_iter().collect();
        let done = received.len() as u32 >= total;
        let phase = if done {
            RetrievalPhase::Done
        } else {
            RetrievalPhase::CdiCollection
        };
        let session = RetrievalSession {
            item: item.clone(),
            descriptor: descriptor.clone(),
            total_chunks: total,
            received,
            bytes_received: 0,
            phase,
            started_at: now,
            phase_started_at: now,
            last_progress_at: now,
            finished_at: if done { Some(now) } else { None },
            recovery_attempts: 0,
            mdr: false,
            controller: None,
            rounds_sent: 0,
            transitions: vec![(now, phase)],
        };
        self.retrieval = Some(session);
        if done {
            return Vec::new();
        }
        vec![self.cdi_query(now, descriptor)]
    }

    fn cdi_query(&mut self, now: SimTime, descriptor: DataDescriptor) -> Outgoing {
        let id = self.new_query_id();
        let query = QueryMessage {
            id,
            kind: QueryKind::Cdi { descriptor },
            sender: self.id,
            expires_at: now + self.config.query_lifetime,
            filter: QueryFilter::match_all(),
            bloom: None,
            round: 0,
            ttl_hops: self.config.query_hop_limit.unwrap_or(0),
        };
        self.register_own_query(&query);
        Outgoing::query(query, Vec::new()).for_session()
    }

    /// Phase transitions, chunk-query waves and recovery (consumer side).
    pub(crate) fn poll_retrieval(&mut self, now: SimTime) -> Vec<Outgoing> {
        let Some(session) = &self.retrieval else {
            return Vec::new();
        };
        if session.mdr {
            return self.poll_mdr(now);
        }
        match session.phase {
            RetrievalPhase::Done => Vec::new(),
            RetrievalPhase::CdiCollection => self.poll_cdi_phase(now),
            RetrievalPhase::ChunkRetrieval => self.poll_chunk_phase(now),
        }
    }

    fn poll_cdi_phase(&mut self, now: SimTime) -> Vec<Outgoing> {
        let p = self.config.pdr;
        let Some(session) = self.retrieval.as_ref() else {
            return Vec::new();
        };
        let elapsed = now.since(session.phase_started_at);
        let item = session.item.clone();
        let descriptor = session.descriptor.clone();
        let total = session.total_chunks;
        let have: BTreeSet<ChunkId> = session.received.clone();

        let covered: BTreeSet<ChunkId> = self
            .cdi
            .covered_chunks(&item, now)
            .into_iter()
            .chain(have.iter().copied())
            .collect();
        let full = covered.len() as u32 >= total;
        if (full && elapsed >= p.phase1_min) || elapsed >= p.phase1_timeout {
            if covered.len() as u32 > have.len() as u32 {
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
            let give_up = match self.retrieval.as_mut() {
                Some(s) => {
                    s.phase_started_at = now;
                    // Only an attempt that re-queries is counted.
                    let give_up = s.recovery_attempts >= p.max_recovery;
                    s.recovery_attempts += u32::from(!give_up);
                    give_up
                }
                None => return Vec::new(),
            };
            if give_up {
                self.finish_retrieval(now);
                return Vec::new();
            }
            return vec![self.cdi_query(now, descriptor)];
        }
        Vec::new()
    }

    fn poll_chunk_phase(&mut self, now: SimTime) -> Vec<Outgoing> {
        let p = self.config.pdr;
        let (missing, stalled, descriptor, item) = {
            let Some(s) = self.retrieval.as_ref() else {
                return Vec::new();
            };
            let missing: Vec<ChunkId> = (0..s.total_chunks)
                .map(ChunkId)
                .filter(|c| !s.received.contains(c))
                .collect();
            let threshold = p.watchdog + p.watchdog_per_chunk.saturating_mul(missing.len() as u64);
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
        let give_up = match self.retrieval.as_mut() {
            Some(s) => {
                s.last_progress_at = now;
                s.rounds_sent += 1;
                let give_up = s.recovery_attempts >= p.max_recovery;
                s.recovery_attempts += u32::from(!give_up);
                give_up
            }
            None => return Vec::new(),
        };
        if give_up {
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
        let missing: Vec<ChunkId> = (0..session.total_chunks)
            .map(ChunkId)
            .filter(|c| !session.received.contains(c))
            .collect();
        // Chunk queries must outlive the (serialized) transfer they route:
        // scale the lingering horizon with the amount requested.
        let expires = now
            + self.config.query_lifetime
            + self
                .config
                .pdr
                .watchdog_per_chunk
                .saturating_mul(missing.len() as u64 * 2);
        self.divide_chunks(now, item, &missing, None, expires, 0, force)
    }

    /// The recursive query division shared by the consumer and en-route
    /// nodes: assign chunks to neighbors per CDI, one directed sub-query per
    /// neighbor (§IV-B). `force` (consumer recovery) re-requests chunks even
    /// when a sub-query is already outstanding; en-route division skips
    /// them — the in-flight copy will satisfy every lingering upstream.
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
            let query = Outgoing::query(
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
            );
            // Depth-0 waves come from the consumer's own session; deeper
            // waves are en-route re-division at relays.
            out.push(if depth == 0 {
                query.for_session()
            } else {
                query
            });
        }
        out
    }

    fn finish_retrieval(&mut self, now: SimTime) {
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
        q: QueryMessage,
    ) -> Vec<Outgoing> {
        let QueryKind::Cdi { descriptor } = &q.kind else {
            return Vec::new();
        };
        self.lqt.insert(q.clone(), q.sender);
        let Some(item) = descriptor.item_name() else {
            return Vec::new();
        };
        // Learning the item's existence from the query itself is free
        // metadata.
        self.store
            .cache_metadata(descriptor.clone(), now + self.config.metadata_ttl);

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
            out.extend(self.forward_flood(&q));
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

    /// Handles a CDI response: update routes (hop+1 via the transmitter),
    /// then relay improvements toward matching lingering CDI queries
    /// (§IV-A).
    pub(crate) fn handle_cdi_response(
        &mut self,
        now: SimTime,
        from: NodeId,
        me_intended: bool,
        item: &ItemName,
        pairs: &[(ChunkId, u32)],
    ) -> Vec<Outgoing> {
        let ttl = self.config.cdi_ttl;
        for &(c, h) in pairs {
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
    /// creates the lingering routing entry — if overhearers did too, a chunk
    /// passing them on its real delivery path would be relayed to upstreams
    /// that already received it on their own path, multiplying every chunk
    /// transmission by the overheard-branch count.
    pub(crate) fn handle_chunk_query(
        &mut self,
        now: SimTime,
        _from: NodeId,
        me_intended: bool,
        q: QueryMessage,
    ) -> Vec<Outgoing> {
        if !me_intended {
            return Vec::new();
        }
        let QueryKind::Chunks { item, chunks } = &q.kind else {
            return Vec::new();
        };
        self.lqt.insert(q.clone(), q.sender);
        let mut out = Vec::new();
        let mut remaining = Vec::new();
        let item_descriptor = self
            .store
            .item_descriptor_by_name(item)
            .cloned()
            .unwrap_or_else(|| {
                DataDescriptor::builder()
                    .attr(crate::descriptor::attrs::NAME, item.as_str())
                    .build()
            });
        for &c in chunks {
            if let Some(data) = self.store.fetch_chunk(item, c) {
                if let Some(l) = self.lqt.get_mut(q.id) {
                    l.remaining_chunks.remove(&c);
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_chunk_response(
        &mut self,
        now: SimTime,
        from: NodeId,
        me_intended: bool,
        id: ResponseId,
        descriptor: DataDescriptor,
        chunk: ChunkId,
        data: Bytes,
    ) -> Vec<Outgoing> {
        let item_descriptor = descriptor.item_descriptor();
        let Some(item) = item_descriptor.item_name() else {
            return Vec::new();
        };
        // Opportunistic caching: we now hold the chunk; the transmitter
        // holds it one hop away.
        self.store
            .cache_chunk(&item_descriptor, chunk, data.clone());
        self.cdi
            .observe(&item, chunk, from, 1, now + self.config.cdi_ttl);
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
                        l.remaining_chunks.remove(&chunk);
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
        vec![Outgoing::response(
            ResponseMessage {
                id,
                sender: me,
                kind: ResponseKind::Chunk {
                    descriptor,
                    chunk,
                    data,
                },
            },
            receivers.into_iter().collect(),
            false,
        )]
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
        let new = s.received.insert(chunk);
        if new {
            s.bytes_received += bytes;
            s.last_progress_at = now;
        }
        if let Some(ctrl) = &mut s.controller {
            if me_intended {
                ctrl.on_response(now, u64::from(new));
            }
        }
    }
}
