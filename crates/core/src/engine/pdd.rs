//! Peer Data Discovery: Algorithm 1 (query processing) and Algorithm 2
//! (response processing) with mixedcast and en-route rewriting (§III), plus
//! the small-data retrieval flow that shares them (§IV). Both entry kinds
//! run through the same code, generic over [`DiscoveryEntry`].

use super::{Outgoing, PdsEngine};
use crate::config::{BLOOM_FPP, METADATA_TTL};
use crate::descriptor::DataDescriptor;
use crate::ids::ResponseId;
use crate::lqt::Lingering;
use crate::message::{QueryKind, QueryMessage, ResponseKind, ResponseMessage};
use crate::predicate::QueryFilter;
use crate::rounds::{RoundController, RoundDecision};
use crate::sessions::{DiscoverySession, SessionTrace};
use crate::store::DataStore;
use crate::{NodeId, SimTime};
use bytes::Bytes;
use pds_bloom::{BloomFilter, BloomParams};
use pds_obs::Phase;
use std::collections::BTreeSet;

/// One kind of PDD entry: a bare descriptor for metadata discovery, a
/// descriptor with its payload for small-data retrieval (§IV: "the latter
/// follows almost the same process as metadata discovery").
pub(super) trait DiscoveryEntry: Clone {
    /// Whether these are small items, asked for by
    /// [`QueryKind::SmallData`] rather than [`QueryKind::Metadata`].
    const SMALL_DATA: bool;

    /// The entry's descriptor: what filters match and Bloom filters key.
    fn descriptor(&self) -> &DataDescriptor;

    /// Caches a received entry in the store (§III-A-2).
    fn cache(&self, store: &mut DataStore, expires_at: SimTime);

    /// Wraps entries as a response body.
    fn response(entries: Vec<Self>) -> ResponseKind;

    /// The entry this node can serve for one of its matching descriptors:
    /// any metadata entry, but a small item only if its payload is held.
    fn local(store: &DataStore, descriptor: &DataDescriptor) -> Option<Self>;

    /// Counts the entry's payload, if it has one, as used for LRU
    /// eviction: it was just served.
    fn served(&self, _store: &mut DataStore) {}
}

impl DiscoveryEntry for DataDescriptor {
    const SMALL_DATA: bool = false;

    fn descriptor(&self) -> &DataDescriptor {
        self
    }

    fn cache(&self, store: &mut DataStore, expires_at: SimTime) {
        store.cache_metadata(self.clone(), expires_at);
    }

    fn response(entries: Vec<Self>) -> ResponseKind {
        ResponseKind::Metadata { entries }
    }

    fn local(_store: &DataStore, descriptor: &DataDescriptor) -> Option<Self> {
        Some(descriptor.clone())
    }
}

impl DiscoveryEntry for (DataDescriptor, Bytes) {
    const SMALL_DATA: bool = true;

    fn descriptor(&self) -> &DataDescriptor {
        &self.0
    }

    fn cache(&self, store: &mut DataStore, expires_at: SimTime) {
        store.cache_metadata(self.0.clone(), expires_at);
        store.cache_small_payload(&self.0, self.1.clone());
    }

    fn response(items: Vec<Self>) -> ResponseKind {
        ResponseKind::SmallData { items }
    }

    fn local(store: &DataStore, descriptor: &DataDescriptor) -> Option<Self> {
        let payload = store.small_payload(descriptor)?;
        Some((descriptor.clone(), payload))
    }

    fn served(&self, store: &mut DataStore) {
        store.touch_small_payload(&self.0);
    }
}

impl PdsEngine {
    // ---- consumer API -----------------------------------------------------

    /// Starts a metadata discovery scoped by `filter` (PDD). Returns the
    /// first flooded query. Progress is driven by [`PdsEngine::poll`];
    /// results accumulate in [`PdsEngine::discovery`].
    pub fn start_discovery(&mut self, now: SimTime, filter: QueryFilter) -> Vec<Outgoing> {
        self.start_discovery_inner::<DataDescriptor>(now, filter)
    }

    /// Starts a small-data retrieval: like discovery, but responses carry
    /// payloads, which land in the data store (§IV).
    pub fn start_small_data_retrieval(
        &mut self,
        now: SimTime,
        filter: QueryFilter,
    ) -> Vec<Outgoing> {
        self.start_discovery_inner::<(DataDescriptor, Bytes)>(now, filter)
    }

    fn start_discovery_inner<E: DiscoveryEntry>(
        &mut self,
        now: SimTime,
        filter: QueryFilter,
    ) -> Vec<Outgoing> {
        // The consumer starts out holding what it could itself serve: an
        // overheard descriptor is not a small item until its payload is.
        // Sized for every match, all of which a metadata session keeps.
        let matched = self.store.match_metadata(&filter, now);
        let mut collected = pds_det::set_with_capacity(matched.len());
        collected.extend(
            matched
                .into_iter()
                .filter_map(|d| E::local(&self.store, d))
                .map(|e| e.descriptor().entry_key()),
        );
        self.discovery = Some(Box::new(DiscoverySession {
            filter,
            small_data: E::SMALL_DATA,
            collected,
            controller: RoundController::new(self.config.rounds, now),
            started_at: now,
            last_new_at: now,
            finished_at: None,
            round_log: vec![(now, 1)],
            trace: SessionTrace::open(&mut self.last_session, Phase::Pdd),
        }));
        self.flood_discovery_round(now)
    }

    /// Round control (§III-B-2): decides whether the round diminished and
    /// whether to start another.
    pub(crate) fn poll_discovery(&mut self, now: SimTime) -> Vec<Outgoing> {
        let Some(session) = &mut self.discovery else {
            return Vec::new();
        };
        if session.is_finished() {
            return Vec::new();
        }
        match session.controller.poll(now) {
            RoundDecision::Continue => Vec::new(),
            RoundDecision::Finished => {
                session.finished_at = Some(now);
                Vec::new()
            }
            RoundDecision::StartNextRound => {
                session.controller.start_next_round(now);
                let round = session.round_log.len() as u32 + 1;
                session.round_log.push((now, round));
                self.flood_discovery_round(now)
            }
        }
    }

    /// Floods the session's query for its current round under a fresh id.
    /// Round 0 asks for everything; later rounds carry a Bloom filter of
    /// everything collected (fresh hash family per round, §V-3).
    fn flood_discovery_round(&mut self, now: SimTime) -> Vec<Outgoing> {
        let Some(session) = &self.discovery else {
            return Vec::new();
        };
        let round = session.controller.round();
        let bloom = (round > 0).then(|| {
            let params = BloomParams::optimal(session.collected.len().max(2048) * 2, BLOOM_FPP);
            let mut bloom = BloomFilter::with_round(params, round);
            for key in &session.collected {
                bloom.insert(key.as_bytes());
            }
            bloom.encode()
        });
        let kind = if session.small_data {
            QueryKind::SmallData
        } else {
            QueryKind::Metadata
        };
        let (filter, trace) = (session.filter.clone(), session.trace.id);
        vec![self.own_query(trace, now, kind, filter, bloom, round)]
    }

    // ---- Algorithm 1: query processing -------------------------------------

    /// Handles a metadata / small-data query, once it lingers: DS lookup,
    /// receiver check, forwarding (§III-A-1).
    pub(crate) fn handle_discovery_query(
        &mut self,
        now: SimTime,
        me_intended: bool,
        q: &QueryMessage,
    ) -> Vec<Outgoing> {
        let mut out = Vec::new();
        out.extend(match q.kind {
            QueryKind::SmallData => self.respond_discovery::<(DataDescriptor, Bytes)>(now, q),
            _ => self.respond_discovery::<DataDescriptor>(now, q),
        });

        // Receiver check + forwarding: flooded queries are relayed by every
        // intended receiver (empty list = everyone), with the rewritten
        // Bloom filter.
        if me_intended {
            out.extend(self.forward_flood(q));
        }
        out
    }

    /// DS lookup: one response with the matching local entries the query's
    /// Bloom filter does not cover. With rewriting on, our lingering copy
    /// of the query records what we send, so downstream nodes do not
    /// repeat it.
    fn respond_discovery<E: DiscoveryEntry>(
        &mut self,
        now: SimTime,
        q: &QueryMessage,
    ) -> Option<Outgoing> {
        let rewrite = self.config.rewrite;
        let lingering = self.lqt.get_mut(q.id)?;
        let mut sent = Vec::new();
        for d in self.store.match_metadata(&q.filter, now) {
            let key = d.encode();
            if rewrite && lingering.bloom_contains(key) {
                continue;
            }
            let Some(entry) = E::local(&self.store, d) else {
                continue;
            };
            if rewrite {
                lingering.bloom_insert(key);
            }
            sent.push(entry);
        }
        if sent.is_empty() {
            return None;
        }
        sent.iter().for_each(|entry| entry.served(&mut self.store));
        let r = ResponseMessage {
            id: self.new_response_id(),
            sender: self.id,
            kind: E::response(sent),
        };
        Some(Outgoing::response(r, vec![q.sender], true).answering(q.id))
    }

    // ---- Algorithm 2: response processing ----------------------------------

    /// Handles a metadata / small-data response: caches every entry
    /// (§III-A-2), collects the ones our own session wants and, at an
    /// intended receiver, relays them toward the lingering queries that
    /// want them, rewriting those queries' Bloom filters with what was sent
    /// (§III-B-1, §III-B-2). Mixedcast sends one joint response carrying
    /// the union, each entry once; the ablation sends one per query.
    pub(super) fn handle_discovery_response<E: DiscoveryEntry>(
        &mut self,
        now: SimTime,
        me_intended: bool,
        id: ResponseId,
        entries: Vec<E>,
    ) -> Vec<Outgoing> {
        let expires_at = now + METADATA_TTL;
        for e in &entries {
            e.cache(&mut self.store, expires_at);
        }
        self.absorb_discovery(now, me_intended, &entries);
        if !me_intended {
            return Vec::new();
        }
        let me = self.id;
        let rewrite = self.config.rewrite;
        let one_shot = self.config.one_shot_queries;
        let mut matching: Vec<&mut Lingering> = self
            .lqt
            .match_discovery(E::SMALL_DATA, now)
            .into_iter()
            .filter(|l| l.upstream != me)
            .collect();
        if matching.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        if self.config.mixedcast {
            let mut receivers: BTreeSet<NodeId> = BTreeSet::new();
            let total = entries.len();
            let mut kept = Vec::new();
            let mut used = Vec::new();
            for entry in entries {
                let d = entry.descriptor();
                let key = d.encode();
                let mut needed = false;
                for l in matching.iter_mut() {
                    if !l.query.filter.matches(d) {
                        continue;
                    }
                    if rewrite && l.bloom_contains(key) {
                        continue;
                    }
                    needed = true;
                    receivers.insert(l.upstream);
                    used.push(l.query.id);
                    if rewrite {
                        l.bloom_insert(key);
                    }
                }
                if needed {
                    kept.push(entry);
                }
            }
            if !kept.is_empty() {
                // Same response id when the payload is unchanged (so
                // duplicate copies of the same relay dedup downstream);
                // fresh id when pruning rewrote the content.
                let id = if kept.len() == total {
                    id
                } else {
                    self.new_response_id()
                };
                out.push(Outgoing::response(
                    ResponseMessage {
                        id,
                        sender: me,
                        kind: E::response(kept),
                    },
                    receivers.into_iter().collect(),
                    false,
                ));
                if one_shot {
                    for qid in used {
                        self.lqt.remove(qid);
                    }
                }
            }
        } else {
            // Ablation: one response per matching lingering query.
            let mut responses = Vec::new();
            for l in matching.iter_mut() {
                let kept: Vec<E> = entries
                    .iter()
                    .filter(|e| l.query.filter.matches(e.descriptor()))
                    .filter(|e| !(rewrite && l.bloom_contains(e.descriptor().encode())))
                    .cloned()
                    .collect();
                if kept.is_empty() {
                    continue;
                }
                if rewrite {
                    for e in &kept {
                        l.bloom_insert(e.descriptor().encode());
                    }
                }
                responses.push((l.upstream, l.query.id, kept));
            }
            for (upstream, qid, kept) in responses {
                let id = self.new_response_id();
                out.push(
                    Outgoing::response(
                        ResponseMessage {
                            id,
                            sender: me,
                            kind: E::response(kept),
                        },
                        vec![upstream],
                        false,
                    )
                    .answering(qid),
                );
                if one_shot {
                    self.lqt.remove(qid);
                }
            }
        }
        out
    }

    /// Feeds received entries into our own discovery session, if one is
    /// running and the kind matches.
    fn absorb_discovery<E: DiscoveryEntry>(
        &mut self,
        now: SimTime,
        me_intended: bool,
        entries: &[E],
    ) {
        let Some(session) = &mut self.discovery else {
            return;
        };
        if session.small_data != E::SMALL_DATA || session.is_finished() {
            return;
        }
        let mut new_count = 0u64;
        for e in entries {
            let d = e.descriptor();
            if !session.filter.matches(d) {
                continue;
            }
            if session.collected.insert(d.entry_key()) {
                new_count += 1;
            }
        }
        if new_count > 0 {
            session.last_new_at = now;
        }
        // Round dynamics track the response stream addressed to us.
        if me_intended {
            session.controller.on_response(now, new_count);
        }
    }
}
