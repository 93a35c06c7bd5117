//! Peer Data Discovery: Algorithm 1 (query processing) and Algorithm 2
//! (response processing) with mixedcast and en-route rewriting (§III), plus
//! the small-data retrieval flow that shares them (§IV).

use super::{Outgoing, PdsEngine};
use crate::descriptor::DataDescriptor;
use crate::ids::ResponseId;
use crate::lqt::Lingering;
use crate::message::{QueryKind, QueryMessage, ResponseKind, ResponseMessage};
use crate::predicate::QueryFilter;
use crate::rounds::{RoundController, RoundDecision};
use crate::sessions::DiscoverySession;
use crate::{NodeId, SimTime};
use bytes::Bytes;
use pds_bloom::{BloomFilter, BloomParams};
use pds_det::DetSet;
use std::collections::BTreeSet;

impl PdsEngine {
    // ---- consumer API -----------------------------------------------------

    /// Starts a metadata discovery scoped by `filter` (PDD). Returns the
    /// first flooded query. Progress is driven by [`PdsEngine::poll`];
    /// results accumulate in [`PdsEngine::discovery`].
    pub fn start_discovery(&mut self, now: SimTime, filter: QueryFilter) -> Vec<Outgoing> {
        self.start_discovery_inner(now, filter, false)
    }

    /// Starts a small-data retrieval: like discovery, but responses carry
    /// payloads, which land in the data store (§IV: "the latter follows
    /// almost the same process as metadata discovery").
    pub fn start_small_data_retrieval(
        &mut self,
        now: SimTime,
        filter: QueryFilter,
    ) -> Vec<Outgoing> {
        self.start_discovery_inner(now, filter, true)
    }

    fn start_discovery_inner(
        &mut self,
        now: SimTime,
        filter: QueryFilter,
        small_data: bool,
    ) -> Vec<Outgoing> {
        let id = self.new_query_id();
        // The consumer's own matching entries are known from the start.
        let collected: DetSet<_> = self
            .store
            .match_metadata(&filter, now)
            .into_iter()
            .map(DataDescriptor::entry_key)
            .collect();
        let session = DiscoverySession {
            filter: filter.clone(),
            small_data,
            collected,
            controller: RoundController::new(self.config.rounds, now),
            started_at: now,
            last_new_at: now,
            finished_at: None,
            current_query: id,
            rounds_sent: 1,
            round_log: vec![(now, 1)],
        };
        self.discovery = Some(session);
        let query = QueryMessage {
            id,
            kind: if small_data {
                QueryKind::SmallData
            } else {
                QueryKind::Metadata
            },
            sender: self.id,
            expires_at: now + self.config.query_lifetime,
            filter,
            bloom: None,
            round: 0,
            ttl_hops: self.config.query_hop_limit.unwrap_or(0),
        };
        self.register_own_query(&query);
        vec![Outgoing::query(query, Vec::new()).for_session()]
    }

    /// Round control (§III-B-2): decides whether the round diminished and
    /// whether to start another, and builds the next round's query with a
    /// Bloom filter of everything collected (fresh hash family per round,
    /// §V-3).
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
                session.rounds_sent += 1;
                session.round_log.push((now, session.rounds_sent));
                let round = session.controller.round();
                let params = BloomParams::optimal(
                    session.collected.len().max(2048) * 2,
                    self.config.bloom_fpp,
                );
                let mut bloom = BloomFilter::with_round(params, round);
                for key in &session.collected {
                    bloom.insert(key.as_bytes());
                }
                let filter = session.filter.clone();
                let small_data = session.small_data;
                let id = self.new_query_id();
                if let Some(s) = &mut self.discovery {
                    s.current_query = id;
                }
                let query = QueryMessage {
                    id,
                    kind: if small_data {
                        QueryKind::SmallData
                    } else {
                        QueryKind::Metadata
                    },
                    sender: self.id,
                    expires_at: now + self.config.query_lifetime,
                    filter,
                    bloom: Some(bloom.encode()),
                    round,
                    ttl_hops: self.config.query_hop_limit.unwrap_or(0),
                };
                self.register_own_query(&query);
                vec![Outgoing::query(query, Vec::new()).for_session()]
            }
        }
    }

    // ---- Algorithm 1: query processing -------------------------------------

    /// Handles a metadata / small-data query: LQT insert, DS lookup (respond
    /// with matching entries not covered by the query's Bloom filter,
    /// rewriting it), receiver check, forwarding (§III-A-1).
    pub(crate) fn handle_discovery_query(
        &mut self,
        now: SimTime,
        _from: NodeId,
        me_intended: bool,
        q: QueryMessage,
    ) -> Vec<Outgoing> {
        let small_data = matches!(q.kind, QueryKind::SmallData);
        self.lqt.insert(q.clone(), q.sender);
        let mut out = Vec::new();

        // DS lookup: respond with matching local entries, pruned by the
        // query's Bloom filter; rewrite the query (and our lingering copy)
        // with what we send so downstream nodes do not repeat it.
        let rewrite = self.config.rewrite;
        let mut sent_entries = Vec::new();
        let mut sent_items: Vec<(DataDescriptor, Bytes)> = Vec::new();
        if let Some(lingering) = self.lqt.get_mut(q.id) {
            for entry in self.store.match_metadata(&q.filter, now) {
                let key = entry.encode();
                if rewrite && lingering.bloom_contains(key) {
                    continue;
                }
                if small_data {
                    // Only items whose payload we hold can be served.
                    let Some(payload) = self.store.small_payload(entry) else {
                        continue;
                    };
                    if rewrite {
                        lingering.bloom_insert(key);
                    }
                    sent_items.push((entry.clone(), payload));
                } else {
                    if rewrite {
                        lingering.bloom_insert(key);
                    }
                    sent_entries.push(entry.clone());
                }
            }
        }
        if !sent_entries.is_empty() {
            let r = ResponseMessage {
                id: self.new_response_id(),
                sender: self.id,
                kind: ResponseKind::Metadata {
                    entries: sent_entries,
                },
            };
            out.push(Outgoing::response(r, vec![q.sender], true).answering(q.id));
        }
        if !sent_items.is_empty() {
            let r = ResponseMessage {
                id: self.new_response_id(),
                sender: self.id,
                kind: ResponseKind::SmallData { items: sent_items },
            };
            out.push(Outgoing::response(r, vec![q.sender], true).answering(q.id));
        }

        // Receiver check + forwarding: flooded queries are relayed by every
        // intended receiver (empty list = everyone), with the rewritten
        // Bloom filter.
        if me_intended {
            out.extend(self.forward_flood(&q));
        }
        out
    }

    // ---- Algorithm 2: response processing ----------------------------------

    pub(crate) fn handle_metadata_response(
        &mut self,
        now: SimTime,
        _from: NodeId,
        me_intended: bool,
        id: ResponseId,
        entries: Vec<DataDescriptor>,
    ) -> Vec<Outgoing> {
        // DS lookup: opportunistically cache every entry (§III-A-2).
        let ttl = self.config.metadata_ttl;
        for e in &entries {
            self.store.cache_metadata(e.clone(), now + ttl);
        }
        // Consumer absorption: collect entries matching our own discovery.
        self.absorb_discovery(now, me_intended, entries.iter(), false);

        // Receiver check: only intended receivers relay.
        if !me_intended {
            return Vec::new();
        }
        self.relay_metadata(now, id, entries)
    }

    pub(crate) fn handle_small_data_response(
        &mut self,
        now: SimTime,
        _from: NodeId,
        me_intended: bool,
        id: ResponseId,
        items: Vec<(DataDescriptor, Bytes)>,
    ) -> Vec<Outgoing> {
        let ttl = self.config.metadata_ttl;
        for (d, payload) in &items {
            self.store.cache_metadata(d.clone(), now + ttl);
            self.store.cache_small_payload(d, payload.clone());
        }
        self.absorb_discovery(now, me_intended, items.iter().map(|(d, _)| d), true);
        if !me_intended {
            return Vec::new();
        }

        // Mixedcast relay, with payloads attached.
        let me = self.id;
        let mixedcast = self.config.mixedcast;
        let rewrite = self.config.rewrite;
        let one_shot = self.config.one_shot_queries;
        let mut matching: Vec<&mut Lingering> = self
            .lqt
            .match_small_data(now)
            .into_iter()
            .filter(|l| l.upstream != me)
            .collect();
        if matching.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        if mixedcast {
            let mut receivers: BTreeSet<NodeId> = BTreeSet::new();
            let total = items.len();
            let mut kept = Vec::new();
            let mut used = Vec::new();
            for (d, payload) in items {
                let key = d.encode();
                let mut needed = false;
                for l in matching.iter_mut() {
                    if !l.query.filter.matches(&d) {
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
                    kept.push((d, payload));
                }
            }
            if !kept.is_empty() {
                let id = if kept.len() == total {
                    id
                } else {
                    self.new_response_id()
                };
                out.push(Outgoing::response(
                    ResponseMessage {
                        id,
                        sender: me,
                        kind: ResponseKind::SmallData { items: kept },
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
            let mut responses = Vec::new();
            for l in matching.iter_mut() {
                let kept: Vec<(DataDescriptor, Bytes)> = items
                    .iter()
                    .filter(|(d, _)| l.query.filter.matches(d))
                    .filter(|(d, _)| !(rewrite && l.bloom_contains(d.encode())))
                    .cloned()
                    .collect();
                if kept.is_empty() {
                    continue;
                }
                if rewrite {
                    for (d, _) in &kept {
                        l.bloom_insert(d.encode());
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
                            kind: ResponseKind::SmallData { items: kept },
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

    /// The mixedcast relay for metadata entries: one joint response carries
    /// the union of entries needed by any downstream consumer, each entry
    /// transmitted once; lingering-query Bloom filters are rewritten with
    /// what was sent (§III-B-1, §III-B-2).
    fn relay_metadata(
        &mut self,
        now: SimTime,
        id: ResponseId,
        entries: Vec<DataDescriptor>,
    ) -> Vec<Outgoing> {
        let me = self.id;
        let mixedcast = self.config.mixedcast;
        let rewrite = self.config.rewrite;
        let one_shot = self.config.one_shot_queries;
        let mut matching: Vec<&mut Lingering> = self
            .lqt
            .match_metadata(now)
            .into_iter()
            .filter(|l| l.upstream != me)
            .collect();
        if matching.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        if mixedcast {
            let mut receivers: BTreeSet<NodeId> = BTreeSet::new();
            let total = entries.len();
            let mut kept = Vec::new();
            let mut used = Vec::new();
            for entry in entries {
                let key = entry.encode();
                let mut needed = false;
                for l in matching.iter_mut() {
                    if !l.query.filter.matches(&entry) {
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
                        kind: ResponseKind::Metadata { entries: kept },
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
                let kept: Vec<DataDescriptor> = entries
                    .iter()
                    .filter(|e| l.query.filter.matches(e))
                    .filter(|e| !(rewrite && l.bloom_contains(e.encode())))
                    .cloned()
                    .collect();
                if kept.is_empty() {
                    continue;
                }
                if rewrite {
                    for e in &kept {
                        l.bloom_insert(e.encode());
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
                            kind: ResponseKind::Metadata { entries: kept },
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
    fn absorb_discovery<'a>(
        &mut self,
        now: SimTime,
        me_intended: bool,
        entries: impl Iterator<Item = &'a DataDescriptor>,
        small_data: bool,
    ) {
        let Some(session) = &mut self.discovery else {
            return;
        };
        if session.small_data != small_data || session.is_finished() {
            return;
        }
        let mut new_count = 0u64;
        for e in entries {
            if !session.filter.matches(e) {
                continue;
            }
            if session.collected.insert(e.entry_key()) {
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
