//! The Multi-round Data Retrieval (MDR) baseline (§VI-B-3).
//!
//! MDR retrieves a large item exactly like PDD retrieves metadata: the
//! consumer floods a query for all chunks it does not yet have (a Bloom
//! filter of received chunk keys), every node holding uncovered chunks
//! replies, and multi-round control repeats until a round returns nothing
//! new. There is no CDI and no nearest-copy selection — the redundancy this
//! causes with multiple cached copies is exactly what Figs. 13/14 measure.

use super::{Outgoing, PdsEngine};
use crate::descriptor::DataDescriptor;
use crate::ids::{ChunkId, ItemName};
use crate::lqt::chunk_key;
use crate::message::{QueryKind, QueryMessage, ResponseKind, ResponseMessage};
use crate::predicate::QueryFilter;
use crate::rounds::{RoundController, RoundDecision};
use crate::sessions::{RetrievalPhase, RetrievalSession};
use crate::{NodeId, SimDuration, SimTime};
use pds_bloom::{BloomFilter, BloomParams};
use std::collections::BTreeSet;

impl PdsEngine {
    /// Starts an MDR retrieval of the item `descriptor` describes.
    ///
    /// As for [`PdsEngine::start_retrieval`], a descriptor without `name`
    /// or `total_chunks` is refused (no messages, no session) and asserts
    /// in debug builds.
    pub fn start_mdr_retrieval(
        &mut self,
        now: SimTime,
        descriptor: DataDescriptor,
    ) -> Vec<Outgoing> {
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
            RetrievalPhase::ChunkRetrieval
        };
        let session = RetrievalSession {
            item: item.clone(),
            descriptor,
            total_chunks: total,
            received,
            bytes_received: 0,
            phase,
            started_at: now,
            phase_started_at: now,
            last_progress_at: now,
            finished_at: if done { Some(now) } else { None },
            recovery_attempts: 0,
            mdr: true,
            controller: None,
            rounds_sent: 1,
            transitions: vec![(now, phase)],
        };
        self.retrieval = Some(session);
        let params = self.mdr_round_params();
        if let Some(s) = &mut self.retrieval {
            s.controller = Some(RoundController::new(params, now));
        }
        if done {
            return Vec::new();
        }
        vec![self.mdr_query(now, &item, total, 0)]
    }

    /// MDR round parameters: chunk responses are ~170 fragments and take
    /// seconds per hop, so the "stream diminished" window must be far wider
    /// than PDD's metadata-sized default.
    fn mdr_round_params(&self) -> crate::config::RoundParams {
        let mut p = self.config.rounds;
        p.t_window = p
            .t_window
            .saturating_mul(30)
            .max(SimDuration::from_secs(30));
        p
    }

    fn mdr_query(&mut self, now: SimTime, item: &ItemName, total: u32, round: u32) -> Outgoing {
        let received: Vec<ChunkId> = self
            .retrieval
            .as_ref()
            .map(|s| s.received.iter().copied().collect())
            .unwrap_or_default();
        let bloom = if received.is_empty() {
            None
        } else {
            let params = BloomParams::optimal((total as usize * 2).max(64), self.config.bloom_fpp);
            let mut b = BloomFilter::with_round(params, round);
            for c in &received {
                b.insert(&chunk_key(item, *c));
            }
            Some(b.encode())
        };
        let id = self.new_query_id();
        let query = QueryMessage {
            id,
            kind: QueryKind::MdrChunks {
                item: item.clone(),
                total_chunks: total,
            },
            sender: self.id,
            expires_at: now + self.config.query_lifetime,
            filter: QueryFilter::match_all(),
            bloom,
            round,
            ttl_hops: self.config.query_hop_limit.unwrap_or(0),
        };
        self.register_own_query(&query);
        Outgoing::query(query, Vec::new()).for_session()
    }

    /// Round control for MDR (mirrors PDD's multi-round discovery).
    pub(crate) fn poll_mdr(&mut self, now: SimTime) -> Vec<Outgoing> {
        let (decision, item, total) = {
            let Some(s) = &mut self.retrieval else {
                return Vec::new();
            };
            if s.is_finished() {
                return Vec::new();
            }
            let done = s.received.len() as u32 >= s.total_chunks;
            let decision = if done {
                RoundDecision::Finished
            } else {
                s.controller
                    .as_mut()
                    .map_or(RoundDecision::Finished, |c| c.poll(now))
            };
            (decision, s.item.clone(), s.total_chunks)
        };
        match decision {
            RoundDecision::Continue => Vec::new(),
            RoundDecision::Finished => {
                if let Some(s) = &mut self.retrieval {
                    if s.phase != RetrievalPhase::Done {
                        s.transitions.push((now, RetrievalPhase::Done));
                    }
                    s.phase = RetrievalPhase::Done;
                    if s.finished_at.is_none() {
                        s.finished_at = Some(now);
                    }
                }
                Vec::new()
            }
            RoundDecision::StartNextRound => {
                let round = {
                    let ctrl = self.retrieval.as_mut().and_then(|s| {
                        s.rounds_sent += 1;
                        s.controller.as_mut()
                    });
                    let Some(ctrl) = ctrl else {
                        return Vec::new();
                    };
                    ctrl.start_next_round(now);
                    ctrl.round()
                };
                vec![self.mdr_query(now, &item, total, round)]
            }
        }
    }

    /// Handles an MDR chunk query: reply every held chunk the consumer does
    /// not yet have (per the query's Bloom filter), rewrite the lingering
    /// filter with what was sent, and flood the query on.
    pub(crate) fn handle_mdr_query(
        &mut self,
        _now: SimTime,
        _from: NodeId,
        me_intended: bool,
        q: QueryMessage,
    ) -> Vec<Outgoing> {
        let QueryKind::MdrChunks { item, .. } = &q.kind else {
            return Vec::new();
        };
        self.lqt.insert(q.clone(), q.sender);
        let mut out = Vec::new();
        let held = self.store.chunk_ids(item);
        let item_descriptor = self
            .store
            .item_descriptor_by_name(item)
            .cloned()
            .unwrap_or_else(|| {
                DataDescriptor::builder()
                    .attr(crate::descriptor::attrs::NAME, item.as_str())
                    .build()
            });
        let mut to_send = Vec::new();
        if let Some(lingering) = self.lqt.get_mut(q.id) {
            for c in held {
                let key = chunk_key(item, c);
                if lingering.bloom_contains(&key) {
                    continue;
                }
                lingering.bloom_insert(&key);
                to_send.push(c);
            }
        }
        for c in to_send {
            let Some(data) = self.store.fetch_chunk(item, c) else {
                continue;
            };
            let r = ResponseMessage {
                id: self.new_response_id(),
                sender: self.id,
                kind: ResponseKind::Chunk {
                    descriptor: item_descriptor.clone(),
                    chunk: c,
                    data,
                },
            };
            out.push(Outgoing::response_slow(r, vec![q.sender]).answering(q.id));
        }
        if me_intended {
            out.extend(self.forward_flood(&q));
        }
        out
    }
}
