//! The Multi-round Data Retrieval (MDR) baseline (§VI-B-3).
//!
//! MDR retrieves a large item exactly like PDD retrieves metadata: the
//! consumer floods a query for all chunks it does not yet have (a Bloom
//! filter of received chunk keys), every node holding uncovered chunks
//! replies, and multi-round control repeats until a round returns nothing
//! new. There is no CDI and no nearest-copy selection — the redundancy this
//! causes with multiple cached copies is exactly what Figs. 13/14 measure.

use super::{Outgoing, PdsEngine};
use crate::config::BLOOM_FPP;
use crate::descriptor::DataDescriptor;
use crate::ids::{ChunkId, ItemName};
use crate::lqt::chunk_key;
use crate::message::{QueryKind, QueryMessage, ResponseKind, ResponseMessage};
use crate::predicate::QueryFilter;
use crate::rounds::{RoundController, RoundDecision};
use crate::sessions::{RetrievalMode, RetrievalPhase};
use crate::{NodeId, SimDuration, SimTime};
use pds_bloom::{BloomFilter, BloomParams};

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
        let mode = RetrievalMode::Mdr(RoundController::new(self.mdr_round_params(), now));
        let Some((item, total)) = self.open_retrieval(now, descriptor, mode) else {
            return Vec::new();
        };
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
        let received = self.retrieval.as_ref().map(|s| &s.received);
        let bloom = received.filter(|r| !r.is_empty()).map(|received| {
            let params = BloomParams::optimal((total as usize * 2).max(64), BLOOM_FPP);
            let mut b = BloomFilter::with_round(params, round);
            for c in received.iter() {
                b.insert(&chunk_key(item, ChunkId(c)));
            }
            b.encode()
        });
        let kind = QueryKind::MdrChunks {
            item: item.clone(),
            total_chunks: total,
        };
        let session = self.retrieval_trace();
        self.own_query(session, now, kind, QueryFilter::match_all(), bloom, round)
    }

    /// Round control for MDR (mirrors PDD's multi-round discovery).
    pub(crate) fn poll_mdr(&mut self, now: SimTime) -> Vec<Outgoing> {
        let Some(s) = &mut self.retrieval else {
            return Vec::new();
        };
        let RetrievalMode::Mdr(ctrl) = &mut s.mode else {
            return Vec::new();
        };
        if s.phase == RetrievalPhase::Done {
            return Vec::new();
        }
        let decision = if s.received.is_full() {
            RoundDecision::Finished
        } else {
            ctrl.poll(now)
        };
        match decision {
            RoundDecision::Continue => Vec::new(),
            RoundDecision::Finished => {
                self.finish_retrieval(now);
                Vec::new()
            }
            RoundDecision::StartNextRound => {
                s.rounds_sent += 1;
                ctrl.start_next_round(now);
                let (round, item, total) = (ctrl.round(), s.item.clone(), s.total_chunks);
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
        q: &QueryMessage,
    ) -> Vec<Outgoing> {
        let QueryKind::MdrChunks { item, .. } = &q.kind else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let held = self.store.chunk_ids(item);
        let item_descriptor = self.store.chunk_descriptor(item);
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
            out.extend(self.forward_flood(q));
        }
        out
    }
}
