//! Consumer-side operation state: what a discovery or retrieval has
//! collected so far, and the reports the evaluation harness reads.

use crate::descriptor::{DataDescriptor, EntryKey};
use crate::ids::{ChunkId, ItemName, QueryId};
use crate::predicate::QueryFilter;
use crate::rounds::RoundController;
use crate::{SimDuration, SimTime};
use pds_det::DetSet;
use std::collections::BTreeSet;

/// A running (or finished) metadata / small-data discovery at a consumer.
#[derive(Debug)]
pub struct DiscoverySession {
    pub(crate) filter: QueryFilter,
    pub(crate) small_data: bool,
    /// Distinct entries collected so far; each key is a handle on the
    /// descriptor itself (shared with the store and the response it came
    /// in), so nothing is held beside it.
    pub(crate) collected: DetSet<EntryKey>,
    pub(crate) controller: RoundController,
    pub(crate) started_at: SimTime,
    pub(crate) last_new_at: SimTime,
    pub(crate) finished_at: Option<SimTime>,
    pub(crate) current_query: QueryId,
    pub(crate) rounds_sent: u32,
    pub(crate) round_log: Vec<(SimTime, u32)>,
}

impl DiscoverySession {
    /// Whether the discovery has terminated.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Every round start as `(when, round number)`, in issue order. The
    /// DST harness checks this log against the legal round state machine
    /// (strictly increasing rounds, non-decreasing times).
    #[must_use]
    pub fn round_log(&self) -> &[(SimTime, u32)] {
        &self.round_log
    }

    /// Immutable snapshot of results so far.
    #[must_use]
    pub fn report(&self) -> DiscoveryReport {
        DiscoveryReport {
            entries: self.collected.len(),
            rounds: self.rounds_sent,
            started_at: self.started_at,
            finished_at: self.finished_at,
            latency: self.last_new_at.since(self.started_at),
        }
    }

    /// The collected descriptors, in unspecified order.
    #[must_use]
    pub fn entries(&self) -> Vec<&DataDescriptor> {
        self.collected.iter().map(EntryKey::descriptor).collect()
    }
}

/// Summary of a discovery operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoveryReport {
    /// Distinct metadata entries collected.
    pub entries: usize,
    /// Rounds issued (1 = single round sufficed).
    pub rounds: u32,
    /// When the first query was sent.
    pub started_at: SimTime,
    /// When the controller declared the discovery finished (`None` while
    /// running).
    pub finished_at: Option<SimTime>,
    /// The paper's latency metric: first query sent → last *new* entry
    /// arrival.
    pub latency: SimDuration,
}

/// Which stage a retrieval is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalPhase {
    /// PDR phase 1: collecting Chunk Distribution Information.
    CdiCollection,
    /// PDR phase 2 (or the whole of MDR): fetching chunks.
    ChunkRetrieval,
    /// Finished (all chunks, or recovery budget exhausted).
    Done,
}

/// A running (or finished) large-item retrieval at a consumer.
#[derive(Debug)]
pub struct RetrievalSession {
    pub(crate) item: ItemName,
    pub(crate) descriptor: DataDescriptor,
    pub(crate) total_chunks: u32,
    pub(crate) received: BTreeSet<ChunkId>,
    pub(crate) bytes_received: u64,
    pub(crate) phase: RetrievalPhase,
    pub(crate) started_at: SimTime,
    pub(crate) phase_started_at: SimTime,
    pub(crate) last_progress_at: SimTime,
    pub(crate) finished_at: Option<SimTime>,
    pub(crate) recovery_attempts: u32,
    pub(crate) mdr: bool,
    pub(crate) controller: Option<RoundController>,
    pub(crate) rounds_sent: u32,
    pub(crate) transitions: Vec<(SimTime, RetrievalPhase)>,
}

impl RetrievalSession {
    /// Whether the retrieval has terminated.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.phase == RetrievalPhase::Done
    }

    /// Every phase entered as `(when, phase)`, starting with the initial
    /// phase. The DST harness checks this log against the legal session
    /// state machine: `CdiCollection → ChunkRetrieval → Done` for PDR
    /// (phase-1 recovery may repeat `CdiCollection` before giving up),
    /// `ChunkRetrieval → Done` for MDR, times non-decreasing, `Done`
    /// terminal.
    #[must_use]
    pub fn transitions(&self) -> &[(SimTime, RetrievalPhase)] {
        &self.transitions
    }

    /// The item being retrieved.
    #[must_use]
    pub fn item(&self) -> &ItemName {
        &self.item
    }

    /// Immutable snapshot of progress.
    #[must_use]
    pub fn report(&self) -> RetrievalReport {
        RetrievalReport {
            total_chunks: self.total_chunks,
            received_chunks: self.received.len() as u32,
            recall: if self.total_chunks == 0 {
                1.0
            } else {
                self.received.len() as f64 / f64::from(self.total_chunks)
            },
            bytes_received: self.bytes_received,
            rounds: self.rounds_sent,
            recovery_attempts: self.recovery_attempts,
            started_at: self.started_at,
            finished_at: self.finished_at,
            latency: self.last_progress_at.since(self.started_at),
            phase: self.phase,
        }
    }
}

/// Summary of a retrieval operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalReport {
    /// Chunks the item consists of.
    pub total_chunks: u32,
    /// Distinct chunks received (or already held).
    pub received_chunks: u32,
    /// `received / total` — the paper's recall metric.
    pub recall: f64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Chunk-query waves (PDR) or rounds (MDR) issued.
    pub rounds: u32,
    /// Recovery attempts used.
    pub recovery_attempts: u32,
    /// When the retrieval started.
    pub started_at: SimTime,
    /// When it finished (`None` while running).
    pub finished_at: Option<SimTime>,
    /// Start → last chunk arrival.
    pub latency: SimDuration,
    /// Current phase.
    pub phase: RetrievalPhase,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoundParams;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn discovery_report_computes_latency() {
        let mut s = DiscoverySession {
            filter: QueryFilter::match_all(),
            small_data: false,
            collected: DetSet::default(),
            controller: RoundController::new(RoundParams::default(), t(1.0)),
            started_at: t(1.0),
            last_new_at: t(4.5),
            finished_at: None,
            current_query: QueryId(1),
            rounds_sent: 2,
            round_log: vec![(t(1.0), 1), (t(3.0), 2)],
        };
        let r = s.report();
        assert_eq!(r.latency, SimDuration::from_secs_f64(3.5));
        assert_eq!(r.rounds, 2);
        assert!(!s.is_finished());
        s.finished_at = Some(t(5.0));
        assert!(s.is_finished());
    }

    #[test]
    fn retrieval_report_computes_recall() {
        let mut received = BTreeSet::new();
        received.insert(ChunkId(0));
        received.insert(ChunkId(1));
        let s = RetrievalSession {
            item: ItemName::new("vid"),
            descriptor: DataDescriptor::builder().attr("name", "vid").build(),
            total_chunks: 8,
            received,
            bytes_received: 512,
            phase: RetrievalPhase::ChunkRetrieval,
            started_at: t(0.0),
            phase_started_at: t(0.0),
            last_progress_at: t(2.0),
            finished_at: None,
            recovery_attempts: 1,
            mdr: false,
            controller: None,
            rounds_sent: 1,
            transitions: vec![
                (t(0.0), RetrievalPhase::CdiCollection),
                (t(1.0), RetrievalPhase::ChunkRetrieval),
            ],
        };
        let r = s.report();
        assert!((r.recall - 0.25).abs() < 1e-12);
        assert_eq!(r.received_chunks, 2);
        assert_eq!(r.latency, SimDuration::from_secs(2));
        assert!(!s.is_finished());
        assert_eq!(s.item().as_str(), "vid");
    }

    #[test]
    fn zero_chunk_item_has_full_recall() {
        let s = RetrievalSession {
            item: ItemName::new("empty"),
            descriptor: DataDescriptor::builder().attr("name", "empty").build(),
            total_chunks: 0,
            received: BTreeSet::new(),
            bytes_received: 0,
            phase: RetrievalPhase::Done,
            started_at: t(0.0),
            phase_started_at: t(0.0),
            last_progress_at: t(0.0),
            finished_at: Some(t(0.0)),
            recovery_attempts: 0,
            mdr: true,
            controller: None,
            rounds_sent: 0,
            transitions: vec![(t(0.0), RetrievalPhase::Done)],
        };
        assert!((s.report().recall - 1.0).abs() < 1e-12);
        assert!(s.is_finished());
    }
}
