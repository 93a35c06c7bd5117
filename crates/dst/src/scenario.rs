//! The two scenario families the harness sweeps, and the invariant
//! witnesses collected while they run.
//!
//! Both families build a fresh [`World`] from the spec alone — no ambient
//! state — so a `(world_seed, plan_seed)` pair replays bit-identically and
//! [`pds_bench::sweep::SweepRunner`] may run cases on any worker.

use crate::spec::{CaseSpec, Family, PPM};
use bytes::Bytes;
use pds_core::{DataDescriptor, PdsConfig, PdsNode, QueryFilter};
use pds_det::DetMap;
use pds_mobility::grid;
use pds_sim::obs::FlightRecorder;
use pds_sim::{
    Application, Context, MessageHandle, MessageMeta, NodeId, Position, SimConfig, SimDuration,
    SimTime, Stats, TraceSink, World,
};
use std::collections::BTreeSet;

/// Everything one case run produced, for invariant checking and logs.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// Kernel traffic counters at the end of the run.
    pub stats: Stats,
    /// Replay digest of the dispatched event stream (built with the
    /// `replay-digest` feature only).
    pub digest: Option<u64>,
    /// High-water retransmission attempt across all transports.
    pub max_attempt: u32,
    /// Invariant breaches observed in-run, by invariant name.
    pub violations: Vec<String>,
    /// Distinct application messages delivered (transport family).
    pub unique_deliveries: u64,
    /// Entries the consumer was required to collect (pds family).
    pub expected_entries: u64,
    /// Entries the consumer actually collected (pds family).
    pub collected_entries: u64,
    /// Whether the consumer's operation terminated before the horizon.
    pub finished: bool,
}

/// Runs one case start to finish and gathers its witnesses.
#[must_use]
pub fn run_case(spec: &CaseSpec) -> CaseOutcome {
    match spec.family {
        Family::Transport => run_transport(spec, None).0,
        Family::Pds => run_pds(spec, None).0,
    }
}

/// [`run_case`] with a bounded [`FlightRecorder`] installed: returns the
/// outcome plus the recorder holding the tail of every node's event
/// history. Tracing is observation-only — the outcome (stats, digest,
/// violations) is bit-identical to the unrecorded run — so the driver can
/// re-run a minimized failure recorded and trust the dump narrates the
/// same violation the sweep caught.
#[must_use]
pub fn run_case_recorded(spec: &CaseSpec) -> (CaseOutcome, FlightRecorder) {
    let sink = Box::new(FlightRecorder::new(
        pds_sim::obs::flight::DEFAULT_NODE_CAPACITY,
    ));
    let (outcome, sink) = match spec.family {
        Family::Transport => run_transport(spec, Some(sink)),
        Family::Pds => run_pds(spec, Some(sink)),
    };
    let recorder = sink
        .and_then(|mut s| {
            s.as_any_mut()
                .downcast_mut::<FlightRecorder>()
                // The box cannot be unwrapped through `dyn Any`, so swap
                // the recorder out of it instead.
                .map(|r| std::mem::replace(r, FlightRecorder::new(1)))
        })
        .expect("the installed sink is a FlightRecorder");
    (outcome, recorder)
}

fn base_outcome(world: &World) -> CaseOutcome {
    CaseOutcome {
        stats: world.stats().clone(),
        #[cfg(feature = "replay-digest")]
        digest: Some(world.replay_digest()),
        #[cfg(not(feature = "replay-digest"))]
        digest: None,
        max_attempt: world.max_retr_attempt(),
        violations: Vec::new(),
        unique_deliveries: 0,
        expected_entries: 0,
        collected_entries: 0,
        finished: true,
    }
}

// ---- transport family ------------------------------------------------------

/// Sends `total` tagged messages to a fixed neighbor, two reliable then one
/// best-effort broadcast, and records every send-result resolution.
struct Blaster {
    me: u32,
    target: NodeId,
    total: u32,
    sent: u32,
    size: usize,
    pending: DetMap<MessageHandle, ()>,
    resolved: DetMap<MessageHandle, ()>,
    double_resolved: u64,
}

/// First 12 payload bytes: sender id then message index.
fn tag_payload(sender: u32, index: u64, size: usize) -> Bytes {
    let mut buf = vec![0u8; size.max(12)];
    buf[0..4].copy_from_slice(&sender.to_le_bytes());
    buf[4..12].copy_from_slice(&index.to_le_bytes());
    Bytes::from(buf)
}

fn decode_tag(payload: &[u8]) -> Option<(u32, u64)> {
    if payload.len() < 12 {
        return None;
    }
    let sender = u32::from_le_bytes(payload[0..4].try_into().ok()?);
    let index = u64::from_le_bytes(payload[4..12].try_into().ok()?);
    Some((sender, index))
}

impl Application for Blaster {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: Bytes) {}

    fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
        if self.sent >= self.total {
            return;
        }
        let payload = tag_payload(self.me, u64::from(self.sent), self.size);
        if self.sent % 3 == 2 {
            // Best-effort broadcast: no acks, no resolution expected.
            ctx.broadcast(payload, &[]);
        } else {
            let handle = ctx.broadcast(payload, &[self.target]);
            self.pending.insert(handle, ());
        }
        self.sent += 1;
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_send_result(&mut self, _ctx: &mut Context, message: MessageHandle, _delivered: bool) {
        if self.pending.remove(&message).is_some() {
            self.resolved.insert(message, ());
        } else {
            // Either resolved twice or never issued reliably — both are
            // protocol bugs.
            self.double_resolved += 1;
        }
    }
}

/// Counts deliveries per (origin, message index) to catch duplicates that
/// leak past the transport's reassembly dedup.
struct Sink {
    counts: DetMap<(u32, u64), u32>,
    duplicates: u64,
    undecodable: u64,
}

impl Sink {
    fn new() -> Self {
        Self {
            counts: DetMap::default(),
            duplicates: 0,
            undecodable: 0,
        }
    }
}

impl Application for Sink {
    fn on_start(&mut self, _ctx: &mut Context) {}

    fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, payload: Bytes) {
        let Some(key) = decode_tag(&payload) else {
            self.undecodable += 1;
            return;
        };
        let count = self.counts.entry(key).or_insert(0);
        *count += 1;
        if *count > 1 {
            self.duplicates += 1;
        }
    }
}

fn run_transport(
    spec: &CaseSpec,
    sink: Option<Box<dyn TraceSink>>,
) -> (CaseOutcome, Option<Box<dyn TraceSink>>) {
    let nodes = spec.nodes.max(2);
    let mut sim = SimConfig::default();
    sim.radio.baseline_loss = f64::from(spec.loss_ppm) * PPM;
    sim.ack.max_retr = spec.max_retr;
    let mut world = World::new(sim, spec.world_seed);
    world.install_faults(spec.fault_plan());
    if let Some(s) = sink {
        world.set_trace_sink(s);
    }

    // A line with only adjacent nodes in radio range; blasters at both
    // ends each address their immediate neighbor.
    let spacing = 60.0;
    let mut ids = Vec::new();
    for i in 0..nodes {
        let pos = Position::new(f64::from(i) * spacing, 0.0);
        let app: Box<dyn Application> = if i == 0 {
            Box::new(Blaster {
                me: 0,
                target: NodeId(1),
                total: spec.messages,
                sent: 0,
                size: spec.msg_bytes as usize,
                pending: DetMap::default(),
                resolved: DetMap::default(),
                double_resolved: 0,
            })
        } else if i == nodes - 1 && nodes >= 3 {
            Box::new(Blaster {
                me: i,
                target: NodeId(nodes - 2),
                total: spec.messages,
                sent: 0,
                size: spec.msg_bytes as usize,
                pending: DetMap::default(),
                resolved: DetMap::default(),
                double_resolved: 0,
            })
        } else {
            Box::new(Sink::new())
        };
        ids.push(world.add_node(pos, app));
    }
    world.run_until(spec.horizon());

    let mut outcome = base_outcome(&world);
    let mut unique = 0u64;
    for &id in &ids {
        if let Some(b) = world.app::<Blaster>(id) {
            if !b.pending.is_empty() {
                outcome.violations.push(format!(
                    "send-result: node {} left {} reliable sends unresolved",
                    id.0,
                    b.pending.len()
                ));
            }
            if b.double_resolved > 0 {
                outcome.violations.push(format!(
                    "send-result: node {} saw {} duplicate/unknown resolutions",
                    id.0, b.double_resolved
                ));
            }
        }
        if let Some(s) = world.app::<Sink>(id) {
            unique += s.counts.len() as u64;
            if s.duplicates > 0 {
                outcome.violations.push(format!(
                    "dup-delivery: node {} saw {} duplicate messages",
                    id.0, s.duplicates
                ));
            }
            if s.undecodable > 0 {
                outcome.violations.push(format!(
                    "dup-delivery: node {} saw {} corrupt payloads",
                    id.0, s.undecodable
                ));
            }
        }
    }
    outcome.unique_deliveries = unique;
    // Messages stay under eight fragments, so the budget is exactly
    // `max_retr` (see `Transport::on_retr_timer`).
    if outcome.max_attempt > spec.max_retr {
        outcome.violations.push(format!(
            "retry-bound: attempt high-water {} exceeds cap {}",
            outcome.max_attempt, spec.max_retr
        ));
    }
    (outcome, world.take_trace_sink())
}

// ---- pds family ------------------------------------------------------------

/// Discovery sessions the consumer may spend chasing full recall before
/// the recall invariant is judged (matches a real consumer re-querying;
/// collected entries are cached across sessions).
const MAX_DISCOVERY_ATTEMPTS: u32 = 3;

fn entry(owner: u32, k: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "s")
        .attr("o", i64::from(owner))
        .attr("k", i64::from(k))
        .build()
}

/// Producer ids doomed by the plan's churn storms, in removal order:
/// counted down from the highest id, never the consumer.
fn doomed_ids(spec: &CaseSpec) -> Vec<Vec<u32>> {
    let consumer = spec.consumer_id();
    let mut next = spec.node_count();
    let mut take = || loop {
        next = next.saturating_sub(1);
        if next != consumer {
            return next;
        }
    };
    (0..spec.storms)
        .map(|_| (0..spec.storm_leave()).map(|_| take()).collect())
        .collect()
}

fn run_pds(
    spec: &CaseSpec,
    sink: Option<Box<dyn TraceSink>>,
) -> (CaseOutcome, Option<Box<dyn TraceSink>>) {
    let g = spec.nodes.max(2) as usize;
    let mut sim = SimConfig::paper_multi_hop();
    sim.radio.baseline_loss = f64::from(spec.loss_ppm) * PPM;
    sim.ack.max_retr = spec.max_retr;
    let mut world = World::new(sim, spec.world_seed);
    let plan = spec.fault_plan();
    let storms = plan.storms.clone();
    world.install_faults(plan);
    if let Some(s) = sink {
        world.set_trace_sink(s);
    }

    let mut ids = Vec::new();
    for (i, pos) in grid::positions(g, g, grid::SPACING_M).iter().enumerate() {
        let mut node = PdsNode::new(PdsConfig::default(), spec.world_seed ^ (0x5bd1 + i as u64));
        for k in 0..spec.entries {
            node = node.with_metadata(entry(i as u32, k), None);
        }
        ids.push(world.add_node(*pos, Box::new(node)));
    }
    let consumer = ids[spec.consumer_id() as usize];

    // Churn storms: each removes its doomed producers at `at`; storms with
    // `rejoin` add fresh (empty) nodes back at the same positions later.
    let doomed = doomed_ids(spec);
    let positions = grid::positions(g, g, grid::SPACING_M);
    for (storm, victims) in storms.iter().zip(&doomed) {
        for &v in victims {
            let id = ids[v as usize];
            world.schedule(storm.at, move |w| {
                w.remove_node(id);
            });
            if storm.rejoin {
                let pos = positions[v as usize];
                let until = storm.at + storm.rejoin_after;
                let seed = spec.world_seed ^ (0x9e37 + u64::from(v));
                world.schedule(until, move |w| {
                    w.add_node(pos, Box::new(PdsNode::new(PdsConfig::default(), seed)));
                });
            }
        }
    }

    // Producers whose entries the consumer cannot be required to collect:
    // storm victims (their data leaves with them) and silenced nodes
    // (their responses are suppressed on the wire).
    let mut excluded: BTreeSet<u32> = doomed.into_iter().flatten().collect();
    for i in 0..spec.silences {
        excluded.insert(spec.silenced_node(i));
    }
    excluded.remove(&spec.consumer_id());
    let expected = u64::from(spec.entries) * (spec.node_count() as u64 - excluded.len() as u64);

    // Discovery terminates a round after it stops yielding new entries
    // (`T_d = 0`), so a single all-lost round can end a session short. A
    // real consumer re-queries; the invariant therefore demands full
    // recall within a small budget of discovery sessions, which drives
    // the residual miss probability at paper-scale loss to negligible.
    let deadline = spec.horizon();
    world.run_until(SimTime::from_secs_f64(0.2));
    for _attempt in 0..MAX_DISCOVERY_ATTEMPTS {
        world.with_app::<PdsNode, _>(consumer, |n, ctx| {
            n.start_discovery(ctx, QueryFilter::match_all());
        });
        loop {
            let done = world
                .app::<PdsNode>(consumer)
                .and_then(PdsNode::discovery_report)
                .is_some_and(|r| r.finished_at.is_some());
            if done || world.now() >= deadline {
                break;
            }
            let next = world.now() + SimDuration::from_millis(250);
            world.run_until(next.min(deadline));
        }
        let enough = world
            .app::<PdsNode>(consumer)
            .and_then(PdsNode::discovery_report)
            .is_some_and(|r| r.entries as u64 >= expected);
        if enough || world.now() >= deadline {
            break;
        }
    }

    let mut outcome = base_outcome(&world);
    outcome.expected_entries = expected;
    let Some(report) = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::discovery_report)
    else {
        outcome.finished = false;
        outcome
            .violations
            .push("termination: consumer or session vanished".to_string());
        return (outcome, world.take_trace_sink());
    };
    outcome.collected_entries = report.entries as u64;
    outcome.finished = report.finished_at.is_some();
    if !outcome.finished {
        outcome.violations.push(format!(
            "termination: discovery still running at the {:.1}s horizon",
            f64::from(spec.horizon_ds) / 10.0
        ));
    }
    if outcome.collected_entries < expected {
        outcome.violations.push(format!(
            "recall: collected {} of {expected} stable entries",
            outcome.collected_entries
        ));
    }
    if let Some(session) = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::engine)
        .and_then(|e| e.discovery())
    {
        check_round_log(session.round_log(), &mut outcome.violations);
    }
    (outcome, world.take_trace_sink())
}

/// Structural legality of a discovery round log: rounds count 1, 2, 3, …
/// at non-decreasing times.
fn check_round_log(log: &[(SimTime, u32)], violations: &mut Vec<String>) {
    if log.is_empty() {
        violations.push("session-log: empty round log".to_string());
        return;
    }
    let mut last = SimTime::ZERO;
    for (i, &(at, round)) in log.iter().enumerate() {
        if round != i as u32 + 1 {
            violations.push(format!(
                "session-log: round {round} recorded at slot {i} (want {})",
                i + 1
            ));
            return;
        }
        if at < last {
            violations.push(format!("session-log: time went backwards at round {round}"));
            return;
        }
        last = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_transport() -> CaseSpec {
        CaseSpec {
            family: Family::Transport,
            world_seed: 7,
            plan_seed: 7,
            nodes: 3,
            messages: 10,
            msg_bytes: 64,
            entries: 0,
            loss_ppm: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_max_ms: 50,
            partitions: 0,
            silences: 0,
            storms: 0,
            max_retr: 4,
            horizon_ds: 120,
        }
    }

    #[test]
    fn tag_codec_round_trips() {
        let p = tag_payload(9, 1234, 300);
        assert_eq!(p.len(), 300);
        assert_eq!(decode_tag(&p), Some((9, 1234)));
        assert_eq!(decode_tag(&p[..8]), None);
    }

    #[test]
    fn quiet_transport_case_holds_all_invariants() {
        let out = run_case(&quiet_transport());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.unique_deliveries > 0, "traffic must flow");
    }

    #[test]
    fn faulted_transport_case_is_deterministic() {
        let mut spec = quiet_transport();
        spec.loss_ppm = 100_000;
        spec.drop_ppm = 80_000;
        spec.dup_ppm = 60_000;
        spec.delay_ppm = 60_000;
        spec.partitions = 1;
        spec.silences = 1;
        let a = run_case(&spec);
        let b = run_case(&spec);
        assert_eq!(a, b, "identical spec must replay identically");
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(
            a.stats.frames_fault_dropped > 0 || a.stats.frames_fault_cut > 0,
            "plan must bite: {:?}",
            a.stats
        );
    }

    #[test]
    fn recorded_run_matches_unrecorded_outcome() {
        let mut spec = quiet_transport();
        spec.loss_ppm = 100_000;
        spec.drop_ppm = 80_000;
        let plain = run_case(&spec);
        let (recorded, recorder) = run_case_recorded(&spec);
        assert_eq!(
            plain, recorded,
            "flight recording must not perturb the outcome"
        );
        assert!(recorder.recorded() > 0, "recorder captured nothing");
        let events = recorder.dump();
        assert!(!events.is_empty());
        // The dump is in emission order.
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn doomed_ids_skip_consumer() {
        let mut spec = quiet_transport();
        spec.family = Family::Pds;
        spec.nodes = 3;
        spec.storms = 2;
        let doomed = doomed_ids(&spec);
        assert_eq!(doomed.len(), 2);
        let consumer = spec.consumer_id();
        for v in doomed.into_iter().flatten() {
            assert_ne!(v, consumer);
        }
    }

    #[test]
    fn round_log_checker_rejects_gaps_and_time_travel() {
        let t = SimTime::from_secs_f64;
        let mut v = Vec::new();
        check_round_log(&[(t(0.2), 1), (t(1.0), 2)], &mut v);
        assert!(v.is_empty());
        check_round_log(&[(t(0.2), 1), (t(1.0), 3)], &mut v);
        assert_eq!(v.len(), 1);
        v.clear();
        check_round_log(&[(t(1.0), 1), (t(0.5), 2)], &mut v);
        assert_eq!(v.len(), 1);
        v.clear();
        check_round_log(&[], &mut v);
        assert_eq!(v.len(), 1);
    }
}
