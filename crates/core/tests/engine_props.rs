//! Property-based protocol tests: on *any* connected topology with lossless
//! instantaneous links, discovery terminates with full recall and PDR
//! retrieves every chunk. Random trees come from Prüfer sequences, so
//! connectivity holds by construction.
//!
//! Exhaustive tests: *every* way of losing the first [`CHOICES`] response
//! deliveries on three small topologies (see [`check_schedule`]).

use bytes::Bytes;
use pds_core::{
    AttrValue, ChunkId, DataDescriptor, Outgoing, PdsConfig, PdsEngine, PdsMessage, QueryFilter,
    RetrievalPhase,
};
use pds_sim::{NodeId, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// Decodes a Prüfer sequence into a tree's adjacency lists (n ≥ 2 nodes).
fn prufer_tree(n: usize, seq: &[usize]) -> Vec<Vec<usize>> {
    assert!(n >= 2);
    assert_eq!(seq.len(), n - 2);
    let mut degree = vec![1usize; n];
    for &s in seq {
        degree[s % n] += 1;
    }
    let mut adj = vec![Vec::new(); n];
    let add = |adj: &mut Vec<Vec<usize>>, a: usize, b: usize| {
        adj[a].push(b);
        adj[b].push(a);
    };
    for &s in seq {
        let s = s % n;
        let leaf = (0..n).find(|&i| degree[i] == 1).expect("leaf exists");
        add(&mut adj, leaf, s);
        degree[leaf] -= 1;
        degree[s] -= 1;
    }
    let remaining: Vec<usize> = (0..n).filter(|&i| degree[i] == 1).collect();
    assert_eq!(remaining.len(), 2);
    add(&mut adj, remaining[0], remaining[1]);
    adj
}

/// Response deliveries whose fate a [`Schedule`] decides; later ones arrive.
const CHOICES: u32 = 12;

/// The pump's delivery oracle: bit `i` of `lose` drops the `i`-th delivery
/// of a response to one neighbour, `fifo` picks which end of the queue
/// drains. Queries always arrive. The default loses nothing, newest first.
#[derive(Default)]
struct Schedule {
    lose: u32,
    fifo: bool,
    decided: u32,
    lost: u32,
}

impl Schedule {
    fn delivers(&mut self, message: &PdsMessage) -> bool {
        if matches!(message, PdsMessage::Query(_)) || self.decided >= CHOICES {
            return true;
        }
        let lose = self.lose >> self.decided & 1 == 1;
        self.decided += 1;
        self.lost += u32::from(lose);
        !lose
    }
}

/// Instantaneous pump over the adjacency; `schedule` decides what is lost.
fn pump(
    engines: &mut [PdsEngine],
    adj: &[impl AsRef<[usize]>],
    initial: Vec<(usize, Outgoing)>,
    now: SimTime,
    schedule: &mut Schedule,
) {
    let mut queue = VecDeque::from(initial);
    let mut steps = 0usize;
    loop {
        let next = if schedule.fifo {
            queue.pop_front()
        } else {
            queue.pop_back()
        };
        let Some((sender, out)) = next else { break };
        steps += 1;
        assert!(steps < 500_000, "pump did not quiesce");
        for &nbr in adj[sender].as_ref() {
            if !schedule.delivers(&out.message) {
                continue;
            }
            let me = NodeId(nbr as u32);
            let me_intended = out.intended.is_empty() || out.intended.contains(&me);
            let produced = engines[nbr].handle_message(
                now,
                NodeId(sender as u32),
                me_intended,
                out.message.clone(),
            );
            queue.extend(produced.into_iter().map(|p| (nbr, p)));
        }
    }
}

fn entry(owner: usize, k: usize) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "s")
        .attr("o", owner as i64)
        .attr("k", AttrValue::Int(k as i64))
        .build()
}

fn video(total: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "video")
        .attr("name", "clip")
        .attr("total_chunks", i64::from(total))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Discovery on any tree topology terminates with 100 % recall and the
    /// wire codec round-trips every transmitted message.
    #[test]
    fn discovery_full_recall_on_any_tree(
        n in 2usize..10,
        seq in proptest::collection::vec(0usize..100, 8),
        per_node in 1usize..4,
        consumer_pick in 0usize..100,
    ) {
        let seq: Vec<usize> = seq.into_iter().take(n - 2).collect();
        let adj = prufer_tree(n, &seq);
        let mut engines: Vec<PdsEngine> = (0..n)
            .map(|i| PdsEngine::new(NodeId(i as u32), PdsConfig::default(), 50_000 + i as u64))
            .collect();
        for (i, e) in engines.iter_mut().enumerate() {
            for k in 0..per_node {
                e.store_mut().insert_own(entry(i, k), None);
            }
        }
        let consumer = consumer_pick % n;
        let mut now = t(0.0);
        let start = engines[consumer].start_discovery(now, QueryFilter::match_all());
        // Codec sanity: everything sent must decode to itself.
        for o in &start {
            let bytes = o.message.encode();
            prop_assert_eq!(PdsMessage::decode(&bytes).expect("decodes"), o.message.clone());
        }
        let lossless = &mut Schedule::default();
        pump(&mut engines, &adj, start.into_iter().map(|o| (consumer, o)).collect(), now, lossless);
        for _ in 0..40 {
            now += SimDuration::from_millis(400);
            let out = engines[consumer].poll(now);
            pump(&mut engines, &adj, out.into_iter().map(|o| (consumer, o)).collect(), now, lossless);
            if engines[consumer].discovery().expect("session").is_finished() {
                break;
            }
        }
        let session = engines[consumer].discovery().expect("session");
        prop_assert!(session.is_finished(), "discovery must terminate");
        prop_assert_eq!(session.entries().len(), n * per_node, "full recall on a lossless tree");
    }

    /// PDR on any tree topology retrieves every chunk, wherever they sit.
    #[test]
    fn retrieval_full_recall_on_any_tree(
        n in 2usize..8,
        seq in proptest::collection::vec(0usize..100, 8),
        total in 1u32..6,
        placement_seed in any::<u64>(),
    ) {
        let seq: Vec<usize> = seq.into_iter().take(n - 2).collect();
        let adj = prufer_tree(n, &seq);
        let mut engines: Vec<PdsEngine> = (0..n)
            .map(|i| PdsEngine::new(NodeId(i as u32), PdsConfig::default(), 60_000 + i as u64))
            .collect();
        // Scatter chunks (consumer is node 0; holders are 1..n).
        let desc = video(total);
        let mut s = placement_seed;
        for c in 0..total {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let holder = if n > 1 { 1 + (s as usize % (n - 1)) } else { 0 };
            engines[holder].store_mut().insert_chunk(
                &desc,
                ChunkId(c),
                Bytes::from(vec![c as u8; 256]),
            );
        }
        let mut now = t(0.0);
        let start = engines[0].start_retrieval(now, desc);
        let lossless = &mut Schedule::default();
        pump(&mut engines, &adj, start.into_iter().map(|o| (0, o)).collect(), now, lossless);
        for _ in 0..80 {
            now += SimDuration::from_millis(400);
            let out = engines[0].poll(now);
            pump(&mut engines, &adj, out.into_iter().map(|o| (0, o)).collect(), now, lossless);
            if engines[0].retrieval().expect("session").is_finished() {
                break;
            }
        }
        let report = engines[0].retrieval().expect("session").report();
        prop_assert!(
            (report.recall - 1.0).abs() < 1e-9,
            "recall {} on tree {:?} with {} chunks",
            report.recall,
            adj,
            total
        );
    }
}

// Exhaustive response-loss schedules: every lose/deliver choice for the
// first `CHOICES` response deliveries, by bitmask, each mask on freshly built
// engines. A quiet run makes 3 to 8 such deliveries on the stars and 8 (MDR),
// 11 (PDD), 15 to 17 (PDR) and 22 (PDD without rewriting) on the line; a
// lossy one re-solicits and makes more. Twelve therefore decides whole
// sessions, recovery included, on the stars and whole first rounds and CDI
// phases on the line, and keeps this file under 15 s in the debug profile.
// On a star any subset of a round's responses can go missing; on the line two
// relays put lingering queries, en-route rewriting, chunk-query division and
// overhearing on the path. Delivery is instantaneous: timing, jitter, MAC
// contention and churn belong to the `pds-dst` sweep.

#[derive(Debug, Clone, Copy)]
enum Op {
    Pdd { rewrite: bool },
    Pdr,
    Mdr,
}

type Topology = &'static [&'static [usize]];
const STAR4: Topology = &[&[1, 2, 3], &[0], &[0], &[0]];
const STAR5: Topology = &[&[1, 2, 3, 4], &[0], &[0], &[0], &[0]];
const LINE4: Topology = &[&[1], &[0, 2], &[1, 3], &[2]];

const CHUNKS: u32 = 3;
const CHUNK_BYTES: usize = 256;

/// Runs one schedule on fresh engines and asserts the session invariants.
/// Node 0 consumes; the others each produce one entry (PDD) or hold two of
/// the three chunks, every chunk on two nodes (PDR, MDR). A failure prints
/// these arguments: `check_schedule(STAR4, Op::Pdr, false, 0x7c8)` re-runs it.
fn check_schedule(adj: Topology, op: Op, fifo: bool, lose: u32) {
    let case = (adj, op, fifo, lose);
    let check = |got: &dyn std::fmt::Debug, broken: &[(&str, bool)]| {
        for (what, bad) in broken {
            assert!(!bad, "{what}: {got:?} in {case:x?}");
        }
    };
    let n = adj.len();
    let mut config = PdsConfig::default();
    if let Op::Pdd { rewrite } = op {
        config.rewrite = rewrite;
    }
    // Three rounds, so that PDD's 3 or 4 entries can reach the cap.
    config.rounds.max_rounds = 3;
    let mut engines: Vec<PdsEngine> = (0..n)
        .map(|i| PdsEngine::new(NodeId(i as u32), config.clone(), 70_000 + i as u64))
        .collect();
    let desc = video(CHUNKS);
    for (i, e) in engines.iter_mut().enumerate().skip(1) {
        if matches!(op, Op::Pdd { .. }) {
            e.store_mut().insert_own(entry(i, 0), None);
            continue;
        }
        for c in [(i as u32 - 1) % CHUNKS, i as u32 % CHUNKS] {
            let data = Bytes::from(vec![c as u8; CHUNK_BYTES]);
            e.store_mut().insert_chunk(&desc, ChunkId(c), data);
        }
    }

    let mut schedule = Schedule {
        lose,
        fifo,
        ..Schedule::default()
    };
    let finished = |e: &PdsEngine| match op {
        Op::Pdd { .. } => e.discovery().is_some_and(|s| s.is_finished()),
        Op::Pdr | Op::Mdr => e.retrieval().is_some_and(|s| s.is_finished()),
    };
    let mut now = t(0.0);
    let mut out = match op {
        Op::Pdd { .. } => engines[0].start_discovery(now, QueryFilter::match_all()),
        Op::Pdr => engines[0].start_retrieval(now, desc),
        Op::Mdr => engines[0].start_mdr_retrieval(now, desc),
    };
    // Poll budget: 400 s; the slowest, MDR's 3 rounds of a 30 s window, needs 90.
    for _ in 0..1000 {
        let sent = out.into_iter().map(|o| (0, o)).collect();
        pump(&mut engines, adj, sent, now, &mut schedule);
        if finished(&engines[0]) {
            break;
        }
        now += SimDuration::from_millis(400);
        out = engines[0].poll(now);
    }
    check(&now, &[("still running", !finished(&engines[0]))]);
    let quiet = schedule.lost == 0;
    let (max_rounds, budget) = (config.rounds.max_rounds, config.pdr.max_recovery);
    let mdr = matches!(op, Op::Mdr);

    if matches!(op, Op::Pdd { .. }) {
        let session = engines[0].discovery().expect("session");
        let r = session.report();
        let seeded = |d: &&DataDescriptor| (1..n).any(|i| **d == entry(i, 0));
        let broken = [
            ("round cap passed", r.rounds > max_rounds),
            ("more entries than producers", r.entries >= n),
            ("phantom entry", !session.entries().iter().all(seeded)),
            ("quiet run misses an entry", quiet && r.entries != n - 1),
        ];
        return check(&(r, session.entries()), &broken);
    }
    let session = engines[0].retrieval().expect("session");
    let r = session.report();
    let distinct_bytes = CHUNK_BYTES as u64 * u64::from(r.received_chunks);
    // Forward only through CdiCollection, ChunkRetrieval, Done.
    let phases = session.transitions();
    let forward = |w: &[(SimTime, RetrievalPhase)]| (w[0].1 as u8) < w[1].1 as u8;
    let ends_done = matches!(phases.last(), Some((_, RetrievalPhase::Done)));
    let broken = [
        ("round cap passed", mdr && r.rounds > max_rounds),
        ("recovery budget passed", r.recovery_attempts > budget),
        ("byte tally is off", r.bytes_received != distinct_bytes),
        ("quiet run misses a chunk", quiet && r.recall < 1.0),
        ("phase went backwards", !phases.windows(2).all(forward)),
        ("did not end in Done", !ends_done),
    ];
    check(&(r, phases), &broken);
}

fn check_all_schedules(topologies: &[Topology], op: Op) {
    for adj in topologies {
        for fifo in [false, true] {
            for lose in 0..1 << CHOICES {
                check_schedule(adj, op, fifo, lose);
            }
        }
    }
}

#[test]
fn pdd_holds_on_every_response_loss_schedule() {
    check_all_schedules(&[STAR4, STAR5, LINE4], Op::Pdd { rewrite: true });
    check_all_schedules(&[STAR4, STAR5, LINE4], Op::Pdd { rewrite: false });
}

#[test]
fn pdr_holds_on_every_response_loss_schedule() {
    check_all_schedules(&[STAR4, LINE4], Op::Pdr);
}

#[test]
fn mdr_holds_on_every_response_loss_schedule() {
    check_all_schedules(&[STAR4, LINE4], Op::Mdr);
}
