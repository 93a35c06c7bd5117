//! Engine-level protocol tests: Algorithms 1/2, mixedcast, rewriting,
//! lingering queries, CDI propagation, recursive chunk retrieval and the
//! MDR baseline — all over an instantaneous message pump, no radio.

use super::*;
use crate::config::PdsConfig;
use crate::descriptor::DataDescriptor;
use crate::ids::{ChunkId, ItemName};
use crate::message::tests::one_of_each_kind;
use crate::message::{MessageHeader, PdsMessage, QueryKind, ResponseKind};
use crate::predicate::{Predicate, QueryFilter, Relation};
use crate::sessions::RetrievalPhase;
use crate::{NodeId, SimDuration, SimTime};
use bytes::Bytes;
use pds_bloom::{BloomFilter, BloomParams};

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn entry(n: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "no2")
        .attr("seq", i64::from(n))
        .build()
}

fn video(name: &str, total: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "video")
        .attr("name", name)
        .attr("total_chunks", i64::from(total))
        .build()
}

fn engines(n: usize, config: &PdsConfig) -> Vec<PdsEngine> {
    (0..n)
        .map(|i| PdsEngine::new(NodeId(i as u32), config.clone(), 1000 + i as u64))
        .collect()
}

/// Delivers messages instantaneously along `adjacency` until quiescent.
/// Adjacency is symmetric neighbor lists by engine index.
fn pump(
    engines: &mut [PdsEngine],
    adjacency: &[Vec<usize>],
    initial: Vec<(usize, Outgoing)>,
    now: SimTime,
) {
    pump_tapped(engines, adjacency, initial, now, |_, _, _| {});
}

/// [`pump`], showing `tap` every delivery first: receiver index,
/// transmitter, and the message as sent.
fn pump_tapped(
    engines: &mut [PdsEngine],
    adjacency: &[Vec<usize>],
    initial: Vec<(usize, Outgoing)>,
    now: SimTime,
    mut tap: impl FnMut(usize, NodeId, &Outgoing),
) {
    let mut queue: Vec<(usize, Outgoing)> = initial;
    let mut steps = 0;
    while let Some((sender, out)) = queue.pop() {
        steps += 1;
        assert!(steps < 100_000, "message pump did not quiesce");
        let from = NodeId(sender as u32);
        for &nbr in &adjacency[sender] {
            let me = NodeId(nbr as u32);
            let me_intended = out.intended.is_empty() || out.intended.contains(&me);
            tap(nbr, from, &out);
            let produced = engines[nbr].handle_message(now, from, me_intended, out.message.clone());
            for p in produced {
                queue.push((nbr, p));
            }
        }
    }
}

/// A line topology 0-1-2-…-(n-1).
fn line(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| {
            let mut v = Vec::new();
            if i > 0 {
                v.push(i - 1);
            }
            if i + 1 < n {
                v.push(i + 1);
            }
            v
        })
        .collect()
}

/// Runs a full multi-round discovery at engine 0, advancing polls until the
/// session finishes. Message exchange within a round is instantaneous.
fn run_discovery(engines: &mut [PdsEngine], adjacency: &[Vec<usize>]) -> usize {
    let mut now = t(0.0);
    let start = engines[0].start_discovery(now, QueryFilter::match_all());
    pump(
        engines,
        adjacency,
        start.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    for _ in 0..40 {
        now += SimDuration::from_millis(400);
        let out = engines[0].poll(now);
        pump(
            engines,
            adjacency,
            out.into_iter().map(|o| (0, o)).collect(),
            now,
        );
        if engines[0].discovery().expect("session").is_finished() {
            break;
        }
    }
    assert!(engines[0].discovery().expect("session").is_finished());
    engines[0].discovery().expect("session").collected.len()
}

#[test]
fn discovery_collects_everything_on_a_line() {
    let config = PdsConfig::default();
    let mut es = engines(4, &config);
    for (i, e) in es.iter_mut().enumerate() {
        for k in 0..10u32 {
            e.store_mut().insert_own(entry(i as u32 * 10 + k), None);
        }
    }
    let adj = line(4);
    let collected = run_discovery(&mut es, &adj);
    assert_eq!(collected, 40, "all entries from all 4 nodes discovered");
    // Opportunistic caching: the relay (node 1) saw everything that was
    // transmitted — the other 3 nodes' entries (its own included). The
    // consumer's own 10 entries never go on the air (it answers its own
    // query locally), so the relay holds 30.
    assert_eq!(es[1].store().metadata_len(), 30);
}

#[test]
fn discovery_respects_filters() {
    let config = PdsConfig::default();
    let mut es = engines(2, &config);
    es[1].store_mut().insert_own(
        DataDescriptor::builder()
            .attr("type", "no2")
            .attr("seq", 1i64)
            .build(),
        None,
    );
    es[1].store_mut().insert_own(
        DataDescriptor::builder()
            .attr("type", "co2")
            .attr("seq", 2i64)
            .build(),
        None,
    );
    let adj = line(2);
    let now = t(0.0);
    let filter = QueryFilter::new(vec![Predicate::new("type", Relation::Eq, "no2")]);
    let start = es[0].start_discovery(now, filter);
    pump(
        &mut es,
        &adj,
        start.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    let s = es[0].discovery().expect("session");
    assert_eq!(s.collected.len(), 1, "only the no2 entry matches");
}

#[test]
fn duplicate_query_copies_are_discarded() {
    let config = PdsConfig::default();
    let mut es = engines(2, &config);
    es[1].store_mut().insert_own(entry(1), None);
    let now = t(0.0);
    let start = es[0].start_discovery(now, QueryFilter::match_all());
    let PdsMessage::Query(q) = start[0].message.clone() else {
        panic!()
    };
    let first = es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q.clone()));
    assert!(!first.is_empty(), "first copy answered");
    let second = es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q));
    assert!(second.is_empty(), "redundant copy discarded (LQT lookup)");
}

#[test]
fn duplicate_response_copies_are_discarded() {
    let config = PdsConfig::default();
    let mut es = engines(2, &config);
    let now = t(0.0);
    // A lingering query so the response would otherwise be relayed.
    let start = es[0].start_discovery(now, QueryFilter::match_all());
    let PdsMessage::Query(q) = start[0].message.clone() else {
        panic!()
    };
    es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q));
    let r = ResponseMessage {
        id: crate::ids::ResponseId(77),
        sender: NodeId(9),
        kind: ResponseKind::Metadata {
            entries: vec![entry(1)],
        },
    };
    let first = es[1].handle_message(now, NodeId(9), true, PdsMessage::Response(r.clone()));
    assert!(!first.is_empty(), "first copy relayed");
    let second = es[1].handle_message(now, NodeId(9), true, PdsMessage::Response(r));
    assert!(second.is_empty(), "redundant copy discarded (RR lookup)");
}

#[test]
fn lingering_query_routes_multiple_responses() {
    // Relay node 1 holds a lingering query from node 0; two providers
    // return responses at different times — both are relayed (unlike a
    // one-shot Interest).
    let config = PdsConfig::default();
    let mut es = engines(2, &config);
    let now = t(0.0);
    let start = es[0].start_discovery(now, QueryFilter::match_all());
    let PdsMessage::Query(q) = start[0].message.clone() else {
        panic!()
    };
    es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q));
    for (rid, seq) in [(1u64, 1u32), (2, 2)] {
        let r = ResponseMessage {
            id: crate::ids::ResponseId(rid),
            sender: NodeId(8),
            kind: ResponseKind::Metadata {
                entries: vec![entry(seq)],
            },
        };
        let out = es[1].handle_message(now, NodeId(8), true, PdsMessage::Response(r));
        let relayed = out
            .iter()
            .filter(|o| matches!(o.message, PdsMessage::Response(_)))
            .count();
        assert_eq!(relayed, 1, "response {rid} relayed by lingering query");
        assert_eq!(out[0].intended, vec![NodeId(0)]);
    }
}

/// Starts a small-data retrieval or, if `small_data` is false, a metadata
/// discovery over everything.
fn start_pdd(e: &mut PdsEngine, now: SimTime, small_data: bool) -> Vec<Outgoing> {
    if small_data {
        e.start_small_data_retrieval(now, QueryFilter::match_all())
    } else {
        e.start_discovery(now, QueryFilter::match_all())
    }
}

/// A response from a far node carrying entries `seqs`, as small items with
/// payloads or as bare metadata.
fn pdd_response(id: u64, seqs: &[u32], small_data: bool) -> PdsMessage {
    let entries = seqs.iter().map(|&k| entry(k));
    let kind = if small_data {
        ResponseKind::SmallData {
            items: entries.map(|d| (d, Bytes::from_static(b"v"))).collect(),
        }
    } else {
        ResponseKind::Metadata {
            entries: entries.collect(),
        }
    };
    PdsMessage::Response(ResponseMessage {
        id: crate::ids::ResponseId(id),
        sender: NodeId(8),
        kind,
    })
}

/// Under the one-shot ablation, a relay forwards the first response to a
/// lingering query and then drops the query, for either entry kind.
fn check_one_shot_ablation_consumes_query(small_data: bool) {
    let config = PdsConfig {
        one_shot_queries: true,
        ..PdsConfig::default()
    };
    let mut es = engines(2, &config);
    let now = t(0.0);
    let start = start_pdd(&mut es[0], now, small_data);
    let PdsMessage::Query(q) = start[0].message.clone() else {
        panic!()
    };
    es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q));
    let out1 = es[1].handle_message(now, NodeId(8), true, pdd_response(1, &[1], small_data));
    assert!(
        !out1.is_empty(),
        "first response relayed (small data: {small_data})"
    );
    let out2 = es[1].handle_message(now, NodeId(8), true, pdd_response(2, &[2], small_data));
    assert!(
        out2.is_empty(),
        "one-shot query already consumed (small data: {small_data})"
    );
}

#[test]
fn one_shot_ablation_consumes_query() {
    check_one_shot_ablation_consumes_query(false);
}

#[test]
fn small_data_one_shot_ablation_consumes_query() {
    check_one_shot_ablation_consumes_query(true);
}

#[test]
fn mixedcast_joins_overlapping_consumers() {
    // Node 2 holds lingering queries from consumers 0 and 1; one response
    // with entries for both is relayed as a single joint message.
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    let now = t(0.0);
    for consumer in [0usize, 1] {
        let start = es[consumer].start_discovery(now, QueryFilter::match_all());
        let PdsMessage::Query(q) = start[0].message.clone() else {
            panic!()
        };
        es[2].handle_message(now, NodeId(consumer as u32), true, PdsMessage::Query(q));
    }
    let r = ResponseMessage {
        id: crate::ids::ResponseId(5),
        sender: NodeId(9),
        kind: ResponseKind::Metadata {
            entries: vec![entry(1), entry(2)],
        },
    };
    let out = es[2].handle_message(now, NodeId(9), true, PdsMessage::Response(r));
    let responses: Vec<_> = out
        .iter()
        .filter(|o| matches!(o.message, PdsMessage::Response(_)))
        .collect();
    assert_eq!(responses.len(), 1, "mixedcast: one joint response");
    let mut intended = responses[0].intended.clone();
    intended.sort();
    assert_eq!(intended, vec![NodeId(0), NodeId(1)]);
}

#[test]
fn mixedcast_disabled_sends_per_consumer() {
    let config = PdsConfig {
        mixedcast: false,
        ..PdsConfig::default()
    };
    for small_data in [false, true] {
        let mut es = engines(3, &config);
        let now = t(0.0);
        for consumer in [0usize, 1] {
            let start = start_pdd(&mut es[consumer], now, small_data);
            let PdsMessage::Query(q) = start[0].message.clone() else {
                panic!()
            };
            es[2].handle_message(now, NodeId(consumer as u32), true, PdsMessage::Query(q));
        }
        let out = es[2].handle_message(now, NodeId(9), true, pdd_response(5, &[1], small_data));
        let responses: Vec<&Outgoing> = out
            .iter()
            .filter(|o| matches!(o.message, PdsMessage::Response(_)))
            .collect();
        assert_eq!(
            responses.len(),
            2,
            "one response per consumer (small data: {small_data})"
        );
        assert!(responses.iter().all(|o| matches!(
            &o.message,
            PdsMessage::Response(r) if matches!(r.kind, ResponseKind::SmallData { .. }) == small_data
        )));
        let mut intended: Vec<NodeId> = responses.iter().flat_map(|o| o.intended.clone()).collect();
        intended.sort();
        assert_eq!(intended, vec![NodeId(0), NodeId(1)]);
    }
}

#[test]
fn rewriting_prunes_already_seen_entries() {
    let config = PdsConfig::default();
    let mut es = engines(2, &config);
    let now = t(0.0);
    let start = es[0].start_discovery(now, QueryFilter::match_all());
    let PdsMessage::Query(q) = start[0].message.clone() else {
        panic!()
    };
    es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q));
    // First provider returns e1+e2; both relayed and recorded in the bloom.
    let r1 = ResponseMessage {
        id: crate::ids::ResponseId(1),
        sender: NodeId(8),
        kind: ResponseKind::Metadata {
            entries: vec![entry(1), entry(2)],
        },
    };
    let out1 = es[1].handle_message(now, NodeId(8), true, PdsMessage::Response(r1));
    assert_eq!(out1.len(), 1);
    // Second provider returns e2+e3; only e3 survives pruning.
    let r2 = ResponseMessage {
        id: crate::ids::ResponseId(2),
        sender: NodeId(7),
        kind: ResponseKind::Metadata {
            entries: vec![entry(2), entry(3)],
        },
    };
    let out2 = es[1].handle_message(now, NodeId(7), true, PdsMessage::Response(r2));
    assert_eq!(out2.len(), 1);
    let PdsMessage::Response(relayed) = &out2[0].message else {
        panic!()
    };
    let ResponseKind::Metadata { entries } = &relayed.kind else {
        panic!()
    };
    assert_eq!(entries.len(), 1, "duplicate entry pruned en-route");
    assert_eq!(entries[0], entry(3));
}

#[test]
fn rewriting_disabled_forwards_duplicates() {
    let config = PdsConfig {
        rewrite: false,
        ..PdsConfig::default()
    };
    let mut es = engines(2, &config);
    let now = t(0.0);
    let start = es[0].start_discovery(now, QueryFilter::match_all());
    let PdsMessage::Query(q) = start[0].message.clone() else {
        panic!()
    };
    es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q));
    for rid in [1u64, 2] {
        let r = ResponseMessage {
            id: crate::ids::ResponseId(rid),
            sender: NodeId(8),
            kind: ResponseKind::Metadata {
                entries: vec![entry(1)],
            },
        };
        let out = es[1].handle_message(now, NodeId(8), true, PdsMessage::Response(r));
        assert_eq!(out.len(), 1, "ablation: duplicate forwarded anyway");
    }
}

#[test]
fn the_receivers_of_a_query_share_its_filter_until_one_writes() {
    // Node 0 floods to nodes 1 and 2. Its filter covers node 1's entry,
    // not node 2's.
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    es[1].store_mut().insert_own(entry(1), None);
    es[2].store_mut().insert_own(entry(2), None);
    let mut bloom = BloomFilter::with_round(BloomParams::optimal(100, 0.01), 1);
    bloom.insert(entry(1).encode());
    let now = t(0.0);
    let own = es[0].own_query(
        0,
        now,
        QueryKind::Metadata,
        QueryFilter::match_all(),
        Some(bloom.encode()),
        1,
    );
    let PdsMessage::Query(q) = &own.message else {
        panic!("a query")
    };
    let id = q.id;
    let wire = own.message.encode();
    // Where a node's lingering filter keeps its bits.
    let bits = |e: &PdsEngine| {
        let l = e.lqt().get(id).expect("lingering");
        l.bloom.as_ref().expect("a filter").as_ref().as_ptr()
    };
    let within = |p: *const u8| wire.as_ptr_range().contains(&p);
    let mut forwards = Vec::new();
    for n in [1, 2] {
        let message = PdsMessage::decode(&wire).expect("decodes");
        let out = es[n].handle_received(now, NodeId(0), true, &message, &wire);
        let forward = out
            .into_iter()
            .find(|o| matches!(o.message, PdsMessage::Query(_)))
            .expect("a forward");
        forwards.push(forward.message);
    }
    // Node 1 answers nothing and writes nothing: its filter is a view of
    // the bytes it received. Node 2 wrote entry 2 into its own copy.
    assert!(within(bits(&es[1])), "a view of the received bytes");
    assert!(!within(bits(&es[2])), "the writer's copy is its own");
    let forwarded = |m: &PdsMessage| match m {
        PdsMessage::Query(fq) => BloomFilter::decode(fq.bloom.as_deref().expect("a filter")),
        PdsMessage::Response(_) => panic!("a query"),
    };
    assert_eq!(
        forwarded(&forwards[0]),
        Ok(bloom.clone()),
        "sent on as received"
    );
    let rewritten = forwarded(&forwards[1]).expect("decodes");
    assert!(rewritten.contains(entry(2).encode()) && rewritten.contains(entry(1).encode()));
    // Node 1's bits, and the bytes node 0 sent, are as they were.
    let held = es[1].lqt().get(id).and_then(|l| l.bloom.as_ref());
    assert_eq!(held, Some(&bloom));
    assert_eq!(wire, own.message.encode());
}

#[test]
fn query_bloom_rewritten_before_forwarding() {
    // Node 1 holds e1 and forwards the query; the forwarded bloom must
    // cover e1 so node 2 (also holding e1, plus e2) only returns e2.
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    es[1].store_mut().insert_own(entry(1), None);
    es[2].store_mut().insert_own(entry(1), None);
    es[2].store_mut().insert_own(entry(2), None);
    let now = t(0.0);
    let start = es[0].start_discovery(now, QueryFilter::match_all());
    let PdsMessage::Query(q) = start[0].message.clone() else {
        panic!()
    };
    let out1 = es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q));
    let forwarded = out1
        .iter()
        .find_map(|o| match &o.message {
            PdsMessage::Query(fq) => Some(fq.clone()),
            PdsMessage::Response(_) => None,
        })
        .expect("query forwarded");
    assert_eq!(forwarded.sender, NodeId(1), "sender rewritten per hop");
    assert!(forwarded.bloom.is_some(), "bloom attached by rewriting");
    let out2 = es[2].handle_message(now, NodeId(1), true, PdsMessage::Query(forwarded));
    let response = out2
        .iter()
        .find_map(|o| match &o.message {
            PdsMessage::Response(r) => Some(r.clone()),
            PdsMessage::Query(_) => None,
        })
        .expect("node 2 responds");
    let ResponseKind::Metadata { entries } = &response.kind else {
        panic!()
    };
    assert_eq!(entries.len(), 1, "e1 pruned by the rewritten query bloom");
    assert_eq!(entries[0], entry(2));
}

#[test]
fn small_data_retrieval_delivers_payloads() {
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    for k in 0..5u32 {
        let d = entry(k);
        es[2]
            .store_mut()
            .insert_own(d, Some(Bytes::from(vec![k as u8; 64])));
    }
    let adj = line(3);
    let now = t(0.0);
    let start = es[0].start_small_data_retrieval(now, QueryFilter::match_all());
    pump(
        &mut es,
        &adj,
        start.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    let s = es[0].discovery().expect("session");
    assert_eq!(s.collected.len(), 5);
    // Payloads landed in the consumer's store.
    for k in 0..5u32 {
        assert!(es[0].store().small_payload(&entry(k)).is_some());
    }
    // The relay opportunistically cached payloads too.
    assert!(es[1].store().small_payload(&entry(0)).is_some());
}

#[test]
fn small_data_collects_only_items_whose_payload_it_holds() {
    // The consumer has overheard node 2's metadata but holds none of its
    // payloads, and node 2 is out of range in round 0. Those items count as
    // collected only once their payloads arrive, so the later rounds' Bloom
    // filters must not suppress them.
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    for k in 0..10u32 {
        let holder = if k < 5 { 2 } else { 1 };
        es[holder]
            .store_mut()
            .insert_own(entry(k), Some(Bytes::from(vec![k as u8; 16])));
    }
    for k in 0..5u32 {
        es[0].store_mut().cache_metadata(entry(k), t(1000.0));
    }
    let apart = vec![vec![1], vec![0], vec![]];
    let adj = line(3);
    let mut now = t(0.0);
    let mut out = es[0].start_small_data_retrieval(now, QueryFilter::match_all());
    pump(
        &mut es,
        &apart,
        out.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    for _ in 0..40 {
        now += SimDuration::from_millis(400);
        out = es[0].poll(now);
        pump(
            &mut es,
            &adj,
            out.into_iter().map(|o| (0, o)).collect(),
            now,
        );
        if es[0].discovery().expect("session").is_finished() {
            break;
        }
    }
    let s = es[0].discovery().expect("session");
    assert!(s.is_finished());
    let held = (0..10u32)
        .filter(|&k| es[0].store().small_payload(&entry(k)).is_some())
        .count();
    assert_eq!(s.collected.len(), held, "collected without the payload");
    assert_eq!(held, 10);
}

// ---- PDR ------------------------------------------------------------------

/// Full PDR run on a topology; returns the consumer's report.
fn run_pdr(
    es: &mut [PdsEngine],
    adj: &[Vec<usize>],
    descriptor: DataDescriptor,
    mdr: bool,
) -> crate::sessions::RetrievalReport {
    let mut now = t(0.0);
    let start = if mdr {
        es[0].start_mdr_retrieval(now, descriptor)
    } else {
        es[0].start_retrieval(now, descriptor)
    };
    pump(es, adj, start.into_iter().map(|o| (0, o)).collect(), now);
    for _ in 0..80 {
        now += SimDuration::from_millis(400);
        let out = es[0].poll(now);
        pump(es, adj, out.into_iter().map(|o| (0, o)).collect(), now);
        if es[0].retrieval().expect("session").is_finished() {
            break;
        }
    }
    es[0].retrieval().expect("session").report()
}

fn seed_chunks(e: &mut PdsEngine, desc: &DataDescriptor, ids: &[u32]) {
    for &c in ids {
        e.store_mut()
            .insert_chunk(desc, ChunkId(c), Bytes::from(vec![c as u8; 512]));
    }
}

#[test]
fn pdr_retrieves_across_multiple_hops() {
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    let desc = video("vid", 4);
    seed_chunks(&mut es[2], &desc, &[0, 1, 2, 3]);
    let adj = line(3);
    let report = run_pdr(&mut es, &adj, desc.clone(), false);
    assert!(
        (report.recall - 1.0).abs() < 1e-9,
        "recall = {}",
        report.recall
    );
    assert_eq!(report.received_chunks, 4);
    // Opportunistic caching: the relay holds the chunks now.
    assert_eq!(es[1].store().chunk_ids(&ItemName::new("vid")).len(), 4);
    assert_eq!(es[0].store().chunk_ids(&ItemName::new("vid")).len(), 4);
}

#[test]
fn chunk_ids_outside_the_item_do_not_count() {
    let desc = video("vid", 2);
    let chunk = |c: u32| {
        PdsMessage::Response(crate::message::ResponseMessage {
            id: crate::ids::ResponseId(100 + u64::from(c)),
            sender: NodeId(1),
            kind: ResponseKind::Chunk {
                descriptor: desc.clone(),
                chunk: ChunkId(c),
                data: Bytes::from(vec![0u8; 16]),
            },
        })
    };
    for mdr in [false, true] {
        let mut e = PdsEngine::new(NodeId(0), PdsConfig::default(), 1);
        if mdr {
            e.start_mdr_retrieval(t(0.0), desc.clone());
        } else {
            e.start_retrieval(t(0.0), desc.clone());
        }
        for c in [0, 2 + 3] {
            e.handle_message(t(0.1), NodeId(1), true, chunk(c));
        }
        if mdr {
            e.poll(t(0.4));
            let s = e.retrieval().expect("session");
            assert!(!s.is_finished(), "chunk 1 is still missing");
        } else {
            let r = e.retrieval().expect("session").report();
            assert_eq!(r.received_chunks, 1);
            assert!((r.recall - 0.5).abs() < 1e-12, "recall = {}", r.recall);
        }
    }
}

#[test]
fn chunk_responses_outside_the_item_are_dropped() {
    let desc = video("vid", 2);
    let vid = ItemName::new("vid");
    let mut e = PdsEngine::new(NodeId(0), PdsConfig::default(), 1);
    for c in [0, 5] {
        let response = PdsMessage::Response(ResponseMessage {
            id: crate::ids::ResponseId(100 + u64::from(c)),
            sender: NodeId(1),
            kind: ResponseKind::Chunk {
                descriptor: desc.clone(),
                chunk: ChunkId(c),
                data: Bytes::from(vec![0u8; 16]),
            },
        });
        e.handle_message(t(0.1), NodeId(1), true, response);
    }
    assert_eq!(e.store().chunk_ids(&vid), vec![ChunkId(0)]);
    let cdi_query = crate::message::QueryMessage {
        id: crate::ids::QueryId(500),
        kind: QueryKind::Cdi {
            descriptor: desc.clone(),
        },
        sender: NodeId(2),
        expires_at: t(30.0),
        filter: QueryFilter::match_all(),
        bloom: None,
        round: 0,
        ttl_hops: 0,
    };
    let out = e.handle_message(t(0.2), NodeId(2), true, PdsMessage::Query(cdi_query));
    let pairs: Vec<(ChunkId, u32)> = out
        .iter()
        .filter_map(|o| match &o.message {
            PdsMessage::Response(r) => match &r.kind {
                ResponseKind::Cdi { pairs, .. } => Some(pairs.clone()),
                _ => None,
            },
            PdsMessage::Query(_) => None,
        })
        .flatten()
        .collect();
    assert_eq!(pairs, vec![(ChunkId(0), 0)], "chunk 5 is not announced");
}

#[test]
fn a_relayed_chunk_response_is_the_received_one() {
    // Node 1 lingers a chunk query of node 0's, then hears the chunk from
    // its server, node 2.
    let desc = video("vid", 2);
    let mut e = PdsEngine::new(NodeId(1), PdsConfig::default(), 1);
    let query = crate::message::QueryMessage {
        id: crate::ids::QueryId(500),
        kind: QueryKind::Chunks {
            item: ItemName::new("vid"),
            chunks: vec![ChunkId(1)],
        },
        sender: NodeId(0),
        expires_at: t(30.0),
        filter: QueryFilter::match_all(),
        bloom: None,
        round: 0,
        ttl_hops: 0,
    };
    let _ = e.handle_message(t(0.1), NodeId(0), true, PdsMessage::Query(query));
    let received = PdsMessage::Response(ResponseMessage {
        id: crate::ids::ResponseId(9),
        sender: NodeId(2),
        kind: ResponseKind::Chunk {
            descriptor: desc,
            chunk: ChunkId(1),
            data: Bytes::from(vec![1u8; 512]),
        },
    });
    let wire = received.encode();
    let message = PdsMessage::decode(&wire).expect("decodes");
    let out = e.handle_received(t(0.2), NodeId(2), true, &message, &wire);
    let [relay] = &out[..] else {
        panic!("one relay, got {out:?}");
    };
    assert_eq!(relay.message, received, "id, sender and chunk unchanged");
    assert_eq!(relay.intended, vec![NodeId(0)]);
    let sent = relay.wire.as_ref().expect("the received bytes");
    assert_eq!(sent.as_ptr(), wire.as_ptr(), "the received buffer itself");
}

#[test]
fn cdi_pairs_outside_the_item_are_not_routed() {
    let desc = video("vid", 2);
    let vid = ItemName::new("vid");
    let cdi_query = |id: u64, sender: u32| crate::message::QueryMessage {
        id: crate::ids::QueryId(id),
        kind: QueryKind::Cdi {
            descriptor: desc.clone(),
        },
        sender: NodeId(sender),
        expires_at: t(30.0),
        filter: QueryFilter::match_all(),
        bloom: None,
        round: 0,
        ttl_hops: 0,
    };
    let cdi_pairs = |out: &[Outgoing]| -> Vec<(ChunkId, u32)> {
        out.iter()
            .filter_map(|o| match &o.message {
                PdsMessage::Response(r) => match &r.kind {
                    ResponseKind::Cdi { pairs, .. } => Some(pairs.clone()),
                    _ => None,
                },
                PdsMessage::Query(_) => None,
            })
            .flatten()
            .collect()
    };
    // How the node knows the item's two chunks: from a CDI query it
    // lingers (which also caches the item's metadata), from its own
    // retrieval, from stored metadata alone, from the lingering query
    // alone; or not at all.
    for source in ["query", "retrieval", "metadata", "lqt", "none"] {
        let mut e = PdsEngine::new(NodeId(0), PdsConfig::default(), 1);
        match source {
            "query" => {
                e.handle_message(
                    t(0.1),
                    NodeId(2),
                    true,
                    PdsMessage::Query(cdi_query(500, 2)),
                );
            }
            "retrieval" => {
                e.start_retrieval(t(0.1), desc.clone());
            }
            "metadata" => {
                e.store.cache_metadata(desc.clone(), t(100.0));
            }
            "lqt" => {
                e.lqt.insert(cdi_query(500, 2), NodeId(2));
            }
            _ => {}
        }
        let response = PdsMessage::Response(ResponseMessage {
            id: crate::ids::ResponseId(100),
            sender: NodeId(1),
            kind: ResponseKind::Cdi {
                item: vid.clone(),
                pairs: vec![(ChunkId(0), 0), (ChunkId(5), 0)],
            },
        });
        let relayed = e.handle_message(t(0.2), NodeId(1), true, response);
        let out = e.handle_message(
            t(0.3),
            NodeId(3),
            true,
            PdsMessage::Query(cdi_query(501, 3)),
        );
        let known = source != "none";
        let want: &[(ChunkId, u32)] = if known {
            &[(ChunkId(0), 1)]
        } else {
            &[(ChunkId(0), 1), (ChunkId(5), 1)]
        };
        assert_eq!(cdi_pairs(&out), want, "{source}: the reply");
        assert_eq!(
            e.cdi.best_hops(&vid, ChunkId(5), t(0.3)).is_some(),
            !known,
            "{source}: the route"
        );
        if source == "query" || source == "lqt" {
            assert_eq!(cdi_pairs(&relayed), want, "{source}: the relay upstream");
        }
    }
}

#[test]
fn pdr_cdi_learns_distances() {
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    let desc = video("vid", 2);
    seed_chunks(&mut es[2], &desc, &[0, 1]);
    let adj = line(3);
    let now = t(0.0);
    let start = es[0].start_retrieval(now, desc);
    pump(
        &mut es,
        &adj,
        start.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    let item = ItemName::new("vid");
    // Node 1 sees the chunks one hop away (via node 2); node 0 two hops
    // (via node 1).
    assert_eq!(es[1].cdi.best_hops(&item, ChunkId(0), now), Some(1));
    assert_eq!(es[0].cdi.best_hops(&item, ChunkId(0), now), Some(2));
    assert_eq!(
        es[0].cdi.candidates(&item, ChunkId(0), now),
        vec![(NodeId(1), 2)]
    );
}

#[test]
fn pdr_splits_load_between_equal_providers() {
    // Consumer 0 with two neighbors (1 and 2) both holding all 6 chunks:
    // the wave must split the requests.
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    let desc = video("vid", 6);
    seed_chunks(&mut es[1], &desc, &[0, 1, 2, 3, 4, 5]);
    seed_chunks(&mut es[2], &desc, &[0, 1, 2, 3, 4, 5]);
    let adj = vec![vec![1, 2], vec![0], vec![0]]; // star centered at 0
    let mut now = t(0.0);
    let start = es[0].start_retrieval(now, desc);
    pump(
        &mut es,
        &adj,
        start.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    now += SimDuration::from_millis(400);
    let wave = es[0].poll(now);
    let chunk_queries: Vec<_> = wave
        .iter()
        .filter_map(|o| match &o.message {
            PdsMessage::Query(q) => match &q.kind {
                QueryKind::Chunks { chunks, .. } => Some((o.intended.clone(), chunks.len())),
                _ => None,
            },
            PdsMessage::Response(_) => None,
        })
        .collect();
    assert_eq!(chunk_queries.len(), 2, "one sub-query per neighbor");
    assert_eq!(chunk_queries[0].1 + chunk_queries[1].1, 6);
    assert_eq!(chunk_queries[0].1, 3, "min-max heuristic balances 3/3");
    pump(
        &mut es,
        &adj,
        wave.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    assert_eq!(
        es[0].retrieval().expect("session").received.len(),
        6,
        "all chunks arrive"
    );
}

#[test]
fn pdr_partial_copies_are_combined() {
    // Different chunks live on different providers; PDR must fetch each
    // from whoever has it.
    let config = PdsConfig::default();
    let mut es = engines(4, &config);
    let desc = video("vid", 4);
    seed_chunks(&mut es[1], &desc, &[0, 1]);
    seed_chunks(&mut es[3], &desc, &[2, 3]);
    // 0 - 1 - 2 - 3 line; chunks 2,3 are three hops away.
    let adj = line(4);
    let report = run_pdr(&mut es, &adj, desc, false);
    assert!(
        (report.recall - 1.0).abs() < 1e-9,
        "recall = {}",
        report.recall
    );
}

#[test]
fn pdr_already_cached_item_finishes_instantly() {
    let config = PdsConfig::default();
    let mut es = engines(1, &config);
    let desc = video("vid", 2);
    seed_chunks(&mut es[0], &desc, &[0, 1]);
    let out = es[0].start_retrieval(t(0.0), desc);
    assert!(out.is_empty(), "nothing to send");
    let s = es[0].retrieval().expect("session");
    assert!(s.is_finished());
    assert!((s.report().recall - 1.0).abs() < 1e-9);
}

#[test]
fn pdr_recovers_when_cdi_is_initially_empty() {
    // No provider at first; one appears before the recovery re-flood.
    let config = PdsConfig::default();
    let mut es = engines(2, &config);
    let desc = video("vid", 1);
    let adj = line(2);
    let mut now = t(0.0);
    let start = es[0].start_retrieval(now, desc.clone());
    pump(
        &mut es,
        &adj,
        start.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    // Provider appears late.
    seed_chunks(&mut es[1], &desc, &[0]);
    // Poll past PHASE1_TIMEOUT: the consumer re-floods the CDI query.
    for _ in 0..30 {
        now += SimDuration::from_millis(500);
        let out = es[0].poll(now);
        pump(
            &mut es,
            &adj,
            out.into_iter().map(|o| (0, o)).collect(),
            now,
        );
        if es[0].retrieval().expect("session").is_finished() {
            break;
        }
    }
    let report = es[0].retrieval().expect("session").report();
    assert!(
        (report.recall - 1.0).abs() < 1e-9,
        "recall = {}",
        report.recall
    );
    assert!(
        report.recovery_attempts >= 1,
        "needed at least one recovery"
    );
}

#[test]
fn pdr_gives_up_after_recovery_budget() {
    let mut es = engines(2, &PdsConfig::default());
    let desc = video("vid", 1); // nobody has it
    let adj = line(2);
    let mut now = t(0.0);
    let start = es[0].start_retrieval(now, desc);
    pump(
        &mut es,
        &adj,
        start.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    // Each re-query waits out the 2 s CDI phase timeout: 4 polls apiece.
    for _ in 0..(crate::config::MAX_RECOVERY + 2) * 4 {
        now += SimDuration::from_millis(500);
        let out = es[0].poll(now);
        pump(
            &mut es,
            &adj,
            out.into_iter().map(|o| (0, o)).collect(),
            now,
        );
        if es[0].retrieval().expect("session").is_finished() {
            break;
        }
    }
    let report = es[0].retrieval().expect("session").report();
    assert_eq!(report.phase, RetrievalPhase::Done);
    assert_eq!(report.received_chunks, 0, "item does not exist");
    assert_eq!(
        report.recovery_attempts,
        crate::config::MAX_RECOVERY,
        "one per re-query sent"
    );
}

// ---- MDR -------------------------------------------------------------------

#[test]
fn mdr_retrieves_across_multiple_hops() {
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    let desc = video("vid", 4);
    seed_chunks(&mut es[2], &desc, &[0, 1, 2, 3]);
    let adj = line(3);
    let report = run_pdr(&mut es, &adj, desc, true);
    assert!(
        (report.recall - 1.0).abs() < 1e-9,
        "recall = {}",
        report.recall
    );
}

#[test]
fn mdr_bloom_suppresses_duplicate_providers() {
    // Two providers behind the same relay hold the same chunk; the relay
    // must forward it only once (redundancy detection, §VI-B-3).
    let config = PdsConfig::default();
    let mut es = engines(4, &config);
    let desc = video("vid", 1);
    seed_chunks(&mut es[2], &desc, &[0]);
    seed_chunks(&mut es[3], &desc, &[0]);
    // Star: 0 - 1, 1 - 2, 1 - 3 (driven manually below).
    let now = t(0.0);
    let start = es[0].start_mdr_retrieval(now, desc);
    let PdsMessage::Query(q) = start[0].message.clone() else {
        panic!()
    };
    // Relay processes the flood.
    let out1 = es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q));
    let fq = out1
        .iter()
        .find_map(|o| match &o.message {
            PdsMessage::Query(fq) => Some(fq.clone()),
            PdsMessage::Response(_) => None,
        })
        .expect("forwarded");
    // Both providers answer with the same chunk.
    let r2 = es[2].handle_message(now, NodeId(1), true, PdsMessage::Query(fq.clone()));
    let r3 = es[3].handle_message(now, NodeId(1), true, PdsMessage::Query(fq));
    let chunk_resp = |outs: &[Outgoing]| {
        outs.iter()
            .find_map(|o| match &o.message {
                PdsMessage::Response(r) => Some(r.clone()),
                PdsMessage::Query(_) => None,
            })
            .expect("provider responds")
    };
    let relay1 = es[1].handle_message(now, NodeId(2), true, PdsMessage::Response(chunk_resp(&r2)));
    assert_eq!(relay1.len(), 1, "first copy relayed to consumer");
    let relay2 = es[1].handle_message(now, NodeId(3), true, PdsMessage::Response(chunk_resp(&r3)));
    assert!(
        relay2.is_empty(),
        "second copy suppressed by the rewritten bloom"
    );
}

#[test]
fn cdi_relay_forwards_only_improvements() {
    // Relay 1 holds a lingering CDI query from consumer 0. Two CDI
    // responses arrive: the second repeats a known distance (pruned) but
    // improves another chunk (forwarded).
    let config = PdsConfig::default();
    let mut es = engines(2, &config);
    let now = t(0.0);
    let desc = video("vid", 2);
    let cdi_query = crate::message::QueryMessage {
        id: crate::ids::QueryId(500),
        kind: QueryKind::Cdi {
            descriptor: desc.clone(),
        },
        sender: NodeId(0),
        expires_at: t(30.0),
        filter: crate::predicate::QueryFilter::match_all(),
        bloom: None,
        round: 0,
        ttl_hops: 0,
    };
    es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(cdi_query));
    let cdi_resp = |rid: u64, pairs: Vec<(ChunkId, u32)>| {
        PdsMessage::Response(ResponseMessage {
            id: crate::ids::ResponseId(rid),
            sender: NodeId(7),
            kind: ResponseKind::Cdi {
                item: ItemName::new("vid"),
                pairs,
            },
        })
    };
    // First: chunk 0 at distance 2 (observed as 3 via node 7).
    let out1 = es[1].handle_message(now, NodeId(7), true, cdi_resp(1, vec![(ChunkId(0), 2)]));
    let relayed1 = out1
        .iter()
        .filter(|o| matches!(o.message, PdsMessage::Response(_)))
        .count();
    assert_eq!(relayed1, 1, "first report forwarded");
    // Second: chunk 0 unchanged (pruned), chunk 1 new (forwarded).
    let out2 = es[1].handle_message(
        now,
        NodeId(7),
        true,
        cdi_resp(2, vec![(ChunkId(0), 2), (ChunkId(1), 0)]),
    );
    let pairs: Vec<_> = out2
        .iter()
        .filter_map(|o| match &o.message {
            PdsMessage::Response(r) => match &r.kind {
                ResponseKind::Cdi { pairs, .. } => Some(pairs.clone()),
                _ => None,
            },
            _ => None,
        })
        .collect();
    assert_eq!(pairs.len(), 1);
    assert_eq!(
        pairs[0],
        vec![(ChunkId(1), 1)],
        "only the improvement travels"
    );
}

#[test]
fn hop_limit_bounds_discovery_radius() {
    let config = PdsConfig {
        query_hop_limit: Some(2),
        ..PdsConfig::default()
    };
    let mut es = engines(5, &config);
    for (i, e) in es.iter_mut().enumerate() {
        e.store_mut().insert_own(entry(i as u32), None);
    }
    let adj = line(5);
    let collected = run_discovery(&mut es, &adj);
    // Consumer at node 0: hop limit 2 reaches nodes 1 and 2 only (plus its
    // own entry).
    assert_eq!(collected, 3, "entries beyond 2 hops stay undiscovered");
}

#[test]
fn unlimited_hops_reach_everything() {
    let config = PdsConfig::default();
    let mut es = engines(5, &config);
    for (i, e) in es.iter_mut().enumerate() {
        e.store_mut().insert_own(entry(i as u32), None);
    }
    let adj = line(5);
    assert_eq!(run_discovery(&mut es, &adj), 5);
}

#[test]
fn bounded_cache_still_completes_retrieval() {
    // Relays can only cache one chunk at a time; the transfer must still
    // complete (caching is an optimization, not a correctness requirement).
    let mut es = engines(3, &PdsConfig::default());
    for e in &mut es {
        e.store_mut().set_chunk_cache_bytes(600);
    }
    let desc = video("vid", 4);
    seed_chunks(&mut es[2], &desc, &[0, 1, 2, 3]);
    let adj = line(3);
    let report = run_pdr(&mut es, &adj, desc, false);
    assert!(
        (report.recall - 1.0).abs() < 1e-9,
        "recall = {}",
        report.recall
    );
    // The relay's cache stayed within budget, and so did the consumer's:
    // its retrieved copies are cached, not pinned.
    assert!(es[1].store().cached_chunk_bytes() <= 600);
    assert!(es[0].store().cached_chunk_bytes() <= 600);
    assert!(
        es[1].store().chunk_ids(&ItemName::new("vid")).len() < 4,
        "bounded cache cannot hold the whole item"
    );
}

#[test]
fn pending_chunk_marks_are_garbage_collected() {
    let config = PdsConfig::default();
    let mut es = engines(3, &config);
    let desc = video("vid", 2);
    seed_chunks(&mut es[2], &desc, &[0, 1]);
    let adj = line(3);
    let now = t(0.0);
    let start = es[0].start_retrieval(now, desc);
    pump(
        &mut es,
        &adj,
        start.into_iter().map(|o| (0, o)).collect(),
        now,
    );
    // Trigger the wave so node 1 divides and marks chunks pending.
    let wave = es[0].poll(t(0.4));
    pump(
        &mut es,
        &adj,
        wave.into_iter().map(|o| (0, o)).collect(),
        t(0.4),
    );
    // Whatever pending marks remain anywhere, gc at a late time clears them.
    for e in &mut es {
        e.gc(t(1_000.0));
        assert!(e.pending_chunk.is_empty(), "pending marks must expire");
    }
}

#[test]
fn gc_reclaims_protocol_state() {
    let config = PdsConfig::default();
    let mut es = engines(2, &config);
    let now = t(0.0);
    let start = es[0].start_discovery(now, QueryFilter::match_all());
    let PdsMessage::Query(q) = start[0].message.clone() else {
        panic!()
    };
    es[1].handle_message(now, NodeId(0), true, PdsMessage::Query(q));
    es[1].store_mut().cache_metadata(entry(1), t(5.0));
    assert_eq!(es[1].lqt().len(), 1);
    assert_eq!(es[1].store().metadata_len(), 1);
    let late = t(1_000.0);
    es[1].gc(late);
    assert_eq!(es[1].lqt().len(), 0, "lingering query expired");
    assert_eq!(es[1].store().metadata_len(), 0, "cached entry expired");
}

// ---- the zero-copy metadata path ------------------------------------------

#[test]
fn header_peek_agrees_with_decode_on_every_kind_and_truncation() {
    for message in one_of_each_kind() {
        let wire = message.encode();
        let header = MessageHeader::peek(&wire).expect("a whole message has a header");
        assert_eq!(header.phase(), message.phase(), "{message:?}");
        let head_len = match (&message, header) {
            (PdsMessage::Query(q), MessageHeader::Query { id, expires_at, .. }) => {
                assert_eq!((id, expires_at), (q.id, q.expires_at));
                27
            }
            (PdsMessage::Response(r), MessageHeader::Response { id, .. }) => {
                assert_eq!(id, r.id);
                14
            }
            _ => panic!("{header:?} is not the header of {message:?}"),
        };
        // Every truncation: no header until the fixed head is whole, the
        // same header from then on — and a node that has not seen the
        // message calls no prefix redundant, so the decoder gets to
        // reject it.
        let fresh = PdsEngine::new(NodeId(1), PdsConfig::default(), 1);
        for cut in 0..wire.len() {
            let peeked = MessageHeader::peek(&wire.slice(..cut));
            assert_eq!(peeked, (cut >= head_len).then_some(header), "cut {cut}");
            assert!(PdsMessage::decode(&wire.slice(..cut)).is_err(), "cut {cut}");
            assert!(!peeked.is_some_and(|h| fresh.is_redundant(t(0.0), &h)));
        }
        // Once handled, the header alone marks every further copy.
        let mut engine = fresh;
        assert!(!engine.is_redundant(t(0.0), &header));
        engine.handle_message(t(0.0), NodeId(7), true, message.clone());
        assert!(engine.is_redundant(t(0.0), &header), "{message:?}");
        // So does expiry, for a query nobody has seen.
        if matches!(message, PdsMessage::Query(_)) {
            let unseen = PdsEngine::new(NodeId(2), PdsConfig::default(), 2);
            assert!(!unseen.is_redundant(t(12.4), &header));
            assert!(unseen.is_redundant(t(12.5), &header));
        }
    }
    // Unknown message and kind tags have no header.
    let mut wire = one_of_each_kind().swap_remove(0).encode().to_vec();
    wire[26] = 9;
    assert_eq!(MessageHeader::peek(&Bytes::from(wire.clone())), None);
    wire[0] = 2;
    assert_eq!(MessageHeader::peek(&Bytes::from(wire)), None);
}

#[test]
fn node_dropping_on_the_header_matches_engine_fed_decoded_messages() {
    use crate::app::{Application, Command, Context, MessageMemo, MessageMeta};
    use crate::{PdsNode, SimRng};

    // Record everything node 1 hears — fresh and redundant copies, intended
    // and overheard — while node 0 discovers and then retrieves over a
    // line.
    let config = PdsConfig::default();
    let desc = video("vid", 4);
    let mut es = engines(4, &config);
    for (i, e) in es.iter_mut().enumerate() {
        for k in 0..6u32 {
            e.store_mut().insert_own(entry(i as u32 * 10 + k), None);
        }
    }
    seed_chunks(&mut es[3], &desc, &[0, 1, 2, 3]);
    let adj = line(4);
    let mut heard: Vec<(SimTime, NodeId, Vec<NodeId>, PdsMessage)> = Vec::new();
    let mut now = t(0.0);
    let mut started = es[0].start_discovery(now, QueryFilter::match_all());
    for step in 0..30 {
        let record = |to: usize, from: NodeId, out: &Outgoing| {
            if to == 1 {
                heard.push((now, from, out.intended.clone(), out.message.clone()));
            }
        };
        let initial = started.drain(..).map(|o| (0, o)).collect();
        pump_tapped(&mut es, &adj, initial, now, record);
        now += SimDuration::from_millis(400);
        started = es[0].poll(now);
        if step == 10 {
            started.extend(es[0].start_retrieval(now, desc.clone()));
        }
    }
    assert_eq!(es[0].retrieval().expect("session").received.len(), 4);
    // A copy of the first query arriving after its expiry.
    let (_, from, intended, first) = heard[0].clone();
    heard.push((t(1_000.0), from, intended, first));
    let redundant = {
        let mut probe = PdsEngine::new(NodeId(1), config.clone(), 77);
        heard
            .iter()
            .filter(|(at, from, _, m)| probe.handle_message(*at, *from, true, m.clone()).is_empty())
            .count()
    };
    assert!(redundant > heard.len() / 4, "the stream exercises the drop");

    // Replay it into a node (encoded, as off the air) and into a bare
    // engine (decoded), both starting from node 1's initial state.
    let mut node = PdsNode::new(config.clone(), 77);
    let mut engine = PdsEngine::new(NodeId(1), config, 77);
    for k in 0..6u32 {
        node = node.with_metadata(entry(10 + k), None);
        engine.store_mut().insert_own(entry(10 + k), None);
    }
    let mut rng = SimRng::new(5);
    let broadcasts = |ctx: Context| -> Vec<(Bytes, Vec<NodeId>)> {
        ctx.finish()
            .0
            .into_iter()
            .filter_map(|c| match c {
                Command::Broadcast {
                    payload, intended, ..
                } => Some((payload, intended)),
                _ => None,
            })
            .collect()
    };
    // The node sends unjittered output at once and holds jittered output
    // until its send timer, which fires at the latest one slow jitter
    // (100 × `RESPONSE_JITTER`) later.
    let flush_after = crate::config::RESPONSE_JITTER.saturating_mul(100);
    for (at, from, intended, message) in heard {
        let me_intended = intended.is_empty() || intended.contains(&NodeId(1));
        let (at_once, jittered): (Vec<Outgoing>, Vec<Outgoing>) = engine
            .handle_message(at, from, me_intended, message.clone())
            .into_iter()
            .partition(|o| o.jitter == Jitter::None);
        let expected: Vec<(Bytes, Vec<NodeId>)> = at_once
            .into_iter()
            .chain(jittered)
            .map(|o| (o.message.encode(), o.intended))
            .collect();
        let mut ctx = Context::new(at, NodeId(1), 0, 0, &mut rng, Vec::new(), false);
        let meta = MessageMeta {
            from,
            overheard: !me_intended,
            intended: intended.into(),
            wire_bytes: 0,
            memo: MessageMemo::default(),
        };
        node.on_message(&mut ctx, meta, message.encode());
        let mut sent = broadcasts(ctx);
        let mut ctx = Context::new(
            at + flush_after,
            NodeId(1),
            0,
            0,
            &mut rng,
            Vec::new(),
            false,
        );
        node.on_timer(&mut ctx, crate::node::TAG_SEND);
        sent.extend(broadcasts(ctx));
        assert_eq!(sent, expected, "{message:?}");
    }
    assert_eq!(node.decode_errors(), 0);
    let via_node = node.engine().expect("started");
    assert_eq!(
        via_node.store().metadata_len(),
        engine.store().metadata_len()
    );
    let lqt_ids = |e: &PdsEngine| {
        let mut ids: Vec<QueryId> = e.lqt().iter().map(|l| l.query.id).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(lqt_ids(via_node), lqt_ids(&engine));
    assert!(!lqt_ids(&engine).is_empty());
    let recent = |e: &PdsEngine| {
        let mut ids: Vec<(ResponseId, SimTime)> = e
            .recent_responses
            .seen
            .iter()
            .map(|(&id, &at)| (id, at))
            .collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(recent(via_node), recent(&engine));
    assert!(!recent(&engine).is_empty());
}

#[test]
fn an_entry_is_one_allocation_in_store_session_and_relay() {
    // Node 1 is discovering on its own account and relaying for node 0.
    let config = PdsConfig::default();
    let mut es = engines(2, &config);
    let q0 = es[0].start_discovery(t(0.0), QueryFilter::match_all());
    let _ = es[1].start_discovery(t(0.0), QueryFilter::match_all());
    for o in q0 {
        let _ = es[1].handle_message(t(0.0), NodeId(0), true, o.message);
    }
    // A response off the air: its entries exist only as decoded.
    let wire = PdsMessage::Response(ResponseMessage {
        id: ResponseId(9),
        sender: NodeId(2),
        kind: ResponseKind::Metadata {
            entries: vec![entry(1), entry(2)],
        },
    })
    .encode();
    let decoded = PdsMessage::decode(&wire).expect("decodes");
    let relayed = es[1].handle_message(t(0.1), NodeId(2), true, decoded);
    let [Outgoing {
        message: PdsMessage::Response(relayed),
        ..
    }] = &relayed[..]
    else {
        panic!("one relayed response, got {relayed:?}");
    };
    let ResponseKind::Metadata { entries } = &relayed.kind else {
        panic!("metadata relay");
    };
    assert_eq!(entries.len(), 2);
    let session = es[1].discovery().expect("session");
    let stored = es[1]
        .store()
        .match_metadata(&QueryFilter::match_all(), t(0.1));
    for e in entries {
        // The cached encoding lives in the shared allocation: the same
        // slice means the same descriptor, not an equal copy.
        let same = |d: &DataDescriptor| std::ptr::eq(d.encode(), e.encode());
        let collected = session.collected.get(e.encode()).expect("collected");
        assert!(same(collected.descriptor()));
        assert!(std::ptr::eq(collected.as_bytes(), e.encode()));
        assert!(stored.iter().any(|d| same(d)));
        assert!(!same(&entry(1)) && !same(&entry(2)));
        assert!(same(&e.clone()));
    }
}

#[test]
fn a_chunk_is_written_once_per_serve_and_viewed_by_every_receiver() {
    // consumer 0 — relay 1 — holder 2, and node 3 hears only the relay.
    // Over the wire this time, as `PdsNode` sends: a message is encoded
    // unless it carries its wire bytes, every neighbor decodes the one
    // buffer, as the simulator delivers it, and a relay passes it on.
    let config = PdsConfig::default();
    let mut es = engines(4, &config);
    let desc = video("vid", 3);
    let item = ItemName::new("vid");
    seed_chunks(&mut es[2], &desc, &[0, 1, 2]);
    let adj = [vec![1], vec![0, 2, 3], vec![1], vec![1]];
    // Every chunk response as transmitted: (sender, encoded buffer).
    let mut sent: Vec<(usize, Bytes)> = Vec::new();
    let mut now = t(0.0);
    let mut queue: Vec<(usize, Outgoing)> = es[0]
        .start_retrieval(now, desc)
        .into_iter()
        .map(|o| (0, o))
        .collect();
    for _ in 0..80 {
        while let Some((sender, out)) = queue.pop() {
            let wire = out.wire.clone().unwrap_or_else(|| out.message.encode());
            if let PdsMessage::Response(r) = &out.message {
                if matches!(r.kind, ResponseKind::Chunk { .. }) {
                    sent.push((sender, wire.clone()));
                }
            }
            for &nbr in &adj[sender] {
                let me = NodeId(nbr as u32);
                let me_intended = out.intended.is_empty() || out.intended.contains(&me);
                let message = PdsMessage::decode(&wire).expect("decodes");
                let from = NodeId(sender as u32);
                let produced = es[nbr].handle_received(now, from, me_intended, &message, &wire);
                queue.extend(produced.into_iter().map(|p| (nbr, p)));
            }
        }
        if es[0].retrieval().expect("session").is_finished() {
            break;
        }
        now += SimDuration::from_millis(400);
        queue.extend(es[0].poll(now).into_iter().map(|o| (0, o)));
    }
    assert_eq!(
        es[0].retrieval().expect("session").report().received_chunks,
        3
    );

    // Which transmission, if any, the stored chunk is a view of.
    let viewed = |holder: &PdsEngine, c: u32| {
        let data = holder.store().chunk(&item, ChunkId(c)).expect("stored");
        assert_eq!(data, vec![c as u8; 512], "chunk {c} intact");
        sent.iter()
            .find(|(_, wire)| {
                let (outer, inner) = (wire.as_ptr_range(), data.as_ptr_range());
                outer.start <= inner.start && inner.end <= outer.end
            })
            .map(|(sender, _)| *sender)
    };
    for c in 0..3 {
        for (node, who) in [(0, "consumer"), (1, "relay"), (3, "overhearer")] {
            assert_eq!(
                viewed(&es[node], c),
                Some(2),
                "{who} views the served buffer"
            );
        }
        assert_eq!(viewed(&es[2], c), None, "the holder's copy is its own");
    }
    // One write per serve; a relay sends the buffer it received.
    let served: Vec<&Bytes> = sent
        .iter()
        .filter(|(s, _)| *s == 2)
        .map(|(_, w)| w)
        .collect();
    let relayed: Vec<&Bytes> = sent
        .iter()
        .filter(|(s, _)| *s == 1)
        .map(|(_, w)| w)
        .collect();
    assert_eq!((served.len(), relayed.len()), (3, 3));
    for wire in relayed {
        assert!(served.iter().any(|w| w.as_ptr() == wire.as_ptr()));
    }
}

#[test]
fn recent_response_gc_removes_what_a_full_sweep_removes() {
    // The same op sequence on two logs; the twin sweeps at every gc
    // instant (the rule before the expiry bound), the log only when its
    // bound is due.
    let mut rng = crate::SimRng::new(0x4e5);
    let mut skipped = 0;
    for _ in 0..20 {
        let (mut log, mut twin) = (RecentResponses::default(), RecentResponses::default());
        let mut now = 0;
        for _ in 0..400 {
            now += rng.range_u64(0, 6_000_000);
            let at = SimTime::from_micros(now);
            if rng.chance(0.7) {
                // A new id, or an id seen again (its arrival moves later).
                let id = crate::ids::ResponseId(rng.range_u64(0, 40));
                log.insert(id, at);
                twin.insert(id, at);
            } else {
                skipped += usize::from(!log.next_expiry.due(at));
                log.gc(at);
                twin.sweep(at);
                assert_eq!(log.seen, twin.seen);
            }
        }
    }
    assert!(skipped > 0, "no gc was skipped");
}

#[test]
fn an_idle_engine_carries_no_session_slots() {
    // Only a consumer runs a session: until it starts one, each is a
    // pointer's worth of `None`.
    assert_eq!(size_of::<Option<Box<DiscoverySession>>>(), 8);
    assert_eq!(size_of::<Option<Box<RetrievalSession>>>(), 8);
    assert!(size_of::<PdsEngine>() <= 448);
}
