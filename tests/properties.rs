//! Property-based tests (proptest) over the core data structures and
//! invariants: Bloom filters, predicates, codecs, the GAP heuristic, the
//! event queue and the round controller.

use pds_bloom::{BloomFilter, BloomParams};
use pds_core::{
    min_max_assign, AssignStrategy, AttrValue, ChunkId, DataDescriptor, NodeId, PdsMessage,
    Predicate, QueryFilter, QueryId, QueryKind, QueryMessage, Relation, ResponseId, ResponseKind,
    ResponseMessage,
};
use proptest::prelude::*;

// ---- generators -----------------------------------------------------------

fn attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        "[a-z]{0,12}".prop_map(AttrValue::Str),
        any::<i64>().prop_map(AttrValue::Int),
        (-1.0e9f64..1.0e9).prop_map(AttrValue::Float),
        any::<i32>().prop_map(|t| AttrValue::Time(i64::from(t))),
    ]
}

fn descriptor() -> impl Strategy<Value = DataDescriptor> {
    proptest::collection::btree_map("[a-z]{1,8}", attr_value(), 1..6).prop_map(|attrs| {
        let mut b = DataDescriptor::builder();
        for (k, v) in attrs {
            b = b.attr(k, v);
        }
        b.build()
    })
}

fn filter() -> impl Strategy<Value = QueryFilter> {
    proptest::collection::vec(
        ("[a-z]{1,8}", attr_value(), 0u8..6).prop_map(|(attr, value, rel)| match rel {
            0 => Predicate::new(attr, Relation::Eq, value),
            1 => Predicate::new(attr, Relation::Ne, value),
            2 => Predicate::new(attr, Relation::Lt, value),
            3 => Predicate::new(attr, Relation::Le, value),
            4 => Predicate::new(attr, Relation::Gt, value),
            _ => Predicate::new(attr, Relation::Ge, value),
        }),
        0..4,
    )
    .prop_map(QueryFilter::new)
}

// ---- bloom ------------------------------------------------------------------

proptest! {
    #[test]
    fn bloom_never_forgets(elements in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..32), 1..200)) {
        let mut f = BloomFilter::new(BloomParams::optimal(elements.len().max(8), 0.01));
        for e in &elements {
            f.insert(e);
        }
        for e in &elements {
            prop_assert!(f.contains(e), "no false negatives allowed");
        }
    }

    #[test]
    fn bloom_roundtrip_preserves_membership(
        elements in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 1..64),
        round in 0u32..8,
    ) {
        let mut f = BloomFilter::with_round(BloomParams::optimal(64, 0.02), round);
        for e in &elements {
            f.insert(e);
        }
        let g = BloomFilter::decode(&f.encode()).expect("roundtrip");
        prop_assert_eq!(&f, &g);
        for e in &elements {
            prop_assert!(g.contains(e));
        }
    }
}

// ---- descriptors & filters ---------------------------------------------------

proptest! {
    #[test]
    fn descriptor_codec_roundtrips(d in descriptor()) {
        let bytes = d.encode();
        prop_assert_eq!(bytes.len(), d.encoded_len());
        let mut slice = bytes;
        let back = DataDescriptor::decode(&mut slice).expect("decodes");
        prop_assert!(slice.is_empty(), "decode consumes exactly the encoding");
        prop_assert_eq!(back.entry_key(), d.entry_key());
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back, d);
    }

    #[test]
    fn hostile_wire_order_still_yields_the_canonical_key(
        d in descriptor(),
        decoys in proptest::collection::vec(attr_value(), 6),
        rotate in 0usize..6,
    ) {
        // The same attribute set written the way no honest sender writes
        // it: every name first with a decoy value (a repeated name — the
        // last value wins), then the real attributes in rotated, reversed
        // order. The decoder must not take those bytes as the identity.
        let mut real: Vec<(&str, &AttrValue)> = d.iter().collect();
        real.reverse();
        real.rotate_left(rotate % d.len());
        let mut wire = vec![(2 * d.len()) as u8];
        let decoyed = d.iter().zip(&decoys).map(|((name, _), decoy)| (name, decoy));
        for (name, value) in decoyed.chain(real) {
            wire.push(name.len() as u8);
            wire.extend_from_slice(name.as_bytes());
            value.encode(&mut wire);
        }
        wire.extend_from_slice(b"tail");
        let mut slice = &wire[..];
        let back = DataDescriptor::decode(&mut slice).expect("decodes");
        prop_assert_eq!(slice, &b"tail"[..]);
        prop_assert_eq!(back.entry_key(), d.entry_key());
        prop_assert_eq!(back.entry_key().as_bytes(), d.encode());
        prop_assert_eq!(back, d);
    }

    #[test]
    fn entry_key_equality_matches_descriptor_equality(a in descriptor(), b in descriptor()) {
        prop_assert_eq!(a == b, a.entry_key() == b.entry_key());
    }

    #[test]
    fn match_all_matches_everything(d in descriptor()) {
        prop_assert!(QueryFilter::match_all().matches(&d));
    }

    #[test]
    fn eq_and_ne_partition_when_attr_exists(d in descriptor(), v in attr_value()) {
        // For any attribute present with the same type, Eq and Ne disagree.
        if let Some((name, actual)) = d.iter().next() {
            if actual.partial_cmp_same_type(&v).is_some() {
                let eq = Predicate::new(name, Relation::Eq, v.clone()).matches(&d);
                let ne = Predicate::new(name, Relation::Ne, v).matches(&d);
                prop_assert!(eq != ne, "Eq and Ne must partition");
            }
        }
    }

    #[test]
    fn filter_codec_roundtrips(f in filter()) {
        let mut buf = Vec::new();
        f.encode(&mut buf);
        prop_assert_eq!(buf.len(), f.encoded_len());
        let mut slice = &buf[..];
        let back = QueryFilter::decode(&mut slice).expect("decodes");
        prop_assert_eq!(back, f);
    }
}

// ---- messages -----------------------------------------------------------------

proptest! {
    #[test]
    fn query_message_roundtrips(
        id in any::<u64>(),
        sender in any::<u32>(),
        expires in any::<u32>(),
        round in 0u32..16,
        f in filter(),
        bloom in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
        chunks in proptest::collection::vec(any::<u32>(), 0..16),
        kind_sel in 0u8..5,
    ) {
        let kind = match kind_sel {
            0 => QueryKind::Metadata,
            1 => QueryKind::SmallData,
            2 => QueryKind::Cdi {
                descriptor: DataDescriptor::builder().attr("name", "x").build(),
            },
            3 => QueryKind::Chunks {
                item: "item-x".into(),
                chunks: chunks.into_iter().map(ChunkId).collect(),
            },
            _ => QueryKind::MdrChunks { item: "item-x".into(), total_chunks: 99 },
        };
        let q = QueryMessage {
            id: QueryId(id),
            kind,
            sender: NodeId(sender),
            expires_at: pds_sim::SimTime::from_micros(u64::from(expires)),
            filter: f,
            bloom,
            round,
            ttl_hops: 0,
        };
        let m = PdsMessage::Query(q);
        let back = PdsMessage::decode(&m.encode()).expect("decodes");
        prop_assert_eq!(back, m);
    }

    #[test]
    fn response_message_roundtrips(
        id in any::<u64>(),
        sender in any::<u32>(),
        entries in proptest::collection::vec(descriptor(), 0..8),
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        kind_sel in 0u8..4,
    ) {
        let kind = match kind_sel {
            0 => ResponseKind::Metadata { entries },
            1 => ResponseKind::SmallData {
                items: entries.into_iter().map(|d| (d, bytes::Bytes::from(payload.clone()))).collect(),
            },
            2 => ResponseKind::Cdi {
                item: "item-x".into(),
                pairs: pairs.into_iter().map(|(c, h)| (ChunkId(c), h)).collect(),
            },
            _ => ResponseKind::Chunk {
                descriptor: DataDescriptor::builder().attr("name", "item-x").build(),
                chunk: ChunkId(3),
                data: bytes::Bytes::from(payload.clone()),
            },
        };
        let m = PdsMessage::Response(ResponseMessage {
            id: ResponseId(id),
            sender: NodeId(sender),
            kind,
        });
        let back = PdsMessage::decode(&m.encode()).expect("decodes");
        prop_assert_eq!(back, m);
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = PdsMessage::decode(&bytes::Bytes::from(bytes)); // must not panic
    }
}

// ---- GAP assignment -------------------------------------------------------------

proptest! {
    #[test]
    fn assignment_satisfies_constraints(
        instance in proptest::collection::vec(
            proptest::collection::vec((0u32..6, 1u32..5), 0..4), 0..14),
        strategy in prop_oneof![Just(AssignStrategy::MinMax), Just(AssignStrategy::Greedy)],
    ) {
        let chunks: Vec<(ChunkId, Vec<(NodeId, u32)>)> = instance
            .into_iter()
            .enumerate()
            .map(|(i, cands)| {
                let mut seen = std::collections::BTreeMap::new();
                for (n, h) in cands {
                    seen.entry(NodeId(n)).or_insert(h);
                }
                (ChunkId(i as u32), seen.into_iter().collect())
            })
            .collect();
        let plan = min_max_assign(&chunks, strategy);
        let mut assigned = pds_det::DetSet::default();
        for (node, cs) in &plan {
            for c in cs {
                prop_assert!(assigned.insert(*c), "chunk assigned twice");
                let cands = &chunks.iter().find(|(id, _)| id == c).expect("exists").1;
                prop_assert!(cands.iter().any(|(n, _)| n == node), "incapable neighbor");
            }
        }
        let routable = chunks.iter().filter(|(_, v)| !v.is_empty()).count();
        prop_assert_eq!(assigned.len(), routable, "every routable chunk assigned");
    }

    #[test]
    fn minmax_no_worse_than_greedy(
        instance in proptest::collection::vec(
            proptest::collection::vec((0u32..5, 1u32..4), 1..4), 1..12),
    ) {
        let chunks: Vec<(ChunkId, Vec<(NodeId, u32)>)> = instance
            .into_iter()
            .enumerate()
            .map(|(i, cands)| {
                let mut seen = std::collections::BTreeMap::new();
                for (n, h) in cands {
                    seen.entry(NodeId(n)).or_insert(h);
                }
                (ChunkId(i as u32), seen.into_iter().collect())
            })
            .collect();
        let max_load = |plan: &std::collections::BTreeMap<NodeId, Vec<ChunkId>>| -> u64 {
            plan.iter()
                .map(|(node, cs)| {
                    cs.iter()
                        .map(|c| {
                            u64::from(
                                chunks
                                    .iter()
                                    .find(|(id, _)| id == c)
                                    .expect("exists")
                                    .1
                                    .iter()
                                    .find(|(n, _)| n == node)
                                    .expect("capable")
                                    .1
                                    .max(1),
                            )
                        })
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0)
        };
        let greedy = max_load(&min_max_assign(&chunks, AssignStrategy::Greedy));
        let minmax = max_load(&min_max_assign(&chunks, AssignStrategy::MinMax));
        prop_assert!(minmax <= greedy, "repair must not increase the max load");
    }
}

// ---- misc invariants ----------------------------------------------------------

proptest! {
    #[test]
    fn sim_rng_is_deterministic(seed in any::<u64>()) {
        let mut a = pds_sim::SimRng::new(seed);
        let mut b = pds_sim::SimRng::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn chunk_key_is_prefix_free(a in 0u32..10_000, b in 0u32..10_000) {
        let item: pds_core::ItemName = "vid".into();
        if a != b {
            prop_assert_ne!(
                pds_core::chunk_key(&item, ChunkId(a)),
                pds_core::chunk_key(&item, ChunkId(b))
            );
        }
    }
}

// ---- sweep executor equivalence -------------------------------------------
//
// Random node counts, placements, motions and chatter periods, swept at
// different worker counts. (The spatial grid's own contract is pinned
// inside `pds-sim`: `spatial::tests`, `world::tests`, `radio::tests`.)

use pds_sim::{
    Application, Context, MessageMeta, Position, SimConfig, SimDuration, SimTime, World,
};

struct SimChatter {
    period_ms: u64,
}

impl Application for SimChatter {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(SimDuration::from_millis(self.period_ms), 0);
    }
    fn on_message(&mut self, _: &mut Context, _: MessageMeta, _: bytes::Bytes) {}
    fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
        ctx.broadcast(bytes::Bytes::from_static(&[7u8; 64]), &[]);
        ctx.set_timer(SimDuration::from_millis(self.period_ms), 0);
    }
}

/// Per-node plan: start position, walk destination, walk speed, whether
/// it walks, chatter period.
type NodePlan = ((f64, f64), (f64, f64), f64, bool, u64);

fn node_plans(max: usize) -> impl proptest::strategy::Strategy<Value = Vec<NodePlan>> {
    proptest::collection::vec(
        (
            (0.0f64..600.0, 0.0f64..600.0),
            (0.0f64..600.0, 0.0f64..600.0),
            0.3f64..3.0,
            any::<bool>(),
            20u64..90,
        ),
        2..max,
    )
}

fn chatter_world(plans: &[NodePlan], seed: u64) -> World {
    let mut config = SimConfig::default();
    config.radio.baseline_loss = 0.05;
    let mut w = World::new(config, seed);
    for &((x, y), (dx, dy), speed, walks, period) in plans {
        let id = w.add_node(
            Position::new(x, y),
            Box::new(SimChatter { period_ms: period }),
        );
        if walks {
            w.move_node(id, Position::new(dx, dy), speed);
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel sweep executor must be invisible in the results: the
    /// same randomly-generated scenario swept at 1 worker and at 4 workers
    /// must return identical per-seed statistics, in seed order. (Each job
    /// owns a whole `World`; parallelism only reorders wall-clock
    /// completion, which `SweepRunner` hides by slotting results by job
    /// index.)
    #[test]
    fn sweep_runner_job_count_never_changes_results(
        base_seed in any::<u32>(),
        plans in node_plans(8),
    ) {
        let seeds: Vec<u64> = (0..4).map(|k| u64::from(base_seed) + k * 7919).collect();
        let sweep = |jobs: usize| {
            pds_bench::SweepRunner::new(jobs).run(seeds.len(), |i| {
                let mut w = chatter_world(&plans, seeds[i]);
                w.run_until(SimTime::from_secs_f64(1.0));
                w.stats().clone()
            })
        };
        prop_assert_eq!(sweep(1), sweep(4));
    }

}

// ---- event-scheduler equivalence ------------------------------------------
//
// The timer wheel (DESIGN.md §11) is, like the spatial grid, an *index*,
// not an approximation: it must pop the exact `(time, seq, value)` stream
// a `(time, insertion-seq)`-keyed binary heap pops, under any interleaving
// of pushes and horizon-bounded pop phases.

use pds_sim::TimerWheel;

/// One step of interleaved queue traffic: push offsets (µs past the
/// current pop frontier — the kernel never schedules into the past) and a
/// pop-phase horizon delta. Small offsets dominate so same-tick ties are
/// heavy; the large band lands in the wheel's far-future overflow tier.
type QueueStep = (Vec<u64>, u64);

fn queue_steps() -> impl Strategy<Value = Vec<QueueStep>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                // Repeated arms stand in for weights (the vendored
                // prop_oneof! is unweighted): ~40% same-tick ties, ~30%
                // near, ~20% mid, ~10% far-future overflow.
                prop_oneof![
                    0u64..4,
                    0u64..4,
                    0u64..4,
                    0u64..4,
                    0u64..5_000,
                    0u64..5_000,
                    0u64..5_000,
                    0u64..2_000_000,
                    0u64..2_000_000,
                    0u64..(1u64 << 37),
                ],
                0..12,
            ),
            0u64..3_000_000,
        ),
        1..40,
    )
}

proptest! {
    /// Wheel vs reference heap: identical `(time, seq, value)` pop streams.
    /// The value doubles as the event "kind"; seq agreement is implied by
    /// demanding the exact heap order among same-tick ties.
    #[test]
    fn timer_wheel_pops_exactly_like_a_heap(steps in queue_steps()) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let pop_matched = |wheel: &mut TimerWheel<u32>,
                           heap: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
                           horizon: u64| loop {
            let w = wheel.pop_until(SimTime::from_micros(horizon));
            let h = match heap.peek() {
                Some(&Reverse((at, _, v))) if at <= horizon => {
                    heap.pop();
                    Some((SimTime::from_micros(at), v))
                }
                _ => None,
            };
            prop_assert_eq!(w, h, "streams diverged at horizon {}", horizon);
            if w.is_none() {
                break;
            }
        };
        let mut frontier = 0u64;
        let mut seq = 0u64;
        for (id, (pushes, pop_delta)) in steps.into_iter().enumerate() {
            for (k, off) in pushes.into_iter().enumerate() {
                let at = frontier.saturating_add(off);
                let value = (id * 16 + k) as u32;
                wheel.push(SimTime::from_micros(at), value);
                heap.push(Reverse((at, seq, value)));
                seq += 1;
            }
            let horizon = frontier.saturating_add(pop_delta);
            pop_matched(&mut wheel, &mut heap, horizon);
            frontier = horizon;
        }
        pop_matched(&mut wheel, &mut heap, u64::MAX);
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }
}

// ---- city-scale slab digest pin ---------------------------------------------
//
// PR 10 replaces the kernel's `BTreeMap<NodeId, NodeState>` world storage
// with a dense slab + SoA split and puts the transport's reassembly state
// on a memory diet. The digest below was captured from the *pre-diet*
// kernel on the scenario in `slab_world_replays_pre_diet_digest_at_n1000`;
// the slab-backed world must reproduce it bit-for-bit, or the refactor
// changed observable behavior.

/// Pre-diet replay digest of the n=1000 cluster-pair scenario, captured
/// before the slab/SoA world refactor.
#[cfg(feature = "replay-digest")]
const PRE_DIET_N1000_DIGEST: u64 = 0x6597_973c_eb0f_b20d;

#[cfg(feature = "replay-digest")]
#[test]
fn slab_world_replays_pre_diet_digest_at_n1000() {
    let mut config = SimConfig::default();
    config.radio.baseline_loss = 0.02;
    let mut w = World::new(config, 42);
    // 500 cluster pairs strung along x, far enough apart that clusters
    // never interfere: throughput scales linearly, contention stays
    // local, and the event stream still exercises MAC, acks and
    // carrier sense inside every pair.
    for i in 0..500u32 {
        let x = f64::from(i) * 400.0;
        w.add_node(
            Position::new(x, 0.0),
            Box::new(SimChatter { period_ms: 50 }),
        );
        w.add_node(
            Position::new(x + 25.0, 0.0),
            Box::new(SimChatter { period_ms: 50 }),
        );
    }
    w.run_until(SimTime::from_secs_f64(0.3));
    assert!(
        w.stats().frames_delivered > 0,
        "scenario must carry traffic"
    );
    let digest = w.replay_digest();
    assert_eq!(
        digest, PRE_DIET_N1000_DIGEST,
        "digest drifted: got 0x{digest:016x}"
    );
}

// ---- dst fault plans --------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any (seed, fault-plan) pair replays to an identical outcome across
    /// two runs: the fault layer draws all its randomness from the plan's
    /// own seeded stream, so it is part of the deterministic contract,
    /// not an exception to it.
    #[test]
    fn fault_plans_replay_identically_across_runs(
        world_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        nodes in 2u32..6,
        messages in 4u32..16,
        loss_ppm in 0u32..150_001,
        drop_ppm in 0u32..120_001,
        dup_ppm in 0u32..80_001,
        delay_ppm in 0u32..80_001,
        delay_max_ms in 1u32..401,
        partitions in 0u32..3,
        silences in 0u32..3,
        max_retr in 0u32..6,
    ) {
        let spec = pds_dst::CaseSpec {
            family: pds_dst::Family::Transport,
            world_seed,
            plan_seed,
            nodes,
            messages,
            msg_bytes: 64,
            entries: 0,
            loss_ppm,
            drop_ppm,
            dup_ppm,
            delay_ppm,
            delay_max_ms,
            partitions,
            silences,
            storms: 0,
            max_retr,
            horizon_ds: messages + 100,
        };
        let a = pds_dst::scenario::run_case(&spec);
        let b = pds_dst::scenario::run_case(&spec);
        prop_assert_eq!(&a.stats, &b.stats, "same spec: stats diverged");
        prop_assert_eq!(&a, &b, "same spec: outcome diverged");
        prop_assert!(a.violations.is_empty(), "invariants must hold in-envelope: {:?}", a.violations);
    }
}

// ---- streaming mobility -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming mobility generator emits exactly the sequence the
    /// materializing generator records, for any seed, venue, multiplier
    /// and duration: `MobilityTrace::generate` is defined as collecting a
    /// `TraceStream`, and this pins that contract against the stream's
    /// internal state machine drifting (rng draw order, skipped empty-
    /// present arrivals, person numbering).
    #[test]
    fn streaming_mobility_matches_materialized_trace(
        seed in any::<u64>(),
        venue in 0u8..2,
        multiplier in 0.0f64..3.0,
        secs in 1u32..1800,
    ) {
        let params = if venue == 0 {
            pds_mobility::presets::student_center()
        } else {
            pds_mobility::presets::classroom()
        };
        let dur = pds_sim::SimDuration::from_secs(u64::from(secs));
        let trace = pds_mobility::MobilityTrace::generate(&params, dur, multiplier, seed);
        let mut stream = pds_mobility::TraceStream::new(&params, dur, multiplier, seed);
        prop_assert_eq!(stream.initial_people(), trace.initial_people());
        let streamed: Vec<pds_mobility::TraceEvent> = stream.by_ref().collect();
        prop_assert_eq!(streamed.as_slice(), trace.events());
        prop_assert_eq!(stream.next(), None, "exhausted stream must stay exhausted");
    }
}
