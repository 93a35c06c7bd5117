//! End-to-end tests driving [`PdsNode`] through the simulator kernel.
//!
//! These live as an integration test (not a unit test inside `src/node.rs`)
//! because `pds-sim` is a *dev*-dependency of `pds-core`: unit tests would
//! compile a second copy of the crate whose types do not unify with the one
//! the simulator links against. Here there is a single `pds_core` lib, so
//! `PdsNode: Application` is the same trait the `World` drives.

use bytes::Bytes;
use pds_bloom::{BloomFilter, BloomParams};
use pds_core::{
    Application, ChunkId, Context, DataDescriptor, DecodeError, ItemName, MessageMeta, PdsConfig,
    PdsEngine, PdsMessage, PdsNode, QueryFilter, QueryId, QueryKind, QueryMessage, ResponseId,
    ResponseKind, ResponseMessage, MAX_ITEM_CHUNKS,
};
use pds_obs::{RingSink, TraceKind};
use pds_sim::{NodeId, Position, SimConfig, SimTime, World};

fn entry(n: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "no2")
        .attr("seq", i64::from(n))
        .build()
}

fn video(total: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "video")
        .attr("name", "clip")
        .attr("total_chunks", i64::from(total))
        .build()
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// 3×3 grid, 5 entries per node, consumer at the center.
fn grid_world(seed: u64) -> (World, Vec<NodeId>, NodeId) {
    use pds_mobility::grid;
    let mut world = World::new(SimConfig::default(), seed);
    let positions = grid::positions(3, 3, grid::SPACING_M);
    let mut ids = Vec::new();
    for (i, pos) in positions.iter().enumerate() {
        let mut node = PdsNode::new(PdsConfig::default(), 100 + i as u64);
        for k in 0..5u32 {
            node = node.with_metadata(entry(i as u32 * 10 + k), None);
        }
        ids.push(world.add_node(*pos, Box::new(node)));
    }
    let consumer = ids[grid::center_index(3, 3)];
    (world, ids, consumer)
}

#[test]
fn discovery_on_a_radio_grid_reaches_full_recall() {
    let (mut world, _ids, consumer) = grid_world(42);
    world.run_until(secs(0.5));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_discovery(ctx, QueryFilter::match_all());
    });
    world.run_until(secs(20.0));
    let node = world.app::<PdsNode>(consumer).expect("alive");
    let report = node.discovery_report().expect("session");
    assert!(report.finished_at.is_some(), "discovery terminated");
    assert_eq!(report.entries, 45, "all 9 nodes × 5 entries discovered");
    assert_eq!(node.decode_errors(), 0);
}

#[test]
fn retrieval_over_radio_fetches_all_chunks() {
    let mut world = World::new(SimConfig::default(), 7);
    let chunk = |c: u32| Bytes::from(vec![c as u8; 8 * 1024]);
    // Provider two hops from the consumer on a line.
    let provider = PdsNode::new(PdsConfig::default(), 1)
        .with_chunk(video(4), ChunkId(0), chunk(0))
        .with_chunk(video(4), ChunkId(1), chunk(1))
        .with_chunk(video(4), ChunkId(2), chunk(2))
        .with_chunk(video(4), ChunkId(3), chunk(3));
    world.add_node(Position::new(0.0, 0.0), Box::new(provider));
    world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    let consumer = world.add_node(
        Position::new(120.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 3)),
    );
    world.run_until(secs(0.5));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_retrieval(ctx, video(4));
    });
    world.run_until(secs(30.0));
    let node = world.app::<PdsNode>(consumer).expect("alive");
    let report = node.retrieval_report().expect("session");
    assert!(
        (report.recall - 1.0).abs() < 1e-9,
        "recall = {} after {:?}",
        report.recall,
        report
    );
    // The consumer's store holds the reassembled item.
    let engine = node.engine().expect("started");
    assert_eq!(engine.store().chunk_ids(&ItemName::new("clip")).len(), 4);
}

#[test]
fn a_relay_forwards_the_chunk_buffer_it_received() {
    // holder — relay — consumer on a line; the overhearer is in range of
    // the relay and the consumer, not of the holder. No random frame loss:
    // an overhearer gets no retransmission of a frame it missed.
    let mut config = SimConfig::default();
    config.radio.baseline_loss = 0.0;
    let mut world = World::new(config, 7);
    let mut holder = PdsNode::new(PdsConfig::default(), 1);
    for c in 0..4 {
        holder = holder.with_chunk(video(4), ChunkId(c), Bytes::from(vec![c as u8; 8 * 1024]));
    }
    let at = |x, y| Position::new(x, y);
    let holder = world.add_node(at(0.0, 0.0), Box::new(holder));
    let mut plain =
        |pos, seed| world.add_node(pos, Box::new(PdsNode::new(PdsConfig::default(), seed)));
    let relay = plain(at(60.0, 0.0), 2);
    let consumer = plain(at(120.0, 0.0), 3);
    let overhearer = plain(at(100.0, 40.0), 4);
    world.run_until(secs(0.5));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_retrieval(ctx, video(4));
    });
    world.run_until(secs(30.0));
    let report = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::retrieval_report)
        .expect("session");
    assert!(
        (report.recall - 1.0).abs() < 1e-9,
        "recall = {}",
        report.recall
    );

    // Where each node's copy of chunk `c` lives.
    let item = ItemName::new("clip");
    let held_at = |node, c| {
        let engine = world.app::<PdsNode>(node).and_then(PdsNode::engine);
        let data = engine.and_then(|e| e.store().chunk(&item, ChunkId(c)));
        let data = data.unwrap_or_else(|| panic!("{node:?} holds no chunk {c}"));
        assert_eq!(data, vec![c as u8; 8 * 1024], "chunk {c} intact");
        data.as_ptr()
    };
    for c in 0..4 {
        let served = held_at(relay, c);
        assert_eq!(
            held_at(consumer, c),
            served,
            "consumer views the served buffer"
        );
        assert_eq!(
            held_at(overhearer, c),
            served,
            "overhearer views the served buffer"
        );
        assert_ne!(held_at(holder, c), served, "the holder's copy is its own");
    }
}

/// Keeps every payload it hears; a test sends through it with `with_app`.
struct Peer(Vec<Bytes>);

impl Application for Peer {
    fn on_start(&mut self, _ctx: &mut Context) {}

    fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, payload: Bytes) {
        self.0.push(payload);
    }
}

#[test]
fn a_chunk_response_in_another_form_is_a_decode_error_not_a_relayed_chunk() {
    // A chunk response whose descriptor lists its attributes unsorted
    // spells the item's identity another way: it is refused, so the relay
    // neither stores nor forwards it, though a query for it lingers there.
    let single = |d: DataDescriptor| d.encode()[1..].to_vec();
    let unsorted = [
        vec![3u8],
        single(DataDescriptor::builder().attr("type", "video").build()),
        single(DataDescriptor::builder().attr("name", "clip").build()),
        single(DataDescriptor::builder().attr("total_chunks", 1i64).build()),
    ]
    .concat();
    let served = PdsMessage::Response(ResponseMessage {
        id: ResponseId(42),
        sender: NodeId(2),
        kind: ResponseKind::Chunk {
            descriptor: video(1),
            chunk: ChunkId(0),
            data: Bytes::from_static(b"chunk-0!"),
        },
    });
    let canonical = served.encode();
    let at = canonical
        .windows(unsorted.len())
        .position(|w| w == video(1).encode())
        .expect("the descriptor's bytes");
    let mut hostile = canonical.to_vec();
    hostile[at..at + unsorted.len()].copy_from_slice(&unsorted);
    let hostile = Bytes::from(hostile);
    assert_ne!(hostile, canonical);
    assert_eq!(PdsMessage::decode(&hostile), Err(DecodeError::BadBody));
    assert_eq!(PdsMessage::decode(&canonical), Ok(served));

    // consumer — relay — server on a line; the ends are out of range.
    let mut world = World::new(SimConfig::default(), 7);
    let consumer = world.add_node(Position::new(0.0, 0.0), Box::new(Peer(Vec::new())));
    let relay = world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 1)),
    );
    let server = world.add_node(Position::new(120.0, 0.0), Box::new(Peer(Vec::new())));
    let query = PdsMessage::Query(QueryMessage {
        id: QueryId(5),
        kind: QueryKind::Chunks {
            item: ItemName::new("clip"),
            chunks: vec![ChunkId(0)],
        },
        sender: consumer,
        expires_at: secs(20.0),
        filter: QueryFilter::match_all(),
        bloom: None,
        round: 0,
        ttl_hops: 0,
    })
    .encode();
    world.run_until(secs(0.5));
    world.with_app::<Peer, _>(consumer, |_, ctx| ctx.broadcast(query, &[relay]));
    world.run_until(secs(1.0));
    world.with_app::<Peer, _>(server, |_, ctx| ctx.broadcast(hostile, &[relay]));
    world.run_until(secs(5.0));

    let node = world.app::<PdsNode>(relay).expect("alive");
    assert_eq!(node.decode_errors(), 1);
    let stored = node
        .engine()
        .and_then(|e| e.store().chunk(&ItemName::new("clip"), ChunkId(0)));
    assert_eq!(stored, None);
    let heard = &world.app::<Peer>(consumer).expect("alive").0;
    assert!(
        heard
            .iter()
            .all(|b| !matches!(PdsMessage::decode(b), Ok(PdsMessage::Response(_)))),
        "the relay forwarded no response"
    );
}

/// A server stub around which an intended relay and two overhearers sit,
/// every node in range of the server; no random frame loss. Returns the
/// world, the server and the three receivers, relay first.
fn one_sender_three_receivers() -> (World, NodeId, [NodeId; 3]) {
    let mut config = SimConfig::default();
    config.radio.baseline_loss = 0.0;
    let mut world = World::new(config, 7);
    let server = world.add_node(Position::new(0.0, 0.0), Box::new(Peer(Vec::new())));
    let mut plain = |x, y, seed| {
        world.add_node(
            Position::new(x, y),
            Box::new(PdsNode::new(PdsConfig::default(), seed)),
        )
    };
    let receivers = [
        plain(60.0, 0.0, 1),
        plain(0.0, 60.0, 2),
        plain(-60.0, 0.0, 3),
    ];
    world.run_until(secs(0.5));
    (world, server, receivers)
}

#[test]
fn every_receiver_of_a_metadata_response_stores_the_same_descriptors() {
    let (mut world, server, receivers) = one_sender_three_receivers();
    let response = PdsMessage::Response(ResponseMessage {
        id: ResponseId(11),
        sender: server,
        kind: ResponseKind::Metadata {
            entries: (0..3).map(entry).collect(),
        },
    })
    .encode();
    let relay = receivers[0];
    world.with_app::<Peer, _>(server, |_, ctx| ctx.broadcast(response, &[relay]));
    world.run_until(secs(2.0));
    let now = world.now();
    // Each receiver's stored descriptors, by their bytes: where they live.
    let stored = |node| {
        let engine = world.app::<PdsNode>(node).and_then(PdsNode::engine);
        let store = engine.expect("started").store();
        let mut held: Vec<(Vec<u8>, *const u8)> = store
            .match_metadata(&QueryFilter::match_all(), now)
            .into_iter()
            .map(|d| (d.encode().to_vec(), d.encode().as_ptr()))
            .collect();
        held.sort();
        held
    };
    let at_relay = stored(relay);
    assert_eq!(at_relay.len(), 3, "the relay cached every entry");
    for overhearer in &receivers[1..] {
        assert_eq!(stored(*overhearer), at_relay, "one descriptor per entry");
    }
}

#[test]
fn a_malformed_response_is_a_decode_error_at_every_receiver() {
    let (mut world, server, receivers) = one_sender_three_receivers();
    let honest = PdsMessage::Response(ResponseMessage {
        id: ResponseId(12),
        sender: server,
        kind: ResponseKind::Metadata {
            entries: vec![entry(0)],
        },
    })
    .encode();
    // The head (kinds, id, sender) is intact; the body is cut short.
    let cut = honest.slice(..honest.len() - 1);
    assert!(PdsMessage::decode(&cut).is_err());
    let relay = receivers[0];
    world.with_app::<Peer, _>(server, |_, ctx| ctx.broadcast(cut, &[relay]));
    world.run_until(secs(2.0));
    for node in receivers {
        let node = world.app::<PdsNode>(node).expect("alive");
        assert_eq!(node.decode_errors(), 1);
        assert_eq!(node.engine().expect("started").store().metadata_len(), 0);
    }
}

/// A flooded metadata query from `sender`, round 1, whose Bloom filter
/// holds `held`: its id, the filter and the query's wire bytes.
fn flooded_query(sender: NodeId, held: &[DataDescriptor]) -> (QueryId, BloomFilter, Bytes) {
    let mut bloom = BloomFilter::with_round(BloomParams::optimal(1000, 0.01), 1);
    for d in held {
        bloom.insert(d.encode());
    }
    let id = QueryId(77);
    let query = PdsMessage::Query(QueryMessage {
        id,
        kind: QueryKind::Metadata,
        sender,
        expires_at: secs(20.0),
        filter: QueryFilter::match_all(),
        bloom: Some(bloom.encode()),
        round: 1,
        ttl_hops: 0,
    });
    (id, bloom, query.encode())
}

/// Where `node`'s lingering filter of query `id` keeps its bits, and the
/// filter.
fn lingering_filter(world: &World, node: NodeId, id: QueryId) -> (*const u8, BloomFilter) {
    let engine = world.app::<PdsNode>(node).and_then(PdsNode::engine);
    let lingering = engine.and_then(|e| e.lqt().iter().find(|l| l.query.id == id));
    let bloom = lingering.and_then(|l| l.bloom.clone());
    let bloom = bloom.unwrap_or_else(|| panic!("{node:?} holds no filter of {id:?}"));
    (bloom.as_ref().as_ptr(), bloom)
}

#[test]
fn the_receivers_of_one_message_share_its_filter() {
    // A source stub floods a query to three nodes in its range, and on to
    // two beyond them; none holds anything, so none writes into its
    // filter. Every filter is a view of the message its node first heard
    // the query in: the source's buffer for its three receivers, one
    // buffer per forward for the receivers of each.
    let mut config = SimConfig::default();
    config.radio.baseline_loss = 0.0;
    let mut world = World::new(config, 7);
    let source = world.add_node(Position::new(0.0, 0.0), Box::new(Peer(Vec::new())));
    let mut nodes = Vec::new();
    for (i, (x, y)) in [
        (50.0, 0.0),
        (0.0, 50.0),
        (50.0, 50.0),
        (100.0, 0.0),
        (100.0, 50.0),
    ]
    .into_iter()
    .enumerate()
    {
        let node = PdsNode::new(PdsConfig::default(), 10 + i as u64);
        nodes.push(world.add_node(Position::new(x, y), Box::new(node)));
    }
    let (id, bloom, query) = flooded_query(source, &[entry(9)]);
    world.run_until(secs(0.5));
    let sent = query.clone();
    world.with_app::<Peer, _>(source, |_, ctx| ctx.broadcast(sent, &[]));
    world.run_until(secs(3.0));
    let mut viewed: Vec<(NodeId, *const u8)> = Vec::new();
    for &node in &nodes {
        let (at, held) = lingering_filter(&world, node, id);
        assert_eq!(held, bloom, "{node:?} holds the filter sent");
        let engine = world.app::<PdsNode>(node).and_then(PdsNode::engine);
        let lingering = engine.and_then(|e| e.lqt().iter().find(|l| l.query.id == id));
        let upstream = lingering.map(|l| l.upstream);
        viewed.push((upstream.expect("lingering"), at));
        assert_eq!(
            world.app::<PdsNode>(node).map(PdsNode::decode_errors),
            Some(0)
        );
    }
    let bits = query.len() - bloom.as_ref().len();
    let from_source = viewed.iter().filter(|(up, _)| *up == source);
    assert!(
        from_source
            .clone()
            .all(|&(_, at)| at == query[bits..].as_ptr()),
        "{viewed:?}"
    );
    assert_eq!(from_source.count(), 3, "{viewed:?}");
    for &(up, at) in &viewed {
        for &(other_up, other_at) in &viewed {
            assert_eq!(up == other_up, at == other_at, "{viewed:?}");
        }
    }
}

#[test]
fn a_node_that_writes_into_its_filter_forwards_its_own_copy() {
    // source — a — b — c — observer on a line, and d beside the source
    // only. Node a holds an entry the filter lacks: it answers, writes the
    // entry into its own copy of the filter and forwards that copy, which
    // b and c then hold. Node d's filter, like the source's buffer, is
    // untouched, and c's forward carries a's filter as a's encoding of it.
    let mut config = SimConfig::default();
    config.radio.baseline_loss = 0.0;
    let mut world = World::new(config, 7);
    let source = world.add_node(Position::new(0.0, 0.0), Box::new(Peer(Vec::new())));
    let holder = PdsNode::new(PdsConfig::default(), 1).with_metadata(entry(1), None);
    let a = world.add_node(Position::new(60.0, 0.0), Box::new(holder));
    let mut plain = |x, y, seed| {
        world.add_node(
            Position::new(x, y),
            Box::new(PdsNode::new(PdsConfig::default(), seed)),
        )
    };
    let (b, c, d) = (
        plain(120.0, 0.0, 2),
        plain(180.0, 0.0, 3),
        plain(0.0, 60.0, 4),
    );
    let observer = world.add_node(Position::new(240.0, 0.0), Box::new(Peer(Vec::new())));
    let (id, bloom, query) = flooded_query(source, &[entry(9)]);
    world.run_until(secs(0.5));
    let sent = query.clone();
    world.with_app::<Peer, _>(source, |_, ctx| ctx.broadcast(sent, &[]));
    world.run_until(secs(3.0));

    let in_sent = |at: *const u8| query.as_ptr_range().contains(&at);
    let (at_a, written) = lingering_filter(&world, a, id);
    assert!(!in_sent(at_a), "the writer's copy is its own");
    assert!(written.contains(entry(1).encode()) && written.contains(entry(9).encode()));
    let (at_b, at_b_filter) = lingering_filter(&world, b, id);
    let (at_c, at_c_filter) = lingering_filter(&world, c, id);
    assert!(!in_sent(at_b) && !in_sent(at_c));
    assert_eq!((&at_b_filter, &at_c_filter), (&written, &written));
    let (at_d, untouched) = lingering_filter(&world, d, id);
    assert!(in_sent(at_d), "d views the sent buffer");
    assert_eq!(untouched, bloom, "d's bits are the source's");
    assert_eq!(
        PdsMessage::decode(&query).map(|m| m.encode()),
        Ok(query.clone())
    );

    let heard = &world.app::<Peer>(observer).expect("alive").0;
    let forwards: Vec<QueryMessage> = heard
        .iter()
        .filter_map(|b| match PdsMessage::decode(b) {
            Ok(PdsMessage::Query(q)) => Some(q),
            _ => None,
        })
        .collect();
    let [forward] = &forwards[..] else {
        panic!("one forward from c, got {forwards:?}")
    };
    assert_eq!(forward.sender, c);
    assert_eq!(
        forward.bloom,
        Some(written.encode()),
        "a's filter, as a encodes it"
    );
}

#[test]
fn mdr_over_radio_fetches_all_chunks() {
    let mut world = World::new(SimConfig::default(), 9);
    let provider = PdsNode::new(PdsConfig::default(), 1)
        .with_chunk(video(2), ChunkId(0), Bytes::from(vec![0u8; 4096]))
        .with_chunk(video(2), ChunkId(1), Bytes::from(vec![1u8; 4096]));
    world.add_node(Position::new(0.0, 0.0), Box::new(provider));
    let consumer = world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    world.run_until(secs(0.5));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_mdr_retrieval(ctx, video(2));
    });
    world.run_until(secs(20.0));
    let report = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::retrieval_report)
        .expect("session");
    assert!(
        (report.recall - 1.0).abs() < 1e-9,
        "recall = {}",
        report.recall
    );
}

#[test]
fn sequential_consumer_benefits_from_caching() {
    let (mut world, ids, consumer) = grid_world(11);
    world.run_until(secs(0.5));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_discovery(ctx, QueryFilter::match_all());
    });
    world.run_until(secs(20.0));
    let first = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::discovery_report)
        .expect("first session");
    assert_eq!(first.entries, 45);
    // A corner node asks next; caches make it faster.
    let second_consumer = ids[0];
    world.with_app::<PdsNode, _>(second_consumer, |node, ctx| {
        node.start_discovery(ctx, QueryFilter::match_all());
    });
    world.run_until(secs(40.0));
    let second = world
        .app::<PdsNode>(second_consumer)
        .and_then(PdsNode::discovery_report)
        .expect("second session");
    assert_eq!(second.entries, 45);
    assert!(
        second.latency <= first.latency,
        "cached entries should not be slower: {:?} vs {:?}",
        second.latency,
        first.latency
    );
}

// ---- node timers: idle nodes schedule nothing ---------------------------

/// Timestamps (µs) of every `TimerFired` kernel event at `node`, in order.
fn timer_fires(world: &mut World, node: NodeId) -> Vec<u64> {
    let sink = world.take_trace_sink().expect("sink installed");
    let ring = sink
        .as_any()
        .downcast_ref::<RingSink>()
        .expect("a RingSink");
    ring.events()
        .into_iter()
        .filter(|e| e.node == node.0 && matches!(e.kind, TraceKind::TimerFired { .. }))
        .map(|e| e.at_us)
        .collect()
}

#[test]
fn an_idle_world_dispatches_only_starts_and_sweeps() {
    use pds_mobility::grid;
    let mut world = World::new(SimConfig::default(), 5);
    for (i, pos) in grid::positions(5, 10, grid::SPACING_M).iter().enumerate() {
        let node =
            PdsNode::new(PdsConfig::default(), i as u64).with_metadata(entry(i as u32), None);
        world.add_node(*pos, Box::new(node));
    }
    world.run_until(secs(30.0));
    // One `Start` per node and the kernel's transport sweep every 5 s: no
    // node has a session to poll or anything to expire, so no timer runs.
    assert_eq!(world.events_dispatched(), 50 + 6);
}

#[test]
fn a_late_session_polls_on_the_node_start_lattice() {
    // Without per-hop acks the transport arms no timers of its own, so
    // every `TimerFired` at the consumer is one of `PdsNode`'s.
    let mut config = SimConfig::default();
    config.ack.enabled = false;
    let mut world = World::new(config, 9);
    world.set_trace_sink(Box::new(RingSink::new(0)));
    let mut producer = PdsNode::new(PdsConfig::default(), 1);
    for k in 0..3u32 {
        producer = producer.with_metadata(entry(k), None);
    }
    world.add_node(Position::new(0.0, 0.0), Box::new(producer));
    let consumer = world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    // Both nodes start at t = 0; the session starts 130 ms later.
    world.run_until(secs(0.13));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_discovery(ctx, QueryFilter::match_all());
    });
    world.run_until(secs(20.0));
    let finished = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::discovery_report)
        .and_then(|r| r.finished_at)
        .expect("discovery finished");
    let fires = timer_fires(&mut world, consumer);
    // The consumer sends nothing jittered, so its timers are polls (every
    // 200 ms) and GC ticks (every second): all on the 200 ms lattice from
    // t = 0, never on one from the session start (0.33 s, 0.53 s, ...).
    assert_eq!(fires.first(), Some(&200_000), "{fires:?}");
    assert!(fires.iter().all(|t| t % 200_000 == 0), "{fires:?}");
    // Unbroken while the session ran: one poll per tick up to its end.
    for tick in (200_000..=finished.as_micros()).step_by(200_000) {
        assert!(fires.contains(&tick), "no poll at {tick} µs: {fires:?}");
    }
}

#[test]
fn a_finished_consumer_falls_silent_once_its_state_expires() {
    let (mut world, _ids, consumer) = grid_world(3);
    world.run_until(secs(0.5));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_discovery(ctx, QueryFilter::match_all());
    });
    world.run_until(secs(20.0));
    let report = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::discovery_report)
        .expect("session");
    assert!(report.finished_at.is_some());
    // Lingering queries, cached metadata and recent response ids all lapse
    // within 120 s; the GC tick that removes the last of them is the last
    // timer any node runs.
    world.run_until(secs(150.0));
    for id in world.node_ids().collect::<Vec<_>>() {
        let engine = world
            .app::<PdsNode>(id)
            .and_then(PdsNode::engine)
            .expect("started");
        assert!(!engine.has_live_session());
        assert!(!engine.holds_expiring_state(), "{id} still holds state");
    }
    world.set_trace_sink(Box::new(RingSink::new(0)));
    let before = world.events_dispatched();
    world.run_until(secs(250.0));
    assert_eq!(
        world.events_dispatched() - before,
        20,
        "only the kernel's 5 s sweeps"
    );
    assert!(timer_fires(&mut world, consumer).is_empty());
}

#[test]
fn a_relay_runs_gc_while_it_holds_a_lingering_query() {
    let mut world = World::new(SimConfig::default(), 4);
    world.set_trace_sink(Box::new(RingSink::new(0)));
    // No producer: the one flooded query gets no answer, so the relay
    // holds nothing but its lingering copy.
    let consumer = world.add_node(
        Position::new(0.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 1)),
    );
    let relay = world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    world.run_until(secs(0.5));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_discovery(ctx, QueryFilter::match_all());
    });
    world.run_until(secs(1.0));
    let lqt = world
        .app::<PdsNode>(relay)
        .and_then(PdsNode::engine)
        .map(PdsEngine::lqt)
        .expect("started");
    assert_eq!(lqt.len(), 1, "the relay lingers the flooded query");
    let expires_us = lqt.iter().map(|l| l.query.expires_at.as_micros()).max();
    let expires_us = expires_us.expect("one entry");
    world.run_until(secs(100.0));
    let engine = world
        .app::<PdsNode>(relay)
        .and_then(PdsNode::engine)
        .expect("started");
    assert!(engine.lqt().is_empty());
    assert!(!engine.holds_expiring_state());
    // A GC tick every second from the first one after the query arrived,
    // through the first tick at or past its expiry (the one that removes
    // it), and none after.
    let last_tick = expires_us.div_ceil(1_000_000);
    let expected: Vec<u64> = (1..=last_tick).map(|s| s * 1_000_000).collect();
    assert_eq!(timer_fires(&mut world, relay), expected);
}

/// Sends one prepared payload, reliably, to node 0 when it starts.
struct Injector(Bytes);

impl Application for Injector {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.broadcast(self.0.clone(), &[NodeId(0)]);
    }

    fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: Bytes) {}
}

#[test]
fn a_padded_chunk_is_a_decode_error_not_a_stored_chunk() {
    let honest = PdsMessage::Response(ResponseMessage {
        id: ResponseId(77),
        sender: NodeId(0),
        kind: ResponseKind::Chunk {
            descriptor: video(4),
            chunk: ChunkId(0),
            data: Bytes::from_static(b"x"),
        },
    })
    .encode();
    let mut padded = honest.to_vec();
    padded.resize(honest.len() + 64 * 1024, 0);
    assert_eq!(
        PdsMessage::decode(&Bytes::from(padded.clone())),
        Err(DecodeError::TrailingBytes)
    );
    let mut world = World::new(SimConfig::default(), 8);
    let victim = world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    assert_eq!(victim, NodeId(0));
    world.add_node(
        Position::new(0.0, 0.0),
        Box::new(Injector(Bytes::from(padded))),
    );
    world.run_until(secs(5.0));
    let node = world.app::<PdsNode>(victim).expect("alive");
    assert_eq!(node.decode_errors(), 1);
    let engine = node.engine().expect("started");
    assert!(!engine.store().has_chunk(&ItemName::new("clip"), ChunkId(0)));
}

#[test]
fn a_chunk_query_past_the_item_limit_is_a_decode_error() {
    let naming = |chunk: u32| {
        PdsMessage::Query(QueryMessage {
            id: QueryId(5),
            kind: QueryKind::Chunks {
                item: ItemName::new("clip"),
                chunks: vec![ChunkId(chunk)],
            },
            sender: NodeId(1),
            expires_at: secs(20.0),
            filter: QueryFilter::match_all(),
            bloom: None,
            round: 0,
            ttl_hops: 0,
        })
        .encode()
    };
    assert!(PdsMessage::decode(&naming(MAX_ITEM_CHUNKS - 1)).is_ok());
    // A few dozen bytes that would size a lingering chunk set at 512 MiB.
    let hostile = naming(u32::MAX);
    assert!(hostile.len() < 64, "{} bytes", hostile.len());
    assert_eq!(PdsMessage::decode(&hostile), Err(DecodeError::BadBody));
    let mut world = World::new(SimConfig::default(), 8);
    let victim = world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    world.add_node(Position::new(0.0, 0.0), Box::new(Injector(hostile)));
    world.run_until(secs(5.0));
    let node = world.app::<PdsNode>(victim).expect("alive");
    assert_eq!(node.decode_errors(), 1);
    assert!(node.engine().expect("started").lqt().is_empty());
}

#[test]
fn an_mdr_query_past_the_item_limit_is_a_decode_error() {
    let naming = |total_chunks: u32| {
        PdsMessage::Query(QueryMessage {
            id: QueryId(6),
            kind: QueryKind::MdrChunks {
                item: ItemName::new("clip"),
                total_chunks,
            },
            sender: NodeId(1),
            expires_at: secs(20.0),
            filter: QueryFilter::match_all(),
            bloom: None,
            round: 0,
            ttl_hops: 0,
        })
        .encode()
    };
    assert!(PdsMessage::decode(&naming(MAX_ITEM_CHUNKS)).is_ok());
    // A chunk count no item can have, which would size the query's Bloom
    // filter from it.
    let hostile = naming(u32::MAX);
    assert_eq!(PdsMessage::decode(&hostile), Err(DecodeError::BadBody));
    let mut world = World::new(SimConfig::default(), 8);
    let victim = world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    world.add_node(Position::new(0.0, 0.0), Box::new(Injector(hostile)));
    world.run_until(secs(5.0));
    let node = world.app::<PdsNode>(victim).expect("alive");
    assert_eq!(node.decode_errors(), 1);
    assert!(node.engine().expect("started").lqt().is_empty());
}

#[test]
fn a_cdi_response_past_the_item_limit_is_a_decode_error() {
    let naming = |chunk: u32| {
        PdsMessage::Response(ResponseMessage {
            id: ResponseId(9),
            sender: NodeId(1),
            kind: ResponseKind::Cdi {
                item: ItemName::new("clip"),
                pairs: vec![(ChunkId(0), 0), (ChunkId(chunk), 0)],
            },
        })
        .encode()
    };
    assert!(PdsMessage::decode(&naming(MAX_ITEM_CHUNKS - 1)).is_ok());
    let hostile = naming(70_000);
    assert_eq!(PdsMessage::decode(&hostile), Err(DecodeError::BadBody));
    let mut world = World::new(SimConfig::default(), 8);
    let victim = world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    world.add_node(Position::new(0.0, 0.0), Box::new(Injector(hostile)));
    world.run_until(secs(5.0));
    let node = world.app::<PdsNode>(victim).expect("alive");
    assert_eq!(node.decode_errors(), 1);
    // Neither the response id nor any route was kept.
    assert!(!node.engine().expect("started").holds_expiring_state());
}
