//! Protocol-semantics tests over the radio: receiver-list gating, lingering
//! expiry, hop limits and energy — the paper's §III rules and the §VII
//! extensions, observed end to end.

use bytes::Bytes;
use pds_core::{AttrValue, ChunkId, DataDescriptor, ItemName, PdsConfig, PdsNode, QueryFilter};
use pds_mobility::grid;
use pds_sim::{EnergyModel, NodeId, SimConfig, SimDuration, SimTime, World};

fn entry(owner: usize, k: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "s")
        .attr("o", owner as i64)
        .attr("t", AttrValue::Time(i64::from(k)))
        .build()
}

fn item(total: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "video")
        .attr("name", "clip")
        .attr("total_chunks", i64::from(total))
        .build()
}

fn line_world(n: usize, per_node: u32, pds: PdsConfig, seed: u64) -> (World, Vec<NodeId>) {
    let mut world = World::new(SimConfig::paper_multi_hop(), seed);
    let mut ids = Vec::new();
    for i in 0..n {
        let mut node = PdsNode::new(pds.clone(), 2000 + i as u64);
        for k in 0..per_node {
            node = node.with_metadata(entry(i, k), None);
        }
        ids.push(world.add_node(pds_sim::Position::new(i as f64 * 60.0, 0.0), Box::new(node)));
    }
    world.run_until(SimTime::from_secs_f64(0.2));
    (world, ids)
}

fn drive_discovery(world: &mut World, consumer: NodeId, horizon: f64) -> usize {
    world.with_app::<PdsNode, _>(consumer, |n, ctx| {
        n.start_discovery(ctx, QueryFilter::match_all());
    });
    let deadline = SimTime::from_secs_f64(horizon);
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
    world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::discovery_report)
        .map(|r| r.entries)
        .unwrap_or(0)
}

#[test]
fn hop_limit_bounds_discovery_over_radio() {
    let pds = PdsConfig {
        query_hop_limit: Some(2),
        ..PdsConfig::default()
    };
    let (mut world, ids) = line_world(6, 2, pds, 1);
    let entries = drive_discovery(&mut world, ids[0], 30.0);
    // Own entries + neighbors within 2 hops (nodes 1 and 2): 3 × 2 = 6.
    assert_eq!(entries, 6, "2-hop budget reaches exactly nodes 0..=2");
}

#[test]
fn lingering_expiry_stops_response_routing() {
    // A provider comes alive *after* the consumer's query has expired from
    // every LQT: a single round then cannot find it, so the multi-round
    // machinery has to ask again (which is exactly the design).
    let mut pds = PdsConfig::default();
    pds.rounds.max_rounds = 1;
    let mut world = World::new(SimConfig::paper_multi_hop(), 3);
    let consumer = world.add_node(
        pds_sim::Position::new(0.0, 0.0),
        Box::new(PdsNode::new(pds.clone(), 1)),
    );
    let relay = world.add_node(
        pds_sim::Position::new(60.0, 0.0),
        Box::new(PdsNode::new(pds.clone(), 2)),
    );
    let _ = relay;
    world.run_until(SimTime::from_secs_f64(0.2));
    world.with_app::<PdsNode, _>(consumer, |n, ctx| {
        n.start_discovery(ctx, QueryFilter::match_all());
    });
    world.run_until(SimTime::from_secs_f64(21.0));
    // Provider joins at 120 m (2 hops), after the 20 s lingering horizon
    // (the query lifetime the paper's queries carry).
    let late = PdsNode::new(pds, 3).with_metadata(entry(9, 0), None);
    world.add_node(pds_sim::Position::new(120.0, 0.0), Box::new(late));
    world.run_until(SimTime::from_secs_f64(30.0));
    let report = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::discovery_report)
        .expect("ran");
    assert_eq!(
        report.entries, 0,
        "expired lingering queries route nothing (single round)"
    );
}

#[test]
fn overhearers_cache_but_do_not_forward() {
    // Classic §III-A-2 receiver check: an off-path node overhears responses
    // and caches entries, but its transmissions stay at zero extra relays —
    // we verify it ends up holding data despite never being asked.
    let mut world = World::new(SimConfig::paper_multi_hop(), 5);
    let producer = PdsNode::new(PdsConfig::default(), 1)
        .with_metadata(entry(0, 0), None)
        .with_metadata(entry(0, 1), None);
    world.add_node(pds_sim::Position::new(0.0, 0.0), Box::new(producer));
    let consumer = world.add_node(
        pds_sim::Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    // Eavesdropper in range of the producer but not on any return path.
    let eavesdropper = world.add_node(
        pds_sim::Position::new(0.0, 60.0),
        Box::new(PdsNode::new(PdsConfig::default(), 3)),
    );
    world.run_until(SimTime::from_secs_f64(0.2));
    let got = drive_discovery(&mut world, consumer, 15.0);
    assert_eq!(got, 2);
    let overheard = world
        .app::<PdsNode>(eavesdropper)
        .and_then(|n| n.engine())
        .map(|e| e.store().metadata_len())
        .expect("alive");
    assert_eq!(overheard, 2, "eavesdropper cached the overheard entries");
    let overheard_msgs = world
        .node_stats(eavesdropper)
        .expect("alive")
        .messages_overheard;
    assert!(overheard_msgs > 0, "deliveries were flagged as overheard");
}

#[test]
fn energy_of_discovery_is_dominated_by_idle_listening() {
    // §VII's point: overhearing keeps radios on, so idle listening — not
    // traffic — dominates energy at small data volumes.
    let mut world = World::new(SimConfig::paper_multi_hop(), 6);
    let mut ids = Vec::new();
    for (i, pos) in grid::positions(3, 3, grid::SPACING_M).iter().enumerate() {
        let mut node = PdsNode::new(PdsConfig::default(), 100 + i as u64);
        for k in 0..4 {
            node = node.with_metadata(entry(i, k), None);
        }
        ids.push(world.add_node(*pos, Box::new(node)));
    }
    let consumer = ids[grid::center_index(3, 3)];
    world.run_until(SimTime::from_secs_f64(0.2));
    drive_discovery(&mut world, consumer, 30.0);
    let model = EnergyModel::default();
    let total = world.energy_j(&model);
    let idle = model.idle_mw / 1e3 * world.now().as_secs_f64() * ids.len() as f64;
    assert!(total > idle, "traffic adds on top of idle");
    assert!(
        idle / total > 0.9,
        "idle listening dominates at metadata volumes ({:.1}%)",
        idle / total * 100.0
    );
}

#[test]
fn reassembled_item_bytes_are_exact() {
    // End-to-end payload integrity across fragmentation, relaying, caching
    // and reassembly for every chunk of an item.
    let total = 5u32;
    let mut world = World::new(SimConfig::paper_multi_hop(), 7);
    let mut provider = PdsNode::new(PdsConfig::default(), 1);
    let body = |c: u32| -> Vec<u8> {
        (0..40_000u32)
            .map(|i| ((i * 31 + c * 7) % 251) as u8)
            .collect()
    };
    for c in 0..total {
        provider = provider.with_chunk(item(total), ChunkId(c), Bytes::from(body(c)));
    }
    world.add_node(pds_sim::Position::new(0.0, 0.0), Box::new(provider));
    world.add_node(
        pds_sim::Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    let consumer = world.add_node(
        pds_sim::Position::new(120.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 3)),
    );
    world.run_until(SimTime::from_secs_f64(0.2));
    world.with_app::<PdsNode, _>(consumer, |n, ctx| {
        n.start_retrieval(ctx, item(5));
    });
    world.run_until(SimTime::from_secs_f64(60.0));
    let engine = world
        .app::<PdsNode>(consumer)
        .and_then(|n| n.engine())
        .expect("alive");
    for c in 0..total {
        let data = engine
            .store()
            .chunk(&ItemName::new("clip"), ChunkId(c))
            .expect("chunk held");
        assert_eq!(data.as_ref(), body(c).as_slice(), "chunk {c} bytes exact");
    }
}
