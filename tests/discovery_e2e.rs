//! End-to-end Peer Data Discovery over the full radio stack: grids,
//! filters, multi-round recovery, mixedcast with several consumers,
//! opportunistic caching.

use pds_core::{
    AttrRef, AttrValue, DataDescriptor, PdsConfig, PdsNode, Predicate, QueryFilter, Relation,
    RoundParams,
};
use pds_mobility::grid;
use pds_sim::{NodeId, SimConfig, SimDuration, SimTime, World};

fn entry(owner: usize, k: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("ns", "e")
        .attr("type", if k.is_multiple_of(2) { "no2" } else { "co2" })
        .attr(
            "time",
            AttrValue::Time((owner as i64) * 1000 + i64::from(k)),
        )
        .build()
}

/// Builds an n×n grid, `per_node` entries each; returns (world, ids).
fn grid_world(n: usize, per_node: u32, seed: u64) -> (World, Vec<NodeId>) {
    let mut world = World::new(SimConfig::paper_multi_hop(), seed);
    let mut ids = Vec::new();
    for (i, pos) in grid::positions(n, n, grid::SPACING_M).iter().enumerate() {
        let mut node = PdsNode::new(PdsConfig::default(), 9000 + i as u64);
        for k in 0..per_node {
            node = node.with_metadata(entry(i, k), None);
        }
        ids.push(world.add_node(*pos, Box::new(node)));
    }
    world.run_until(SimTime::from_secs_f64(0.2));
    (world, ids)
}

fn run_discovery(world: &mut World, consumer: NodeId, filter: QueryFilter, horizon: f64) {
    world.with_app::<PdsNode, _>(consumer, move |node, ctx| {
        node.start_discovery(ctx, filter);
    });
    let deadline = SimTime::from_secs_f64(horizon);
    loop {
        let done = world
            .app::<PdsNode>(consumer)
            .and_then(PdsNode::discovery_report)
            .is_some_and(|r| r.finished_at.is_some());
        if done || world.now() >= deadline {
            return;
        }
        let next = world.now() + SimDuration::from_millis(250);
        world.run_until(next.min(deadline));
    }
}

#[test]
fn five_by_five_grid_full_recall() {
    let (mut world, ids) = grid_world(5, 8, 1);
    let consumer = ids[grid::center_index(5, 5)];
    run_discovery(&mut world, consumer, QueryFilter::match_all(), 30.0);
    let report = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::discovery_report)
        .expect("ran");
    assert!(report.finished_at.is_some(), "must terminate");
    assert_eq!(report.entries, 25 * 8, "all entries discovered");
}

#[test]
fn corner_consumer_reaches_far_corner() {
    // Max-hop path: corner to corner on a 5×5 grid is 4 hops.
    let (mut world, ids) = grid_world(5, 4, 2);
    let consumer = ids[0];
    run_discovery(&mut world, consumer, QueryFilter::match_all(), 40.0);
    let report = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::discovery_report)
        .expect("ran");
    assert_eq!(report.entries, 100, "multi-round recovers distant entries");
}

#[test]
fn filtered_discovery_returns_only_matches() {
    let (mut world, ids) = grid_world(4, 6, 3);
    let consumer = ids[grid::center_index(4, 4)];
    let filter = QueryFilter::new(vec![Predicate::new("type", Relation::Eq, "no2")]);
    run_discovery(&mut world, consumer, filter, 30.0);
    let node = world.app::<PdsNode>(consumer).expect("alive");
    let session = node.engine().expect("started").discovery().expect("ran");
    // k ∈ 0..6 → "no2" for k=0,2,4 → half the entries.
    assert_eq!(session.entries().len(), 16 * 3);
    assert!(session
        .entries()
        .iter()
        .all(|d| d.get("type") == Some(AttrRef::Str("no2"))));
}

#[test]
fn relays_cache_opportunistically() {
    let (mut world, ids) = grid_world(3, 5, 4);
    let consumer = ids[grid::center_index(3, 3)];
    run_discovery(&mut world, consumer, QueryFilter::match_all(), 20.0);
    // Every node overheard the responses converging on the center.
    let mut cached = 0usize;
    for &id in &ids {
        let n = world.app::<PdsNode>(id).expect("alive");
        cached += n.engine().expect("started").store().metadata_len();
    }
    assert!(
        cached > 9 * 5 * 2,
        "caching should spread entries well beyond the owners (total cached {cached})"
    );
}

#[test]
fn simultaneous_consumers_all_reach_full_recall() {
    let (mut world, ids) = grid_world(5, 6, 5);
    let consumers = [ids[6], ids[12], ids[18]];
    for &c in &consumers {
        world.with_app::<PdsNode, _>(c, |node, ctx| {
            node.start_discovery(ctx, QueryFilter::match_all());
        });
    }
    world.run_until(SimTime::from_secs_f64(40.0));
    for &c in &consumers {
        let report = world
            .app::<PdsNode>(c)
            .and_then(PdsNode::discovery_report)
            .expect("ran");
        assert_eq!(report.entries, 150, "consumer {c} complete");
    }
}

#[test]
fn single_round_misses_then_multi_round_recovers() {
    // With max_rounds = 1 on a lossy 7×7 grid, recall is typically below
    // 100 %; unlimited rounds close the gap. (The premise of Fig. 5/6.)
    let run = |max_rounds: u32| -> usize {
        let mut world = World::new(SimConfig::paper_multi_hop(), 6);
        let pds = PdsConfig {
            rounds: RoundParams {
                max_rounds,
                ..RoundParams::default()
            },
            ..PdsConfig::default()
        };
        let mut ids = Vec::new();
        for (i, pos) in grid::positions(7, 7, grid::SPACING_M).iter().enumerate() {
            let mut node = PdsNode::new(pds.clone(), 7000 + i as u64);
            for k in 0..40 {
                node = node.with_metadata(entry(i, k), None);
            }
            ids.push(world.add_node(*pos, Box::new(node)));
        }
        let consumer = ids[grid::center_index(7, 7)];
        world.run_until(SimTime::from_secs_f64(0.2));
        world.with_app::<PdsNode, _>(consumer, |node, ctx| {
            node.start_discovery(ctx, QueryFilter::match_all());
        });
        world.run_until(SimTime::from_secs_f64(60.0));
        world
            .app::<PdsNode>(consumer)
            .and_then(PdsNode::discovery_report)
            .expect("ran")
            .entries
    };
    let single = run(1);
    let multi = run(12);
    assert_eq!(multi, 49 * 40, "multi-round reaches full recall");
    assert!(
        single <= multi,
        "single round cannot beat multi-round ({single} vs {multi})"
    );
}

#[test]
fn whole_protocol_replays_deterministically() {
    let run = |seed: u64| -> (usize, u64) {
        let (mut world, ids) = grid_world(4, 8, seed);
        let consumer = ids[grid::center_index(4, 4)];
        run_discovery(&mut world, consumer, QueryFilter::match_all(), 30.0);
        let entries = world
            .app::<PdsNode>(consumer)
            .and_then(PdsNode::discovery_report)
            .expect("ran")
            .entries;
        (entries, world.stats().bytes_sent)
    };
    assert_eq!(run(77), run(77), "same seed, same bytes on the air");
}

#[test]
fn no_decode_errors_anywhere() {
    let (mut world, ids) = grid_world(4, 10, 7);
    let consumer = ids[5];
    run_discovery(&mut world, consumer, QueryFilter::match_all(), 30.0);
    for &id in &ids {
        let n = world.app::<PdsNode>(id).expect("alive");
        assert_eq!(n.decode_errors(), 0, "codec must be clean at {id}");
    }
}
