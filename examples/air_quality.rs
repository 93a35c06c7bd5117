//! Air-quality crowdsensing — the paper's motivating small-data scenario.
//!
//! 49 devices in a park have each logged NO₂ and CO₂ samples with GPS
//! coordinates. A consumer in the middle first *discovers* what exists
//! (PDD with an attribute filter), then *retrieves the actual samples* in a
//! spatial window using the small-data flow of §IV ("air pollution samples
//! in a radius").
//!
//! Run with: `cargo run --example air_quality`

use pds::core::{
    AttrRef, AttrValue, DataDescriptor, PdsConfig, PdsNode, Predicate, QueryFilter, Relation,
};
use pds::mobility::grid;
use pds::sim::{SimConfig, SimRng, SimTime, World};

fn main() {
    let mut world = World::new(SimConfig::default(), 7);
    let mut rng = SimRng::new(99);

    // A 7×7 grid of phones; each carries a handful of samples tagged with
    // its own position.
    let positions = grid::positions(7, 7, grid::SPACING_M);
    let mut nodes = Vec::new();
    for (i, pos) in positions.iter().enumerate() {
        let mut node = PdsNode::new(PdsConfig::default(), 1000 + i as u64);
        for k in 0..4 {
            let kind = if (i + k) % 2 == 0 { "no2" } else { "co2" };
            let descriptor = DataDescriptor::builder()
                .attr("ns", "env")
                .attr("type", kind)
                .attr("x", pos.x)
                .attr("y", pos.y)
                .attr(
                    "time",
                    AttrValue::Time(1_467_800_000 + (i * 60 + k * 7) as i64),
                )
                .build();
            // The payload is the actual reading (a tiny blob).
            let reading = format!("{kind}={:.1}ppb", rng.range_f64(5.0, 40.0));
            node = node.with_metadata(descriptor, Some(reading.into_bytes().into()));
        }
        nodes.push(world.add_node(*pos, Box::new(node)));
    }
    let consumer = nodes[grid::center_index(7, 7)];
    world.run_until(SimTime::from_secs_f64(0.2));

    // Step 1: what's on the menu? Only NO₂ interests us.
    let no2 = QueryFilter::new(vec![Predicate::new("type", Relation::Eq, "no2")]);
    world.with_app::<PdsNode, _>(consumer, {
        let no2 = no2.clone();
        move |node, ctx| node.start_discovery(ctx, no2)
    });
    world.run_until(SimTime::from_secs_f64(20.0));
    let discovered = world
        .app::<PdsNode>(consumer)
        .and_then(PdsNode::discovery_report)
        .expect("discovery ran");
    println!(
        "Discovered {} NO2 sample descriptors in {:.2} s ({} rounds).",
        discovered.entries,
        discovered.latency.as_secs_f64(),
        discovered.rounds
    );

    // Step 2: fetch the actual NO₂ readings within 100 m of the consumer
    // (the paper's "samples in a radius", approximated by a bounding box).
    let center = grid::positions(7, 7, grid::SPACING_M)[grid::center_index(7, 7)];
    let nearby_no2 = QueryFilter::new(vec![
        Predicate::new("type", Relation::Eq, "no2"),
        Predicate::range("x", center.x - 100.0, center.x + 100.0),
        Predicate::range("y", center.y - 100.0, center.y + 100.0),
    ]);
    world.with_app::<PdsNode, _>(consumer, move |node, ctx| {
        node.start_small_data_retrieval(ctx, nearby_no2);
    });
    world.run_until(SimTime::from_secs_f64(40.0));

    let node = world.app::<PdsNode>(consumer).expect("alive");
    let engine = node.engine().expect("started");
    let session = engine.discovery().expect("retrieval session");
    println!(
        "Retrieved {} nearby NO2 samples with payloads:",
        session.entries().len()
    );
    let mut shown = 0;
    for d in session.entries() {
        if let Some(payload) = engine.store().small_payload(d) {
            if shown < 5 {
                let coord = |name| match d.get(name) {
                    Some(AttrRef::Float(v)) => v,
                    _ => 0.0,
                };
                println!(
                    "  ({:>5.0} m, {:>5.0} m): {}",
                    coord("x"),
                    coord("y"),
                    String::from_utf8_lossy(&payload)
                );
                shown += 1;
            }
        }
    }
    if session.entries().len() > shown {
        println!("  ... and {} more", session.entries().len() - shown);
    }
    println!(
        "Total radio traffic: {:.1} KB",
        world.stats().bytes_sent as f64 / 1e3
    );
}
