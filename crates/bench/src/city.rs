//! City-scale scenario family: 10k–100k-node worlds with bounded local
//! density.
//!
//! The paper's venues top out at hundreds of people; these scenarios ask
//! what the *kernel* costs at city scale, where the slab/SoA memory diet
//! (DESIGN.md §16) has to hold. Every layout keeps the neighbor count per
//! node bounded — area grows with `n` — so dispatch work stays O(n) and
//! the per-node byte budget is meaningful rather than dominated by one
//! dense hotspot:
//!
//! * [`CityScenario::StadiumExit`] — a flash crowd on concentric stands
//!   around a stadium, everyone walking radially outward at once;
//! * [`CityScenario::VehicularCorridor`] — a multi-lane highway of
//!   constant headway, every vehicle driving down-corridor at 25–35 m/s;
//! * [`CityScenario::DisasterRelief`] — relief camps on a grid with a
//!   [`FaultPlan`] partition cutting the network in half mid-run and
//!   healing before the end (partition-and-heal, not permanent loss).
//!
//! Builders are deterministic in `(scenario, n, seed)`: the `city` block
//! of `BENCH_sim_scale.json` runs each scenario twice with the same seed
//! and asserts identical statistics.

use pds_sim::{
    Application, Context, FaultPlan, MessageMeta, PartitionWindow, Position, SimConfig,
    SimDuration, SimTime, World,
};

/// The node counts the city family is specified at. The quick bench runs
/// the smallest; nightly CI runs 50k via `--city-n`; 100k is for manual
/// capacity runs.
pub const CITY_NODE_COUNTS: [usize; 3] = [10_000, 50_000, 100_000];

/// Per-node peak-heap budget for the city family, bytes. The pre-diet
/// kernel sat near 84 KB/node on the dense-chatter scenario; the slab/SoA
/// diet commits to ≤ 32 KB/node at n = 10k (≥ 2.5× reduction), asserted
/// by the `sim_scale` binary at every n ≥ 10k.
pub const CITY_BYTES_PER_NODE_BUDGET: usize = 32 * 1024;

/// Chatter period for city nodes. Slower than the kernel-stress scenario
/// (10 ms): a city node beacons a few times a second, which keeps the
/// event count at n = 100k inside a CI-sized run while still exercising
/// every hot path continuously.
const CITY_CHATTER_PERIOD: SimDuration = SimDuration::from_millis(250);

/// Target spacing between neighboring people in the stands / camps,
/// meters. With the default 75 m radio range this bounds a node's
/// neighborhood to ~20 peers.
const PEDESTRIAN_SPACING_M: f64 = 30.0;

/// Periodic small-payload broadcaster, phase-staggered per node so the
/// whole city never keys up in the same microsecond.
struct CityChatter {
    phase: SimDuration,
}

impl Application for CityChatter {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(self.phase, 0);
    }
    fn on_message(&mut self, _: &mut Context, _: MessageMeta, _: bytes::Bytes) {}
    fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
        ctx.broadcast(bytes::Bytes::from_static(&[0u8; 200]), &[]);
        ctx.set_timer(CITY_CHATTER_PERIOD, 0);
    }
}

/// One member of the city scenario family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityScenario {
    /// Flash crowd: concentric stands draining radially outward.
    StadiumExit,
    /// Multi-lane highway at constant headway, everyone driving.
    VehicularCorridor,
    /// Relief camps with a partition-and-heal fault window mid-run.
    DisasterRelief,
}

impl CityScenario {
    /// Every scenario, in report order.
    pub const ALL: [CityScenario; 3] = [
        CityScenario::StadiumExit,
        CityScenario::VehicularCorridor,
        CityScenario::DisasterRelief,
    ];

    /// Stable machine-readable key for JSON records.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            CityScenario::StadiumExit => "stadium_exit",
            CityScenario::VehicularCorridor => "vehicular_corridor",
            CityScenario::DisasterRelief => "disaster_relief",
        }
    }

    /// Builds the scenario world: `n` chattering nodes laid out per the
    /// scenario, mobility started, faults (if any) installed.
    /// Deterministic in `(self, n, seed)`.
    #[must_use]
    pub fn build(self, n: usize, seed: u64) -> World {
        let mut config = SimConfig::default();
        // Same large-area knobs as the kernel-stress scenario: a 4-range
        // interference horizon and a coarse re-bucket cadence, so grid
        // maintenance does not dominate at 100k movers.
        config.radio.interference_range_factor = 4.0;
        config.spatial.rebucket_interval = SimDuration::from_millis(250);
        let mut world = World::new(config, seed);
        world.reserve_nodes(n);
        match self {
            CityScenario::StadiumExit => build_stadium(&mut world, n),
            CityScenario::VehicularCorridor => build_corridor(&mut world, n),
            CityScenario::DisasterRelief => build_relief(&mut world, n),
        }
        world
    }
}

fn spawn(world: &mut World, pos: Position, rng: &mut pds_sim::SimRng) -> pds_sim::NodeId {
    let phase = SimDuration::from_micros(rng.range_f64(0.0, 250_000.0) as u64);
    world.add_node(pos, Box::new(CityChatter { phase }))
}

/// Concentric stands around a stadium center: ring `k` sits at radius
/// `r0 + k·spacing` and holds one person per ~`spacing` of arc, so local
/// density is constant and total area grows with `n`. Everyone then walks
/// outward to a point well past the outermost ring — the exit flash
/// crowd — at individual walking speeds.
fn build_stadium(world: &mut World, n: usize) {
    let mut rng = world.fork_rng(101);
    let r0 = 60.0;
    let spacing = PEDESTRIAN_SPACING_M;
    let mut placed = 0usize;
    let mut ring = 0usize;
    let mut ids = Vec::with_capacity(n);
    let mut angles = Vec::with_capacity(n);
    let center = 0.0; // offset applied below once the extent is known
    let mut max_r = r0;
    while placed < n {
        let r = r0 + ring as f64 * spacing;
        max_r = r;
        let seats = ((std::f64::consts::TAU * r / spacing).floor() as usize).max(1);
        let seats = seats.min(n - placed);
        for s in 0..seats {
            let theta = std::f64::consts::TAU * s as f64 / seats as f64;
            angles.push(theta);
            ids.push((r, theta));
        }
        placed += seats;
        ring += 1;
    }
    // Positions must be nonnegative for the grid index: shift the whole
    // stadium so the far exit radius still fits in the first quadrant.
    let exit_r = max_r + 500.0;
    let shift = exit_r + center + 10.0;
    let mut node_ids = Vec::with_capacity(n);
    for &(r, theta) in &ids {
        let pos = Position::new(shift + r * theta.cos(), shift + r * theta.sin());
        node_ids.push(spawn(world, pos, &mut rng));
    }
    for (i, &id) in node_ids.iter().enumerate() {
        let theta = angles[i];
        let dest = Position::new(shift + exit_r * theta.cos(), shift + exit_r * theta.sin());
        let speed = rng.range_f64(1.0, 2.0);
        world.move_node(id, dest, speed);
    }
}

/// Lanes along the corridor, meters apart.
const CORRIDOR_LANES: usize = 4;
/// Headway between vehicles in a lane, meters. With the 75 m radio range
/// a vehicle hears ~15 others.
const CORRIDOR_HEADWAY_M: f64 = 40.0;

/// A straight multi-lane highway: `n / lanes` vehicles per lane at
/// constant headway (corridor length grows with `n`), every vehicle
/// driving down-corridor at 25–35 m/s.
fn build_corridor(world: &mut World, n: usize) {
    let mut rng = world.fork_rng(102);
    let per_lane = n.div_ceil(CORRIDOR_LANES);
    let length = per_lane as f64 * CORRIDOR_HEADWAY_M;
    let mut spawned = 0usize;
    for lane in 0..CORRIDOR_LANES {
        let y = 10.0 + lane as f64 * 5.0;
        for slot in 0..per_lane {
            if spawned == n {
                break;
            }
            // Stagger lanes by half a headway so vehicles don't form
            // perfect broadside rows.
            let x = 10.0
                + slot as f64 * CORRIDOR_HEADWAY_M
                + if lane % 2 == 1 {
                    CORRIDOR_HEADWAY_M / 2.0
                } else {
                    0.0
                };
            let id = spawn(world, Position::new(x, y), &mut rng);
            let speed = rng.range_f64(25.0, 35.0);
            // Drive toward the end of the corridor plus a margin so nobody
            // arrives during a bench-sized run.
            world.move_node(id, Position::new(x + length + 1_000.0, y), speed);
            spawned += 1;
        }
    }
}

/// Nodes per relief camp.
const CAMP_SIZE: usize = 8;
/// Spacing between camp centers, meters. Inside the 75 m radio range, so
/// adjacent camps relay for each other and the mid-run partition has
/// cross-boundary links to cut.
const CAMP_SPACING_M: f64 = 60.0;
/// Scatter radius inside a camp, meters.
const CAMP_RADIUS_M: f64 = 15.0;
/// Fraction of nodes acting as couriers walking between camps.
const COURIER_FRACTION: f64 = 0.1;

/// Relief camps on a square grid at constant camp density, a courier
/// fraction walking the field — and a partition cutting the node set in
/// half for the middle of the run, healing implicitly at the window end
/// ([`PartitionWindow`] semantics).
fn build_relief(world: &mut World, n: usize) {
    let mut rng = world.fork_rng(103);
    let camps = n.div_ceil(CAMP_SIZE);
    let side = (camps as f64).sqrt().ceil() as usize;
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let c = i / CAMP_SIZE;
        let cx = 50.0 + (c % side) as f64 * CAMP_SPACING_M;
        let cy = 50.0 + (c / side) as f64 * CAMP_SPACING_M;
        let x = cx + rng.range_f64(-CAMP_RADIUS_M, CAMP_RADIUS_M);
        let y = cy + rng.range_f64(-CAMP_RADIUS_M, CAMP_RADIUS_M);
        ids.push(spawn(world, Position::new(x, y), &mut rng));
    }
    let extent = side as f64 * CAMP_SPACING_M + 100.0;
    for &id in &ids {
        if rng.chance(COURIER_FRACTION) {
            let dest = Position::new(rng.range_f64(0.0, extent), rng.range_f64(0.0, extent));
            world.move_node(id, dest, 1.4);
        }
    }
    world.install_faults(disaster_partition_plan(7, n as u32));
}

/// The disaster-relief fault schedule: one partition window over the
/// middle of a nominal 2-second bench horizon, splitting the id space in
/// half and healing implicitly at the window end. Pure data — determinism
/// comes from [`PartitionWindow`] being a time/id predicate.
#[must_use]
pub fn disaster_partition_plan(seed: u64, n: u32) -> FaultPlan {
    let mut plan = FaultPlan::none(seed);
    plan.partitions.push(PartitionWindow {
        from: SimTime::from_secs_f64(0.5),
        until: SimTime::from_secs_f64(1.2),
        boundary: n / 2,
    });
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(scenario: CityScenario, n: usize, seed: u64) -> pds_sim::Stats {
        let mut w = scenario.build(n, seed);
        w.run_until(SimTime::from_secs_f64(1.5));
        w.stats().clone()
    }

    #[test]
    fn scenarios_are_deterministic_and_deliver_traffic() {
        for scenario in CityScenario::ALL {
            let a = run(scenario, 200, 42);
            let b = run(scenario, 200, 42);
            assert_eq!(a, b, "{scenario:?} must replay identically");
            assert!(
                a.frames_delivered > 0,
                "{scenario:?} produced no traffic: {a:?}"
            );
        }
    }

    #[test]
    fn relief_partition_cuts_then_heals() {
        // The partition must actually cost deliveries: the same world
        // without the fault plan delivers strictly more frames during the
        // window.
        let mut faulted = CityScenario::DisasterRelief.build(240, 42);
        let mut world = World::new(
            {
                let mut c = SimConfig::default();
                c.radio.interference_range_factor = 4.0;
                c.spatial.rebucket_interval = SimDuration::from_millis(250);
                c
            },
            42,
        );
        world.reserve_nodes(240);
        build_relief_unfaulted(&mut world, 240);
        faulted.run_until(SimTime::from_secs_f64(1.5));
        world.run_until(SimTime::from_secs_f64(1.5));
        assert!(
            faulted.stats().frames_delivered < world.stats().frames_delivered,
            "partition should suppress cross-boundary deliveries: {} vs {}",
            faulted.stats().frames_delivered,
            world.stats().frames_delivered
        );
    }

    /// The relief layout without its fault plan, for the heal test.
    fn build_relief_unfaulted(world: &mut World, n: usize) {
        let mut rng = world.fork_rng(103);
        let camps = n.div_ceil(CAMP_SIZE);
        let side = (camps as f64).sqrt().ceil() as usize;
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            let c = i / CAMP_SIZE;
            let cx = 50.0 + (c % side) as f64 * CAMP_SPACING_M;
            let cy = 50.0 + (c / side) as f64 * CAMP_SPACING_M;
            let x = cx + rng.range_f64(-CAMP_RADIUS_M, CAMP_RADIUS_M);
            let y = cy + rng.range_f64(-CAMP_RADIUS_M, CAMP_RADIUS_M);
            ids.push(spawn(world, Position::new(x, y), &mut rng));
        }
        let extent = side as f64 * CAMP_SPACING_M + 100.0;
        for &id in &ids {
            if rng.chance(COURIER_FRACTION) {
                let dest = Position::new(rng.range_f64(0.0, extent), rng.range_f64(0.0, extent));
                world.move_node(id, dest, 1.4);
            }
        }
    }

    #[test]
    fn layouts_keep_positions_nonnegative() {
        for scenario in CityScenario::ALL {
            let w = scenario.build(300, 1);
            for id in w.node_ids().collect::<Vec<_>>() {
                let p = w.position(id).expect("alive");
                assert!(p.x >= 0.0 && p.y >= 0.0, "{scenario:?} placed {p:?}");
            }
        }
    }
}
