//! The four workloads: world construction, data placement and the closed
//! loop that starts consumer sessions on real `PdsNode`s and steps the
//! world until they report `finished_at`.
//!
//! Entry/item descriptors, random-holder placement and node seeding follow
//! `pds_bench::scenario`, whose node builder is private and whose `Built`
//! downcasts to a bare `PdsNode` (the traced rep hosts `Timed` nodes).
//! Everything here is deterministic in `(workload, size, seed)`.

use crate::alloc;
use crate::timed::{self, Mode, Tally, TimingSink, SLOTS};
use bytes::Bytes;
use pds_bench::metrics::WallClock;
use pds_core::{
    Application, AttrValue, ChunkId, DataDescriptor, ItemName, PdsConfig, PdsNode, QueryFilter,
};
use pds_mobility::{grid, presets, MobilityTrace, PersonId, TraceAction, TraceInstaller};
use pds_sim::{NodeId, Position, SimConfig, SimDuration, SimRng, SimTime, Stats, World};
use std::collections::BTreeMap;
use std::f64::consts::TAU;
use std::marker::PhantomData;

const CHUNK: usize = 256 * 1024;
/// How far the driver steps the world between completion checks.
const STEP: SimDuration = SimDuration::from_millis(250);
/// Nodes start (timers arm) before any consumer acts; part of set-up.
const STARTUP: SimDuration = SimDuration::from_millis(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PddGrid,
    PdrGrid,
    CampusChurn,
    CityDistrict,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PddGrid,
        Workload::PdrGrid,
        Workload::CampusChurn,
        Workload::CityDistrict,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PddGrid => "pdd_grid",
            Workload::PdrGrid => "pdr_grid",
            Workload::CampusChurn => "campus_churn",
            Workload::CityDistrict => "city_district",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether every session must finish with recall 1: true on the static
    /// worlds, false under churn, where holders walk away mid-session and
    /// the true recall is reported without gating on it.
    pub fn must_complete(self) -> bool {
        self != Workload::CampusChurn
    }
}

/// `Full` is what every reported number uses; `Smoke` runs the same code
/// on tiny worlds in seconds, for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Discovery,
    Retrieval,
}

/// One consumer session, as reported by the node and as seen by the host.
#[derive(Debug, Clone)]
pub struct Session {
    pub kind: Kind,
    pub node: NodeId,
    /// `DiscoveryReport::latency` / `RetrievalReport::latency`.
    pub latency: SimDuration,
    /// Whether the node reported `finished_at` before the deadline.
    pub finished: bool,
    /// Against ground truth, where there is one.
    pub recall: Option<f64>,
    /// Entries discovered or chunks received.
    pub items: u64,
    pub rounds: u32,
    /// Host seconds since the run's clock started.
    pub host: (f64, f64),
}

/// What the traced rep's sink recorded in one world.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    pub events: u64,
    /// Host seconds `pds_obs::sessions` took to rebuild the spans.
    pub sessions_s: f64,
    /// Simulated µs per `DelayComponent::ALL` over the rebuilt sessions.
    pub path_us: [u64; 5],
    pub path_sessions: u64,
}

/// One world of a rep: built, driven to the end of its sessions, dropped.
#[derive(Debug, Clone)]
pub struct WorldRun {
    pub label: String,
    /// Host seconds since the run's clock started.
    pub setup: (f64, f64),
    pub drive: (f64, f64),
    /// Part of the drive spent inside `World` calls; the rest is the
    /// driver's own polling.
    pub kernel_s: f64,
    pub nodes: u64,
    /// Live heap growth over set-up.
    pub heap_setup_bytes: usize,
    /// Peak live heap from set-up to the last session.
    pub peak_heap_bytes: usize,
    pub allocs: u64,
    pub layers: [Tally; SLOTS],
    pub events: u64,
    pub stats: Stats,
    pub sessions: Vec<Session>,
    pub decode_errors: u64,
    pub resends: u64,
    pub corrupt_chunks: u64,
    pub mobility_build_s: f64,
    pub mobility_events: u64,
    pub trace: Option<TraceSummary>,
}

/// One repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    pub worlds: Vec<WorldRun>,
}

/// The paper's metadata entry size regime: ~40-byte encodings.
pub fn entry_descriptor(i: usize) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("ns", "e")
        .attr("type", "no2")
        .attr("time", AttrValue::Time(1_480_000_000 + i as i64))
        .build()
}

/// A chunked item; chunk `c` is `chunk_len(c)` bytes of `c % 251`.
struct Item {
    descriptor: DataDescriptor,
    name: ItemName,
    size: usize,
}

impl Item {
    fn new(name: &str, size: usize) -> Self {
        let descriptor = DataDescriptor::builder()
            .attr("ns", "e")
            .attr("type", "video")
            .attr("name", name)
            .attr("total_chunks", size.div_ceil(CHUNK) as i64)
            .build();
        Self {
            descriptor,
            name: ItemName::new(name),
            size,
        }
    }

    fn chunks(&self) -> u32 {
        self.size.div_ceil(CHUNK) as u32
    }

    fn chunk_len(&self, c: u32) -> usize {
        CHUNK.min(self.size - c as usize * CHUNK)
    }

    fn fill(c: u32) -> u8 {
        (c % 251) as u8
    }

    /// A holder's own copy of chunk `c`.
    fn chunk_data(&self, c: u32) -> Bytes {
        Bytes::from(vec![Self::fill(c); self.chunk_len(c)])
    }
}

#[derive(Default)]
struct NodeData {
    metadata: Vec<DataDescriptor>,
    chunks: Vec<(DataDescriptor, ChunkId, Bytes)>,
}

/// Which node index holds what at simulation start.
struct Placement(Vec<NodeData>);

impl Placement {
    fn new(n: usize) -> Self {
        Self((0..n).map(|_| NodeData::default()).collect())
    }

    /// `entries` distinct entries, `redundancy` copies each on distinct
    /// random nodes (§VI-A).
    fn scatter_metadata(&mut self, entries: usize, redundancy: usize, seed: u64) {
        let n = self.0.len();
        let mut rng = SimRng::new(seed ^ 0x6d65_7461);
        for i in 0..entries {
            let d = entry_descriptor(i);
            let mut holders: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut holders);
            for &h in holders.iter().take(redundancy.min(n)) {
                self.0[h].metadata.push(d.clone());
            }
        }
    }

    /// Each chunk of `item` on `redundancy` distinct random nodes, never
    /// on `exclude` (the consumer, so retrieval is not trivially local).
    fn scatter_item(&mut self, item: &Item, redundancy: usize, exclude: usize, seed: u64) {
        let mut rng = SimRng::new(seed ^ 0x6368_756e_6b73);
        let candidates: Vec<usize> = (0..self.0.len()).filter(|&i| i != exclude).collect();
        for c in 0..item.chunks() {
            let mut holders = candidates.clone();
            rng.shuffle(&mut holders);
            for &h in holders.iter().take(redundancy.min(holders.len())) {
                self.put_chunk(h, item, c);
            }
        }
    }

    fn put_chunk(&mut self, node: usize, item: &Item, c: u32) {
        self.0[node]
            .chunks
            .push((item.descriptor.clone(), ChunkId(c), item.chunk_data(c)));
    }

    /// Builds node `index`, moving its data out of the placement.
    fn node<M: Mode>(&mut self, index: usize, pds: &PdsConfig, seed: u64) -> Box<dyn Application> {
        let data = std::mem::take(&mut self.0[index]);
        let mut node = PdsNode::new(pds.clone(), seed.wrapping_add(7919) ^ (index as u64) << 16);
        for d in data.metadata {
            node = node.with_metadata(d, None);
        }
        for (item, c, bytes) in data.chunks {
            node = node.with_chunk(item, c, bytes);
        }
        Box::new(M::wrap(node))
    }
}

/// Independent seeds for the sub-worlds of one `--seed`.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i)
}

fn new_world<M: Mode>(sim: SimConfig, seed: u64) -> World {
    let mut world = World::new(sim, seed);
    if M::TRACED {
        world.set_trace_sink(Box::new(TimingSink::new()));
    }
    world
}

/// A `side × side` grid at 8-neighbour spacing, nodes row-major.
fn grid_world<M: Mode>(
    side: usize,
    sim: SimConfig,
    pds: &PdsConfig,
    seed: u64,
    mut placement: Placement,
) -> Built {
    let mut world = new_world::<M>(sim, seed);
    world.reserve_nodes(side * side);
    let nodes: Vec<NodeId> = grid::positions(side, side, grid::SPACING_M)
        .into_iter()
        .enumerate()
        .map(|(i, pos)| world.add_node(pos, placement.node::<M>(i, pds, seed)))
        .collect();
    Built {
        world,
        nodes,
        mobility_build_s: 0.0,
        mobility_events: 0,
    }
}

/// The consumers of the paper's multi-consumer figures: the centre 5×5
/// pool in row-major order.
fn center_pool(side: usize, nodes: &[NodeId]) -> Vec<NodeId> {
    grid::center_subgrid(side, side, 5.min(side))
        .into_iter()
        .map(|i| nodes[i])
        .collect()
}

struct Built {
    world: World,
    /// Grid nodes row-major; initial people under mobility.
    nodes: Vec<NodeId>,
    mobility_build_s: f64,
    mobility_events: u64,
}

enum What<'a> {
    Discover { truth: Option<usize> },
    Retrieve(&'a Item),
}

struct Start<'a> {
    node: NodeId,
    what: What<'a>,
}

/// The closed loop over one world.
struct Driver<'a, M> {
    world: &'a mut World,
    clock: &'a WallClock,
    /// Host seconds inside `World` calls.
    kernel_s: f64,
    sessions: Vec<Session>,
    corrupt_chunks: u64,
    mode: PhantomData<M>,
}

impl<M: Mode> Driver<'_, M> {
    /// Steps the world to `t`; a no-op if it is already there.
    fn run_until(&mut self, t: SimTime) {
        let timer = WallClock::start();
        self.world.run_until(t.max(self.world.now()));
        self.kernel_s += timer.elapsed_s();
    }

    fn finished(&self, s: &Start) -> bool {
        let Some(node) = self.world.app::<M::App>(s.node).map(M::node) else {
            return false;
        };
        match s.what {
            What::Discover { .. } => node.discovery_report().and_then(|r| r.finished_at),
            What::Retrieve(_) => node.retrieval_report().and_then(|r| r.finished_at),
        }
        .is_some()
    }

    /// Starts `starts` together and steps the world until all of them
    /// report `finished_at` or `deadline` of simulated time has passed.
    fn sessions(&mut self, starts: &[Start], deadline: SimDuration) {
        let began = self.clock.elapsed_s();
        let timer = WallClock::start();
        for s in starts {
            self.world.with_app::<M::App, _>(s.node, |app, ctx| {
                M::enter(app, |node| match s.what {
                    What::Discover { .. } => node.start_discovery(ctx, QueryFilter::match_all()),
                    What::Retrieve(item) => node.start_retrieval(ctx, item.descriptor.clone()),
                });
            });
        }
        self.kernel_s += timer.elapsed_s();

        let deadline = self.world.now() + deadline;
        let mut ended: Vec<Option<f64>> = vec![None; starts.len()];
        loop {
            let now = self.clock.elapsed_s();
            for (s, end) in starts.iter().zip(&mut ended) {
                if end.is_none() && self.finished(s) {
                    *end = Some(now);
                }
            }
            if ended.iter().all(Option::is_some) || self.world.now() >= deadline {
                break;
            }
            let next = (self.world.now() + STEP).min(deadline);
            self.run_until(next);
        }

        let gave_up = self.clock.elapsed_s();
        for (s, end) in starts.iter().zip(ended) {
            let host = (began, end.unwrap_or(gave_up));
            let session = self.report(s, end.is_some(), host);
            self.sessions.push(session);
        }
    }

    fn report(&mut self, s: &Start, finished: bool, host: (f64, f64)) -> Session {
        let node = self.world.app::<M::App>(s.node).map(M::node);
        let (kind, latency, recall, items, rounds) = match s.what {
            What::Discover { truth } => {
                let r = node.and_then(PdsNode::discovery_report);
                let entries = r.map_or(0, |r| r.entries);
                (
                    Kind::Discovery,
                    r.map(|r| r.latency),
                    truth.map(|t| entries as f64 / t as f64),
                    entries as u64,
                    r.map(|r| r.rounds),
                )
            }
            What::Retrieve(item) => {
                let r = node.and_then(PdsNode::retrieval_report);
                // Whatever arrived must be the seeded bytes, complete or not.
                if let Some(store) = node.and_then(PdsNode::engine).map(|e| e.store()) {
                    for c in 0..item.chunks() {
                        if let Some(data) = store.chunk(&item.name, ChunkId(c)) {
                            let good = data.len() == item.chunk_len(c)
                                && data.iter().all(|&b| b == Item::fill(c));
                            self.corrupt_chunks += u64::from(!good);
                        }
                    }
                }
                (
                    Kind::Retrieval,
                    r.map(|r| r.latency),
                    Some(r.map_or(0.0, |r| r.recall)),
                    r.map_or(0, |r| u64::from(r.received_chunks)),
                    r.map(|r| r.rounds),
                )
            }
        };
        Session {
            kind,
            node: s.node,
            latency: latency.unwrap_or(SimDuration::ZERO),
            finished,
            recall,
            items,
            rounds: rounds.unwrap_or(0),
            host,
        }
    }
}

/// Builds one world (set-up, incl. the start-up slice), runs `script` on
/// it (the drive) and collects what both left behind.
fn run_world<M: Mode>(
    clock: &WallClock,
    label: String,
    build: impl FnOnce() -> Built,
    script: impl FnOnce(&mut Driver<M>, &[NodeId]),
) -> WorldRun {
    alloc::reset_peak();
    let live_before = alloc::live_bytes();
    let setup_start = clock.elapsed_s();
    let mut built = build();
    built.world.run_until(SimTime::ZERO + STARTUP);
    let setup_end = clock.elapsed_s();
    let heap_setup_bytes = alloc::live_bytes().saturating_sub(live_before);
    let nodes = built.world.node_count() as u64;

    let stats_before = built.world.stats().clone();
    let events_before = built.world.events_dispatched();
    let layers_before = timed::snapshot();
    let allocs_before = alloc::allocs();
    let drive_start = clock.elapsed_s();
    let mut driver = Driver::<M> {
        world: &mut built.world,
        clock,
        kernel_s: 0.0,
        sessions: Vec::new(),
        corrupt_chunks: 0,
        mode: PhantomData,
    };
    script(&mut driver, &built.nodes);
    let drive_end = clock.elapsed_s();
    let peak_heap_bytes = alloc::peak_bytes();
    let allocs = alloc::allocs() - allocs_before;
    let layers = timed::since(&timed::snapshot(), &layers_before);
    let Driver {
        kernel_s,
        sessions,
        corrupt_chunks,
        ..
    } = driver;

    let world = &mut built.world;
    let (mut decode_errors, mut resends) = (0, 0);
    for id in world.node_ids() {
        if let Some(node) = world.app::<M::App>(id).map(M::node) {
            decode_errors += node.decode_errors();
            resends += node.resends();
        }
    }
    let trace = world.take_trace_sink().map(|sink| {
        let events = sink
            .as_any()
            .downcast_ref::<TimingSink>()
            .expect("the traced rep installs a TimingSink")
            .events();
        drop(sink);
        let timer = WallClock::start();
        let spans = pds_obs::sessions(&events);
        let sessions_s = timer.elapsed_s();
        let mut summary = TraceSummary {
            events: events.len() as u64,
            sessions_s,
            path_sessions: spans.len() as u64,
            ..TraceSummary::default()
        };
        for span in &spans {
            let breakdown = pds_obs::critical_path(span);
            for (total, us) in summary.path_us.iter_mut().zip(breakdown.us) {
                *total += us;
            }
        }
        summary
    });

    WorldRun {
        label,
        setup: (setup_start, setup_end),
        drive: (drive_start, drive_end),
        kernel_s,
        nodes,
        heap_setup_bytes,
        peak_heap_bytes,
        allocs,
        layers,
        events: world.events_dispatched() - events_before,
        stats: world.stats().since(&stats_before),
        sessions,
        decode_errors,
        resends,
        corrupt_chunks,
        mobility_build_s: built.mobility_build_s,
        mobility_events: built.mobility_events,
        trace,
    }
}

/// Runs one repetition of `workload`.
pub fn run_rep<M: Mode>(workload: Workload, size: Size, seed: u64, clock: &WallClock) -> Rep {
    let worlds = match workload {
        Workload::PddGrid => pdd_grid::<M>(size, seed, clock),
        Workload::PdrGrid => pdr_grid::<M>(size, seed, clock),
        Workload::CampusChurn => campus_churn::<M>(size, seed, clock),
        Workload::CityDistrict => city_district::<M>(size, seed, clock),
    };
    Rep { worlds }
}

/// Figs. 6/7 at normal load: the centre consumer discovers the whole
/// grid's metadata, cold, in several independent worlds. (One world with
/// consumers discovering one after another reads 30 % apart from seed to
/// seed: a later consumer finishes anywhere between at once, on what it
/// overheard, and after three rounds.)
fn pdd_grid<M: Mode>(size: Size, seed: u64, clock: &WallClock) -> Vec<WorldRun> {
    let side = size.pick(10, 3);
    let entries = size.pick(5_000, 90);
    let worlds = size.pick(10, 2);
    (0..worlds)
        .map(|i| {
            let seed = sub_seed(seed, i);
            run_world::<M>(
                clock,
                format!("seed {seed}"),
                || {
                    let mut placement = Placement::new(side * side);
                    placement.scatter_metadata(entries, 1, seed);
                    grid_world::<M>(
                        side,
                        SimConfig::paper_multi_hop(),
                        &PdsConfig::default(),
                        seed,
                        placement,
                    )
                },
                |driver, nodes| {
                    let node = nodes[grid::center_index(side, side)];
                    let what = What::Discover {
                        truth: Some(entries),
                    };
                    driver.sessions(&[Start { node, what }], SimDuration::from_secs(600));
                },
            )
        })
        .collect()
}

/// One large item on the grid: (a) redundancy 1 with sequential consumers
/// (Fig. 15; later ones hit caches), (b) redundancy 3 with simultaneous
/// consumers (Fig. 16 at Fig. 13's redundancy).
fn pdr_grid<M: Mode>(size: Size, seed: u64, clock: &WallClock) -> Vec<WorldRun> {
    let side = size.pick(10, 3);
    let item = Item::new("clip", size.pick(20_000_000, 1_000_000));
    let seeds = size.pick(2, 1);
    let sequential = size.pick(5, 2);
    let simultaneous = size.pick(3, 2);
    let build = |redundancy: usize, seed: u64| {
        let mut placement = Placement::new(side * side);
        placement.scatter_item(&item, redundancy, grid::center_index(side, side), seed);
        grid_world::<M>(
            side,
            SimConfig::paper_multi_hop(),
            &PdsConfig::default(),
            seed,
            placement,
        )
    };
    let mut runs = Vec::new();
    for i in 0..seeds {
        let seed = sub_seed(seed, i);
        runs.push(run_world::<M>(
            clock,
            format!("seed {seed} r1 sequential"),
            || build(1, seed),
            |driver, nodes| {
                for &node in center_pool(side, nodes).iter().take(sequential) {
                    let what = What::Retrieve(&item);
                    driver.sessions(&[Start { node, what }], SimDuration::from_secs(600));
                }
            },
        ));
        runs.push(run_world::<M>(
            clock,
            format!("seed {seed} r3 simultaneous"),
            || build(3, seed),
            |driver, nodes| {
                let starts: Vec<Start> = center_pool(side, nodes)
                    .into_iter()
                    .take(simultaneous)
                    .map(|node| Start {
                        node,
                        what: What::Retrieve(&item),
                    })
                    .collect();
                driver.sessions(&starts, SimDuration::from_secs(900));
            },
        ));
    }
    runs
}

/// Many small Student Center worlds under 2× churn: person 0 (who stays)
/// discovers, then retrieves, while holders come and go.
fn campus_churn<M: Mode>(size: Size, seed: u64, clock: &WallClock) -> Vec<WorldRun> {
    let seeds = size.pick(64, 2);
    let entries = size.pick(1_000, 100);
    let item = Item::new("clip", size.pick(5_000_000, 1_000_000));
    let params = presets::student_center();
    (0..seeds)
        .map(|i| {
            let seed = sub_seed(seed, i);
            run_world::<M>(
                clock,
                format!("seed {seed}"),
                || {
                    let timer = WallClock::start();
                    let trace =
                        MobilityTrace::generate(&params, SimDuration::from_secs(600), 2.0, seed);
                    // A consumer that walks away has no recall to measure.
                    let consumer = trace.initial_people()[0].0;
                    let trace = MobilityTrace::from_parts(
                        trace.initial_people().to_vec(),
                        trace
                            .events()
                            .iter()
                            .filter(|ev| {
                                !(ev.person == consumer && ev.action == TraceAction::Leave)
                            })
                            .copied()
                            .collect(),
                    );
                    let mobility_build_s = timer.elapsed_s();

                    let people = trace.initial_people();
                    let mut placement = Placement::new(people.len());
                    placement.scatter_metadata(entries, 1, seed);
                    placement.scatter_item(&item, 2, 0, seed);
                    let index: BTreeMap<PersonId, usize> = people
                        .iter()
                        .enumerate()
                        .map(|(i, &(p, _))| (p, i))
                        .collect();
                    let pds = PdsConfig::default();
                    let mut world = new_world::<M>(SimConfig::paper_multi_hop(), seed);
                    let installer = TraceInstaller::install(&mut world, &trace, move |person| {
                        match index.get(&person) {
                            Some(&i) => placement.node::<M>(i, &pds, seed),
                            // Late joiners carry no pre-seeded data.
                            None => Box::new(M::wrap(PdsNode::new(
                                pds.clone(),
                                seed ^ u64::from(person.0) << 24,
                            ))),
                        }
                    });
                    let nodes = people
                        .iter()
                        .map(|&(p, _)| installer.node_of(p).expect("present at start"))
                        .collect();
                    Built {
                        world,
                        nodes,
                        mobility_build_s,
                        mobility_events: trace.events().len() as u64,
                    }
                },
                |driver, nodes| {
                    driver.run_until(SimTime::from_secs_f64(5.0));
                    let node = nodes[0];
                    // The item's own descriptor is an entry too.
                    let what = What::Discover {
                        truth: Some(entries + 1),
                    };
                    driver.sessions(&[Start { node, what }], SimDuration::from_secs(200));
                    let what = What::Retrieve(&item);
                    driver.sessions(&[Start { node, what }], SimDuration::from_secs(300));
                },
            )
        })
        .collect()
}

/// ROADMAP 1(c): the engines on a 10k-node kernel. Hop-limited floods
/// from consumers spread over the district overlap only with their
/// neighbours', so transmissions reuse the air spatially.
fn city_district<M: Mode>(size: Size, seed: u64, clock: &WallClock) -> Vec<WorldRun> {
    let side: usize = size.pick(100, 20);
    let consumers: usize = size.pick(16, 4);
    const ENTRIES_PER_NODE: usize = 10;
    // Chebyshev distance <= 3: inside the 4-hop query budget.
    const HOLDER_OFFSETS: [(i64, i64); 8] = [
        (2, 2),
        (2, -2),
        (-2, 2),
        (-2, -2),
        (0, 3),
        (0, -3),
        (3, 0),
        (-3, 0),
    ];
    // With walkers on the consumer-holder paths PDR gives up on a chunk on
    // most seeds; walkers keep this many grid cells away from consumers, so
    // even after a 60 m stroll they stay outside the 4-hop query range.
    const WALKER_CLEARANCE: usize = 6;
    // 10 000 idle nodes cost 60 000 timer events a simulated second, and
    // how long a phase lasts is set by its slowest session, which differs
    // by half from seed to seed. Each phase therefore runs on to a fixed
    // simulated time that all but the rarest session beats, so the idle
    // work is the same whatever the seed; a slower session is still waited
    // for.
    let phase_ends = size.pick(
        (SimDuration::from_secs(12), SimDuration::from_secs(40)),
        (SimDuration::from_secs(8), SimDuration::from_secs(16)),
    );
    let cell = |j: usize| (2 * j + 1) * side / (2 * consumers);
    let spots: Vec<(usize, usize)> = (0..consumers)
        .map(|j| (cell(j), cell((7 * j + 3) % consumers)))
        .collect();
    let items: Vec<Item> = (0..consumers)
        .map(|j| Item::new(&format!("clip{j}"), HOLDER_OFFSETS.len() * CHUNK))
        .collect();
    let run = run_world::<M>(
        clock,
        format!("seed {seed}"),
        || {
            let mut placement = Placement::new(side * side);
            for (i, data) in placement.0.iter_mut().enumerate() {
                data.metadata = (0..ENTRIES_PER_NODE)
                    .map(|k| entry_descriptor(i * ENTRIES_PER_NODE + k))
                    .collect();
            }
            let shift = |at: usize, by: i64| (at as i64 + by).clamp(0, side as i64 - 1) as usize;
            for (item, &(row, col)) in items.iter().zip(&spots) {
                for (c, &(dr, dc)) in HOLDER_OFFSETS.iter().enumerate() {
                    placement.put_chunk(shift(row, dr) * side + shift(col, dc), item, c as u32);
                }
            }
            let mut sim = SimConfig::paper_multi_hop();
            sim.spatial.rebucket_interval = SimDuration::from_millis(250);
            let pds = PdsConfig {
                query_hop_limit: Some(4),
                ..PdsConfig::default()
            };
            let mut built = grid_world::<M>(side, sim, &pds, seed, placement);
            // Every 10th node (off the sessions' patches) strolls up to 60 m
            // from its grid point.
            let mut rng = SimRng::new(seed ^ 0x7761_6c6b);
            let near_a_consumer = |i: usize| {
                spots.iter().any(|&(row, col)| {
                    (i / side).abs_diff(row).max((i % side).abs_diff(col)) < WALKER_CLEARANCE
                })
            };
            let walkers = (0..side * side)
                .step_by(10)
                .filter(|&i| !near_a_consumer(i));
            for id in walkers.map(|i| built.nodes[i]) {
                let at = built.world.position(id).expect("just added");
                let (far, angle) = (rng.range_f64(0.0, 60.0), rng.range_f64(0.0, TAU));
                let dest = Position::new(
                    (at.x + far * angle.cos()).max(0.0),
                    (at.y + far * angle.sin()).max(0.0),
                );
                built.world.move_node(id, dest, 1.2);
            }
            built
        },
        |driver, nodes| {
            let at = |&(row, col): &(usize, usize)| nodes[row * side + col];
            let discover: Vec<Start> = spots
                .iter()
                .map(|spot| Start {
                    node: at(spot),
                    // Which entries a 4-hop flood reaches depends on who
                    // walked where: no global ground truth.
                    what: What::Discover { truth: None },
                })
                .collect();
            driver.sessions(&discover, SimDuration::from_secs(120));
            driver.run_until(SimTime::ZERO + phase_ends.0);
            let retrieve: Vec<Start> = spots
                .iter()
                .zip(&items)
                .map(|(spot, item)| Start {
                    node: at(spot),
                    what: What::Retrieve(item),
                })
                .collect();
            driver.sessions(&retrieve, SimDuration::from_secs(300));
            driver.run_until(SimTime::ZERO + phase_ends.1);
        },
    );
    vec![run]
}
