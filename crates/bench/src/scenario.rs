//! Scenario builders: the paper's static grid and mobility venues, with
//! workload seeding and consumer orchestration (§VI-A).

use crate::metrics::RunMetrics;
use pds_core::{AttrValue, ChunkId, DataDescriptor, PdsConfig, PdsNode, QueryFilter};
use pds_mobility::{grid, MobilityTrace, ObservationParams, PersonId, TraceAction, TraceInstaller};
use pds_sim::{EnergyModel, NodeId, SimConfig, SimDuration, SimRng, SimTime, Stats, World};
use std::collections::BTreeMap;

/// The paper's metadata entry size regime: short attributes giving ~40-byte
/// encodings (the paper budgets 30 bytes).
fn entry_descriptor(i: usize) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("ns", "e")
        .attr("type", "no2")
        .attr("time", AttrValue::Time(1_480_000_000 + i as i64))
        .build()
}

/// Descriptor of a chunked item of `total_chunks` chunks.
fn item_descriptor(name: &str, total_chunks: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("ns", "e")
        .attr("type", "video")
        .attr("name", name)
        .attr("total_chunks", i64::from(total_chunks))
        .build()
}

/// A generated workload: which node index holds which metadata entries and
/// chunks at simulation start.
#[derive(Debug, Clone)]
pub struct Workload {
    metadata_per_node: Vec<Vec<DataDescriptor>>,
    chunks_per_node: Vec<Vec<(ChunkId, Vec<u8>)>>,
    /// Number of distinct metadata entries seeded (ground truth for recall).
    pub total_entries: usize,
    /// The chunked item descriptor, when a chunk workload was added.
    pub item: Option<DataDescriptor>,
}

impl Workload {
    /// An empty workload over `n_nodes` nodes.
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        Self {
            metadata_per_node: vec![Vec::new(); n_nodes],
            chunks_per_node: vec![Vec::new(); n_nodes],
            total_entries: 0,
            item: None,
        }
    }

    /// Distributes `entries` distinct metadata entries uniformly at random,
    /// `redundancy` copies each on distinct nodes (§VI-A).
    #[must_use]
    pub fn with_metadata(mut self, entries: usize, redundancy: usize, seed: u64) -> Self {
        let n = self.metadata_per_node.len();
        let mut rng = SimRng::new(seed ^ 0x6d65_7461);
        for i in 0..entries {
            let d = entry_descriptor(self.total_entries + i);
            let mut holders: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut holders);
            for &h in holders.iter().take(redundancy.max(1).min(n)) {
                self.metadata_per_node[h].push(d.clone());
            }
        }
        self.total_entries += entries;
        self
    }

    /// Adds one chunked item of `size_bytes` (chunked at `chunk_size`),
    /// each chunk placed on `redundancy` distinct random nodes, never on
    /// `exclude` (the consumer, so retrieval is not trivially local).
    #[must_use]
    pub(crate) fn with_chunked_item(
        mut self,
        name: &str,
        size_bytes: usize,
        chunk_size: usize,
        redundancy: usize,
        exclude: usize,
        seed: u64,
    ) -> Self {
        let n = self.chunks_per_node.len();
        let total_chunks = size_bytes.div_ceil(chunk_size) as u32;
        let item = item_descriptor(name, total_chunks);
        let mut rng = SimRng::new(seed ^ 0x6368_756e_6b73);
        let candidates: Vec<usize> = (0..n).filter(|&i| i != exclude).collect();
        for c in 0..total_chunks {
            let chunk_bytes = if (c + 1) as usize * chunk_size <= size_bytes {
                chunk_size
            } else {
                size_bytes - c as usize * chunk_size
            };
            let data = vec![(c % 251) as u8; chunk_bytes];
            let mut holders = candidates.clone();
            rng.shuffle(&mut holders);
            for &h in holders.iter().take(redundancy.max(1).min(holders.len())) {
                self.chunks_per_node[h].push((ChunkId(c), data.clone()));
            }
        }
        self.item = Some(item);
        self
    }

    fn build_node(&self, index: usize, pds: &PdsConfig, seed: u64) -> PdsNode {
        let mut node = PdsNode::new(pds.clone(), seed ^ (index as u64) << 16);
        for d in &self.metadata_per_node[index] {
            node = node.with_metadata(d.clone(), None);
        }
        if let Some(item) = &self.item {
            for (c, data) in &self.chunks_per_node[index] {
                node = node.with_chunk(item.clone(), *c, bytes::Bytes::from(data.clone()));
            }
        }
        node
    }
}

/// The static scenario: an `rows × cols` grid at 8-neighbor spacing with
/// the consumer at the center (§VI-A).
#[derive(Debug, Clone)]
pub struct GridScenario {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Radio/transport configuration.
    pub sim: SimConfig,
    /// Protocol configuration.
    pub pds: PdsConfig,
    /// Run seed (drives radio loss, jitter, workload placement).
    pub seed: u64,
}

impl GridScenario {
    /// The paper's default: 10×10 grid, calibrated leaky bucket + ack.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        Self {
            rows: 10,
            cols: 10,
            sim: SimConfig::paper_multi_hop(),
            pds: PdsConfig::default(),
            seed,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Builds the world with `workload` seeded onto the nodes.
    #[must_use]
    pub fn build(&self, workload: &Workload) -> Built {
        let mut world = World::new(self.sim.clone(), self.seed);
        let positions = grid::positions(self.rows, self.cols, grid::SPACING_M);
        let mut nodes = Vec::with_capacity(positions.len());
        for (i, pos) in positions.iter().enumerate() {
            let node = workload.build_node(i, &self.pds, self.seed.wrapping_add(7919));
            nodes.push(world.add_node(*pos, Box::new(node)));
        }
        let consumer = nodes[grid::center_index(self.rows, self.cols)];
        let center_pool =
            grid::center_subgrid(self.rows, self.cols, 5.min(self.rows).min(self.cols))
                .into_iter()
                .map(|i| nodes[i])
                .collect();
        // Let nodes start (timers arm) before any consumer acts.
        world.run_until(SimTime::from_secs_f64(0.1));
        Built {
            world,
            nodes,
            consumer,
            center_pool,
            total_entries: workload.total_entries,
            item: workload.item.clone(),
        }
    }
}

/// A built scenario ready to run consumers on.
pub struct Built {
    /// The simulated world.
    pub world: World,
    /// All node ids (row-major for grids; initial people for mobility).
    pub nodes: Vec<NodeId>,
    /// The designated primary consumer (grid center / a random person).
    pub consumer: NodeId,
    /// The pool multiple consumers are drawn from (center 5×5 sub-grid on
    /// grids, present people under mobility).
    pub center_pool: Vec<NodeId>,
    /// Ground truth: distinct metadata entries seeded.
    pub total_entries: usize,
    /// The chunked item, if any.
    pub item: Option<DataDescriptor>,
}

/// What a consumer runs (§III–§IV): a PDD discovery of all metadata, or a
/// PDR or MDR (baseline) retrieval of the workload's chunked item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Session {
    /// Peer Data Discovery.
    Discovery,
    /// Peer Data Retrieval.
    Pdr,
    /// The paper's MDR baseline retrieval.
    Mdr,
}

/// How long the driver steps the world between completion checks.
const STEP: SimDuration = SimDuration::from_millis(250);

impl Built {
    /// Starts `session` at every one of `consumers` at once, steps the
    /// world until all of them finish (or `deadline` passes), and measures
    /// each over the one shared window: overhead counts every byte sent
    /// since the start. A single consumer is the one-element case.
    ///
    /// # Panics
    ///
    /// Panics if a retrieval is asked of a workload with no chunked item.
    pub fn run_together(
        &mut self,
        session: Session,
        consumers: &[NodeId],
        deadline: SimTime,
    ) -> Vec<RunMetrics> {
        let before = self.world.stats().clone();
        for &node in consumers {
            let item = self.item.clone();
            let item = || item.expect("workload has a chunked item");
            self.world
                .with_app::<PdsNode, _>(node, |n, ctx| match session {
                    Session::Discovery => n.start_discovery(ctx, QueryFilter::match_all()),
                    Session::Pdr => n.start_retrieval(ctx, item()),
                    Session::Mdr => n.start_mdr_retrieval(ctx, item()),
                });
        }
        while !self.all_done(consumers) && self.world.now() < deadline {
            let next = self.world.now() + STEP;
            self.world.run_until(next.min(deadline));
        }
        consumers
            .iter()
            .map(|&node| self.metrics(session, node, &before))
            .collect()
    }

    /// Runs `session` at each of `consumers` in turn, each started once the
    /// previous one finished (or ran out of its `horizon`) and measured
    /// over its own window.
    pub(crate) fn run_in_turn(
        &mut self,
        session: Session,
        consumers: &[NodeId],
        horizon: SimDuration,
    ) -> Vec<RunMetrics> {
        consumers
            .iter()
            .map(|&node| {
                let deadline = self.world.now() + horizon;
                self.run_together(session, &[node], deadline)[0]
            })
            .collect()
    }

    /// Whether every one of `nodes` finished its sessions (a departed node
    /// does not block).
    fn all_done(&self, nodes: &[NodeId]) -> bool {
        nodes.iter().all(|&id| {
            self.world.app::<PdsNode>(id).is_none_or(|n| {
                let d = n.discovery_report().map(|r| r.finished_at.is_some());
                let r = n.retrieval_report().map(|r| r.finished_at.is_some());
                match (d, r) {
                    (Some(d), Some(r)) => d && r,
                    (Some(done), None) | (None, Some(done)) => done,
                    (None, None) => false,
                }
            })
        })
    }

    /// `session`'s metrics at `node`, with overhead measured against the
    /// `before` stats snapshot and energy since time 0; empty if `node`
    /// never started one.
    #[must_use]
    pub(crate) fn metrics(&self, session: Session, node: NodeId, before: &Stats) -> RunMetrics {
        let app = self.world.app::<PdsNode>(node);
        let report = match session {
            Session::Discovery => app.and_then(PdsNode::discovery_report).map(|r| {
                let recall = if self.total_entries == 0 {
                    1.0
                } else {
                    r.entries as f64 / self.total_entries as f64
                };
                (recall, r.latency, r.rounds, r.finished_at)
            }),
            Session::Pdr | Session::Mdr => app
                .and_then(PdsNode::retrieval_report)
                .map(|r| (r.recall, r.latency, r.rounds, r.finished_at)),
        };
        let Some((recall, latency, rounds, finished_at)) = report else {
            return RunMetrics::empty();
        };
        let d = self.world.stats().since(before);
        let model = EnergyModel::default();
        let now_s = self.world.now().as_secs_f64();
        RunMetrics {
            recall,
            latency_s: latency.as_secs_f64(),
            overhead_mb: d.bytes_sent as f64 / 1e6,
            overhead_by_phase_mb: RunMetrics::phase_split_mb(&d),
            rounds: f64::from(rounds),
            finished: finished_at.is_some(),
            sim_time_s: now_s,
            energy_j: [
                self.world.energy_j(&model),
                model.idle_mw / 1e3 * now_s * self.nodes.len() as f64,
            ],
        }
    }
}

/// The mobility scenario: a venue preset, a rate multiplier and a trace
/// applied to the world (§VI-B-2).
#[derive(Debug, Clone)]
pub(crate) struct MobilityScenario {
    /// Venue observation parameters.
    pub params: ObservationParams,
    /// Rate multiplier (the paper sweeps 0.5×–2×).
    pub multiplier: f64,
    /// Trace length.
    pub duration: SimDuration,
    /// Radio/transport configuration.
    pub sim: SimConfig,
    /// Protocol configuration.
    pub pds: PdsConfig,
    /// Run seed.
    pub seed: u64,
}

impl MobilityScenario {
    /// Builds the world, installs the trace, seeds `workload` onto the
    /// initially present people, and picks a consumer who stays (their
    /// departure events are dropped — a consumer that walks away has no
    /// recall to measure).
    #[must_use]
    pub(crate) fn build(&self, workload: &Workload) -> Built {
        let trace =
            MobilityTrace::generate(&self.params, self.duration, self.multiplier, self.seed);
        // Pick the consumer among the initial people and keep them present.
        let consumer_person = trace.initial_people()[0].0;
        let filtered = MobilityTrace::from_parts(
            trace.initial_people().to_vec(),
            trace
                .events()
                .iter()
                .filter(|ev| !(ev.person == consumer_person && ev.action == TraceAction::Leave))
                .cloned()
                .collect(),
        );
        let mut world = World::new(self.sim.clone(), self.seed);
        let assignments: BTreeMap<PersonId, usize> = filtered
            .initial_people()
            .iter()
            .enumerate()
            .map(|(i, &(p, _))| (p, i))
            .collect();
        let pds = self.pds.clone();
        let wl = workload.clone();
        let seed = self.seed;
        let installer = TraceInstaller::install(&mut world, &filtered, move |person| {
            match assignments.get(&person) {
                Some(&i) => Box::new(wl.build_node(i, &pds, seed.wrapping_add(7919))),
                // Late joiners carry no pre-seeded data.
                None => Box::new(PdsNode::new(pds.clone(), seed ^ u64::from(person.0) << 24)),
            }
        });
        let consumer = installer
            .node_of(consumer_person)
            .expect("consumer present at start");
        world.run_until(SimTime::from_secs_f64(0.1));
        let center_pool = installer.present_nodes();
        let nodes = installer.present_nodes();
        Built {
            world,
            nodes,
            consumer,
            center_pool,
            total_entries: workload.total_entries,
            item: workload.item.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_workload_respects_redundancy() {
        let w = Workload::new(10).with_metadata(100, 3, 1);
        let copies: usize = w.metadata_per_node.iter().map(Vec::len).sum();
        assert_eq!(copies, 300);
        assert_eq!(w.total_entries, 100);
    }

    #[test]
    fn chunk_workload_excludes_consumer_and_covers_item() {
        let w = Workload::new(10).with_chunked_item("vid", 1_000_000, 256 * 1024, 2, 3, 1);
        assert!(w.chunks_per_node[3].is_empty(), "consumer holds nothing");
        let total: usize = w.chunks_per_node.iter().map(Vec::len).sum();
        assert_eq!(total, 4 * 2, "4 chunks × 2 copies");
        let item = w.item.as_ref().expect("item");
        assert_eq!(item.total_chunks(), Some(4));
        // Last chunk is short: 1 MB = 3×256 KiB + 213,568 bytes.
        let last: usize = w
            .chunks_per_node
            .iter()
            .flatten()
            .filter(|(c, _)| *c == ChunkId(3))
            .map(|(_, d)| d.len())
            .next()
            .expect("chunk 3 placed");
        assert_eq!(last, 1_000_000 - 3 * 256 * 1024);
    }

    /// A 3×3 grid with `entries` metadata entries, one copy each.
    fn small_grid(seed: u64, entries: usize) -> Built {
        let mut sc = GridScenario::paper_default(seed);
        sc.rows = 3;
        sc.cols = 3;
        sc.build(&Workload::new(9).with_metadata(entries, 1, seed))
    }

    #[test]
    fn grid_scenario_builds_and_runs_discovery() {
        let mut built = small_grid(1, 18);
        assert_eq!(built.nodes.len(), 9);
        let consumer = built.consumer;
        let m = built.run_together(
            Session::Discovery,
            &[consumer],
            SimTime::from_secs_f64(20.0),
        )[0];
        assert!(m.finished, "discovery should finish in 20 s");
        assert!(m.recall > 0.95, "recall = {}", m.recall);
        assert!(m.overhead_mb > 0.0);
    }

    #[test]
    fn simultaneous_consumers_share_one_window() {
        let mut built = small_grid(2, 18);
        let before = built.world.stats().clone();
        let consumers: Vec<NodeId> = built.center_pool.iter().copied().take(3).collect();
        let per = built.run_together(Session::Discovery, &consumers, SimTime::from_secs_f64(30.0));
        let window_mb = built.world.stats().since(&before).bytes_sent as f64 / 1e6;
        assert_eq!(per.len(), 3);
        for m in &per {
            assert!(m.finished);
            assert_eq!(
                m.overhead_mb, window_mb,
                "every consumer reads the one window"
            );
        }
    }

    #[test]
    fn sequential_consumers_get_disjoint_windows() {
        let mut built = small_grid(4, 18);
        let before = built.world.stats().clone();
        let consumers: Vec<NodeId> = built.center_pool.iter().copied().take(3).collect();
        let per = built.run_in_turn(Session::Discovery, &consumers, SimDuration::from_secs(20));
        let report = |id| {
            built
                .world
                .app::<PdsNode>(id)
                .and_then(PdsNode::discovery_report)
                .expect("consumer started")
        };
        for pair in consumers.windows(2) {
            let done = report(pair[0])
                .finished_at
                .expect("finished in its horizon");
            assert!(report(pair[1]).started_at >= done, "windows overlap");
        }
        let total_mb = built.world.stats().since(&before).bytes_sent as f64 / 1e6;
        let sum_mb: f64 = per.iter().map(|m| m.overhead_mb).sum();
        assert!(per.iter().all(|m| m.overhead_mb > 0.0));
        assert!(
            (sum_mb - total_mb).abs() < 1e-9,
            "windows {sum_mb} MB, sequence {total_mb} MB"
        );
    }

    #[test]
    fn mobility_scenario_supports_chunk_workloads() {
        let sc = MobilityScenario {
            params: pds_mobility::presets::classroom(),
            multiplier: 0.5,
            duration: SimDuration::from_secs(120),
            sim: SimConfig::paper_multi_hop(),
            pds: PdsConfig::default(),
            seed: 9,
        };
        let wl = Workload::new(30).with_chunked_item("vid", 512 * 1024, 64 * 1024, 2, 0, 9);
        let mut built = sc.build(&wl);
        let consumer = built.consumer;
        let m = built.run_together(Session::Pdr, &[consumer], SimTime::from_secs_f64(90.0))[0];
        assert!(m.finished, "retrieval under mild churn finishes");
        assert!(m.recall > 0.99, "recall = {}", m.recall);
    }

    #[test]
    fn retrieval_metrics_report_unstarted_as_empty() {
        let built = small_grid(3, 9);
        let before = built.world.stats().clone();
        let m = built.metrics(Session::Pdr, built.consumer, &before);
        assert!(!m.finished);
        assert_eq!(m.recall, 0.0);
    }

    #[test]
    fn mobility_scenario_keeps_consumer_present() {
        let sc = MobilityScenario {
            params: pds_mobility::presets::classroom(),
            multiplier: 2.0,
            duration: SimDuration::from_secs(120),
            sim: SimConfig::paper_multi_hop(),
            pds: PdsConfig::default(),
            seed: 5,
        };
        let wl = Workload::new(30).with_metadata(60, 1, 5);
        let mut built = sc.build(&wl);
        let consumer = built.consumer;
        built.world.run_until(SimTime::from_secs_f64(120.0));
        assert!(built.world.is_alive(consumer), "consumer never leaves");
    }
}
