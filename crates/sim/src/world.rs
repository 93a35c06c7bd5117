//! The simulation kernel: event loop, MAC/medium arbitration, pacing,
//! delivery and node lifecycle.

use crate::config::{SenderMode, SimConfig};
use crate::events::{EventKind, EventQueue};
use crate::fault::{FaultPlan, FaultState};
use crate::radio::{
    phys_verdicts, Frame, FrameKind, Motion, PhysArgs, PhysOutcome, PhysScratch, Position,
    Transmission, VerdictPaths,
};
use crate::slab::{
    DenseTable, NodeTable, SeqSlab, FLAG_BUCKET_SCHEDULED, FLAG_MAC_SCHEDULED, FLAG_TRANSMITTING,
};
use crate::spatial::{NodeGrid, TxEntry, TxGrid};
use crate::stats::{NodeStats, Stats};
use crate::transport::{MessageId, RetrPlan, Transport};
use crate::wheel::TimerWheel;
use bytes::Bytes;
use pds_core::SimRng;
use pds_core::{Application, Command, Context, MessageHandle, MessageMeta, NodeId, TimerId};
use pds_core::{SimDuration, SimTime};
use pds_det::DetMap;
use pds_obs::{Phase, TraceEvent, TraceKind, TraceSink};
use std::any::Any;
use std::collections::VecDeque;

/// Interval between transport garbage-collection sweeps.
const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// How long delivered-message dedup state is retained.
const DELIVERED_HORIZON: SimDuration = SimDuration::from_secs(60);
/// How long incomplete reassembly state is retained after the last fragment.
const STALE_HORIZON: SimDuration = SimDuration::from_secs(30);
/// Upper bound of the random pre-transmission defer that desynchronizes
/// nodes deciding to transmit at the same instant (the DCF contention
/// window analogue; collisions happen when two defers land within the
/// sensing delay of each other).
const INITIAL_DEFER: SimDuration = SimDuration::from_micros(600);
/// Upper bound of the random jitter before an ack transmission.
const ACK_JITTER: SimDuration = SimDuration::from_millis(10);

/// Priority class of an outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendClass {
    Data,
    Repair,
    Ack,
}

#[derive(Debug)]
enum TimerKind {
    App(u64),
    Retr(MessageId),
    AckSend(MessageId),
}

/// Cold per-node state, stored inline in the node slab. The hot
/// radio-phase bools (`transmitting`, `mac_scheduled`, `bucket_scheduled`)
/// live in the slab's parallel flags array ([`NodeTable`]) — the
/// struct-of-arrays split that keeps per-dispatch MAC checks on a compact
/// byte array instead of this struct.
struct NodeState {
    app: Box<dyn Application>,
    transport: Transport,
    // Leaky bucket (unused in RawUdp mode).
    bucket_queue: VecDeque<Frame>,
    bucket_tokens: f64,
    bucket_last: SimTime,
    // OS UDP send buffer + MAC.
    os_buffer: VecDeque<Frame>,
    os_used: usize,
    timers: DetMap<TimerId, TimerKind>,
    msg_seq: u64,
    rng: SimRng,
    stats: NodeStats,
}

impl NodeState {
    fn new(now: SimTime, rng: SimRng, bucket_capacity: f64) -> Self {
        Self {
            app: Box::new(NoopApp),
            transport: Transport::new(),
            bucket_queue: VecDeque::new(),
            bucket_tokens: bucket_capacity,
            bucket_last: now,
            os_buffer: VecDeque::new(),
            os_used: 0,
            timers: DetMap::default(),
            msg_seq: 0,
            rng,
            stats: NodeStats::default(),
        }
    }
}

/// Placeholder application swapped out immediately in `add_node`.
struct NoopApp;
impl Application for NoopApp {
    fn on_start(&mut self, _ctx: &mut Context) {}
    fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: Bytes) {}
}

type ControlFn = Box<dyn FnOnce(&mut World) + Send>;

/// A simulated wireless world: nodes, medium and virtual clock.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct World {
    config: SimConfig,
    now: SimTime,
    queue: EventQueue,
    /// Dense node slab indexed by [`NodeId`], with the hot radio-phase
    /// flags split into a parallel byte array (DESIGN.md §16). Iterates
    /// ascending by id, exactly like the `BTreeMap` it replaced.
    nodes: NodeTable<NodeState>,
    /// Motions of all alive nodes, keyed identically to `nodes`. Kept
    /// outside [`NodeState`] so position lookups (grid re-bucketing,
    /// physical verdicts) borrow a compact table, not the node slab.
    motions: DenseTable<Motion>,
    /// Active (and recently finished) transmissions, keyed by monotone tx
    /// id in a base-offset slab sized to the live window. Iterates in
    /// ascending id order, the order every interference sum folds in (f64
    /// addition is not associative).
    transmissions: SeqSlab<Transmission>,
    /// Spatial index over node positions (receiver/neighbor queries).
    node_grid: NodeGrid,
    /// Spatial index over transmission start positions (carrier sense).
    tx_grid: TxGrid,
    /// Live transmission ids per sender, indexed by raw node id, for O(1)
    /// half-duplex checks. Entries outlive their node (pruning still needs
    /// them) and empty lists cost nothing.
    tx_by_sender: Vec<Vec<u64>>,
    /// Transmission end times, for amortized-O(1) pruning instead of map
    /// sweeps. Same wheel primitive as the event queue (DESIGN.md §11);
    /// pop order equals the old `BinaryHeap<Reverse<(end, tx_id)>>` because
    /// tx ids are pushed in ascending order.
    tx_prune: TimerWheel<u64>,
    /// Reusable carrier-sense candidate buffer (avoids per-event allocs).
    cs_scratch: Vec<TxEntry>,
    /// Reusable candidate buffers for inline physical-verdict computes.
    phys_scratch: PhysScratch,
    /// Reusable verdict and delivery lists — hot-path allocations
    /// otherwise.
    vd_scratch: Vec<(NodeId, PhysOutcome)>,
    dl_scratch: Vec<NodeId>,
    /// Reusable leaky-bucket release buffer.
    rel_scratch: Vec<Frame>,
    /// Reusable neighbor-query result buffer ([`World::neighbors`]).
    nbr_scratch: Vec<NodeId>,
    /// Reusable neighbor-query candidate buffer.
    nbr_cands: Vec<(NodeId, Motion)>,
    /// Reusable fragmentation buffer, recycled through
    /// [`Transport::send_message`] so large sends stop allocating a fresh
    /// `Vec<Frame>` per message.
    frame_scratch: Vec<Frame>,
    /// Reusable application command buffer, threaded through [`Context`].
    cmd_scratch: Vec<Command>,
    next_node: u32,
    next_tx: u64,
    next_timer: u64,
    next_ctrl: u64,
    /// Scheduled control closures, keyed by monotone id in a base-offset
    /// slab (they fire roughly in issue order, so the window stays small).
    controls: SeqSlab<ControlFn>,
    rng: SimRng,
    stats: Stats,
    max_airtime: SimDuration,
    /// Structured trace sink; `None` (the default) keeps every emission
    /// site a single branch. Sinks observe, never influence: installing
    /// one must not change replay digests, stats, or rng consumption.
    sink: Option<Box<dyn TraceSink>>,
    /// Installed fault plan (DST layer); `None` (the default) keeps the
    /// delivery path at a single branch. Fault decisions consume only the
    /// plan-owned rng, so faultless and no-op-plan runs are bit-identical.
    faults: Option<Box<FaultState>>,
    /// Kernel events dispatched so far. Always-on (one add per dispatch):
    /// the denominator of the bench resource accounting's events/sec and
    /// the natural progress unit for long adversarial runs. Deliberately
    /// not part of [`Stats`] — it counts kernel work, not protocol
    /// outcomes.
    events_dispatched: u64,
    /// Running digest of the dispatched event stream (DESIGN.md §8).
    #[cfg(feature = "replay-digest")]
    digest: crate::digest::ReplayDigest,
}

impl World {
    /// Creates an empty world with the given configuration and random seed.
    /// Identical (config, seed, scenario) triples replay identically.
    ///
    /// # Panics
    ///
    /// Panics if `radio.range_m` is not a positive finite cell size, or if
    /// `radio.path_loss_exp` or `radio.capture_sinr` is negative or not
    /// finite: received power must not grow with distance (the far-field
    /// interference bound of DESIGN.md §18 is unsound otherwise, and so is
    /// the physics).
    #[must_use]
    pub fn new(config: SimConfig, seed: u64) -> Self {
        let radio = &config.radio;
        assert!(
            radio.path_loss_exp.is_finite() && radio.path_loss_exp >= 0.0,
            "path_loss_exp must be finite and >= 0 (got {})",
            radio.path_loss_exp
        );
        assert!(
            radio.capture_sinr.is_finite() && radio.capture_sinr >= 0.0,
            "capture_sinr must be finite and >= 0 (got {})",
            radio.capture_sinr
        );
        let max_airtime = config.radio.frame_airtime(config.radio.max_frame_bytes);
        // One cell per radio range: a decode-range query probes at most
        // 3×3 cells.
        let cell_m = config.radio.range_m;
        // Carrier sense and (with a finite interference horizon) the
        // interference pre-scan query this grid with wider radii; sizing
        // its cells to the largest such radius keeps every probe at 3×3
        // cells.
        let tx_reach = if config.radio.interference_range_factor.is_finite() {
            config
                .radio
                .cs_range_factor
                .max(config.radio.interference_range_factor + 1.0)
        } else {
            config.radio.cs_range_factor
        };
        let tx_cell_m = cell_m * tx_reach.max(1.0);
        let mut queue = EventQueue::new();
        queue.push(SimTime::ZERO + SWEEP_INTERVAL, EventKind::Sweep);
        Self {
            config,
            now: SimTime::ZERO,
            queue,
            nodes: NodeTable::default(),
            motions: DenseTable::default(),
            transmissions: SeqSlab::default(),
            node_grid: NodeGrid::new(cell_m, SimTime::ZERO),
            tx_grid: TxGrid::new(tx_cell_m),
            tx_by_sender: Vec::new(),
            tx_prune: TimerWheel::new(),
            cs_scratch: Vec::new(),
            phys_scratch: PhysScratch::default(),
            vd_scratch: Vec::new(),
            dl_scratch: Vec::new(),
            rel_scratch: Vec::new(),
            nbr_scratch: Vec::new(),
            nbr_cands: Vec::new(),
            frame_scratch: Vec::new(),
            cmd_scratch: Vec::new(),
            next_node: 0,
            next_tx: 0,
            next_timer: 0,
            next_ctrl: 0,
            controls: SeqSlab::default(),
            rng: SimRng::new(seed),
            stats: Stats::default(),
            max_airtime,
            sink: None,
            faults: None,
            events_dispatched: 0,
            #[cfg(feature = "replay-digest")]
            digest: crate::digest::ReplayDigest::default(),
        }
    }

    /// FNV-1a digest of every event dispatched so far: virtual timestamp,
    /// event kind, and identifying payload, folded in dispatch order. Two
    /// runs replayed bit-identically iff their digests are equal (the
    /// converse holds up to hash collisions). See DESIGN.md §8.
    #[cfg(feature = "replay-digest")]
    #[must_use]
    pub fn replay_digest(&self) -> u64 {
        self.digest.value()
    }

    /// Installs a structured trace sink. Every kernel, radio, transport
    /// and application trace event from now on is recorded into it. The
    /// sink only observes — replay digests and statistics are identical
    /// with or without one — but emission itself costs time, so leave
    /// tracing off for performance measurements.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Removes and returns the installed trace sink, flushed. Downcast via
    /// [`TraceSink::as_any`] to recover the concrete sink (e.g. a
    /// [`pds_obs::RingSink`] to read events back).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = self.sink.take();
        if let Some(s) = sink.as_mut() {
            s.flush();
        }
        sink
    }

    /// Whether a trace sink is currently installed.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Installs a deterministic fault plan (DST layer). Wire-level faults
    /// — extra drops, duplicates, delays, partitions, silences — apply
    /// from now on; probabilistic decisions consume the plan's own rng
    /// stream, never the kernel's, so a [`FaultPlan::none`] plan leaves
    /// replay digests and statistics bit-identical to no plan at all.
    /// Churn storms carried by the plan are scenario data for harnesses;
    /// the kernel does not act on them.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(Box::new(FaultState::new(plan)));
    }

    /// Removes the installed fault plan, returning it. Receptions already
    /// diverted to a delayed delivery are dropped with it.
    pub fn take_faults(&mut self) -> Option<FaultPlan> {
        self.faults.take().map(|f| f.plan)
    }

    /// Whether a fault plan is currently installed.
    #[must_use]
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Highest retransmission attempt any tracked message has reached on
    /// any currently alive node — DST evidence for the bounded-retry
    /// invariant (`attempt ≤ max_retr + frag_count/8` by construction).
    #[must_use]
    pub fn max_retr_attempt(&self) -> u32 {
        self.nodes
            .values()
            .map(|n| n.transport.max_attempt())
            .max()
            .unwrap_or(0)
    }

    /// Records `kind` into the sink, if one is installed.
    #[inline]
    fn emit(&mut self, node: u32, phase: Phase, kind: TraceKind) {
        if let Some(s) = self.sink.as_mut() {
            s.record(&TraceEvent {
                at_us: self.now.as_micros(),
                node,
                phase,
                kind,
            });
        }
    }

    /// The shared configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Global traffic counters so far.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Total kernel events dispatched since construction.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// How the physical verdicts of this world were settled: by the
    /// far-field bound, exactly, or by the exhaustive fallback. Purely
    /// observational; see DESIGN.md §18.
    #[must_use]
    pub fn verdict_paths(&self) -> VerdictPaths {
        self.phys_scratch.paths
    }

    /// Traffic counters for one node, if alive.
    #[must_use]
    pub fn node_stats(&self, id: NodeId) -> Option<NodeStats> {
        self.nodes.get(&id).map(|n| n.stats)
    }

    /// Total energy all alive nodes have spent so far under `model`, in
    /// joules (radio bytes moved plus idle listening since time zero).
    #[must_use]
    pub fn energy_j(&self, model: &crate::stats::EnergyModel) -> f64 {
        let elapsed = self.now.as_secs_f64();
        self.nodes
            .values()
            .map(|n| model.node_energy_j(&n.stats, elapsed))
            .sum()
    }

    /// Diagnostic queue depths for one node: bytes waiting in the leaky
    /// bucket and in the OS send buffer.
    #[must_use]
    pub fn queue_depths(&self, id: NodeId) -> Option<(usize, usize)> {
        self.nodes
            .get(&id)
            .map(|n| (n.bucket_queue.iter().map(|f| f.wire_bytes).sum(), n.os_used))
    }

    /// Pre-sizes the node slabs for `n` nodes. Purely an allocation hint:
    /// city-scale scenario builders call this before their `add_node`
    /// storm so the slabs do not pay repeated doubling copies (and their
    /// transient peak-heap spikes). Never changes behavior.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.nodes.reserve(n);
        self.motions.reserve(n);
    }

    /// Adds a node at `pos` running `app`; `on_start` fires at the current
    /// time. Returns the new node's id.
    pub fn add_node(&mut self, pos: Position, app: Box<dyn Application>) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let rng = self.rng.fork(u64::from(id.0) | 1 << 32);
        let capacity = match self.config.sender {
            SenderMode::RawUdp => 0.0,
            SenderMode::LeakyBucket { capacity_bytes, .. } => capacity_bytes as f64,
        };
        let mut state = NodeState::new(self.now, rng, capacity);
        state.app = app;
        let motion = Motion::stationary(pos, self.now);
        self.node_grid.upsert(id, &motion, self.now);
        self.motions.insert(id, motion);
        self.nodes.insert(id, state);
        self.queue.push(self.now, EventKind::Start(id));
        id
    }

    /// Removes a node immediately (a user leaving the area). Its queued
    /// frames and timers are discarded; a frame already on the air still
    /// reaches receivers.
    pub fn remove_node(&mut self, id: NodeId) {
        self.nodes.remove(&id);
        self.motions.remove(&id);
        self.node_grid.remove(id);
    }

    /// Whether the node is currently in the world.
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Ids of all alive nodes, ascending. Returns an iterator rather than
    /// a collected `Vec`: at city scale this is called on hot paths and a
    /// per-call allocation of 10k–100k ids would dominate. Collect at the
    /// call site when a snapshot is genuinely needed (e.g. to mutate the
    /// world while walking it).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys()
    }

    /// Number of alive nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Starts `id` walking toward `dest` at `speed_mps` (pedestrian speeds
    /// are ~1–1.5 m/s); it stops on arrival.
    pub fn move_node(&mut self, id: NodeId, dest: Position, speed_mps: f64) {
        let now = self.now;
        let Some(cur) = self.motions.get_mut(&id) else {
            return;
        };
        let from = cur.position(now);
        let motion = Motion {
            from,
            to: dest,
            depart: now,
            speed_mps,
        };
        *cur = motion;
        self.node_grid.upsert(id, &motion, now);
    }

    /// Teleports `id` to `pos` (scenario setup only).
    pub fn set_position(&mut self, id: NodeId, pos: Position) {
        let now = self.now;
        let Some(cur) = self.motions.get_mut(&id) else {
            return;
        };
        let motion = Motion::stationary(pos, now);
        *cur = motion;
        self.node_grid.upsert(id, &motion, now);
    }

    /// Current position of `id`, if alive.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Option<Position> {
        self.motions.get(&id).map(|m| m.position(self.now))
    }

    /// Alive nodes currently within radio range of `id` (excluding itself),
    /// ascending by id.
    ///
    /// Returns a borrow of an internal scratch buffer that is overwritten
    /// by the next `neighbors` call — copy it out (`.to_vec()`) if you need
    /// the result to survive. The scratch reuse kills the per-call
    /// allocation this query used to pay, which matters at city scale
    /// where protocol layers poll neighborhoods every dispatch.
    pub fn neighbors(&mut self, id: NodeId) -> &[NodeId] {
        self.nbr_scratch.clear();
        let Some(pos) = self.position(id) else {
            return &self.nbr_scratch;
        };
        let range = self.config.radio.range_m;
        self.nbr_cands.clear();
        self.node_grid
            .query_into(pos, range, self.now, &mut self.nbr_cands);
        self.nbr_cands.sort_unstable_by_key(|&(r, _)| r);
        self.nbr_cands.dedup_by_key(|&mut (r, _)| r);
        for &(r, m) in &self.nbr_cands {
            if r != id && m.position(self.now).distance(&pos) <= range {
                self.nbr_scratch.push(r);
            }
        }
        &self.nbr_scratch
    }

    /// Schedules `f` to run at time `at` with full mutable access to the
    /// world — the hook scenario scripts use to start consumers, apply
    /// mobility traces, or inject churn. The closure must be `Send`, like
    /// everything a `World` owns, so whole worlds can move to sweep worker
    /// threads (see `pds-bench`).
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut World) + Send + 'static) {
        let id = self.next_ctrl;
        self.next_ctrl += 1;
        self.controls.insert(id, Box::new(f));
        self.queue.push(at.max(self.now), EventKind::Control(id));
    }

    /// Immutable access to a node's application, downcast to its concrete
    /// type (for extracting results after a run).
    #[must_use]
    pub fn app<T: Application>(&self, id: NodeId) -> Option<&T> {
        let state = self.nodes.get(&id)?;
        (state.app.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable access to a node's application.
    pub fn app_mut<T: Application>(&mut self, id: NodeId) -> Option<&mut T> {
        let state = self.nodes.get_mut(&id)?;
        (state.app.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Invokes `f` on node `id`'s application with a live [`Context`], so
    /// external drivers (scenario scripts, scheduled closures) can trigger
    /// protocol actions that send messages or arm timers. Returns `None` if
    /// the node is gone or its application is not a `T`.
    pub fn with_app<T: Application, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context) -> R,
    ) -> Option<R> {
        let now = self.now;
        let next_timer = self.next_timer;
        let trace_on = self.sink.is_some();
        let mut buf = std::mem::take(&mut self.cmd_scratch);
        buf.clear();
        let state = self.nodes.get_mut(&id)?;
        let msg_seq = state.msg_seq;
        let NodeState { app, rng, .. } = state;
        let app = (app.as_mut() as &mut dyn Any).downcast_mut::<T>()?;
        let mut ctx = Context::new(now, id, next_timer, msg_seq, rng, buf, trace_on);
        let out = f(app, &mut ctx);
        let (mut commands, next_timer, next_msg) = ctx.finish();
        self.next_timer = next_timer;
        if next_msg != msg_seq {
            if let Some(state) = self.nodes.get_mut(&id) {
                state.msg_seq = next_msg;
            }
        }
        self.apply_commands(id, &mut commands);
        self.cmd_scratch = commands;
        Some(out)
    }

    /// An independent random stream for scenario-level decisions.
    pub fn fork_rng(&mut self, stream: u64) -> SimRng {
        self.rng.fork(stream | 1 << 40)
    }

    /// Runs the event loop until virtual time `horizon` (inclusive); the
    /// clock ends at `horizon` even if the queue drains earlier.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((at, kind)) = self.pop_event(horizon) {
            self.now = at.max(self.now);
            self.refresh_node_grid();
            self.dispatch(kind);
        }
        self.now = self.now.max(horizon);
        // Leave exact buckets behind so post-run queries (scenario code
        // inspecting neighborhoods) need no staleness padding.
        self.refresh_node_grid();
    }

    /// Pops the next due event off the scheduler. Factored out of
    /// [`run_until`] so the profiler can charge wheel time separately
    /// from dispatch time.
    fn pop_event(&mut self, horizon: SimTime) -> Option<(SimTime, EventKind)> {
        #[cfg(feature = "prof")]
        let _t = crate::prof::ScopeTimer::start(crate::prof::SCOPE_WHEEL);
        self.queue.pop_until(horizon)
    }

    /// Re-buckets moving nodes once the grid is older than the configured
    /// re-bucket interval. Until then, queries stay exact by padding their
    /// radius with the maximum possible drift.
    fn refresh_node_grid(&mut self) {
        let now = self.now;
        let stamp = self.node_grid.stamp();
        if now <= stamp || now.since(stamp) < self.config.spatial.rebucket_interval {
            return;
        }
        let Self {
            node_grid, motions, ..
        } = self;
        #[cfg(feature = "prof")]
        let _t = crate::prof::ScopeTimer::start(crate::prof::SCOPE_GRID);
        node_grid.rebucket(now, |id| motions.get(&id).copied());
    }

    /// Runs for `span` beyond the current time.
    pub fn run_for(&mut self, span: SimDuration) {
        let horizon = self.now + span;
        self.run_until(horizon);
    }

    fn dispatch(&mut self, kind: EventKind) {
        self.events_dispatched += 1;
        #[cfg(feature = "replay-digest")]
        self.digest.record(self.now, &kind);
        if self.sink.is_some() {
            self.trace_kernel(&kind);
        }
        #[cfg(feature = "prof")]
        let _timer = crate::prof::DispatchTimer::start(crate::prof::slot_of(&kind));
        self.dispatch_inner(kind);
    }

    /// Mirrors the dispatched event stream — exactly what the replay
    /// digest folds — into the trace, so `pds-obs diff` of two traces
    /// explains any digest mismatch down to the first diverging event.
    fn trace_kernel(&mut self, kind: &EventKind) {
        let (node, tk) = match *kind {
            EventKind::Start(id) => (id.0, TraceKind::NodeStart),
            EventKind::MacTry { node, deferred } => (node.0, TraceKind::MacTry { deferred }),
            EventKind::TxEnd(tx) => (
                self.transmissions.get(&tx).map_or(u32::MAX, |t| t.sender.0),
                TraceKind::TxEnd { tx },
            ),
            EventKind::BucketDrain(node) => (node.0, TraceKind::BucketDrain),
            EventKind::Timer { node, id } => (node.0, TraceKind::TimerFired { timer: id.0 }),
            EventKind::Control(ctrl) => (u32::MAX, TraceKind::Control { ctrl }),
            EventKind::Sweep => (u32::MAX, TraceKind::Sweep),
            EventKind::FaultDeliver(fault) => (
                self.faults
                    .as_ref()
                    .and_then(|f| f.pending.get(&fault))
                    .map_or(u32::MAX, |p| p.receiver.0),
                TraceKind::FaultDeliver { fault },
            ),
        };
        self.emit(node, Phase::Kernel, tk);
    }

    fn dispatch_inner(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(id) => self.call_app(id, |app, ctx| app.on_start(ctx)),
            EventKind::MacTry { node, deferred } => self.mac_try(node, deferred),
            EventKind::TxEnd(tx) => self.tx_end(tx),
            EventKind::BucketDrain(node) => {
                self.nodes.set_flag(&node, FLAG_BUCKET_SCHEDULED, false);
                self.drain_bucket(node);
            }
            EventKind::Timer { node, id } => self.fire_timer(node, id),
            EventKind::Control(id) => {
                if let Some(f) = self.controls.remove(&id) {
                    f(self);
                }
            }
            EventKind::Sweep => {
                let now = self.now;
                for state in self.nodes.values_mut() {
                    state.transport.sweep(now, DELIVERED_HORIZON, STALE_HORIZON);
                }
                self.queue.push(now + SWEEP_INTERVAL, EventKind::Sweep);
            }
            EventKind::FaultDeliver(id) => self.fault_deliver(id),
        }
    }

    // ---- application callbacks -------------------------------------------

    fn call_app(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Application, &mut Context)) {
        #[cfg(feature = "prof")]
        let _t = crate::prof::ScopeTimer::start(crate::prof::SCOPE_ENGINE);
        let now = self.now;
        let next_timer = self.next_timer;
        let trace_on = self.sink.is_some();
        let mut buf = std::mem::take(&mut self.cmd_scratch);
        buf.clear();
        let Some(state) = self.nodes.get_mut(&id) else {
            self.cmd_scratch = buf;
            return;
        };
        let msg_seq = state.msg_seq;
        let NodeState { app, rng, .. } = state;
        let mut ctx = Context::new(now, id, next_timer, msg_seq, rng, buf, trace_on);
        f(app.as_mut(), &mut ctx);
        let (mut commands, next_timer, next_msg) = ctx.finish();
        self.next_timer = next_timer;
        if next_msg != msg_seq {
            if let Some(state) = self.nodes.get_mut(&id) {
                state.msg_seq = next_msg;
            }
        }
        self.apply_commands(id, &mut commands);
        self.cmd_scratch = commands;
    }

    fn apply_commands(&mut self, id: NodeId, commands: &mut Vec<Command>) {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Broadcast {
                    payload,
                    intended,
                    handle,
                    class,
                } => self.start_send(id, handle, payload, intended, class),
                Command::SetTimer { id: tid, at, tag } => {
                    if let Some(state) = self.nodes.get_mut(&id) {
                        state.timers.insert(tid, TimerKind::App(tag));
                        self.queue.push(at, EventKind::Timer { node: id, id: tid });
                    }
                }
                Command::CancelTimer(tid) => {
                    if let Some(state) = self.nodes.get_mut(&id) {
                        state.timers.remove(&tid);
                    }
                }
                Command::Trace(ev) => {
                    if let Some(s) = self.sink.as_mut() {
                        s.record(&ev);
                    }
                }
            }
        }
    }

    fn start_send(
        &mut self,
        id: NodeId,
        handle: MessageHandle,
        payload: Bytes,
        intended: Vec<NodeId>,
        class: u8,
    ) {
        let mut plan = {
            let Self {
                config,
                nodes,
                stats,
                frame_scratch,
                ..
            } = self;
            let Some(state) = nodes.get_mut(&id) else {
                return;
            };
            stats.messages_sent += 1;
            state.transport.send_message(
                id,
                handle.0,
                handle,
                payload,
                intended,
                class,
                config,
                std::mem::take(frame_scratch),
            )
        };
        if self.sink.is_some() {
            let bytes: u64 = plan.frames.iter().map(|f| f.wire_bytes as u64).sum();
            self.emit(
                id.0,
                Phase::Transport,
                TraceKind::MessageSent {
                    seq: handle.0,
                    bytes,
                    class: u64::from(class),
                },
            );
        }
        for frame in plan.frames.drain(..) {
            self.pace_frame(id, frame, SendClass::Data);
        }
        self.frame_scratch = plan.frames;
    }

    // ---- pacing: leaky bucket and OS buffer ------------------------------

    fn pace_frame(&mut self, id: NodeId, frame: Frame, class: SendClass) {
        match self.config.sender {
            SenderMode::RawUdp => self.enqueue_os(id, frame, class == SendClass::Ack),
            SenderMode::LeakyBucket { .. } => match class {
                // Acks bypass the bucket: tiny and latency-critical.
                SendClass::Ack => self.enqueue_os(id, frame, true),
                // Retransmitted fragments jump the (possibly megabytes
                // deep) data queue: a chunk missing one fragment must not
                // wait for the whole backlog to drain before it can repair.
                SendClass::Repair => {
                    if let Some(state) = self.nodes.get_mut(&id) {
                        state.bucket_queue.push_front(frame);
                    }
                    self.drain_bucket(id);
                }
                SendClass::Data => {
                    if let Some(state) = self.nodes.get_mut(&id) {
                        state.bucket_queue.push_back(frame);
                    }
                    self.drain_bucket(id);
                }
            },
        }
    }

    fn drain_bucket(&mut self, id: NodeId) {
        let SenderMode::LeakyBucket {
            capacity_bytes,
            rate_bps,
        } = self.config.sender
        else {
            return;
        };
        let os_cap = if self.config.radio.os_backpressure {
            self.config.radio.os_buffer_bytes
        } else {
            usize::MAX // prototype regime: inject regardless; enqueue_os drops
        };
        let now = self.now;
        let rate_bytes = rate_bps / 8.0;
        let mut release = std::mem::take(&mut self.rel_scratch);
        release.clear();
        let mut schedule_in: Option<SimDuration> = None;
        {
            let Some((state, flags)) = self.nodes.parts_mut(&id) else {
                return;
            };
            let dt = now.since(state.bucket_last).as_secs_f64();
            state.bucket_tokens =
                (state.bucket_tokens + dt * rate_bytes).min(capacity_bytes as f64);
            state.bucket_last = now;
            let mut os_projected = state.os_used;
            while let Some(front) = state.bucket_queue.front() {
                let wire = front.wire_bytes;
                let need = wire as f64;
                // Backpressure: a paced sender observes a full OS buffer
                // (blocking send / occupancy check) and waits for the MAC to
                // drain instead of dropping; `mac_try` re-drains the bucket
                // after each dequeue.
                if os_projected + wire > os_cap {
                    break;
                }
                if state.bucket_tokens + 1e-9 >= need {
                    state.bucket_tokens -= need;
                    os_projected += wire;
                    if let Some(frame) = state.bucket_queue.pop_front() {
                        release.push(frame);
                    }
                } else {
                    if *flags & FLAG_BUCKET_SCHEDULED == 0 {
                        let wait = (need - state.bucket_tokens) / rate_bytes;
                        *flags |= FLAG_BUCKET_SCHEDULED;
                        schedule_in = Some(SimDuration::from_secs_f64(wait.max(1e-6)));
                    }
                    break;
                }
            }
        }
        for frame in release.drain(..) {
            self.enqueue_os(id, frame, false);
        }
        self.rel_scratch = release;
        if let Some(delay) = schedule_in {
            self.queue.push(now + delay, EventKind::BucketDrain(id));
        }
    }

    fn enqueue_os(&mut self, id: NodeId, frame: Frame, priority: bool) {
        let cap = self.config.radio.os_buffer_bytes;
        let now = self.now;
        let mut dropped_msg = None;
        let mut dropped_bytes = None;
        let mut queued_depth = None;
        let mut schedule_mac = false;
        {
            let Some((state, flags)) = self.nodes.parts_mut(&id) else {
                return;
            };
            if state.os_used + frame.wire_bytes > cap {
                // The OS silently discards the datagram (§V-2).
                self.stats.frames_dropped_os += 1;
                dropped_bytes = Some(frame.wire_bytes as u64);
                if let FrameKind::Data { msg, .. } = frame.kind {
                    dropped_msg = Some(msg);
                }
            } else {
                state.os_used += frame.wire_bytes;
                queued_depth = Some(state.os_used as u64);
                if priority {
                    state.os_buffer.push_front(frame);
                } else {
                    state.os_buffer.push_back(frame);
                }
                if *flags & (FLAG_TRANSMITTING | FLAG_MAC_SCHEDULED) == 0 {
                    *flags |= FLAG_MAC_SCHEDULED;
                    schedule_mac = true;
                }
            }
        }
        if self.sink.is_some() {
            if let Some(bytes) = dropped_bytes {
                self.emit(id.0, Phase::Radio, TraceKind::FrameDroppedOs { bytes });
            }
            if let Some(bytes) = queued_depth {
                self.emit(id.0, Phase::Radio, TraceKind::QueueDepth { bytes });
            }
        }
        if schedule_mac {
            self.queue.push(
                now,
                EventKind::MacTry {
                    node: id,
                    deferred: false,
                },
            );
        }
        if let Some(msg) = dropped_msg {
            self.frame_done(id, msg);
        }
    }

    // ---- MAC: carrier sense, defer, transmit -----------------------------

    fn mac_try(&mut self, id: NodeId, deferred: bool) {
        let now = self.now;
        let cs_range = self.config.radio.range_m * self.config.radio.cs_range_factor;
        let sense_delay = self.config.radio.sense_delay;
        let backoff_max = self.config.radio.backoff_max.as_micros();
        let Some((state, flags)) = self.nodes.parts_mut(&id) else {
            return;
        };
        if *flags & FLAG_TRANSMITTING != 0 || state.os_buffer.is_empty() {
            *flags &= !FLAG_MAC_SCHEDULED;
            return;
        }
        let Some(pos) = self.motions.get(&id).map(|m| m.position(now)) else {
            return;
        };
        // Carrier sense: any ongoing transmission within the (extended)
        // sense range that has been on the air long enough to detect. The
        // grid carries the sense-relevant fields inline, so the scan never
        // touches the transmission map; `max` is order-independent, so the
        // unspecified query order is fine.
        let mut cands = std::mem::take(&mut self.cs_scratch);
        cands.clear();
        self.tx_grid.query_into(pos, cs_range, &mut cands);
        let busy_until = cands
            .iter()
            .filter(|t| {
                t.end > now
                    && t.sender != id
                    && t.start + sense_delay <= now
                    && t.pos.distance(&pos) <= cs_range
            })
            .map(|t| t.end)
            .max();
        self.cs_scratch = cands;
        if let Some(until) = busy_until {
            let backoff = if backoff_max > 0 {
                self.rng.range_u64(0, backoff_max)
            } else {
                0
            };
            self.queue.push(
                until + SimDuration::from_micros(backoff),
                EventKind::MacTry {
                    node: id,
                    deferred: false,
                },
            );
            return;
        }
        if !deferred {
            let defer = self.rng.range_u64(0, INITIAL_DEFER.as_micros().max(1));
            self.queue.push(
                now + SimDuration::from_micros(defer),
                EventKind::MacTry {
                    node: id,
                    deferred: true,
                },
            );
            return;
        }
        // Transmit.
        let Some((state, flags)) = self.nodes.parts_mut(&id) else {
            return;
        };
        let Some(frame) = state.os_buffer.pop_front() else {
            *flags &= !FLAG_MAC_SCHEDULED;
            return;
        };
        state.os_used = state.os_used.saturating_sub(frame.wire_bytes);
        // The OS buffer drained: wake a backpressured leaky bucket.
        let wake_bucket = !state.bucket_queue.is_empty() && *flags & FLAG_BUCKET_SCHEDULED == 0;
        if wake_bucket {
            *flags |= FLAG_BUCKET_SCHEDULED;
            self.queue.push(now, EventKind::BucketDrain(id));
        }
        *flags = (*flags | FLAG_TRANSMITTING) & !FLAG_MAC_SCHEDULED;
        state.stats.frames_sent += 1;
        state.stats.bytes_sent += frame.wire_bytes as u64;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.wire_bytes as u64;
        let wire = frame.wire_bytes as u64;
        let frame_class = frame.class;
        match frame.kind {
            FrameKind::Data { .. } => {
                // The single site where on-air data bytes are counted;
                // splitting here keeps total() == data_bytes_sent exact.
                self.stats.data_bytes_sent += wire;
                self.stats.data_bytes_by_phase.add(frame_class, wire);
            }
            FrameKind::Ack { .. } => self.stats.ack_bytes_sent += wire,
        }
        let duration = self.config.radio.frame_airtime(frame.wire_bytes);
        // Message identity of the carried payload, captured before the
        // frame moves into the transmission table: `origin#seq` is the
        // correlation key tying this frame to its transport message and —
        // through the protocol layer's `QuerySent`/`ResponseSent` events —
        // to the consumer session it serves.
        let (msg_origin, msg_seq) = match &frame.kind {
            FrameKind::Data { msg, .. } | FrameKind::Ack { msg, .. } => {
                (u64::from(msg.origin.0), msg.seq)
            }
        };
        let tx_id = self.next_tx;
        self.next_tx += 1;
        self.transmissions.insert(
            tx_id,
            Transmission {
                id: tx_id,
                sender: id,
                start_pos: pos,
                start: now,
                end: now + duration,
                frame,
            },
        );
        self.tx_grid.insert(TxEntry {
            id: tx_id,
            sender: id,
            pos,
            start: now,
            end: now + duration,
        });
        let sender_ix = id.0 as usize;
        if sender_ix >= self.tx_by_sender.len() {
            self.tx_by_sender.resize_with(sender_ix + 1, Vec::new);
        }
        if let Some(ids) = self.tx_by_sender.get_mut(sender_ix) {
            ids.push(tx_id);
        }
        self.tx_prune.push(now + duration, tx_id);
        self.queue.push(now + duration, EventKind::TxEnd(tx_id));
        if self.sink.is_some() {
            self.emit(
                id.0,
                Phase::Radio,
                TraceKind::TxStart {
                    tx: tx_id,
                    origin: msg_origin,
                    seq: msg_seq,
                    bytes: wire,
                    class: u64::from(frame_class),
                },
            );
        }
    }

    // ---- transmission end: delivery --------------------------------------

    fn tx_end(&mut self, tx_id: u64) {
        let now = self.now;
        let baseline_loss = self.config.radio.baseline_loss;
        let Some(tx) = self.transmissions.get(&tx_id).cloned() else {
            return;
        };

        // Sender-side: radio is free again.
        let mut resume_mac = false;
        if let Some((state, flags)) = self.nodes.parts_mut(&tx.sender) {
            *flags &= !FLAG_TRANSMITTING;
            if !state.os_buffer.is_empty() && *flags & FLAG_MAC_SCHEDULED == 0 {
                *flags |= FLAG_MAC_SCHEDULED;
                resume_mac = true;
            }
        }
        if resume_mac {
            self.queue.push(
                now,
                EventKind::MacTry {
                    node: tx.sender,
                    deferred: false,
                },
            );
        }

        // Physical verdicts: a pure function of the frozen radio state
        // (`radio::phys_verdicts`); every rng draw, stat and emission
        // happens in the commit loop below.
        let mut verdicts = std::mem::take(&mut self.vd_scratch);
        verdicts.clear();
        {
            #[cfg(feature = "prof")]
            let _t = crate::prof::ScopeTimer::start(crate::prof::SCOPE_PHYS);
            let mut scratch = std::mem::take(&mut self.phys_scratch);
            let args = PhysArgs {
                config: &self.config,
                transmissions: &self.transmissions,
                tx_by_sender: &self.tx_by_sender,
                node_grid: &self.node_grid,
                tx_grid: &self.tx_grid,
            };
            phys_verdicts(&args, &tx, &mut verdicts, &mut scratch);
            self.phys_scratch = scratch;
        }
        // Commit: in-range receivers in ascending id order. The
        // per-receiver baseline-loss rolls below consume the shared rng
        // stream, so verdict *order* is part of the replay contract.
        let mut deliveries = std::mem::take(&mut self.dl_scratch);
        deliveries.clear();
        for &(r, outcome) in &verdicts {
            match outcome {
                PhysOutcome::HalfDuplex => {
                    self.stats.frames_half_duplex += 1;
                    self.emit(r.0, Phase::Radio, TraceKind::FrameHalfDuplex { tx: tx_id });
                    continue;
                }
                PhysOutcome::Collided => {
                    self.stats.frames_collided += 1;
                    self.emit(r.0, Phase::Radio, TraceKind::FrameCollided { tx: tx_id });
                    continue;
                }
                PhysOutcome::Survivor => {}
            }
            if self.rng.chance(baseline_loss) {
                self.stats.frames_lost_random += 1;
                self.emit(r.0, Phase::Radio, TraceKind::FrameLostRandom { tx: tx_id });
                continue;
            }
            // Adversarial wire faults (DST layer), decided after the
            // natural loss processes so the kernel rng stream above stays
            // untouched; every roll consumes the plan-owned stream only,
            // and the whole block is one branch when no plan is installed.
            if self.faults.is_some() {
                if self.fault_cut(tx.sender, r) {
                    self.stats.frames_fault_cut += 1;
                    self.emit(r.0, Phase::Radio, TraceKind::FaultCut { tx: tx_id });
                    continue;
                }
                if self.fault_roll_drop() {
                    self.stats.frames_fault_dropped += 1;
                    self.emit(r.0, Phase::Radio, TraceKind::FaultDropped { tx: tx_id });
                    continue;
                }
                if let Some(at) = self.fault_roll_delay() {
                    self.stats.frames_fault_delayed += 1;
                    self.emit(r.0, Phase::Radio, TraceKind::FaultDelayed { tx: tx_id });
                    self.fault_enqueue(r, tx_id, tx.frame.clone(), at);
                    continue; // counted as delivered when it arrives
                }
                if let Some(at) = self.fault_roll_dup() {
                    self.stats.frames_fault_duplicated += 1;
                    self.emit(r.0, Phase::Radio, TraceKind::FaultDuplicated { tx: tx_id });
                    self.fault_enqueue(r, tx_id, tx.frame.clone(), at);
                    // and fall through: the original copy arrives now.
                }
            }
            self.stats.frames_delivered += 1;
            if let Some(state) = self.nodes.get_mut(&r) {
                state.stats.bytes_received += tx.frame.wire_bytes as u64;
            }
            if self.sink.is_some() {
                self.emit(
                    r.0,
                    Phase::Radio,
                    TraceKind::FrameDelivered {
                        tx: tx_id,
                        bytes: tx.frame.wire_bytes as u64,
                    },
                );
            }
            deliveries.push(r);
        }
        for &r in &deliveries {
            self.deliver_frame(r, &tx.frame);
        }
        self.vd_scratch = verdicts;
        self.dl_scratch = deliveries;

        // Sender-side transport bookkeeping (retransmission arming).
        if let FrameKind::Data { msg, .. } = tx.frame.kind {
            self.frame_done(tx.sender, msg);
        }

        // Prune transmissions that can no longer overlap anything, and
        // their spatial/per-sender index entries with them.
        let horizon = now.since(SimTime::ZERO + self.max_airtime + self.max_airtime);
        let keep_after = SimTime::ZERO + horizon; // now - 2*max_airtime, saturating
        while let Some((_, id)) = self.tx_prune.pop_until(keep_after) {
            let Some(t) = self.transmissions.remove(&id) else {
                continue;
            };
            self.tx_grid.remove(id);
            // Empty per-sender vecs stay in place: the slot is the
            // sender's identity, and the capacity is reused by its next
            // transmission.
            if let Some(ids) = self.tx_by_sender.get_mut(t.sender.0 as usize) {
                ids.retain(|&x| x != id);
            }
        }
    }

    // ---- fault injection (DST) -------------------------------------------

    /// Whether the installed plan cuts sender→receiver right now
    /// (partition or byzantine silence; consumes no randomness).
    fn fault_cut(&self, s: NodeId, r: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.plan.cuts(s, r, self.now))
    }

    fn fault_roll_drop(&mut self) -> bool {
        self.faults.as_mut().is_some_and(|f| f.roll_drop())
    }

    fn fault_roll_delay(&mut self) -> Option<SimTime> {
        let now = self.now;
        self.faults.as_mut().and_then(|f| f.roll_delay(now))
    }

    fn fault_roll_dup(&mut self) -> Option<SimTime> {
        let now = self.now;
        self.faults.as_mut().and_then(|f| f.roll_dup(now))
    }

    /// Diverts one reception to a scheduled `FaultDeliver` at `at`.
    fn fault_enqueue(&mut self, r: NodeId, tx: u64, frame: Frame, at: SimTime) {
        if let Some(f) = self.faults.as_mut() {
            let id = f.enqueue(r, tx, frame);
            self.queue.push(at, EventKind::FaultDeliver(id));
        }
    }

    /// A fault-delayed or duplicated reception arrives. Reception-side
    /// bookkeeping (delivered count, receiver bytes) happens here, at the
    /// actual delivery instant; the receiver may have churned away since.
    fn fault_deliver(&mut self, id: u64) {
        #[cfg(feature = "prof")]
        let _t = crate::prof::ScopeTimer::start(crate::prof::SCOPE_FAULT);
        let Some(p) = self.faults.as_mut().and_then(|f| f.pending.remove(&id)) else {
            return;
        };
        if !self.nodes.contains_key(&p.receiver) {
            return;
        }
        self.stats.frames_delivered += 1;
        if let Some(state) = self.nodes.get_mut(&p.receiver) {
            state.stats.bytes_received += p.frame.wire_bytes as u64;
        }
        if self.sink.is_some() {
            self.emit(
                p.receiver.0,
                Phase::Radio,
                TraceKind::FrameDelivered {
                    tx: p.tx,
                    bytes: p.frame.wire_bytes as u64,
                },
            );
        }
        self.deliver_frame(p.receiver, &p.frame);
    }

    fn deliver_frame(&mut self, r: NodeId, frame: &Frame) {
        let now = self.now;
        let ack_cfg = self.config.ack;
        match &frame.kind {
            FrameKind::Data {
                msg,
                frag,
                frag_count,
                intended,
                payload,
                msg_wire_bytes,
            } => {
                let plan = {
                    let Some(state) = self.nodes.get_mut(&r) else {
                        return;
                    };
                    state.transport.on_data_frame(
                        r,
                        *msg,
                        *frag,
                        *frag_count,
                        intended,
                        payload,
                        *msg_wire_bytes,
                        frame.sender,
                        ack_cfg.enabled,
                        ack_cfg.ack_delay,
                        now,
                    )
                };
                if let Some(delay) = plan.schedule_ack {
                    let jitter = self.rng.range_u64(0, ACK_JITTER.as_micros().max(1));
                    let tid = TimerId(self.next_timer);
                    self.next_timer += 1;
                    if let Some(state) = self.nodes.get_mut(&r) {
                        state.timers.insert(tid, TimerKind::AckSend(*msg));
                        self.queue.push(
                            now + delay + SimDuration::from_micros(jitter),
                            EventKind::Timer { node: r, id: tid },
                        );
                    }
                }
                if let Some(d) = plan.deliver {
                    self.stats.messages_delivered += 1;
                    if let Some(state) = self.nodes.get_mut(&r) {
                        state.stats.messages_delivered += 1;
                        if d.overheard {
                            state.stats.messages_overheard += 1;
                        }
                    }
                    if self.sink.is_some() {
                        self.emit(
                            r.0,
                            Phase::Transport,
                            TraceKind::MessageDelivered {
                                origin: u64::from(msg.origin.0),
                                seq: msg.seq,
                                bytes: d.wire_bytes as u64,
                                overheard: d.overheard,
                            },
                        );
                    }
                    let meta = MessageMeta {
                        from: d.from,
                        intended: d.intended,
                        overheard: d.overheard,
                        wire_bytes: d.wire_bytes,
                    };
                    let payload = d.payload;
                    self.call_app(r, move |app, ctx| app.on_message(ctx, meta, payload));
                }
            }
            FrameKind::Ack { msg, received } => {
                if msg.origin != r {
                    return;
                }
                let completed = {
                    let Some(state) = self.nodes.get_mut(&r) else {
                        return;
                    };
                    state.transport.on_ack_frame(*msg, frame.sender, received)
                };
                if let Some((handle, timer)) = completed {
                    if let Some(tid) = timer {
                        if let Some(state) = self.nodes.get_mut(&r) {
                            state.timers.remove(&tid);
                        }
                    }
                    self.emit(
                        r.0,
                        Phase::Transport,
                        TraceKind::MessageAcked { seq: msg.seq },
                    );
                    self.call_app(r, move |app, ctx| app.on_send_result(ctx, handle, true));
                }
            }
        }
    }

    fn frame_done(&mut self, sender: NodeId, msg: MessageId) {
        let now = self.now;
        let retr_timeout = self.config.ack.retr_timeout;
        let arm = {
            let Some(state) = self.nodes.get_mut(&sender) else {
                return;
            };
            state.transport.on_frame_done(msg)
        };
        if arm {
            let tid = TimerId(self.next_timer);
            self.next_timer += 1;
            if let Some(state) = self.nodes.get_mut(&sender) {
                state.timers.insert(tid, TimerKind::Retr(msg));
                state.transport.set_retr_timer(msg, tid);
                self.queue.push(
                    now + retr_timeout,
                    EventKind::Timer {
                        node: sender,
                        id: tid,
                    },
                );
            }
        }
    }

    // ---- timers ----------------------------------------------------------

    fn fire_timer(&mut self, node: NodeId, id: TimerId) {
        let kind = {
            let Some(state) = self.nodes.get_mut(&node) else {
                return;
            };
            let Some(kind) = state.timers.remove(&id) else {
                return; // cancelled
            };
            kind
        };
        match kind {
            TimerKind::App(tag) => self.call_app(node, move |app, ctx| app.on_timer(ctx, tag)),
            TimerKind::AckSend(msg) => {
                let ack = {
                    let Some(state) = self.nodes.get_mut(&node) else {
                        return;
                    };
                    state.transport.make_ack(node, msg)
                };
                if let Some(frame) = ack {
                    if self.sink.is_some() {
                        self.emit(
                            node.0,
                            Phase::Transport,
                            TraceKind::AckSent {
                                origin: u64::from(msg.origin.0),
                                seq: msg.seq,
                                bytes: frame.wire_bytes as u64,
                            },
                        );
                    }
                    self.pace_frame(node, frame, SendClass::Ack);
                }
            }
            TimerKind::Retr(msg) => {
                let max_retr = self.config.ack.max_retr;
                let plan = {
                    let Some(state) = self.nodes.get_mut(&node) else {
                        return;
                    };
                    state.transport.on_retr_timer(node, msg, max_retr)
                };
                match plan {
                    RetrPlan::Nothing => {}
                    RetrPlan::GiveUp(handle) => {
                        self.stats.messages_failed += 1;
                        self.emit(
                            node.0,
                            Phase::Transport,
                            TraceKind::MessageFailed { seq: msg.seq },
                        );
                        self.call_app(node, move |app, ctx| {
                            app.on_send_result(ctx, handle, false);
                        });
                    }
                    RetrPlan::Retransmit(frames) => {
                        self.stats.frames_retransmitted += frames.len() as u64;
                        if self.sink.is_some() {
                            self.emit(
                                node.0,
                                Phase::Transport,
                                TraceKind::Retransmit {
                                    seq: msg.seq,
                                    frames: frames.len() as u64,
                                },
                            );
                        }
                        for frame in frames {
                            self.pace_frame(node, frame, SendClass::Repair);
                        }
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AckConfig;

    /// Records everything it receives.
    struct Sink {
        received: Vec<(MessageMeta, Bytes)>,
    }
    impl Sink {
        fn new() -> Self {
            Self {
                received: Vec::new(),
            }
        }
    }
    impl Application for Sink {
        fn on_start(&mut self, _ctx: &mut Context) {}
        fn on_message(&mut self, _ctx: &mut Context, meta: MessageMeta, payload: Bytes) {
            self.received.push((meta, payload));
        }
    }

    /// Sends `count` messages of `size` bytes to `intended` at start.
    struct Blaster {
        count: usize,
        size: usize,
        intended: Vec<NodeId>,
        results: Vec<bool>,
    }
    impl Blaster {
        fn new(count: usize, size: usize, intended: Vec<NodeId>) -> Self {
            Self {
                count,
                size,
                intended,
                results: Vec::new(),
            }
        }
    }
    impl Application for Blaster {
        fn on_start(&mut self, ctx: &mut Context) {
            for i in 0..self.count {
                let body = vec![(i % 256) as u8; self.size];
                ctx.broadcast(Bytes::from(body), &self.intended);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: Bytes) {}
        fn on_send_result(&mut self, _ctx: &mut Context, _m: MessageHandle, delivered: bool) {
            self.results.push(delivered);
        }
    }

    fn lossless() -> SimConfig {
        let mut c = SimConfig::default();
        c.radio.baseline_loss = 0.0;
        c
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn basic_delivery_between_neighbors() {
        let mut w = World::new(lossless(), 1);
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(1, 500, vec![NodeId(1)])),
        );
        let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.run_until(secs(1.0));
        let sink = w.app::<Sink>(b).expect("sink");
        assert_eq!(sink.received.len(), 1);
        assert_eq!(sink.received[0].1.len(), 500);
        assert!(!sink.received[0].0.overheard);
    }

    #[test]
    fn out_of_range_not_delivered() {
        let mut w = World::new(lossless(), 1);
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(1, 500, vec![])),
        );
        let far = w.add_node(Position::new(500.0, 0.0), Box::new(Sink::new()));
        w.run_until(secs(1.0));
        assert!(w.app::<Sink>(far).expect("sink").received.is_empty());
    }

    #[test]
    fn overhearing_sets_flag() {
        let mut w = World::new(lossless(), 1);
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(1, 200, vec![NodeId(1)])),
        );
        w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        let eavesdropper = w.add_node(Position::new(0.0, 30.0), Box::new(Sink::new()));
        w.run_until(secs(1.0));
        let sink = w.app::<Sink>(eavesdropper).expect("sink");
        assert_eq!(sink.received.len(), 1);
        assert!(sink.received[0].0.overheard);
    }

    #[test]
    fn reliable_send_reports_success() {
        let mut w = World::new(lossless(), 3);
        let a = w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(1, 5000, vec![NodeId(1)])),
        );
        w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.run_until(secs(2.0));
        assert_eq!(w.app::<Blaster>(a).expect("app").results, vec![true]);
    }

    #[test]
    fn retransmission_overcomes_heavy_loss() {
        let mut c = SimConfig::default();
        c.radio.baseline_loss = 0.5;
        let mut w = World::new(c, 7);
        let a = w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(5, 1000, vec![NodeId(1)])),
        );
        let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.run_until(secs(5.0));
        let delivered = w.app::<Sink>(b).expect("sink").received.len();
        assert!(
            delivered >= 4,
            "ack/retransmission should deliver most messages under 50% loss, got {delivered}/5"
        );
        let results = &w.app::<Blaster>(a).expect("app").results;
        assert_eq!(results.len(), 5, "every message must resolve");
    }

    #[test]
    fn unreliable_send_has_no_result_callback() {
        let mut w = World::new(lossless(), 1);
        let a = w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(1, 100, vec![])),
        );
        w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.run_until(secs(1.0));
        assert!(w.app::<Blaster>(a).expect("app").results.is_empty());
    }

    #[test]
    fn raw_udp_overflows_os_buffer() {
        let mut c = SimConfig::raw_udp();
        c.radio.baseline_loss = 0.0;
        let mut w = World::new(c, 5);
        // 2 MB injected instantly into a 1 MB buffer.
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(1400, 1400, vec![])),
        );
        let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.run_until(secs(10.0));
        assert!(w.stats().frames_dropped_os > 0, "expected OS buffer drops");
        let got = w.app::<Sink>(b).expect("sink").received.len();
        assert!(
            got < 1100,
            "reception should be capped by buffer overflow, got {got}/1400"
        );
    }

    #[test]
    fn leaky_bucket_avoids_overflow() {
        let mut c = SimConfig::leaky_only();
        c.radio.baseline_loss = 0.0;
        let mut w = World::new(c, 5);
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(1400, 1400, vec![])),
        );
        let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.run_until(secs(10.0));
        assert_eq!(w.stats().frames_dropped_os, 0);
        let got = w.app::<Sink>(b).expect("sink").received.len();
        assert!(
            got > 1300,
            "paced sending should deliver nearly all, got {got}/1400"
        );
    }

    #[test]
    fn hidden_terminals_collide() {
        // With short carrier sense (factor 1.0), A and C cannot hear each
        // other but both reach B: classic hidden-terminal collisions at B.
        // (The default 2× sense range eliminates this geometry.)
        let mut c = lossless();
        c.ack = AckConfig::disabled();
        c.radio.cs_range_factor = 1.0;
        let mut w = World::new(c, 11);
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(300, 1400, vec![])),
        );
        let b = w.add_node(Position::new(70.0, 0.0), Box::new(Sink::new()));
        w.add_node(
            Position::new(140.0, 0.0),
            Box::new(Blaster::new(300, 1400, vec![])),
        );
        w.run_until(secs(10.0));
        assert!(
            w.stats().frames_collided > 10,
            "expected hidden-terminal collisions, got {}",
            w.stats().frames_collided
        );
        let got = w.app::<Sink>(b).expect("sink").received.len();
        assert!(
            got < 600,
            "collisions should cost receptions, got {got}/600"
        );
    }

    #[test]
    fn csma_defers_for_in_range_sender() {
        // Both senders hear each other: carrier sense should prevent most
        // collisions even without acks.
        let mut c = lossless();
        c.ack = AckConfig::disabled();
        let mut w = World::new(c, 13);
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(200, 1400, vec![])),
        );
        let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.add_node(
            Position::new(60.0, 0.0),
            Box::new(Blaster::new(200, 1400, vec![])),
        );
        w.run_until(secs(10.0));
        let got = w.app::<Sink>(b).expect("sink").received.len();
        assert!(
            got > 350,
            "carrier sense should allow most frames through, got {got}/400"
        );
    }

    #[test]
    fn node_removal_stops_reception() {
        let mut w = World::new(lossless(), 1);
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(200, 1400, vec![])),
        );
        let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.schedule(secs(0.05), move |w| w.remove_node(b));
        w.run_until(secs(5.0));
        assert!(!w.is_alive(b));
        assert!(w.app::<Sink>(b).is_none());
    }

    #[test]
    fn mobility_breaks_connectivity() {
        let mut w = World::new(lossless(), 1);
        struct Periodic;
        impl Application for Periodic {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
            fn on_message(&mut self, _: &mut Context, _: MessageMeta, _: Bytes) {}
            fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
                ctx.broadcast(Bytes::from_static(b"tick"), &[]);
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
        }
        w.add_node(Position::new(0.0, 0.0), Box::new(Periodic));
        let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.run_until(secs(2.0));
        let before = w.app::<Sink>(b).expect("sink").received.len();
        assert!(before >= 15, "should receive most ticks, got {before}");
        // Walk far out of range quickly.
        w.move_node(b, Position::new(1000.0, 0.0), 100.0);
        w.run_until(secs(15.0));
        let during = w.app::<Sink>(b).expect("sink").received.len();
        w.run_until(secs(20.0));
        let after = w.app::<Sink>(b).expect("sink").received.len();
        assert_eq!(during, after, "no reception once out of range");
    }

    #[test]
    fn neighbors_reflect_positions() {
        let mut w = World::new(lossless(), 1);
        let a = w.add_node(Position::new(0.0, 0.0), Box::new(Sink::new()));
        let b = w.add_node(Position::new(50.0, 0.0), Box::new(Sink::new()));
        let c = w.add_node(Position::new(200.0, 0.0), Box::new(Sink::new()));
        assert_eq!(w.neighbors(a), [b]);
        w.set_position(c, Position::new(60.0, 0.0));
        // Already ascending by id — the scratch slice is sorted by
        // construction.
        assert_eq!(w.neighbors(a), [b, c]);
    }

    /// The grids are indexes over `motions` and `transmissions`, never a
    /// second source of truth: same members, same denormalized fields, and
    /// a filtered query equals a scan of the table.
    fn assert_grids_mirror_tables(w: &mut World) {
        let now = w.now;
        let nodes: Vec<(NodeId, Motion)> = w.motions.iter().map(|(id, m)| (id, *m)).collect();
        assert_eq!(w.node_grid.snapshot(), nodes, "node grid at {now}");
        let live: Vec<_> = w
            .transmissions
            .values()
            .map(|t| (t.id, t.sender, t.start_pos, t.start, t.end))
            .collect();
        let indexed: Vec<_> = w
            .tx_grid
            .snapshot()
            .iter()
            .map(|t| (t.id, t.sender, t.pos, t.start, t.end))
            .collect();
        assert_eq!(indexed, live, "transmission grid at {now}");
        let range = w.config.radio.range_m;
        for &(id, m) in &nodes {
            let pos = m.position(now);
            let scan: Vec<NodeId> = nodes
                .iter()
                .filter(|&&(o, om)| o != id && om.position(now).distance(&pos) <= range)
                .map(|&(o, _)| o)
                .collect();
            assert_eq!(w.neighbors(id), scan, "neighbors of {id} at {now}");
        }
    }

    #[test]
    fn grids_mirror_the_authoritative_tables() {
        let run = |rebucket_ms: u64| {
            let mut c = SimConfig::default();
            c.radio.baseline_loss = 0.1;
            c.spatial.rebucket_interval = SimDuration::from_millis(rebucket_ms);
            let mut w = World::new(c, 42);
            let mut ids = Vec::new();
            for i in 0..24u32 {
                let (x, y) = (f64::from(i % 6) * 55.0, f64::from(i / 6) * 70.0);
                let count = 20 + 3 * i as usize;
                ids.push(w.add_node(
                    Position::new(x, y),
                    Box::new(Blaster::new(count, 900, vec![])),
                ));
            }
            // Every third node walks across the field, fast enough to
            // change cells between re-buckets.
            for (k, &id) in ids.iter().enumerate().filter(|(k, _)| k % 3 == 0) {
                w.move_node(id, Position::new(300.0 - 12.0 * k as f64, 250.0), 35.0);
            }
            let mut in_flight = 0;
            for step in 1..=600u64 {
                w.run_until(SimTime::from_micros(step * 2_500));
                // Churn between observations: leave, join, teleport.
                match step {
                    150 => w.remove_node(ids[4]),
                    300 => ids.push(w.add_node(Position::new(20.0, 20.0), Box::new(Sink::new()))),
                    450 => w.set_position(ids[7], Position::new(280.0, 10.0)),
                    _ => {}
                }
                in_flight += w.transmissions.len();
                assert_grids_mirror_tables(&mut w);
            }
            assert!(in_flight > 0, "no transmission was ever observed");
            w.stats().clone()
        };
        let eager = run(0);
        // Lazy re-bucketing pads queries instead of moving buckets; the
        // results must not change either way.
        assert_eq!(run(500), eager);
        assert!(eager.frames_delivered > 0 && eager.frames_collided > 0);
    }

    /// Twelve sender/sink pairs strung 400 m apart along x, chattering in
    /// step so several transmissions are always in flight at once.
    fn add_chatter_clusters(w: &mut World) {
        for i in 0..12u32 {
            let x = f64::from(i) * 400.0;
            w.add_node(
                Position::new(x, 0.0),
                Box::new(Blaster::new(60, 700, vec![])),
            );
            w.add_node(Position::new(x + 25.0, 0.0), Box::new(Sink::new()));
        }
    }

    #[test]
    fn far_field_bound_settles_verdicts_in_a_spread_out_world() {
        // Clusters far apart on the default infinite interference horizon:
        // every verdict has concurrent far interferers, and nearly all
        // must be settled by the bound rather than the exhaustive sum.
        let mut w = World::new(SimConfig::default(), 11);
        add_chatter_clusters(&mut w);
        w.run_until(secs(4.0));
        let p = w.verdict_paths();
        assert!(p.cleared + p.bounded > 100, "{p:?}");
        assert!(p.fallback * 20 < p.cleared + p.bounded, "{p:?}");
    }

    #[test]
    #[should_panic(expected = "path_loss_exp must be finite and >= 0")]
    fn negative_path_loss_exponent_is_rejected() {
        // Power growing with distance is not physics, and it would make
        // the far-field bound unsound.
        let mut c = SimConfig::default();
        c.radio.path_loss_exp = -1.0;
        let _ = World::new(c, 1);
    }

    #[test]
    #[should_panic(expected = "capture_sinr must be finite and >= 0")]
    fn non_finite_capture_threshold_is_rejected() {
        let mut c = SimConfig::default();
        c.radio.capture_sinr = f64::NAN;
        let _ = World::new(c, 1);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| {
            let mut c = SimConfig::default();
            c.radio.baseline_loss = 0.1;
            let mut w = World::new(c, seed);
            w.add_node(
                Position::new(0.0, 0.0),
                Box::new(Blaster::new(50, 1200, vec![NodeId(1)])),
            );
            w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
            w.add_node(
                Position::new(0.0, 30.0),
                Box::new(Blaster::new(50, 900, vec![])),
            );
            w.run_until(secs(10.0));
            w.stats().clone()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl Application for TimerApp {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let t2 = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.cancel_timer(t2);
            }
            fn on_message(&mut self, _: &mut Context, _: MessageMeta, _: Bytes) {}
            fn on_timer(&mut self, _ctx: &mut Context, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut w = World::new(lossless(), 1);
        let a = w.add_node(
            Position::new(0.0, 0.0),
            Box::new(TimerApp { fired: Vec::new() }),
        );
        w.run_until(secs(1.0));
        assert_eq!(w.app::<TimerApp>(a).expect("app").fired, vec![1, 3]);
    }

    #[test]
    fn stats_count_bytes_and_messages() {
        let mut w = World::new(lossless(), 1);
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(3, 1000, vec![NodeId(1)])),
        );
        let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.run_until(secs(2.0));
        let s = w.stats();
        assert_eq!(s.messages_sent, 3);
        assert_eq!(s.messages_delivered, 3);
        assert!(s.bytes_sent >= 3000);
        assert!(s.ack_bytes_sent > 0);
        assert!(s.data_bytes_sent > s.ack_bytes_sent);
        let nb = w.node_stats(b).expect("alive");
        assert_eq!(nb.messages_delivered, 3);
        assert!(nb.frames_sent > 0, "receiver sent acks");
    }

    #[test]
    fn with_app_can_send_from_outside() {
        struct Trigger;
        impl Application for Trigger {
            fn on_start(&mut self, _ctx: &mut Context) {}
            fn on_message(&mut self, _: &mut Context, _: MessageMeta, _: Bytes) {}
        }
        let mut w = World::new(lossless(), 1);
        let a = w.add_node(Position::new(0.0, 0.0), Box::new(Trigger));
        let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        w.schedule(secs(1.0), move |w| {
            w.with_app::<Trigger, _>(a, |_app, ctx| {
                ctx.broadcast(Bytes::from_static(b"late"), &[]);
            });
        });
        w.run_until(secs(0.5));
        assert!(w.app::<Sink>(b).expect("sink").received.is_empty());
        w.run_until(secs(2.0));
        assert_eq!(w.app::<Sink>(b).expect("sink").received.len(), 1);
    }

    #[test]
    fn energy_grows_with_traffic_and_time() {
        let mut w = World::new(lossless(), 1);
        w.add_node(
            Position::new(0.0, 0.0),
            Box::new(Blaster::new(20, 1400, vec![NodeId(1)])),
        );
        w.add_node(Position::new(30.0, 0.0), Box::new(Sink::new()));
        let model = crate::stats::EnergyModel::default();
        w.run_until(secs(1.0));
        let early = w.energy_j(&model);
        w.run_until(secs(10.0));
        let late = w.energy_j(&model);
        assert!(early > 0.0);
        assert!(late > early, "idle listening keeps accruing");
        // Receiver actually accounted received bytes.
        let rx = w.node_stats(NodeId(1)).expect("alive");
        assert!(
            rx.bytes_received >= 20 * 1400,
            "rx bytes = {}",
            rx.bytes_received
        );
    }

    #[test]
    fn world_is_send() {
        // The parallel sweep executor in pds-bench moves whole worlds onto
        // worker threads; this fails to compile if any kernel field (apps,
        // sinks, scheduled controls, ...) loses `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<World>();
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut w = World::new(lossless(), 1);
        w.run_until(secs(3.0));
        assert_eq!(w.now(), secs(3.0));
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.now(), secs(5.0));
    }
}
