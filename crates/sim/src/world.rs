//! The simulation kernel: the event loop, the application host, and the
//! glue that carries frames between the transport, the MAC
//! ([`crate::mac`]), the medium ([`crate::medium`]) and the fault seam
//! ([`crate::fault`]).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::config::SimConfig;
use crate::events::{EventKind, EventQueue, TimerKind};
use crate::fault::{Fate, FaultPlan, FaultState};
use crate::mac::{self, Mac, Offer, Release, SendClass};
use crate::medium::Medium;
use crate::profile::{KernelProfile, Profiler, Scope};
use crate::radio::{Motion, PhysOutcome, Position, Transmission};
use crate::slab::{DenseTable, SeqSlab};
use crate::stats::{NodeStats, Stats};
use crate::transport::{Frame, MessageId, Received, RetrPlan, Transport, SWEEP_INTERVAL};
use bytes::Bytes;
use pds_core::SimRng;
use pds_core::{Application, Command, Context, MessageHandle, MessageMeta, NodeId, TimerId};
use pds_core::{SimDuration, SimTime};
use pds_obs::{Phase, TraceEvent, TraceKind, TraceSink};
use std::any::Any;

/// Upper bound of the random jitter before an ack transmission.
const ACK_JITTER: SimDuration = SimDuration::from_millis(10);

/// Per-node state, stored inline in the node slab.
struct NodeState {
    app: Box<dyn Application>,
    transport: Transport,
    mac: Mac,
    msg_seq: u64,
    rng: SimRng,
    stats: NodeStats,
}

type ControlFn = Box<dyn FnOnce(&mut World) + Send>;

/// A simulated wireless world: nodes, medium and virtual clock.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct World {
    config: SimConfig,
    now: SimTime,
    queue: EventQueue,
    /// Dense node slab indexed by [`NodeId`] (DESIGN.md §16). Iterates
    /// ascending by id, exactly like the `BTreeMap` it replaced.
    nodes: DenseTable<NodeState>,
    /// Node motions, transmissions and the spatial indexes over them.
    medium: Medium,
    /// Scheduled control closures, keyed by monotone id in a base-offset
    /// slab (they fire roughly in issue order, so the window stays small).
    controls: SeqSlab<ControlFn>,
    next_timer: u64,
    /// The one shared kernel stream: busy backoff, initial defer,
    /// baseline loss and ack jitter draw from it, so their commit order
    /// is part of the replay contract.
    rng: SimRng,
    stats: Stats,
    /// Structured trace sink; `None` (the default) keeps every emission
    /// site a single branch. Sinks observe, never influence: installing
    /// one must not change replay digests, stats, or rng consumption.
    sink: Option<Box<dyn TraceSink>>,
    /// Installed fault plan (DST layer); `None` (the default) keeps the
    /// delivery path at a single branch. Fault decisions consume only the
    /// plan-owned rng, so faultless and no-op-plan runs are bit-identical.
    faults: Option<Box<FaultState>>,
    /// Running digest of the dispatched event stream (DESIGN.md §8).
    /// Always on, so every build can answer "did this run replay?".
    digest: crate::digest::ReplayDigest,
    /// Per-kind event counts, and host time while a clock is lent.
    prof: Profiler,
    /// Reusable buffers: application commands (threaded through
    /// [`Context`]), fragments (recycled through
    /// [`Transport::send_message`]), and one transmission's receivers.
    cmd_scratch: Vec<Command>,
    frame_scratch: Vec<Frame>,
    rx_scratch: Vec<(NodeId, PhysOutcome)>,
}

impl World {
    /// Creates an empty world with the given configuration and random seed.
    /// Identical (config, seed, scenario) triples replay identically.
    ///
    /// # Panics
    ///
    /// Panics if `radio.path_loss_exp` or `radio.capture_sinr` is negative
    /// or not finite: received power must not grow with distance (the far-field
    /// interference bound of DESIGN.md §18 is unsound otherwise, and so is
    /// the physics).
    #[must_use]
    pub fn new(config: SimConfig, seed: u64) -> Self {
        let mut queue = EventQueue::new();
        queue.push(SimTime::ZERO + SWEEP_INTERVAL, EventKind::Sweep);
        Self {
            medium: Medium::new(&config),
            config,
            now: SimTime::ZERO,
            queue,
            nodes: DenseTable::default(),
            controls: SeqSlab::default(),
            next_timer: 0,
            rng: SimRng::new(seed),
            stats: Stats::default(),
            sink: None,
            faults: None,
            digest: crate::digest::ReplayDigest::default(),
            prof: Profiler::default(),
            cmd_scratch: Vec::new(),
            frame_scratch: Vec::new(),
            rx_scratch: Vec::new(),
        }
    }

    /// FNV-1a digest of every event dispatched so far: virtual timestamp,
    /// event kind, and identifying payload, folded in dispatch order. Two
    /// runs replayed bit-identically iff their digests are equal (the
    /// converse holds up to hash collisions). Maintained in every build.
    /// See DESIGN.md §8.
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

    /// Lends a host clock reading nanoseconds: from now on the
    /// [`profile`](Self::profile) also records where host time goes, per
    /// event kind and per kernel scope. An instrument like the trace sink:
    /// replay digests and statistics are identical with or without one.
    pub fn lend_host_clock(&mut self, clock: impl FnMut() -> u64 + Send + 'static) {
        self.prof.clock = Some(Box::new(clock));
    }

    /// What this world dispatched per event kind, how its physical
    /// verdicts were settled, and — while a host clock is lent — where
    /// the host time went. Purely observational; see DESIGN.md §14.
    #[must_use]
    pub fn profile(&self) -> KernelProfile {
        self.prof.profile
    }

    /// Installs a deterministic fault plan (DST layer). Wire-level faults
    /// — extra drops, duplicates, delays, partitions, silences — apply
    /// from now on; probabilistic decisions consume the plan's own rng
    /// stream, never the kernel's, so a [`FaultPlan::none`] plan leaves
    /// replay digests and statistics bit-identical to no plan at all.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(Box::new(FaultState::new(plan)));
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

    /// Total kernel events dispatched since construction: the denominator
    /// of the bench resource accounting's events/sec and the natural
    /// progress unit for long adversarial runs.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        self.prof.profile.kinds.iter().map(|t| t.count).sum()
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
        self.nodes.get(&id).map(|n| n.mac.depths())
    }

    /// Pre-sizes the node slabs for `n` nodes. Purely an allocation hint:
    /// city-scale scenario builders call this before their `add_node`
    /// storm so the slabs do not pay repeated doubling copies (and their
    /// transient peak-heap spikes). Never changes behavior.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.nodes.reserve(n);
        self.medium.reserve(n);
    }

    /// Adds a node at `pos` running `app`; `on_start` fires at the current
    /// time. Returns the new node's id.
    pub fn add_node(&mut self, pos: Position, app: Box<dyn Application>) -> NodeId {
        let id = self.nodes.next_id();
        let state = NodeState {
            app,
            transport: Transport::new(),
            mac: Mac::new(self.now, self.config.sender),
            msg_seq: 0,
            rng: self.rng.fork(u64::from(id.0) | 1 << 32),
            stats: NodeStats::default(),
        };
        self.medium
            .place(id, Motion::stationary(pos, self.now), self.now);
        self.nodes.insert(id, state);
        self.queue.push(self.now, EventKind::Start(id));
        id
    }

    /// Removes a node immediately (a user leaving the area). Its queued
    /// frames and timers are discarded; a frame already on the air still
    /// reaches receivers.
    pub fn remove_node(&mut self, id: NodeId) {
        self.nodes.remove(&id);
        self.medium.remove(id);
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
        let Some(from) = self.medium.position(id, now) else {
            return;
        };
        let motion = Motion {
            from,
            to: dest,
            depart: now,
            speed_mps,
        };
        self.medium.place(id, motion, now);
    }

    /// Teleports `id` to `pos` (scenario setup only).
    #[cfg(test)]
    pub(crate) fn set_position(&mut self, id: NodeId, pos: Position) {
        if self.is_alive(id) {
            self.medium
                .place(id, Motion::stationary(pos, self.now), self.now);
        }
    }

    /// Current position of `id`, if alive.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Option<Position> {
        self.medium.position(id, self.now)
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
        self.medium.neighbors(id, self.now)
    }

    /// Schedules `f` to run at time `at` with full mutable access to the
    /// world — the hook scenario scripts use to start consumers, apply
    /// mobility traces, or inject churn. The closure must be `Send`, like
    /// everything a `World` owns, so whole worlds can move to sweep worker
    /// threads (see `pds-bench`).
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut World) + Send + 'static) {
        let id = self.controls.push_with(|_| Box::new(f));
        self.queue.push(at.max(self.now), EventKind::Control(id));
    }

    /// Immutable access to a node's application, downcast to its concrete
    /// type (for extracting results after a run).
    #[must_use]
    pub fn app<T: Application>(&self, id: NodeId) -> Option<&T> {
        let state = self.nodes.get(&id)?;
        (state.app.as_ref() as &dyn Any).downcast_ref::<T>()
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
        let mut out = None;
        self.call_app(id, |app, ctx| {
            if let Some(app) = (app as &mut dyn Any).downcast_mut::<T>() {
                out = Some(f(app, ctx));
            }
        });
        out
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
            self.medium.refresh(self.now, &mut self.prof);
            self.dispatch(kind);
        }
        self.now = self.now.max(horizon);
        // Leave exact buckets behind so post-run queries (scenario code
        // inspecting neighborhoods) need no staleness padding.
        self.medium.refresh(self.now, &mut self.prof);
    }

    /// Pops the next due event off the scheduler. Factored out of
    /// [`run_until`] so the profile can charge wheel time separately
    /// from dispatch time.
    fn pop_event(&mut self, horizon: SimTime) -> Option<(SimTime, EventKind)> {
        let t0 = self.prof.read();
        let event = self.queue.pop_until(horizon);
        self.prof.charge(Scope::Wheel, t0);
        event
    }

    fn dispatch(&mut self, kind: EventKind) {
        self.digest.record(self.now, &kind);
        if self.sink.is_some() {
            self.trace_kernel(&kind);
        }
        let (slot, t0) = (kind.slot(), self.prof.read());
        match kind {
            EventKind::Start(id) => self.call_app(id, |app, ctx| app.on_start(ctx)),
            EventKind::MacTry { node, deferred } => self.mac_try(node, deferred),
            EventKind::TxEnd(tx) => self.tx_end(tx),
            EventKind::BucketDrain(node) => {
                if let Some(state) = self.nodes.get_mut(&node) {
                    state.mac.bucket_woken();
                }
                self.drain_bucket(node);
            }
            EventKind::Timer { node, kind, .. } => self.fire_timer(node, kind),
            EventKind::Control(id) => {
                if let Some(f) = self.controls.remove(&id) {
                    f(self);
                }
            }
            EventKind::Sweep => {
                let now = self.now;
                for state in self.nodes.values_mut() {
                    state.transport.sweep(now);
                }
                self.queue.push(now + SWEEP_INTERVAL, EventKind::Sweep);
            }
            EventKind::FaultDeliver(id) => self.fault_deliver(id),
        }
        self.prof.dispatched(slot, t0);
    }

    /// Mirrors the dispatched event stream — exactly what the replay
    /// digest folds — into the trace, so `pds-obs diff` of two traces
    /// explains any digest mismatch down to the first diverging event.
    fn trace_kernel(&mut self, kind: &EventKind) {
        let (node, tk) = match *kind {
            EventKind::Start(id) => (id.0, TraceKind::NodeStart),
            EventKind::MacTry { node, deferred } => (node.0, TraceKind::MacTry { deferred }),
            EventKind::TxEnd(tx) => (
                self.medium
                    .transmissions
                    .get(&tx)
                    .map_or(u32::MAX, |t| t.sender.0),
                TraceKind::TxEnd { tx },
            ),
            EventKind::BucketDrain(node) => (node.0, TraceKind::BucketDrain),
            EventKind::Timer { node, id, .. } => (node.0, TraceKind::TimerFired { timer: id.0 }),
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

    // ---- application host -------------------------------------------------

    fn call_app(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Application, &mut Context)) {
        let trace_on = self.sink.is_some();
        let mut buf = std::mem::take(&mut self.cmd_scratch);
        buf.clear();
        let Some(state) = self.nodes.get_mut(&id) else {
            self.cmd_scratch = buf;
            return;
        };
        let t0 = self.prof.read();
        let msg_seq = state.msg_seq;
        let NodeState { app, rng, .. } = state;
        let mut ctx = Context::new(self.now, id, self.next_timer, msg_seq, rng, buf, trace_on);
        f(app.as_mut(), &mut ctx);
        let (mut commands, next_timer, next_msg) = ctx.finish();
        self.next_timer = next_timer;
        state.msg_seq = next_msg;
        self.apply_commands(id, &mut commands);
        self.cmd_scratch = commands;
        self.prof.charge(Scope::App, t0);
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
                    self.push_timer(id, tid, at, TimerKind::App(tag));
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
        let Some(state) = self.nodes.get_mut(&id) else {
            return;
        };
        self.stats.messages_sent += 1;
        let mut frames = state.transport.send_message(
            id,
            handle,
            payload,
            intended,
            class,
            &self.config,
            std::mem::take(&mut self.frame_scratch),
        );
        if self.sink.is_some() {
            let bytes: u64 = frames.iter().map(|f| f.wire_bytes as u64).sum();
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
        for frame in frames.drain(..) {
            self.pace_frame(id, frame, SendClass::Data);
        }
        self.frame_scratch = frames;
    }

    // ---- MAC glue: pacing, OS buffer, contention -------------------------

    fn pace_frame(&mut self, id: NodeId, frame: Frame, class: SendClass) {
        let Some(state) = self.nodes.get_mut(&id) else {
            return;
        };
        match state.mac.admit(frame, class, self.config.sender) {
            Some(frame) => self.enqueue_os(id, frame, class == SendClass::Ack),
            None => self.drain_bucket(id),
        }
    }

    fn drain_bucket(&mut self, id: NodeId) {
        loop {
            let Some(state) = self.nodes.get_mut(&id) else {
                return;
            };
            match state.mac.release(&self.config, self.now) {
                Release::Frame(frame) => self.enqueue_os(id, frame, false),
                Release::Wake(at) => {
                    self.queue.push(at, EventKind::BucketDrain(id));
                    return;
                }
                Release::Hold => return,
            }
        }
    }

    fn enqueue_os(&mut self, id: NodeId, frame: Frame, priority: bool) {
        let Some(state) = self.nodes.get_mut(&id) else {
            return;
        };
        match state.mac.offer(frame, priority, &self.config.radio) {
            Offer::Queued { depth, try_now } => {
                let bytes = depth as u64;
                self.emit(id.0, Phase::Radio, TraceKind::QueueDepth { bytes });
                if try_now {
                    self.try_mac_now(id);
                }
            }
            Offer::Dropped(frame) => {
                self.stats.frames_dropped_os += 1;
                let bytes = frame.wire_bytes as u64;
                self.emit(id.0, Phase::Radio, TraceKind::FrameDroppedOs { bytes });
                self.frame_done(id, &frame);
            }
        }
    }

    /// Schedules a fresh contention attempt for `id` at the current time.
    fn try_mac_now(&mut self, node: NodeId) {
        let kind = EventKind::MacTry {
            node,
            deferred: false,
        };
        self.queue.push(self.now, kind);
    }

    fn mac_try(&mut self, id: NodeId, deferred: bool) {
        let now = self.now;
        let Some(state) = self.nodes.get_mut(&id) else {
            return;
        };
        if !state.mac.wants_air() {
            return;
        }
        let Some(pos) = self.medium.position(id, now) else {
            return;
        };
        let busy = self.medium.busy_until(id, pos, now);
        if let Some((at, deferred)) =
            mac::contend(busy, deferred, now, &self.config.radio, &mut self.rng)
        {
            self.queue
                .push(at, EventKind::MacTry { node: id, deferred });
            return;
        }
        // Transmit.
        let Some(state) = self.nodes.get_mut(&id) else {
            return;
        };
        let Some((frame, wake_bucket)) = state.mac.dequeue() else {
            return;
        };
        if wake_bucket {
            // The OS buffer drained under a backpressured leaky bucket.
            self.queue.push(now, EventKind::BucketDrain(id));
        }
        let wire = frame.wire_bytes as u64;
        state.stats.frames_sent += 1;
        state.stats.bytes_sent += wire;
        self.stats.count_on_air(&frame);
        let (frame_class, msg) = (frame.class, frame.msg());
        let end = now + self.config.radio.frame_airtime(frame.wire_bytes);
        let tx_id = self.medium.begin(id, pos, now, end, frame);
        self.queue.push(end, EventKind::TxEnd(tx_id));
        let kind = TraceKind::TxStart {
            tx: tx_id,
            origin: u64::from(msg.origin.0),
            seq: msg.seq,
            bytes: wire,
            class: u64::from(frame_class),
        };
        self.emit(id.0, Phase::Radio, kind);
    }

    // ---- transmission end: delivery --------------------------------------

    fn tx_end(&mut self, tx_id: u64) {
        let now = self.now;
        let Some(tx) = self.medium.transmissions.get(&tx_id).cloned() else {
            return;
        };
        // Sender-side: radio is free again.
        if self
            .nodes
            .get_mut(&tx.sender)
            .is_some_and(|s| s.mac.tx_done())
        {
            self.try_mac_now(tx.sender);
        }
        // Physical verdicts are a pure function of the frozen medium; every
        // rng draw, stat and emission happens in `receive`, called in
        // ascending receiver order (the baseline-loss rolls consume the
        // shared stream, so verdict *order* is part of the replay
        // contract). Deliveries run after every receiver is committed.
        let mut rx = std::mem::take(&mut self.rx_scratch);
        self.medium.verdicts(&tx, &mut rx, &mut self.prof);
        rx.retain(|&(r, outcome)| self.receive(&tx, r, outcome));
        for &(r, _) in &rx {
            self.deliver_frame(r, &tx.frame);
        }
        self.rx_scratch = rx;
        // Sender-side transport bookkeeping (retransmission arming).
        self.frame_done(tx.sender, &tx.frame);
        self.medium.prune(now);
    }

    /// Commits one receiver's physical verdict: counts and traces a loss,
    /// or rolls baseline loss and then the fault plan. Returns whether the
    /// frame reaches `r` now.
    fn receive(&mut self, tx: &Transmission, r: NodeId, outcome: PhysOutcome) -> bool {
        let (now, id, s) = (self.now, tx.id, &mut self.stats);
        let (counter, kind) = match outcome {
            PhysOutcome::HalfDuplex => (
                &mut s.frames_half_duplex,
                TraceKind::FrameHalfDuplex { tx: id },
            ),
            PhysOutcome::Collided => (&mut s.frames_collided, TraceKind::FrameCollided { tx: id }),
            PhysOutcome::Survivor if self.rng.chance(self.config.radio.baseline_loss) => (
                &mut s.frames_lost_random,
                TraceKind::FrameLostRandom { tx: id },
            ),
            // Adversarial wire faults (DST layer), rolled after the natural
            // losses and only on the plan-owned stream.
            PhysOutcome::Survivor => match self
                .faults
                .as_mut()
                .map_or(Fate::Pass, |f| f.fate(tx, r, now))
            {
                Fate::Pass => {
                    self.count_delivery(r, id, &tx.frame);
                    return true;
                }
                Fate::Cut => (&mut s.frames_fault_cut, TraceKind::FaultCut { tx: id }),
                Fate::Dropped => (
                    &mut s.frames_fault_dropped,
                    TraceKind::FaultDropped { tx: id },
                ),
                // Counted as delivered when it arrives.
                Fate::Delayed { at, pending } => {
                    self.queue.push(at, EventKind::FaultDeliver(pending));
                    (
                        &mut s.frames_fault_delayed,
                        TraceKind::FaultDelayed { tx: id },
                    )
                }
                // The original copy arrives now as well.
                Fate::Duplicated { at, pending } => {
                    self.queue.push(at, EventKind::FaultDeliver(pending));
                    s.frames_fault_duplicated += 1;
                    self.emit(r.0, Phase::Radio, TraceKind::FaultDuplicated { tx: id });
                    self.count_delivery(r, id, &tx.frame);
                    return true;
                }
            },
        };
        *counter += 1;
        self.emit(r.0, Phase::Radio, kind);
        false
    }

    /// Reception-side bookkeeping of a frame reaching `r`.
    fn count_delivery(&mut self, r: NodeId, tx: u64, frame: &Frame) {
        let bytes = frame.wire_bytes as u64;
        self.stats.frames_delivered += 1;
        if let Some(state) = self.nodes.get_mut(&r) {
            state.stats.bytes_received += bytes;
        }
        self.emit(r.0, Phase::Radio, TraceKind::FrameDelivered { tx, bytes });
    }

    /// A fault-delayed or duplicated reception arrives. Reception-side
    /// bookkeeping happens here, at the actual delivery instant; the
    /// receiver may have churned away since.
    fn fault_deliver(&mut self, id: u64) {
        let Some(p) = self.faults.as_mut().and_then(|f| f.pending.remove(&id)) else {
            return;
        };
        if !self.nodes.contains_key(&p.receiver) {
            return;
        }
        self.count_delivery(p.receiver, p.tx, &p.frame);
        self.deliver_frame(p.receiver, &p.frame);
    }

    fn deliver_frame(&mut self, r: NodeId, frame: &Frame) {
        let now = self.now;
        let Some(state) = self.nodes.get_mut(&r) else {
            return;
        };
        match state.transport.receive(r, frame, &self.config.ack, now) {
            Received::Nothing => {}
            Received::Data {
                msg,
                ack_after,
                deliver,
            } => {
                if let Some(delay) = ack_after {
                    let jitter = self.rng.range_u64(0, ACK_JITTER.as_micros().max(1));
                    let at = now + delay + SimDuration::from_micros(jitter);
                    let (origin, seq) = (msg.origin, msg.seq);
                    self.arm_timer(r, at, TimerKind::AckSend { origin, seq });
                }
                let Some(d) = deliver else {
                    return;
                };
                self.stats.messages_delivered += 1;
                if let Some(state) = self.nodes.get_mut(&r) {
                    state.stats.messages_delivered += 1;
                    state.stats.messages_overheard += u64::from(d.overheard);
                }
                let kind = TraceKind::MessageDelivered {
                    origin: u64::from(msg.origin.0),
                    seq: msg.seq,
                    bytes: d.wire_bytes as u64,
                    overheard: d.overheard,
                };
                self.emit(r.0, Phase::Transport, kind);
                let meta = MessageMeta {
                    from: d.from,
                    intended: d.intended,
                    overheard: d.overheard,
                    wire_bytes: d.wire_bytes,
                    memo: d.body.memo.clone(),
                };
                let payload = d.body.payload.clone();
                self.call_app(r, move |app, ctx| app.on_message(ctx, meta, payload));
            }
            Received::Acked(handle) => {
                // A message's sequence number is its handle.
                let kind = TraceKind::MessageAcked { seq: handle.0 };
                self.emit(r.0, Phase::Transport, kind);
                self.call_app(r, move |app, ctx| app.on_send_result(ctx, handle, true));
            }
        }
    }

    /// Arms the retransmission timer when `frame` was the last of its
    /// message's attempt to leave the radio.
    fn frame_done(&mut self, sender: NodeId, frame: &Frame) {
        let node = self.nodes.get_mut(&sender);
        if let Some(msg) = node.and_then(|s| s.transport.on_frame_done(frame)) {
            let at = self.now + self.config.ack.retr_timeout;
            self.arm_timer(sender, at, TimerKind::Retr(msg.seq));
        }
    }

    // ---- timers ----------------------------------------------------------

    /// Arms a kernel timer on `node`, drawing its id from the same
    /// sequence as application timers.
    fn arm_timer(&mut self, node: NodeId, at: SimTime, kind: TimerKind) {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.push_timer(node, id, at, kind);
    }

    /// Schedules timer `id` of `node`: the event is the whole timer.
    /// A dead node's timer is not scheduled at all.
    fn push_timer(&mut self, node: NodeId, id: TimerId, at: SimTime, kind: TimerKind) {
        if self.nodes.contains_key(&node) {
            self.queue.push(at, EventKind::Timer { node, id, kind });
        }
    }

    /// Fires a timer of `node`; every arm skips a node that left since the
    /// timer was armed. A moot transport timer finds nothing to do:
    /// `make_ack` returns `None` and `on_retr_timer` `Nothing` for a
    /// finished message.
    fn fire_timer(&mut self, node: NodeId, kind: TimerKind) {
        match kind {
            TimerKind::App(tag) => self.call_app(node, move |app, ctx| app.on_timer(ctx, tag)),
            TimerKind::AckSend { origin, seq } => {
                let msg = MessageId { origin, seq };
                let ack = self.nodes.get_mut(&node);
                let Some(frame) = ack.and_then(|s| s.transport.make_ack(node, msg)) else {
                    return;
                };
                let kind = TraceKind::AckSent {
                    origin: u64::from(origin.0),
                    seq,
                    bytes: frame.wire_bytes as u64,
                };
                self.emit(node.0, Phase::Transport, kind);
                self.pace_frame(node, frame, SendClass::Ack);
            }
            TimerKind::Retr(seq) => {
                let msg = MessageId { origin: node, seq };
                let Some(state) = self.nodes.get_mut(&node) else {
                    return;
                };
                match state
                    .transport
                    .on_retr_timer(node, msg, self.config.ack.max_retr)
                {
                    RetrPlan::Nothing => {}
                    RetrPlan::GiveUp(handle) => {
                        self.stats.messages_failed += 1;
                        let kind = TraceKind::MessageFailed { seq: msg.seq };
                        self.emit(node.0, Phase::Transport, kind);
                        self.call_app(node, move |app, ctx| {
                            app.on_send_result(ctx, handle, false);
                        });
                    }
                    RetrPlan::Retransmit(frames) => {
                        self.stats.frames_retransmitted += frames.len() as u64;
                        let kind = TraceKind::Retransmit {
                            seq: msg.seq,
                            frames: frames.len() as u64,
                        };
                        self.emit(node.0, Phase::Transport, kind);
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
    use crate::config::{AckConfig, SenderMode};

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
        // The run ends well past the 200 ms retransmission timeout: the
        // timer armed before the ack landed fired and found nothing to do.
        assert_eq!(w.stats().frames_retransmitted, 0);
        assert_eq!(w.stats().messages_failed, 0);
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
        let mut c = SimConfig {
            sender: SenderMode::RawUdp,
            ack: AckConfig::disabled(),
            ..SimConfig::default()
        };
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
        let mut c = SimConfig {
            ack: AckConfig::disabled(),
            ..SimConfig::default()
        };
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
        let nodes: Vec<(NodeId, Motion)> =
            w.medium.motions.iter().map(|(id, m)| (id, *m)).collect();
        assert_eq!(w.medium.node_grid.snapshot(), nodes, "node grid at {now}");
        let live: Vec<_> = w
            .medium
            .transmissions
            .values()
            .map(|t| (t.id, t.sender, t.start_pos, t.start, t.end))
            .collect();
        let indexed: Vec<_> = w
            .medium
            .tx_grid
            .snapshot()
            .iter()
            .map(|t| (t.id, t.sender, t.pos, t.start, t.end))
            .collect();
        assert_eq!(indexed, live, "transmission grid at {now}");
        let range = crate::config::RANGE_M;
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
                in_flight += w.medium.transmissions.len();
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
        let p = w.profile().verdict_paths;
        assert!(p.cleared + p.bounded > 100, "{p:?}");
        assert!(p.fallback * 20 < p.cleared + p.bounded, "{p:?}");
    }

    /// The chatter clusters plus an acked sender overrunning its leaky
    /// bucket, under a delaying and duplicating fault plan, with one
    /// control closure: every event kind fires. `setup` lends a clock or
    /// installs a sink before the run.
    fn profiled_world(setup: impl FnOnce(&mut World)) -> World {
        let mut w = World::new(SimConfig::default(), 5);
        let mut plan = FaultPlan::none(3);
        (plan.dup_prob, plan.delay_prob) = (0.05, 0.05);
        w.install_faults(plan);
        setup(&mut w);
        add_chatter_clusters(&mut w);
        let acked = Blaster::new(200, 3000, vec![NodeId(1)]);
        w.add_node(Position::new(10.0, 10.0), Box::new(acked));
        w.schedule(secs(0.5), |w| w.remove_node(NodeId(3)));
        w.run_until(secs(6.0));
        w
    }

    /// Lends `w` a fake host clock that advances 1 ns per read.
    fn lend_counting_clock(w: &mut World) {
        let mut ticks = 1..;
        w.lend_host_clock(move || ticks.next().unwrap_or(0));
    }

    #[test]
    fn profile_counts_match_the_trace_and_a_lent_clock_only_observes() {
        let mut traced = profiled_world(|w| w.set_trace_sink(Box::new(pds_obs::RingSink::new(0))));
        let sink = traced.take_trace_sink().expect("installed");
        let ring = sink.as_any().downcast_ref::<pds_obs::RingSink>();
        let mut census = [0u64; 8];
        for ev in ring.expect("ring").events() {
            if ev.phase == Phase::Kernel {
                let kind = KernelProfile::KINDS
                    .iter()
                    .position(|&k| k == ev.kind.name());
                census[kind.expect("a kernel kind")] += 1;
            }
        }
        let p = traced.profile();
        assert_eq!(p.kinds.map(|t| t.count), census);
        assert_eq!(census.iter().sum::<u64>(), traced.events_dispatched());
        assert!(census.iter().all(|&n| n > 0), "a kind never fired: {p:?}");
        // Without a clock nothing is timed.
        assert!(p.kinds.iter().all(|t| t.ns == 0));
        assert_eq!(p.scopes, [crate::Tally::default(); 4]);
        let timed = profiled_world(lend_counting_clock);
        assert_eq!(timed.replay_digest(), traced.replay_digest());
        assert_eq!(timed.stats(), traced.stats());
        assert_eq!(timed.profile().kinds.map(|t| t.count), census);
        assert_eq!(timed.profile().verdict_paths, p.verdict_paths);
    }

    #[test]
    fn a_lent_clock_times_kinds_and_scopes_exactly() {
        let p = profiled_world(lend_counting_clock).profile();
        assert_eq!(p, profiled_world(lend_counting_clock).profile());
        // Each scope entry spans exactly its own two reads. Dispatches also
        // span the app calls and verdicts nested in them; the wheel and
        // grid scopes run between dispatches.
        assert!(
            p.scopes.iter().all(|s| s.count > 0 && s.ns == s.count),
            "{p:?}"
        );
        let [wheel, app, grid, phys] = p.scopes;
        let events: u64 = p.kinds.iter().map(|t| t.count).sum();
        let dispatch_ns: u64 = p.kinds.iter().map(|t| t.ns).sum();
        assert_eq!(dispatch_ns, events + 2 * (app.count + phys.count));
        assert_eq!(wheel.count, events + 1, "one empty pop ends the run");
        assert!(grid.count < events, "only actual rebuckets are timed");
        let [start, mac_try, _, bucket, _, _, sweep, _] = p.kinds;
        assert_eq!(start.ns, 3 * start.count, "one app call per start");
        for plain in [mac_try, bucket, sweep] {
            assert_eq!(plain.ns, plain.count, "{p:?}");
        }
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
    fn timers_fire_with_their_tags() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl Application for TimerApp {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(30), 3);
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
        assert_eq!(w.app::<TimerApp>(a).expect("app").fired, vec![1, 2, 3]);
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
        w.run_until(secs(5.0));
        assert_eq!(w.now(), secs(5.0));
    }
}
