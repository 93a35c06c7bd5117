//! [`PdsNode`]: the PDS protocol engine bound to the simulator's
//! application interface — timers, send jitter, codec, trace records, and
//! the consumer-facing API the evaluation harness drives through
//! [`World::with_app`](pds_sim::World::with_app).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::config::{PdsConfig, ROUND_POLL};
use crate::descriptor::DataDescriptor;
use crate::engine::{Outgoing, PdsEngine};
use crate::ids::ChunkId;
use crate::message::{MessageHeader, PdsMessage, Peeked};
use crate::predicate::QueryFilter;
use crate::sessions::{DiscoveryReport, RetrievalReport};
use crate::{Application, Context, MessageMeta, SimDuration, SimTime};
use bytes::Bytes;
use pds_obs::TraceKind;

const TAG_POLL: u64 = 1;
const TAG_GC: u64 = 2;
pub(crate) const TAG_SEND: u64 = 3;

const GC_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// How long a reliable message waits for its transport verdict before GC
/// forgets it.
const IN_FLIGHT_HORIZON: SimDuration = SimDuration::from_secs(120);

/// A PDS node: every device runs one, whether it currently acts as
/// producer, consumer, relay, or all three.
///
/// The node is only the binding of a [`PdsEngine`] to the simulator: it
/// turns callbacks into engine calls, and the engine's output into sends
/// (after the jitter each [`Outgoing`] asks for), timers, resends of
/// failed hops, and trace records. The protocol facts — which session a
/// message belongs to, what a failed send undoes — are the engine's.
///
/// Only a node with work schedules timers: the poll timer is armed while a
/// discovery or retrieval session of its own is unfinished, the GC timer
/// while it holds anything that expires (lingering queries, CDI routes,
/// recent response ids, pending-chunk marks, cached metadata, in-flight
/// records). Both tick on the node's own lattice, `started_at + k·period`,
/// so a poll or GC that does work runs at the same instant as if the timer
/// had never stopped; an idle relay or producer has no event in the queue.
/// A re-armed timer is pushed later than a never-stopped one would have
/// been, so among events at exactly the same microsecond it may now run
/// later (DESIGN.md §19).
///
/// Construct with locally produced data via [`PdsNode::with_metadata`] /
/// [`PdsNode::with_chunk`]; start consumer operations from scenario code
/// through `pds_sim::World::with_app`:
///
/// ```
/// use pds_core::{PdsConfig, PdsNode, QueryFilter};
/// use pds_sim::{Position, SimConfig, SimTime, World};
///
/// let mut world = World::new(SimConfig::default(), 7);
/// let producer = PdsNode::new(PdsConfig::default(), 1).with_metadata(
///     pds_core::DataDescriptor::builder().attr("type", "no2").build(),
///     None,
/// );
/// world.add_node(Position::new(0.0, 0.0), Box::new(producer));
/// let consumer = world.add_node(
///     Position::new(30.0, 0.0),
///     Box::new(PdsNode::new(PdsConfig::default(), 2)),
/// );
/// world.with_app::<PdsNode, _>(consumer, |node, ctx| {
///     node.start_discovery(ctx, QueryFilter::match_all());
/// });
/// world.run_until(SimTime::from_secs_f64(10.0));
/// let report = world
///     .app::<PdsNode>(consumer)
///     .and_then(|n| n.discovery_report())
///     .expect("discovery ran");
/// assert_eq!(report.entries, 1);
/// ```
pub struct PdsNode {
    config: PdsConfig,
    seed: u64,
    engine: Option<PdsEngine>,
    initial_metadata: Vec<(DataDescriptor, Option<Bytes>)>,
    initial_chunks: Vec<(DataDescriptor, ChunkId, Bytes)>,
    pending: Vec<(SimTime, Outgoing)>,
    // Reliable messages awaiting a transport verdict, for failure-driven
    // resends: handle → (sent message, sent-at time for GC).
    in_flight: Vec<(crate::MessageHandle, SimTime, Outgoing)>,
    decode_errors: u64,
    resends: u64,
    // Timer lattice origin (the instant the engine was created, which is
    // the `on_start` instant) and whether each periodic timer is pending.
    started_at: SimTime,
    poll_armed: bool,
    gc_armed: bool,
}

impl PdsNode {
    /// Creates a node with the given protocol configuration. `seed` drives
    /// the node's query/response id generation and jitter; give every node
    /// a distinct seed.
    #[must_use]
    pub fn new(config: PdsConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            engine: None,
            initial_metadata: Vec::new(),
            initial_chunks: Vec::new(),
            pending: Vec::new(),
            in_flight: Vec::new(),
            decode_errors: 0,
            resends: 0,
            started_at: SimTime::ZERO,
            poll_armed: false,
            gc_armed: false,
        }
    }

    /// Adds a locally produced data item (available from the start).
    #[must_use]
    pub fn with_metadata(mut self, descriptor: DataDescriptor, payload: Option<Bytes>) -> Self {
        self.initial_metadata.push((descriptor, payload));
        self
    }

    /// Adds a locally held chunk of a large item (available from the
    /// start). `item_descriptor` is the whole-item descriptor.
    #[must_use]
    pub fn with_chunk(
        mut self,
        item_descriptor: DataDescriptor,
        chunk: ChunkId,
        data: Bytes,
    ) -> Self {
        self.initial_chunks.push((item_descriptor, chunk, data));
        self
    }

    /// The protocol engine, once the node has started.
    #[must_use]
    pub fn engine(&self) -> Option<&PdsEngine> {
        self.engine.as_ref()
    }

    /// Report of the node's discovery session, if one was started.
    #[must_use]
    pub fn discovery_report(&self) -> Option<DiscoveryReport> {
        Some(self.engine.as_ref()?.discovery()?.report())
    }

    /// Report of the node's retrieval session, if one was started.
    #[must_use]
    pub fn retrieval_report(&self) -> Option<RetrievalReport> {
        Some(self.engine.as_ref()?.retrieval()?.report())
    }

    /// Messages that failed to decode (diagnostics; should stay 0).
    ///
    /// Redundant copies — a query already lingering or expired, a response
    /// id seen recently — are dropped on their fixed header and never
    /// decoded, so a malformed body behind a redundant header is not
    /// counted here.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Failure-driven resends performed so far (diagnostics).
    #[must_use]
    pub fn resends(&self) -> u64 {
        self.resends
    }

    /// Creates the engine on first use (whichever comes first: `on_start`
    /// or an external `with_app` call at the same instant), applying the
    /// initial data. The creation instant is the node's timer lattice
    /// origin.
    fn ensure_engine(&mut self, ctx: &Context) -> &mut PdsEngine {
        let Self {
            engine,
            config,
            seed,
            initial_metadata,
            initial_chunks,
            started_at,
            ..
        } = self;
        engine.get_or_insert_with(|| {
            *started_at = ctx.now();
            let mut engine = PdsEngine::new(ctx.node_id(), config.clone(), *seed);
            for (d, payload) in initial_metadata.drain(..) {
                engine.store_mut().insert_own(d, payload);
            }
            for (d, chunk, data) in initial_chunks.drain(..) {
                engine.store_mut().insert_chunk(&d, chunk, data);
            }
            engine
        })
    }

    /// Starts a PDD metadata discovery (consumer role).
    pub fn start_discovery(&mut self, ctx: &mut Context, filter: QueryFilter) {
        self.open_session(ctx, |engine, now| engine.start_discovery(now, filter));
    }

    /// Starts a small-data retrieval (consumer role).
    pub fn start_small_data_retrieval(&mut self, ctx: &mut Context, filter: QueryFilter) {
        self.open_session(ctx, |engine, now| {
            engine.start_small_data_retrieval(now, filter)
        });
    }

    /// Starts a two-phase PDR retrieval of a large item (consumer role).
    ///
    /// # Panics
    ///
    /// Panics if `descriptor` lacks `name` or `total_chunks`.
    pub fn start_retrieval(&mut self, ctx: &mut Context, descriptor: DataDescriptor) {
        self.open_session(ctx, |engine, now| engine.start_retrieval(now, descriptor));
    }

    /// Starts an MDR baseline retrieval of a large item (consumer role).
    ///
    /// # Panics
    ///
    /// Panics if `descriptor` lacks `name` or `total_chunks`.
    pub fn start_mdr_retrieval(&mut self, ctx: &mut Context, descriptor: DataDescriptor) {
        self.open_session(ctx, |engine, now| {
            engine.start_mdr_retrieval(now, descriptor)
        });
    }

    /// What every `start_*` shares: the engine opens the session, then the
    /// session's start is traced, its first messages sent and its timers
    /// armed.
    fn open_session(
        &mut self,
        ctx: &mut Context,
        start: impl FnOnce(&mut PdsEngine, SimTime) -> Vec<Outgoing>,
    ) {
        let now = ctx.now();
        let engine = self.ensure_engine(ctx);
        let out = start(engine, now);
        for (phase, kind) in engine.untraced_starts() {
            ctx.trace(phase, kind);
        }
        self.dispatch(ctx, out);
        self.arm_timers(ctx);
    }

    /// Arms each periodic timer that has work and is not pending yet: the
    /// poll timer while a session of this node's is unfinished, the GC
    /// timer while anything could expire. O(1); called at the end of every
    /// callback that can create such work.
    fn arm_timers(&mut self, ctx: &mut Context) {
        let Some(engine) = self.engine.as_ref() else {
            return;
        };
        if !self.poll_armed && engine.has_live_session() {
            self.poll_armed = true;
            arm_on_lattice(ctx, self.started_at, ROUND_POLL, TAG_POLL);
        }
        if !self.gc_armed && (engine.holds_expiring_state() || !self.in_flight.is_empty()) {
            self.gc_armed = true;
            arm_on_lattice(ctx, self.started_at, GC_INTERVAL, TAG_GC);
        }
    }

    /// Sends (or schedules, for jittered responses) the engine's outgoing
    /// messages.
    fn dispatch(&mut self, ctx: &mut Context, outs: Vec<Outgoing>) {
        for out in outs {
            let max = out.jitter.max_delay().as_micros();
            if max > 0 {
                let delay = SimDuration::from_micros(ctx.rng().range_u64(0, max));
                let due = ctx.now() + delay;
                self.pending.push((due, out));
                ctx.set_timer(delay, TAG_SEND);
            } else {
                self.transmit(ctx, out);
            }
        }
    }

    /// Sends `out` as its wire bytes, encoding them only if this is its
    /// first transmission and it is no unchanged relay.
    fn transmit(&mut self, ctx: &mut Context, mut out: Outgoing) {
        if let Some(wire) = &out.wire {
            debug_assert_eq!(*wire, out.message.encode(), "the message's own bytes");
        }
        let wire = out.wire.get_or_insert_with(|| out.message.encode()).clone();
        let handle = ctx.broadcast_class(wire, &out.intended, out.phase.class());
        if ctx.trace_enabled() {
            // The transport handle doubles as the message's per-origin
            // sequence number, linking this protocol event to every
            // transport/radio event of the carrying message.
            let kind = match &out.message {
                PdsMessage::Query(q) => TraceKind::QuerySent {
                    query: q.id.0,
                    session: u64::from(out.session),
                    seq: handle.0,
                },
                PdsMessage::Response(r) => TraceKind::ResponseSent {
                    response: r.id.0,
                    query: out.answers,
                    seq: handle.0,
                },
            };
            ctx.trace(out.phase, kind);
        }
        // Only directed messages get transport verdicts; track them for
        // failure-driven resends.
        if !out.intended.is_empty() && out.retries_left > 0 {
            self.in_flight.push((handle, ctx.now(), out));
        }
    }

    fn flush_due(&mut self, ctx: &mut Context) {
        let now = ctx.now();
        let due: Vec<(SimTime, Outgoing)> =
            self.pending.extract_if(.., |(at, _)| *at <= now).collect();
        for (_, out) in due {
            self.transmit(ctx, out);
        }
    }

    /// Traces `SessionFinished` for each consumer session that has
    /// finished since the last call. Tracing-only: a no-op (beyond one
    /// branch) when no sink is installed.
    fn note_finishes(&mut self, ctx: &mut Context) {
        if !ctx.trace_enabled() {
            return;
        }
        if let Some(engine) = self.engine.as_mut() {
            for (phase, kind) in engine.untraced_finishes() {
                ctx.trace(phase, kind);
            }
        }
    }
}

impl Application for PdsNode {
    fn on_start(&mut self, ctx: &mut Context) {
        // No timer yet: a fresh node has no session to poll and nothing
        // that expires. The first `start_*` call or received message that
        // creates such work arms what it needs.
        self.ensure_engine(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context, meta: MessageMeta, payload: Bytes) {
        let now = ctx.now();
        // Most copies a node hears are redundant (every neighbor relays a
        // flood, every overhearer sees a relay): the fixed header says so,
        // and such a copy is dropped without decoding its body.
        let Ok(peeked) = Peeked::new(&payload) else {
            self.decode_errors += 1;
            return;
        };
        let header = peeked.header;
        let own;
        let received = if self.ensure_engine(ctx).is_redundant(now, &header) {
            None
        } else {
            // The first receiver of the message decodes it into the
            // message's memo; every later one reads that result, so the
            // entries its receivers cache share their descriptors.
            let decoded = match meta.memo.get_or_init(|| peeked.decode()) {
                Some(shared) => shared,
                None => {
                    own = PdsMessage::decode(&payload);
                    &own
                }
            };
            match decoded {
                Ok(m) => Some(m),
                Err(_) => {
                    self.decode_errors += 1;
                    return;
                }
            }
        };
        if ctx.trace_enabled() {
            let from = u64::from(meta.from.0);
            let kind = match header {
                MessageHeader::Query { id, .. } => TraceKind::QueryReceived { query: id.0, from },
                MessageHeader::Response { id, .. } => TraceKind::ResponseReceived {
                    response: id.0,
                    from,
                },
            };
            ctx.trace(header.phase(), kind);
        }
        if let Some(message) = received {
            let me = ctx.node_id();
            let me_intended = meta.intended.is_empty() || meta.intended.contains(&me);
            let out = self.ensure_engine(ctx).handle_received(
                now,
                meta.from,
                me_intended,
                message,
                &payload,
            );
            self.dispatch(ctx, out);
            self.arm_timers(ctx);
        }
        self.note_finishes(ctx);
    }

    fn on_send_result(
        &mut self,
        ctx: &mut Context,
        message: crate::MessageHandle,
        delivered: bool,
    ) {
        let Some(idx) = self.in_flight.iter().position(|(h, _, _)| *h == message) else {
            return;
        };
        let (_, _, mut out) = self.in_flight.swap_remove(idx);
        if delivered {
            return;
        }
        if out.retries_left > 0 {
            // The content still exists locally; try the hop again.
            out.retries_left -= 1;
            self.resends += 1;
            self.transmit(ctx, out);
            self.arm_timers(ctx);
        } else if let Some(engine) = self.engine.as_mut() {
            engine.on_send_failed(&out.message);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, tag: u64) {
        let now = ctx.now();
        match tag {
            TAG_POLL => {
                self.poll_armed = false;
                if let Some(engine) = self.engine.as_mut() {
                    let out = engine.poll(now);
                    self.dispatch(ctx, out);
                    self.note_finishes(ctx);
                }
            }
            TAG_GC => {
                self.gc_armed = false;
                if let Some(engine) = self.engine.as_mut() {
                    engine.gc(now);
                }
                // Drop in-flight records that never got a verdict (e.g.
                // unreliable config): bounded memory.
                self.in_flight
                    .retain(|(_, at, _)| now.since(*at) < IN_FLIGHT_HORIZON);
            }
            TAG_SEND => self.flush_due(ctx),
            _ => {}
        }
        self.arm_timers(ctx);
    }
}

/// Arms `tag` at the first tick of the lattice `origin + k·period`
/// strictly after now. A tick at now has nothing to do for the work that
/// arms it: state created now expires later, and a session started now
/// has nothing to poll yet. (Between `run_until` calls, which are
/// inclusive, such a tick has already been dispatched anyway.)
fn arm_on_lattice(ctx: &mut Context, origin: SimTime, period: SimDuration, tag: u64) {
    let period = period.as_micros().max(1);
    let elapsed = ctx.now().since(origin).as_micros();
    let next = (elapsed / period + 1) * period;
    ctx.set_timer(SimDuration::from_micros(next - elapsed), tag);
}

impl std::fmt::Debug for PdsNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PdsNode")
            .field("started", &self.engine.is_some())
            .field("pending_sends", &self.pending.len())
            .field("decode_errors", &self.decode_errors)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // End-to-end tests that drive PdsNode through a simulator World live in
    // tests/node_world.rs: pds-sim is only a dev-dependency (the layering
    // contract, DESIGN.md §13), and unit tests inside the lib would compile
    // a second copy of this crate whose traits the World cannot see.

    #[test]
    fn a_memo_another_application_filled_is_decoded_afresh() {
        use crate::message::{ResponseKind, ResponseMessage};
        use crate::{MessageMemo, NodeId, ResponseId, SimRng};
        let mut rng = SimRng::new(1);
        let mut ctx = Context::new(SimTime::ZERO, NodeId(1), 0, 0, &mut rng, Vec::new(), false);
        let mut node = PdsNode::new(PdsConfig::default(), 1);
        node.on_start(&mut ctx);
        let memo = MessageMemo::default();
        assert_eq!(memo.get_or_init(|| 7u32), Some(&7));
        let response = PdsMessage::Response(ResponseMessage {
            id: ResponseId(1),
            sender: NodeId(2),
            kind: ResponseKind::Metadata {
                entries: vec![DataDescriptor::builder().attr("type", "no2").build()],
            },
        });
        let meta = MessageMeta {
            from: NodeId(2),
            intended: [NodeId(1)].into(),
            overheard: false,
            wire_bytes: 0,
            memo,
        };
        node.on_message(&mut ctx, meta, response.encode());
        assert_eq!(node.decode_errors(), 0);
        let engine = node.engine().expect("started");
        assert_eq!(
            engine.store().metadata_len(),
            1,
            "the entry was decoded and cached"
        );
    }

    #[test]
    fn pds_node_is_send() {
        // Worlds full of PdsNodes move onto sweep worker threads in
        // pds-bench; this fails to compile if the protocol state ever grows
        // a non-Send field (Rc, RefCell, raw pointers, ...).
        fn assert_send<T: Send>() {}
        assert_send::<PdsNode>();
    }
}
