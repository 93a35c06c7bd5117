//! [`PdsNode`]: the PDS protocol bound to the simulator's application
//! interface — timers, send jitter, codec, and the consumer-facing API the
//! evaluation harness drives through
//! [`World::with_app`](pds_sim::World::with_app).

use crate::config::PdsConfig;
use crate::descriptor::DataDescriptor;
use crate::engine::{Outgoing, PdsEngine};
use crate::ids::ChunkId;
use crate::message::{MessageHeader, PdsMessage};
use crate::predicate::QueryFilter;
use crate::sessions::{DiscoveryReport, RetrievalReport};
use crate::{Application, Context, MessageMeta, SimDuration, SimTime};
use bytes::Bytes;
use pds_obs::{Phase, TraceKind};

const TAG_POLL: u64 = 1;
const TAG_GC: u64 = 2;
const TAG_SEND: u64 = 3;

const GC_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// A PDS node: every device runs one, whether it currently acts as
/// producer, consumer, relay, or all three.
///
/// Construct with locally produced data via [`PdsNode::with_metadata`] /
/// [`PdsNode::with_chunk`]; start consumer operations from scenario code
/// through [`pds_sim::World::with_app`]:
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
    // Tracing only: whether a SessionFinished event has already been
    // emitted for the current discovery / retrieval session.
    discovery_finished: bool,
    retrieval_finished: bool,
    // Session correlation ids for causal tracing: a per-node counter
    // (`(node, session)` is globally unique, 0 = none) plus the ids of the
    // currently running discovery and retrieval sessions. Maintained
    // unconditionally — they are plain node-local counters, so they cannot
    // perturb replay digests — but only ever read at trace emission sites.
    next_session: u64,
    discovery_session: u64,
    retrieval_session: u64,
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
            discovery_finished: false,
            retrieval_finished: false,
            next_session: 0,
            discovery_session: 0,
            retrieval_session: 0,
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

    /// Mutable engine access (e.g. to add data after start).
    pub fn engine_mut(&mut self) -> Option<&mut PdsEngine> {
        self.engine.as_mut()
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
    /// or an external `with_app` call), applying the initial data.
    fn ensure_engine(&mut self, ctx: &Context) -> &mut PdsEngine {
        if self.engine.is_none() {
            let mut engine = PdsEngine::new(ctx.node_id(), self.config.clone(), self.seed);
            for (d, payload) in self.initial_metadata.drain(..) {
                engine.store_mut().insert_own(d, payload);
            }
            for (d, chunk, data) in self.initial_chunks.drain(..) {
                engine.store_mut().insert_chunk(&d, chunk, data);
            }
            self.engine = Some(engine);
        }
        self.engine.as_mut().expect("just created")
    }

    /// Starts a PDD metadata discovery (consumer role).
    pub fn start_discovery(&mut self, ctx: &mut Context, filter: QueryFilter) {
        let now = ctx.now();
        let out = self.ensure_engine(ctx).start_discovery(now, filter);
        self.discovery_finished = false;
        self.next_session += 1;
        self.discovery_session = self.next_session;
        ctx.trace(
            Phase::Pdd,
            TraceKind::SessionStarted {
                session: self.discovery_session,
            },
        );
        self.dispatch(ctx, out);
    }

    /// Starts a small-data retrieval (consumer role).
    pub fn start_small_data_retrieval(&mut self, ctx: &mut Context, filter: QueryFilter) {
        let now = ctx.now();
        let out = self
            .ensure_engine(ctx)
            .start_small_data_retrieval(now, filter);
        self.discovery_finished = false;
        self.next_session += 1;
        self.discovery_session = self.next_session;
        ctx.trace(
            Phase::Pdd,
            TraceKind::SessionStarted {
                session: self.discovery_session,
            },
        );
        self.dispatch(ctx, out);
    }

    /// Starts a two-phase PDR retrieval of a large item (consumer role).
    ///
    /// # Panics
    ///
    /// Panics if `descriptor` lacks `name` or `total_chunks`.
    pub fn start_retrieval(&mut self, ctx: &mut Context, descriptor: DataDescriptor) {
        let now = ctx.now();
        let out = self.ensure_engine(ctx).start_retrieval(now, descriptor);
        self.retrieval_finished = false;
        self.next_session += 1;
        self.retrieval_session = self.next_session;
        ctx.trace(
            Phase::Pdr,
            TraceKind::SessionStarted {
                session: self.retrieval_session,
            },
        );
        self.dispatch(ctx, out);
    }

    /// Starts an MDR baseline retrieval of a large item (consumer role).
    ///
    /// # Panics
    ///
    /// Panics if `descriptor` lacks `name` or `total_chunks`.
    pub fn start_mdr_retrieval(&mut self, ctx: &mut Context, descriptor: DataDescriptor) {
        let now = ctx.now();
        let out = self.ensure_engine(ctx).start_mdr_retrieval(now, descriptor);
        self.retrieval_finished = false;
        self.next_session += 1;
        self.retrieval_session = self.next_session;
        ctx.trace(
            Phase::Mdr,
            TraceKind::SessionStarted {
                session: self.retrieval_session,
            },
        );
        self.dispatch(ctx, out);
    }

    /// Sends (or schedules, for jittered responses) the engine's outgoing
    /// messages.
    fn dispatch(&mut self, ctx: &mut Context, outs: Vec<Outgoing>) {
        let jitter_max = self.config.response_jitter.as_micros();
        for out in outs {
            let max = match out.jitter {
                crate::engine::Jitter::None => 0,
                crate::engine::Jitter::Fast => jitter_max,
                crate::engine::Jitter::Slow => jitter_max * 100,
            };
            if max > 0 {
                let delay = SimDuration::from_micros(ctx.rng().range_u64(0, max.max(1)));
                let due = ctx.now() + delay;
                self.pending.push((due, out));
                ctx.set_timer(delay, TAG_SEND);
            } else {
                self.transmit(ctx, out);
            }
        }
    }

    fn transmit(&mut self, ctx: &mut Context, out: Outgoing) {
        let handle = ctx.broadcast_class(out.message.encode(), &out.intended, out.phase.class());
        if ctx.trace_enabled() {
            // The transport handle doubles as the message's per-origin
            // sequence number, linking this protocol event to every
            // transport/radio event of the carrying message.
            let session = if out.own_session {
                match out.phase {
                    Phase::Pdd => self.discovery_session,
                    Phase::Pdr | Phase::Mdr => self.retrieval_session,
                    _ => 0,
                }
            } else {
                0
            };
            let kind = match &out.message {
                PdsMessage::Query(q) => TraceKind::QuerySent {
                    query: q.id.0,
                    session,
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

    /// Emits `SessionFinished` trace events the first time a consumer
    /// session's controller reports termination. Tracing-only: a no-op
    /// (beyond one branch) when no sink is installed.
    fn note_finishes(&mut self, ctx: &mut Context) {
        if !ctx.trace_enabled() {
            return;
        }
        let Some(engine) = self.engine.as_ref() else {
            return;
        };
        if !self.discovery_finished {
            if let Some(report) = engine.discovery().map(|d| d.report()) {
                if report.finished_at.is_some() {
                    self.discovery_finished = true;
                    ctx.trace(
                        Phase::Pdd,
                        TraceKind::SessionFinished {
                            session: self.discovery_session,
                            delay_us: report.latency.as_micros(),
                            rounds: u64::from(report.rounds),
                            items: report.entries as u64,
                        },
                    );
                }
            }
        }
        if !self.retrieval_finished {
            if let Some(session) = engine.retrieval() {
                let report = session.report();
                if report.finished_at.is_some() {
                    let phase = if session.mdr { Phase::Mdr } else { Phase::Pdr };
                    self.retrieval_finished = true;
                    ctx.trace(
                        phase,
                        TraceKind::SessionFinished {
                            session: self.retrieval_session,
                            delay_us: report.latency.as_micros(),
                            rounds: u64::from(report.rounds),
                            items: u64::from(report.received_chunks),
                        },
                    );
                }
            }
        }
    }
}

impl Application for PdsNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ensure_engine(ctx);
        ctx.set_timer(self.config.rounds.poll, TAG_POLL);
        ctx.set_timer(GC_INTERVAL, TAG_GC);
    }

    fn on_message(&mut self, ctx: &mut Context, meta: MessageMeta, payload: Bytes) {
        let now = ctx.now();
        // Most copies a node hears are redundant (every neighbor relays a
        // flood, every overhearer sees a relay): the fixed header says so,
        // and such a copy is dropped without decoding its body.
        let Some(header) = MessageHeader::peek(&payload) else {
            self.decode_errors += 1;
            return;
        };
        let message = if self.ensure_engine(ctx).is_redundant(now, &header) {
            None
        } else {
            match PdsMessage::decode(&payload) {
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
        if let Some(message) = message {
            let me = ctx.node_id();
            let me_intended = meta.intended.is_empty() || meta.intended.contains(&me);
            let out = self
                .ensure_engine(ctx)
                .handle_message(now, meta.from, me_intended, message);
            self.dispatch(ctx, out);
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
            return;
        }
        // Final failure of a chunk sub-query: nothing is in flight for its
        // chunks any more, so stop suppressing re-division.
        if let PdsMessage::Query(q) = &out.message {
            if let crate::message::QueryKind::Chunks { item, chunks } = &q.kind {
                if let Some(e) = self.engine.as_mut() {
                    e.clear_pending_chunks(item, chunks);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, tag: u64) {
        match tag {
            TAG_POLL => {
                if let Some(engine) = self.engine.as_mut() {
                    let out = engine.poll(ctx.now());
                    self.dispatch(ctx, out);
                    self.note_finishes(ctx);
                }
                ctx.set_timer(self.config.rounds.poll, TAG_POLL);
            }
            TAG_GC => {
                if let Some(engine) = self.engine.as_mut() {
                    engine.gc(ctx.now());
                }
                // Drop in-flight records that never got a verdict (e.g.
                // unreliable config): bounded memory.
                let now = ctx.now();
                self.in_flight
                    .retain(|(_, at, _)| now.since(*at) < SimDuration::from_secs(120));
                ctx.set_timer(GC_INTERVAL, TAG_GC);
            }
            TAG_SEND => self.flush_due(ctx),
            _ => {}
        }
    }
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
    fn pds_node_is_send() {
        // Worlds full of PdsNodes move onto sweep worker threads in
        // pds-bench; this fails to compile if the protocol state ever grows
        // a non-Send field (Rc, RefCell, raw pointers, ...).
        fn assert_send<T: Send>() {}
        assert_send::<PdsNode>();
    }
}
