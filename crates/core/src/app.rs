//! Node identity and the sans-io application seam.
//!
//! Protocols (PDS itself, the MDR baseline, test fixtures) implement
//! [`Application`]; a backend kernel — `pds_sim::World` today, a real-socket
//! reactor tomorrow — invokes its callbacks and collects the [`Command`]s
//! the application issues through [`Context`]. The seam is deliberately
//! sans-io: nothing here touches sockets, files, threads, or the host
//! clock, so the same engine code can be driven by virtual time in the
//! simulator or wall-clock time over real transports (ROADMAP item 4).

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use pds_obs::{Phase, TraceEvent, TraceKind};
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of a node (a device in the edge environment).
///
/// Ids are assigned by the backend (`pds_sim::World::add_node` in the
/// simulator) in ascending order and are never reused within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identity of an armed timer. Timers are fire-only: once armed, a timer
/// fires (or is dropped with its node), and a moot firing is the
/// protocol's to ignore.
///
/// The raw value is public so kernel backends can mint ids; protocol
/// code never sees one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(#[doc(hidden)] pub u64);

/// Handle of an outgoing message, echoed back by
/// [`Application::on_send_result`].
///
/// The raw value is public so kernel backends can mint handles; protocol
/// code should treat it as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageHandle(#[doc(hidden)] pub u64);

/// Metadata accompanying a delivered message.
#[derive(Debug, Clone)]
pub struct MessageMeta {
    /// The one-hop neighbor that transmitted the message.
    pub from: NodeId,
    /// The intended next-hop receivers; empty means "all neighbors". One
    /// list per message, shared by every receiver.
    pub intended: Arc<[NodeId]>,
    /// `true` if this node was *not* in the intended list — the message was
    /// overheard thanks to the broadcast medium and may be cached but should
    /// not be forwarded (§III of the paper).
    pub overheard: bool,
    /// Total on-air bytes of the message (all fragments, headers included),
    /// for overhead accounting.
    pub wire_bytes: usize,
    /// The message's decode memo, shared by every receiver of the message.
    pub memo: MessageMemo,
}

/// A value computed from a message's payload once and shared by every
/// node that receives the message.
///
/// The backend creates one memo per sent message, next to its payload, and
/// hands a clone to every receiver in [`MessageMeta::memo`]. The first
/// receiver that needs the message decoded stores the result here; every
/// later receiver of the same message reads it instead of decoding again.
/// The value must be a pure function of the payload bytes, so which
/// receiver fills the memo changes nothing any receiver sees.
#[derive(Clone, Default)]
pub struct MessageMemo(Arc<OnceLock<Box<dyn Any + Send + Sync>>>);

impl MessageMemo {
    /// The memo's value, computed by `init` if the memo is still empty.
    /// `None` if the memo already holds a value of another type (another
    /// kind of application filled it); `init` is then not called, and the
    /// caller computes its own value.
    pub fn get_or_init<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> Option<&T> {
        let value: &(dyn Any + Send + Sync) = &**self.0.get_or_init(|| Box::new(init()));
        value.downcast_ref()
    }
}

impl fmt::Debug for MessageMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessageMemo")
            .field("filled", &self.0.get().is_some())
            .finish()
    }
}

/// A protocol or workload running on a node.
///
/// Callbacks are invoked by the backend kernel; all interaction with the
/// outside world goes through the provided [`Context`]. Implementations must
/// be `'static` so results can be extracted by downcasting after a run (see
/// `pds_sim::World::app`), and `Send` so a whole world can be moved onto a
/// sweep worker thread (worlds are never shared between threads, only
/// moved).
pub trait Application: Any + Send {
    /// Invoked once when the node joins the world.
    fn on_start(&mut self, ctx: &mut Context);

    /// Invoked when a complete message is received — whether this node was
    /// an intended receiver or merely overheard it (see
    /// [`MessageMeta::overheard`]).
    fn on_message(&mut self, ctx: &mut Context, meta: MessageMeta, payload: Bytes);

    /// Invoked when a timer set via [`Context::set_timer`] fires. The `tag`
    /// is the application-chosen value passed at arm time.
    fn on_timer(&mut self, ctx: &mut Context, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Invoked when a reliable message (non-empty intended receiver list,
    /// acks enabled) is fully acknowledged (`delivered = true`) or abandoned
    /// after `MaxRetrTime` retransmissions (`delivered = false`).
    fn on_send_result(&mut self, ctx: &mut Context, message: MessageHandle, delivered: bool) {
        let _ = (ctx, message, delivered);
    }
}

/// A side effect requested by an application callback, applied by the kernel
/// after the callback returns.
#[derive(Debug)]
pub enum Command {
    /// Broadcast a message to all neighbors, naming intended receivers.
    Broadcast {
        /// Application payload.
        payload: Bytes,
        /// Intended next-hop receivers (empty = all neighbors, unreliable).
        intended: Vec<NodeId>,
        /// Handle pre-assigned by the context.
        handle: MessageHandle,
        /// Traffic class of the message's frames (see [`pds_obs::class`]),
        /// used to split the radio byte counters by protocol phase.
        class: u8,
    },
    /// Arm a fire-only timer.
    SetTimer {
        /// Pre-assigned timer id.
        id: TimerId,
        /// Fire time.
        at: SimTime,
        /// Application tag echoed to [`Application::on_timer`].
        tag: u64,
    },
    /// Forward a trace event to the world's sink. Only ever issued while a
    /// sink is installed (see `Context::trace`).
    Trace(TraceEvent),
}

/// The application's window into the kernel during a callback.
///
/// Commands issued here are buffered and applied when the callback returns,
/// in issue order.
pub struct Context<'a> {
    now: SimTime,
    node: NodeId,
    next_timer: u64,
    next_msg: u64,
    rng: &'a mut SimRng,
    commands: Vec<Command>,
    trace_enabled: bool,
}

impl<'a> Context<'a> {
    /// Builds a callback context. Backend-kernel API: applications only ever
    /// receive a `&mut Context`, they never construct one.
    #[doc(hidden)]
    pub fn new(
        now: SimTime,
        node: NodeId,
        next_timer: u64,
        next_msg: u64,
        rng: &'a mut SimRng,
        commands: Vec<Command>,
        trace_enabled: bool,
    ) -> Self {
        Self {
            now,
            node,
            next_timer,
            next_msg,
            rng,
            commands,
            trace_enabled,
        }
    }

    /// Tears the context down, returning the buffered commands and the next
    /// timer/message sequence numbers. Backend-kernel API.
    #[doc(hidden)]
    #[must_use]
    pub fn finish(self) -> (Vec<Command>, u64, u64) {
        (self.commands, self.next_timer, self.next_msg)
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node this callback runs on.
    #[must_use]
    pub(crate) fn node_id(&self) -> NodeId {
        self.node
    }

    /// Deterministic per-node randomness (jitter, probabilistic choices).
    pub(crate) fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Broadcasts `payload` to all one-hop neighbors.
    ///
    /// `intended` names the receivers that should act on (relay) the
    /// message; when acks are enabled and `intended` is non-empty the
    /// transport retransmits until all intended receivers acknowledge or
    /// `MaxRetrTime` is exhausted, then reports via
    /// [`Application::on_send_result`]. An empty list means "all neighbors"
    /// and is sent unreliably (PDS floods fresh queries this way).
    pub fn broadcast(&mut self, payload: Bytes, intended: &[NodeId]) -> MessageHandle {
        self.broadcast_class(payload, intended, pds_obs::class::OTHER)
    }

    /// Like [`Context::broadcast`], additionally tagging the message's
    /// frames with a traffic class (see [`pds_obs::class`]) so the radio
    /// layer can attribute on-air bytes to a protocol phase.
    pub(crate) fn broadcast_class(
        &mut self,
        payload: Bytes,
        intended: &[NodeId],
        class: u8,
    ) -> MessageHandle {
        let handle = MessageHandle(self.next_msg);
        self.next_msg += 1;
        self.commands.push(Command::Broadcast {
            payload,
            intended: intended.to_vec(),
            handle,
            class,
        });
        handle
    }

    /// Whether a trace sink is installed. Applications may use this to skip
    /// building expensive trace payloads.
    #[must_use]
    pub(crate) fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// Emits a structured trace event attributed to this node at the
    /// current virtual time. No-op (a single branch) when no sink is
    /// installed; tracing never alters simulation behavior.
    pub(crate) fn trace(&mut self, phase: Phase, kind: TraceKind) {
        if self.trace_enabled {
            self.commands.push(Command::Trace(TraceEvent {
                at_us: self.now.as_micros(),
                node: self.node.0,
                phase,
                kind,
            }));
        }
    }

    /// Arms a timer that fires `delay` from now, delivering `tag` to
    /// [`Application::on_timer`]. Timers cannot be cancelled: one that
    /// turns out moot still fires, and `on_timer` ignores it.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.commands.push(Command::SetTimer {
            id,
            at: self.now + delay,
            tag,
        });
    }
}

impl fmt::Debug for Context<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("node", &self.node)
            .field("pending_commands", &self.commands.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_allocates_monotonic_handles() {
        let mut rng = SimRng::new(1);
        let mut ctx = Context::new(SimTime::ZERO, NodeId(0), 5, 9, &mut rng, Vec::new(), false);
        let m1 = ctx.broadcast(Bytes::from_static(b"a"), &[]);
        let m2 = ctx.broadcast(Bytes::from_static(b"b"), &[NodeId(1)]);
        assert_ne!(m1, m2);
        ctx.set_timer(SimDuration::from_millis(1), 7);
        ctx.set_timer(SimDuration::from_millis(2), 8);
        let (commands, next_timer, next_msg) = ctx.finish();
        assert_eq!(commands.len(), 4);
        let timer_ids: Vec<TimerId> = commands
            .iter()
            .filter_map(|c| match c {
                Command::SetTimer { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(timer_ids, vec![TimerId(5), TimerId(6)]);
        assert_eq!(next_timer, 7);
        assert_eq!(next_msg, 11);
    }

    #[test]
    fn set_timer_schedules_at_now_plus_delay() {
        let mut rng = SimRng::new(1);
        let now = SimTime::from_secs_f64(2.0);
        let mut ctx = Context::new(now, NodeId(3), 0, 0, &mut rng, Vec::new(), false);
        ctx.set_timer(SimDuration::from_secs(1), 42);
        let (commands, _, _) = ctx.finish();
        match &commands[0] {
            Command::SetTimer { at, tag, .. } => {
                assert_eq!(*at, SimTime::from_secs_f64(3.0));
                assert_eq!(*tag, 42);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn a_memo_filled_by_one_type_is_computed_afresh_by_another() {
        let memo = MessageMemo::default();
        let shared = memo.clone();
        assert_eq!(memo.get_or_init(|| 7u32), Some(&7));
        assert_eq!(shared.get_or_init(|| -> u32 { panic!("filled") }), Some(&7));
        let mut called = false;
        let other = shared.get_or_init(|| {
            called = true;
            "another type"
        });
        assert_eq!(other, None, "a value of another type is not handed out");
        assert!(!called, "nor is it computed into the filled memo");
    }

    #[test]
    fn node_id_displays_compactly() {
        assert_eq!(NodeId(17).to_string(), "n17");
    }

    #[test]
    fn trace_is_a_noop_without_a_sink() {
        let mut rng = SimRng::new(1);
        let mut ctx = Context::new(SimTime::ZERO, NodeId(0), 0, 0, &mut rng, Vec::new(), false);
        assert!(!ctx.trace_enabled());
        ctx.trace(Phase::Pdd, TraceKind::SessionStarted { session: 1 });
        let (commands, _, _) = ctx.finish();
        assert!(commands.is_empty());
    }

    #[test]
    fn trace_stamps_time_and_node_when_enabled() {
        let mut rng = SimRng::new(1);
        let now = SimTime::from_secs_f64(1.5);
        let mut ctx = Context::new(now, NodeId(7), 0, 0, &mut rng, Vec::new(), true);
        assert!(ctx.trace_enabled());
        ctx.trace(
            Phase::Pdr,
            TraceKind::QuerySent {
                query: 42,
                session: 1,
                seq: 9,
            },
        );
        let (commands, _, _) = ctx.finish();
        match &commands[0] {
            Command::Trace(ev) => {
                assert_eq!(ev.at_us, 1_500_000);
                assert_eq!(ev.node, 7);
                assert_eq!(ev.phase, Phase::Pdr);
                assert_eq!(
                    ev.kind,
                    TraceKind::QuerySent {
                        query: 42,
                        session: 1,
                        seq: 9,
                    }
                );
            }
            other => panic!("unexpected command {other:?}"),
        }
    }
}
