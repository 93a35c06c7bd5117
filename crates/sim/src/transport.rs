//! Application-level reliable transport: fragmentation, reassembly,
//! selective acknowledgements and retransmission (§V-1 of the paper),
//! and the wire format that carries them: [`Frame`] and [`FrameKind`]. One
//! [`BitSet`] per message, sized to its fragment count when the first
//! fragment arrives, serves both reassembly and the selective-ack bitmap;
//! a fragment index past that count is never set.
//!
//! Messages whose intended-receiver list is non-empty are tracked: every
//! intended receiver acknowledges with a fragment bitmap, and the sender
//! retransmits missing fragments up to `MaxRetrTime` times, waiting
//! `RetrTimeout` after the last fragment of each attempt leaves the radio.
//! Messages with an empty intended list ("all neighbors") are fire-and-forget,
//! exactly like PDS's flooded queries.
//!
//! The kernel hands every received frame to [`Transport::receive`] whole
//! and acts on the returned [`Received`]; it never looks inside a frame
//! beyond [`Frame::msg`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::config::{AckConfig, SimConfig, ACK_DELAY, MAX_FRAME_BYTES, MAX_MESSAGE_FRAGMENTS};
use bytes::Bytes;
use pds_core::NodeId;
use pds_core::{MessageHandle, MessageMemo};
use pds_core::{SimDuration, SimTime};
use pds_det::{BitSet, DetMap};
use std::fmt;
use std::sync::Arc;

/// Fixed wire overhead of a data frame before the per-receiver id list.
pub(crate) const DATA_HEADER_BASE: usize = 40;
/// Wire bytes per intended-receiver id in a data frame header.
pub(crate) const PER_RECEIVER_BYTES: usize = 4;
/// Fixed wire overhead of an ack frame before the fragment bitmap.
pub(crate) const ACK_HEADER_BASE: usize = 32;
/// Interval between [`Transport::sweep`] garbage-collection passes.
pub(crate) const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// How long delivered-message dedup state is retained.
const DELIVERED_HORIZON: SimDuration = SimDuration::from_secs(60);
/// How long incomplete reassembly state is retained after the last fragment.
const STALE_HORIZON: SimDuration = SimDuration::from_secs(30);

/// Globally unique message identity: (origin node, per-origin sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct MessageId {
    pub origin: NodeId,
    pub seq: u64,
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

// ---- wire format ----------------------------------------------------------

/// A frame on the air: the unit of transmission, ≤ `MAX_FRAME_BYTES`.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub sender: NodeId,
    pub wire_bytes: usize,
    /// Traffic class of the carried message (see [`pds_obs::class`]);
    /// always `OTHER` for acks.
    pub class: u8,
    pub kind: FrameKind,
}

impl Frame {
    /// The message this frame carries a fragment of, or acknowledges:
    /// `origin#seq` ties the frame to its transport message and, through
    /// the protocol layer's trace events, to the session it serves.
    pub(crate) fn msg(&self) -> MessageId {
        match self.kind {
            FrameKind::Data { msg, .. } | FrameKind::Ack { msg, .. } => msg,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum FrameKind {
    /// One fragment of an application message.
    Data {
        msg: MessageId,
        frag: u32,
        frag_count: u32,
        /// Shared across all fragments of a message (and with the sender's
        /// tracking state): cloning a frame is a refcount bump, not a list
        /// copy.
        intended: Arc<[NodeId]>,
        /// The *whole* message, shared by every fragment (and the sender's
        /// tracking state) — an ns-3-style shared packet buffer. The
        /// fragment's own bytes are the `frag`-th `frag_payload`-sized
        /// window of its payload; per-fragment wire length is computed
        /// arithmetically, so fragment slices never materialize and
        /// reassembly is a refcount bump instead of a memcpy.
        body: Arc<Body>,
        /// Total wire bytes of the whole message (for overhead metadata).
        msg_wire_bytes: u32,
    },
    /// Selective acknowledgement of the fragments of `msg` received so far.
    Ack { msg: MessageId, received: BitSet },
}

/// What one message's frames, its sender's tracking state and its
/// receivers' reassembly all share: the payload, and the memo in which the
/// first receiver to decode the message leaves the result for the others
/// (DESIGN.md §11).
#[derive(Debug)]
pub(crate) struct Body {
    pub payload: Bytes,
    pub memo: MessageMemo,
}

// ---- per-node state -------------------------------------------------------

#[derive(Debug)]
struct Outgoing {
    handle: MessageHandle,
    body: Arc<Body>,
    intended: Arc<[NodeId]>,
    frag_count: u32,
    frag_payload: usize,
    msg_wire_bytes: u32,
    /// Traffic class carried by every frame of this message, including
    /// retransmissions (see [`pds_obs::class`]).
    class: u8,
    acked: DetMap<NodeId, BitSet>,
    /// 0 = initial transmission, 1..=max_retr are retransmissions.
    attempt: u32,
    /// Frames of the current attempt not yet off the radio (or dropped).
    in_flight: u32,
    /// Whether the kernel holds a retransmission timer for this message:
    /// set when [`Transport::on_frame_done`] asks for one, cleared when it
    /// fires. A message acked in full is dropped with its flag; the timer
    /// still fires and finds nothing to do.
    retr_armed: bool,
}

impl Outgoing {
    fn fully_acked(&self) -> bool {
        self.intended
            .iter()
            .all(|r| self.acked.get(r).is_some_and(BitSet::is_full))
    }

    /// Fragments still missing at any intended receiver, each with the
    /// receivers that miss it. A fragment every receiver misses — any
    /// missing fragment of a single-receiver message — shares the
    /// message's own receiver list instead of allocating an equal one.
    fn missing(&self) -> Vec<(u32, Arc<[NodeId]>)> {
        let mut out = Vec::new();
        for frag in 0..self.frag_count {
            let misses = |r: &&NodeId| !self.acked.get(*r).is_some_and(|s| s.contains(frag));
            let missing_at = match self.intended.iter().filter(misses).count() {
                0 => continue,
                n if n == self.intended.len() => Arc::clone(&self.intended),
                _ => self.intended.iter().filter(misses).copied().collect(),
            };
            out.push((frag, missing_at));
        }
        out
    }
}

/// Receive-side reassembly state for one message.
///
/// Two-phase by design (the kernel memory diet): while fragments are
/// still arriving the entry holds the assembly state — fragment bitmap,
/// receiver list. The moment the message is delivered, that collapses
/// into the small [`Incoming::Done`] tombstone. This is what bounds
/// receive-side memory at city scale: delivered messages linger for
/// `DELIVERED_HORIZON` (a minute) purely for duplicate suppression and
/// re-acking, and without the collapse every one of them would pin a map
/// entry of ~10 words. Neither phase holds the message itself: every
/// frame carries the whole [`Body`], so the frame that completes the
/// message hands it over, and an assembly that never completes (an
/// overhearer that missed a fragment) pins neither the sender's buffer
/// nor the decoded message in its memo.
#[derive(Debug)]
enum Incoming {
    /// Fragments still arriving. Boxed: the common steady-state entry is
    /// a delivered tombstone, so the enum is sized for `Done` and the
    /// assembling state pays one extra indirection instead.
    Assembling(Box<Assembling>),
    /// Delivered. Everything duplicate suppression and re-acking need —
    /// and nothing else. The complete ack bitmap is rebuilt on demand
    /// from `frag_count` ([`BitSet::full`]), byte-identical on the wire.
    Done {
        frag_count: u32,
        intended_me: bool,
        ack_timer_pending: bool,
        last_activity: SimTime,
    },
}

#[derive(Debug)]
struct Assembling {
    /// Which fragments arrived. Only *which*: every data frame carries the
    /// whole message (DESIGN.md §11), so delivery is a refcount bump on
    /// the completing frame's [`Body`], never a copy.
    received: BitSet,
    frag_count: u32,
    from: NodeId,
    intended: Arc<[NodeId]>,
    intended_me: bool,
    msg_wire_bytes: u32,
    ack_timer_pending: bool,
    last_activity: SimTime,
}

/// Per-node transport state.
#[derive(Debug, Default)]
pub(crate) struct Transport {
    outgoing: DetMap<MessageId, Outgoing>,
    incoming: DetMap<MessageId, Incoming>,
    /// High-water mark of `Outgoing::attempt` across every message this
    /// node ever tracked — surfaced through `World::max_retr_attempt` as
    /// the DST bounded-retry witness.
    max_attempt: u32,
}

/// What the kernel must do after a frame reaches a node.
#[derive(Debug)]
pub(crate) enum Received {
    /// A fragment of `msg` arrived.
    Data {
        msg: MessageId,
        /// Arm the ack timer for `msg` after this delay (set only when
        /// none is already pending for it).
        ack_after: Option<SimDuration>,
        /// The fragment completed the message: deliver it.
        deliver: Option<DeliverPlan>,
    },
    /// Every intended receiver has now acknowledged every fragment of
    /// this node's message.
    Acked(MessageHandle),
    /// Nothing: an ack for another node's message, for a message no
    /// longer tracked, or one that leaves fragments unacknowledged; or a
    /// data frame claiming more than `MAX_MESSAGE_FRAGMENTS` fragments.
    Nothing,
}

#[derive(Debug)]
pub(crate) struct DeliverPlan {
    pub from: NodeId,
    pub intended: Arc<[NodeId]>,
    pub overheard: bool,
    pub wire_bytes: usize,
    pub body: Arc<Body>,
}

/// What the kernel must do after a retransmission timer fires.
#[derive(Debug)]
pub(crate) enum RetrPlan {
    /// Message already completed or unknown; nothing to do.
    Nothing,
    /// Retransmit these frames (missing fragments only).
    Retransmit(Vec<Frame>),
    /// Retry budget exhausted; report failure to the application.
    GiveUp(MessageHandle),
}

impl Transport {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Usable payload bytes per fragment given the intended-receiver count.
    ///
    /// # Panics
    ///
    /// Panics if the header alone would exceed the frame size (receiver list
    /// too long for the MTU).
    pub(crate) fn frag_payload_size(receivers: usize) -> usize {
        let header = DATA_HEADER_BASE + PER_RECEIVER_BYTES * receivers;
        assert!(
            header < MAX_FRAME_BYTES,
            "intended receiver list ({receivers} entries) does not fit a {MAX_FRAME_BYTES}-byte frame"
        );
        MAX_FRAME_BYTES - header
    }

    /// Fragments `payload` into data frames of message `origin#handle`
    /// and registers tracking state when reliable. The message's decode
    /// memo is created here, and every frame of it carries the memo.
    ///
    /// `frames` is a recycled buffer (cleared here) that the built frames
    /// are pushed into; it is handed back so the caller can drain and
    /// reuse it.
    #[allow(clippy::too_many_arguments)] // mirrors the frame-header fields
    pub(crate) fn send_message(
        &mut self,
        origin: NodeId,
        handle: MessageHandle,
        payload: Bytes,
        intended: Vec<NodeId>,
        class: u8,
        cfg: &SimConfig,
        mut frames: Vec<Frame>,
    ) -> Vec<Frame> {
        let msg = MessageId {
            origin,
            seq: handle.0,
        };
        // One shared receiver list for every fragment (and the tracking
        // state): a 256 KB message fans out into ~170 frames without ~170
        // copies of the list.
        let intended: Arc<[NodeId]> = intended.into();
        let frag_payload = Self::frag_payload_size(intended.len());
        let frag_count = (payload.len().max(1)).div_ceil(frag_payload) as u32;
        debug_assert!(
            frag_count <= MAX_MESSAGE_FRAGMENTS,
            "a {}-byte message needs {frag_count} fragments",
            payload.len()
        );
        let header = DATA_HEADER_BASE + PER_RECEIVER_BYTES * intended.len();
        let msg_wire_bytes = (payload.len() + frag_count as usize * header) as u32;
        let body = Arc::new(Body {
            payload,
            memo: MessageMemo::default(),
        });
        frames.clear();
        build_frames_into(
            &mut frames,
            msg,
            origin,
            &body,
            frag_payload,
            frag_count,
            msg_wire_bytes,
            class,
            (0..frag_count).map(|f| (f, Arc::clone(&intended))),
        );
        if cfg.ack.enabled && !intended.is_empty() {
            let acked = intended
                .iter()
                .map(|&r| (r, BitSet::new(frag_count)))
                .collect();
            self.outgoing.insert(
                msg,
                Outgoing {
                    handle,
                    body,
                    intended,
                    frag_count,
                    frag_payload,
                    msg_wire_bytes,
                    class,
                    acked,
                    attempt: 0,
                    in_flight: frag_count,
                    retr_armed: false,
                },
            );
        }
        frames
    }

    /// Handles `frame` reaching node `me`: reassembles data fragments
    /// (delivering completed messages, requesting acks from intended
    /// receivers) and merges acks addressed to this node's own messages.
    pub(crate) fn receive(
        &mut self,
        me: NodeId,
        frame: &Frame,
        ack: &AckConfig,
        now: SimTime,
    ) -> Received {
        let (msg, frag, frag_count, intended, body, msg_wire_bytes) = match &frame.kind {
            FrameKind::Data {
                msg,
                frag,
                frag_count,
                intended,
                body,
                msg_wire_bytes,
            } => (*msg, *frag, *frag_count, intended, body, *msg_wire_bytes),
            FrameKind::Ack { msg, received } => {
                return self.on_ack(me, *msg, frame.sender, received)
            }
        };
        if frag_count > MAX_MESSAGE_FRAGMENTS {
            return Received::Nothing;
        }
        let from = frame.sender;
        let entry = self.incoming.entry(msg).or_insert_with(|| {
            Incoming::Assembling(Box::new(Assembling {
                received: BitSet::new(frag_count),
                frag_count,
                from,
                intended: Arc::clone(intended),
                intended_me: intended.contains(&me),
                msg_wire_bytes,
                ack_timer_pending: false,
                last_activity: now,
            }))
        });

        let mut deliver = None;
        let ack_after;
        // (frag_count, intended_me, ack_timer_pending) of a newly
        // completed assembly, to collapse into a tombstone below.
        let mut done: Option<(u32, bool, bool)> = None;
        match entry {
            Incoming::Assembling(asm) => {
                asm.last_activity = now;
                asm.from = from;
                // Retransmissions may narrow the intended list to lagging
                // receivers; remember whether we were *ever* intended so
                // re-acks keep flowing.
                if intended.contains(&me) {
                    asm.intended_me = true;
                }
                if asm.received.insert(frag) && asm.received.is_full() {
                    deliver = Some(DeliverPlan {
                        from,
                        intended: Arc::clone(&asm.intended),
                        overheard: !asm.intended_me,
                        wire_bytes: asm.msg_wire_bytes as usize,
                        // Zero-copy: every fragment carries the same
                        // shared message; delivery hands it over.
                        body: Arc::clone(body),
                    });
                }
                let complete = asm.received.is_full();
                ack_after = if ack.enabled && asm.intended_me && !asm.ack_timer_pending {
                    asm.ack_timer_pending = true;
                    // Complete messages ack promptly (short jitter applied
                    // by the kernel); incomplete ones wait for stragglers.
                    Some(if complete {
                        SimDuration::ZERO
                    } else {
                        ACK_DELAY
                    })
                } else {
                    None
                };
                if complete {
                    done = Some((asm.frag_count, asm.intended_me, asm.ack_timer_pending));
                }
            }
            Incoming::Done {
                intended_me,
                ack_timer_pending,
                last_activity,
                ..
            } => {
                *last_activity = now;
                if intended.contains(&me) {
                    *intended_me = true;
                }
                // Already delivered and reassembled: duplicates never
                // redeliver, and a complete entry always acks promptly.
                ack_after = if ack.enabled && *intended_me && !*ack_timer_pending {
                    *ack_timer_pending = true;
                    Some(SimDuration::ZERO)
                } else {
                    None
                };
            }
        }
        if let Some((frag_count, intended_me, ack_timer_pending)) = done {
            // Delivered: collapse the assembly state (bitmap, receiver
            // list) into the tombstone.
            *entry = Incoming::Done {
                frag_count,
                intended_me,
                ack_timer_pending,
                last_activity: now,
            };
        }
        Received::Data {
            msg,
            ack_after,
            deliver,
        }
    }

    /// Merges `receiver`'s ack bitmap for `msg` when `msg` is one of this
    /// node's (`me`'s) tracked messages; a message acked in full stops
    /// being tracked.
    fn on_ack(
        &mut self,
        me: NodeId,
        msg: MessageId,
        receiver: NodeId,
        bitmap: &BitSet,
    ) -> Received {
        if msg.origin != me {
            return Received::Nothing;
        }
        let Some(out) = self.outgoing.get_mut(&msg) else {
            return Received::Nothing;
        };
        if let Some(set) = out.acked.get_mut(&receiver) {
            set.union_with(bitmap);
        }
        if !out.fully_acked() {
            return Received::Nothing;
        }
        self.outgoing
            .remove(&msg)
            .map_or(Received::Nothing, |out| Received::Acked(out.handle))
    }

    /// Builds the ack frame for `msg` when its ack timer fires.
    pub(crate) fn make_ack(&mut self, me: NodeId, msg: MessageId) -> Option<Frame> {
        let received = match self.incoming.get_mut(&msg)? {
            Incoming::Assembling(asm) => {
                asm.ack_timer_pending = false;
                asm.received.clone()
            }
            Incoming::Done {
                frag_count,
                ack_timer_pending,
                ..
            } => {
                *ack_timer_pending = false;
                // The tombstone dropped its bitmap at delivery; a delivered
                // message's bitmap is complete by definition, and the wire
                // size depends only on the fragment count.
                BitSet::full(*frag_count)
            }
        };
        let wire = ACK_HEADER_BASE + received.byte_len();
        Some(Frame {
            sender: me,
            wire_bytes: wire,
            class: pds_obs::class::OTHER,
            kind: FrameKind::Ack { msg, received },
        })
    }

    /// Notes that `frame` left the radio (or was dropped). Returns the
    /// message whose retransmission timer the kernel must now arm: a
    /// tracked data frame's message whose current attempt has no frames
    /// left in flight and no timer armed yet.
    pub(crate) fn on_frame_done(&mut self, frame: &Frame) -> Option<MessageId> {
        let FrameKind::Data { msg, .. } = frame.kind else {
            return None;
        };
        let out = self.outgoing.get_mut(&msg)?;
        out.in_flight = out.in_flight.saturating_sub(1);
        if out.in_flight > 0 || out.retr_armed {
            return None;
        }
        out.retr_armed = true;
        Some(msg)
    }

    /// Handles a retransmission timeout.
    ///
    /// The retry budget scales with the message's fragment count: the
    /// calibrated `MaxRetrTime` (4) was measured on single-frame messages
    /// (§V-1), while a 256 KB chunk spans ~170 fragments and each attempt
    /// only repairs the missing ones — a fixed 4-attempt budget would
    /// abandon large messages that lose a handful of fragments per attempt
    /// under contention.
    pub(crate) fn on_retr_timer(&mut self, me: NodeId, msg: MessageId, max_retr: u32) -> RetrPlan {
        let Some(out) = self.outgoing.get_mut(&msg) else {
            return RetrPlan::Nothing;
        };
        out.retr_armed = false;
        if out.fully_acked() {
            let _ = self.outgoing.remove(&msg);
            return RetrPlan::Nothing;
        }
        let budget = max_retr + out.frag_count / 8;
        if out.attempt >= budget {
            return match self.outgoing.remove(&msg) {
                Some(out) => RetrPlan::GiveUp(out.handle),
                None => RetrPlan::Nothing,
            };
        }
        out.attempt += 1;
        let attempt = out.attempt;
        let missing = out.missing();
        out.in_flight = missing.len() as u32;
        let mut frames = Vec::with_capacity(missing.len());
        build_frames_into(
            &mut frames,
            msg,
            me,
            &out.body,
            out.frag_payload,
            out.frag_count,
            out.msg_wire_bytes,
            out.class,
            missing.into_iter(),
        );
        self.max_attempt = self.max_attempt.max(attempt);
        RetrPlan::Retransmit(frames)
    }

    /// Highest retransmission attempt this node ever reached.
    pub(crate) fn max_attempt(&self) -> u32 {
        self.max_attempt
    }

    /// Whether an outgoing message is still tracked (unacked).
    #[cfg(test)]
    pub(crate) fn is_tracking(&self, msg: MessageId) -> bool {
        self.outgoing.contains_key(&msg)
    }

    /// Drops stale incoming state: delivered messages older than
    /// `DELIVERED_HORIZON`, incomplete ones idle longer than
    /// `STALE_HORIZON`.
    pub(crate) fn sweep(&mut self, now: SimTime) {
        self.incoming.retain(|_, inc| match inc {
            Incoming::Assembling(asm) => now.since(asm.last_activity) < STALE_HORIZON,
            Incoming::Done { last_activity, .. } => now.since(*last_activity) < DELIVERED_HORIZON,
        });
    }
}

/// Builds data frames for the given (fragment, receivers) pairs into `out`.
///
/// Every frame carries the same shared message [`Body`] and a shared
/// receiver list, each a refcount bump; the fragment's wire length is
/// computed arithmetically — `min(frag_payload, len - start)`, zero past
/// the end — so fragment slices never materialize and building a frame
/// allocates nothing beyond `out`'s (amortized, recycled) storage.
#[allow(clippy::too_many_arguments)]
fn build_frames_into(
    out: &mut Vec<Frame>,
    msg: MessageId,
    sender: NodeId,
    body: &Arc<Body>,
    frag_payload: usize,
    frag_count: u32,
    msg_wire_bytes: u32,
    class: u8,
    frags: impl Iterator<Item = (u32, Arc<[NodeId]>)>,
) {
    out.extend(frags.map(|(frag, intended)| {
        let start = frag as usize * frag_payload;
        let part_len = body.payload.len().saturating_sub(start).min(frag_payload);
        let wire = DATA_HEADER_BASE + PER_RECEIVER_BYTES * intended.len() + part_len;
        Frame {
            sender,
            wire_bytes: wire,
            class,
            kind: FrameKind::Data {
                msg,
                frag,
                frag_count,
                intended,
                body: Arc::clone(body),
                msg_wire_bytes,
            },
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    /// Sends a `len`-byte message with handle `seq` from `origin`; returns
    /// its id and frames.
    fn send(
        t: &mut Transport,
        origin: NodeId,
        seq: u64,
        len: usize,
        intended: Vec<NodeId>,
    ) -> (MessageId, Vec<Frame>) {
        let frames = t.send_message(
            origin,
            MessageHandle(seq),
            payload(len),
            intended,
            pds_obs::class::OTHER,
            &cfg(),
            Vec::new(),
        );
        (MessageId { origin, seq }, frames)
    }

    /// Hands `frame` to receiver transport `rx` at `me`; returns the ack
    /// request and the delivery.
    fn receive(
        rx: &mut Transport,
        me: NodeId,
        frame: &Frame,
    ) -> (Option<SimDuration>, Option<DeliverPlan>) {
        match rx.receive(me, frame, &AckConfig::default(), SimTime::ZERO) {
            Received::Data {
                ack_after, deliver, ..
            } => (ack_after, deliver),
            other => panic!("expected a data outcome, got {other:?}"),
        }
    }

    /// Drives all of `frames` into receiver transport `rx` at `me`.
    fn receive_all(rx: &mut Transport, me: NodeId, frames: &[Frame]) -> Option<DeliverPlan> {
        let mut delivered = None;
        for f in frames {
            if let (_, Some(d)) = receive(rx, me, f) {
                delivered = Some(d);
            }
        }
        delivered
    }

    #[test]
    fn small_message_is_single_fragment() {
        let mut t = Transport::new();
        let (msg, frames) = send(&mut t, NodeId(0), 0, 100, vec![NodeId(1)]);
        assert_eq!(frames.len(), 1);
        assert!(t.is_tracking(msg));
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let (_, frames) = send(&mut tx, NodeId(0), 0, 256 * 1024, vec![NodeId(1)]);
        assert!(frames.len() > 100, "256 KB should fragment heavily");
        let d = receive_all(&mut rx, NodeId(1), &frames).expect("complete");
        assert_eq!(d.body.payload, payload(256 * 1024));
        assert!(!d.overheard);
    }

    #[test]
    fn a_data_frame_past_the_fragment_limit_is_dropped() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let (_, mut frames) = send(&mut tx, NodeId(0), 0, 100, vec![NodeId(1)]);
        let FrameKind::Data { frag_count, .. } = &mut frames[0].kind else {
            panic!("a data frame")
        };
        *frag_count = u32::MAX;
        let got = rx.receive(NodeId(1), &frames[0], &AckConfig::default(), SimTime::ZERO);
        assert!(matches!(got, Received::Nothing));
        assert!(rx.incoming.is_empty(), "no reassembly state");
    }

    #[test]
    fn overhearing_node_reassembles_too() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let (_, frames) = send(&mut tx, NodeId(0), 0, 5000, vec![NodeId(1)]);
        let d = receive_all(&mut rx, NodeId(9), &frames).expect("complete");
        assert!(d.overheard);
    }

    #[test]
    fn empty_intended_is_untracked() {
        let mut t = Transport::new();
        let (msg, _) = send(&mut t, NodeId(0), 0, 100, vec![]);
        assert!(!t.is_tracking(msg));
    }

    #[test]
    fn ack_completes_message() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let (msg, frames) = send(&mut tx, NodeId(0), 3, 4000, vec![NodeId(1)]);
        receive_all(&mut rx, NodeId(1), &frames);
        let ack = rx.make_ack(NodeId(1), msg).expect("ack frame");
        assert_eq!(ack.msg(), msg);
        // Only the origin merges its acks; an overhearing node ignores them.
        assert!(matches!(
            rx.receive(NodeId(1), &ack, &AckConfig::default(), SimTime::ZERO),
            Received::Nothing
        ));
        let done = tx.receive(NodeId(0), &ack, &AckConfig::default(), SimTime::ZERO);
        assert!(matches!(done, Received::Acked(MessageHandle(3))));
        assert!(!tx.is_tracking(msg));
        // The retransmission timer armed for the message still fires once
        // the kernel no longer cancels it; it finds nothing to do.
        assert!(matches!(
            tx.on_retr_timer(NodeId(0), msg, 4),
            RetrPlan::Nothing
        ));
    }

    #[test]
    fn partial_ack_keeps_tracking_and_retransmits_missing() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let (msg, frames) = send(&mut tx, NodeId(0), 0, 5000, vec![NodeId(1)]);
        assert!(frames.len() >= 4);
        // Deliver all but the last fragment.
        let last = frames.len() - 1;
        assert!(receive_all(&mut rx, NodeId(1), &frames[..last]).is_none());
        let ack = rx.make_ack(NodeId(1), msg).expect("partial ack");
        let got = tx.receive(NodeId(0), &ack, &AckConfig::default(), SimTime::ZERO);
        assert!(matches!(got, Received::Nothing));
        assert!(tx.is_tracking(msg));
        // All frames "finish"; the last one asks for the retransmission
        // timer, and only once.
        let armed: Vec<_> = frames.iter().filter_map(|f| tx.on_frame_done(f)).collect();
        assert_eq!(armed, vec![msg]);
        match tx.on_retr_timer(NodeId(0), msg, 4) {
            RetrPlan::Retransmit(frames) => {
                assert_eq!(frames.len(), 1, "only the missing fragment");
                let FrameKind::Data { frag, .. } = frames[0].kind else {
                    panic!()
                };
                assert_eq!(frag as usize, last);
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
    }

    #[test]
    fn retransmissions_name_who_misses_each_fragment() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let both = vec![NodeId(1), NodeId(2)];
        let (msg, sent) = send(&mut tx, NodeId(0), 0, 5000, both.clone());
        let last = sent.len() - 1;
        // Node 1 acks all but the last fragment, node 2 nothing.
        assert!(receive_all(&mut rx, NodeId(1), &sent[..last]).is_none());
        let ack = rx.make_ack(NodeId(1), msg).expect("partial ack");
        let got = tx.receive(NodeId(0), &ack, &AckConfig::default(), SimTime::ZERO);
        assert!(matches!(got, Received::Nothing));
        for f in &sent {
            tx.on_frame_done(f);
        }
        let RetrPlan::Retransmit(frames) = tx.on_retr_timer(NodeId(0), msg, 4) else {
            panic!("expected retransmit")
        };
        let FrameKind::Data {
            intended: original, ..
        } = &sent[0].kind
        else {
            panic!()
        };
        assert_eq!(frames.len(), sent.len(), "node 2 misses them all");
        for (i, f) in frames.iter().enumerate() {
            let FrameKind::Data { frag, intended, .. } = &f.kind else {
                panic!()
            };
            assert_eq!(*frag as usize, i);
            if i == last {
                // Missed by everyone: the message's own list, not a copy.
                assert_eq!(&intended[..], &both[..]);
                assert!(Arc::ptr_eq(intended, original));
                assert_eq!(f.wire_bytes, sent[i].wire_bytes);
            } else {
                assert_eq!(&intended[..], &[NodeId(2)]);
                assert_eq!(f.wire_bytes, sent[i].wire_bytes - PER_RECEIVER_BYTES);
            }
        }
    }

    #[test]
    fn every_delivery_of_a_message_shares_its_body_and_memo() {
        let mut tx = Transport::new();
        let (msg, sent) = send(&mut tx, NodeId(0), 0, 5000, vec![NodeId(1), NodeId(2)]);
        let last = sent.len() - 1;
        // Node 1 and overhearer 9 hear every frame; node 2 misses the last.
        let mut rx1 = Transport::new();
        let mut rx2 = Transport::new();
        let mut rx9 = Transport::new();
        let first = receive_all(&mut rx1, NodeId(1), &sent).expect("complete at 1");
        let overheard = receive_all(&mut rx9, NodeId(9), &sent).expect("complete at 9");
        assert!(receive_all(&mut rx2, NodeId(2), &sent[..last]).is_none());
        let ack = rx1.make_ack(NodeId(1), msg).expect("ack");
        assert!(matches!(
            tx.receive(NodeId(0), &ack, &AckConfig::default(), SimTime::ZERO),
            Received::Nothing
        ));
        for f in &sent {
            tx.on_frame_done(f);
        }
        let RetrPlan::Retransmit(again) = tx.on_retr_timer(NodeId(0), msg, 4) else {
            panic!("expected retransmit")
        };
        let late = receive_all(&mut rx2, NodeId(2), &again).expect("completed by a retransmission");
        for d in [&overheard, &late] {
            assert!(Arc::ptr_eq(&first.body, &d.body));
            assert!(Arc::ptr_eq(&first.intended, &d.intended));
        }
        assert_eq!(first.body.memo.get_or_init(|| 5u8), Some(&5));
        assert_eq!(late.body.memo.get_or_init(|| 6u8), Some(&5), "one memo");
    }

    #[test]
    fn gives_up_after_max_retr() {
        let mut tx = Transport::new();
        let (msg, frames) = send(&mut tx, NodeId(0), 7, 100, vec![NodeId(1)]);
        for attempt in 0..=4u32 {
            tx.on_frame_done(&frames[0]);
            match tx.on_retr_timer(NodeId(0), msg, 4) {
                RetrPlan::Retransmit(_) if attempt < 4 => {}
                RetrPlan::GiveUp(h) if attempt == 4 => {
                    assert_eq!(h, MessageHandle(7));
                    return;
                }
                other => panic!("attempt {attempt}: unexpected {other:?}"),
            }
        }
        panic!("never gave up");
    }

    #[test]
    fn retry_budget_scales_with_fragment_count() {
        // A ~40-fragment message gets max_retr + 40/8 = 9 attempts.
        let mut tx = Transport::new();
        let (msg, frames) = send(&mut tx, NodeId(0), 0, 55_000, vec![NodeId(1)]);
        let frag_count = frames.len() as u32;
        assert!(frag_count >= 30, "needs a multi-fragment message");
        let budget = 4 + frag_count / 8;
        for attempt in 0..=budget {
            for f in &frames {
                tx.on_frame_done(f);
            }
            match tx.on_retr_timer(NodeId(0), msg, 4) {
                RetrPlan::Retransmit(_) if attempt < budget => {}
                RetrPlan::GiveUp(_) if attempt == budget => return,
                other => panic!("attempt {attempt}/{budget}: unexpected {other:?}"),
            }
        }
        panic!("never exhausted the scaled budget");
    }

    #[test]
    fn duplicate_fragments_do_not_redeliver() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let (_, frames) = send(&mut tx, NodeId(0), 0, 2000, vec![NodeId(1)]);
        assert!(receive_all(&mut rx, NodeId(1), &frames).is_some());
        assert!(
            receive_all(&mut rx, NodeId(1), &frames).is_none(),
            "second delivery suppressed"
        );
    }

    #[test]
    fn ack_requested_once_until_sent() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let (msg, frames) = send(&mut tx, NodeId(0), 0, 5000, vec![NodeId(1)]);
        let (first, _) = receive(&mut rx, NodeId(1), &frames[0]);
        assert!(first.is_some());
        let (second, _) = receive(&mut rx, NodeId(1), &frames[0]);
        assert!(second.is_none(), "timer already pending");
        assert!(rx.make_ack(NodeId(1), msg).is_some());
    }

    #[test]
    fn overhearing_node_never_acks() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let (_, frames) = send(&mut tx, NodeId(0), 0, 100, vec![NodeId(1)]);
        let (ack_after, deliver) = receive(&mut rx, NodeId(5), &frames[0]);
        assert!(ack_after.is_none());
        assert!(deliver.expect("delivered").overheard);
    }

    #[test]
    fn sweep_drops_stale_state() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let (_, frames) = send(&mut tx, NodeId(0), 0, 100, vec![NodeId(1)]);
        receive_all(&mut rx, NodeId(1), &frames);
        assert_eq!(rx.incoming.len(), 1);
        rx.sweep(SimTime::from_secs_f64(120.0));
        assert!(rx.incoming.is_empty());
    }

    #[test]
    fn frag_payload_accounts_for_receivers() {
        let none = Transport::frag_payload_size(0);
        let ten = Transport::frag_payload_size(10);
        assert_eq!(none - ten, 40);
    }

    #[test]
    fn wire_bytes_include_headers() {
        let mut t = Transport::new();
        let (_, frames) = send(&mut t, NodeId(0), 0, 100, vec![NodeId(1), NodeId(2)]);
        assert_eq!(
            frames[0].wire_bytes,
            DATA_HEADER_BASE + 2 * PER_RECEIVER_BYTES + 100
        );
    }
}
