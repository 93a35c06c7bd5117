//! Application-level reliable transport: fragmentation, reassembly,
//! selective acknowledgements and retransmission (§V-1 of the paper).
//!
//! Messages whose intended-receiver list is non-empty are tracked: every
//! intended receiver acknowledges with a fragment bitmap, and the sender
//! retransmits missing fragments up to `MaxRetrTime` times, waiting
//! `RetrTimeout` after the last fragment of each attempt leaves the radio.
//! Messages with an empty intended list ("all neighbors") are fire-and-forget,
//! exactly like PDS's flooded queries.

use crate::config::SimConfig;
use crate::radio::{FragSet, Frame, FrameKind};
use bytes::Bytes;
use pds_core::{MessageHandle, NodeId, TimerId};
use pds_core::{SimDuration, SimTime};
use pds_det::DetMap;
use std::fmt;
use std::sync::Arc;

/// Fixed wire overhead of a data frame before the per-receiver id list.
pub(crate) const DATA_HEADER_BASE: usize = 40;
/// Wire bytes per intended-receiver id in a data frame header.
pub(crate) const PER_RECEIVER_BYTES: usize = 4;
/// Fixed wire overhead of an ack frame before the fragment bitmap.
pub(crate) const ACK_HEADER_BASE: usize = 32;

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

#[derive(Debug)]
struct Outgoing {
    handle: MessageHandle,
    payload: Bytes,
    intended: Arc<[NodeId]>,
    frag_count: u32,
    frag_payload: usize,
    msg_wire_bytes: u32,
    /// Traffic class carried by every frame of this message, including
    /// retransmissions (see [`pds_obs::class`]).
    class: u8,
    acked: DetMap<NodeId, FragSet>,
    /// 0 = initial transmission, 1..=max_retr are retransmissions.
    attempt: u32,
    /// Frames of the current attempt not yet off the radio (or dropped).
    in_flight: u32,
    retr_timer: Option<TimerId>,
}

impl Outgoing {
    fn fully_acked(&self) -> bool {
        self.intended.iter().all(|r| {
            self.acked
                .get(r)
                .is_some_and(|s| s.is_complete(self.frag_count))
        })
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
/// still arriving the entry holds the full assembly state — shared
/// payload, fragment bitmap, receiver list. The moment the message is
/// delivered, all of that collapses into the small [`Incoming::Done`]
/// tombstone. This is what bounds receive-side memory at city scale:
/// delivered messages linger for `DELIVERED_HORIZON` (a minute) purely
/// for duplicate suppression and re-acking, and without the collapse
/// every one of them would pin its payload `Bytes` (keeping the sender's
/// buffer alive through the refcount) plus a map entry of ~10 words.
#[derive(Debug)]
enum Incoming {
    /// Fragments still arriving. Boxed: the common steady-state entry is
    /// a delivered tombstone, so the enum is sized for `Done` and the
    /// assembling state pays one extra indirection instead.
    Assembling(Box<Assembling>),
    /// Delivered. Everything duplicate suppression and re-acking need —
    /// and nothing else. The complete ack bitmap is rebuilt on demand
    /// from `frag_count` ([`FragSet::full`]), byte-identical on the wire.
    Done {
        frag_count: u32,
        intended_me: bool,
        ack_timer_pending: bool,
        last_activity: SimTime,
    },
}

#[derive(Debug)]
struct Assembling {
    /// The whole message payload, shared with every data frame of the
    /// message (DESIGN.md §11): reassembly only tracks *which* fragments
    /// arrived in `received`; their bytes are already here, so delivery is
    /// a refcount bump, never a copy.
    payload: Bytes,
    received: FragSet,
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

/// Result of submitting a message for transmission.
pub(crate) struct SendPlan {
    #[cfg_attr(not(test), allow(dead_code))]
    pub msg: MessageId,
    pub frames: Vec<Frame>,
    /// Whether the message is tracked for ack/retransmission (the kernel
    /// does not branch on this — frame completion events drive the timer —
    /// but tests assert it).
    #[cfg_attr(not(test), allow(dead_code))]
    pub tracked: bool,
}

/// What the kernel must do after a data frame is received.
#[derive(Debug)]
pub(crate) struct DataPlan {
    /// Deliver this completed message to the application.
    pub deliver: Option<DeliverPlan>,
    /// Schedule an ack transmission after the given delay (only if none is
    /// already pending for this message).
    pub schedule_ack: Option<SimDuration>,
}

#[derive(Debug)]
pub(crate) struct DeliverPlan {
    pub from: NodeId,
    pub intended: Vec<NodeId>,
    pub overheard: bool,
    pub wire_bytes: usize,
    pub payload: Bytes,
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
    pub fn new() -> Self {
        Self::default()
    }

    /// Usable payload bytes per fragment given the intended-receiver count.
    ///
    /// # Panics
    ///
    /// Panics if the header alone would exceed the frame size (receiver list
    /// too long for the MTU).
    pub fn frag_payload_size(cfg: &SimConfig, receivers: usize) -> usize {
        let header = DATA_HEADER_BASE + PER_RECEIVER_BYTES * receivers;
        assert!(
            header < cfg.radio.max_frame_bytes,
            "intended receiver list ({receivers} entries) does not fit a {}-byte frame",
            cfg.radio.max_frame_bytes
        );
        cfg.radio.max_frame_bytes - header
    }

    /// Fragments `payload` and registers tracking state when reliable.
    ///
    /// `frames` is a recycled buffer (cleared here) that the built frames
    /// are pushed into; it is handed back via [`SendPlan::frames`] so the
    /// caller can drain and reuse it.
    #[allow(clippy::too_many_arguments)] // mirrors the frame-header fields
    pub fn send_message(
        &mut self,
        origin: NodeId,
        seq: u64,
        handle: MessageHandle,
        payload: Bytes,
        intended: Vec<NodeId>,
        class: u8,
        cfg: &SimConfig,
        mut frames: Vec<Frame>,
    ) -> SendPlan {
        let msg = MessageId { origin, seq };
        // One shared receiver list for every fragment (and the tracking
        // state): a 256 KB message fans out into ~170 frames without ~170
        // copies of the list.
        let intended: Arc<[NodeId]> = intended.into();
        let frag_payload = Self::frag_payload_size(cfg, intended.len());
        let frag_count = (payload.len().max(1)).div_ceil(frag_payload) as u32;
        let header = DATA_HEADER_BASE + PER_RECEIVER_BYTES * intended.len();
        let msg_wire_bytes = (payload.len() + frag_count as usize * header) as u32;
        frames.clear();
        build_frames_into(
            &mut frames,
            msg,
            origin,
            &payload,
            frag_payload,
            frag_count,
            msg_wire_bytes,
            class,
            (0..frag_count).map(|f| (f, Arc::clone(&intended))),
        );
        let tracked = cfg.ack.enabled && !intended.is_empty();
        if tracked {
            let acked = intended
                .iter()
                .map(|&r| (r, FragSet::new(frag_count)))
                .collect();
            self.outgoing.insert(
                msg,
                Outgoing {
                    handle,
                    payload,
                    intended,
                    frag_count,
                    frag_payload,
                    msg_wire_bytes,
                    class,
                    acked,
                    attempt: 0,
                    in_flight: frag_count,
                    retr_timer: None,
                },
            );
        }
        SendPlan {
            msg,
            frames,
            tracked,
        }
    }

    /// Handles a received data fragment at node `me`. `payload` is the
    /// whole message payload the frame carries (see [`FrameKind::Data`]).
    #[allow(clippy::too_many_arguments)]
    pub fn on_data_frame(
        &mut self,
        me: NodeId,
        msg: MessageId,
        frag: u32,
        frag_count: u32,
        intended: &Arc<[NodeId]>,
        payload: &Bytes,
        msg_wire_bytes: u32,
        from: NodeId,
        ack_enabled: bool,
        ack_delay: SimDuration,
        now: SimTime,
    ) -> DataPlan {
        let entry = self.incoming.entry(msg).or_insert_with(|| {
            Incoming::Assembling(Box::new(Assembling {
                payload: payload.clone(),
                received: FragSet::new(frag_count),
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
        let schedule_ack;
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
                if frag < asm.frag_count {
                    asm.received.set(frag);
                    if asm.received.is_complete(asm.frag_count) {
                        deliver = Some(DeliverPlan {
                            from,
                            intended: asm.intended.to_vec(),
                            overheard: !asm.intended_me,
                            wire_bytes: asm.msg_wire_bytes as usize,
                            // Zero-copy: every fragment carried the same
                            // shared message payload; delivery hands it over.
                            payload: asm.payload.clone(),
                        });
                    }
                }
                let complete = asm.received.is_complete(asm.frag_count);
                schedule_ack = if ack_enabled && asm.intended_me && !asm.ack_timer_pending {
                    asm.ack_timer_pending = true;
                    // Complete messages ack promptly (short jitter applied
                    // by the kernel); incomplete ones wait for stragglers.
                    Some(if complete {
                        SimDuration::ZERO
                    } else {
                        ack_delay
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
                schedule_ack = if ack_enabled && *intended_me && !*ack_timer_pending {
                    *ack_timer_pending = true;
                    Some(SimDuration::ZERO)
                } else {
                    None
                };
            }
        }
        if let Some((frag_count, intended_me, ack_timer_pending)) = done {
            // Delivered: collapse the assembly state (payload refcount,
            // bitmap, receiver list) into the tombstone.
            *entry = Incoming::Done {
                frag_count,
                intended_me,
                ack_timer_pending,
                last_activity: now,
            };
        }

        DataPlan {
            deliver,
            schedule_ack,
        }
    }

    /// Builds the ack frame for `msg` when its ack timer fires.
    pub fn make_ack(&mut self, me: NodeId, msg: MessageId) -> Option<Frame> {
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
                FragSet::full(*frag_count)
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

    /// Merges an ack from `receiver`; returns the completed message's handle
    /// when every intended receiver has acknowledged every fragment.
    pub fn on_ack_frame(
        &mut self,
        msg: MessageId,
        receiver: NodeId,
        bitmap: &FragSet,
    ) -> Option<(MessageHandle, Option<TimerId>)> {
        let out = self.outgoing.get_mut(&msg)?;
        if let Some(set) = out.acked.get_mut(&receiver) {
            set.merge(bitmap);
        }
        if out.fully_acked() {
            let out = self.outgoing.remove(&msg)?;
            return Some((out.handle, out.retr_timer));
        }
        None
    }

    /// Notes that one frame of `msg` left the radio (or was dropped).
    /// Returns `true` when the current attempt has no frames in flight and a
    /// retransmission timer should be armed.
    pub fn on_frame_done(&mut self, msg: MessageId) -> bool {
        let Some(out) = self.outgoing.get_mut(&msg) else {
            return false;
        };
        out.in_flight = out.in_flight.saturating_sub(1);
        out.in_flight == 0 && out.retr_timer.is_none()
    }

    /// Records the armed retransmission timer for `msg`.
    pub fn set_retr_timer(&mut self, msg: MessageId, id: TimerId) {
        if let Some(out) = self.outgoing.get_mut(&msg) {
            out.retr_timer = Some(id);
        }
    }

    /// Handles a retransmission timeout.
    ///
    /// The retry budget scales with the message's fragment count: the
    /// calibrated `MaxRetrTime` (4) was measured on single-frame messages
    /// (§V-1), while a 256 KB chunk spans ~170 fragments and each attempt
    /// only repairs the missing ones — a fixed 4-attempt budget would
    /// abandon large messages that lose a handful of fragments per attempt
    /// under contention.
    pub fn on_retr_timer(&mut self, me: NodeId, msg: MessageId, max_retr: u32) -> RetrPlan {
        let Some(out) = self.outgoing.get_mut(&msg) else {
            return RetrPlan::Nothing;
        };
        out.retr_timer = None;
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
            &out.payload,
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
    pub fn max_attempt(&self) -> u32 {
        self.max_attempt
    }

    /// Whether an outgoing message is still tracked (unacked).
    #[cfg(test)]
    pub fn is_tracking(&self, msg: MessageId) -> bool {
        self.outgoing.contains_key(&msg)
    }

    /// Drops stale incoming state: delivered messages older than
    /// `delivered_horizon`, incomplete ones idle longer than `stale_horizon`.
    pub fn sweep(
        &mut self,
        now: SimTime,
        delivered_horizon: SimDuration,
        stale_horizon: SimDuration,
    ) {
        self.incoming.retain(|_, inc| match inc {
            Incoming::Assembling(asm) => now.since(asm.last_activity) < stale_horizon,
            Incoming::Done { last_activity, .. } => now.since(*last_activity) < delivered_horizon,
        });
    }
}

/// Builds data frames for the given (fragment, receivers) pairs into `out`.
///
/// Every frame carries the same shared message [`Bytes`] (a refcount bump)
/// and a shared receiver-list [`Arc`]; the fragment's wire length is
/// computed arithmetically — `min(frag_payload, len - start)`, zero past
/// the end — so fragment slices never materialize and building a frame
/// allocates nothing beyond `out`'s (amortized, recycled) storage.
#[allow(clippy::too_many_arguments)]
fn build_frames_into(
    out: &mut Vec<Frame>,
    msg: MessageId,
    sender: NodeId,
    payload: &Bytes,
    frag_payload: usize,
    frag_count: u32,
    msg_wire_bytes: u32,
    class: u8,
    frags: impl Iterator<Item = (u32, Arc<[NodeId]>)>,
) {
    out.extend(frags.map(|(frag, intended)| {
        let start = frag as usize * frag_payload;
        let part_len = payload.len().saturating_sub(start).min(frag_payload);
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
                payload: payload.clone(),
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

    fn send(
        t: &mut Transport,
        origin: NodeId,
        seq: u64,
        len: usize,
        intended: Vec<NodeId>,
    ) -> SendPlan {
        t.send_message(
            origin,
            seq,
            MessageHandle(seq),
            payload(len),
            intended,
            pds_obs::class::OTHER,
            &cfg(),
            Vec::new(),
        )
    }

    /// Drives all of `plan`'s frames into receiver transport `rx` at `me`.
    fn receive_all(rx: &mut Transport, me: NodeId, plan: &SendPlan) -> Option<DeliverPlan> {
        let mut delivered = None;
        for f in &plan.frames {
            if let FrameKind::Data {
                msg,
                frag,
                frag_count,
                intended,
                payload,
                msg_wire_bytes,
            } = &f.kind
            {
                let p = rx.on_data_frame(
                    me,
                    *msg,
                    *frag,
                    *frag_count,
                    intended,
                    payload,
                    *msg_wire_bytes,
                    f.sender,
                    true,
                    SimDuration::from_millis(40),
                    SimTime::ZERO,
                );
                if p.deliver.is_some() {
                    delivered = p.deliver;
                }
            }
        }
        delivered
    }

    #[test]
    fn small_message_is_single_fragment() {
        let mut t = Transport::new();
        let plan = send(&mut t, NodeId(0), 0, 100, vec![NodeId(1)]);
        assert_eq!(plan.frames.len(), 1);
        assert!(plan.tracked);
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let plan = send(&mut tx, NodeId(0), 0, 256 * 1024, vec![NodeId(1)]);
        assert!(plan.frames.len() > 100, "256 KB should fragment heavily");
        let d = receive_all(&mut rx, NodeId(1), &plan).expect("complete");
        assert_eq!(d.payload, payload(256 * 1024));
        assert!(!d.overheard);
    }

    #[test]
    fn overhearing_node_reassembles_too() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let plan = send(&mut tx, NodeId(0), 0, 5000, vec![NodeId(1)]);
        let d = receive_all(&mut rx, NodeId(9), &plan).expect("complete");
        assert!(d.overheard);
    }

    #[test]
    fn empty_intended_is_untracked() {
        let mut t = Transport::new();
        let plan = send(&mut t, NodeId(0), 0, 100, vec![]);
        assert!(!plan.tracked);
        assert!(!t.is_tracking(plan.msg));
    }

    #[test]
    fn ack_completes_message() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let plan = send(&mut tx, NodeId(0), 3, 4000, vec![NodeId(1)]);
        receive_all(&mut rx, NodeId(1), &plan);
        let ack = rx.make_ack(NodeId(1), plan.msg).expect("ack frame");
        let FrameKind::Ack { msg, received } = ack.kind else {
            panic!("expected ack")
        };
        let done = tx.on_ack_frame(msg, NodeId(1), &received);
        assert_eq!(done.map(|(h, _)| h), Some(MessageHandle(3)));
        assert!(!tx.is_tracking(plan.msg));
    }

    #[test]
    fn partial_ack_keeps_tracking_and_retransmits_missing() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let plan = send(&mut tx, NodeId(0), 0, 5000, vec![NodeId(1)]);
        assert!(plan.frames.len() >= 4);
        // Deliver all but the last fragment.
        let partial = SendPlan {
            msg: plan.msg,
            frames: plan.frames[..plan.frames.len() - 1].to_vec(),
            tracked: true,
        };
        assert!(receive_all(&mut rx, NodeId(1), &partial).is_none());
        let ack = rx.make_ack(NodeId(1), plan.msg).expect("partial ack");
        let FrameKind::Ack { received, .. } = &ack.kind else {
            panic!()
        };
        assert!(tx.on_ack_frame(plan.msg, NodeId(1), received).is_none());
        // All frames "finish"; the retransmission timer wants arming.
        let mut arm = false;
        for _ in 0..plan.frames.len() {
            arm = tx.on_frame_done(plan.msg);
        }
        assert!(arm);
        match tx.on_retr_timer(NodeId(0), plan.msg, 4) {
            RetrPlan::Retransmit(frames) => {
                assert_eq!(frames.len(), 1, "only the missing fragment");
                let FrameKind::Data { frag, .. } = frames[0].kind else {
                    panic!()
                };
                assert_eq!(frag as usize, plan.frames.len() - 1);
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
    }

    #[test]
    fn retransmissions_name_who_misses_each_fragment() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let both = vec![NodeId(1), NodeId(2)];
        let plan = send(&mut tx, NodeId(0), 0, 5000, both.clone());
        let last = plan.frames.len() - 1;
        // Node 1 acks all but the last fragment, node 2 nothing.
        let partial = SendPlan {
            msg: plan.msg,
            frames: plan.frames[..last].to_vec(),
            tracked: true,
        };
        assert!(receive_all(&mut rx, NodeId(1), &partial).is_none());
        let ack = rx.make_ack(NodeId(1), plan.msg).expect("partial ack");
        let FrameKind::Ack { received, .. } = &ack.kind else {
            panic!()
        };
        assert!(tx.on_ack_frame(plan.msg, NodeId(1), received).is_none());
        for _ in 0..plan.frames.len() {
            tx.on_frame_done(plan.msg);
        }
        let RetrPlan::Retransmit(frames) = tx.on_retr_timer(NodeId(0), plan.msg, 4) else {
            panic!("expected retransmit")
        };
        let FrameKind::Data {
            intended: original, ..
        } = &plan.frames[0].kind
        else {
            panic!()
        };
        assert_eq!(frames.len(), plan.frames.len(), "node 2 misses them all");
        for (i, f) in frames.iter().enumerate() {
            let FrameKind::Data { frag, intended, .. } = &f.kind else {
                panic!()
            };
            assert_eq!(*frag as usize, i);
            if i == last {
                // Missed by everyone: the message's own list, not a copy.
                assert_eq!(&intended[..], &both[..]);
                assert!(Arc::ptr_eq(intended, original));
                assert_eq!(f.wire_bytes, plan.frames[i].wire_bytes);
            } else {
                assert_eq!(&intended[..], &[NodeId(2)]);
                assert_eq!(f.wire_bytes, plan.frames[i].wire_bytes - PER_RECEIVER_BYTES);
            }
        }
    }

    #[test]
    fn gives_up_after_max_retr() {
        let mut tx = Transport::new();
        let plan = send(&mut tx, NodeId(0), 7, 100, vec![NodeId(1)]);
        for attempt in 0..=4u32 {
            for _ in 0..1 {
                tx.on_frame_done(plan.msg);
            }
            match tx.on_retr_timer(NodeId(0), plan.msg, 4) {
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
        let plan = send(&mut tx, NodeId(0), 0, 55_000, vec![NodeId(1)]);
        let frag_count = plan.frames.len() as u32;
        assert!(frag_count >= 30, "needs a multi-fragment message");
        let budget = 4 + frag_count / 8;
        for attempt in 0..=budget {
            for _ in 0..frag_count {
                tx.on_frame_done(plan.msg);
            }
            match tx.on_retr_timer(NodeId(0), plan.msg, 4) {
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
        let plan = send(&mut tx, NodeId(0), 0, 2000, vec![NodeId(1)]);
        assert!(receive_all(&mut rx, NodeId(1), &plan).is_some());
        assert!(
            receive_all(&mut rx, NodeId(1), &plan).is_none(),
            "second delivery suppressed"
        );
    }

    #[test]
    fn ack_requested_once_until_sent() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let plan = send(&mut tx, NodeId(0), 0, 5000, vec![NodeId(1)]);
        let FrameKind::Data {
            msg,
            frag,
            frag_count,
            intended,
            payload,
            msg_wire_bytes,
        } = plan.frames[0].kind.clone()
        else {
            panic!()
        };
        let p1 = rx.on_data_frame(
            NodeId(1),
            msg,
            frag,
            frag_count,
            &intended,
            &payload,
            msg_wire_bytes,
            NodeId(0),
            true,
            SimDuration::from_millis(40),
            SimTime::ZERO,
        );
        assert!(p1.schedule_ack.is_some());
        let p2 = rx.on_data_frame(
            NodeId(1),
            msg,
            frag,
            frag_count,
            &intended,
            &payload,
            msg_wire_bytes,
            NodeId(0),
            true,
            SimDuration::from_millis(40),
            SimTime::ZERO,
        );
        assert!(p2.schedule_ack.is_none(), "timer already pending");
        assert!(rx.make_ack(NodeId(1), msg).is_some());
    }

    #[test]
    fn overhearing_node_never_acks() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let plan = send(&mut tx, NodeId(0), 0, 100, vec![NodeId(1)]);
        let FrameKind::Data {
            msg,
            frag,
            frag_count,
            intended,
            payload,
            msg_wire_bytes,
        } = plan.frames[0].kind.clone()
        else {
            panic!()
        };
        let p = rx.on_data_frame(
            NodeId(5),
            msg,
            frag,
            frag_count,
            &intended,
            &payload,
            msg_wire_bytes,
            NodeId(0),
            true,
            SimDuration::from_millis(40),
            SimTime::ZERO,
        );
        assert!(p.schedule_ack.is_none());
        assert!(p.deliver.expect("delivered").overheard);
    }

    #[test]
    fn sweep_drops_stale_state() {
        let mut tx = Transport::new();
        let mut rx = Transport::new();
        let plan = send(&mut tx, NodeId(0), 0, 100, vec![NodeId(1)]);
        receive_all(&mut rx, NodeId(1), &plan);
        assert_eq!(rx.incoming.len(), 1);
        rx.sweep(
            SimTime::from_secs_f64(120.0),
            SimDuration::from_secs(60),
            SimDuration::from_secs(30),
        );
        assert!(rx.incoming.is_empty());
    }

    #[test]
    fn frag_payload_accounts_for_receivers() {
        let c = cfg();
        let none = Transport::frag_payload_size(&c, 0);
        let ten = Transport::frag_payload_size(&c, 10);
        assert_eq!(none - ten, 40);
    }

    #[test]
    fn wire_bytes_include_headers() {
        let mut t = Transport::new();
        let plan = send(&mut t, NodeId(0), 0, 100, vec![NodeId(1), NodeId(2)]);
        let f = &plan.frames[0];
        assert_eq!(
            f.wire_bytes,
            DATA_HEADER_BASE + 2 * PER_RECEIVER_BYTES + 100
        );
    }
}
