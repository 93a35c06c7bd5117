//! The per-node send path below the transport (§V-1, §V-2): the leaky
//! bucket, the OS UDP send buffer, and the CSMA contention that hands
//! the buffer's head frame to the medium.
//!
//! [`Mac`] owns one node's pacing state and the three radio-phase flags
//! that keep its wake-up events unique. Its methods never touch the event
//! queue; each returns what the kernel must schedule or count (a released
//! frame, a drop, a `BucketDrain` wake time, "a `MacTry` is due"), so the
//! kernel acts on plain values instead of split borrows.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::config::{RadioConfig, SenderMode, SimConfig};
use crate::transport::Frame;
use pds_core::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Upper bound of the random pre-transmission defer that desynchronizes
/// nodes deciding to transmit at the same instant (the DCF contention
/// window analogue; collisions happen when two defers land within the
/// sensing delay of each other).
const INITIAL_DEFER: SimDuration = SimDuration::from_micros(600);

/// Priority class of an outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendClass {
    Data,
    Repair,
    Ack,
}

/// What [`Mac::release`] did.
#[derive(Debug)]
pub(crate) enum Release {
    /// The bucket afforded its head frame: offer it to the OS buffer.
    Frame(Frame),
    /// Out of tokens: schedule a `BucketDrain` at this time.
    Wake(SimTime),
    /// Nothing to do now (empty, backpressured, or a wake is pending).
    Hold,
}

/// What [`Mac::offer`] did with a frame handed to the OS buffer.
#[derive(Debug)]
pub(crate) enum Offer {
    /// Queued; the buffer now holds `depth` bytes. `try_now`: schedule a
    /// `MacTry` at the current time.
    Queued { depth: usize, try_now: bool },
    /// The buffer was full and the OS silently discarded the frame.
    Dropped(Frame),
}

/// One node's pacing state: leaky bucket, OS send buffer, radio flags.
#[derive(Debug)]
pub(crate) struct Mac {
    /// Frames waiting for tokens (leaky-bucket mode only); repairs jump
    /// to the front.
    bucket: VecDeque<Frame>,
    tokens: f64,
    refilled: SimTime,
    /// The OS UDP send buffer and the wire bytes it holds.
    os: VecDeque<Frame>,
    os_bytes: usize,
    /// The radio is on the air.
    transmitting: bool,
    /// A `MacTry` event is already scheduled.
    try_scheduled: bool,
    /// A `BucketDrain` event is already scheduled.
    drain_scheduled: bool,
}

impl Mac {
    /// A full bucket and an empty buffer at `now`.
    pub(crate) fn new(now: SimTime, sender: SenderMode) -> Self {
        let tokens = match sender {
            SenderMode::RawUdp => 0.0,
            SenderMode::LeakyBucket { capacity_bytes, .. } => capacity_bytes as f64,
        };
        Self {
            bucket: VecDeque::new(),
            tokens,
            refilled: now,
            os: VecDeque::new(),
            os_bytes: 0,
            transmitting: false,
            try_scheduled: false,
            drain_scheduled: false,
        }
    }

    /// Bytes waiting in the leaky bucket and in the OS send buffer.
    pub(crate) fn depths(&self) -> (usize, usize) {
        (
            self.bucket.iter().map(|f| f.wire_bytes).sum(),
            self.os_bytes,
        )
    }

    /// Routes one frame from the transport. Returns it if it skips the
    /// bucket — every ack, and every frame of a raw-UDP sender — and must
    /// go straight to [`Mac::offer`]; otherwise queues it and the caller
    /// drains the bucket with [`Mac::release`].
    pub(crate) fn admit(
        &mut self,
        frame: Frame,
        class: SendClass,
        sender: SenderMode,
    ) -> Option<Frame> {
        match (sender, class) {
            // Acks bypass the bucket: tiny and latency-critical.
            (SenderMode::RawUdp, _) | (_, SendClass::Ack) => return Some(frame),
            // Retransmitted fragments jump the (possibly megabytes deep)
            // data queue: a chunk missing one fragment must not wait for
            // the whole backlog to drain before it can repair.
            (_, SendClass::Repair) => self.bucket.push_front(frame),
            (_, SendClass::Data) => self.bucket.push_back(frame),
        }
        None
    }

    /// Refills the bucket up to `now` and releases its head frame if the
    /// tokens afford it. Call until it stops returning frames.
    pub(crate) fn release(&mut self, config: &SimConfig, now: SimTime) -> Release {
        let SenderMode::LeakyBucket {
            capacity_bytes,
            rate_bps,
        } = config.sender
        else {
            return Release::Hold;
        };
        let rate_bytes = rate_bps / 8.0;
        let dt = now.since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + dt * rate_bytes).min(capacity_bytes as f64);
        self.refilled = now;
        let Some(front) = self.bucket.front() else {
            return Release::Hold;
        };
        let need = front.wire_bytes as f64;
        // Backpressure: a paced sender observes a full OS buffer (blocking
        // send / occupancy check) and waits for the MAC to drain instead
        // of dropping; `dequeue` wakes the bucket again. Without it (the
        // prototype regime) the bucket injects regardless and `offer`
        // drops.
        if config.radio.os_backpressure
            && self.os_bytes + front.wire_bytes > config.radio.os_buffer_bytes
        {
            return Release::Hold;
        }
        if self.tokens + 1e-9 >= need {
            self.tokens -= need;
            return self
                .bucket
                .pop_front()
                .map_or(Release::Hold, Release::Frame);
        }
        if self.drain_scheduled {
            return Release::Hold;
        }
        self.drain_scheduled = true;
        let wait = (need - self.tokens) / rate_bytes;
        Release::Wake(now + SimDuration::from_secs_f64(wait.max(1e-6)))
    }

    /// The scheduled `BucketDrain` fired.
    pub(crate) fn bucket_woken(&mut self) {
        self.drain_scheduled = false;
    }

    /// Hands a frame to the OS send buffer; `priority` frames (acks) go
    /// to its head.
    pub(crate) fn offer(&mut self, frame: Frame, priority: bool, radio: &RadioConfig) -> Offer {
        if self.os_bytes + frame.wire_bytes > radio.os_buffer_bytes {
            // The OS silently discards the datagram (§V-2).
            return Offer::Dropped(frame);
        }
        self.os_bytes += frame.wire_bytes;
        if priority {
            self.os.push_front(frame);
        } else {
            self.os.push_back(frame);
        }
        let try_now = !self.transmitting && !self.try_scheduled;
        self.try_scheduled |= try_now;
        Offer::Queued {
            depth: self.os_bytes,
            try_now,
        }
    }

    /// Whether a `MacTry` has anything to contend for. A radio already on
    /// the air, or an empty buffer, retires the scheduled try.
    pub(crate) fn wants_air(&mut self) -> bool {
        if self.transmitting || self.os.is_empty() {
            self.try_scheduled = false;
            return false;
        }
        true
    }

    /// Takes the buffer's head frame onto the air. The flag says the
    /// buffer drained under a waiting bucket: schedule a `BucketDrain`
    /// now.
    pub(crate) fn dequeue(&mut self) -> Option<(Frame, bool)> {
        self.try_scheduled = false;
        let frame = self.os.pop_front()?;
        self.os_bytes = self.os_bytes.saturating_sub(frame.wire_bytes);
        let wake_bucket = !self.bucket.is_empty() && !self.drain_scheduled;
        self.drain_scheduled |= wake_bucket;
        self.transmitting = true;
        Some((frame, wake_bucket))
    }

    /// The radio went quiet. Returns whether a `MacTry` is due now for
    /// the frames still buffered.
    pub(crate) fn tx_done(&mut self) -> bool {
        self.transmitting = false;
        let try_now = !self.os.is_empty() && !self.try_scheduled;
        self.try_scheduled |= try_now;
        try_now
    }
}

/// CSMA contention for a node whose buffer holds a frame. With the
/// channel sensed busy until `busy_until`, backs off past its end; a
/// fresh attempt first waits a random initial defer. Returns the next
/// `MacTry` (time, deferred), or `None` to transmit now. Draws from the
/// shared kernel stream, so call order is part of the replay contract.
pub(crate) fn contend(
    busy_until: Option<SimTime>,
    deferred: bool,
    now: SimTime,
    radio: &RadioConfig,
    rng: &mut SimRng,
) -> Option<(SimTime, bool)> {
    if let Some(until) = busy_until {
        let backoff_max = radio.backoff_max.as_micros();
        let backoff = if backoff_max > 0 {
            rng.range_u64(0, backoff_max)
        } else {
            0
        };
        return Some((until + SimDuration::from_micros(backoff), false));
    }
    if !deferred {
        let defer = rng.range_u64(0, INITIAL_DEFER.as_micros().max(1));
        return Some((now + SimDuration::from_micros(defer), true));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FrameKind, MessageId};
    use pds_core::NodeId;
    use pds_det::BitSet;

    fn frame(seq: u64, wire_bytes: usize) -> Frame {
        Frame {
            sender: NodeId(0),
            wire_bytes,
            class: 0,
            kind: FrameKind::Ack {
                msg: MessageId {
                    origin: NodeId(0),
                    seq,
                },
                received: BitSet::new(1),
            },
        }
    }

    fn seq_of(f: &Frame) -> u64 {
        f.msg().seq
    }

    /// A 3 KB bucket refilling at 8 KB/s in front of a 4 KB buffer.
    fn paced(backpressure: bool) -> SimConfig {
        let mut c = SimConfig {
            sender: SenderMode::LeakyBucket {
                capacity_bytes: 3_000,
                rate_bps: 64_000.0,
            },
            ..SimConfig::default()
        };
        c.radio.os_buffer_bytes = 4_000;
        c.radio.os_backpressure = backpressure;
        c
    }

    /// Drains the bucket like the kernel does: every released frame is
    /// offered to the OS buffer. Returns the offers and the final step.
    fn drain(mac: &mut Mac, c: &SimConfig, now: SimTime) -> (Vec<Offer>, Release) {
        let mut offers = Vec::new();
        loop {
            match mac.release(c, now) {
                Release::Frame(f) => offers.push(mac.offer(f, false, &c.radio)),
                last => return (offers, last),
            }
        }
    }

    /// The sequence numbers in the OS buffer, head first.
    fn os_order(mac: &Mac) -> Vec<u64> {
        mac.os.iter().map(seq_of).collect()
    }

    #[test]
    fn a_repair_jumps_ahead_of_queued_data() {
        let mut c = paced(true);
        c.radio.os_buffer_bytes = 100_000; // only tokens bind here
        let mut mac = Mac::new(SimTime::ZERO, c.sender);
        // The full bucket affords two 1.5 KB frames; the rest queue.
        for seq in 0..4 {
            assert!(mac
                .admit(frame(seq, 1_500), SendClass::Data, c.sender)
                .is_none());
        }
        let (offers, last) = drain(&mut mac, &c, SimTime::ZERO);
        assert_eq!(offers.len(), 2);
        assert!(matches!(last, Release::Wake(_)));
        assert!(mac
            .admit(frame(9, 1_500), SendClass::Repair, c.sender)
            .is_none());
        // Refilled, the bucket releases the repair before data 2 and 3.
        mac.bucket_woken();
        let (offers, _) = drain(&mut mac, &c, SimTime::from_secs_f64(1.0));
        assert_eq!(offers.len(), 2);
        assert_eq!(os_order(&mac), vec![0, 1, 9, 2]);
    }

    #[test]
    fn acks_bypass_the_bucket_to_the_buffer_head() {
        let c = paced(true);
        let mut mac = Mac::new(SimTime::ZERO, c.sender);
        mac.tokens = 0.0;
        assert!(mac
            .admit(frame(1, 500), SendClass::Data, c.sender)
            .is_none());
        assert!(matches!(mac.release(&c, SimTime::ZERO), Release::Wake(_)));
        let ack = mac
            .admit(frame(2, 40), SendClass::Ack, c.sender)
            .expect("ack skips the bucket");
        assert!(matches!(
            mac.offer(ack, true, &c.radio),
            Offer::Queued {
                depth: 40,
                try_now: true
            }
        ));
        assert_eq!(
            mac.depths(),
            (500, 40),
            "the data frame still waits for tokens"
        );
        // An ack queued behind buffered data still goes out first.
        assert!(matches!(
            mac.offer(frame(3, 100), false, &c.radio),
            Offer::Queued { try_now: false, .. }
        ));
        assert!(matches!(
            mac.offer(frame(4, 40), true, &c.radio),
            Offer::Queued { .. }
        ));
        assert_eq!(os_order(&mac), vec![4, 2, 3]);
    }

    #[test]
    fn a_full_buffer_holds_frames_and_wakes_the_bucket_once_it_drains() {
        let c = paced(true);
        let mut mac = Mac::new(SimTime::ZERO, c.sender);
        for seq in 0..4 {
            assert!(mac
                .admit(frame(seq, 1_500), SendClass::Data, c.sender)
                .is_none());
        }
        // Two 1.5 KB frames fill the 4 KB buffer; the third must wait.
        let (offers, last) = drain(&mut mac, &c, SimTime::ZERO);
        assert_eq!(offers.len(), 2);
        assert!(
            matches!(last, Release::Hold),
            "backpressure holds, never drops"
        );
        assert_eq!(mac.depths(), (3_000, 3_000));
        assert!(mac.wants_air());
        let (_, wake) = mac.dequeue().expect("buffered frame");
        assert!(wake, "the drained buffer wakes the waiting bucket");
        assert!(!mac.wants_air(), "the radio is busy");
        // The wake is pending: a second dequeue does not schedule another.
        assert!(mac.tx_done());
        let (_, wake) = mac.dequeue().expect("buffered frame");
        assert!(!wake);
        mac.bucket_woken();
        let (offers, _) = drain(&mut mac, &c, SimTime::from_secs_f64(1.0));
        assert_eq!(
            offers.len(),
            2,
            "both held frames fit once the buffer drained"
        );
        assert_eq!(mac.depths(), (0, 3_000));
    }

    #[test]
    fn raw_udp_overflow_drops_the_frame() {
        let mut c = paced(true);
        c.sender = SenderMode::RawUdp;
        let mut mac = Mac::new(SimTime::ZERO, c.sender);
        let mut dropped = Vec::new();
        for seq in 0..4 {
            let f = mac
                .admit(frame(seq, 1_500), SendClass::Data, c.sender)
                .expect("no bucket");
            if let Offer::Dropped(f) = mac.offer(f, false, &c.radio) {
                dropped.push(seq_of(&f));
            }
        }
        assert_eq!(dropped, vec![2, 3], "the buffer holds two 1.5 KB frames");
        assert_eq!(mac.depths(), (0, 3_000));
        assert!(matches!(mac.release(&c, SimTime::ZERO), Release::Hold));
    }

    #[test]
    fn contention_backs_off_then_defers_then_transmits() {
        let radio = RadioConfig::default();
        let now = SimTime::from_micros(1_000);
        let mut rng = SimRng::new(5);
        let busy = SimTime::from_micros(5_000);
        let (at, deferred) = contend(Some(busy), true, now, &radio, &mut rng).expect("busy");
        assert!(!deferred && at >= busy && at < busy + radio.backoff_max);
        let (at, deferred) = contend(None, false, now, &radio, &mut rng).expect("defer");
        assert!(deferred && at >= now && at < now + INITIAL_DEFER);
        assert_eq!(contend(None, true, now, &radio, &mut rng), None);
    }
}
