//! The trace event vocabulary.
//!
//! Events are deliberately flat — virtual timestamp, node, phase, kind plus
//! a handful of integer payload ids — so they serialize to one JSONL object
//! each and can be compared field-wise by the `diff` analysis. All
//! timestamps are *virtual* microseconds; no wall-clock value ever enters a
//! trace (DESIGN.md §8).

use crate::json::{self, Fields, ParseError};
use std::fmt;

/// Layer or protocol phase an event is attributed to.
///
/// `Pdd`/`Pdr`/`Mdr` carry the paper's Fig. 9 overhead decomposition;
/// `Kernel`/`Radio`/`Transport` attribute simulator-level events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Simulation-kernel events (the dispatch stream the replay digest
    /// folds).
    Kernel,
    /// Physical/MAC-layer events: transmissions, deliveries, losses.
    Radio,
    /// Reliable-transport events: messages, acks, retransmissions.
    Transport,
    /// Peer Data Discovery (metadata / small-data queries and responses).
    Pdd,
    /// Peer Data Retrieval (CDI collection and chunk retrieval).
    Pdr,
    /// The MDR baseline (multi-round chunk retrieval without CDI).
    Mdr,
    /// Unattributed traffic (e.g. non-PDS test applications).
    Other,
}

/// Traffic class byte carried by data frames so the radio layer can split
/// byte counters by protocol phase without understanding PDS messages.
pub mod class {
    /// Unclassified traffic (also acks and non-PDS applications).
    pub const OTHER: u8 = 0;
    /// PDD control traffic (discovery queries/responses).
    pub const PDD: u8 = 1;
    /// PDR traffic (CDI collection + chunk retrieval).
    pub const PDR: u8 = 2;
    /// MDR baseline traffic.
    pub const MDR: u8 = 3;
}

impl Phase {
    /// All phases, in canonical (sort) order.
    pub(crate) const ALL: [Phase; 7] = [
        Phase::Kernel,
        Phase::Radio,
        Phase::Transport,
        Phase::Pdd,
        Phase::Pdr,
        Phase::Mdr,
        Phase::Other,
    ];

    /// Stable lowercase name used in the JSONL schema.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Phase::Kernel => "kernel",
            Phase::Radio => "radio",
            Phase::Transport => "transport",
            Phase::Pdd => "pdd",
            Phase::Pdr => "pdr",
            Phase::Mdr => "mdr",
            Phase::Other => "other",
        }
    }

    /// Inverse of [`Phase::name`].
    #[must_use]
    pub(crate) fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The frame traffic-class byte for this phase (see [`class`]).
    #[must_use]
    pub fn class(self) -> u8 {
        match self {
            Phase::Pdd => class::PDD,
            Phase::Pdr => class::PDR,
            Phase::Mdr => class::MDR,
            _ => class::OTHER,
        }
    }

    /// Maps a frame traffic-class byte back to its protocol phase.
    /// Unknown classes collapse to [`Phase::Other`].
    #[must_use]
    pub(crate) fn from_class(c: u8) -> Phase {
        match c {
            class::PDD => Phase::Pdd,
            class::PDR => Phase::Pdr,
            class::MDR => Phase::Mdr,
            _ => Phase::Other,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Declares the trace vocabulary once: each row is a variant, its stable
/// snake_case wire name and its ordered payload fields (`u64` or `bool`;
/// the field's identifier is its JSON key). The enum with its docs,
/// [`TraceKind::name`] and the JSONL field writer and reader
/// ([`crate::json`]) are all generated from this one table, so adding an
/// event kind is a one-site edit.
macro_rules! trace_kinds {
    ($(
        $(#[$vdoc:meta])*
        $variant:ident = $wire:literal $({
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty ),+ $(,)?
        })?
    ),+ $(,)?) => {
        /// What happened. Payload fields are raw integer ids so the crate
        /// stays a leaf dependency (no simulator types).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TraceKind {
            $(
                $(#[$vdoc])*
                $variant $({ $( $(#[$fdoc])* $field: $ty ),+ })?,
            )+
        }

        impl TraceKind {
            /// Stable snake_case name used in the JSONL schema.
            #[must_use]
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceKind::$variant $({ $($field: _),+ })? => $wire, )+
                }
            }

            /// Appends the payload as `,"field":value` pairs in
            /// declaration order.
            pub(crate) fn push_fields(&self, out: &mut String) {
                match self {
                    $( TraceKind::$variant $({ $($field),+ })? => {
                        $($( json::push_field(out, stringify!($field), $field); )+)?
                    } )+
                }
            }

            /// Rebuilds the kind named `kind` from a parsed trace line.
            pub(crate) fn from_fields(kind: &str, fields: &Fields<'_>) -> Result<Self, ParseError> {
                Ok(match kind {
                    $( $wire => TraceKind::$variant $({
                        $( $field: fields.get(stringify!($field))? ),+
                    })?, )+
                    other => return Err(json::err(format!("unknown event kind '{other}'"))),
                })
            }

            /// One instance of every kind, in declaration order, each
            /// payload field filled from its own `draw()` (round-trip
            /// and coverage tests).
            #[cfg(test)]
            pub(crate) fn each(mut draw: impl FnMut() -> u64) -> Vec<TraceKind> {
                vec![$(
                    TraceKind::$variant $({ $($field: json::Field::sample(draw())),+ })?
                ),+]
            }
        }
    };
}

trace_kinds! {
    // ---- kernel: mirrors the dispatched event stream ---------------------
    /// A node's `on_start` fired.
    NodeStart = "node_start",
    /// A MAC transmission attempt (`deferred` = second phase of
    /// sense–defer–transmit).
    MacTry = "mac_try" {
        /// Whether the initial random defer has already been served.
        deferred: bool,
    },
    /// A transmission's end event was dispatched.
    TxEnd = "tx_end" {
        /// Transmission id.
        tx: u64,
    },
    /// A leaky-bucket drain event fired.
    BucketDrain = "bucket_drain",
    /// A timer (application or transport) fired.
    TimerFired = "timer_fired" {
        /// Timer id within the node's table.
        timer: u64,
    },
    /// A scheduled control closure ran.
    Control = "control" {
        /// Control-closure id.
        ctrl: u64,
    },
    /// Periodic transport garbage collection ran.
    Sweep = "sweep",
    /// A fault-delayed or fault-duplicated reception event was dispatched
    /// (DST layer; only present when a fault plan is installed).
    FaultDeliver = "fault_deliver" {
        /// Pending-delivery id within the fault state.
        fault: u64,
    },

    // ---- radio -----------------------------------------------------------
    /// A frame went on the air. `node` is the sender.
    TxStart = "tx_start" {
        /// Transmission id.
        tx: u64,
        /// Originating node of the carried message (fragments are relayed
        /// verbatim, so this can differ from the transmitting `node` for
        /// acks; `origin#seq` keys the message across the whole trace).
        origin: u64,
        /// Per-origin sequence number of the carried message.
        seq: u64,
        /// On-air bytes.
        bytes: u64,
        /// Traffic class (see [`class`]).
        class: u64,
    },
    /// A frame reception succeeded at `node`.
    FrameDelivered = "frame_delivered" {
        /// Transmission id.
        tx: u64,
        /// On-air bytes received.
        bytes: u64,
    },
    /// A frame reception at `node` was lost to a collision.
    FrameCollided = "frame_collided" {
        /// Transmission id.
        tx: u64,
    },
    /// A frame reception at `node` was lost to baseline (fading) loss.
    FrameLostRandom = "frame_lost_random" {
        /// Transmission id.
        tx: u64,
    },
    /// A frame reception at `node` was missed because it was transmitting.
    FrameHalfDuplex = "frame_half_duplex" {
        /// Transmission id.
        tx: u64,
    },
    /// The OS UDP send buffer at `node` overflowed and dropped a frame.
    FrameDroppedOs = "frame_dropped_os" {
        /// Dropped frame's on-air bytes.
        bytes: u64,
    },
    /// OS send-buffer occupancy at `node` after an enqueue.
    QueueDepth = "queue_depth" {
        /// Bytes currently queued in the OS buffer.
        bytes: u64,
    },
    /// A reception at `node` was cut by an injected partition or
    /// byzantine-silence window (DST).
    FaultCut = "fault_cut" {
        /// Transmission id.
        tx: u64,
    },
    /// A reception at `node` was dropped by the injected extra-loss fault
    /// (DST).
    FaultDropped = "fault_dropped" {
        /// Transmission id.
        tx: u64,
    },
    /// A reception at `node` was diverted to a delayed delivery (DST).
    FaultDelayed = "fault_delayed" {
        /// Transmission id.
        tx: u64,
    },
    /// A reception at `node` was duplicated; a second copy will arrive
    /// later (DST).
    FaultDuplicated = "fault_duplicated" {
        /// Transmission id.
        tx: u64,
    },

    // ---- transport -------------------------------------------------------
    /// `node` submitted an application message for transmission.
    MessageSent = "message_sent" {
        /// Per-origin sequence number (message id = `node#seq`).
        seq: u64,
        /// Total wire bytes of the initial transmission (all fragments).
        bytes: u64,
        /// Traffic class of the message's frames.
        class: u64,
    },
    /// A complete message was delivered to `node`'s application.
    MessageDelivered = "message_delivered" {
        /// Originating node.
        origin: u64,
        /// Per-origin sequence number.
        seq: u64,
        /// Total wire bytes of the message.
        bytes: u64,
        /// Whether `node` merely overheard it.
        overheard: bool,
    },
    /// A reliable message from `node` was fully acknowledged.
    MessageAcked = "message_acked" {
        /// Per-origin sequence number.
        seq: u64,
    },
    /// A reliable message from `node` was abandoned after exhausting its
    /// retry budget.
    MessageFailed = "message_failed" {
        /// Per-origin sequence number.
        seq: u64,
    },
    /// `node` retransmitted the missing fragments of a message.
    Retransmit = "retransmit" {
        /// Per-origin sequence number.
        seq: u64,
        /// Fragments retransmitted in this attempt.
        frames: u64,
    },
    /// `node` transmitted a selective ack.
    AckSent = "ack_sent" {
        /// Origin of the acknowledged message.
        origin: u64,
        /// Per-origin sequence number of the acknowledged message.
        seq: u64,
        /// Ack frame wire bytes.
        bytes: u64,
    },

    // ---- protocol (phase = Pdd / Pdr / Mdr) ------------------------------
    /// `node` transmitted a PDS query.
    QuerySent = "query_sent" {
        /// Query id.
        query: u64,
        /// Consumer session this query drives (`(node, session)` keys the
        /// span tree); 0 when the query is a relay / flood forward rather
        /// than part of an own session.
        session: u64,
        /// Transport sequence number of the carrying message
        /// (`node#seq`), linking the query to its radio-level frames.
        seq: u64,
    },
    /// `node` received (and accepted for processing) a PDS query.
    QueryReceived = "query_received" {
        /// Query id.
        query: u64,
        /// Transmitting one-hop neighbor.
        from: u64,
    },
    /// `node` transmitted a PDS response.
    ResponseSent = "response_sent" {
        /// Response id.
        response: u64,
        /// Id of the query this response answers (0 = unknown, e.g. a
        /// batched relay serving several lingering queries at once).
        query: u64,
        /// Transport sequence number of the carrying message (`node#seq`).
        seq: u64,
    },
    /// `node` received a PDS response.
    ResponseReceived = "response_received" {
        /// Response id.
        response: u64,
        /// Transmitting one-hop neighbor.
        from: u64,
    },
    /// `node` started a consumer session (discovery or retrieval; the
    /// event's phase says which protocol).
    SessionStarted = "session_started" {
        /// Per-node session sequence number (correlates every
        /// session-scoped event; `(node, session)` is globally unique).
        session: u64,
    },
    /// `node`'s consumer session finished.
    SessionFinished = "session_finished" {
        /// Per-node session sequence number (see [`TraceKind::SessionStarted`]).
        session: u64,
        /// The paper's latency metric for the session, in virtual µs.
        delay_us: u64,
        /// Rounds (PDD/MDR) or query waves (PDR) issued.
        rounds: u64,
        /// Entries discovered or chunks received.
        items: u64,
    },
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual timestamp in microseconds.
    pub at_us: u64,
    /// Node the event is attributed to (`u32::MAX` = no node, e.g. a
    /// control closure or the periodic sweep).
    pub node: u32,
    /// Layer / protocol phase.
    pub phase: Phase,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.node == u32::MAX {
            write!(
                f,
                "[{:>12} µs]    -  {} {:?}",
                self.at_us, self.phase, self.kind
            )
        } else {
            write!(
                f,
                "[{:>12} µs] n{:<4} {} {:?}",
                self.at_us, self.node, self.phase, self.kind
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::parse(p.name()), Some(p));
        }
        assert_eq!(Phase::parse("bogus"), None);
    }

    #[test]
    fn class_mapping_round_trips_protocol_phases() {
        for p in [Phase::Pdd, Phase::Pdr, Phase::Mdr] {
            assert_eq!(Phase::from_class(p.class()), p);
        }
        assert_eq!(Phase::from_class(class::OTHER), Phase::Other);
        assert_eq!(Phase::from_class(250), Phase::Other);
    }

    #[test]
    fn display_is_compact() {
        let ev = TraceEvent {
            at_us: 1500,
            node: 3,
            phase: Phase::Radio,
            kind: TraceKind::TxStart {
                tx: 9,
                origin: 3,
                seq: 2,
                bytes: 1466,
                class: 1,
            },
        };
        let s = ev.to_string();
        assert!(s.contains("n3"), "{s}");
        assert!(s.contains("radio"), "{s}");
    }
}
