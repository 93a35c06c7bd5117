//! Causal session spans and critical-path delay decomposition.
//!
//! A *session* is one consumer-driven protocol exchange — a PDD discovery
//! round set, a PDR retrieval (CDI collection + chunk queries), or an MDR
//! baseline retrieval — bracketed by `SessionStarted` / `SessionFinished`
//! on the consumer node. This module rebuilds each session as a
//! **cross-node span**: starting from the consumer's correlation id
//! `(node, session)`, it follows the causal joins the emission sites
//! provide —
//!
//! - `QuerySent.session` ties a query id to the session (relays forward
//!   the *same* query id, so the flood joins for free);
//! - `ResponseSent.query` ties a response id back to the query it answers
//!   (chunk-response relays preserve the response id);
//! - `QuerySent.seq` / `ResponseSent.seq` tie protocol messages to their
//!   transport sequence numbers, which `TxStart.origin`/`.seq` carry down
//!   to every radio frame, linking `TxEnd`, per-receiver loss events and
//!   fault injections via the transmission id.
//!
//! The result is the full set of events — across every participating node
//! and layer — that belong to one retrieval, ordered by virtual time.
//!
//! # Critical-path decomposition
//!
//! [`critical_path`] walks a session's merged event chain and attributes
//! every inter-event gap to exactly one of five named components, so the
//! components **sum exactly** to the end-to-end session delay (this is
//! asserted by an integration test on a pinned seed):
//!
//! | component      | gap rule                                            |
//! |----------------|-----------------------------------------------------|
//! | retransmission | the *next* event is a retransmit or message failure |
//! |                | (the gap is the ack-timeout wait)                   |
//! | processing     | the *next* event is a protocol-level reception      |
//! |                | (the receiving stack is working)                    |
//! | airtime        | previous event is `TxStart` (frame on the air)      |
//! | contention     | previous event is `MacTry` (CSMA defer/backoff)     |
//! | queueing       | previous event handed data to transport/MAC         |
//! |                | (`*Sent`, `Retransmit`, mid-message `TxEnd`)        |
//! | processing     | everything else (deliveries, receptions, timers —   |
//! |                | a node is thinking or the protocol is waiting)      |
//!
//! `MacTry` carries no correlation id (the MAC doesn't know which message
//! a slot belongs to), so MAC attempts are joined by participant node and
//! session time window — exact for the paper's scenarios where a node
//! serves one session at a time, and a documented approximation when
//! concurrent sessions share a radio.

use crate::event::{Phase, TraceEvent, TraceKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a slice of session delay went. Order is render order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DelayComponent {
    /// Node-local protocol work and protocol-level waiting (engine steps,
    /// response assembly, inter-round gaps).
    Processing,
    /// Time between handing a message to transport/MAC and its frames
    /// reaching the air (leaky-bucket pacing, fragment serialization).
    Queueing,
    /// CSMA sense–defer–backoff time.
    Contention,
    /// Frames physically on the air.
    Airtime,
    /// Ack-timeout waits preceding retransmissions or message failure.
    Retransmission,
}

impl DelayComponent {
    /// All components in render order.
    pub const ALL: [DelayComponent; 5] = [
        DelayComponent::Processing,
        DelayComponent::Queueing,
        DelayComponent::Contention,
        DelayComponent::Airtime,
        DelayComponent::Retransmission,
    ];

    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DelayComponent::Processing => "processing",
            DelayComponent::Queueing => "queueing",
            DelayComponent::Contention => "contention",
            DelayComponent::Airtime => "airtime",
            DelayComponent::Retransmission => "retransmission",
        }
    }
}

/// One reconstructed cross-node session span.
#[derive(Debug, Clone)]
pub struct SessionSpan {
    /// Consumer node that started the session.
    pub node: u32,
    /// Per-node session sequence number (`(node, session)` is unique).
    pub session: u64,
    /// Protocol phase (`Pdd`, `Pdr` or `Mdr`).
    pub phase: Phase,
    /// `SessionStarted` timestamp (virtual µs).
    pub start_us: u64,
    /// `SessionFinished` timestamp; `None` if the session never finished
    /// (the shape a recall violation dump has).
    pub finish_us: Option<u64>,
    /// Rounds / query waves issued.
    pub rounds: u64,
    /// Entries discovered or chunks received.
    pub items: u64,
    /// Every event joined to this session, across all nodes and layers,
    /// in trace (= virtual-time) order.
    pub events: Vec<TraceEvent>,
    /// Nodes that emitted at least one joined event, sorted.
    pub participants: Vec<u32>,
}

impl SessionSpan {
    /// End of the decomposition window: finish time, or the last joined
    /// event for an unfinished session.
    #[must_use]
    pub(crate) fn end_us(&self) -> u64 {
        self.finish_us
            .or_else(|| self.events.last().map(|e| e.at_us))
            .unwrap_or(self.start_us)
    }

    /// Total decomposed delay (`end - start`).
    #[must_use]
    pub fn span_us(&self) -> u64 {
        self.end_us().saturating_sub(self.start_us)
    }
}

/// A session's delay split into the five [`DelayComponent`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelayBreakdown {
    /// µs attributed to each component, indexed by [`DelayComponent::ALL`]
    /// order.
    pub us: [u64; 5],
}

impl DelayBreakdown {
    /// µs attributed to one component.
    #[must_use]
    pub fn get(&self, c: DelayComponent) -> u64 {
        self.us[DelayComponent::ALL
            .iter()
            .position(|&x| x == c)
            .expect("component in ALL")]
    }

    /// Sum of all components — equals the session's `span_us` exactly.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.us.iter().sum()
    }
}

/// Which component the gap *ending* at `next` belongs to, given the event
/// that opened the gap.
fn classify_gap(prev: &TraceKind, next: &TraceKind) -> DelayComponent {
    // The wait before a retransmission (or terminal failure) is the ack
    // timeout, whatever event happened to precede it.
    if matches!(
        next,
        TraceKind::Retransmit { .. } | TraceKind::MessageFailed { .. }
    ) {
        return DelayComponent::Retransmission;
    }
    // A gap ending in a protocol-level reception is the receiving stack
    // working (reassembly, engine step scheduling) — processing even when
    // the sender's last event (e.g. a final `TxEnd`) would read as
    // queueing.
    if matches!(
        next,
        TraceKind::QueryReceived { .. }
            | TraceKind::ResponseReceived { .. }
            | TraceKind::MessageDelivered { .. }
    ) {
        return DelayComponent::Processing;
    }
    match prev {
        TraceKind::TxStart { .. } => DelayComponent::Airtime,
        TraceKind::MacTry { .. } => DelayComponent::Contention,
        TraceKind::QuerySent { .. }
        | TraceKind::ResponseSent { .. }
        | TraceKind::MessageSent { .. }
        | TraceKind::AckSent { .. }
        | TraceKind::Retransmit { .. }
        | TraceKind::TxEnd { .. }
        | TraceKind::QueueDepth { .. } => DelayComponent::Queueing,
        _ => DelayComponent::Processing,
    }
}

/// Decomposes one session's delay into the five components (module docs).
/// The components sum exactly to [`SessionSpan::span_us`].
#[must_use]
pub fn critical_path(span: &SessionSpan) -> DelayBreakdown {
    let mut out = DelayBreakdown::default();
    let mut add = |c: DelayComponent, us: u64| {
        out.us[DelayComponent::ALL
            .iter()
            .position(|&x| x == c)
            .expect("component in ALL")] += us;
    };
    let end = span.end_us();
    let mut prev_at = span.start_us;
    let mut prev_kind: &TraceKind = &TraceKind::SessionStarted {
        session: span.session,
    };
    for ev in &span.events {
        let at = ev.at_us.clamp(span.start_us, end);
        let gap = at.saturating_sub(prev_at);
        if gap > 0 {
            add(classify_gap(prev_kind, &ev.kind), gap);
        }
        prev_at = prev_at.max(at);
        prev_kind = &ev.kind;
    }
    // Tail: from the last joined event to the session end (e.g. the
    // finishing timer check on the consumer).
    let tail = end.saturating_sub(prev_at);
    if tail > 0 {
        add(
            classify_gap(
                prev_kind,
                &TraceKind::SessionFinished {
                    session: span.session,
                    delay_us: 0,
                    rounds: 0,
                    items: 0,
                },
            ),
            tail,
        );
    }
    out
}

/// Reconstructs every session span in a trace (module docs). Sessions are
/// returned in start order.
#[must_use]
pub fn sessions(events: &[TraceEvent]) -> Vec<SessionSpan> {
    type Key = (u32, u64); // (consumer node, session seq)

    let mut spans: BTreeMap<Key, SessionSpan> = BTreeMap::new();
    // Join indexes, built up in the single forward (= causal) pass:
    let mut by_query: BTreeMap<u64, Key> = BTreeMap::new();
    let mut by_response: BTreeMap<u64, Key> = BTreeMap::new();
    let mut by_message: BTreeMap<(u64, u64), Key> = BTreeMap::new(); // (origin, seq)
    let mut by_tx: BTreeMap<u64, Key> = BTreeMap::new();

    let push = |spans: &mut BTreeMap<Key, SessionSpan>, key: Key, ev: &TraceEvent| {
        if let Some(span) = spans.get_mut(&key) {
            span.events.push(ev.clone());
            if ev.node != u32::MAX && !span.participants.contains(&ev.node) {
                span.participants.push(ev.node);
            }
        }
    };

    for ev in events {
        match &ev.kind {
            TraceKind::SessionStarted { session } => {
                let key = (ev.node, *session);
                spans.insert(
                    key,
                    SessionSpan {
                        node: ev.node,
                        session: *session,
                        phase: ev.phase,
                        start_us: ev.at_us,
                        finish_us: None,
                        rounds: 0,
                        items: 0,
                        events: Vec::new(),
                        participants: vec![ev.node],
                    },
                );
            }
            TraceKind::SessionFinished {
                session,
                rounds,
                items,
                ..
            } => {
                if let Some(span) = spans.get_mut(&(ev.node, *session)) {
                    span.finish_us = Some(ev.at_us);
                    span.rounds = *rounds;
                    span.items = *items;
                }
            }
            TraceKind::QuerySent {
                query,
                session,
                seq,
            } => {
                // Consumer origination names its session; relays forward
                // the same query id with session = 0 and join through the
                // index the origination created.
                let key = if *session != 0 {
                    let key = (ev.node, *session);
                    by_query.insert(*query, key);
                    Some(key)
                } else {
                    by_query.get(query).copied()
                };
                if let Some(key) = key {
                    by_message.insert((u64::from(ev.node), *seq), key);
                    push(&mut spans, key, ev);
                }
            }
            TraceKind::QueryReceived { query, .. } => {
                if let Some(&key) = by_query.get(query) {
                    push(&mut spans, key, ev);
                }
            }
            TraceKind::ResponseSent {
                response,
                query,
                seq,
            } => {
                // Answering a known query names the session; relays carry
                // the preserved response id (query = 0) and join through
                // the index the original answer created.
                let key = by_query
                    .get(query)
                    .or_else(|| by_response.get(response))
                    .copied();
                if let Some(key) = key {
                    by_response.insert(*response, key);
                    by_message.insert((u64::from(ev.node), *seq), key);
                    push(&mut spans, key, ev);
                }
            }
            TraceKind::ResponseReceived { response, .. } => {
                if let Some(&key) = by_response.get(response) {
                    push(&mut spans, key, ev);
                }
            }
            TraceKind::MessageSent { seq, .. }
            | TraceKind::MessageAcked { seq }
            | TraceKind::MessageFailed { seq }
            | TraceKind::Retransmit { seq, .. } => {
                if let Some(&key) = by_message.get(&(u64::from(ev.node), *seq)) {
                    push(&mut spans, key, ev);
                }
            }
            TraceKind::MessageDelivered { origin, seq, .. }
            | TraceKind::AckSent { origin, seq, .. } => {
                if let Some(&key) = by_message.get(&(*origin, *seq)) {
                    push(&mut spans, key, ev);
                }
            }
            TraceKind::TxStart {
                tx, origin, seq, ..
            } => {
                if let Some(&key) = by_message.get(&(*origin, *seq)) {
                    by_tx.insert(*tx, key);
                    push(&mut spans, key, ev);
                }
            }
            TraceKind::TxEnd { tx }
            | TraceKind::FrameDelivered { tx, .. }
            | TraceKind::FrameCollided { tx }
            | TraceKind::FrameLostRandom { tx }
            | TraceKind::FrameHalfDuplex { tx }
            | TraceKind::FaultCut { tx }
            | TraceKind::FaultDropped { tx }
            | TraceKind::FaultDelayed { tx }
            | TraceKind::FaultDuplicated { tx } => {
                if let Some(&key) = by_tx.get(tx) {
                    push(&mut spans, key, ev);
                }
            }
            _ => {}
        }
    }

    let mut out: Vec<SessionSpan> = spans.into_values().collect();

    // Second pass: MacTry carries no correlation id — join by participant
    // node within the session window (module docs).
    for ev in events {
        if let TraceKind::MacTry { .. } = ev.kind {
            for span in &mut out {
                if span.participants.contains(&ev.node)
                    && ev.at_us >= span.start_us
                    && ev.at_us <= span.end_us()
                {
                    span.events.push(ev.clone());
                }
            }
        }
    }
    for span in &mut out {
        span.events.sort_by_key(|e| e.at_us);
        span.participants.sort_unstable();
    }
    out.sort_by_key(|s| (s.start_us, s.node, s.session));
    out
}

fn fmt_ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

/// Renders the session table (`pds-obs sessions`).
#[must_use]
pub fn render_sessions(events: &[TraceEvent]) -> String {
    let spans = sessions(events);
    let mut out = format!("sessions: {}\n", spans.len());
    let _ = writeln!(
        out,
        "  {:<14} {:<5} {:>10} {:>10} {:>7} {:>6} {:>6} {:>7} {:>6}",
        "session", "phase", "start_ms", "span_ms", "rounds", "items", "nodes", "events", "done"
    );
    for s in &spans {
        let _ = writeln!(
            out,
            "  n{:<4}#{:<8} {:<5} {:>10} {:>10} {:>7} {:>6} {:>6} {:>7} {:>6}",
            s.node,
            s.session,
            s.phase.name(),
            fmt_ms(s.start_us),
            fmt_ms(s.span_us()),
            s.rounds,
            s.items,
            s.participants.len(),
            s.events.len(),
            if s.finish_us.is_some() { "yes" } else { "NO" }
        );
    }
    out
}

/// Renders the critical-path decomposition (`pds-obs critical-path`):
/// per-session component table (each span's total included) and per-phase
/// aggregate shares.
#[must_use]
pub fn render_critical_path(events: &[TraceEvent]) -> String {
    let spans = sessions(events);
    let mut out = String::from("critical-path delay decomposition (ms):\n");
    let _ = writeln!(
        out,
        "  {:<14} {:<5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "session", "phase", "total", "proc", "queue", "cont", "air", "retx"
    );
    let mut by_phase: BTreeMap<Phase, DelayBreakdown> = BTreeMap::new();
    for s in &spans {
        let bd = critical_path(s);
        debug_assert_eq!(bd.total_us(), s.span_us(), "components must sum exactly");
        let _ = writeln!(
            out,
            "  n{:<4}#{:<8} {:<5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            s.node,
            s.session,
            s.phase.name(),
            fmt_ms(s.span_us()),
            fmt_ms(bd.get(DelayComponent::Processing)),
            fmt_ms(bd.get(DelayComponent::Queueing)),
            fmt_ms(bd.get(DelayComponent::Contention)),
            fmt_ms(bd.get(DelayComponent::Airtime)),
            fmt_ms(bd.get(DelayComponent::Retransmission)),
        );
        let e = by_phase.entry(s.phase).or_default();
        for (i, us) in bd.us.iter().enumerate() {
            e.us[i] += us;
        }
    }
    out.push('\n');
    out.push_str("aggregate share by phase:\n");
    for (phase, bd) in &by_phase {
        let total = bd.total_us().max(1);
        let _ = write!(out, "  {:<5}", phase.name());
        for (i, c) in DelayComponent::ALL.iter().enumerate() {
            let _ = write!(
                out,
                "  {} {:>5.1}%",
                c.name(),
                100.0 * bd.us[i] as f64 / total as f64
            );
        }
        out.push('\n');
    }
    out
}

/// Renders the causal narrative of a flight-recorder dump
/// (`pds-obs explain <dump>`): the most suspicious session — unfinished
/// if any, else the last to finish — as an annotated per-event story with
/// gap attributions, plus its delay breakdown.
#[must_use]
pub fn explain(events: &[TraceEvent]) -> String {
    let spans = sessions(events);
    let Some(span) = spans
        .iter()
        .find(|s| s.finish_us.is_none())
        .or_else(|| spans.last())
    else {
        let mut out = String::from("no sessions in dump; last events:\n");
        for ev in events.iter().rev().take(30).rev() {
            let _ = writeln!(out, "  {ev}");
        }
        return out;
    };
    let mut out = String::new();
    let status = match span.finish_us {
        Some(f) => format!("finished at {} ms", fmt_ms(f)),
        None => "NEVER FINISHED".to_string(),
    };
    let _ = writeln!(
        out,
        "session n{}#{} ({}): started {} ms, {status}, {} rounds, {} items, {} nodes involved",
        span.node,
        span.session,
        span.phase.name(),
        fmt_ms(span.start_us),
        span.rounds,
        span.items,
        span.participants.len()
    );
    let bd = critical_path(span);
    let _ = write!(out, "delay {} ms =", fmt_ms(span.span_us()));
    for (i, c) in DelayComponent::ALL.iter().enumerate() {
        let _ = write!(out, " {} {}", c.name(), fmt_ms(bd.us[i]));
    }
    out.push_str(" (ms)\n\nnarrative:\n");
    let mut prev_at = span.start_us;
    let mut prev_kind: Option<&TraceKind> = None;
    for ev in &span.events {
        let gap = ev.at_us.saturating_sub(prev_at);
        if gap > 0 {
            let c = classify_gap(
                prev_kind.unwrap_or(&TraceKind::SessionStarted {
                    session: span.session,
                }),
                &ev.kind,
            );
            let _ = writeln!(out, "       … {:>8} µs of {}", gap, c.name());
        }
        let _ = writeln!(out, "  {ev}");
        prev_at = prev_at.max(ev.at_us);
        prev_kind = Some(&ev.kind);
    }
    if span.finish_us.is_none() {
        out.push_str("  <session never finished — the trail above ends at the violation>\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, node: u32, phase: Phase, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at_us: at,
            node,
            phase,
            kind,
        }
    }

    /// A hand-built two-node exchange: consumer 0 starts a PDR session,
    /// sends query 100 (seq 1), provider 1 answers with response 200
    /// (seq 5), consumer finishes.
    fn tiny_session() -> Vec<TraceEvent> {
        use TraceKind as K;
        vec![
            ev(1000, 0, Phase::Pdr, K::SessionStarted { session: 1 }),
            ev(
                1100,
                0,
                Phase::Pdr,
                K::QuerySent {
                    query: 100,
                    session: 1,
                    seq: 1,
                },
            ),
            ev(1150, 0, Phase::Radio, K::MacTry { deferred: false }),
            ev(
                1200,
                0,
                Phase::Radio,
                K::TxStart {
                    tx: 50,
                    origin: 0,
                    seq: 1,
                    bytes: 120,
                    class: 2,
                },
            ),
            ev(2200, 0, Phase::Kernel, K::TxEnd { tx: 50 }),
            ev(
                2200,
                1,
                Phase::Radio,
                K::FrameDelivered { tx: 50, bytes: 120 },
            ),
            ev(
                2300,
                1,
                Phase::Pdr,
                K::QueryReceived {
                    query: 100,
                    from: 0,
                },
            ),
            ev(
                2800,
                1,
                Phase::Pdr,
                K::ResponseSent {
                    response: 200,
                    query: 100,
                    seq: 5,
                },
            ),
            ev(
                3000,
                1,
                Phase::Radio,
                K::TxStart {
                    tx: 51,
                    origin: 1,
                    seq: 5,
                    bytes: 900,
                    class: 2,
                },
            ),
            ev(5000, 1, Phase::Kernel, K::TxEnd { tx: 51 }),
            ev(
                5100,
                0,
                Phase::Pdr,
                K::ResponseReceived {
                    response: 200,
                    from: 1,
                },
            ),
            ev(
                5600,
                0,
                Phase::Pdr,
                K::SessionFinished {
                    session: 1,
                    delay_us: 4600,
                    rounds: 1,
                    items: 1,
                },
            ),
        ]
    }

    #[test]
    fn reconstructs_cross_node_span() {
        let spans = sessions(&tiny_session());
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.node, s.session), (0, 1));
        assert_eq!(s.phase, Phase::Pdr);
        assert_eq!(s.participants, vec![0, 1]);
        assert_eq!(s.start_us, 1000);
        assert_eq!(s.finish_us, Some(5600));
        assert_eq!(s.span_us(), 4600);
        // Every non-bracket event joined (11 listed + MacTry; brackets are
        // not members of `events`... SessionStarted/Finished are not pushed).
        assert_eq!(s.events.len(), 10);
        assert_eq!(s.items, 1);
    }

    #[test]
    fn components_sum_exactly_to_span() {
        let spans = sessions(&tiny_session());
        let bd = critical_path(&spans[0]);
        assert_eq!(bd.total_us(), spans[0].span_us());
        // Airtime = 1000 (tx 50) + 2000 (tx 51).
        assert_eq!(bd.get(DelayComponent::Airtime), 3000);
        // Contention = MacTry→TxStart gap.
        assert_eq!(bd.get(DelayComponent::Contention), 50);
        // Queueing = QuerySent→MacTry (50) + ResponseSent→TxStart (200).
        assert_eq!(bd.get(DelayComponent::Queueing), 250);
        // Processing = the rest.
        assert_eq!(bd.get(DelayComponent::Processing), 1300);
        assert_eq!(bd.get(DelayComponent::Retransmission), 0);
    }

    #[test]
    fn retransmission_wait_is_attributed_to_retx() {
        use TraceKind as K;
        let mut events = tiny_session();
        // A zero-gap transport event joins without shifting any component.
        events.insert(
            5,
            ev(
                2200,
                0,
                Phase::Transport,
                K::MessageSent {
                    seq: 1,
                    bytes: 120,
                    class: 2,
                },
            ),
        );
        let spans = sessions(&events);
        let bd = critical_path(&spans[0]);
        assert_eq!(bd.total_us(), spans[0].span_us());

        let mut events2 = tiny_session();
        events2.insert(
            5,
            ev(
                2400,
                0,
                Phase::Transport,
                K::Retransmit { seq: 1, frames: 1 },
            ),
        );
        let spans2 = sessions(&events2);
        let bd2 = critical_path(&spans2[0]);
        assert_eq!(bd2.total_us(), spans2[0].span_us());
        // Gap 2300→2400 now ends at a Retransmit → retransmission.
        assert_eq!(bd2.get(DelayComponent::Retransmission), 100);
    }

    #[test]
    fn relayed_queries_and_responses_join_by_id() {
        use TraceKind as K;
        let events = vec![
            ev(0, 0, Phase::Pdd, K::SessionStarted { session: 3 }),
            ev(
                10,
                0,
                Phase::Pdd,
                K::QuerySent {
                    query: 7,
                    session: 3,
                    seq: 1,
                },
            ),
            // Relay forwards the same query id, session unknown (0).
            ev(
                50,
                5,
                Phase::Pdd,
                K::QuerySent {
                    query: 7,
                    session: 0,
                    seq: 9,
                },
            ),
            // Provider answers the query.
            ev(
                80,
                6,
                Phase::Pdd,
                K::ResponseSent {
                    response: 40,
                    query: 7,
                    seq: 2,
                },
            ),
            // Relay forwards the response (preserved id, query unknown).
            ev(
                120,
                5,
                Phase::Pdd,
                K::ResponseSent {
                    response: 40,
                    query: 0,
                    seq: 10,
                },
            ),
            ev(
                150,
                0,
                Phase::Pdd,
                K::ResponseReceived {
                    response: 40,
                    from: 5,
                },
            ),
            ev(
                200,
                0,
                Phase::Pdd,
                K::SessionFinished {
                    session: 3,
                    delay_us: 200,
                    rounds: 1,
                    items: 1,
                },
            ),
        ];
        let spans = sessions(&events);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].participants, vec![0, 5, 6]);
        assert_eq!(spans[0].events.len(), 5);
    }

    #[test]
    fn unfinished_sessions_are_flagged_and_explained() {
        let mut events = tiny_session();
        events.pop(); // drop SessionFinished
        let spans = sessions(&events);
        assert_eq!(spans[0].finish_us, None);
        assert_eq!(spans[0].span_us(), 5100 - 1000);
        let table = render_sessions(&events);
        assert!(table.contains("NO"), "{table}");
        let story = explain(&events);
        assert!(story.contains("NEVER FINISHED"), "{story}");
        assert!(story.contains("narrative"), "{story}");
    }

    #[test]
    fn renders_decomposition_tables() {
        let events = tiny_session();
        let s = render_critical_path(&events);
        assert!(s.contains("critical-path delay decomposition"), "{s}");
        assert!(s.contains("aggregate share by phase"), "{s}");
        // The span totals live in the table; `summary` alone owns the
        // "session delay CDF" title (the engine-reported delay).
        assert!(s.contains(&fmt_ms(sessions(&events)[0].span_us())), "{s}");
        assert!(!s.contains("session delay CDF"), "{s}");
        let story = explain(&events);
        assert!(story.contains("session n0#1 (pdr)"), "{story}");
        assert!(story.contains("airtime"), "{story}");
    }

    #[test]
    fn explain_without_sessions_falls_back_to_tail() {
        let events = vec![ev(5, 1, Phase::Kernel, TraceKind::Sweep)];
        let story = explain(&events);
        assert!(story.contains("no sessions in dump"), "{story}");
    }
}
