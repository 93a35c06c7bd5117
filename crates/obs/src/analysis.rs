//! Trace analysis: overhead breakdowns, delay CDFs, and trace diffing.
//!
//! Everything here operates on in-memory `Vec<TraceEvent>` slices as read
//! back by [`crate::json::read_trace_file`]; the `pds-obs` binary is a thin
//! argument parser over these functions so tests can exercise the exact
//! logic the CLI ships.

use crate::event::{Phase, TraceEvent, TraceKind};
use crate::metrics::MetricsRegistry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-phase message overhead extracted from a trace: on-air frames and
/// bytes attributed to each traffic class (the paper's Fig. 9 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseOverhead {
    /// Frames transmitted in this phase.
    pub frames: u64,
    /// On-air bytes transmitted in this phase.
    pub bytes: u64,
}

/// Sums on-air overhead per protocol phase from `TxStart` events.
#[must_use]
pub fn phase_overhead(events: &[TraceEvent]) -> BTreeMap<Phase, PhaseOverhead> {
    let mut out: BTreeMap<Phase, PhaseOverhead> = BTreeMap::new();
    for ev in events {
        if let TraceKind::TxStart { bytes, class, .. } = ev.kind {
            let e = out.entry(Phase::from_class(class as u8)).or_default();
            e.frames += 1;
            e.bytes += bytes;
        }
    }
    out
}

/// Transport-level message delays (submit → first complete delivery) in
/// virtual µs, in trace order.
#[must_use]
pub fn message_delays_us(events: &[TraceEvent]) -> Vec<u64> {
    // The registry's histogram buckets are log2-coarse; walk the trace
    // directly for exact per-message samples.
    let mut out = Vec::new();
    let mut open: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            TraceKind::MessageSent { seq, .. } => {
                open.insert((u64::from(ev.node), seq), ev.at_us);
            }
            TraceKind::MessageDelivered { origin, seq, .. } => {
                if let Some(sent) = open.remove(&(origin, seq)) {
                    out.push(ev.at_us.saturating_sub(sent));
                }
            }
            _ => {}
        }
    }
    out
}

/// Per-phase session delays (the paper's discovery / retrieval latency) in
/// virtual µs, in trace order.
#[must_use]
pub fn session_delays_us(events: &[TraceEvent]) -> BTreeMap<Phase, Vec<u64>> {
    let mut out: BTreeMap<Phase, Vec<u64>> = BTreeMap::new();
    for ev in events {
        if let TraceKind::SessionFinished { delay_us, .. } = ev.kind {
            out.entry(ev.phase).or_default().push(delay_us);
        }
    }
    out
}

/// Empirical CDF of `samples`: sorted `(value, cumulative_fraction)` pairs.
#[must_use]
pub fn cdf(samples: &[u64]) -> Vec<(u64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// The first point where two traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based index into both traces of the first differing event.
    pub index: usize,
    /// Event at `index` in the left trace (`None` = left ended first).
    pub left: Option<TraceEvent>,
    /// Event at `index` in the right trace (`None` = right ended first).
    pub right: Option<TraceEvent>,
}

/// Finds the first index at which the traces differ, or `None` when they
/// are identical (same events, same order, same length).
#[must_use]
pub fn first_divergence(left: &[TraceEvent], right: &[TraceEvent]) -> Option<Divergence> {
    let shared = left.len().min(right.len());
    for i in 0..shared {
        if left[i] != right[i] {
            return Some(Divergence {
                index: i,
                left: Some(left[i].clone()),
                right: Some(right[i].clone()),
            });
        }
    }
    if left.len() != right.len() {
        return Some(Divergence {
            index: shared,
            left: left.get(shared).cloned(),
            right: right.get(shared).cloned(),
        });
    }
    None
}

/// Renders a divergence with up to `context` preceding (shared) events —
/// the shape a replay-digest mismatch investigation starts from.
#[must_use]
pub fn render_divergence(
    left: &[TraceEvent],
    _right: &[TraceEvent],
    d: &Divergence,
    context: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "first divergence at event #{}", d.index);
    let start = d.index.saturating_sub(context);
    for (i, ev) in left.iter().enumerate().take(d.index).skip(start) {
        let _ = writeln!(out, "  #{i} both  {ev}");
    }
    match &d.left {
        Some(ev) => {
            let _ = writeln!(out, "  #{} left  {ev}", d.index);
        }
        None => {
            let _ = writeln!(out, "  #{} left  <trace ends>", d.index);
        }
    }
    match &d.right {
        Some(ev) => {
            let _ = writeln!(out, "  #{} right {ev}", d.index);
        }
        None => {
            let _ = writeln!(out, "  #{} right <trace ends>", d.index);
        }
    }
    out
}

/// Renders the per-phase overhead table.
#[must_use]
pub fn render_overhead(events: &[TraceEvent]) -> String {
    let table = phase_overhead(events);
    let total_bytes: u64 = table.values().map(|e| e.bytes).sum();
    let mut out = String::from("on-air overhead by phase:\n");
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>12} {:>7}",
        "phase", "frames", "bytes", "share"
    );
    for (phase, e) in &table {
        let share = if total_bytes == 0 {
            0.0
        } else {
            100.0 * e.bytes as f64 / total_bytes as f64
        };
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>12} {:>6.1}%",
            phase.name(),
            e.frames,
            e.bytes,
            share
        );
    }
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>12}",
        "total",
        table.values().map(|e| e.frames).sum::<u64>(),
        total_bytes
    );
    out
}

/// Renders an ASCII CDF of `samples` (virtual µs) with ~`rows` quantile
/// rows.
#[must_use]
pub fn render_cdf(title: &str, samples: &[u64], rows: usize) -> String {
    let mut out = format!("{title} (n={}):\n", samples.len());
    let curve = cdf(samples);
    if curve.is_empty() {
        out.push_str("  <no samples>\n");
        return out;
    }
    let rows = rows.max(2);
    let width = 40usize;
    for r in 0..=rows {
        let q = r as f64 / rows as f64;
        // Value at this cumulative fraction.
        let idx = ((q * (curve.len() - 1) as f64).round() as usize).min(curve.len() - 1);
        let (v, frac) = curve[idx];
        let bar = "#".repeat((frac * width as f64).round() as usize);
        let _ = writeln!(out, "  p{:<5.1} {:>12} µs |{bar}", q * 100.0, v);
    }
    out
}

/// Renders the full summary: event counts, overhead table, delay CDFs and
/// the aggregated metrics registry.
#[must_use]
pub fn render_summary(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace: {} events", events.len());
    if let (Some(first), Some(last)) = (events.first(), events.last()) {
        let _ = writeln!(
            out,
            "span : {} µs → {} µs  ({} µs of virtual time)",
            first.at_us,
            last.at_us,
            last.at_us.saturating_sub(first.at_us)
        );
    }
    // Event-kind census, sorted by name.
    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in events {
        *census.entry(ev.kind.name()).or_insert(0) += 1;
    }
    out.push_str("events by kind:\n");
    for (kind_name, count) in &census {
        let _ = writeln!(out, "  {kind_name:<20} {count}");
    }
    out.push('\n');
    out.push_str(&render_overhead(events));
    out.push('\n');
    let delays = message_delays_us(events);
    if !delays.is_empty() {
        out.push_str(&render_cdf("message delay CDF", &delays, 10));
        out.push('\n');
    }
    for (phase, samples) in session_delays_us(events) {
        out.push_str(&render_cdf(
            &format!("{} session delay CDF", phase.name()),
            &samples,
            10,
        ));
        out.push('\n');
    }
    out.push_str(&MetricsRegistry::from_trace(events).render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, node: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at_us: at,
            node,
            phase: Phase::Kernel,
            kind,
        }
    }

    fn tx(at: u64, node: u32, bytes: u64, class: u64) -> TraceEvent {
        TraceEvent {
            at_us: at,
            node,
            phase: Phase::Radio,
            kind: TraceKind::TxStart {
                tx: at,
                origin: u64::from(node),
                seq: at,
                bytes,
                class,
            },
        }
    }

    #[test]
    fn overhead_splits_by_class() {
        let events = vec![
            tx(1, 0, 100, 1),
            tx(2, 0, 200, 1),
            tx(3, 1, 50, 2),
            tx(4, 2, 10, 0),
        ];
        let table = phase_overhead(&events);
        assert_eq!(table[&Phase::Pdd].frames, 2);
        assert_eq!(table[&Phase::Pdd].bytes, 300);
        assert_eq!(table[&Phase::Pdr].bytes, 50);
        assert_eq!(table[&Phase::Other].bytes, 10);
        let rendered = render_overhead(&events);
        assert!(rendered.contains("pdd"), "{rendered}");
        assert!(rendered.contains("360"), "total bytes: {rendered}");
    }

    #[test]
    fn cdf_is_sorted_and_normalized() {
        let c = cdf(&[30, 10, 20, 20]);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0].0, 10);
        assert_eq!(c[3].0, 30);
        assert!((c[3].1 - 1.0).abs() < 1e-12);
        assert!(cdf(&[]).is_empty());
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let a = vec![ev(1, 0, TraceKind::NodeStart), ev(2, 1, TraceKind::Sweep)];
        assert_eq!(first_divergence(&a, &a.clone()), None);
    }

    #[test]
    fn divergence_reports_first_differing_event() {
        let a = vec![
            ev(1, 0, TraceKind::NodeStart),
            ev(5, 0, TraceKind::TimerFired { timer: 1 }),
            ev(9, 0, TraceKind::Sweep),
        ];
        let mut b = a.clone();
        b[1] = ev(6, 0, TraceKind::TimerFired { timer: 1 });
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.left.as_ref().map(|e| e.at_us), Some(5));
        assert_eq!(d.right.as_ref().map(|e| e.at_us), Some(6));
        let rendered = render_divergence(&a, &b, &d, 2);
        assert!(
            rendered.contains("first divergence at event #1"),
            "{rendered}"
        );
        assert!(rendered.contains("left"), "{rendered}");
    }

    #[test]
    fn length_mismatch_is_a_divergence() {
        let a = vec![ev(1, 0, TraceKind::NodeStart)];
        let b = vec![ev(1, 0, TraceKind::NodeStart), ev(2, 0, TraceKind::Sweep)];
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.index, 1);
        assert!(d.left.is_none());
        assert_eq!(d.right.as_ref().map(|e| e.at_us), Some(2));
        let rendered = render_divergence(&a, &b, &d, 4);
        assert!(rendered.contains("<trace ends>"), "{rendered}");
    }

    #[test]
    fn message_delay_pairs_sent_and_delivered() {
        let events = vec![
            TraceEvent {
                at_us: 100,
                node: 3,
                phase: Phase::Transport,
                kind: TraceKind::MessageSent {
                    seq: 7,
                    bytes: 64,
                    class: 2,
                },
            },
            TraceEvent {
                at_us: 450,
                node: 8,
                phase: Phase::Transport,
                kind: TraceKind::MessageDelivered {
                    origin: 3,
                    seq: 7,
                    bytes: 64,
                    overheard: false,
                },
            },
        ];
        assert_eq!(message_delays_us(&events), vec![350]);
    }

    #[test]
    fn summary_renders_all_sections() {
        let mut events = vec![tx(1, 0, 100, 1)];
        events.push(TraceEvent {
            at_us: 900,
            node: 0,
            phase: Phase::Pdd,
            kind: TraceKind::SessionFinished {
                session: 1,
                delay_us: 800,
                rounds: 2,
                items: 5,
            },
        });
        let s = render_summary(&events);
        assert!(s.contains("2 events"), "{s}");
        assert!(s.contains("tx_start"), "{s}");
        assert!(s.contains("pdd session delay CDF"), "{s}");
    }
}
