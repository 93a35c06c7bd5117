//! Per-phase metrics registry.
//!
//! Splits the simulator's global `Stats` struct by protocol phase: every
//! counter and histogram is keyed by `(name, phase)`, iterates in sorted
//! key order (BTreeMap — deterministic by construction), and measures
//! *virtual* time only. A registry is derived from a recorded trace
//! ([`MetricsRegistry::from_trace`]), which is how the bench report
//! snapshots one without threading a registry through the hot path.

use crate::event::{Phase, TraceEvent, TraceKind};
use pds_det::DetMap;
use std::collections::BTreeMap;

/// Histogram over virtual-time (or count) samples, with power-of-two
/// buckets. Integer-only: bucket math is exact and replay-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples with `bit_length(v) == i` (bucket 0 is
    /// exactly the value 0).
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(63)
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile: the geometric midpoint of the bucket holding
    /// the `q`-th sample (`q` in [0, 1]). Exact for the min/max ends up to
    /// bucket resolution (a factor of 2).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), at least 1.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                if i == 0 {
                    return 0;
                }
                let lower = 1u64 << (i - 1);
                let upper = if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
                return lower + (upper - lower) / 2;
            }
        }
        self.max
    }
}

/// Metric-name vocabulary (counters).
pub mod name {
    /// Frames put on the air.
    pub const FRAMES_SENT: &str = "frames_sent";
    /// On-air bytes transmitted.
    pub const BYTES_SENT: &str = "bytes_sent";
    /// Frame receptions delivered.
    pub const FRAMES_DELIVERED: &str = "frames_delivered";
    /// Frame receptions lost (collision + fading + half-duplex).
    pub const FRAMES_LOST: &str = "frames_lost";
    /// Frames dropped at the OS send buffer.
    pub const FRAMES_DROPPED_OS: &str = "frames_dropped_os";
    /// Application messages submitted.
    pub const MESSAGES_SENT: &str = "messages_sent";
    /// Complete messages delivered.
    pub const MESSAGES_DELIVERED: &str = "messages_delivered";
    /// Reliable messages abandoned.
    pub const MESSAGES_FAILED: &str = "messages_failed";
    /// Retransmission attempts.
    pub const RETRANSMISSIONS: &str = "retransmissions";
    /// PDS queries transmitted.
    pub const QUERIES_SENT: &str = "queries_sent";
    /// PDS responses transmitted.
    pub const RESPONSES_SENT: &str = "responses_sent";
    /// Consumer sessions finished.
    pub const SESSIONS_FINISHED: &str = "sessions_finished";
}

/// Metric-name vocabulary (histograms, all virtual-time µs unless noted).
pub mod hist {
    /// Transport message delay: submit → first complete delivery.
    pub const MESSAGE_DELAY_US: &str = "message_delay_us";
    /// Session delay (the paper's discovery/retrieval latency metric).
    pub const SESSION_DELAY_US: &str = "session_delay_us";
    /// Gap between successive query rounds of one consumer (retrieval
    /// round latency).
    pub const ROUND_GAP_US: &str = "round_gap_us";
    /// Retransmission attempts per reliable message (count, not µs).
    pub const RETRANS_PER_MSG: &str = "retrans_per_msg";
    /// OS send-buffer occupancy after each enqueue (bytes, not µs).
    pub const BUFFER_OCCUPANCY: &str = "buffer_occupancy_bytes";
}

/// The registry: sorted maps of counters and histograms, keyed by
/// `(name, phase)` — all nodes aggregated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<(&'static str, Phase), u64>,
    histograms: BTreeMap<(&'static str, Phase), Histogram>,
}

impl MetricsRegistry {
    fn inc(&mut self, phase: Phase, name: &'static str, by: u64) {
        *self.counters.entry((name, phase)).or_insert(0) += by;
    }

    fn observe(&mut self, phase: Phase, name: &'static str, v: u64) {
        self.histograms.entry((name, phase)).or_default().observe(v);
    }

    /// The histograms named `name`, per phase.
    #[cfg(test)]
    fn phase_histograms(&self, name: &str) -> BTreeMap<Phase, Histogram> {
        self.histograms
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(&(_, phase), h)| (phase, h.clone()))
            .collect()
    }

    /// Builds the standard registry from a recorded trace: per-phase
    /// traffic counters, message/session delay histograms, per-message
    /// retransmission counts, round gaps and buffer occupancy.
    #[must_use]
    pub fn from_trace(events: &[TraceEvent]) -> Self {
        let mut reg = Self::default();
        // Open transport sends awaiting their first delivery, keyed by
        // (origin, seq): value = (submit time, traffic class).
        let mut open_sends: DetMap<(u32, u64), (u64, u8)> = DetMap::default();
        // Retransmission attempts per open message.
        let mut retrans: DetMap<(u32, u64), u64> = DetMap::default();
        // Last query-round timestamp per (consumer, phase).
        let mut last_query: DetMap<(u32, Phase), u64> = DetMap::default();
        for ev in events {
            let n = ev.node;
            match &ev.kind {
                TraceKind::TxStart { bytes, class, .. } => {
                    let phase = Phase::from_class(*class as u8);
                    reg.inc(phase, name::FRAMES_SENT, 1);
                    reg.inc(phase, name::BYTES_SENT, *bytes);
                }
                TraceKind::FrameDelivered { .. } => {
                    reg.inc(Phase::Radio, name::FRAMES_DELIVERED, 1);
                }
                TraceKind::FrameCollided { .. }
                | TraceKind::FrameLostRandom { .. }
                | TraceKind::FrameHalfDuplex { .. } => {
                    reg.inc(Phase::Radio, name::FRAMES_LOST, 1);
                }
                TraceKind::FrameDroppedOs { .. } => {
                    reg.inc(Phase::Radio, name::FRAMES_DROPPED_OS, 1);
                }
                TraceKind::QueueDepth { bytes } => {
                    reg.observe(Phase::Radio, hist::BUFFER_OCCUPANCY, *bytes);
                }
                TraceKind::MessageSent { seq, class, .. } => {
                    let phase = Phase::from_class(*class as u8);
                    reg.inc(phase, name::MESSAGES_SENT, 1);
                    open_sends.insert((n, *seq), (ev.at_us, *class as u8));
                }
                TraceKind::MessageDelivered { origin, seq, .. } => {
                    reg.inc(Phase::Transport, name::MESSAGES_DELIVERED, 1);
                    let key = (*origin as u32, *seq);
                    if let Some(&(sent_at, class)) = open_sends.get(&key) {
                        reg.observe(
                            Phase::from_class(class),
                            hist::MESSAGE_DELAY_US,
                            ev.at_us.saturating_sub(sent_at),
                        );
                        // First delivery only: later receivers of the same
                        // message do not re-sample the delay.
                        open_sends.remove(&key);
                    }
                }
                TraceKind::MessageFailed { seq } => {
                    reg.inc(Phase::Transport, name::MESSAGES_FAILED, 1);
                    let c = retrans.remove(&(n, *seq)).unwrap_or(0);
                    reg.observe(Phase::Transport, hist::RETRANS_PER_MSG, c);
                }
                TraceKind::MessageAcked { seq } => {
                    let c = retrans.remove(&(n, *seq)).unwrap_or(0);
                    reg.observe(Phase::Transport, hist::RETRANS_PER_MSG, c);
                }
                TraceKind::Retransmit { seq, frames } => {
                    reg.inc(Phase::Transport, name::RETRANSMISSIONS, *frames);
                    *retrans.entry((n, *seq)).or_insert(0) += 1;
                }
                TraceKind::QuerySent { .. } => {
                    reg.inc(ev.phase, name::QUERIES_SENT, 1);
                    if let Some(&prev) = last_query.get(&(n, ev.phase)) {
                        reg.observe(ev.phase, hist::ROUND_GAP_US, ev.at_us.saturating_sub(prev));
                    }
                    last_query.insert((n, ev.phase), ev.at_us);
                }
                TraceKind::ResponseSent { .. } => {
                    reg.inc(ev.phase, name::RESPONSES_SENT, 1);
                }
                TraceKind::SessionFinished { delay_us, .. } => {
                    reg.inc(ev.phase, name::SESSIONS_FINISHED, 1);
                    reg.observe(ev.phase, hist::SESSION_DELAY_US, *delay_us);
                }
                _ => {}
            }
        }
        reg
    }

    /// Renders the summary table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("counters (all nodes):\n");
        for ((cname, phase), v) in &self.counters {
            out.push_str(&format!("  {cname:<22} {:<10} {v}\n", phase.name()));
        }
        out.push_str("histograms (all nodes):\n");
        for ((hname, phase), h) in &self.histograms {
            out.push_str(&format!(
                "  {hname:<22} {:<10} n={} min={} p50~{} p95~{} max={} mean={}\n",
                phase.name(),
                h.count(),
                h.min(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.max(),
                h.mean(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_moments() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 107);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 21);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) >= 64, "p100 lands in the 64..128 bucket");
    }

    #[test]
    fn histogram_quantile_is_monotone() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let mut prev = 0;
        for i in 0..=10 {
            let q = h.quantile(f64::from(i) / 10.0);
            assert!(q >= prev, "q({i}/10) = {q} < {prev}");
            prev = q;
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn registry_counts_and_totals() {
        let mut r = MetricsRegistry::default();
        r.inc(Phase::Pdd, name::FRAMES_SENT, 2);
        r.inc(Phase::Pdd, name::FRAMES_SENT, 3);
        r.inc(Phase::Pdr, name::FRAMES_SENT, 5);
        r.observe(Phase::Pdd, hist::SESSION_DELAY_US, 4);
        r.observe(Phase::Pdd, hist::SESSION_DELAY_US, 6);
        r.observe(Phase::Mdr, hist::ROUND_GAP_US, 1);
        assert_eq!(r.counters[&(name::FRAMES_SENT, Phase::Pdd)], 5);
        assert_eq!(r.counters[&(name::FRAMES_SENT, Phase::Pdr)], 5);
        let delays = r.phase_histograms(hist::SESSION_DELAY_US);
        assert_eq!(delays.len(), 1, "other names are filtered out");
        assert_eq!(delays[&Phase::Pdd].sum(), 10);
    }

    #[test]
    fn from_trace_builds_message_delay() {
        let events = vec![
            TraceEvent {
                at_us: 1000,
                node: 0,
                phase: Phase::Transport,
                kind: TraceKind::MessageSent {
                    seq: 1,
                    bytes: 500,
                    class: 1,
                },
            },
            TraceEvent {
                at_us: 3500,
                node: 4,
                phase: Phase::Transport,
                kind: TraceKind::MessageDelivered {
                    origin: 0,
                    seq: 1,
                    bytes: 500,
                    overheard: false,
                },
            },
        ];
        let reg = MetricsRegistry::from_trace(&events);
        let delays = reg.phase_histograms(hist::MESSAGE_DELAY_US);
        let h = delays.get(&Phase::Pdd).expect("delay sampled");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 2500);
        assert_eq!(reg.counters[&(name::MESSAGES_SENT, Phase::Pdd)], 1);
        assert_eq!(
            reg.counters[&(name::MESSAGES_DELIVERED, Phase::Transport)],
            1
        );
        assert!(reg.render().contains("message_delay_us"));
    }

    #[test]
    fn registry_iteration_is_sorted() {
        let mut r = MetricsRegistry::default();
        r.inc(Phase::Mdr, name::BYTES_SENT, 1);
        r.inc(Phase::Pdd, name::BYTES_SENT, 1);
        r.inc(Phase::Kernel, name::FRAMES_SENT, 1);
        let rendered = r.render();
        let rows: Vec<&str> = rendered.lines().filter(|l| l.starts_with("  ")).collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].contains("bytes_sent") && rows[0].contains("pdd"));
        assert!(rows[1].contains("bytes_sent") && rows[1].contains("mdr"));
        assert!(rows[2].contains("frames_sent") && rows[2].contains("kernel"));
    }
}
