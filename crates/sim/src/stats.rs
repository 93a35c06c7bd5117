//! Traffic counters.
//!
//! The paper's *message overhead* metric is "the number of bytes of all
//! messages" (§VI-A); [`Stats::bytes_sent`] counts every on-air byte —
//! data fragments, retransmissions and acks alike.

use crate::transport::{Frame, FrameKind};

/// On-air data bytes split by protocol phase (traffic class).
///
/// Carried by every data frame as a one-byte class tag (see
/// [`pds_obs::class`]); the radio layer buckets bytes here at the single
/// transmission-counting site, so the split is exact:
/// `total() == Stats::data_bytes_sent` always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBytes {
    /// PDD (discovery) traffic.
    pub pdd: u64,
    /// PDR (CDI collection + chunk retrieval) traffic.
    pub pdr: u64,
    /// MDR baseline traffic.
    pub mdr: u64,
    /// Unclassified traffic (non-PDS applications).
    pub other: u64,
}

impl PhaseBytes {
    /// Sum over all phases — equals the old undivided counter.
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.pdd + self.pdr + self.mdr + self.other
    }

    /// Adds `bytes` to the bucket for traffic class `class` (unknown
    /// classes count as `other`).
    pub(crate) fn add(&mut self, class: u8, bytes: u64) {
        match class {
            pds_obs::class::PDD => self.pdd += bytes,
            pds_obs::class::PDR => self.pdr += bytes,
            pds_obs::class::MDR => self.mdr += bytes,
            _ => self.other += bytes,
        }
    }

    /// Bucket-wise difference `self - earlier` (saturating).
    #[must_use]
    pub(crate) fn since(&self, earlier: &PhaseBytes) -> PhaseBytes {
        PhaseBytes {
            pdd: self.pdd.saturating_sub(earlier.pdd),
            pdr: self.pdr.saturating_sub(earlier.pdr),
            mdr: self.mdr.saturating_sub(earlier.mdr),
            other: self.other.saturating_sub(earlier.other),
        }
    }
}

/// Global traffic counters for a [`World`](crate::World).
///
/// Snapshot with `clone()` before a measurement window and subtract with
/// [`Stats::since`] after it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Frames put on the air (including retransmissions and acks).
    pub frames_sent: u64,
    /// Frame receptions delivered up to the transport (per receiver).
    pub frames_delivered: u64,
    /// Frame receptions lost to overlapping transmissions.
    pub frames_collided: u64,
    /// Frame receptions lost to the baseline (fading) loss probability.
    pub frames_lost_random: u64,
    /// Frame receptions missed because the receiver was itself transmitting.
    pub frames_half_duplex: u64,
    /// Frames dropped at the OS UDP send buffer (overflow).
    pub frames_dropped_os: u64,
    /// Total on-air bytes (the paper's message-overhead metric).
    pub bytes_sent: u64,
    /// On-air bytes of data frames only.
    pub data_bytes_sent: u64,
    /// `data_bytes_sent` split by protocol phase (the paper's Fig. 9
    /// overhead decomposition); `data_bytes_by_phase.total() ==
    /// data_bytes_sent` is an invariant.
    pub data_bytes_by_phase: PhaseBytes,
    /// On-air bytes of ack frames only.
    pub ack_bytes_sent: u64,
    /// Application messages submitted for sending.
    pub messages_sent: u64,
    /// Complete application messages delivered (per receiving node,
    /// including overhearing deliveries).
    pub messages_delivered: u64,
    /// Reliable messages abandoned after `MaxRetrTime` retransmissions.
    pub messages_failed: u64,
    /// Data frames re-sent by retransmission attempts (missing fragments
    /// only). Zero when `max_retr` is 0 and messages are single-fragment —
    /// the DST bounded-retry invariant.
    pub frames_retransmitted: u64,
    /// Receptions cut by an injected partition or silence window (DST).
    pub frames_fault_cut: u64,
    /// Receptions dropped by the injected extra-loss fault (DST).
    pub frames_fault_dropped: u64,
    /// Receptions diverted to a delayed delivery (DST); they count under
    /// `frames_delivered` when they actually arrive.
    pub frames_fault_delayed: u64,
    /// Receptions duplicated by the injected duplication fault (DST); the
    /// extra copy counts under `frames_delivered` on arrival.
    pub frames_fault_duplicated: u64,
}

impl Stats {
    /// Counts one frame going on the air: the single site where on-air
    /// bytes are counted, so `data_bytes_by_phase.total() ==
    /// data_bytes_sent` holds exactly.
    pub(crate) fn count_on_air(&mut self, frame: &Frame) {
        let wire = frame.wire_bytes as u64;
        self.frames_sent += 1;
        self.bytes_sent += wire;
        match frame.kind {
            FrameKind::Data { .. } => {
                self.data_bytes_sent += wire;
                self.data_bytes_by_phase.add(frame.class, wire);
            }
            FrameKind::Ack { .. } => self.ack_bytes_sent += wire,
        }
    }

    /// Counter-wise difference `self - earlier` (saturating), for measuring
    /// a window between two snapshots.
    #[must_use]
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            frames_delivered: self
                .frames_delivered
                .saturating_sub(earlier.frames_delivered),
            frames_collided: self.frames_collided.saturating_sub(earlier.frames_collided),
            frames_lost_random: self
                .frames_lost_random
                .saturating_sub(earlier.frames_lost_random),
            frames_half_duplex: self
                .frames_half_duplex
                .saturating_sub(earlier.frames_half_duplex),
            frames_dropped_os: self
                .frames_dropped_os
                .saturating_sub(earlier.frames_dropped_os),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            data_bytes_sent: self.data_bytes_sent.saturating_sub(earlier.data_bytes_sent),
            data_bytes_by_phase: self.data_bytes_by_phase.since(&earlier.data_bytes_by_phase),
            ack_bytes_sent: self.ack_bytes_sent.saturating_sub(earlier.ack_bytes_sent),
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            messages_delivered: self
                .messages_delivered
                .saturating_sub(earlier.messages_delivered),
            messages_failed: self.messages_failed.saturating_sub(earlier.messages_failed),
            frames_retransmitted: self
                .frames_retransmitted
                .saturating_sub(earlier.frames_retransmitted),
            frames_fault_cut: self
                .frames_fault_cut
                .saturating_sub(earlier.frames_fault_cut),
            frames_fault_dropped: self
                .frames_fault_dropped
                .saturating_sub(earlier.frames_fault_dropped),
            frames_fault_delayed: self
                .frames_fault_delayed
                .saturating_sub(earlier.frames_fault_delayed),
            frames_fault_duplicated: self
                .frames_fault_duplicated
                .saturating_sub(earlier.frames_fault_duplicated),
        }
    }
}

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Frames this node put on the air.
    pub frames_sent: u64,
    /// On-air bytes this node transmitted.
    pub bytes_sent: u64,
    /// On-air bytes this node successfully received (frames delivered to
    /// its transport, intended or overheard).
    pub bytes_received: u64,
    /// Complete messages delivered to this node's application.
    pub messages_delivered: u64,
    /// Of those, messages it merely overheard.
    pub messages_overheard: u64,
}

/// A simple radio energy model (§VII of the paper: the communication-heavy
/// PDS design is dominated by radio cost; overhearing requires the radio to
/// stay on). Default values are in the regime of Wi-Fi measurements on
/// smartphones: a few hundred nJ per byte moved, plus a constant
/// idle-listening draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per transmitted byte, in nanojoules.
    pub tx_nj_per_byte: f64,
    /// Energy per received byte, in nanojoules.
    pub rx_nj_per_byte: f64,
    /// Idle-listening power, in milliwatts (the price of overhearing).
    pub idle_mw: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            tx_nj_per_byte: 600.0,
            rx_nj_per_byte: 350.0,
            idle_mw: 250.0,
        }
    }
}

impl EnergyModel {
    /// Energy one node spent over `elapsed_s` seconds, in joules.
    #[must_use]
    pub fn node_energy_j(&self, stats: &NodeStats, elapsed_s: f64) -> f64 {
        (stats.bytes_sent as f64 * self.tx_nj_per_byte
            + stats.bytes_received as f64 * self.rx_nj_per_byte)
            / 1e9
            + self.idle_mw / 1e3 * elapsed_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_counterwise() {
        let early = Stats {
            frames_sent: 10,
            bytes_sent: 1000,
            ..Stats::default()
        };
        let late = Stats {
            frames_sent: 25,
            bytes_sent: 4000,
            messages_delivered: 3,
            ..Stats::default()
        };
        let d = late.since(&early);
        assert_eq!(d.frames_sent, 15);
        assert_eq!(d.bytes_sent, 3000);
        assert_eq!(d.messages_delivered, 3);
    }

    #[test]
    fn energy_model_accounts_tx_rx_and_idle() {
        let model = EnergyModel {
            tx_nj_per_byte: 1000.0,
            rx_nj_per_byte: 500.0,
            idle_mw: 100.0,
        };
        let stats = NodeStats {
            bytes_sent: 1_000_000,
            bytes_received: 2_000_000,
            ..NodeStats::default()
        };
        // tx: 1e6 B × 1000 nJ/B = 1 J; rx: 2e6 B × 500 nJ/B = 1 J;
        // idle: 100 mW × 10 s = 1 J.
        let e = model.node_energy_j(&stats, 10.0);
        assert!((e - 3.0).abs() < 1e-9, "e = {e}");
    }

    #[test]
    fn idle_listening_dominates_when_quiet() {
        let model = EnergyModel::default();
        let quiet = NodeStats::default();
        let e = model.node_energy_j(&quiet, 60.0);
        assert!((e - 15.0).abs() < 1e-9, "60 s × 250 mW = 15 J, got {e}");
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let a = Stats {
            frames_sent: 1,
            data_bytes_by_phase: PhaseBytes {
                pdd: 10,
                ..PhaseBytes::default()
            },
            ..Stats::default()
        };
        let b = Stats {
            frames_sent: 5,
            data_bytes_by_phase: PhaseBytes {
                pdd: 50,
                pdr: 7,
                ..PhaseBytes::default()
            },
            ..Stats::default()
        };
        let d = a.since(&b);
        assert_eq!(d.frames_sent, 0);
        assert_eq!(d.data_bytes_by_phase.pdd, 0);
        assert_eq!(d.data_bytes_by_phase.pdr, 0);
    }

    #[test]
    fn phase_bytes_add_and_total() {
        let mut p = PhaseBytes::default();
        p.add(pds_obs::class::PDD, 100);
        p.add(pds_obs::class::PDR, 200);
        p.add(pds_obs::class::MDR, 300);
        p.add(pds_obs::class::OTHER, 5);
        p.add(200, 7); // unknown class counts as "other"
        assert_eq!(p.pdd, 100);
        assert_eq!(p.pdr, 200);
        assert_eq!(p.mdr, 300);
        assert_eq!(p.other, 12);
        assert_eq!(p.total(), 612);
    }

    #[test]
    fn phase_bytes_since_subtracts_per_bucket() {
        let early = PhaseBytes {
            pdd: 10,
            pdr: 20,
            mdr: 30,
            other: 40,
        };
        let late = PhaseBytes {
            pdd: 15,
            pdr: 120,
            mdr: 30,
            other: 41,
        };
        let d = late.since(&early);
        assert_eq!(
            d,
            PhaseBytes {
                pdd: 5,
                pdr: 100,
                mdr: 0,
                other: 1
            }
        );
        assert_eq!(d.total(), 106);
    }
}
