//! Simulation configuration.
//!
//! Defaults reproduce the calibrated parameters the paper ports from its
//! Android prototype into NS-3 (§V-2, §V-4, §VI-A): 1.5 KB frames, a MAC
//! broadcast bitrate in the single-digit Mbps range, a ~1 MB OS UDP send
//! buffer, a 300 KB / 4.5 Mbps leaky bucket, and 0.2 s / 4-retry
//! ack/retransmission.

use pds_core::SimDuration;

/// Physical-layer and MAC-layer parameters shared by all nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioConfig {
    /// Radio range in meters (disk propagation model). The default of 75 m
    /// with 50 m grid spacing makes all 8 surrounding grid neighbors
    /// reachable, as in the paper's 10×10 grid scenario.
    pub range_m: f64,
    /// MAC broadcast bitrate in bits per second. The default (12 Mbps) is
    /// chosen so the per-hop service rate comfortably exceeds the paper's
    /// 4.5 Mbps application injection rate — matching the NS-3 evaluation,
    /// where multi-hop transfers pipeline at close to the injection rate
    /// (the paper's 20 MB retrieval takes only ~30 % longer than the
    /// single-hop serialization minimum).
    pub mac_rate_bps: f64,
    /// Fixed per-frame MAC/PHY overhead time (preamble, DIFS, etc.).
    pub frame_overhead: SimDuration,
    /// Maximum frame size in bytes, headers included (the prototype sends
    /// 1.5 KB UDP packets).
    pub max_frame_bytes: usize,
    /// OS UDP send-buffer capacity in bytes. The prototype observed ~658
    /// 1.5 KB packets (~1 MB) buffered before overflow drops begin.
    pub os_buffer_bytes: usize,
    /// Per-receiver baseline frame-loss probability (fading, interference)
    /// independent of collisions.
    pub baseline_loss: f64,
    /// Upper bound of the uniform random CSMA backoff after sensing a busy
    /// medium.
    pub backoff_max: SimDuration,
    /// Path-loss exponent for received power (`P ∝ d^-α`); ~2 free space,
    /// 3–4 indoor. Must be finite and ≥ 0 — power may not grow with
    /// distance — or [`World::new`](crate::World::new) panics.
    pub path_loss_exp: f64,
    /// Physical capture: an overlapped frame is still decoded when its
    /// received power exceeds `capture_sinr` × (sum of interfering powers).
    /// NS-3's Wi-Fi PHY models this; without it, cross traffic at a relay
    /// funnel destroys every frame of both streams and multi-hop transfers
    /// deadlock at hidden-terminal junctions. Must be finite and ≥ 0, or
    /// [`World::new`](crate::World::new) panics.
    pub capture_sinr: f64,
    /// Carrier-sense range as a multiple of the decode range. Energy
    /// detection triggers well below the decode threshold, so real CSMA
    /// senses transmitters it cannot decode (802.11 / NS-3 model ~2×).
    /// At 2.0, any two senders sharing a receiver are mutually sensing, so
    /// classic hidden terminals disappear; set 1.0 to study them.
    pub cs_range_factor: f64,
    /// Interference horizon as a multiple of the decode range: transmitters
    /// farther than `range_m × interference_range_factor` from a receiver
    /// are excluded from its interference sum. The default (infinity) sums
    /// every concurrent transmission, exactly as NS-3-style full-SINR does,
    /// and stays affordable at city scale: far transmitters are bounded
    /// once per frame and summed per receiver only when a capture decision
    /// is too close to call (DESIGN.md §18), with verdicts bit-identical to
    /// the exhaustive sum. A finite horizon is a *modelling* choice, not a
    /// cost lever: at the default α = 3 a transmitter 4 ranges away
    /// delivers 1/64 of the weakest decodable signal, so truncating at
    /// ~4.0 changes capture decisions only when dozens of such far
    /// transmitters overlap.
    pub interference_range_factor: f64,
    /// How long a transmission must have been on the air before carrier
    /// sense detects it (rx/tx turnaround + detection). Two stations whose
    /// deferred starts fall within this window of each other collide — the
    /// CSMA vulnerability slot that produces contention losses among
    /// concurrent senders (Fig. 3's leaky-bucket-only curve).
    pub sense_delay: SimDuration,
    /// Whether a paced sender observes OS-buffer occupancy and waits
    /// (blocking-send semantics) instead of overflowing. `true` models the
    /// NS-3 multi-hop evaluation (device queues do not silently eat data);
    /// `false` models the Android prototype of §V, whose UDP sends are
    /// fire-and-forget and overflow silently — the very behaviour the
    /// paper's leaky bucket was calibrated against.
    pub os_backpressure: bool,
}

impl Default for RadioConfig {
    fn default() -> Self {
        Self {
            range_m: 75.0,
            mac_rate_bps: 12.0e6,
            frame_overhead: SimDuration::from_micros(300),
            max_frame_bytes: 1500,
            os_buffer_bytes: 1_000_000,
            baseline_loss: 0.02,
            backoff_max: SimDuration::from_millis(2),
            path_loss_exp: 3.0,
            capture_sinr: 2.0,
            cs_range_factor: 2.0,
            interference_range_factor: f64::INFINITY,
            sense_delay: SimDuration::from_micros(30),
            os_backpressure: true,
        }
    }
}

impl RadioConfig {
    /// Airtime of a frame of `bytes` bytes, including fixed overhead.
    #[must_use]
    pub fn frame_airtime(&self, bytes: usize) -> SimDuration {
        let tx = (bytes as f64 * 8.0) / self.mac_rate_bps;
        SimDuration::from_secs_f64(tx) + self.frame_overhead
    }
}

/// How an application's outgoing messages are paced into the OS send buffer
/// (§V-2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SenderMode {
    /// Inject frames into the OS buffer as fast as the application produces
    /// them. Reproduces the prototype's raw `UDP send` behaviour: the buffer
    /// overflows and the OS silently discards frames (~14 % reception).
    RawUdp,
    /// Classic leaky bucket: at most `capacity_bytes` of un-leaked data
    /// outstanding, tokens refilling at `rate_bps`. The paper's calibrated
    /// best values are 300 KB and 4.5 Mbps.
    LeakyBucket {
        /// Burst allowance in bytes (`BucketCapacity`).
        capacity_bytes: usize,
        /// Sustained injection rate in bits per second (`LeakingRate`).
        rate_bps: f64,
    },
}

impl SenderMode {
    /// The paper's calibrated leaky bucket: 300 KB capacity, 4.5 Mbps rate.
    #[must_use]
    pub fn paper_leaky_bucket() -> Self {
        Self::LeakyBucket {
            capacity_bytes: 300_000,
            rate_bps: 4.5e6,
        }
    }
}

impl Default for SenderMode {
    fn default() -> Self {
        Self::paper_leaky_bucket()
    }
}

/// Application-level per-hop ack/retransmission parameters (§V-1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckConfig {
    /// Whether intended receivers acknowledge messages at all.
    pub enabled: bool,
    /// How long the sender waits for acks before retransmitting
    /// (`RetrTimeout`; the paper finds benefits plateau at 0.2 s).
    pub retr_timeout: SimDuration,
    /// Maximum number of retransmissions per message (`MaxRetrTime`;
    /// plateaus at 4).
    pub max_retr: u32,
    /// Delay before an intended receiver acknowledges an *incomplete*
    /// message (gives trailing fragments time to arrive); complete messages
    /// are acked after a short random jitter.
    pub ack_delay: SimDuration,
}

impl Default for AckConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            retr_timeout: SimDuration::from_millis(200),
            max_retr: 4,
            ack_delay: SimDuration::from_millis(40),
        }
    }
}

impl AckConfig {
    /// Acknowledgements disabled entirely (the paper's "leaky bucket only"
    /// and raw-UDP configurations).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Spatial-grid tuning. Range queries (neighbor discovery, carrier
/// sense, frame delivery) probe a uniform hash grid whose cells are one
/// radio range wide and filter the candidates exactly; with the default
/// the grid is maintenance-free from the caller's perspective.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpatialConfig {
    /// How stale moving-node buckets may get before they are re-bucketed.
    /// [`SimDuration::ZERO`] (the default) re-buckets whenever the event
    /// clock advances; larger intervals skip that work and instead widen
    /// every query by `max walker speed × staleness`, which stays exact
    /// but returns more candidates to filter.
    pub rebucket_interval: SimDuration,
}

/// Complete simulator configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimConfig {
    /// Physical/MAC parameters.
    pub radio: RadioConfig,
    /// Outgoing pacing mode.
    pub sender: SenderMode,
    /// Per-hop reliability parameters.
    pub ack: AckConfig,
    /// Spatial grid tuning.
    pub spatial: SpatialConfig,
}

impl SimConfig {
    /// The configuration the paper uses for all multi-hop experiments:
    /// calibrated leaky bucket plus ack/retransmission.
    #[must_use]
    pub fn paper_multi_hop() -> Self {
        Self::default()
    }

    /// Raw UDP broadcast with no pacing and no acks (Fig. 3 baseline).
    #[must_use]
    pub fn raw_udp() -> Self {
        Self {
            sender: SenderMode::RawUdp,
            ack: AckConfig::disabled(),
            ..Self::default()
        }
    }

    /// Leaky bucket pacing but no acks (Fig. 3 middle configuration).
    #[must_use]
    pub fn leaky_only() -> Self {
        Self {
            ack: AckConfig::disabled(),
            ..Self::default()
        }
    }

    /// The Android-prototype regime of §V: the phones' effective broadcast
    /// service rate (~5 Mbps) and fire-and-forget UDP sends that overflow
    /// the OS buffer silently. Used by the single-hop calibration
    /// experiments (Fig. 3 and the §V parameter sweeps).
    #[must_use]
    pub fn prototype() -> Self {
        let mut c = Self::default();
        c.radio.mac_rate_bps = 5.0e6;
        c.radio.os_backpressure = false;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_airtime_scales_with_size() {
        let r = RadioConfig::default();
        let small = r.frame_airtime(100);
        let large = r.frame_airtime(1500);
        assert!(large > small);
        // 1500 B at 12 Mbps = 1 ms + 0.3 ms overhead.
        assert_eq!(large.as_micros(), 1300);
    }

    #[test]
    fn paper_bucket_values() {
        match SenderMode::paper_leaky_bucket() {
            SenderMode::LeakyBucket {
                capacity_bytes,
                rate_bps,
            } => {
                assert_eq!(capacity_bytes, 300_000);
                assert!((rate_bps - 4.5e6).abs() < 1.0);
            }
            SenderMode::RawUdp => panic!("expected leaky bucket"),
        }
    }

    #[test]
    fn presets_differ_as_expected() {
        assert!(!SimConfig::raw_udp().ack.enabled);
        assert_eq!(SimConfig::raw_udp().sender, SenderMode::RawUdp);
        assert!(!SimConfig::leaky_only().ack.enabled);
        assert!(SimConfig::paper_multi_hop().ack.enabled);
    }

    #[test]
    fn sim_config_has_exactly_four_fields() {
        // Exhaustive on purpose (no `..`): each field is an option every
        // test and benchmark configuration multiplies by, so adding a
        // fifth must be a deliberate, reviewed act that edits this line.
        let SimConfig {
            radio,
            sender,
            ack,
            spatial,
        } = SimConfig::default();
        assert_eq!(radio, RadioConfig::default());
        assert_eq!(sender, SenderMode::default());
        assert_eq!(ack, AckConfig::default());
        assert_eq!(spatial, SpatialConfig::default());
    }

    #[test]
    fn spatial_config_has_exactly_one_field() {
        // Exhaustive for the same reason: the grid's cell size and query
        // path are not options.
        let SpatialConfig { rebucket_interval } = SpatialConfig::default();
        assert_eq!(rebucket_interval, SimDuration::ZERO);
    }

    #[test]
    fn default_ack_matches_paper_plateau() {
        let a = AckConfig::default();
        assert_eq!(a.retr_timeout, SimDuration::from_millis(200));
        assert_eq!(a.max_retr, 4);
    }
}
