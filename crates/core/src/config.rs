//! Protocol configuration with the paper's calibrated defaults.

use crate::assign::AssignStrategy;
use crate::SimDuration;

/// Multi-round discovery parameters (§III-B-2, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundParams {
    /// The recent time window `T` over which response arrivals are counted.
    /// The paper finds recall saturates for `T ≥ 0.6–0.8 s` and settles on
    /// 1 s.
    pub t_window: SimDuration,
    /// Stop threshold `T_r`: the round ends when (responses in the last
    /// window) / (responses this round) ≤ `T_r`. Best value 0.
    pub t_r: f64,
    /// New-round threshold `T_d`: another round starts while (new entries
    /// this round) / (all entries) > `T_d`. Best value 0.
    pub t_d: f64,
    /// How often the consumer re-evaluates the round state.
    pub poll: SimDuration,
    /// Hard cap on rounds (safety net; the controller normally terminates
    /// via `T_d`).
    pub max_rounds: u32,
}

impl Default for RoundParams {
    fn default() -> Self {
        Self {
            t_window: SimDuration::from_secs(1),
            t_r: 0.0,
            t_d: 0.0,
            poll: SimDuration::from_millis(200),
            max_rounds: 12,
        }
    }
}

/// Two-phase retrieval parameters (§IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdrParams {
    /// Minimum time spent collecting CDI before phase 2 starts, even when
    /// coverage is already complete (lets closer copies be found).
    pub phase1_min: SimDuration,
    /// Give up waiting for full CDI coverage after this long and proceed
    /// with (or re-query for) what is known.
    pub phase1_timeout: SimDuration,
    /// Base stall threshold: chunks still missing after this long with no
    /// progress are re-requested.
    pub watchdog: SimDuration,
    /// Additional stall allowance per missing chunk. A 256 KB chunk needs
    /// ~0.3 s of clean airtime per hop, and the funnel around the consumer
    /// serializes; without this scaling the watchdog re-requests a large
    /// item's chunks while they are still queued, duplicating the transfer
    /// and congesting the medium.
    pub watchdog_per_chunk: SimDuration,
    /// Maximum number of recovery attempts (CDI re-query + chunk re-request)
    /// before the retrieval reports what it has.
    pub max_recovery: u32,
}

impl Default for PdrParams {
    fn default() -> Self {
        Self {
            phase1_min: SimDuration::from_millis(300),
            phase1_timeout: SimDuration::from_secs(2),
            watchdog: SimDuration::from_secs(3),
            watchdog_per_chunk: SimDuration::from_millis(750),
            max_recovery: 10,
        }
    }
}

/// Complete PDS protocol configuration.
///
/// The ablation switches (`mixedcast`, `rewrite`, `one_shot_queries`,
/// `assign`) isolate the paper's design choices; defaults are the full PDS
/// design.
#[derive(Debug, Clone, PartialEq)]
pub struct PdsConfig {
    /// Lifetime of a metadata entry cached *without* payload (§II-C: entries
    /// expire unless the payload arrives).
    pub metadata_ttl: SimDuration,
    /// Lifetime of a CDI routing entry for a chunk the node does not hold
    /// (§IV-A: "obsolete CDI entries do not stay forever").
    pub cdi_ttl: SimDuration,
    /// How long a query lingers in the LQT (its expiration time).
    pub query_lifetime: SimDuration,
    /// Random delay before a node answers a query, spreading simultaneous
    /// responders.
    pub response_jitter: SimDuration,
    /// Multi-round discovery parameters.
    pub rounds: RoundParams,
    /// Target Bloom-filter false-positive probability (§V-3; paper < 0.01).
    pub bloom_fpp: f64,
    /// Chunk size for large items (paper: 256 KB).
    pub chunk_size: usize,
    /// Two-phase retrieval parameters.
    pub pdr: PdrParams,
    /// Mixedcast: join entries needed by several consumers into one
    /// response, each entry transmitted once (§III-B-1). Disabling sends one
    /// response per matching lingering query.
    pub mixedcast: bool,
    /// En-route Bloom rewriting of responses and queries (§III-B-2).
    /// Disabling returns every matching entry at every hop.
    pub rewrite: bool,
    /// Ablation: remove a lingering query after the first response it
    /// forwards, like a CCN/NDN Interest, instead of at expiration.
    pub one_shot_queries: bool,
    /// Chunk-to-neighbor assignment strategy (§IV-B).
    pub assign: AssignStrategy,
    /// Optional hop budget on flooded queries (§III-A-1: "such limiting can
    /// be achieved easily with a hop counter if needed"); `None` floods the
    /// whole (limited-size) network, as the paper does.
    pub query_hop_limit: Option<u8>,
    /// Probability that a node relays a flooded query — the classic
    /// probabilistic broadcast-storm reduction the paper points to
    /// (§VII, paper refs 26 and 27). 1.0 = always forward (the paper's behaviour).
    pub forward_probability: f64,
    /// Storage budget and replacement policy for opportunistically cached
    /// chunks (§VII: finite storage demands a caching strategy).
    pub chunk_cache: crate::store::ChunkCacheConfig,
}

impl Default for PdsConfig {
    fn default() -> Self {
        Self {
            metadata_ttl: SimDuration::from_secs(120),
            cdi_ttl: SimDuration::from_secs(180),
            query_lifetime: SimDuration::from_secs(20),
            response_jitter: SimDuration::from_millis(20),
            rounds: RoundParams::default(),
            bloom_fpp: 0.01,
            chunk_size: 256 * 1024,
            pdr: PdrParams::default(),
            mixedcast: true,
            rewrite: true,
            one_shot_queries: false,
            assign: AssignStrategy::MinMax,
            query_hop_limit: None,
            forward_probability: 1.0,
            chunk_cache: crate::store::ChunkCacheConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PdsConfig::default();
        assert_eq!(c.rounds.t_window, SimDuration::from_secs(1));
        assert_eq!(c.rounds.t_r, 0.0);
        assert_eq!(c.rounds.t_d, 0.0);
        assert_eq!(c.chunk_size, 256 * 1024);
        assert!(c.mixedcast && c.rewrite && !c.one_shot_queries);
        assert_eq!(c.assign, AssignStrategy::MinMax);
        assert!(c.bloom_fpp < 0.011);
    }
}
