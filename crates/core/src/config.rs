//! Protocol configuration with the paper's calibrated defaults.
//!
//! [`PdsConfig`] carries only the values some experiment varies: the
//! multi-round parameters of the Fig. 5 sweep, the four ablation switches
//! and the optional query hop limit. Everything the paper calibrates once
//! and then fixes — lifetimes, jitter, the Bloom target, the round poll,
//! the retrieval watchdog and the chunk-cache budget — is a named constant
//! below.

use crate::assign::AssignStrategy;
use crate::SimDuration;

/// Lifetime of a metadata entry cached *without* payload (§II-C: entries
/// expire unless the payload arrives).
pub(crate) const METADATA_TTL: SimDuration = SimDuration::from_secs(120);

/// Lifetime of a CDI routing entry for a chunk the node does not hold
/// (§IV-A: "obsolete CDI entries do not stay forever").
pub(crate) const CDI_TTL: SimDuration = SimDuration::from_secs(180);

/// How long a query lingers in the LQT (its expiration time).
pub(crate) const QUERY_LIFETIME: SimDuration = SimDuration::from_secs(20);

/// Random delay before a node answers a query, spreading simultaneous
/// responders.
pub(crate) const RESPONSE_JITTER: SimDuration = SimDuration::from_millis(20);

/// Target Bloom-filter false-positive probability (§V-3; paper < 0.01).
pub(crate) const BLOOM_FPP: f64 = 0.01;

/// How often the consumer re-evaluates the round state (§III-B-2).
pub(crate) const ROUND_POLL: SimDuration = SimDuration::from_millis(200);

/// Minimum time spent collecting CDI before retrieval phase 2 starts, even
/// when coverage is already complete (lets closer copies be found; §IV).
pub(crate) const PHASE1_MIN: SimDuration = SimDuration::from_millis(300);

/// Give up waiting for full CDI coverage after this long and proceed with
/// (or re-query for) what is known (§IV).
pub(crate) const PHASE1_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Base stall threshold of the retrieval watchdog: chunks still missing
/// after this long with no progress are re-requested (§IV-B).
pub(crate) const WATCHDOG: SimDuration = SimDuration::from_secs(3);

/// Additional stall allowance per missing chunk. A 256 KB chunk needs
/// ~0.3 s of clean airtime per hop, and the funnel around the consumer
/// serializes; without this scaling the watchdog re-requests a large item's
/// chunks while they are still queued, duplicating the transfer and
/// congesting the medium.
pub(crate) const WATCHDOG_PER_CHUNK: SimDuration = SimDuration::from_millis(750);

/// Maximum number of recovery attempts (CDI re-query + chunk re-request)
/// before a retrieval reports what it has.
pub const MAX_RECOVERY: u32 = 10;

/// Largest chunk count an item may have: every chunk id is below it
/// (DESIGN.md §16, "Transport and core diets").
pub const MAX_ITEM_CHUNKS: u32 = 1 << 16;

/// Byte budget for a node's opportunistically cached (not locally
/// produced) chunks; above it the store evicts the least recently used
/// (§VII: finite storage demands a caching strategy). 64 MiB is more than
/// three times the largest item any figure or workload retrieves (20 MB),
/// so no recorded run evicts.
pub(crate) const CHUNK_CACHE_BYTES: usize = 64 << 20;

/// Multi-round discovery parameters (§III-B-2, Fig. 5).
///
/// The stop threshold `T_r` is fixed at the paper's best value 0: a round
/// ends once no response arrived within the last window `T`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundParams {
    /// The recent time window `T` over which response arrivals are counted.
    /// The paper finds recall saturates for `T ≥ 0.6–0.8 s` and settles on
    /// 1 s.
    pub t_window: SimDuration,
    /// New-round threshold `T_d`: another round starts while (new entries
    /// this round) / (all entries) > `T_d`. Best value 0.
    pub t_d: f64,
    /// Hard cap on rounds (safety net; the controller normally terminates
    /// via `T_d`).
    pub max_rounds: u32,
}

impl Default for RoundParams {
    fn default() -> Self {
        Self {
            t_window: SimDuration::from_secs(1),
            t_d: 0.0,
            max_rounds: 12,
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
    /// Multi-round discovery parameters.
    pub rounds: RoundParams,
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
}

impl Default for PdsConfig {
    fn default() -> Self {
        Self {
            rounds: RoundParams::default(),
            mixedcast: true,
            rewrite: true,
            one_shot_queries: false,
            assign: AssignStrategy::MinMax,
            query_hop_limit: None,
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
        assert_eq!(c.rounds.t_d, 0.0);
        assert!(c.mixedcast && c.rewrite && !c.one_shot_queries);
        assert_eq!(c.assign, AssignStrategy::MinMax);
        const { assert!(BLOOM_FPP < 0.011) };
    }

    #[test]
    fn pds_config_has_exactly_eight_leaves() {
        // Exhaustive on purpose (no `..`): every field is an axis some
        // figure, ablation or workload sweeps. A value nobody varies is a
        // named constant above, so adding a field must edit this line.
        let PdsConfig {
            rounds:
                RoundParams {
                    t_window,
                    t_d,
                    max_rounds,
                },
            mixedcast,
            rewrite,
            one_shot_queries,
            assign,
            query_hop_limit,
        } = PdsConfig::default();
        assert_eq!(
            (t_window, t_d, max_rounds),
            (SimDuration::from_secs(1), 0.0, 12)
        );
        assert!(mixedcast && rewrite && !one_shot_queries);
        assert_eq!(assign, AssignStrategy::MinMax);
        assert_eq!(query_hop_limit, None);
    }

    #[test]
    fn round_params_has_exactly_three_fields() {
        // Exhaustive for the same reason: `T_r` and the poll period are
        // fixed by the paper, not swept.
        let RoundParams {
            t_window,
            t_d,
            max_rounds,
        } = RoundParams::default();
        assert_eq!(t_window, SimDuration::from_secs(1));
        assert_eq!(t_d, 0.0);
        assert_eq!(max_rounds, 12);
    }
}
