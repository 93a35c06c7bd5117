//! The self-describing test-case specification.
//!
//! A [`CaseSpec`] is everything needed to reproduce one harness run:
//! scenario family, world seed, and an integer-encoded fault plan. Every
//! field is an integer (probabilities in parts-per-million) so the
//! `key=value;` wire form round-trips *exactly* — a minimized failing case
//! pasted from a CI log replays bit-for-bit, with no float-formatting
//! drift.

use pds_sim::{FaultPlan, PartitionWindow, SilenceWindow, SimDuration, SimTime};

/// A mass leave/join burst: [`CaseSpec::storm_leave`] producers leave at
/// `at`, and when `rejoin` is set fresh nodes take their places
/// `rejoin_after` later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChurnStorm {
    pub at: SimTime,
    pub rejoin: bool,
    pub rejoin_after: SimDuration,
}

/// One part-per-million as a probability.
pub(crate) const PPM: f64 = 1e-6;

/// `count` evenly spaced partition-and-heal windows over the middle half
/// of a `horizon_s`-second run, each a tenth of the horizon long — always
/// healed well before the end — splitting the id space at `boundary`.
///
/// The DST sweep's partition schedule ([`CaseSpec::fault_plan`]; the
/// city disaster scenario builds its own single window in `pds_bench`):
/// placement is pure arithmetic over `(horizon_s, count)` — no rng — so
/// a minimized case replays its surviving windows bit-for-bit.
#[must_use]
pub(crate) fn partition_windows(horizon_s: f64, count: u32, boundary: u32) -> Vec<PartitionWindow> {
    (0..count)
        .map(|i| {
            let start = horizon_s * (0.25 + 0.5 * f64::from(i) / f64::from(count.max(1)));
            PartitionWindow {
                from: SimTime::from_secs_f64(start),
                until: SimTime::from_secs_f64(start + horizon_s * 0.1),
                boundary,
            }
        })
        .collect()
}

/// Which scenario family a case runs (see `scenario`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Raw reliable-transport traffic: checks duplicate suppression,
    /// send-result resolution, bounded retries and replay stability under
    /// arbitrary wire faults (partitions included — no recall claim).
    Transport,
    /// A PDS discovery grid: checks full recall of the stable producer
    /// set, termination and session-log legality under the paper-scale
    /// fault envelope (loss + drops + delays + duplicates + churn).
    Pds,
}

impl Family {
    fn key(self) -> &'static str {
        match self {
            Family::Transport => "transport",
            Family::Pds => "pds",
        }
    }
}

/// A complete, reproducible (scenario, fault-plan) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// Scenario family.
    pub family: Family,
    /// Seed of the simulation world (kernel rng, MAC jitter, loss rolls).
    pub world_seed: u64,
    /// Seed of the plan-owned fault rng.
    pub plan_seed: u64,
    /// Node count: line length (transport) or grid side (pds).
    pub nodes: u32,
    /// Messages per sender (transport family).
    pub messages: u32,
    /// Payload bytes per message (transport family). Capped by the
    /// generator at four fragments so the retry budget stays exactly
    /// `max_retr` (the budget grows only past eight fragments).
    pub msg_bytes: u32,
    /// Metadata entries per producer (pds family).
    pub entries: u32,
    /// Baseline radio loss in ppm.
    pub loss_ppm: u32,
    /// Fault-injected extra drop probability in ppm.
    pub drop_ppm: u32,
    /// Fault-injected duplicate probability in ppm.
    pub dup_ppm: u32,
    /// Fault-injected delay probability in ppm.
    pub delay_ppm: u32,
    /// Upper bound of the injected delivery delay, milliseconds.
    pub delay_max_ms: u32,
    /// Number of link-level partition windows (transport family only; each
    /// heals before the next begins).
    pub partitions: u32,
    /// Number of byzantine-silent node windows.
    pub silences: u32,
    /// Number of churn storms (pds family; each removes producers).
    pub storms: u32,
    /// Ack retransmission cap (`SimConfig::ack.max_retr`).
    pub max_retr: u32,
    /// Run horizon in tenths of a simulated second.
    pub horizon_ds: u32,
}

impl CaseSpec {
    /// Run horizon as simulation time.
    #[must_use]
    pub(crate) fn horizon(&self) -> SimTime {
        SimTime::from_secs_f64(f64::from(self.horizon_ds) / 10.0)
    }

    /// Builds the kernel [`FaultPlan`] this spec describes. Window
    /// placement is pure arithmetic over the horizon so that shrinking a
    /// count field removes whole windows without moving the survivors.
    #[must_use]
    pub(crate) fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none(self.plan_seed);
        plan.drop_prob = f64::from(self.drop_ppm) * PPM;
        plan.dup_prob = f64::from(self.dup_ppm) * PPM;
        plan.delay_prob = f64::from(self.delay_ppm) * PPM;
        plan.delay_max = SimDuration::from_millis(u64::from(self.delay_max_ms.max(1)));
        let horizon_s = f64::from(self.horizon_ds) / 10.0;
        plan.partitions = partition_windows(horizon_s, self.partitions, self.node_count() / 2);
        for i in 0..self.silences {
            let start = horizon_s * (0.3 + 0.5 * f64::from(i) / f64::from(self.silences.max(1)));
            plan.silences.push(SilenceWindow {
                node: self.silenced_node(i),
                from: SimTime::from_secs_f64(start),
                until: SimTime::from_secs_f64(start + horizon_s * 0.1),
            });
        }
        plan
    }

    /// The churn storms this spec describes, placed like the fault
    /// windows: pure arithmetic over the horizon. The kernel knows nothing
    /// of them; the pds scenario turns each into scheduled removals and
    /// rejoins.
    pub(crate) fn churn_storms(&self) -> Vec<ChurnStorm> {
        let horizon_s = f64::from(self.horizon_ds) / 10.0;
        (0..self.storms)
            .map(|i| ChurnStorm {
                at: SimTime::from_secs_f64(
                    horizon_s * (0.2 + 0.4 * f64::from(i) / f64::from(self.storms.max(1))),
                ),
                rejoin: i % 2 == 1,
                rejoin_after: SimDuration::from_secs(2),
            })
            .collect()
    }

    /// Total nodes the scenario places.
    #[must_use]
    pub(crate) fn node_count(&self) -> u32 {
        match self.family {
            Family::Transport => self.nodes,
            Family::Pds => self.nodes * self.nodes,
        }
    }

    /// The consumer's node id: the grid center (pds) or the line's far end
    /// (transport — the node the first blaster addresses last).
    #[must_use]
    pub(crate) fn consumer_id(&self) -> u32 {
        match self.family {
            Family::Transport => self.nodes.saturating_sub(1),
            Family::Pds => {
                let g = self.nodes as usize;
                pds_mobility::grid::center_index(g, g) as u32
            }
        }
    }

    /// The node id silenced by window `i`: counted down from the highest
    /// id, never the pds consumer (silencing the consumer would void the
    /// recall claim rather than test it; in the transport family every
    /// node is fair game).
    #[must_use]
    pub(crate) fn silenced_node(&self, i: u32) -> u32 {
        let n = self.node_count().max(2);
        let mut id = (n - 1).saturating_sub(i % n);
        if self.family == Family::Pds && id == self.consumer_id() {
            id = id.saturating_sub(1);
        }
        id
    }

    /// How many nodes one churn storm removes: a quarter of the grid,
    /// at least one, never the consumer.
    #[must_use]
    pub(crate) fn storm_leave(&self) -> u32 {
        (self.node_count() / 4).max(1)
    }

    /// Encodes to the one-line `key=value;` wire form.
    #[must_use]
    pub fn encode(&self) -> String {
        format!(
            "fam={};ws={};ps={};n={};msg={};mb={};ent={};loss={};drop={};dup={};delay={};dmax={};part={};sil={};storm={};retr={};hz={};",
            self.family.key(),
            self.world_seed,
            self.plan_seed,
            self.nodes,
            self.messages,
            self.msg_bytes,
            self.entries,
            self.loss_ppm,
            self.drop_ppm,
            self.dup_ppm,
            self.delay_ppm,
            self.delay_max_ms,
            self.partitions,
            self.silences,
            self.storms,
            self.max_retr,
            self.horizon_ds,
        )
    }

    /// Decodes the wire form produced by [`CaseSpec::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown field.
    pub fn decode(s: &str) -> Result<Self, String> {
        let mut spec = CaseSpec {
            family: Family::Transport,
            world_seed: 0,
            plan_seed: 0,
            nodes: 2,
            messages: 0,
            msg_bytes: 64,
            entries: 0,
            loss_ppm: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            delay_max_ms: 1,
            partitions: 0,
            silences: 0,
            storms: 0,
            max_retr: 4,
            horizon_ds: 100,
        };
        for pair in s.split(';') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed pair `{pair}`"))?;
            let num = |v: &str| -> Result<u64, String> {
                v.parse::<u64>().map_err(|e| format!("{key}={v}: {e}"))
            };
            let num32 = |v: &str| -> Result<u32, String> {
                v.parse::<u32>().map_err(|e| format!("{key}={v}: {e}"))
            };
            match key {
                "fam" => {
                    spec.family = match value {
                        "transport" => Family::Transport,
                        "pds" => Family::Pds,
                        other => return Err(format!("unknown family `{other}`")),
                    };
                }
                "ws" => spec.world_seed = num(value)?,
                "ps" => spec.plan_seed = num(value)?,
                "n" => spec.nodes = num32(value)?,
                "msg" => spec.messages = num32(value)?,
                "mb" => spec.msg_bytes = num32(value)?,
                "ent" => spec.entries = num32(value)?,
                "loss" => spec.loss_ppm = num32(value)?,
                "drop" => spec.drop_ppm = num32(value)?,
                "dup" => spec.dup_ppm = num32(value)?,
                "delay" => spec.delay_ppm = num32(value)?,
                "dmax" => spec.delay_max_ms = num32(value)?,
                "part" => spec.partitions = num32(value)?,
                "sil" => spec.silences = num32(value)?,
                "storm" => spec.storms = num32(value)?,
                "retr" => spec.max_retr = num32(value)?,
                "hz" => spec.horizon_ds = num32(value)?,
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        Ok(spec)
    }

    /// A size metric the minimizer strictly decreases: the sum of every
    /// knob that shrinking can lower.
    #[must_use]
    pub fn size(&self) -> u64 {
        u64::from(self.nodes)
            + u64::from(self.messages)
            + u64::from(self.msg_bytes)
            + u64::from(self.entries)
            + u64::from(self.loss_ppm)
            + u64::from(self.drop_ppm)
            + u64::from(self.dup_ppm)
            + u64::from(self.delay_ppm)
            + u64::from(self.delay_max_ms)
            + u64::from(self.partitions)
            + u64::from(self.silences)
            + u64::from(self.storms)
            + u64::from(self.horizon_ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CaseSpec {
        CaseSpec {
            family: Family::Pds,
            world_seed: 123_456_789_012,
            plan_seed: 42,
            nodes: 4,
            messages: 0,
            msg_bytes: 64,
            entries: 6,
            loss_ppm: 100_000,
            drop_ppm: 40_000,
            dup_ppm: 20_000,
            delay_ppm: 10_000,
            delay_max_ms: 250,
            partitions: 0,
            silences: 1,
            storms: 1,
            max_retr: 4,
            horizon_ds: 600,
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let spec = sample();
        let wire = spec.encode();
        assert_eq!(CaseSpec::decode(&wire).expect("valid"), spec);
        // And for the transport family with every window kind set.
        let mut t = sample();
        t.family = Family::Transport;
        t.nodes = 5;
        t.messages = 30;
        t.partitions = 2;
        assert_eq!(CaseSpec::decode(&t.encode()).expect("valid"), t);
    }

    #[test]
    fn decode_rejects_junk() {
        assert!(CaseSpec::decode("fam=warp;").is_err());
        assert!(CaseSpec::decode("bogus=1;").is_err());
        assert!(CaseSpec::decode("ws;").is_err());
        assert!(CaseSpec::decode("n=-3;").is_err());
    }

    #[test]
    fn fault_plan_windows_heal_before_horizon() {
        let mut spec = sample();
        spec.partitions = 3;
        spec.silences = 2;
        let plan = spec.fault_plan();
        assert_eq!(plan.partitions.len(), 3);
        assert_eq!(plan.silences.len(), 2);
        for w in &plan.partitions {
            assert!(w.until < spec.horizon(), "partition must heal in-run");
            assert!(w.from < w.until);
        }
        for w in &plan.silences {
            assert!(w.until < spec.horizon());
        }
        assert_eq!(spec.churn_storms().len(), 1);
    }

    #[test]
    fn partition_windows_stay_inside_the_middle_of_the_run() {
        let five = partition_windows(60.0, 5, 8);
        assert_eq!(five.len(), 5);
        for w in &five {
            assert!(w.from < w.until);
            assert!(w.from >= SimTime::from_secs_f64(60.0 * 0.25));
            assert!(w.until <= SimTime::from_secs_f64(60.0 * 0.85));
            assert_eq!(w.boundary, 8);
        }
        assert!(partition_windows(60.0, 0, 8).is_empty());
    }

    #[test]
    fn silenced_node_avoids_pds_consumer() {
        let spec = sample(); // 4x4 grid, consumer at center index 10
        assert_eq!(spec.consumer_id(), 10);
        for i in 0..32 {
            assert_ne!(spec.silenced_node(i), 10, "consumer silenced at {i}");
        }
    }

    #[test]
    fn noop_spec_builds_noop_plan() {
        let mut spec = sample();
        spec.loss_ppm = 0;
        spec.drop_ppm = 0;
        spec.dup_ppm = 0;
        spec.delay_ppm = 0;
        spec.silences = 0;
        spec.storms = 0;
        assert!(spec.fault_plan().is_noop());
    }
}
