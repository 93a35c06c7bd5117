//! Case generation and the sweep driver.
//!
//! A sweep is `pairs` independent cases derived from one sweep seed; case
//! `i` is a pure function of `(sweep_seed, i)`, so any subset of a sweep
//! can be reproduced in isolation and workers may run cases in any order
//! ([`pds_bench::sweep::SweepRunner`] returns results in job order
//! regardless).

use crate::scenario::{run_case, CaseOutcome};
use crate::spec::{CaseSpec, Family};
use pds_bench::sweep::SweepRunner;
use pds_sim::SimRng;

/// Every how many cases the sweep re-runs a case to check replay equality
/// (invariant I1). Each check doubles that case's cost, so the smoke tier
/// samples rather than re-running everything.
pub(crate) const REPLAY_SAMPLE: usize = 8;

/// One case's spec, outcome and the invariants it violated.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The case that ran.
    pub spec: CaseSpec,
    /// What it produced.
    pub outcome: CaseOutcome,
    /// All invariant breaches: the outcome's own plus replay mismatches.
    pub violations: Vec<String>,
}

impl CaseResult {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violated invariant's name (the part before `:`), used by
    /// the minimizer to preserve failure identity while shrinking.
    #[must_use]
    pub fn violation_kind(&self) -> Option<&str> {
        self.violations
            .first()
            .map(|v| v.split(':').next().unwrap_or(v).trim())
    }
}

/// Runs one case; with `check_replay` it runs twice and demands identical
/// statistics and identical replay digests.
#[must_use]
pub fn run_checked(spec: &CaseSpec, check_replay: bool) -> CaseResult {
    let outcome = run_case(spec);
    let mut violations = outcome.violations.clone();
    if check_replay {
        let rerun = run_case(spec);
        if rerun.stats != outcome.stats {
            violations.push("replay: statistics differ between identical runs".to_string());
        }
        if rerun.digest != outcome.digest {
            violations.push(format!(
                "replay: digest {:#x} vs {:#x} across identical runs",
                outcome.digest, rerun.digest
            ));
        }
    }
    CaseResult {
        spec: spec.clone(),
        outcome,
        violations,
    }
}

/// The deterministic case generator: one spec per `(sweep_seed, index)`.
/// Seven of eight cases are transport-family (small and fast, wire
/// invariants under the full fault envelope, partitions included); every
/// eighth is a PDS discovery grid under the paper-scale envelope, where
/// full recall of the stable producer set is demanded.
#[must_use]
pub fn generate(sweep_seed: u64, index: usize) -> CaseSpec {
    let mut rng = SimRng::new(
        sweep_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0ddc_0ffe_e125_1312,
    );
    if index % 8 == 7 {
        generate_pds(&mut rng)
    } else {
        generate_transport(&mut rng)
    }
}

fn generate_transport(rng: &mut SimRng) -> CaseSpec {
    let messages = rng.range_u64(8, 41) as u32;
    CaseSpec {
        family: Family::Transport,
        world_seed: rng.next_u64(),
        plan_seed: rng.next_u64(),
        nodes: rng.range_u64(2, 7) as u32,
        messages,
        // Up to four fragments (4 × 1456-byte payloads), keeping the
        // retry budget at exactly `max_retr`.
        msg_bytes: rng.range_u64(16, 5_000) as u32,
        entries: 0,
        loss_ppm: rng.range_u64(0, 150_001) as u32,
        drop_ppm: rng.range_u64(0, 120_001) as u32,
        dup_ppm: rng.range_u64(0, 80_001) as u32,
        delay_ppm: rng.range_u64(0, 80_001) as u32,
        delay_max_ms: rng.range_u64(20, 501) as u32,
        partitions: rng.range_u64(0, 3) as u32,
        silences: rng.range_u64(0, 3) as u32,
        storms: 0,
        max_retr: rng.range_u64(0, 6) as u32,
        // 100 ms per message plus a 10 s tail for the retry pipeline.
        horizon_ds: messages + 100,
    }
}

fn generate_pds(rng: &mut SimRng) -> CaseSpec {
    let side = rng.range_u64(3, 5) as u32;
    CaseSpec {
        family: Family::Pds,
        world_seed: rng.next_u64(),
        plan_seed: rng.next_u64(),
        nodes: side,
        messages: 0,
        msg_bytes: 64,
        entries: rng.range_u64(4, 9) as u32,
        // The paper-scale envelope: the protocol is *supposed* to win
        // here, so recall violations are real findings, not noise.
        loss_ppm: rng.range_u64(0, 100_001) as u32,
        drop_ppm: rng.range_u64(0, 40_001) as u32,
        dup_ppm: rng.range_u64(0, 60_001) as u32,
        delay_ppm: rng.range_u64(0, 60_001) as u32,
        delay_max_ms: rng.range_u64(20, 401) as u32,
        partitions: 0,
        silences: rng.range_u64(0, 2) as u32,
        storms: rng.range_u64(0, if side >= 4 { 3 } else { 2 }) as u32,
        max_retr: 4,
        horizon_ds: 900,
    }
}

/// Summary of a sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Every failing case, in sweep order.
    pub failures: Vec<CaseResult>,
    /// Cases run.
    pub cases: usize,
    /// Cases that were replay-checked (ran twice).
    pub replay_checked: usize,
    /// Sum of fault-injected events across the sweep, as evidence the
    /// adversary actually showed up.
    pub faults_injected: u64,
}

/// Sweeps `pairs` generated cases across `jobs` workers. Results are
/// deterministic in content and order for a given `(sweep_seed, pairs)`.
#[must_use]
pub fn sweep(sweep_seed: u64, pairs: usize, jobs: usize) -> SweepReport {
    let results = SweepRunner::new(jobs).run(pairs, |i| {
        let spec = generate(sweep_seed, i);
        run_checked(&spec, i % REPLAY_SAMPLE == 0)
    });
    let mut report = SweepReport {
        failures: Vec::new(),
        cases: pairs,
        replay_checked: pairs.div_ceil(REPLAY_SAMPLE),
        faults_injected: 0,
    };
    for r in results {
        let s = &r.outcome.stats;
        report.faults_injected += s.frames_fault_cut
            + s.frames_fault_dropped
            + s.frames_fault_delayed
            + s.frames_fault_duplicated;
        if !r.passed() {
            report.failures.push(r);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_mixed() {
        let a: Vec<CaseSpec> = (0..32).map(|i| generate(11, i)).collect();
        let b: Vec<CaseSpec> = (0..32).map(|i| generate(11, i)).collect();
        assert_eq!(a, b);
        let pds = a.iter().filter(|s| s.family == Family::Pds).count();
        assert_eq!(pds, 4, "every eighth case is a pds grid");
        assert_ne!(a[0], generate(12, 0), "sweep seed matters");
    }

    #[test]
    fn transport_specs_stay_within_budget_assumptions() {
        for i in 0..64 {
            let s = generate(3, i);
            if s.family == Family::Transport {
                assert!(s.msg_bytes <= 4 * 1456, "retry budget bound broken");
                assert!(s.horizon_ds >= s.messages + 100);
            }
        }
    }

    #[test]
    fn replay_check_passes_on_a_faulted_case() {
        // A transport case under active faults, run twice: invariant I1.
        let mut spec = generate(5, 0);
        spec.drop_ppm = 90_000;
        spec.dup_ppm = 50_000;
        spec.messages = 12;
        let r = run_checked(&spec, true);
        assert!(r.passed(), "{:?}", r.violations);
    }

    #[test]
    fn small_sweep_is_clean_and_parallel_invariant() {
        let a = sweep(21, 16, 1);
        let b = sweep(21, 16, 4);
        assert_eq!(a.failures.len(), 0, "{:?}", a.failures);
        assert_eq!(b.failures.len(), 0);
        assert_eq!(a.faults_injected, b.faults_injected, "job count leaked");
        assert!(a.faults_injected > 0, "adversary never showed up");
    }
}
