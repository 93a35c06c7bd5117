//! Digest-level proof that the sweep executor is parallelism-transparent:
//! running the same jobs at 1 worker and at 4 workers must produce the
//! same per-job replay digests and traffic stats, in the same (input)
//! order.

use pds_bench::{GridScenario, Session, SweepRunner, Workload};
use pds_sim::SimTime;

/// One small discovery run; returns the kernel's replay digest plus the
/// global traffic stats.
fn run_job(seed: u64) -> (u64, pds_sim::Stats) {
    let mut sc = GridScenario::paper_default(seed);
    sc.rows = 4;
    sc.cols = 4;
    let wl = Workload::new(sc.node_count()).with_metadata(50, 1, seed);
    let mut built = sc.build(&wl);
    let consumer = built.consumer;
    built.run_together(
        Session::Discovery,
        &[consumer],
        SimTime::from_secs_f64(30.0),
    );
    (built.world.replay_digest(), built.world.stats().clone())
}

#[test]
fn parallel_sweep_matches_sequential_digests() {
    const SEEDS: [u64; 6] = [11, 22, 33, 44, 55, 66];
    let sequential = SweepRunner::new(1).run(SEEDS.len(), |i| run_job(SEEDS[i]));
    let parallel = SweepRunner::new(4).run(SEEDS.len(), |i| run_job(SEEDS[i]));
    assert_eq!(
        sequential, parallel,
        "replay digests or stats diverged between 1 and 4 workers"
    );
    // The digests also distinguish the seeds from each other — equality
    // above is not vacuous.
    let first = sequential[0].0;
    assert!(
        sequential.iter().skip(1).any(|(d, _)| *d != first),
        "different seeds should produce different digests"
    );
}
