//! Deterministic parallel sweep executor.
//!
//! The paper's evaluation is an embarrassingly parallel grid of independent
//! simulations — 5 seeds × dozens of scenario points — and every job builds
//! its own [`pds_sim::World`] from its own seed. Parallelism therefore
//! cannot change any result, only wall-clock order of completion; the
//! executor's one obligation is to hand results back **in job order**, so
//! every table, CSV and averaged metric is bit-identical to a sequential
//! run. That claim is enforced three ways: the `parallel_digest`
//! integration test (replay digests equal across job counts), the
//! `properties.rs` property test (identical `RunMetrics` at `--jobs 1` vs
//! `--jobs 4`), and the CI figure-sweep smoke (`diff -r` over the CSVs of
//! a `--jobs 1` and a `--jobs 2` run).
//!
//! The pool is hand-rolled on `std::thread::scope` (the workspace vendors
//! no thread-pool crate): workers pull job indices from a shared atomic
//! counter and send `(index, result)` pairs over a channel; the main
//! thread slots them back into input order. Threading is allowed here and
//! nowhere else: `clippy.toml` bans threads and channels workspace-wide,
//! and [`SweepRunner::run`] carries the one audited exemption.

use crate::experiments::RunConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs independent jobs on a bounded worker pool, returning results in
/// job order regardless of completion order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with exactly `jobs` workers (clamped to at least 1).
    /// `SweepRunner::new(1)` is a plain sequential loop on the calling
    /// thread — byte-for-byte today's behavior.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Executes `f(0), f(1), …, f(count - 1)` across the pool and returns
    /// `vec![f(0), …, f(count - 1)]` — always in job order. Each job must
    /// be self-contained (derive all randomness from its own inputs); the
    /// executor guarantees only ordering, not isolation.
    #[expect(
        clippy::disallowed_methods,
        reason = "the sweep executor runs whole independent worlds side by side and returns results in job order"
    )]
    pub fn run<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(count);
        if workers <= 1 {
            return (0..count).map(f).collect();
        }
        let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        return;
                    }
                    if tx.send((i, f(i))).is_err() {
                        return;
                    }
                });
            }
            // Drop the original sender so `rx` disconnects once every
            // worker finishes; then slot results back into input order.
            drop(tx);
            for (i, value) in rx {
                results[i] = Some(value);
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every job index was claimed exactly once"))
            .collect()
    }
}

/// Runs a `points × cfg.seeds` grid on `cfg.jobs` workers as one flat job
/// list (so late points keep all workers busy) and chunks the results
/// back into one `Vec` per point, both dimensions in input order.
///
/// This is the workhorse behind the per-point loops in
/// `experiments/{pdd,pdr,phys,mobility,extra}.rs`: tables built from its
/// output are bit-identical to the old nested sequential loops.
pub(crate) fn run_grid<P, T, F>(cfg: &RunConfig, points: &[P], f: F) -> Vec<Vec<T>>
where
    P: Sync,
    T: Send,
    F: Fn(&P, u64) -> T + Sync,
{
    let seeds = &cfg.seeds;
    let per = seeds.len();
    let flat =
        SweepRunner::new(cfg.jobs).run(points.len() * per, |i| f(&points[i / per], seeds[i % per]));
    let mut flat = flat.into_iter();
    points
        .iter()
        .map(|_| (0..per).map(|_| flat.next().expect("sized")).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for jobs in [1, 2, 4, 16] {
            let out = SweepRunner::new(jobs).run(37, |i| i * 10);
            assert_eq!(out, (0..37).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn job_count_does_not_change_results() {
        // Unequal job durations so completion order differs from job order.
        let work = |i: usize| {
            let mut acc = i as u64;
            for _ in 0..(i % 7) * 10_000 {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            (i, acc)
        };
        let seq = SweepRunner::new(1).run(25, work);
        for jobs in [2, 3, 8] {
            assert_eq!(SweepRunner::new(jobs).run(25, work), seq);
        }
    }

    #[test]
    fn empty_and_single_job_edges() {
        assert_eq!(SweepRunner::new(4).run(0, |i| i), Vec::<usize>::new());
        assert_eq!(SweepRunner::new(4).run(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn grid_is_chunked_per_point_in_order() {
        let points = ["a", "b", "c"];
        let cfg = RunConfig {
            seeds: vec![7, 8],
            quick: true,
            jobs: 2,
        };
        let grid = run_grid(&cfg, &points, |p, s| format!("{p}{s}"));
        assert_eq!(
            grid,
            vec![
                vec!["a7".to_string(), "a8".to_string()],
                vec!["b7".to_string(), "b8".to_string()],
                vec!["c7".to_string(), "c8".to_string()],
            ]
        );
    }

    #[test]
    fn clamps_zero_jobs_to_one() {
        assert_eq!(SweepRunner::new(0).jobs, 1);
    }
}
