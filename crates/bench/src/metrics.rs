//! The paper's evaluation metrics (§VI-A): recall, latency, message
//! overhead — plus [`WallClock`], the one audited place benchmark
//! binaries read host time.

// det-lint: allow(wall-clock) -- benches measure host wall time by design; WallClock below is the single audited stopwatch all bench binaries route through.

/// Wall-clock stopwatch for benchmark binaries.
///
/// Benchmarks legitimately measure host time, but the determinism lint
/// bans `Instant` everywhere else; routing every measurement through this
/// helper keeps the exemption surface to exactly one file. Never use this
/// for anything that feeds simulation state.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(std::time::Instant);

impl WallClock {
    /// Starts a stopwatch.
    #[must_use]
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Self {
        Self(std::time::Instant::now())
    }

    /// Seconds elapsed since [`WallClock::start`].
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Metrics of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Fraction of distinct metadata entries or chunks received.
    pub recall: f64,
    /// Seconds from sending the query to the last returned entry/chunk.
    pub latency_s: f64,
    /// Megabytes of all messages transmitted during the operation
    /// (data, retransmissions and acks alike).
    pub overhead_mb: f64,
    /// `overhead_mb` decomposed as `[pdd, pdr, mdr, other]` megabytes:
    /// data-frame bytes attributed by traffic class, with acks and
    /// unclassified traffic in `other`. Sums to `overhead_mb`.
    pub overhead_by_phase_mb: [f64; 4],
    /// Discovery rounds (or chunk-query waves) issued.
    pub rounds: f64,
    /// Whether the operation terminated within the horizon.
    pub finished: bool,
}

impl RunMetrics {
    /// A zeroed, unfinished run (placeholder for failed horizons).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            recall: 0.0,
            latency_s: 0.0,
            overhead_mb: 0.0,
            overhead_by_phase_mb: [0.0; 4],
            rounds: 0.0,
            finished: false,
        }
    }

    /// The per-phase overhead split for a stats window: data bytes
    /// attributed by traffic class, everything else (acks, unclassified)
    /// folded into the last (`other`) bucket so the four components sum to
    /// `bytes_sent`.
    #[must_use]
    pub fn phase_split_mb(window: &pds_sim::Stats) -> [f64; 4] {
        let p = window.data_bytes_by_phase;
        let classified = p.pdd + p.pdr + p.mdr;
        [
            p.pdd as f64 / 1e6,
            p.pdr as f64 / 1e6,
            p.mdr as f64 / 1e6,
            window.bytes_sent.saturating_sub(classified) as f64 / 1e6,
        ]
    }
}

/// Averages runs component-wise (the paper averages over 5 runs);
/// `finished` becomes the conjunction.
///
/// # Panics
///
/// Panics if `runs` is empty.
#[must_use]
pub fn average_runs(runs: &[RunMetrics]) -> RunMetrics {
    assert!(!runs.is_empty(), "cannot average zero runs");
    let n = runs.len() as f64;
    let mut overhead_by_phase_mb = [0.0; 4];
    for r in runs {
        for (acc, v) in overhead_by_phase_mb.iter_mut().zip(r.overhead_by_phase_mb) {
            *acc += v / n;
        }
    }
    RunMetrics {
        recall: runs.iter().map(|r| r.recall).sum::<f64>() / n,
        latency_s: runs.iter().map(|r| r.latency_s).sum::<f64>() / n,
        overhead_mb: runs.iter().map(|r| r.overhead_mb).sum::<f64>() / n,
        overhead_by_phase_mb,
        rounds: runs.iter().map(|r| r.rounds).sum::<f64>() / n,
        finished: runs.iter().all(|r| r.finished),
    }
}

/// Runs `f` once per seed on the process-wide [`crate::sweep::SweepRunner`]
/// pool (each run builds its own world) and returns the results **in
/// input-seed order**, regardless of which worker finishes first.
///
/// The ordering contract is load-bearing: every table and CSV averages
/// `results[i]` against `seeds[i]`, and the parallel executor's
/// bit-identical-to-sequential guarantee rests on it (see
/// `run_seeds_preserves_order` below and `crate::sweep`).
pub fn run_seeds<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    crate::sweep::SweepRunner::with_process_jobs().run(seeds.len(), |i| f(seeds[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_is_componentwise() {
        let a = RunMetrics {
            recall: 1.0,
            latency_s: 2.0,
            overhead_mb: 4.0,
            overhead_by_phase_mb: [1.0, 2.0, 0.0, 1.0],
            rounds: 2.0,
            finished: true,
        };
        let b = RunMetrics {
            recall: 0.5,
            latency_s: 4.0,
            overhead_mb: 8.0,
            overhead_by_phase_mb: [2.0, 4.0, 0.0, 2.0],
            rounds: 4.0,
            finished: true,
        };
        let avg = average_runs(&[a, b]);
        assert!((avg.recall - 0.75).abs() < 1e-12);
        assert!((avg.latency_s - 3.0).abs() < 1e-12);
        assert!((avg.overhead_mb - 6.0).abs() < 1e-12);
        assert_eq!(avg.overhead_by_phase_mb, [1.5, 3.0, 0.0, 1.5]);
        assert!(avg.finished);
    }

    #[test]
    fn unfinished_run_poisons_average_flag() {
        let ok = RunMetrics {
            finished: true,
            ..RunMetrics::empty()
        };
        let bad = RunMetrics::empty();
        assert!(!average_runs(&[ok, bad]).finished);
    }

    #[test]
    fn run_seeds_preserves_order() {
        let out = run_seeds(&[1, 2, 3], |seed| RunMetrics {
            recall: seed as f64,
            ..RunMetrics::empty()
        });
        let recalls: Vec<f64> = out.iter().map(|r| r.recall).collect();
        assert_eq!(recalls, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn average_empty_panics() {
        let _ = average_runs(&[]);
    }
}
