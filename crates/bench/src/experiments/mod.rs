//! One experiment per paper figure. Each returns [`Table`]s that the
//! `figures` binary prints and writes as CSV.
//!
//! Every experiment averages over the configured seeds (the paper averages
//! over 5 runs) and reports the paper's metrics: recall, latency and message
//! overhead.

mod extra;
mod mobility;
mod pdd;
mod pdr;
mod phys;

use extra::{ablations, energy};
use mobility::{fig09_10_mobility_pdd, fig12_mobility_pdr};
use pdd::{
    fig04_hops, fig05_rounds, fig06_amount, fig07_sequential, fig08_simultaneous, saturation,
};
use pdr::{fig11_item_size, fig13_14_redundancy, fig15_sequential, fig16_simultaneous};
use phys::{ack_sweep, fig03_single_hop, leaky_sweep};

use crate::metrics::{average_runs, run_seeds, RunMetrics};
use crate::report::{f2, pct, Table};
use crate::scenario::{GridScenario, Session, Workload};
use crate::sweep::run_grid;
use pds_sim::{SimDuration, SimTime};

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seeds to average over (the paper uses 5 runs).
    pub seeds: Vec<u64>,
    /// Reduced problem sizes for quick runs (`figures --quick`, smoke
    /// tests). Full size reproduces the paper's parameters.
    pub quick: bool,
    /// Sweep workers (`figures --jobs N`); every table is identical
    /// whatever the count (see [`crate::sweep`]).
    pub jobs: usize,
}

impl RunConfig {
    /// The paper's configuration: 5 seeds, full sizes.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            seeds: vec![11, 22, 33, 44, 55],
            quick: false,
            jobs: available_jobs(),
        }
    }

    /// Reduced sizes and a single seed, for benches and smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            seeds: vec![11],
            quick: true,
            jobs: available_jobs(),
        }
    }
}

/// One sweep worker per available core (1 if that cannot be determined).
fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `secs` seconds after time 0.
fn deadline(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

/// A table row: the `lead` cells, then recall, latency and overhead.
fn row(mut lead: Vec<String>, m: &RunMetrics) -> Vec<String> {
    lead.extend([pct(m.recall), f2(m.latency_s), f2(m.overhead_mb)]);
    lead
}

/// Figs. 7 and 15: `consumers` consumers of the center sub-grid run
/// `session` one after another in a paper-default world, each with
/// `horizon` from its start; one row per consumer, averaged over seeds.
fn sequential(
    cfg: &RunConfig,
    title: &str,
    session: Session,
    workload: impl Fn(&GridScenario) -> Workload + Sync,
    consumers: usize,
    horizon: SimDuration,
) -> Vec<Table> {
    let mut t = Table::new(title, &["consumer", "recall", "latency_s", "overhead_mb"]);
    // Seeds run in parallel; consumers within one world stay serial (the
    // figures measure what earlier consumers left cached).
    let per_seed = run_seeds(cfg, |seed| {
        let sc = GridScenario::paper_default(seed);
        let mut built = sc.build(&workload(&sc));
        let pool: Vec<_> = built.center_pool.iter().copied().take(consumers).collect();
        built.run_in_turn(session, &pool, horizon)
    });
    for i in 0..consumers {
        let runs: Vec<RunMetrics> = per_seed.iter().map(|per| per[i]).collect();
        t.push_row(row(vec![(i + 1).to_string()], &average_runs(&runs)));
    }
    vec![t]
}

/// Figs. 8 and 16: 1 to `max_consumers` consumers of the center sub-grid
/// run `session` at once in a paper-default world until `horizon_s`; one
/// row per consumer count, each world's shared-window mean averaged over
/// seeds.
fn simultaneous(
    cfg: &RunConfig,
    title: &str,
    session: Session,
    workload: impl Fn(&GridScenario) -> Workload + Sync,
    max_consumers: usize,
    horizon_s: f64,
) -> Vec<Table> {
    let mut t = Table::new(
        title,
        &["consumers", "recall", "mean_latency_s", "overhead_mb"],
    );
    let ks: Vec<usize> = (1..=max_consumers).collect();
    let grid = run_grid(cfg, &ks, |&k, seed| {
        let sc = GridScenario::paper_default(seed);
        let mut built = sc.build(&workload(&sc));
        let consumers: Vec<_> = built.center_pool.iter().copied().take(k).collect();
        let per = built.run_together(session, &consumers, deadline(horizon_s));
        RunMetrics::shared_window_mean(&per)
    });
    for (&k, runs) in ks.iter().zip(&grid) {
        t.push_row(row(vec![k.to_string()], &average_runs(runs)));
    }
    vec![t]
}

/// An experiment: its CLI name and runner.
pub struct Experiment {
    /// CLI name (e.g. `fig3`).
    pub name: &'static str,
    /// What it reproduces.
    pub describes: &'static str,
    /// Runner.
    pub run: fn(&RunConfig) -> Vec<Table>,
}

/// All experiments in paper order.
#[must_use]
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig3",
            describes: "Fig. 3 — single-hop reception & data rate: raw UDP vs leaky bucket vs +ack",
            run: fig03_single_hop,
        },
        Experiment {
            name: "leaky-sweep",
            describes: "§V-2 (figure omitted in paper) — reception vs LeakingRate / BucketCapacity",
            run: leaky_sweep,
        },
        Experiment {
            name: "ack-sweep",
            describes: "§V-1 (figure omitted in paper) — reception vs RetrTimeout / MaxRetrTime",
            run: ack_sweep,
        },
        Experiment {
            name: "saturation",
            describes: "§VI-B — single-round PDD recall vs metadata amount and redundancy (no ack)",
            run: saturation,
        },
        Experiment {
            name: "fig4",
            describes: "Fig. 4 — single-round PDD recall vs max hop count (3×3 … 11×11 grids)",
            run: fig04_hops,
        },
        Experiment {
            name: "fig5",
            describes: "Fig. 5 — multi-round PDD recall vs window T and threshold T_d",
            run: fig05_rounds,
        },
        Experiment {
            name: "fig6",
            describes: "Fig. 6 — PDD recall/latency/overhead vs metadata amount (5k–20k)",
            run: fig06_amount,
        },
        Experiment {
            name: "fig7",
            describes: "Fig. 7 — PDD with sequential consumers (caching speeds up later ones)",
            run: fig07_sequential,
        },
        Experiment {
            name: "fig8",
            describes: "Fig. 8 — PDD with simultaneous consumers (mixedcast)",
            run: fig08_simultaneous,
        },
        Experiment {
            name: "fig9",
            describes: "Figs. 9/10 — PDD under Student Center / Classroom mobility",
            run: fig09_10_mobility_pdd,
        },
        Experiment {
            name: "fig11",
            describes: "Fig. 11 — PDR latency/overhead vs data item size (1–20 MB)",
            run: fig11_item_size,
        },
        Experiment {
            name: "fig12",
            describes: "Fig. 12 — PDR latency under Student Center mobility (20 MB)",
            run: fig12_mobility_pdr,
        },
        Experiment {
            name: "fig13",
            describes: "Figs. 13/14 — PDR vs MDR latency/overhead vs chunk redundancy (20 MB)",
            run: fig13_14_redundancy,
        },
        Experiment {
            name: "fig15",
            describes: "Fig. 15 — PDR with sequential consumers (chunk caching)",
            run: fig15_sequential,
        },
        Experiment {
            name: "fig16",
            describes: "Fig. 16 — PDR with simultaneous consumers",
            run: fig16_simultaneous,
        },
        Experiment {
            name: "ablations",
            describes: "Extension — design ablations: lingering/mixedcast/rewriting/assignment",
            run: ablations,
        },
        Experiment {
            name: "energy",
            describes: "Extension — radio energy of PDD/PDR under the default energy model",
            run: energy,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_unique_names() {
        let exps = all();
        let mut names: Vec<&str> = exps.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), exps.len());
        assert_eq!(exps.len(), 17);
    }

    #[test]
    fn run_configs_differ() {
        assert_eq!(RunConfig::paper().seeds.len(), 5);
        assert!(RunConfig::quick().quick);
    }

    /// Smoke-runs two cheap experiments end to end: every experiment goes
    /// through the same scenario/metrics plumbing, so this catches harness
    /// regressions without paying for the heavy figures.
    #[test]
    fn quick_experiments_produce_populated_tables() {
        let cfg = RunConfig::quick();
        for name in ["fig4", "fig9"] {
            let exp = all()
                .into_iter()
                .find(|e| e.name == name)
                .expect("registered");
            let tables = (exp.run)(&cfg);
            assert!(!tables.is_empty(), "{name} returned no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{name}: empty table {}", t.title);
                assert!(t.rows.iter().all(|r| r.len() == t.columns.len()));
            }
        }
    }
}
