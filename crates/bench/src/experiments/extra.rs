//! Beyond-the-paper experiments: the design-choice ablations DESIGN.md
//! indexes, and an energy study using the radio energy model (the paper's
//! §VII names energy as the dominant cost of overhearing but defers
//! measurement to future work).

use super::pdd::discovery_run;
use super::pdr::retrieval_run;
use super::{deadline, row, RunConfig};
use crate::metrics::{average_runs, run_seeds, RunMetrics};
use crate::report::{f2, Table};
use crate::scenario::{GridScenario, Session, Workload};
use crate::sweep::run_grid;
use pds_core::{AssignStrategy, PdsConfig};

/// One discovery run with the given protocol config and three simultaneous
/// consumers (mixedcast only has something to merge with several of them);
/// returns their shared-window mean.
fn discovery_with(pds: PdsConfig, entries: usize, redundancy: usize, seed: u64) -> RunMetrics {
    let sc = GridScenario {
        pds,
        ..GridScenario::paper_default(seed)
    };
    let mut built =
        sc.build(&Workload::new(sc.node_count()).with_metadata(entries, redundancy, seed));
    let consumers: Vec<_> = built.center_pool.iter().copied().take(3).collect();
    let per = built.run_together(Session::Discovery, &consumers, deadline(120.0));
    RunMetrics::shared_window_mean(&per)
}

/// Design ablations (DESIGN.md §4): each row disables one of the paper's
/// mechanisms on the normal-load discovery scenario (plus the assignment
/// ablation on a retrieval). Overhead is the paper's cost metric.
pub(crate) fn ablations(cfg: &RunConfig) -> Vec<Table> {
    let entries = if cfg.quick { 1_000 } else { 5_000 };
    // Redundancy 2 gives the Bloom-filter machinery duplicates to prune.
    let redundancy = 2;
    let mut t = Table::new(
        format!(
            "Ablations — PDD mechanisms ({entries} entries, redundancy {redundancy}, 3 simultaneous consumers)"
        ),
        &["variant", "recall", "latency_s", "overhead_mb"],
    );
    let variants: Vec<(&str, PdsConfig)> = vec![
        ("full PDS (paper)", PdsConfig::default()),
        (
            "one-shot queries (NDN-style)",
            PdsConfig {
                one_shot_queries: true,
                ..PdsConfig::default()
            },
        ),
        (
            "no mixedcast",
            PdsConfig {
                mixedcast: false,
                ..PdsConfig::default()
            },
        ),
        (
            "no en-route rewriting",
            PdsConfig {
                rewrite: false,
                ..PdsConfig::default()
            },
        ),
    ];
    let grid = run_grid(cfg, &variants, |(_, pds), seed| {
        discovery_with(pds.clone(), entries, redundancy, seed)
    });
    for ((label, _), runs) in variants.iter().zip(&grid) {
        t.push_row(row(vec![(*label).to_owned()], &average_runs(runs)));
    }

    let size = if cfg.quick { 2_000_000 } else { 10_000_000 };
    let mut t2 = Table::new(
        format!(
            "Ablations — chunk assignment ({} MB, redundancy 3)",
            size / 1_000_000
        ),
        &["variant", "recall", "latency_s", "overhead_mb"],
    );
    let assigns = [
        ("min-max heuristic (paper)", AssignStrategy::MinMax),
        ("greedy least-hop", AssignStrategy::Greedy),
    ];
    let grid = run_grid(cfg, &assigns, |&(_, assign), seed| {
        let pds = PdsConfig {
            assign,
            ..PdsConfig::default()
        };
        retrieval_run(pds, Session::Pdr, size, 3, 400.0, seed)
    });
    for (&(label, _), runs) in assigns.iter().zip(&grid) {
        t2.push_row(row(vec![label.to_owned()], &average_runs(runs)));
    }
    vec![t, t2]
}

/// Energy study (extension of §VII): per-node energy of a normal-load
/// discovery and a retrieval, split into radio-traffic and idle-listening
/// cost under the default smartphone-Wi-Fi energy model.
pub(crate) fn energy(cfg: &RunConfig) -> Vec<Table> {
    let entries = if cfg.quick { 1_000 } else { 5_000 };
    let size = if cfg.quick { 2_000_000 } else { 10_000_000 };
    let mut t = Table::new(
        "Energy (extension) — total radio energy per operation, 100 nodes",
        &[
            "operation",
            "sim_time_s",
            "total_J",
            "traffic_J",
            "idle_J",
            "J_per_node",
        ],
    );
    let pdd = run_seeds(cfg, |seed| {
        discovery_run(&GridScenario::paper_default(seed), entries, 1, 120.0)
    });
    let pdr = run_seeds(cfg, |seed| {
        retrieval_run(PdsConfig::default(), Session::Pdr, size, 1, 400.0, seed)
    });
    let ops = [
        (format!("PDD ({entries} entries)"), pdd),
        (format!("PDR ({} MB)", size / 1_000_000), pdr),
    ];
    for (label, runs) in ops {
        let avg = average_runs(&runs);
        let [total, idle] = avg.energy_j;
        t.push_row(vec![
            label,
            f2(avg.sim_time_s),
            f2(total),
            f2(total - idle),
            f2(idle),
            f2(total / 100.0),
        ]);
    }
    vec![t]
}
