//! Beyond-the-paper experiments: the design-choice ablations DESIGN.md
//! indexes, and an energy study using the radio energy model (the paper's
//! §VII names energy as the dominant cost of overhearing but defers
//! measurement to future work).

use super::RunConfig;
use crate::metrics::{average_runs, run_seeds, RunMetrics};
use crate::report::{f2, pct, Table};
use crate::scenario::{GridScenario, Workload};
use crate::sweep::run_grid;
use pds_core::{AssignStrategy, PdsConfig};
use pds_mobility::grid;
use pds_sim::{EnergyModel, SimTime};

/// One discovery run with the given protocol config and three simultaneous
/// consumers (mixedcast only has something to merge with several of them);
/// returns mean-recall/mean-latency/total-overhead.
fn discovery_with(pds: PdsConfig, entries: usize, redundancy: usize, seed: u64) -> RunMetrics {
    let mut sc = GridScenario::paper_default(seed);
    sc.pds = pds;
    let wl = Workload::new(sc.node_count()).with_metadata(entries, redundancy, seed);
    let mut built = sc.build(&wl);
    let before = built.world.stats().clone();
    let consumers: Vec<_> = built.center_pool.iter().copied().take(3).collect();
    for &c in &consumers {
        built.start_discovery(c);
    }
    built.run_until_done(&consumers, SimTime::from_secs_f64(120.0));
    let per: Vec<RunMetrics> = consumers
        .iter()
        .map(|&c| built.discovery_metrics(c, &before))
        .collect();
    let k = per.len() as f64;
    RunMetrics {
        recall: per.iter().map(|m| m.recall).sum::<f64>() / k,
        latency_s: per.iter().map(|m| m.latency_s).sum::<f64>() / k,
        overhead_mb: per[0].overhead_mb, // shared window: total traffic
        overhead_by_phase_mb: per[0].overhead_by_phase_mb,
        rounds: per.iter().map(|m| m.rounds).sum::<f64>() / k,
        finished: per.iter().all(|m| m.finished),
    }
}

/// One retrieval run with the given protocol config.
fn retrieval_with(pds: PdsConfig, size: usize, redundancy: usize, seed: u64) -> RunMetrics {
    let mut sc = GridScenario::paper_default(seed);
    sc.pds = pds;
    let center = grid::center_index(10, 10);
    let wl = Workload::new(sc.node_count()).with_chunked_item(
        "clip",
        size,
        256 * 1024,
        redundancy,
        center,
        seed,
    );
    let mut built = sc.build(&wl);
    let before = built.world.stats().clone();
    let consumer = built.consumer;
    built.start_retrieval(consumer);
    built.run_until_done(&[consumer], SimTime::from_secs_f64(400.0));
    built.retrieval_metrics(consumer, &before)
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
        let avg = average_runs(runs);
        t.push_row(vec![
            (*label).to_owned(),
            pct(avg.recall),
            f2(avg.latency_s),
            f2(avg.overhead_mb),
        ]);
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
        retrieval_with(pds, size, 3, seed)
    });
    for (&(label, _), runs) in assigns.iter().zip(&grid) {
        let avg = average_runs(runs);
        t2.push_row(vec![
            label.to_owned(),
            pct(avg.recall),
            f2(avg.latency_s),
            f2(avg.overhead_mb),
        ]);
    }
    vec![t, t2]
}

/// Energy study (extension of §VII): per-node energy of a normal-load
/// discovery and a retrieval, split into radio-traffic and idle-listening
/// cost under the default smartphone-Wi-Fi energy model.
pub fn energy(cfg: &RunConfig) -> Vec<Table> {
    let entries = if cfg.quick { 1_000 } else { 5_000 };
    let size = if cfg.quick { 2_000_000 } else { 10_000_000 };
    let model = EnergyModel::default();
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
    let mut row = |label: &str, sums: (f64, f64, f64)| {
        let (elapsed, total, idle) = sums;
        t.push_row(vec![
            label.to_owned(),
            f2(elapsed),
            f2(total),
            f2(total - idle),
            f2(idle),
            f2(total / 100.0),
        ]);
    };
    // Summing in seed order over the ordered `run_seeds` results keeps the
    // float accumulation identical to the old sequential loops.
    let fold = |runs: Vec<(f64, f64, f64)>| {
        let n = runs.len() as f64;
        let acc = runs
            .into_iter()
            .fold((0.0, 0.0, 0.0), |a, r| (a.0 + r.0, a.1 + r.1, a.2 + r.2));
        (acc.0 / n, acc.1 / n, acc.2 / n)
    };
    // Discovery.
    let runs = run_seeds(cfg, |seed| {
        let sc = GridScenario::paper_default(seed);
        let wl = Workload::new(sc.node_count()).with_metadata(entries, 1, seed);
        let mut built = sc.build(&wl);
        let consumer = built.consumer;
        built.start_discovery(consumer);
        built.run_until_done(&[consumer], SimTime::from_secs_f64(120.0));
        let elapsed = built.world.now().as_secs_f64();
        let total = built.world.energy_j(&model);
        let idle = model.idle_mw / 1e3 * elapsed * built.nodes.len() as f64;
        (elapsed, total, idle)
    });
    row(&format!("PDD ({entries} entries)"), fold(runs));
    // Retrieval.
    let runs = run_seeds(cfg, |seed| {
        let sc = GridScenario::paper_default(seed);
        let center = grid::center_index(10, 10);
        let wl = Workload::new(sc.node_count()).with_chunked_item(
            "clip",
            size,
            256 * 1024,
            1,
            center,
            seed,
        );
        let mut built = sc.build(&wl);
        let consumer = built.consumer;
        built.start_retrieval(consumer);
        built.run_until_done(&[consumer], SimTime::from_secs_f64(400.0));
        let elapsed = built.world.now().as_secs_f64();
        let total = built.world.energy_j(&model);
        let idle = model.idle_mw / 1e3 * elapsed * built.nodes.len() as f64;
        (elapsed, total, idle)
    });
    row(&format!("PDR ({} MB)", size / 1_000_000), fold(runs));
    vec![t]
}
