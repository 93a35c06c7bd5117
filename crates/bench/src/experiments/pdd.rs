//! Peer Data Discovery experiments (§VI-B-1/2 of the paper): saturation,
//! Fig. 4 (hops), Fig. 5 (round parameters), Fig. 6 (metadata amount),
//! Fig. 7 (sequential consumers), Fig. 8 (simultaneous consumers).

use super::{deadline, row, sequential, simultaneous, RunConfig};
use crate::metrics::{average_runs, run_seeds, RunMetrics};
use crate::report::{f2, pct, Table};
use crate::scenario::{GridScenario, Session, Workload};
use crate::sweep::run_grid;
use pds_core::{PdsConfig, RoundParams};
use pds_sim::{AckConfig, SimConfig, SimDuration};

/// One discovery of `entries` metadata entries (`redundancy` copies each)
/// by the consumer at the center of `sc`, until `horizon_s`.
pub(super) fn discovery_run(
    sc: &GridScenario,
    entries: usize,
    redundancy: usize,
    horizon_s: f64,
) -> RunMetrics {
    let wl = Workload::new(sc.node_count()).with_metadata(entries, redundancy, sc.seed);
    let mut built = sc.build(&wl);
    built.run_together(Session::Discovery, &[built.consumer], deadline(horizon_s))[0]
}

fn single_round() -> PdsConfig {
    PdsConfig {
        rounds: RoundParams {
            max_rounds: 1,
            ..RoundParams::default()
        },
        ..PdsConfig::default()
    }
}

/// §VI-B saturation study: single-round PDD **without** ack/retransmission,
/// recall vs total metadata amount for redundancy 1 and 2. The paper
/// observes a knee around 10 000 entries.
pub(crate) fn saturation(cfg: &RunConfig) -> Vec<Table> {
    let amounts: &[usize] = if cfg.quick {
        &[500, 2_000]
    } else {
        &[1_000, 2_000, 5_000, 10_000, 20_000]
    };
    let mut t = Table::new(
        "§VI-B — single-round PDD recall without ack vs metadata amount",
        &["entries", "redundancy=1", "redundancy=2"],
    );
    let mut sim = SimConfig::paper_multi_hop();
    sim.ack = AckConfig::disabled();
    let points: Vec<(usize, usize)> = amounts
        .iter()
        .flat_map(|&amount| [1usize, 2].into_iter().map(move |r| (amount, r)))
        .collect();
    let grid = run_grid(cfg, &points, |&(amount, redundancy), seed| {
        let sc = GridScenario {
            sim: sim.clone(),
            pds: single_round(),
            ..GridScenario::paper_default(seed)
        };
        discovery_run(&sc, amount, redundancy, 60.0)
    });
    let mut grid = grid.into_iter();
    for &amount in amounts {
        let mut cells = vec![amount.to_string()];
        for _redundancy in [1usize, 2] {
            let runs = grid
                .next()
                .expect("one result set per (amount, redundancy)");
            cells.push(pct(average_runs(&runs).recall));
        }
        t.push_row(cells);
    }
    // The paper's in-text companion number (§VI-B-1): one round *with*
    // ack/retransmission at normal load — 76 % recall, 3.2 s, 1.54 MB.
    let mut t2 = Table::new(
        "§VI-B-1 — single-round PDD with ack at normal load",
        &["entries", "recall", "latency_s", "overhead_mb"],
    );
    let entries = if cfg.quick { 2_000 } else { 5_000 };
    let runs = run_seeds(cfg, |seed| {
        let sc = GridScenario {
            pds: single_round(),
            ..GridScenario::paper_default(seed)
        };
        discovery_run(&sc, entries, 1, 60.0)
    });
    t2.push_row(row(vec![entries.to_string()], &average_runs(&runs)));
    vec![t, t2]
}

/// Fig. 4: single-round PDD (with ack) on growing grids, 50 entries per
/// node; recall drops as the maximum hop count grows.
pub(crate) fn fig04_hops(cfg: &RunConfig) -> Vec<Table> {
    let sizes: &[usize] = if cfg.quick {
        &[3, 5]
    } else {
        &[3, 5, 7, 9, 11]
    };
    let mut t = Table::new(
        "Fig. 4 — single-round PDD vs max hop count (50 entries/node)",
        &["grid", "max_hops", "recall", "latency_s", "overhead_mb"],
    );
    let grid = run_grid(cfg, sizes, |&n, seed| {
        let sc = GridScenario {
            rows: n,
            cols: n,
            pds: single_round(),
            ..GridScenario::paper_default(seed)
        };
        discovery_run(&sc, 50 * n * n, 1, 60.0)
    });
    for (&n, runs) in sizes.iter().zip(&grid) {
        let lead = vec![format!("{n}x{n}"), (n / 2).to_string()];
        t.push_row(row(lead, &average_runs(runs)));
    }
    vec![t]
}

/// Fig. 5: multi-round PDD recall (plus latency/overhead, whose figures the
/// paper omits) vs the window `T` for `T_d ∈ {0, 0.1, 0.3}`, `T_r = 0`.
pub(crate) fn fig05_rounds(cfg: &RunConfig) -> Vec<Table> {
    let windows: &[u64] = if cfg.quick {
        &[400, 1_000]
    } else {
        &[200, 400, 600, 800, 1_000, 1_200]
    };
    let tds = [0.0, 0.1, 0.3];
    let entries = if cfg.quick { 1_000 } else { 5_000 };
    let mut recall = Table::new(
        "Fig. 5 — multi-round PDD recall vs T (T_r = 0)",
        &["T_s", "Td=0", "Td=0.1", "Td=0.3"],
    );
    let mut latency = Table::new(
        "Fig. 5 (companion) — latency (s) vs T",
        &["T_s", "Td=0", "Td=0.1", "Td=0.3"],
    );
    let mut overhead = Table::new(
        "Fig. 5 (companion) — overhead (MB) vs T",
        &["T_s", "Td=0", "Td=0.1", "Td=0.3"],
    );
    let points: Vec<(u64, f64)> = windows
        .iter()
        .flat_map(|&w| tds.iter().map(move |&td| (w, td)))
        .collect();
    let grid = run_grid(cfg, &points, |&(window, td), seed| {
        let pds = PdsConfig {
            rounds: RoundParams {
                t_window: SimDuration::from_millis(window),
                t_d: td,
                ..RoundParams::default()
            },
            ..PdsConfig::default()
        };
        let sc = GridScenario {
            pds,
            ..GridScenario::paper_default(seed)
        };
        discovery_run(&sc, entries, 1, 90.0)
    });
    let mut grid = grid.into_iter();
    for &window in windows {
        let mut rc = vec![f2(window as f64 / 1000.0)];
        let mut lc = rc.clone();
        let mut oc = rc.clone();
        for _td in &tds {
            let runs = grid.next().expect("one result set per (window, td)");
            let avg = average_runs(&runs);
            rc.push(pct(avg.recall));
            lc.push(f2(avg.latency_s));
            oc.push(f2(avg.overhead_mb));
        }
        recall.push_row(rc);
        latency.push_row(lc);
        overhead.push_row(oc);
    }
    vec![recall, latency, overhead]
}

/// Fig. 6: multi-round PDD vs metadata amount 5k–20k: recall stays ~100 %,
/// latency grows sub-linearly, overhead near-linearly.
pub(crate) fn fig06_amount(cfg: &RunConfig) -> Vec<Table> {
    let amounts: &[usize] = if cfg.quick {
        &[500, 2_000]
    } else {
        &[5_000, 10_000, 15_000, 20_000]
    };
    let mut t = Table::new(
        "Fig. 6 — multi-round PDD vs metadata amount",
        &["entries", "recall", "latency_s", "overhead_mb", "rounds"],
    );
    let grid = run_grid(cfg, amounts, |&amount, seed| {
        discovery_run(&GridScenario::paper_default(seed), amount, 1, 120.0)
    });
    for (&amount, runs) in amounts.iter().zip(&grid) {
        let avg = average_runs(runs);
        let mut cells = row(vec![amount.to_string()], &avg);
        cells.push(f2(avg.rounds));
        t.push_row(cells);
    }
    vec![t]
}

/// Fig. 7: five consumers discover one after another; opportunistic caching
/// makes later consumers faster.
pub(crate) fn fig07_sequential(cfg: &RunConfig) -> Vec<Table> {
    let entries = if cfg.quick { 1_000 } else { 5_000 };
    sequential(
        cfg,
        "Fig. 7 — PDD with sequential consumers",
        Session::Discovery,
        |sc| Workload::new(sc.node_count()).with_metadata(entries, 1, sc.seed),
        5,
        SimDuration::from_secs(120),
    )
}

/// Fig. 8: 1–5 consumers discover simultaneously; mixedcast keeps the
/// per-consumer latency growth sub-linear.
pub(crate) fn fig08_simultaneous(cfg: &RunConfig) -> Vec<Table> {
    let entries = if cfg.quick { 1_000 } else { 5_000 };
    simultaneous(
        cfg,
        "Fig. 8 — PDD with simultaneous consumers",
        Session::Discovery,
        |sc| Workload::new(sc.node_count()).with_metadata(entries, 1, sc.seed),
        5,
        120.0,
    )
}
