//! Peer Data Discovery experiments (§VI-B-1/2 of the paper): saturation,
//! Fig. 4 (hops), Fig. 5 (round parameters), Fig. 6 (metadata amount),
//! Fig. 7 (sequential consumers), Fig. 8 (simultaneous consumers).

use super::RunConfig;
use crate::metrics::{average_runs, run_seeds, RunMetrics};
use crate::report::{f2, pct, Table};
use crate::scenario::{GridScenario, Workload};
use crate::sweep::run_grid;
use pds_core::{PdsConfig, RoundParams};
use pds_sim::{AckConfig, SimConfig, SimDuration, SimTime};

fn deadline(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

/// One discovery run on a grid; returns the consumer's metrics.
#[allow(clippy::too_many_arguments)] // one knob per experimental factor
fn discovery_run(
    rows: usize,
    cols: usize,
    sim: SimConfig,
    pds: PdsConfig,
    entries: usize,
    redundancy: usize,
    horizon: f64,
    seed: u64,
) -> RunMetrics {
    let sc = GridScenario {
        rows,
        cols,
        sim,
        pds,
        seed,
    };
    let wl = Workload::new(sc.node_count()).with_metadata(entries, redundancy, seed);
    let mut built = sc.build(&wl);
    let before = built.world.stats().clone();
    let consumer = built.consumer;
    built.start_discovery(consumer);
    built.run_until_done(&[consumer], deadline(horizon));
    built.discovery_metrics(consumer, &before)
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
pub fn saturation(cfg: &RunConfig) -> Vec<Table> {
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
        discovery_run(
            10,
            10,
            sim.clone(),
            single_round(),
            amount,
            redundancy,
            60.0,
            seed,
        )
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
        discovery_run(
            10,
            10,
            SimConfig::paper_multi_hop(),
            single_round(),
            entries,
            1,
            60.0,
            seed,
        )
    });
    let avg = average_runs(&runs);
    t2.push_row(vec![
        entries.to_string(),
        pct(avg.recall),
        f2(avg.latency_s),
        f2(avg.overhead_mb),
    ]);
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
        discovery_run(
            n,
            n,
            SimConfig::paper_multi_hop(),
            single_round(),
            50 * n * n,
            1,
            60.0,
            seed,
        )
    });
    for (&n, runs) in sizes.iter().zip(&grid) {
        let avg = average_runs(runs);
        t.push_row(vec![
            format!("{n}x{n}"),
            (n / 2).to_string(),
            pct(avg.recall),
            f2(avg.latency_s),
            f2(avg.overhead_mb),
        ]);
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
        discovery_run(
            10,
            10,
            SimConfig::paper_multi_hop(),
            pds,
            entries,
            1,
            90.0,
            seed,
        )
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
        discovery_run(
            10,
            10,
            SimConfig::paper_multi_hop(),
            PdsConfig::default(),
            amount,
            1,
            120.0,
            seed,
        )
    });
    for (&amount, runs) in amounts.iter().zip(&grid) {
        let avg = average_runs(runs);
        t.push_row(vec![
            amount.to_string(),
            pct(avg.recall),
            f2(avg.latency_s),
            f2(avg.overhead_mb),
            f2(avg.rounds),
        ]);
    }
    vec![t]
}

/// Fig. 7: five consumers discover one after another; opportunistic caching
/// makes later consumers faster.
pub(crate) fn fig07_sequential(cfg: &RunConfig) -> Vec<Table> {
    let entries = if cfg.quick { 1_000 } else { 5_000 };
    let consumers = 5usize;
    let mut t = Table::new(
        "Fig. 7 — PDD with sequential consumers",
        &["consumer", "recall", "latency_s", "overhead_mb"],
    );
    // Sequential runs yield one metric per consumer per seed. The unit of
    // parallelism is the seed: consumers within one world stay strictly
    // serial (the whole point of Fig. 7 is caching from earlier consumers).
    let per_seed: Vec<Vec<RunMetrics>> = run_seeds(cfg, |seed| {
        let sc = GridScenario::paper_default(seed);
        let wl = Workload::new(sc.node_count()).with_metadata(entries, 1, seed);
        let mut built = sc.build(&wl);
        let pool = built.center_pool.clone();
        pool.iter()
            .take(consumers)
            .map(|&consumer| {
                let before = built.world.stats().clone();
                built.start_discovery(consumer);
                built.run_until_done(&[consumer], built.world.now() + SimDuration::from_secs(120));
                built.discovery_metrics(consumer, &before)
            })
            .collect()
    });
    let mut all: Vec<Vec<RunMetrics>> = vec![Vec::new(); consumers];
    for seed_run in per_seed {
        for (i, m) in seed_run.into_iter().enumerate() {
            all[i].push(m);
        }
    }
    for (i, runs) in all.iter().enumerate() {
        let avg = average_runs(runs);
        t.push_row(vec![
            (i + 1).to_string(),
            pct(avg.recall),
            f2(avg.latency_s),
            f2(avg.overhead_mb),
        ]);
    }
    vec![t]
}

/// Fig. 8: 1–5 consumers discover simultaneously; mixedcast keeps the
/// per-consumer latency growth sub-linear.
pub(crate) fn fig08_simultaneous(cfg: &RunConfig) -> Vec<Table> {
    let entries = if cfg.quick { 1_000 } else { 5_000 };
    let mut t = Table::new(
        "Fig. 8 — PDD with simultaneous consumers",
        &["consumers", "recall", "mean_latency_s", "overhead_mb"],
    );
    let ks: Vec<usize> = (1..=5).collect();
    let grid = run_grid(cfg, &ks, |&k, seed| {
        let sc = GridScenario::paper_default(seed);
        let wl = Workload::new(sc.node_count()).with_metadata(entries, 1, seed);
        let mut built = sc.build(&wl);
        let consumers: Vec<_> = built.center_pool.iter().copied().take(k).collect();
        let before = built.world.stats().clone();
        for &c in &consumers {
            built.start_discovery(c);
        }
        built.run_until_done(&consumers, deadline(120.0));
        let metrics: Vec<RunMetrics> = consumers
            .iter()
            .map(|&c| built.discovery_metrics(c, &before))
            .collect();
        (
            metrics.iter().map(|m| m.recall).sum::<f64>() / k as f64,
            metrics.iter().map(|m| m.latency_s).sum::<f64>() / k as f64,
            // Overhead window is shared; take it once per seed.
            metrics[0].overhead_mb,
        )
    });
    for (&k, runs) in ks.iter().zip(&grid) {
        let n = cfg.seeds.len() as f64;
        t.push_row(vec![
            k.to_string(),
            pct(runs.iter().map(|r| r.0).sum::<f64>() / n),
            f2(runs.iter().map(|r| r.1).sum::<f64>() / n),
            f2(runs.iter().map(|r| r.2).sum::<f64>() / n),
        ]);
    }
    vec![t]
}
