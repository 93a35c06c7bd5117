//! Peer Data Retrieval experiments (§VI-B-3): Fig. 11 (item size),
//! Figs. 13/14 (PDR vs MDR under redundancy), Fig. 15 (sequential
//! consumers), Fig. 16 (simultaneous consumers).

use super::RunConfig;
use crate::metrics::{average_runs, run_seeds, RunMetrics};
use crate::report::{f2, pct, Table};
use crate::scenario::{GridScenario, Workload};
use crate::sweep::run_grid;
use pds_mobility::grid;
use pds_sim::{SimDuration, SimTime};

const CHUNK: usize = 256 * 1024;

fn deadline(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

/// One retrieval run; `mdr` picks the baseline.
fn retrieval_run(size_bytes: usize, redundancy: usize, mdr: bool, seed: u64) -> RunMetrics {
    let sc = GridScenario::paper_default(seed);
    let center = grid::center_index(10, 10);
    let wl = Workload::new(sc.node_count())
        .with_chunked_item("clip", size_bytes, CHUNK, redundancy, center, seed);
    let mut built = sc.build(&wl);
    let before = built.world.stats().clone();
    let consumer = built.consumer;
    if mdr {
        built.start_mdr(consumer);
    } else {
        built.start_retrieval(consumer);
    }
    built.run_until_done(&[consumer], deadline(600.0));
    built.retrieval_metrics(consumer, &before)
}

/// Fig. 11: PDR latency and overhead grow near-linearly with item size;
/// recall stays 100 %.
pub(crate) fn fig11_item_size(cfg: &RunConfig) -> Vec<Table> {
    let sizes_mb: &[usize] = if cfg.quick { &[1, 4] } else { &[1, 5, 10, 20] };
    let mut t = Table::new(
        "Fig. 11 — PDR vs data item size",
        &[
            "size_mb",
            "recall",
            "latency_s",
            "overhead_mb",
            "pdd_mb",
            "pdr_mb",
            "other_mb",
        ],
    );
    let grid = run_grid(cfg, sizes_mb, |&mb, seed| {
        retrieval_run(mb * 1_000_000, 1, false, seed)
    });
    for (&mb, runs) in sizes_mb.iter().zip(&grid) {
        let avg = average_runs(runs);
        let [pdd, pdr, _mdr, other] = avg.overhead_by_phase_mb;
        t.push_row(vec![
            mb.to_string(),
            pct(avg.recall),
            f2(avg.latency_s),
            f2(avg.overhead_mb),
            f2(pdd),
            f2(pdr),
            f2(other),
        ]);
    }
    vec![t]
}

/// Figs. 13/14: PDR vs MDR as chunk redundancy grows (20 MB item). MDR
/// degrades with more copies (duplicate replies); PDR stays flat or
/// improves (nearest-copy selection).
pub(crate) fn fig13_14_redundancy(cfg: &RunConfig) -> Vec<Table> {
    let size = if cfg.quick { 4_000_000 } else { 20_000_000 };
    let redundancies: &[usize] = if cfg.quick { &[1, 3] } else { &[1, 2, 3, 4, 5] };
    let mut lat = Table::new(
        "Fig. 13 — retrieval latency (s) vs chunk redundancy (20 MB)",
        &["redundancy", "PDR", "MDR", "PDR_recall", "MDR_recall"],
    );
    let mut ovh = Table::new(
        "Fig. 14 — message overhead (MB) vs chunk redundancy (20 MB)",
        &["redundancy", "PDR", "MDR"],
    );
    // One flat (redundancy, mdr?) × seed grid so the slow MDR points
    // overlap the fast PDR ones instead of running after them.
    let points: Vec<(usize, bool)> = redundancies
        .iter()
        .flat_map(|&r| [(r, false), (r, true)])
        .collect();
    let grid = run_grid(cfg, &points, |&(r, mdr), seed| {
        retrieval_run(size, r, mdr, seed)
    });
    let mut grid = grid.into_iter();
    for &r in redundancies {
        let pdr = average_runs(&grid.next().expect("one PDR result set per redundancy"));
        let mdr = average_runs(&grid.next().expect("one MDR result set per redundancy"));
        lat.push_row(vec![
            r.to_string(),
            f2(pdr.latency_s),
            f2(mdr.latency_s),
            pct(pdr.recall),
            pct(mdr.recall),
        ]);
        ovh.push_row(vec![
            r.to_string(),
            f2(pdr.overhead_mb),
            f2(mdr.overhead_mb),
        ]);
    }
    vec![lat, ovh]
}

/// Fig. 15: sequential PDR consumers — chunks cached by earlier retrievals
/// shorten paths for later ones.
pub(crate) fn fig15_sequential(cfg: &RunConfig) -> Vec<Table> {
    let size = if cfg.quick { 4_000_000 } else { 20_000_000 };
    let consumers = if cfg.quick { 3 } else { 5 };
    let mut t = Table::new(
        "Fig. 15 — PDR with sequential consumers (20 MB)",
        &["consumer", "recall", "latency_s", "overhead_mb"],
    );
    // Seeds run in parallel; consumers within one world stay serial (the
    // figure measures caching left behind by earlier retrievals).
    let per_seed: Vec<Vec<RunMetrics>> = run_seeds(cfg, |seed| {
        let sc = GridScenario::paper_default(seed);
        let center = grid::center_index(10, 10);
        let wl =
            Workload::new(sc.node_count()).with_chunked_item("clip", size, CHUNK, 1, center, seed);
        let mut built = sc.build(&wl);
        let pool = built.center_pool.clone();
        pool.iter()
            .take(consumers)
            .map(|&consumer| {
                let before = built.world.stats().clone();
                built.start_retrieval(consumer);
                built.run_until_done(&[consumer], built.world.now() + SimDuration::from_secs(600));
                built.retrieval_metrics(consumer, &before)
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

/// Fig. 16: simultaneous PDR consumers — latency/overhead rise then
/// stabilize as consumers share transmissions.
pub(crate) fn fig16_simultaneous(cfg: &RunConfig) -> Vec<Table> {
    let size = if cfg.quick { 4_000_000 } else { 20_000_000 };
    let max_consumers = if cfg.quick { 3 } else { 5 };
    let mut t = Table::new(
        "Fig. 16 — PDR with simultaneous consumers (20 MB)",
        &["consumers", "recall", "mean_latency_s", "overhead_mb"],
    );
    let ks: Vec<usize> = (1..=max_consumers).collect();
    let grid = run_grid(cfg, &ks, |&k, seed| {
        let sc = GridScenario::paper_default(seed);
        let center = grid::center_index(10, 10);
        let wl =
            Workload::new(sc.node_count()).with_chunked_item("clip", size, CHUNK, 1, center, seed);
        let mut built = sc.build(&wl);
        let consumers: Vec<_> = built.center_pool.iter().copied().take(k).collect();
        let before = built.world.stats().clone();
        for &c in &consumers {
            built.start_retrieval(c);
        }
        built.run_until_done(&consumers, deadline(900.0));
        let metrics: Vec<RunMetrics> = consumers
            .iter()
            .map(|&c| built.retrieval_metrics(c, &before))
            .collect();
        (
            metrics.iter().map(|m| m.recall).sum::<f64>() / k as f64,
            metrics.iter().map(|m| m.latency_s).sum::<f64>() / k as f64,
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
