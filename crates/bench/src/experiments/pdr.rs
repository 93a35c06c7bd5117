//! Peer Data Retrieval experiments (§VI-B-3): Fig. 11 (item size),
//! Figs. 13/14 (PDR vs MDR under redundancy), Fig. 15 (sequential
//! consumers), Fig. 16 (simultaneous consumers).

use super::{deadline, row, sequential, simultaneous, RunConfig};
use crate::metrics::{average_runs, RunMetrics};
use crate::report::{f2, pct, Table};
use crate::scenario::{GridScenario, Session, Workload};
use crate::sweep::run_grid;
use pds_core::PdsConfig;
use pds_mobility::grid;
use pds_sim::SimDuration;

/// A `size`-byte item in 256 KiB chunks, `redundancy` copies of each, on
/// the nodes of `sc` other than its center.
fn clip(sc: &GridScenario, size: usize, redundancy: usize) -> Workload {
    let center = grid::center_index(sc.rows, sc.cols);
    Workload::new(sc.node_count()).with_chunked_item(
        "clip",
        size,
        256 * 1024,
        redundancy,
        center,
        sc.seed,
    )
}

/// One `session` retrieval of a `clip` by the consumer at the center of
/// a paper-default grid running `pds`, until `horizon_s`.
pub(super) fn retrieval_run(
    pds: PdsConfig,
    session: Session,
    size: usize,
    redundancy: usize,
    horizon_s: f64,
    seed: u64,
) -> RunMetrics {
    let sc = GridScenario {
        pds,
        ..GridScenario::paper_default(seed)
    };
    let mut built = sc.build(&clip(&sc, size, redundancy));
    built.run_together(session, &[built.consumer], deadline(horizon_s))[0]
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
        retrieval_run(
            PdsConfig::default(),
            Session::Pdr,
            mb * 1_000_000,
            1,
            600.0,
            seed,
        )
    });
    for (&mb, runs) in sizes_mb.iter().zip(&grid) {
        let avg = average_runs(runs);
        let [pdd, pdr, _mdr, other] = avg.overhead_by_phase_mb;
        let mut cells = row(vec![mb.to_string()], &avg);
        cells.extend([f2(pdd), f2(pdr), f2(other)]);
        t.push_row(cells);
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
    let points: Vec<(usize, Session)> = redundancies
        .iter()
        .flat_map(|&r| [(r, Session::Pdr), (r, Session::Mdr)])
        .collect();
    let grid = run_grid(cfg, &points, |&(r, session), seed| {
        retrieval_run(PdsConfig::default(), session, size, r, 600.0, seed)
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
    sequential(
        cfg,
        "Fig. 15 — PDR with sequential consumers (20 MB)",
        Session::Pdr,
        |sc| clip(sc, size, 1),
        if cfg.quick { 3 } else { 5 },
        SimDuration::from_secs(600),
    )
}

/// Fig. 16: simultaneous PDR consumers — latency/overhead rise then
/// stabilize as consumers share transmissions.
pub(crate) fn fig16_simultaneous(cfg: &RunConfig) -> Vec<Table> {
    let size = if cfg.quick { 4_000_000 } else { 20_000_000 };
    simultaneous(
        cfg,
        "Fig. 16 — PDR with simultaneous consumers (20 MB)",
        Session::Pdr,
        |sc| clip(sc, size, 1),
        if cfg.quick { 3 } else { 5 },
        900.0,
    )
}
