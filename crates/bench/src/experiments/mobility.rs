//! Mobility experiments (§VI-B-2/3): Figs. 9/10 (PDD under Student Center /
//! Classroom mobility) and Fig. 12 (PDR under Student Center mobility).

use super::{deadline, row, RunConfig};
use crate::metrics::{average_runs, RunMetrics};
use crate::report::{f2, Table};
use crate::scenario::{MobilityScenario, Session, Workload};
use crate::sweep::run_grid;
use pds_core::PdsConfig;
use pds_mobility::{presets, ObservationParams};
use pds_sim::{SimConfig, SimDuration};

fn scenario(
    params: ObservationParams,
    multiplier: f64,
    duration_s: u64,
    seed: u64,
) -> MobilityScenario {
    MobilityScenario {
        params,
        multiplier,
        duration: SimDuration::from_secs(duration_s),
        sim: SimConfig::paper_multi_hop(),
        pds: PdsConfig::default(),
        seed,
    }
}

/// One consumer in the world of `sc`: the trace churns for 5 s, then the
/// consumer runs `session` until `horizon_s`.
fn mobility_run(
    sc: &MobilityScenario,
    wl: &Workload,
    session: Session,
    horizon_s: f64,
) -> RunMetrics {
    let mut built = sc.build(wl);
    built.world.run_until(deadline(5.0));
    built.run_together(session, &[built.consumer], deadline(horizon_s))[0]
}

/// Figs. 9/10: PDD recall and latency under Student Center and Classroom
/// mobility, with the join/leave/move rates scaled 0.5×–2×. The paper finds
/// recall ≈ 100 % throughout and latency within a couple of seconds.
///
/// Note: departing nodes carry away data that may not have been replicated
/// yet, so recall is measured against what was seeded — a node leaving with
/// the only copy before any query reaches it legitimately costs recall.
pub(crate) fn fig09_10_mobility_pdd(cfg: &RunConfig) -> Vec<Table> {
    let entries = if cfg.quick { 200 } else { 1_000 };
    let multipliers: &[f64] = if cfg.quick {
        &[1.0]
    } else {
        &[0.5, 1.0, 1.5, 2.0]
    };
    let venues = [
        ("Student Center", presets::student_center()),
        ("Classroom", presets::classroom()),
    ];
    // One flat venue × multiplier × seed grid keeps all workers busy across
    // both tables.
    let points: Vec<(ObservationParams, f64)> = venues
        .iter()
        .flat_map(|&(_, params)| multipliers.iter().map(move |&m| (params, m)))
        .collect();
    let grid = run_grid(cfg, &points, |&(params, m), seed| {
        let wl = Workload::new(params.population).with_metadata(entries, 1, seed);
        mobility_run(
            &scenario(params, m, 300, seed),
            &wl,
            Session::Discovery,
            200.0,
        )
    });
    let mut grid = grid.into_iter();
    let mut out = Vec::new();
    for (label, _) in venues {
        let mut t = Table::new(
            format!("Figs. 9/10 — PDD under {label} mobility ({entries} entries)"),
            &["multiplier", "recall", "latency_s", "overhead_mb"],
        );
        for &m in multipliers {
            let runs = grid.next().expect("one result set per (venue, multiplier)");
            t.push_row(row(vec![f2(m)], &average_runs(&runs)));
        }
        out.push(t);
    }
    out
}

/// Fig. 12: PDR of a 20 MB item under Student Center mobility; latency
/// stays roughly flat across mobility multipliers.
pub(crate) fn fig12_mobility_pdr(cfg: &RunConfig) -> Vec<Table> {
    let size = if cfg.quick { 2_000_000 } else { 20_000_000 };
    let multipliers: &[f64] = if cfg.quick {
        &[1.0]
    } else {
        &[0.5, 1.0, 1.5, 2.0]
    };
    let params = presets::student_center();
    let mut t = Table::new(
        format!(
            "Fig. 12 — PDR under Student Center mobility ({} MB)",
            size / 1_000_000
        ),
        &["multiplier", "recall", "latency_s", "overhead_mb"],
    );
    let grid = run_grid(cfg, multipliers, |&m, seed| {
        // Chunks seeded on initial people, never on the consumer
        // (index 0).
        let wl = Workload::new(params.population).with_chunked_item(
            "clip",
            size,
            256 * 1024,
            1,
            0,
            seed,
        );
        mobility_run(&scenario(params, m, 600, seed), &wl, Session::Pdr, 500.0)
    });
    for (&m, runs) in multipliers.iter().zip(&grid) {
        t.push_row(row(vec![f2(m)], &average_runs(runs)));
    }
    vec![t]
}
