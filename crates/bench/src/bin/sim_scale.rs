//! Scenario-scale record of the simulator kernel.
//!
//! Runs a dense-chatter scenario at several node counts and the city-scale
//! scenario family, and writes one machine-readable record: exact counters
//! (events, frames sent and delivered), peak heap per node, equality
//! flags, and — for trend reading only, never gated — wall times and event
//! throughput.
//!
//! ```text
//! cargo run --release -p pds-bench --bin sim_scale -- --quick --out BENCH_sim_scale.json
//! ```
//!
//! `--quick` shortens the simulated horizon for CI smoke runs; the node
//! counts (100 / 500 / 1000) stay the same so the scaling trend is always
//! visible. Without `--quick` the horizon is 4× longer.
//!
//! The `"resources"` block records, per node count, kernel events
//! dispatched, frames sent and delivered, event throughput, and peak heap
//! bytes (this binary installs a counting global allocator).
//!
//! `--jobs N` (default: available cores) sets the worker count for the
//! `"sweep"` block: the node-count × seed grid is run once sequentially
//! and once through the parallel [`SweepRunner`], the two result vectors
//! are asserted identical, and both wall times land in the record beside
//! the host's core count, so readers can tell an honest speedup from an
//! oversubscribed one.
//!
//! `--city-n N` (default 10000) sets the node count for the `"city"`
//! block: the city-scale scenario family (`pds_bench::city` — stadium
//! exit, vehicular corridor, disaster relief) run on a fixed 2-second
//! horizon, each scenario twice with the same seed (identical statistics
//! asserted), recording events/sec and peak heap bytes per node. At
//! n ≥ 10000 the ≤ 32 KB/node budget of the slab/SoA memory diet is
//! asserted outright.
//!
//! `--check-baseline [path]` finally compares the fresh record against
//! the committed one — deterministic counters exactly, equality flags,
//! per-node heap within its bound, and no wall-derived value at all — and
//! exits nonzero on regression (see `pds_bench::baseline`). The costs of
//! tracing, the flight recorder and the fault seam are measured on real
//! workloads by the protocol benchmark (`trace.overhead_ratio`,
//! `obs.flight_record_ns`, `sim.bare_*_ns_per_event` in `BENCHMARK.json`).

use pds_bench::{CityScenario, SweepRunner, WallClock, CITY_BYTES_PER_NODE_BUDGET};
use pds_sim::{
    Application, Context, MessageMeta, Position, SimConfig, SimDuration, SimTime, World,
};
use std::fmt::Write as _;

/// Counting wrapper around the system allocator: tracks live heap bytes
/// and the high-water mark so the `resources` block can report peak heap
/// per scenario. Lives in this binary — not the library — because the
/// workspace libraries are `forbid(unsafe_code)` and a `GlobalAlloc` impl
/// is necessarily unsafe.
mod heap_track {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    struct CountingAlloc;

    // SAFETY: every allocation is delegated verbatim to `System`, which
    // upholds the `GlobalAlloc` contract; the atomic bookkeeping around
    // the delegated calls never touches the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: callers uphold the `GlobalAlloc` preconditions (valid,
        // non-zero-size `layout`); we forward them to `System` unchanged.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: `layout` is the caller's layout, forwarded unchanged.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            }
            p
        }

        // SAFETY: callers pass a `ptr`/`layout` pair previously returned
        // by `alloc` on this allocator, as the trait contract requires.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            // SAFETY: `ptr`/`layout` come from a matching `alloc` above.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Resets the high-water mark to the currently live bytes.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak live heap bytes since the last [`reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }
}

/// Node counts exercised.
const NODE_COUNTS: [usize; 3] = [100, 500, 1000];
/// Nodes per gathering spot. Peers inside a cluster are in radio range of
/// each other; clusters are far outside each other's range.
const CLUSTER_SIZE: usize = 2;
/// Spacing between cluster centers, meters (radio range 75 m).
const CLUSTER_SPACING_M: f64 = 400.0;
/// Nodes scatter up to this far from their cluster center on each axis,
/// keeping intra-cluster distances at most ~70 m.
const CLUSTER_RADIUS_M: f64 = 25.0;
/// Fraction of nodes walking (to a random point in the field) during the
/// run.
const MOVER_FRACTION: f64 = 0.1;

/// Chatter period per node.
const CHATTER_PERIOD: SimDuration = SimDuration::from_millis(10);

/// Periodic small-payload broadcaster: every node chatters, so every
/// kernel hot path (carrier sense, receiver enumeration, interference)
/// is exercised constantly. Each node starts at its own phase so the
/// cluster peers are not artificially synchronized.
struct Chatter {
    phase: SimDuration,
}

impl Application for Chatter {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(self.phase, 0);
    }
    fn on_message(&mut self, _: &mut Context, _: MessageMeta, _: bytes::Bytes) {}
    fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
        ctx.broadcast(bytes::Bytes::from_static(&[0u8; 200]), &[]);
        ctx.set_timer(CHATTER_PERIOD, 0);
    }
}

/// Builds the scenario: `n` nodes in small gathering-spot clusters laid
/// out on a square grid at constant cluster density (so area grows with
/// `n`), with a fraction of the nodes walking.
fn build_world(n: usize, seed: u64) -> World {
    let mut config = SimConfig::default();
    // Large-area scenario knobs: a 4-range interference horizon — at the
    // default path-loss exponent a transmitter that far away contributes
    // under 2% of the weakest decodable signal — and a coarse re-bucket
    // cadence that bounds the walker drift pad to a fraction of a meter.
    config.radio.interference_range_factor = 4.0;
    config.spatial.rebucket_interval = SimDuration::from_millis(250);
    let mut world = World::new(config, seed);
    let clusters = n.div_ceil(CLUSTER_SIZE);
    let side = (clusters as f64).sqrt().ceil() as usize;
    let mut rng = world.fork_rng(7);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let c = i / CLUSTER_SIZE;
        let cx = (c % side) as f64 * CLUSTER_SPACING_M;
        let cy = (c / side) as f64 * CLUSTER_SPACING_M;
        let x = cx + rng.range_f64(-CLUSTER_RADIUS_M, CLUSTER_RADIUS_M);
        let y = cy + rng.range_f64(-CLUSTER_RADIUS_M, CLUSTER_RADIUS_M);
        let phase = SimDuration::from_micros(rng.range_f64(0.0, 10_000.0) as u64);
        ids.push(world.add_node(Position::new(x, y), Box::new(Chatter { phase })));
    }
    let extent = side as f64 * CLUSTER_SPACING_M;
    for &id in &ids {
        if rng.chance(MOVER_FRACTION) {
            let dest = Position::new(rng.range_f64(0.0, extent), rng.range_f64(0.0, extent));
            world.move_node(id, dest, 1.4);
        }
    }
    world
}

/// One row of the resource-accounting report: kernel events dispatched,
/// frames sent and delivered, event throughput, and peak heap at one node
/// count. The counters are pure functions of (n, seed, horizon) — the
/// baseline check compares them exactly — while throughput depends on the
/// host and is reported for trend reading only.
struct ResourceRow {
    n: usize,
    events: u64,
    frames_sent: u64,
    frames_delivered: u64,
    wall_s: f64,
    events_per_sec: f64,
    peak_alloc_bytes: usize,
}

fn resources_bench(horizon: SimTime) -> Vec<ResourceRow> {
    NODE_COUNTS
        .iter()
        .map(|&n| {
            heap_track::reset_peak();
            let mut world = build_world(n, 42);
            let start = WallClock::start();
            world.run_until(horizon);
            let wall_s = start.elapsed_s();
            #[cfg(feature = "prof")]
            pds_sim::prof::dump(horizon.as_micros());
            let events = world.events_dispatched();
            let peak_alloc_bytes = heap_track::peak();
            let events_per_sec = events as f64 / wall_s.max(1e-9);
            let stats = world.stats();
            println!(
                "resources n={n:>5}  events={events:>9}  frames_delivered={:>7}  \
                 {events_per_sec:>12.0} ev/s  peak_heap={peak_alloc_bytes} B  ({:.0} B/node)",
                stats.frames_delivered,
                peak_alloc_bytes as f64 / n as f64
            );
            ResourceRow {
                n,
                events,
                frames_sent: stats.frames_sent,
                frames_delivered: stats.frames_delivered,
                wall_s,
                events_per_sec,
                peak_alloc_bytes,
            }
        })
        .collect()
}

/// Sequential-vs-parallel sweep benchmark: the node-count × seed grid as
/// one flat job list, run at 1 worker and at `jobs` workers. Each job
/// builds its own world from its own seed, so the executor can only change
/// wall-clock order — asserted by comparing the full result vectors.
struct SweepBench {
    jobs: usize,
    sequential_wall_s: f64,
    parallel_wall_s: f64,
    speedup: f64,
    results_equal: bool,
}

fn sweep_bench(horizon: SimTime, jobs: usize) -> SweepBench {
    const SEEDS: [u64; 4] = [11, 22, 33, 44];
    let points: Vec<(usize, u64)> = NODE_COUNTS
        .iter()
        .flat_map(|&n| SEEDS.iter().map(move |&s| (n, s)))
        .collect();
    let run_all = |runner: &SweepRunner| -> (f64, Vec<pds_sim::Stats>) {
        let start = WallClock::start();
        let stats = runner.run(points.len(), |i| {
            let (n, seed) = points[i];
            let mut world = build_world(n, seed);
            world.run_until(horizon);
            world.stats().clone()
        });
        (start.elapsed_s(), stats)
    };
    let (sequential_wall_s, seq_stats) = run_all(&SweepRunner::new(1));
    let (parallel_wall_s, par_stats) = run_all(&SweepRunner::new(jobs));
    let results_equal = seq_stats == par_stats;
    assert!(
        results_equal,
        "parallel sweep diverged from sequential run at {jobs} jobs"
    );
    let speedup = sequential_wall_s / parallel_wall_s.max(1e-9);
    println!(
        "sweep ({} worlds)  sequential {sequential_wall_s:.3}s  \
         parallel({jobs} jobs) {parallel_wall_s:.3}s  speedup {speedup:.2}x  \
         results_equal={results_equal}",
        points.len()
    );
    SweepBench {
        jobs,
        sequential_wall_s,
        parallel_wall_s,
        speedup,
        results_equal,
    }
}

/// Simulated horizon for the city family, independent of `--quick`: the
/// city block stays comparable between quick and full records, and the
/// disaster-relief partition window ([0.5 s, 1.2 s)) always falls inside
/// the run.
const CITY_SIM_SECONDS: f64 = 2.0;

/// One row of the city-scale report (`pds_bench::city`): a scenario run
/// twice with the same seed — statistics must match exactly — with peak
/// heap and event throughput from the first run. The event count is a
/// pure function of `(scenario, n, seed)`; the baseline check compares it
/// exactly when the records ran the same `n`.
struct CityRow {
    scenario: &'static str,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    peak_alloc_bytes: usize,
    stats_equal: bool,
}

/// Runs the whole city family at one node count. Asserts same-seed
/// reproducibility per scenario and — when `n` is at least the 10k floor
/// the budget is stated at — the ≤ 32 KB/node peak-heap budget of the
/// slab/SoA diet (DESIGN.md §16).
fn city_bench(n: usize) -> Vec<CityRow> {
    let horizon = SimTime::from_secs_f64(CITY_SIM_SECONDS);
    CityScenario::ALL
        .iter()
        .map(|&scenario| {
            heap_track::reset_peak();
            let mut world = scenario.build(n, 42);
            let start = WallClock::start();
            world.run_until(horizon);
            let wall_s = start.elapsed_s();
            let peak_alloc_bytes = heap_track::peak();
            let events = world.events_dispatched();
            let first_stats = world.stats().clone();
            drop(world);
            let mut world = scenario.build(n, 42);
            world.run_until(horizon);
            let stats_equal = *world.stats() == first_stats;
            assert!(
                stats_equal,
                "city {} diverged between same-seed runs at n={n}",
                scenario.key()
            );
            let events_per_sec = events as f64 / wall_s.max(1e-9);
            let bytes_per_node = peak_alloc_bytes as f64 / n as f64;
            println!(
                "city {:<20} n={n:>6}  events={events:>9}  {events_per_sec:>12.0} ev/s  \
                 peak_heap={peak_alloc_bytes} B  ({bytes_per_node:.0} B/node)  \
                 stats_equal={stats_equal}",
                scenario.key()
            );
            if n >= 10_000 {
                assert!(
                    bytes_per_node <= CITY_BYTES_PER_NODE_BUDGET as f64,
                    "city {} blew the per-node heap budget at n={n}: \
                     {bytes_per_node:.0} B/node > {CITY_BYTES_PER_NODE_BUDGET} B/node",
                    scenario.key()
                );
            }
            CityRow {
                scenario: scenario.key(),
                events,
                wall_s,
                events_per_sec,
                peak_alloc_bytes,
                stats_equal,
            }
        })
        .collect()
}

fn main() -> std::process::ExitCode {
    const FLAGS: [&str; 5] = ["--quick", "--jobs", "--city-n", "--out", "--check-baseline"];
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!(
            "sim_scale: unknown flag {unknown} (accepted: {})",
            FLAGS.join(" ")
        );
        return std::process::ExitCode::from(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let value_of = |flag: &str| {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).filter(|v| !v.starts_with("--"))
    };
    // `--check-baseline [path]`: compare the fresh record against the
    // committed one; the path defaults to the committed record itself.
    let check_baseline = args.iter().any(|a| a == "--check-baseline").then(|| {
        value_of("--check-baseline").map_or("BENCH_sim_scale.json".to_owned(), String::clone)
    });
    if let Some(n) = value_of("--jobs").and_then(|s| s.parse().ok()) {
        pds_bench::sweep::set_jobs(n);
    }
    let jobs = pds_bench::sweep::jobs();
    // `--city-n N` (default 10000): node count for the city-scale
    // scenario family. The per-push CI run keeps the default; nightly CI
    // passes 50000; 100000 is for manual capacity runs.
    let city_n = value_of("--city-n")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(10_000)
        .max(1);
    let out_path = value_of("--out").map_or("BENCH_sim_scale.json".to_owned(), String::clone);
    let sim_seconds = if quick { 2.0 } else { 8.0 };
    let horizon = SimTime::from_secs_f64(sim_seconds);

    let sweep = sweep_bench(horizon, jobs);
    let resources = resources_bench(horizon);
    let city_rows = city_bench(city_n);

    // Context for the sweep block: a parallel run with more jobs than
    // cores measures scheduling pressure, not the executor.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sim_scale\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"sim_seconds\": {sim_seconds},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"sweep\": {{\"jobs\": {}, \"cores\": {cores}, \"sequential_wall_s\": {:.6}, \
         \"parallel_wall_s\": {:.6}, \"speedup\": {:.3}, \"results_equal\": {}}},",
        sweep.jobs,
        sweep.sequential_wall_s,
        sweep.parallel_wall_s,
        sweep.speedup,
        sweep.results_equal
    );
    let _ = writeln!(json, "  \"resources\": [");
    let res_last = resources.len() - 1;
    for (i, row) in resources.iter().enumerate() {
        let comma = if i == res_last { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"events\": {}, \"frames_sent\": {}, \"frames_delivered\": {}, \
             \"wall_s\": {:.6}, \"events_per_sec\": {:.0}, \"peak_alloc_bytes\": {}, \
             \"bytes_per_node\": {:.0}}}{comma}",
            row.n,
            row.events,
            row.frames_sent,
            row.frames_delivered,
            row.wall_s,
            row.events_per_sec,
            row.peak_alloc_bytes,
            row.peak_alloc_bytes as f64 / row.n as f64
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"city\": {{\"n\": {city_n}, \"sim_seconds\": {CITY_SIM_SECONDS}, \
         \"budget_bytes_per_node\": {CITY_BYTES_PER_NODE_BUDGET}, \"rows\": ["
    );
    let city_last = city_rows.len() - 1;
    for (i, row) in city_rows.iter().enumerate() {
        let comma = if i == city_last { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"n\": {city_n}, \"events\": {}, \"wall_s\": {:.6}, \
             \"events_per_sec\": {:.0}, \"peak_alloc_bytes\": {}, \"bytes_per_node\": {:.0}, \
             \"stats_equal\": {}}}{comma}",
            row.scenario,
            row.events,
            row.wall_s,
            row.events_per_sec,
            row.peak_alloc_bytes,
            row.peak_alloc_bytes as f64 / city_n as f64,
            row.stats_equal
        );
    }
    let _ = writeln!(json, "  ]}}");
    let _ = writeln!(json, "}}");
    // Read the committed baseline BEFORE writing the fresh record — with
    // default paths both point at the same file.
    let baseline = check_baseline.map(|path| {
        let content =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        (path, content)
    });
    std::fs::write(&out_path, &json).expect("write perf record");
    println!("wrote {out_path}");
    if let Some((path, committed)) = baseline {
        use pds_bench::baseline::{check, Verdict};
        match check(&committed, &json).expect("parse perf records") {
            Verdict::Incomparable(why) => println!("baseline check skipped: {why}"),
            Verdict::Compared(regressions) if regressions.is_empty() => {
                println!("baseline check passed against {path}");
            }
            Verdict::Compared(regressions) => {
                eprintln!("baseline regressions against {path}:");
                for r in &regressions {
                    eprintln!("  {r}");
                }
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    std::process::ExitCode::SUCCESS
}
