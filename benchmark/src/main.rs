//! Protocol-level benchmark: four workloads of real `PdsNode` sessions on
//! the `pds-sim` kernel, end-to-end metrics from untraced repetitions and
//! per-layer attribution from one traced repetition plus layer probes.
//! See README.md for the workloads, the metrics and how they interact.

mod alloc;
mod probes;
mod report;
#[cfg(test)]
mod tests;
mod timed;
mod workloads;

use pds_bench::metrics::WallClock;
use report::{end_to_end, per_layer, print_metrics, quartiles, result_json};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use timed::{Bare, Traced};
use workloads::{run_rep, Kind, Rep, Size, Workload};

const USAGE: &str = "usage: pds-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--all | --aa | --probes] [--no-probes] [--smoke]
  --workload NAME  pdd_grid | pdr_grid | campus_churn | city_district (default: all four)
  --seed N         the only input of the workload generator (default 11)
  --seconds S      sets the measured repetitions of one workload: S / 3, three at least (default 15)
  --trace 0|1      print one result object: 0 = end-to-end metrics, 1 = per-layer metrics
  --all            end-to-end and per-layer metrics of every workload, then the probes (default)
  --aa             run every workload end to end twice and hold the two to the same-seed bounds
  --probes         the layer probes only
  --no-probes      leave the layer probes out of a --trace 1 run
  --smoke          tiny worlds, seconds in total (what `cargo test` runs)";

/// Fewer measured repetitions than this and a median says little.
const MIN_REPS: usize = 3;

/// What one repetition of any workload is sized at on the 2-core reference
/// host. `--seconds` is turned into a repetition count with it, once, so
/// that both sides of a comparison run the same shape however fast each is.
const REP_SECONDS: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    All,
    Aa,
    Probes,
    /// The contract's `--trace 0|1`: one workload, one result object.
    Result {
        traced: bool,
    },
}

#[derive(Debug, Clone)]
struct Options {
    action: Action,
    workloads: Vec<Workload>,
    seed: u64,
    /// Measured repetitions of one workload's end-to-end run.
    reps: usize,
    /// Whether a `--trace 1` run ends with the layer probes.
    probes: bool,
    size: Size,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        action: Action::All,
        workloads: Workload::ALL.to_vec(),
        seed: 11,
        reps: 5,
        probes: true,
        size: Size::Full,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
                options.workloads = vec![workload];
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                options.reps = ((seconds / REP_SECONDS).round() as usize).max(MIN_REPS);
            }
            "--trace" => {
                let traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
                options.action = Action::Result { traced };
            }
            "--all" => options.action = Action::All,
            "--aa" => options.action = Action::Aa,
            "--probes" => options.action = Action::Probes,
            "--no-probes" => options.probes = false,
            "--smoke" => options.size = Size::Smoke,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if matches!(options.action, Action::Result { .. }) && options.workloads.len() != 1 {
        return Err("--trace needs --workload".into());
    }
    Ok(options)
}

/// One warm-up repetition (first ones run slow: cold caches, a heap that
/// still has to grow), then `options.reps` measured repetitions of the same
/// seed ([`MIN_REPS`] at `Size::Smoke`).
fn measure(workload: Workload, options: &Options, clock: &WallClock) -> Vec<Rep> {
    run_rep::<Bare>(workload, options.size, options.seed, clock);
    (0..options.size.pick(options.reps, MIN_REPS))
        .map(|_| run_rep::<Bare>(workload, options.size, options.seed, clock))
        .collect()
}

/// What is wrong with these untraced repetitions' outputs, if anything.
fn check_reps(workload: Workload, reps: &[Rep]) -> Vec<String> {
    let mut wrong = Vec::new();
    let rep = &reps[0];
    if reps.iter().any(|r| r.fingerprint() != rep.fingerprint()) {
        wrong.push("sim.fingerprint differs between repetitions of one seed".into());
    }
    if rep.corrupt_chunks() > 0 {
        wrong.push(format!(
            "{} retrieved chunks differ from the seeded bytes",
            rep.corrupt_chunks()
        ));
    }
    let failed = rep.failed(workload);
    if workload.must_complete() && failed > 0 {
        wrong.push(format!("{failed} sessions did not finish with every chunk"));
    }
    wrong
}

/// Quartiles of the repetitions' host times, as comments: how noisy the
/// host was. (The metrics themselves take each world's fastest run.)
fn print_spread(reps: &[Rep]) {
    for (name, f) in [
        ("wall_s", Rep::wall_s as fn(&Rep) -> f64),
        ("setup_s", Rep::setup_s),
    ] {
        let values: Vec<f64> = reps.iter().map(f).collect();
        let (q1, _, q3) = quartiles(&values);
        println!(
            "# {name} over {} repetitions: q1 {q1:.4} q3 {q3:.4}",
            reps.len()
        );
    }
    let rep = &reps[0];
    println!(
        "# sessions {} ({} discoveries, {} retrievals), fingerprint {:016x}",
        rep.sessions().count(),
        rep.sessions().filter(|s| s.kind == Kind::Discovery).count(),
        rep.sessions().filter(|s| s.kind == Kind::Retrieval).count(),
        rep.fingerprint()
    );
}

/// Writes the traced repetition's spans, `run → rep → {setup, drive} →
/// session` with the per-layer aggregates on each drive, to
/// `out/trace-<workload>.json` beside this package's manifest.
fn write_trace(workload: Workload, seed: u64, rep: &Rep, clock: &WallClock) -> std::io::Result<()> {
    let mut spans = Vec::new();
    let mut span = |parent: Option<usize>, name: &str, (start, end): (f64, f64), more: String| {
        let parent = parent.map_or("null".into(), |p| p.to_string());
        spans.push(format!(
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{name}\", \"start_s\": {start}, \"end_s\": {end}{more}}}",
            spans.len()
        ));
        spans.len() - 1
    };
    let run = span(None, "run", (0.0, clock.elapsed_s()), String::new());
    let first = rep.worlds.first().map_or(0.0, |w| w.setup.0);
    let last = rep.worlds.last().map_or(0.0, |w| w.drive.1);
    let rep_span = span(Some(run), "rep", (first, last), String::new());
    for world in &rep.worlds {
        let label = format!(", \"world\": \"{}\"", world.label);
        span(Some(rep_span), "setup", world.setup, label.clone());
        let mut layers = String::new();
        for (name, tally) in timed::NAMES.iter().zip(world.layers) {
            write!(
                layers,
                "\"{name}\": {{\"count\": {}, \"ns\": {}, \"allocs\": {}}}, ",
                tally.calls, tally.ns, tally.allocs
            )
            .expect("writing to a String");
        }
        let driver_s = world.drive.1 - world.drive.0 - world.kernel_s;
        write!(
            layers,
            "\"sim.events\": {{\"count\": {}}}, \"bench.driver\": {{\"ns\": {}}}",
            world.events,
            (driver_s * 1e9) as u64
        )
        .expect("writing to a String");
        let drive = span(
            Some(rep_span),
            "drive",
            world.drive,
            format!("{label}, \"layers\": {{{layers}}}"),
        );
        for s in &world.sessions {
            let more = format!(
                ", \"kind\": \"{:?}\", \"node\": {}, \"sim_latency_s\": {}, \"finished\": {}, \"items\": {}, \"rounds\": {}",
                s.kind,
                s.node.0,
                s.latency.as_secs_f64(),
                s.finished,
                s.items,
                s.rounds
            );
            span(Some(drive), "session", s.host, more);
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace-{}.json", workload.name())),
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\": [\n{}\n]}}\n",
            workload.name(),
            spans.join(",\n")
        ),
    )
}

/// `--trace 0|1`: one workload, one result object on the last line. The
/// end-to-end run is a warm-up and the measured repetitions; the per-layer
/// run a warm-up, one untraced and one traced repetition, and the probes.
fn result(workload: Workload, traced: bool, options: &Options) -> bool {
    let clock = WallClock::start();
    let mut wrong = Vec::new();
    let (reps, metrics);
    if traced {
        run_rep::<Bare>(workload, options.size, options.seed, &clock);
        let bare = run_rep::<Bare>(workload, options.size, options.seed, &clock);
        let rep = run_rep::<Traced>(workload, options.size, options.seed, &clock);
        if rep.fingerprint() != bare.fingerprint() {
            wrong.push(
                "the traced repetition's sim.fingerprint differs: tracing perturbs the run".into(),
            );
        }
        if let Err(e) = write_trace(workload, options.seed, &rep, &clock) {
            wrong.push(format!("could not write the trace: {e}"));
        }
        let mut layers = per_layer(&rep, &bare);
        if options.probes {
            layers.extend(probes::run(options.size));
        }
        (reps, metrics) = (vec![bare], layers);
    } else {
        reps = measure(workload, options, &clock);
        print_spread(&reps);
        metrics = end_to_end(&reps);
    }
    wrong.extend(check_reps(workload, &reps));
    print_metrics(&metrics);
    for w in &wrong {
        println!("# WRONG {}: {w}", workload.name());
    }
    let rep = &reps[0];
    println!(
        "{}",
        result_json(
            wrong.is_empty(),
            rep.sessions().count(),
            rep.failed(workload),
            &metrics
        )
    );
    wrong.is_empty()
}

/// One `--trace 0|1` run of `workload` in a process of its own, the way
/// the benchmark's driver runs it.
///
/// Not in this process, because a workload inherits the allocator's state
/// from the one before: after `city_district` has built and freed its
/// 600 MB, `pdd_grid` and `campus_churn`, which allocate the most per
/// call, read 35–45 % slower.
fn child(workload: Workload, traced: bool, options: &Options) -> Result<Command, String> {
    let mut command = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command
        .args(["--workload", workload.name()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &options.seed.to_string()])
        .args([
            "--seconds",
            &(options.reps as f64 * REP_SECONDS).to_string(),
        ]);
    if options.size == Size::Smoke {
        command.arg("--smoke");
    }
    Ok(command)
}

/// `--all`: everything, by name, with the output checks: each workload's
/// `--trace 0` and `--trace 1` run, whose lines go straight to this
/// process's output, then the probes once.
fn all(options: &Options) -> Result<bool, String> {
    let mut ok = true;
    for &workload in &options.workloads {
        println!("## {} seed {}", workload.name(), options.seed);
        for traced in [false, true] {
            // `status` waits for the child to end.
            let status = child(workload, traced, options)?
                .arg("--no-probes")
                .status()
                .map_err(|e| e.to_string())?;
            ok &= status.success();
        }
    }
    println!("## probes");
    print_metrics(&probes::run(options.size));
    Ok(ok)
}

/// What two runs of one seed may differ by (ISSUE 11), as a share of the
/// first and as an absolute floor; `--aa` holds them to it. The simulated
/// metrics are exact, so on one seed any difference is a change of
/// behaviour. `BENCHMARK.json`'s bounds are wider, every one: they have to
/// hold from seed to seed (README.md, *Bounds*).
const SAME_SEED_BOUNDS: [(&str, f64, f64); 7] = [
    ("wall_s", 0.10, 0.0),
    ("setup_s", 0.25, 0.010),
    ("peak_heap_mb", 0.02, 0.0),
    ("sim_latency_iqm_s", 0.0, 0.0),
    ("recall", 0.0, 0.0),
    ("overhead_mb", 0.0, 0.0),
    ("finished_share", 0.0, 0.0),
];

/// One end-to-end run of `workload` in a child process: its result
/// object's `correct` and the metrics of [`SAME_SEED_BOUNDS`], in order.
fn end_to_end_in_child(workload: Workload, options: &Options) -> Result<(bool, Vec<f64>), String> {
    // `output` waits for the child to end.
    let output = child(workload, false, options)?
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let json = pds_bench::baseline::parse(last)?;
    let correct = json.get("correct").and_then(|c| c.as_bool()) == Some(true);
    let metrics = SAME_SEED_BOUNDS
        .iter()
        .map(|(name, ..)| {
            json.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .ok_or(format!("the child reported no {name}"))
        })
        .collect::<Result<_, String>>()?;
    Ok((correct, metrics))
}

/// `--aa`: every workload's end-to-end run twice, A then B back to back
/// (the host drifts by 10 % and more over minutes, so runs that are to be
/// held to 10 % have to be neighbours in time), and every workload × metric
/// pair held to its same-seed bound.
fn aa(options: &Options) -> Result<bool, String> {
    let mut ok = true;
    for &workload in &options.workloads {
        let (a_correct, a) = end_to_end_in_child(workload, options)?;
        let (b_correct, b) = end_to_end_in_child(workload, options)?;
        if !(a_correct && b_correct) {
            println!("# WRONG {}: a run reports correct = false", workload.name());
            ok = false;
        }
        for ((a, b), (name, share, floor)) in a.iter().zip(&b).zip(SAME_SEED_BOUNDS) {
            let difference = (b - a).abs();
            let within = difference <= (share * a.abs()).max(floor);
            ok &= within;
            println!(
                "{} {name} A {a} B {b} difference {:.4} bound {share} {}",
                workload.name(),
                difference / a.abs(),
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = |e: String| {
        eprintln!("{e}");
        false
    };
    let ok = match options.action {
        Action::All => all(&options).unwrap_or_else(report),
        Action::Aa => aa(&options).unwrap_or_else(report),
        Action::Probes => {
            print_metrics(&probes::run(options.size));
            true
        }
        Action::Result { traced } => result(options.workloads[0], traced, &options),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
