//! DST command-line driver — the CI adversarial gate.
//!
//! ```text
//! pds_dst sweep [--pairs N] [--seed S] [--jobs J] [--out FILE] [--flight-dump DIR]
//! pds_dst repro "<spec>"
//! pds_dst selfcheck [--flight-dump FILE]
//! ```
//!
//! `sweep` exits non-zero if any case violates an invariant, after
//! minimizing every failure and printing its one-line repro command.
//! `selfcheck` runs a deliberately broken case (ack retries disabled under
//! churn and loss) and exits zero only if the harness catches AND
//! minimizes it — CI runs it so a silently toothless harness fails loudly.
//!
//! With `--flight-dump`, every minimized failure is re-run with the
//! bounded flight recorder installed (tracing is observation-only, so the
//! same violation reproduces) and the recorder's per-node event tails are
//! written as JSONL — feed a dump to `pds-obs explain` for the causal
//! narrative of the failing session.

use std::io::Write as _;
use std::process::ExitCode;

use pds_dst::minimize::{minimize, repro_command};
use pds_dst::spec::{CaseSpec, Family};
use pds_dst::{run_checked, sweep};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pds_dst <command>\n\
         \n\
         commands:\n\
         \x20 sweep [--pairs N] [--seed S] [--jobs J] [--out FILE] [--flight-dump DIR]\n\
         \x20       run N generated fault cases (default 1024); minimize\n\
         \x20       and print a repro line for every failure; exit 1 if any;\n\
         \x20       with --flight-dump, write a flight-recorder JSONL per\n\
         \x20       minimized failure into DIR\n\
         \x20 repro <spec>\n\
         \x20       re-run one encoded case with the replay check forced on\n\
         \x20 selfcheck [--flight-dump FILE]\n\
         \x20       verify a seeded bug is caught and minimized (CI canary);\n\
         \x20       write the minimized case's flight recording to FILE\n\
         \x20       (default dst-selfcheck.trace.jsonl)"
    );
    ExitCode::from(2)
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}")),
    }
}

/// Re-runs `spec` with the bounded flight recorder installed and writes
/// the per-node event tails to `path` as JSONL (`pds-obs explain` input).
/// Tracing is observation-only, so the minimized violation reproduces in
/// the recorded rerun; a clean rerun means the determinism contract broke
/// and is reported as an error rather than papered over.
fn dump_flight(spec: &CaseSpec, path: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
    }
    let (outcome, recorder) = pds_dst::run_case_recorded(spec);
    if outcome.violations.is_empty() {
        return Err(format!(
            "recorded rerun of {} no longer violates — tracing perturbed the run",
            spec.encode()
        ));
    }
    recorder
        .dump_to_file(path)
        .map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "  flight dump: {path} ({} events kept of {} recorded)",
        recorder.len(),
        recorder.recorded()
    );
    Ok(())
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let pairs = match parse_u64(args, "--pairs", 1024) {
        Ok(v) => v as usize,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = match parse_u64(args, "--seed", 1) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = match parse_u64(args, "--jobs", 0) {
        Ok(0) => pds_bench::sweep::SweepRunner::with_process_jobs().jobs(),
        Ok(v) => v as usize,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());
    let flight_dir = args
        .iter()
        .position(|a| a == "--flight-dump")
        .and_then(|i| args.get(i + 1).cloned());

    println!("dst sweep: {pairs} cases, seed {seed}, {jobs} jobs");
    let report = sweep(seed, pairs, jobs);
    println!(
        "dst sweep: {} cases run, {} replay-checked, {} fault events injected",
        report.cases, report.replay_checked, report.faults_injected
    );
    if report.faults_injected == 0 {
        eprintln!("dst sweep: FAIL: no faults were injected — the adversary is miswired");
        return ExitCode::FAILURE;
    }

    let mut lines = Vec::new();
    for (i, failure) in report.failures.iter().enumerate() {
        println!("---");
        println!("dst sweep: FAILING CASE {}", failure.spec.encode());
        for v in &failure.violations {
            println!("  violation: {v}");
        }
        let min = minimize(failure);
        println!(
            "  minimized in {} steps ({} attempts), size {} -> {}",
            min.steps,
            min.attempts,
            failure.spec.size(),
            min.spec.size()
        );
        for v in &min.result.violations {
            println!("  minimized violation: {v}");
        }
        let repro = repro_command(&min.spec);
        println!("  repro: {repro}");
        if let Some(dir) = &flight_dir {
            if let Err(e) = dump_flight(&min.spec, &format!("{dir}/minimized-{i}.trace.jsonl")) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        lines.push(format!(
            "{}\t{}\t{}",
            min.spec.encode(),
            min.result.violations.first().map_or("", |v| v.as_str()),
            repro
        ));
    }
    if let Some(path) = out_path {
        // One tab-separated line per minimized failure; empty file means a
        // clean sweep. CI uploads this as the artifact.
        let body = if lines.is_empty() {
            String::new()
        } else {
            lines.join("\n") + "\n"
        };
        if let Err(e) = std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes()))
        {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("dst sweep: wrote {} failure line(s) to {path}", lines.len());
    }
    if report.failures.is_empty() {
        println!("dst sweep: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dst sweep: FAIL: {} case(s) violated invariants",
            report.failures.len()
        );
        ExitCode::FAILURE
    }
}

fn cmd_repro(args: &[String]) -> ExitCode {
    let Some(encoded) = args.first() else {
        eprintln!("error: repro needs an encoded spec argument");
        return ExitCode::from(2);
    };
    let spec = match CaseSpec::decode(encoded) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bad spec: {e}");
            return ExitCode::from(2);
        }
    };
    println!("dst repro: {}", spec.encode());
    let result = run_checked(&spec, true);
    let s = &result.outcome.stats;
    println!(
        "  frames: {} sent, {} delivered; faults: {} cut, {} dropped, {} delayed, {} duplicated",
        s.frames_sent,
        s.frames_delivered,
        s.frames_fault_cut,
        s.frames_fault_dropped,
        s.frames_fault_delayed,
        s.frames_fault_duplicated
    );
    if let Some(d) = result.outcome.digest {
        println!("  replay digest: {d:#018x}");
    }
    if result.passed() {
        println!("dst repro: PASS (all invariants held)");
        ExitCode::SUCCESS
    } else {
        for v in &result.violations {
            println!("  violation: {v}");
        }
        println!("dst repro: FAIL (reproduced)");
        ExitCode::FAILURE
    }
}

/// The canary: radio loss and fault-layer drop pushed far beyond the
/// validated envelope, ack retransmissions disabled, under churn and a
/// silent node. The recall invariant must trip, and minimization must
/// land on a smaller spec that still trips it.
fn canary_spec() -> CaseSpec {
    CaseSpec {
        family: Family::Pds,
        world_seed: 1,
        plan_seed: 1,
        nodes: 3,
        messages: 0,
        msg_bytes: 64,
        entries: 6,
        loss_ppm: 650_000,
        drop_ppm: 200_000,
        dup_ppm: 30_000,
        delay_ppm: 30_000,
        delay_max_ms: 200,
        partitions: 0,
        silences: 1,
        storms: 1,
        max_retr: 0,
        horizon_ds: 900,
    }
}

fn cmd_selfcheck(args: &[String]) -> ExitCode {
    let flight_path = args
        .iter()
        .position(|a| a == "--flight-dump")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "dst-selfcheck.trace.jsonl".to_owned());
    let spec = canary_spec();
    println!("dst selfcheck: seeded bug {}", spec.encode());
    let result = run_checked(&spec, false);
    if result.passed() {
        eprintln!("dst selfcheck: FAIL: the seeded bug was NOT caught — harness is toothless");
        return ExitCode::FAILURE;
    }
    for v in &result.violations {
        println!("  caught: {v}");
    }
    let kind = result.violation_kind().map(str::to_owned);
    let min = minimize(&result);
    println!(
        "  minimized in {} steps ({} attempts), size {} -> {}",
        min.steps,
        min.attempts,
        spec.size(),
        min.spec.size()
    );
    println!("  repro: {}", repro_command(&min.spec));
    if min.spec.size() >= spec.size() {
        eprintln!("dst selfcheck: FAIL: minimization made no progress");
        return ExitCode::FAILURE;
    }
    if min.result.violation_kind().map(str::to_owned) != kind {
        eprintln!("dst selfcheck: FAIL: minimized case fails a different invariant");
        return ExitCode::FAILURE;
    }
    // The canary doubles as the end-to-end exercise of the black box: the
    // minimized failure must yield a dump `pds-obs explain` can narrate.
    if let Err(e) = dump_flight(&min.spec, &flight_path) {
        eprintln!("dst selfcheck: FAIL: {e}");
        return ExitCode::FAILURE;
    }
    println!("dst selfcheck: PASS (bug caught, minimized, and recorded)");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]),
        Some("selfcheck") => cmd_selfcheck(&args[1..]),
        _ => usage(),
    }
}
