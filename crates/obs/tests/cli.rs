//! Black-box tests of the `pds-obs` binary: exit codes and the shape of
//! `diff` / `summary` output over small synthetic JSONL traces.

use pds_obs::{JsonlSink, Phase, TraceEvent, TraceKind, TraceSink};
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pds-obs"))
}

fn write_trace(name: &str, events: &[TraceEvent]) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("pds-obs-cli-{}-{name}.jsonl", std::process::id()));
    let mut sink = JsonlSink::create(&path).expect("create trace");
    for ev in events {
        sink.record(ev);
    }
    sink.finish().expect("trace written");
    path
}

fn ev(at_us: u64, node: u32, phase: Phase, kind: TraceKind) -> TraceEvent {
    TraceEvent {
        at_us,
        node,
        phase,
        kind,
    }
}

fn base_trace() -> Vec<TraceEvent> {
    vec![
        ev(0, 0, Phase::Kernel, TraceKind::NodeStart),
        ev(10, 0, Phase::Pdd, TraceKind::SessionStarted { session: 1 }),
        ev(
            10,
            0,
            Phase::Pdd,
            TraceKind::QuerySent {
                query: 7,
                session: 1,
                seq: 1,
            },
        ),
        ev(
            15,
            0,
            Phase::Radio,
            TraceKind::TxStart {
                tx: 1,
                origin: 0,
                seq: 1,
                bytes: 80,
                class: 1,
            },
        ),
        ev(
            900,
            0,
            Phase::Pdd,
            TraceKind::SessionFinished {
                session: 1,
                delay_us: 890,
                rounds: 1,
                items: 3,
            },
        ),
    ]
}

#[test]
fn diff_identical_traces_exits_zero() {
    let a = write_trace("same-a", &base_trace());
    let b = write_trace("same-b", &base_trace());
    let out = bin().args(["diff"]).arg(&a).arg(&b).output().expect("run");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "identical traces must exit 0");
    assert!(stdout.contains("traces identical"), "{stdout}");
}

#[test]
fn diff_divergent_traces_exits_one_and_pinpoints_event() {
    let left = base_trace();
    let mut right = base_trace();
    // Same prefix, diverging third event: a different query id.
    right[2] = ev(
        10,
        0,
        Phase::Pdd,
        TraceKind::QuerySent {
            query: 9,
            session: 1,
            seq: 1,
        },
    );
    let a = write_trace("div-a", &left);
    let b = write_trace("div-b", &right);
    let out = bin().args(["diff"]).arg(&a).arg(&b).output().expect("run");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "divergent traces must exit 1");
    assert!(stdout.contains("first divergence at event #2"), "{stdout}");
    assert!(stdout.contains("query: 7"), "{stdout}");
    assert!(stdout.contains("query: 9"), "{stdout}");
}

#[test]
fn summary_renders_phases_and_exits_zero() {
    let a = write_trace("summary", &base_trace());
    let out = bin().args(["summary"]).arg(&a).output().expect("run");
    std::fs::remove_file(&a).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("pdd"), "{stdout}");
}

#[test]
fn sessions_and_critical_path_render_tables() {
    let a = write_trace("sessions", &base_trace());
    let out = bin().args(["sessions"]).arg(&a).output().expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("sessions: 1"), "{stdout}");
    assert!(stdout.contains("n0"), "{stdout}");

    let out = bin().args(["critical-path"]).arg(&a).output().expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(
        stdout.contains("critical-path delay decomposition"),
        "{stdout}"
    );
    assert!(stdout.contains("aggregate share by phase"), "{stdout}");
    std::fs::remove_file(&a).ok();
}

#[test]
fn explain_renders_a_narrative() {
    let a = write_trace("explain", &base_trace());
    let out = bin().args(["explain"]).arg(&a).output().expect("run");
    std::fs::remove_file(&a).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("session n0#1 (pdd)"), "{stdout}");
    assert!(stdout.contains("narrative"), "{stdout}");
}

#[test]
fn usage_and_parse_errors_exit_two() {
    let out = bin().output().expect("run");
    assert_eq!(out.status.code(), Some(2), "no args is a usage error");
    let out = bin()
        .args(["summary", "/nonexistent/trace.jsonl"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "unreadable trace is an error");
    // `summary` prints every CDF; there is no separate `cdf` subcommand.
    let a = write_trace("no-cdf", &base_trace());
    let out = bin().arg("cdf").arg(&a).output().expect("run");
    std::fs::remove_file(&a).ok();
    assert_eq!(out.status.code(), Some(2), "`cdf` is not a subcommand");
}
