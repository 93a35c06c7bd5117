//! `pds-obs` — trace-analysis CLI for PDS JSONL traces.
//!
//! ```text
//! pds-obs summary <trace.jsonl>            (kind, phase) event census,
//!                                          per-phase overhead, delay /
//!                                          round-gap / retransmit /
//!                                          queue-depth CDFs
//! pds-obs sessions <trace.jsonl>           cross-node session span table
//! pds-obs critical-path <trace.jsonl>      per-session delay decomposition
//!                                          (processing / queueing /
//!                                          contention / airtime / retx)
//!                                          + per-phase shares
//! pds-obs explain <dump.jsonl>             causal narrative of the most
//!                                          suspicious session in a
//!                                          flight-recorder dump
//! pds-obs diff <a.jsonl> <b.jsonl> [--context N]
//!                                          first diverging event between
//!                                          two traces
//! ```
//!
//! Exit codes: `0` success / traces identical, `1` traces diverge,
//! `2` usage or parse error.

use pds_obs::{
    explain, first_divergence, read_trace_file, render_critical_path, render_divergence,
    render_sessions, render_summary, TraceEvent,
};
use std::process::ExitCode;

const USAGE: &str = "usage:
  pds-obs summary <trace.jsonl>
  pds-obs sessions <trace.jsonl>
  pds-obs critical-path <trace.jsonl>
  pds-obs explain <dump.jsonl>
  pds-obs diff <a.jsonl> <b.jsonl> [--context N]";

fn load(path: &str) -> Result<Vec<TraceEvent>, String> {
    read_trace_file(path).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [cmd, path] => {
            let render: fn(&[TraceEvent]) -> String = match cmd.as_str() {
                "summary" => render_summary,
                "sessions" => render_sessions,
                "critical-path" => render_critical_path,
                "explain" => explain,
                _ => return Err(USAGE.to_string()),
            };
            print!("{}", render(&load(path)?));
            Ok(ExitCode::SUCCESS)
        }
        [cmd, a, b, rest @ ..] if cmd == "diff" => {
            let context = match rest {
                [] => 3usize,
                [flag, n] if flag == "--context" => {
                    n.parse().map_err(|_| format!("bad --context value: {n}"))?
                }
                _ => return Err(USAGE.to_string()),
            };
            let left = load(a)?;
            let right = load(b)?;
            match first_divergence(&left, &right) {
                None => {
                    println!("traces identical ({} events)", left.len());
                    Ok(ExitCode::SUCCESS)
                }
                Some(d) => {
                    print!("{}", render_divergence(&left, &right, &d, context));
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
