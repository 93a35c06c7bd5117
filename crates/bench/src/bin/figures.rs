//! Regenerates the paper's evaluation figures as console tables and CSV
//! files.
//!
//! ```text
//! figures [--quick] [--seeds N] [--jobs N] [--out DIR] <experiment>... | all | list
//! ```
//!
//! Each experiment name matches a paper figure (`fig3` … `fig16`,
//! `saturation`, `leaky-sweep`, `ack-sweep`). Results are printed and
//! written to `<out>/<experiment>[-i].csv`. The default `<out>` follows the
//! mode — `results/paper/` for the full run, `results/quick/` for
//! `--quick` — so one mode never overwrites the other's committed record.
//!
//! `--jobs N` sets the sweep-executor worker count; the default is the
//! number of available cores and `--jobs 1` restores fully sequential
//! runs. Output is bit-identical across job counts (see
//! `pds_bench::sweep`).

use pds_bench::experiments::{self, RunConfig};
use pds_bench::WallClock;
use std::path::PathBuf;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = RunConfig::paper();
    let mut out_dir = PathBuf::from("results/paper");

    if let Some(i) = args.iter().position(|a| a == "--quick") {
        args.remove(i);
        config = RunConfig::quick();
        out_dir = PathBuf::from("results/quick");
    }
    if let Some(i) = args.iter().position(|a| a == "--seeds") {
        args.remove(i);
        let n: usize = args
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage("--seeds needs a number"));
        args.remove(i);
        config.seeds = (1..=n as u64).map(|k| k * 11).collect();
    }
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        args.remove(i);
        let n: usize = args
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage("--jobs needs a number"));
        args.remove(i);
        config.jobs = n;
    }
    if let Some(i) = args.iter().position(|a| a == "--out") {
        args.remove(i);
        if i >= args.len() {
            usage("--out needs a directory");
        }
        out_dir = PathBuf::from(args.remove(i));
    }
    if args.is_empty() {
        usage("no experiment given");
    }

    let registry = experiments::all();
    if args.iter().any(|a| a == "list") {
        for e in &registry {
            println!("{:12}  {}", e.name, e.describes);
        }
        return;
    }
    let selected: Vec<&experiments::Experiment> = if args.iter().any(|a| a == "all") {
        registry.iter().collect()
    } else {
        args.iter()
            .map(|name| {
                registry
                    .iter()
                    .find(|e| e.name == name)
                    .unwrap_or_else(|| usage(&format!("unknown experiment `{name}`")))
            })
            .collect()
    };

    for e in selected {
        let started = WallClock::start();
        eprintln!(">> running {} ({})", e.name, e.describes);
        let tables = (e.run)(&config);
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.render());
            let slug = if tables.len() == 1 {
                e.name.to_string()
            } else {
                format!("{}-{}", e.name, i + 1)
            };
            if let Err(err) = table.write_csv(&out_dir, &slug) {
                eprintln!("!! could not write {slug}.csv: {err}");
            }
        }
        eprintln!(
            "<< {} done in {:.1}s (CSV in {})",
            e.name,
            started.elapsed_s(),
            out_dir.display()
        );
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: figures [--quick] [--seeds N] [--jobs N] [--out DIR] <experiment>... | all | list"
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "a usage error has nothing to unwind"
    )]
    std::process::exit(2);
}
