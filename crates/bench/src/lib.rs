//! Experiment harness for the PDS reproduction.
//!
//! Rebuilds every figure of the paper's evaluation (§V–§VI): scenario
//! builders for the static grid and the mobility venues, workload seeding
//! (metadata entries, chunked items, redundancy), consumer orchestration
//! (single / sequential / simultaneous), and the metrics the paper reports
//! — *recall*, *latency* and *message overhead*.
//!
//! The `figures` binary drives one experiment per paper figure; see
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod city;
pub mod experiments;
pub mod metrics;
pub mod report;
pub(crate) mod scenario;
pub mod sweep;

pub use city::{CityScenario, CITY_BYTES_PER_NODE_BUDGET};
pub use metrics::WallClock;
pub use scenario::{GridScenario, Session, Workload};
pub use sweep::SweepRunner;
