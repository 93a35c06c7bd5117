//! Deterministic simulation testing (DST) for the PDS stack.
//!
//! This crate turns the simulator's determinism contract into an
//! adversarial testing harness:
//!
//! - [`spec`] — [`spec::CaseSpec`], a fully integer-encoded description of
//!   one test case (scenario shape + fault envelope) with an exact
//!   one-line `key=value;` codec, so any case is a copy-pasteable repro.
//! - [`scenario`] — builds the world a spec describes, runs it, and checks
//!   the invariants: no duplicate delivery, exactly-once send results,
//!   bounded retries, discovery termination and full recall of the stable
//!   producer set.
//! - [`harness`] — the seeded case generator and the parallel sweep
//!   driver (thousands of `(seed, fault-plan)` pairs per run).
//! - [`minimize`] — greedy failing-case shrinking: when a sweep finds a
//!   violation, it is reduced to a locally minimal spec that still fails
//!   the *same* invariant, and emitted as a one-line repro command.
//!
//! The sweep samples schedules; the exhaustive pass over small ones drives
//! the engines themselves and lives with them
//! (`crates/core/tests/engine_props.rs`).
//!
//! The `pds_dst` binary (`cargo run -p pds-dst -- help`) is the CI entry
//! point: `sweep` for the adversarial gate, `repro` for one-off replays,
//! and `selfcheck` to prove end-to-end that a seeded bug is caught and
//! minimized.
#![forbid(unsafe_code)]

pub mod harness;
pub mod minimize;
pub mod scenario;
pub mod spec;

pub use harness::{generate, run_checked, sweep, CaseResult, SweepReport};
pub use minimize::{minimize, repro_command, Minimized};
pub use scenario::{run_case, run_case_recorded, CaseOutcome};
pub use spec::{CaseSpec, Family};
