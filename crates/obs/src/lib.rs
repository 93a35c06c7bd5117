//! Deterministic observability for the PDS reproduction: structured trace
//! events (vocabulary declared once, in [`event`]'s schema table),
//! pluggable sinks, a per-phase metrics registry, the analyses behind the
//! `pds-obs` CLI, and — in [`json`] — the JSONL trace codec together with
//! the workspace's one JSON reader.
//!
//! # Design constraints
//!
//! - **Leaf crate.** Only `pds-det` is a dependency; events carry raw
//!   `u32` node ids and `u64` virtual-µs timestamps so both `pds-sim` and
//!   `pds-core` can emit without a dependency cycle.
//! - **Zero-cost when disabled.** The simulator guards every emission site
//!   on `Option<Box<dyn TraceSink>>::is_some`; with no sink installed the
//!   hot path pays one predictable branch.
//! - **Replay-neutral.** Sinks observe, never influence: installing or
//!   removing a sink must not change replay digests, statistics, or rng
//!   consumption (asserted by integration tests).
//! - **Virtual time only.** No wall-clock value appears in any event;
//!   `cargo xtask lint` scans this crate like the simulation
//!   crates.
//!
//! # Quick tour
//!
//! ```
//! use pds_obs::{Phase, RingSink, TraceEvent, TraceKind, TraceSink};
//!
//! let mut sink = RingSink::new(0);
//! sink.record(&TraceEvent {
//!     at_us: 1500,
//!     node: 3,
//!     phase: Phase::Radio,
//!     kind: TraceKind::TxStart { tx: 1, origin: 3, seq: 1, bytes: 1466, class: 1 },
//! });
//! let events = sink.events();
//! assert_eq!(pds_obs::phase_overhead(&events)[&Phase::Pdd].bytes, 1466);
//! assert!(pds_obs::first_divergence(&events, &events.clone()).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;

pub use analysis::{
    cdf, first_divergence, message_delays_us, phase_overhead, render_cdf, render_divergence,
    render_overhead, render_summary, session_delays_us, Divergence, PhaseOverhead,
};
pub use event::{class, Phase, TraceEvent, TraceKind};
pub use flight::FlightRecorder;
pub use json::{parse_line, read_trace, read_trace_file, to_json, ParseError};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::{JsonlSink, RingSink, TraceSink};
pub use span::{
    critical_path, explain, render_critical_path, render_sessions, sessions, DelayBreakdown,
    DelayComponent, SessionSpan,
};
