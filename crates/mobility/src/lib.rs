//! Node placement and mobility-trace generation for PDS evaluation
//! scenarios.
//!
//! The paper evaluates PDS on (a) static grids — 100 nodes in a 10×10 grid
//! with the consumer at the center (§VI-A) — and (b) mobility traces derived
//! from 8 hours of observing a university *Student Center* and *Classrooms*:
//! aggregate population, join/leave and internal-movement rates per minute
//! (§VI-B-2). This crate provides both:
//!
//! * [`grid`] — grid placement helpers with the paper's
//!   consumer-at-the-center conventions;
//! * [`ObservationParams`] / [`MobilityTrace`] — Poisson-process trace
//!   generation matched to the published rates, with the 0.5×–2× mobility
//!   multiplier used in Figs. 9, 10 and 12;
//! * [`TraceStream`] — the same generator as a lazy iterator: memory stays
//!   O(people present) instead of O(events); `MobilityTrace::generate`
//!   collects it;
//! * [`TraceInstaller`] — applies a trace to a [`pds_sim::World`],
//!   creating and removing protocol nodes as people come and go.
//!
//! # Examples
//!
//! ```
//! use pds_mobility::{presets, MobilityTrace};
//! use pds_sim::SimDuration;
//!
//! let params = presets::student_center();
//! let trace = MobilityTrace::generate(&params, SimDuration::from_secs(600), 1.0, 42);
//! assert_eq!(trace.initial_people().len(), params.population);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
pub mod grid;
mod install;
mod trace;

pub use generator::{ObservationParams, TraceStream};
pub use install::TraceInstaller;
pub use trace::{MobilityTrace, PersonId, TraceAction, TraceEvent};

/// Observation-derived presets for the paper's two venues.
pub mod presets {
    use super::ObservationParams;

    /// The *Student Center*: ~120×120 m², ~20 people present, ~1 join and
    /// ~1 leave per minute, ~4 internal moves per minute (§VI-B-2).
    #[must_use]
    pub fn student_center() -> ObservationParams {
        ObservationParams {
            width_m: 120.0,
            height_m: 120.0,
            population: 20,
            joins_per_min: 1.0,
            leaves_per_min: 1.0,
            moves_per_min: 4.0,
            speed_mps: 1.2,
        }
    }

    /// The *Classrooms*: ~20×20 m², ~30 people, ~0.5 join/leave and ~0.5
    /// internal moves per minute (§VI-B-2).
    #[must_use]
    pub fn classroom() -> ObservationParams {
        ObservationParams {
            width_m: 20.0,
            height_m: 20.0,
            population: 30,
            joins_per_min: 0.5,
            leaves_per_min: 0.5,
            moves_per_min: 0.5,
            speed_mps: 1.0,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn presets_match_paper_observations() {
            let sc = student_center();
            assert_eq!(sc.population, 20);
            assert!((sc.moves_per_min - 4.0).abs() < f64::EPSILON);
            let cl = classroom();
            assert_eq!(cl.population, 30);
            assert!((cl.joins_per_min - 0.5).abs() < f64::EPSILON);
            assert!(cl.width_m < sc.width_m);
        }
    }
}
