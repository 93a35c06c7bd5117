//! Umbrella crate for the PDS reproduction: one dependency that pulls in
//! the protocol ([`core`]), the wireless simulator substrate ([`sim`]), the
//! mobility tooling ([`mobility`]), Bloom filters ([`bloom`]) and the
//! experiment harness ([`mod@bench`]).
//!
//! The cross-crate tests in `/tests` are test targets of this crate, and
//! the runnable examples in `/examples` are built against it:
//!
//! * `quickstart` — two devices, one metadata discovery.
//! * `air_quality` — a crowdsensing field of NO₂ samples: filtered
//!   discovery plus small-data retrieval.
//! * `festival_video` — a 6 MB video clip retrieved chunk-by-chunk across
//!   a grid of festival-goers (PDR), compared with the MDR baseline.
//! * `mobile_campus` — discovery while people join, leave and wander a
//!   student center.
//! * `trace` — records a discovery + retrieval run as a JSONL trace and
//!   walks through it with the [`mod@obs`] analysis toolkit (per-phase
//!   overhead, delay CDF, event census).
//!
//! ```
//! use pds::core::{PdsConfig, PdsNode, QueryFilter};
//! use pds::sim::{Position, SimConfig, SimTime, World};
//!
//! let mut world = World::new(SimConfig::default(), 1);
//! let producer = PdsNode::new(PdsConfig::default(), 1).with_metadata(
//!     pds::core::DataDescriptor::builder().attr("type", "photo").build(),
//!     None,
//! );
//! world.add_node(Position::new(0.0, 0.0), Box::new(producer));
//! let consumer = world.add_node(
//!     Position::new(40.0, 0.0),
//!     Box::new(PdsNode::new(PdsConfig::default(), 2)),
//! );
//! world.with_app::<PdsNode, _>(consumer, |n, ctx| {
//!     n.start_discovery(ctx, QueryFilter::match_all());
//! });
//! world.run_until(SimTime::from_secs_f64(10.0));
//! assert_eq!(
//!     world.app::<PdsNode>(consumer).unwrap().discovery_report().unwrap().entries,
//!     1
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pds_bench as bench;
pub use pds_bloom as bloom;
pub use pds_core as core;
pub use pds_mobility as mobility;
pub use pds_obs as obs;
pub use pds_sim as sim;
