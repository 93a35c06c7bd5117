//! Discrete-event wireless broadcast network simulator for the PDS
//! reproduction.
//!
//! This crate is the substrate standing in for the paper's two evaluation
//! platforms: the 5-phone Android prototype (single-hop calibration, §V of
//! the paper) and NS-3 with a Wi-Fi MAC stack (multi-hop evaluation, §VI).
//! It models exactly the mechanisms the paper identifies as determining
//! performance:
//!
//! * **Broadcast medium with overhearing** — every frame reaches all alive
//!   nodes within radio range, intended or not; the application is told
//!   whether it was an intended receiver ([`MessageMeta::overheard`]).
//! * **OS UDP send-buffer overflow** — a finite per-node buffer drained at
//!   the MAC broadcast bitrate; applications that inject faster lose frames
//!   silently, reproducing the prototype's 14 % raw-UDP reception (§V-2).
//! * **Leaky bucket pacing** — token-bucket injection
//!   (`BucketCapacity`, `LeakingRate`) in front of the OS buffer
//!   ([`SenderMode::LeakyBucket`]).
//! * **CSMA with collisions** — carrier sense plus random backoff; frames
//!   overlapping in time at an in-range receiver are lost there (including
//!   hidden-terminal collisions).
//! * **Application-level ack/retransmission** — per-message selective acks
//!   with `RetrTimeout` / `MaxRetrTime` (§V-1), with message fragmentation
//!   into 1.5 KB frames and reassembly.
//!
//! Protocols plug in by implementing [`Application`]; scenarios drive a
//! [`World`] forward in virtual time.
//!
//! # Examples
//!
//! ```
//! use pds_sim::{Application, Context, MessageMeta, Position, SimConfig, SimTime, World};
//! use bytes::Bytes;
//!
//! struct Pinger;
//! struct Echo(Option<Vec<u8>>);
//!
//! impl Application for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context) {
//!         ctx.broadcast(Bytes::from_static(b"ping"), &[]);
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: bytes::Bytes) {}
//! }
//! impl Application for Echo {
//!     fn on_start(&mut self, _ctx: &mut Context) {}
//!     fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, payload: bytes::Bytes) {
//!         self.0 = Some(payload.to_vec());
//!     }
//! }
//!
//! let mut world = World::new(SimConfig::default(), 42);
//! world.add_node(Position::new(0.0, 0.0), Box::new(Pinger));
//! let echo = world.add_node(Position::new(10.0, 0.0), Box::new(Echo(None)));
//! world.run_until(SimTime::from_secs_f64(1.0));
//! let received = world.app::<Echo>(echo).expect("echo app").0.clone();
//! assert_eq!(received.as_deref(), Some(&b"ping"[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
#[cfg(feature = "replay-digest")]
mod digest;
mod events;
mod fault;
mod radio;
mod slab;
mod spatial;
mod stats;
mod transport;
mod wheel;
mod world;

#[cfg(feature = "prof")]
pub mod prof;

pub use config::{AckConfig, RadioConfig, SenderMode, SimConfig, SpatialConfig};
pub use fault::{ChurnStorm, FaultPlan, PartitionWindow, SilenceWindow};
pub use radio::{Position, VerdictPaths};
pub use stats::{EnergyModel, NodeStats, PhaseBytes, Stats};
pub use wheel::TimerWheel;
pub use world::World;

// The sans-io substrate — node identity, the Application seam, virtual
// time, and the deterministic RNG — lives in `pds-core` (DESIGN.md §13:
// core sits below every kernel backend). Re-exported here so simulator
// users keep their `pds_sim::…` paths.
pub use pds_core::{
    Application, Command, Context, MessageHandle, MessageMeta, NodeId, SimDuration, SimRng,
    SimTime, TimerId,
};

// Re-exported so applications can emit trace events through [`Context`]
// without naming the observability crate.
pub use pds_obs as obs;
pub use pds_obs::{Phase, TraceEvent, TraceKind, TraceSink};
