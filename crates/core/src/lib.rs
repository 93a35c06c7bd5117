//! Content-centric Peer Data Sharing (PDS): the protocols of Song et al.,
//! *"Content Centric Peer Data Sharing in Pervasive Edge Computing
//! Environments"* (ICDCS 2017), implemented from scratch.
//!
//! PDS lets opportunistically co-located edge devices discover what data
//! exist on nearby peers and retrieve them, without any backend:
//!
//! * **Peer Data Discovery (PDD)** — multi-round metadata collection using
//!   *lingering queries* (one query routes a continuing stream of
//!   responses), *mixedcast* (one response carries the union of entries
//!   several consumers need, each entry transmitted once) and *en-route
//!   message rewriting* (Bloom filters of already-received entries prune
//!   both responses and queries hop by hop). §III of the paper.
//! * **Peer Data Retrieval (PDR)** — two-phase retrieval of large chunked
//!   items: phase 1 builds per-chunk *Chunk Distribution Information* (CDI)
//!   routing state on demand; phase 2 recursively divides chunk queries
//!   among nearest neighbors with a min-max load-balancing heuristic
//!   (a Generalized Assignment Problem). §IV.
//! * **MDR baseline** — the paper's comparison point: multi-round chunk
//!   retrieval through the PDD machinery with Bloom-based redundancy
//!   detection but no CDI routing. §VI-B-3.
//!
//! The protocol engine ([`PdsEngine`]) is a pure state machine over virtual
//! time — unit-testable without any radio — while [`PdsNode`] adapts it to
//! the sans-io [`Application`] seam that backends (the simulator today, a
//! real-socket reactor tomorrow) drive. Data items are self-describing
//! ([`DataDescriptor`]) and queried by attribute predicates
//! ([`QueryFilter`]), the content-centric design that decouples data from
//! producer addresses.
//!
//! # Examples
//!
//! ```
//! use pds_core::{AttrValue, DataDescriptor, Predicate, QueryFilter, Relation};
//!
//! let sample = DataDescriptor::builder()
//!     .attr("namespace", "env")
//!     .attr("type", "no2")
//!     .attr("time", AttrValue::Time(1_451_635_200))
//!     .attr("x", 12.5)
//!     .build();
//! let filter = QueryFilter::new(vec![
//!     Predicate::new("type", Relation::Eq, "no2"),
//!     Predicate::range("x", 0.0, 50.0),
//! ]);
//! assert!(filter.matches(&sample));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod assign;
mod cdi;
mod config;
mod descriptor;
mod engine;
mod ids;
mod lqt;
mod message;
mod node;
mod predicate;
mod rng;
mod rounds;
mod sessions;
mod store;
mod time;
mod value;

pub use app::{Application, Command, Context, MessageHandle, MessageMeta, NodeId, TimerId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

pub use assign::{min_max_assign, AssignStrategy, ChunkCandidates};
pub use cdi::{CdiEntry, CdiTable};
pub use config::{PdsConfig, RoundParams, MAX_RECOVERY};
pub use descriptor::{attrs, DataDescriptor, DescriptorBuilder, EntryKey};
pub use engine::{Jitter, Outgoing, PdsEngine};
pub use ids::{ChunkId, ItemName, QueryId, ResponseId};
pub use lqt::{chunk_key, Lingering, LingeringQueryTable};
pub use message::{
    DecodeError, PdsMessage, QueryKind, QueryMessage, ResponseKind, ResponseMessage,
};
pub use node::PdsNode;
pub use predicate::{Predicate, QueryFilter, Relation};
pub use rounds::{RoundController, RoundDecision};
pub use sessions::{
    DiscoveryReport, DiscoverySession, RetrievalPhase, RetrievalReport, RetrievalSession,
};
pub use store::{DataStore, MetaEntry};
pub use value::{AttrRef, AttrValue};
