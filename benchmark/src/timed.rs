//! Per-layer attribution for the traced rep: every call into `pds-core`
//! (node callbacks and session starts) and into `pds-obs` (the trace sink)
//! is timed from here, around the public entry points, with the
//! allocation counter snapshotted around the same interval. What is left
//! of a drive's wall time after these and the driver's own polling is the
//! `pds-sim` kernel.

use crate::alloc;
use bytes::Bytes;
use pds_bench::metrics::WallClock;
use pds_core::{Application, Context, MessageHandle, MessageMeta, PdsNode};
use pds_obs::{RingSink, TraceEvent, TraceSink};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a timed interval is booked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A consumer session started by the driver (`start_discovery`, ...).
    SessionStart,
    OnStart,
    OnTimer,
    OnSendResult,
    QueryMeta,
    QueryCdi,
    QueryChunks,
    RespMeta,
    RespCdi,
    RespChunk,
    /// `on_message` with a payload the header peek does not recognise.
    Unknown,
    /// `TraceSink::record` — the only slot that is not `pds-core`.
    Obs,
}

pub const SLOTS: usize = 12;

/// Span-file names of the slots, indexed by `Slot as usize`.
pub const NAMES: [&str; SLOTS] = [
    "core.session_start",
    "core.on_start",
    "core.on_timer",
    "core.on_send_result",
    "core.query_meta",
    "core.query_cdi",
    "core.query_chunks",
    "core.resp_meta",
    "core.resp_cdi",
    "core.resp_chunk",
    "core.unknown_message",
    "obs.record",
];

/// Calls, host nanoseconds and allocations booked to one [`Slot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.allocs += o.allocs;
    }

    fn since(self, earlier: Tally) -> Tally {
        Tally {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
            allocs: self.allocs - earlier.allocs,
        }
    }
}

struct Cell {
    calls: AtomicU64,
    ns: AtomicU64,
    allocs: AtomicU64,
}

// Process-wide because `Application` and `TraceSink` objects are boxed into
// the world and must be `Send`; one thread drives everything, so Relaxed
// statistics counters are enough.
static CELLS: [Cell; SLOTS] = [const {
    Cell {
        calls: AtomicU64::new(0),
        ns: AtomicU64::new(0),
        allocs: AtomicU64::new(0),
    }
}; SLOTS];

fn measure<R>(slot: Slot, f: impl FnOnce() -> R) -> R {
    let allocs = alloc::allocs();
    let clock = WallClock::start();
    let out = f();
    let ns = (clock.elapsed_s() * 1e9) as u64;
    let cell = &CELLS[slot as usize];
    cell.calls.fetch_add(1, Ordering::Relaxed);
    cell.ns.fetch_add(ns, Ordering::Relaxed);
    cell.allocs
        .fetch_add(alloc::allocs() - allocs, Ordering::Relaxed);
    out
}

/// All tallies since the process started, indexed by `Slot as usize`.
pub fn snapshot() -> [Tally; SLOTS] {
    std::array::from_fn(|i| Tally {
        calls: CELLS[i].calls.load(Ordering::Relaxed),
        ns: CELLS[i].ns.load(Ordering::Relaxed),
        allocs: CELLS[i].allocs.load(Ordering::Relaxed),
    })
}

/// Slot-wise `later - earlier`.
pub fn since(later: &[Tally; SLOTS], earlier: &[Tally; SLOTS]) -> [Tally; SLOTS] {
    std::array::from_fn(|i| later[i].since(earlier[i]))
}

/// Classifies an encoded `PdsMessage` from its fixed-offset header bytes
/// (message tag at 0; kind tag after the query's id, sender, expiry, round
/// and ttl, or after the response's id and sender) — no decode, no
/// allocation, so the peek costs the traced rep next to nothing. A test
/// holds it to `PdsMessage::decode` for every kind.
pub fn peek(payload: &[u8]) -> Slot {
    match payload.first() {
        Some(0) => match payload.get(26) {
            Some(0 | 1) => Slot::QueryMeta,
            Some(2) => Slot::QueryCdi,
            Some(3 | 4) => Slot::QueryChunks,
            _ => Slot::Unknown,
        },
        Some(1) => match payload.get(13) {
            Some(0 | 1) => Slot::RespMeta,
            Some(2) => Slot::RespCdi,
            Some(3) => Slot::RespChunk,
            _ => Slot::Unknown,
        },
        _ => Slot::Unknown,
    }
}

/// A `PdsNode` whose every callback is timed.
pub struct Timed(PdsNode);

impl Application for Timed {
    fn on_start(&mut self, ctx: &mut Context) {
        measure(Slot::OnStart, || self.0.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context, meta: MessageMeta, payload: Bytes) {
        let slot = peek(&payload);
        measure(slot, || self.0.on_message(ctx, meta, payload));
    }

    fn on_timer(&mut self, ctx: &mut Context, tag: u64) {
        measure(Slot::OnTimer, || self.0.on_timer(ctx, tag));
    }

    fn on_send_result(&mut self, ctx: &mut Context, message: MessageHandle, delivered: bool) {
        measure(Slot::OnSendResult, || {
            self.0.on_send_result(ctx, message, delivered);
        });
    }
}

/// How a rep hosts its nodes: bare (every end-to-end number) or timed (the
/// one traced rep). The workloads are generic over this so both run the
/// same driver code.
pub trait Mode {
    type App: Application;
    const TRACED: bool;
    fn wrap(node: PdsNode) -> Self::App;
    fn node(app: &Self::App) -> &PdsNode;
    /// Runs a driver-initiated call into the node (a session start).
    fn enter<R>(app: &mut Self::App, f: impl FnOnce(&mut PdsNode) -> R) -> R;
}

pub struct Bare;

impl Mode for Bare {
    type App = PdsNode;
    const TRACED: bool = false;
    fn wrap(node: PdsNode) -> PdsNode {
        node
    }
    fn node(app: &PdsNode) -> &PdsNode {
        app
    }
    fn enter<R>(app: &mut PdsNode, f: impl FnOnce(&mut PdsNode) -> R) -> R {
        f(app)
    }
}

pub struct Traced;

impl Mode for Traced {
    type App = Timed;
    const TRACED: bool = true;
    fn wrap(node: PdsNode) -> Timed {
        Timed(node)
    }
    fn node(app: &Timed) -> &PdsNode {
        &app.0
    }
    fn enter<R>(app: &mut Timed, f: impl FnOnce(&mut PdsNode) -> R) -> R {
        measure(Slot::SessionStart, || f(&mut app.0))
    }
}

/// An unbounded `RingSink` whose `record` is timed.
pub struct TimingSink(RingSink);

impl TimingSink {
    pub fn new() -> Self {
        Self(RingSink::new(0))
    }

    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.events()
    }
}

impl TraceSink for TimingSink {
    fn record(&mut self, ev: &TraceEvent) {
        measure(Slot::Obs, || self.0.record(ev));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
