//! Event-loop and subsystem profiler (feature-gated, dev only).
//!
//! This module is the **only** place in the kernel that reads the host
//! wall clock. `World::dispatch` holds a [`DispatchTimer`] guard instead
//! of calling `Instant::now` itself, so the `clippy.toml` clock ban keeps
//! the rest of the crate clock-free.
//!
//! Two accumulator families:
//!
//! - **per event kind** ([`DispatchTimer`]): where dispatch wall time
//!   goes, keyed by the kernel event being handled;
//! - **per subsystem** ([`ScopeTimer`]): wall time inside the spatial
//!   grid re-bucket sweep, the timer-wheel pop path, application engine
//!   callbacks, the fault-injection delivery path, and the physical
//!   verdict of each `TxEnd` — the axes the resource-profiling report
//!   slices by.
//!
//! [`dump`] takes the run's elapsed *virtual* time so each line can
//! report virtual-vs-wall throughput (simulated µs per wall ms): a
//! subsystem whose throughput collapses as `n` grows is the bottleneck.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "compiled only under the `prof` feature; it profiles wall time by design and never feeds simulation state"
)]

use crate::events::EventKind;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Per-thread (count, total nanoseconds) accumulators, one slot per
    /// event kind in declaration order.
    pub static PROF: RefCell<[(u64, u64); 8]> = const { RefCell::new([(0, 0); 8]) };
    /// Per-thread (count, total nanoseconds) accumulators, one slot per
    /// subsystem scope (`SCOPE_*` order).
    pub static SCOPES: RefCell<[(u64, u64); SCOPE_NAMES.len()]> =
        const { RefCell::new([(0, 0); SCOPE_NAMES.len()]) };
}

/// Subsystem slots for [`ScopeTimer`].
pub(crate) const SCOPE_GRID: usize = 0;
pub(crate) const SCOPE_WHEEL: usize = 1;
pub(crate) const SCOPE_ENGINE: usize = 2;
pub(crate) const SCOPE_FAULT: usize = 3;
pub(crate) const SCOPE_PHYS: usize = 4;
const SCOPE_NAMES: [&str; 5] = ["grid", "wheel", "engine", "fault", "phys"];

/// The accumulator slot charged for dispatching `kind`.
pub(crate) fn slot_of(kind: &EventKind) -> usize {
    match kind {
        EventKind::Start(_) => 0,
        EventKind::MacTry { .. } => 1,
        EventKind::TxEnd(_) => 2,
        EventKind::BucketDrain(_) => 3,
        EventKind::Timer { .. } => 4,
        EventKind::Control(_) => 5,
        EventKind::Sweep => 6,
        EventKind::FaultDeliver(_) => 7,
    }
}

/// RAII guard that charges the wall-clock time between its construction
/// and drop to one event-kind slot.
pub(crate) struct DispatchTimer {
    slot: usize,
    t0: Instant,
}

impl DispatchTimer {
    /// Starts timing against `slot` (see [`slot_of`]).
    pub(crate) fn start(slot: usize) -> Self {
        Self {
            slot,
            t0: Instant::now(),
        }
    }
}

impl Drop for DispatchTimer {
    fn drop(&mut self) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            p[self.slot].0 += 1;
            p[self.slot].1 += ns;
        });
    }
}

/// RAII guard that charges the wall-clock time between its construction
/// and drop to one subsystem slot (`SCOPE_*`).
pub(crate) struct ScopeTimer {
    slot: usize,
    t0: Instant,
}

impl ScopeTimer {
    /// Starts timing against `slot` (one of the `SCOPE_*` constants).
    pub(crate) fn start(slot: usize) -> Self {
        Self {
            slot,
            t0: Instant::now(),
        }
    }
}

impl Drop for ScopeTimer {
    fn drop(&mut self) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        SCOPES.with(|s| {
            let mut s = s.borrow_mut();
            s[self.slot].0 += 1;
            s[self.slot].1 += ns;
        });
    }
}

/// Prints the accumulated per-event-kind and per-subsystem timings and
/// resets them. `virtual_us` is the run's elapsed simulated time, used
/// to report virtual-vs-wall throughput per subsystem.
pub fn dump(virtual_us: u64) {
    const NAMES: [&str; 8] = [
        "Start", "MacTry", "TxEnd", "Bucket", "Timer", "Ctrl", "Sweep", "Fault",
    ];
    PROF.with(|p| {
        for (i, (n, ns)) in p.borrow().iter().enumerate() {
            if *n > 0 {
                println!(
                    "  {:8} n={:>8} total={:>8.3}s avg={:>7.0}ns",
                    NAMES[i],
                    n,
                    *ns as f64 / 1e9,
                    *ns as f64 / *n as f64
                );
            }
        }
        *p.borrow_mut() = [(0, 0); 8];
    });
    SCOPES.with(|s| {
        for (i, (n, ns)) in s.borrow().iter().enumerate() {
            if *n > 0 {
                // simulated µs advanced per wall ms spent inside this
                // subsystem: the virtual-vs-wall throughput axis.
                let virt_per_wall_ms = virtual_us as f64 / (*ns as f64 / 1e6);
                println!(
                    "  scope {:6} n={:>8} wall={:>8.3}s virt/wall={:>10.0} us/ms",
                    SCOPE_NAMES[i],
                    n,
                    *ns as f64 / 1e9,
                    virt_per_wall_ms
                );
            }
        }
        *s.borrow_mut() = [(0, 0); SCOPE_NAMES.len()];
    });
}
