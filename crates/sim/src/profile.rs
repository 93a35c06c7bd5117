//! The kernel's own profile (DESIGN.md §14): what a world dispatched and,
//! while a caller lends it a host clock, where the host time went.
//!
//! The kernel names no clock type: a lent clock is any `FnMut() -> u64`
//! reading host nanoseconds. Like a trace sink it is an instrument — no
//! simulated behaviour reads it, so replay digests and statistics are the
//! same with or without one — and without one each timed site costs one
//! `Option` branch.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::events::KIND_NAMES;
use crate::radio::VerdictPaths;
use std::fmt;

/// Events or scope entries, and the host nanoseconds spent in them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// How many times the kind was dispatched or the scope entered.
    pub count: u64,
    /// Host nanoseconds read off the lent clock across them.
    pub ns: u64,
}

/// What one world's run dispatched and where its host time went. Read
/// via [`World::profile`](crate::World::profile); purely observational.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelProfile {
    /// Per event kind, named by the kernel's trace-event names. `count`
    /// covers every dispatched event; `ns` accrues only while a clock is lent.
    pub kinds: [Tally; 8],
    /// Per subsystem, in this order: the wheel pop, the application call,
    /// the grid rebucket and the physical verdict.
    /// Both fields accrue only while a clock is lent.
    pub scopes: [Tally; 4],
    /// How the physical verdicts were settled (DESIGN.md §18).
    pub(crate) verdict_paths: VerdictPaths,
}

impl KernelProfile {
    /// Names of the [`kinds`](Self::kinds) rows.
    pub(crate) const KINDS: [&'static str; 8] = KIND_NAMES;
    /// Names of the [`scopes`](Self::scopes) rows.
    pub(crate) const SCOPES: [&'static str; 4] = ["wheel", "app", "grid", "phys"];
}

impl fmt::Display for KernelProfile {
    /// One line per non-empty kind and scope, then the verdict paths.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kinds = Self::KINDS.iter().zip(&self.kinds);
        for (name, t) in kinds.chain(Self::SCOPES.iter().zip(&self.scopes)) {
            if t.count > 0 {
                let (n, s, per) = (t.count, t.ns as f64 / 1e9, t.ns as f64 / t.count as f64);
                writeln!(f, "  {name:<12} n={n:>9}  {s:>8.3} s  {per:>7.0} ns")?;
            }
        }
        writeln!(f, "  {:?}", self.verdict_paths)
    }
}

/// A scope of [`KernelProfile::scopes`], in its row order.
pub(crate) enum Scope {
    Wheel,
    App,
    Grid,
    Phys,
}

/// A world's profile and the host clock lent to it, if any.
#[derive(Default)]
pub(crate) struct Profiler {
    pub clock: Option<Box<dyn FnMut() -> u64 + Send>>,
    pub profile: KernelProfile,
}

impl Profiler {
    /// The lent clock's reading, or `None` when none is lent.
    #[inline]
    pub(crate) fn read(&mut self) -> Option<u64> {
        self.clock.as_mut().map(|c| c())
    }

    /// Host nanoseconds since `t0`, a [`read`](Self::read).
    fn since(&mut self, t0: Option<u64>) -> Option<u64> {
        let t0 = t0?;
        Some(self.read()?.saturating_sub(t0))
    }

    /// Charges the time since `t0` to `scope`.
    #[inline]
    pub(crate) fn charge(&mut self, scope: Scope, t0: Option<u64>) {
        if let Some(ns) = self.since(t0) {
            if let Some(t) = self.profile.scopes.get_mut(scope as usize) {
                t.count += 1;
                t.ns += ns;
            }
        }
    }

    /// Counts one dispatched event of kind `slot`, charging it the time
    /// since `t0`.
    #[inline]
    pub(crate) fn dispatched(&mut self, slot: usize, t0: Option<u64>) {
        let ns = self.since(t0);
        if let Some(t) = self.profile.kinds.get_mut(slot) {
            t.count += 1;
            t.ns += ns.unwrap_or(0);
        }
    }
}
