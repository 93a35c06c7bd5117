//! Virtual time: instants and durations at microsecond resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual simulation time, measured in microseconds since the
/// start of the run.
///
/// # Examples
///
/// ```
/// use pds_core::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(250);
/// assert_eq!(t.as_secs_f64(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: Self = Self(0);
    /// The farthest representable instant; useful as an "infinite" horizon.
    pub const MAX: Self = Self(u64::MAX);

    /// Creates an instant from whole microseconds since the start.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// Creates an instant from fractional seconds since the start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "time must be nonnegative");
        Self((secs * 1e6).round() as u64)
    }

    /// Microseconds since the start of the simulation.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the simulation.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of virtual time in microseconds.
///
/// # Examples
///
/// ```
/// use pds_core::SimDuration;
///
/// assert!(SimDuration::from_millis(200) > SimDuration::from_micros(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: Self = Self(0);

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be nonnegative"
        );
        Self((secs * 1e6).round() as u64)
    }

    /// Whole microseconds in this duration.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this duration.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    #[must_use]
    pub(crate) fn saturating_mul(self, factor: u64) -> Self {
        Self(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A lower bound on the earliest instant at which an entry of a soft-state
/// table expires, i.e. on the first `now` at which its `gc` can remove
/// anything (DESIGN.md §19). An insert lowers it with
/// [`note`](Self::note); extending an entry's expiry leaves it alone, and a
/// removal outside `gc` only makes it looser. `gc` returns at once while
/// the bound is not [`due`](Self::due), and otherwise sweeps and rebuilds
/// it exactly from the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExpiryBound(SimTime);

impl Default for ExpiryBound {
    /// Nothing expires: the bound of an empty table.
    fn default() -> Self {
        Self(SimTime::MAX)
    }
}

impl ExpiryBound {
    /// Accounts for an entry that expires at `at`.
    pub(crate) fn note(&mut self, at: SimTime) {
        self.0 = self.0.min(at);
    }

    /// Whether an entry may have expired by `now`, so a sweep is needed.
    #[must_use]
    pub(crate) fn due(self, now: SimTime) -> bool {
        now >= self.0
    }

    /// Whether an entry that expires at `at` survives a sweep at `now`;
    /// a survivor is noted. Rebuilds the bound exactly over a sweep.
    pub(crate) fn keep(&mut self, at: SimTime, now: SimTime) -> bool {
        let live = at > now;
        if live {
            self.note(at);
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_round_trips_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_micros(100);
        let b = SimTime::from_micros(300);
        assert_eq!(b.since(a).as_micros(), 200);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(2), SimDuration::from_micros(2_000));
        assert_eq!(SimDuration::from_secs(3), SimDuration::from_millis(3_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_seconds_panic() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimTime::MAX > SimTime::ZERO);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.25).to_string(), "1.250000s");
        assert_eq!(SimDuration::from_millis(5).to_string(), "0.005000s");
    }

    #[test]
    fn saturating_mul_caps() {
        let d = SimDuration::from_micros(u64::MAX / 2);
        assert_eq!(d.saturating_mul(4).as_micros(), u64::MAX);
    }
}
