//! Fixture: the single audited bench timing helper. Its two audited
//! exemptions cover the clock type and the clock read, and nothing else
//! in the crate may name `Instant`.

/// Wall-clock stopwatch for benchmark binaries.
#[expect(
    clippy::disallowed_types,
    reason = "the one audited place benches read the clock"
)]
pub struct WallClock(std::time::Instant);

impl WallClock {
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the one audited place benches read the clock"
    )]
    pub fn start() -> Self {
        Self(std::time::Instant::now())
    }

    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
