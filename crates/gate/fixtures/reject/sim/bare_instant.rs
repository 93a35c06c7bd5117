//! Fixture: kernel-style code reading the host clock itself instead of
//! through an audited helper. Both the import and the call must be flagged
//! (and the `Instant` mentions in these comments must not be).
// The findings test pins the exact line numbers below; keep the import on
// line 6 and the call on line 9.
use std::time::Instant;

pub fn dispatch_with_timing() -> u128 {
    let t0 = Instant::now();
    t0.elapsed().as_nanos()
}
