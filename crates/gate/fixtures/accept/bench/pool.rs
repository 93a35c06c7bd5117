//! Fixture: the bench layer may use threads — it parallelizes over whole
//! independent worlds (one per job), never inside a simulation — but
//! only through an audited exemption on the one pool.

#[expect(
    clippy::disallowed_methods,
    reason = "the sweep pool runs whole independent worlds side by side"
)]
pub fn fan_out(jobs: usize) {
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {});
        }
    });
}
