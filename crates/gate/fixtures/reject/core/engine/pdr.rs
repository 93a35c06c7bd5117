//! Fixture: a PDR-style step function that panics on a malformed
//! response. Engine step functions run inside `World::dispatch`; they
//! must surface protocol errors as values, never unwind. The engine's
//! `mod.rs` denies the panic lints for every step-function module.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub struct Retrieval {
    pending: Vec<u64>,
}

impl Retrieval {
    pub fn step(&mut self, chunk: Option<u64>) -> u64 {
        let c = chunk.expect("responder always sets the chunk id");
        if self.pending.is_empty() {
            panic!("step after completion");
        }
        self.pending.retain(|&p| p != c);
        c
    }
}
