//! Fixture: hot-path indexing justified by an audited exemption. The
//! invariant is the `reason`; `expect` (not `allow`) makes clippy fail
//! if the exemption ever stops suppressing anything, and the attribute
//! lands in the ratcheted inventory instead of an error.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub struct Wheel {
    slots: Vec<Vec<u64>>,
    cursor: usize,
}

impl Wheel {
    #[expect(
        clippy::indexing_slicing,
        reason = "cursor is reduced modulo slots.len() on every advance"
    )]
    pub fn current_slot(&mut self) -> &mut Vec<u64> {
        &mut self.slots[self.cursor]
    }

    pub fn peek(&self) -> Option<u64> {
        self.slots.get(self.cursor).and_then(|s| s.first()).copied()
    }
}
