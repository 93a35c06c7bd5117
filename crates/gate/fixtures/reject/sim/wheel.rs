//! Fixture: timer-wheel-style code that can panic mid-dispatch. Under
//! the hot-module deny, clippy must flag the `.unwrap()`, the
//! `.expect(…)`, the bare slice index, and the `unreachable!` — each would
//! poison a half-drained event queue and desync the replay digest.

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
    pub fn pop_front(&mut self) -> u64 {
        let slot = self.slots.get_mut(self.cursor).unwrap();
        slot.pop().expect("slot checked non-empty")
    }

    pub fn peek(&self) -> u64 {
        self.slots[self.cursor][0]
    }

    pub fn advance(&mut self) {
        match self.cursor.checked_add(1) {
            Some(next) => self.cursor = next % self.slots.len(),
            None => unreachable!("cursor wrapped"),
        }
    }
}
