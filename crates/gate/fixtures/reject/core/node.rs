//! Fixture: a `PdsNode`-style application whose callbacks can panic.
//! The whole node module runs inside `World::dispatch` and denies the
//! panic lints, so the `.expect(…)`, the bare index and the report
//! accessor's `.unwrap()` are all flagged.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub struct Node {
    engine: Option<Vec<u64>>,
    pending: Vec<u64>,
}

impl Node {
    fn ensure_engine(&mut self) -> &mut Vec<u64> {
        if self.engine.is_none() {
            self.engine = Some(Vec::new());
        }
        self.engine.as_mut().expect("just created")
    }

    pub fn on_timer(&mut self, tag: u64) {
        let due = self.pending[0];
        self.ensure_engine().push(due + tag);
    }

    pub fn report(&self) -> u64 {
        *self.engine.as_ref().unwrap().first().unwrap_or(&0)
    }
}
