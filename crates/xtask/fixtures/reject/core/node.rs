//! Fixture: a `PdsNode`-style application whose callbacks can panic.
//! `on_timer` and `ensure_engine` run inside `World::dispatch`, so the
//! `.expect(…)` and the bare index are flagged; the report accessor below
//! them is outside the rule's scope and keeps its `.unwrap()`.

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
        *self.engine.as_ref().unwrap().first().unwrap()
    }
}
