//! Fixture: the slab/SoA kernel storage idiom (DESIGN.md §16) the memory
//! diet steers hot paths toward. Dense `Vec<Option<T>>` slabs indexed by
//! a monotone id use checked `.get()` access — never slice indexing or
//! `.unwrap()` — so a stale handle is a `None` miss, not a panic; the
//! panic deny must accept this shape as written.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub struct Id(pub u32);

pub struct Slab<T> {
    slots: Vec<Option<T>>,
    flags: Vec<u8>,
}

impl<T> Slab<T> {
    pub fn get(&self, id: &Id) -> Option<&T> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// SoA split: the value and its hot flag byte, borrowed together.
    pub fn parts_mut(&mut self, id: &Id) -> Option<(&mut T, &mut u8)> {
        let slot = self.slots.get_mut(id.0 as usize)?.as_mut()?;
        let flag = self.flags.get_mut(id.0 as usize)?;
        Some((slot, flag))
    }

    /// Ascending-id iteration, bit-identical to the `BTreeMap` it replaced.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i as u32, s.as_ref()?)))
    }
}
