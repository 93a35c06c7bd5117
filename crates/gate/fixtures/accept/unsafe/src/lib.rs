//! Fixture: the workspace-standard crate root — `forbid(unsafe_code)`
//! present, no unsafe anywhere. The word "unsafe" in this comment must
//! not trip the gate.

#![forbid(unsafe_code)]

pub fn read_first(bytes: &[u8]) -> Option<u8> {
    bytes.first().copied()
}
