//! Fixture: a crate root holding an unsafe block with no `// SAFETY:`
//! rationale. The workspace lints deny `unsafe_code` and clippy's
//! `undocumented_unsafe_blocks`; both must fire.

pub fn read_first(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}
