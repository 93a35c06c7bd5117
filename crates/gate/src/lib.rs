//! `pds-gate` — what the static gate checks beyond clippy (DESIGN.md §13).
//!
//! The workspace's static analysis is one gate, run by
//! `cargo clippy --workspace --all-targets -- -D warnings` plus this
//! crate's tests:
//!
//! * **clippy + `[workspace.lints]`** carry every source rule. The
//!   determinism bans (std hash collections, host clocks, threads and
//!   channels, `process::exit`) sit in the root `clippy.toml`; the
//!   sans-io crates add the I/O bans in their own copy; `unsafe_code` and
//!   `undocumented_unsafe_blocks` are workspace lints; the hot dispatch
//!   modules deny the panic lints ([`PANIC_LINTS`]) with an inner
//!   attribute. Clippy resolves types, so an aliased import is no hiding
//!   place.
//! * **`tests/manifest.rs`** pins what clippy cannot see: the crate
//!   layering DAG ([`rules::layering`]), that every crate opts into the
//!   workspace lints, the external dependency set, that the hot modules
//!   keep their panic deny and the sans-io configs keep every root ban,
//!   the exemption inventory ([`ratchet`]) and the public-item inventory
//!   ([`surface`]).
//! * **`tests/fixtures.rs`** runs clippy itself over the accept/reject
//!   fixtures under `fixtures/`, so every shape the gate claims to
//!   reject is shown to be rejected by the real configs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod ratchet;
pub mod surface;

/// Rules over the workspace manifests.
pub mod rules {
    pub mod layering;
}

/// The panic lints every hot dispatch module denies, in the order its
/// inner `#![deny(...)]` lists them.
pub const PANIC_LINTS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];

/// Source files that must deny [`PANIC_LINTS`], relative to the
/// workspace root. A panic in any of them unwinds out of
/// `World::dispatch` with the event queue half-drained. The engine's
/// `mod.rs` covers `pdd.rs`, `pdr.rs` and `mdr.rs`, which inherit its
/// lint levels.
pub const HOT_MODULES: &[&str] = &[
    "crates/sim/src/wheel.rs",
    "crates/sim/src/transport.rs",
    "crates/sim/src/mac.rs",
    "crates/sim/src/medium.rs",
    "crates/sim/src/profile.rs",
    "crates/sim/src/world.rs",
    "crates/core/src/engine/mod.rs",
    "crates/core/src/node.rs",
    "crates/core/src/descriptor.rs",
    "crates/core/src/value.rs",
];

/// The workspace root: two levels above this crate's manifest.
#[must_use]
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default()
}
