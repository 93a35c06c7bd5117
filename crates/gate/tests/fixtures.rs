//! The static gate, run on its fixtures.
//!
//! Every file under `fixtures/accept/` and `fixtures/reject/` is checked
//! as a one-file library crate by `cargo clippy`, with the lints of the
//! root `[workspace.lints]` and the `clippy.toml` of the crate its
//! directory names (`CLIPPY_CONF_DIR`): `fixtures/reject/core/net_io.rs`
//! runs under `crates/core/clippy.toml`, `fixtures/reject/sim/…` under the
//! root file. The hot-module fixtures carry the same inner
//! `#![deny(...)]` as the real hot modules. So these tests show the real
//! configs rejecting what DESIGN.md §13 says they reject:
//!
//! * every accept fixture checks clean, with no warning either;
//! * every reject fixture fails, and the targeted tests pin which lint
//!   fires on which line.
//!
//! The fixtures are checked once per test binary, one `cargo clippy` per
//! fixture, all sharing one target directory under `CARGO_TARGET_TMPDIR`
//! (about a second each). The `cargo` running the tests must have clippy
//! installed.

use pds_gate::{manifest, ratchet, rules::layering, workspace_root};
use pds_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// One compiler or clippy diagnostic.
#[derive(Debug)]
struct Finding {
    /// `error` or `warning`.
    level: String,
    /// Lint name (`clippy::disallowed_types`, `unsafe_code`) or error
    /// code (`E0433`); empty when the message has none.
    code: String,
    /// Line of the primary span.
    line: u64,
    message: String,
}

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Fixture files under `sub`, relative to the fixtures root.
fn fixture_files(sub: &str) -> Vec<PathBuf> {
    let root = fixtures_root();
    let mut files = Vec::new();
    walk_rs(&root.join(sub), &mut files);
    assert!(!files.is_empty(), "no fixtures under {sub}");
    files
        .into_iter()
        .map(|p| p.strip_prefix(&root).unwrap().to_path_buf())
        .collect()
}

/// The root manifest's `[workspace.lints.*]` tables, renamed to the
/// `[lints.*]` tables of a standalone crate.
fn workspace_lints() -> String {
    let text = std::fs::read_to_string(workspace_root().join("Cargo.toml")).unwrap();
    let mut out = String::new();
    let mut keep = false;
    for line in text.lines() {
        if line.starts_with('[') {
            keep = line.starts_with("[workspace.lints.");
            if keep {
                out.push_str(&line.replacen("[workspace.lints.", "[lints.", 1));
                out.push('\n');
            }
            continue;
        }
        if keep && !line.trim().is_empty() {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(out.contains("[lints.clippy]"), "no [workspace.lints] found");
    out
}

/// The directory clippy starts its `clippy.toml` search from for a
/// fixture: `crates/<name>` for `accept|reject/<name>/…` when that crate
/// exists, the workspace root otherwise.
fn conf_dir(rel: &Path) -> PathBuf {
    let root = workspace_root();
    rel.components()
        .nth(1)
        .map(|c| root.join("crates").join(c.as_os_str()))
        .filter(|d| d.is_dir())
        .unwrap_or(root)
}

/// Runs `cargo clippy` on one fixture as a standalone crate.
fn clippy(rel: &Path, lints: &str, tmp: &Path) -> Vec<Finding> {
    let name: String = rel
        .with_extension("")
        .to_string_lossy()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let dir = tmp.join(&name);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = format!(
        "[package]\nname = \"fixture-{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\npublish = false\n\n\
         [lib]\npath = {:?}\n\n[workspace]\n\n{lints}",
        fixtures_root().join(rel)
    );
    std::fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--quiet", "--offline", "--message-format=json"])
        .arg("--manifest-path")
        .arg(dir.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(tmp.join("target"))
        .env("CLIPPY_CONF_DIR", conf_dir(rel))
        .env_remove("RUSTFLAGS")
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("run cargo clippy");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let findings: Vec<Finding> = stdout.lines().filter_map(finding).collect();
    assert!(
        out.status.success() || findings.iter().any(|f| f.level == "error"),
        "cargo clippy failed on {} without a diagnostic (is clippy installed?):\n{}",
        rel.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    findings
}

/// Decodes one `--message-format=json` line into a finding, if it is an
/// error or warning with a primary span.
fn finding(line: &str) -> Option<Finding> {
    let v = json::parse(&readable(line)).ok()?;
    let msg = v.get("message")?;
    let level = msg.get("level")?.as_str()?.to_string();
    if level != "error" && level != "warning" {
        return None;
    }
    let primary = msg
        .get("spans")?
        .as_arr()?
        .iter()
        .find(|s| s.get("is_primary").and_then(Value::as_bool) == Some(true))?;
    Some(Finding {
        level,
        code: msg
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        line: primary.get("line_start")?.as_f64()? as u64,
        message: msg.get("message")?.as_str()?.to_string(),
    })
}

/// `pds_obs::json` reads no `null` and no escape but `\"` and `\\`, so
/// this pass reads `null` as `false` and every other escape as a space.
/// Nothing read here is nullable, and the messages matched stay legible.
fn readable(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some(e @ ('"' | '\\')) => {
                out.push('\\');
                out.push(e);
            }
            _ => out.push(' '),
        }
    }
    out.replace(":null", ":false")
}

/// Every fixture's findings, computed once per test binary.
fn results() -> &'static BTreeMap<PathBuf, Vec<Finding>> {
    static RESULTS: OnceLock<BTreeMap<PathBuf, Vec<Finding>>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate-fixtures");
        let lints = workspace_lints();
        let mut files = fixture_files("accept");
        files.extend(fixture_files("reject"));
        files
            .into_iter()
            .map(|rel| {
                let found = clippy(&rel, &lints, &tmp);
                (rel, found)
            })
            .collect()
    })
}

fn findings(rel: &str) -> &'static [Finding] {
    results()
        .get(Path::new(rel))
        .unwrap_or_else(|| panic!("no fixture {rel}"))
}

fn errors(rel: &str) -> Vec<&'static Finding> {
    findings(rel)
        .iter()
        .filter(|f| f.level == "error")
        .collect()
}

fn inventory(rel: &str) -> Vec<String> {
    let text = std::fs::read_to_string(fixtures_root().join(rel)).unwrap();
    ratchet::file_inventory(rel, &text).unwrap()
}

#[test]
fn every_accept_fixture_lints_clean() {
    for rel in fixture_files("accept") {
        let found = &results()[&rel];
        assert!(
            found.is_empty(),
            "{} should be accepted, got: {found:#?}",
            rel.display()
        );
    }
}

#[test]
fn every_reject_fixture_is_caught() {
    for rel in fixture_files("reject") {
        assert!(
            results()[&rel].iter().any(|f| f.level == "error"),
            "{} should be rejected but checked clean",
            rel.display()
        );
    }
}

#[test]
fn aliased_hashmap_is_resolved_through_the_use_tree() {
    let errs = errors("reject/sim/aliased_hashmap.rs");
    assert!(
        errs.iter().all(|f| f.code == "clippy::disallowed_types"),
        "{errs:#?}"
    );
    // Clippy resolves `Map` to the std type: the field type and the
    // constructor call are flagged, not only the import.
    let lines: Vec<u64> = errs.iter().map(|f| f.line).collect();
    assert!(lines.contains(&8) && lines.contains(&13), "{errs:#?}");
    assert!(
        errs.iter()
            .all(|f| f.message.contains("std::collections::HashMap")),
        "{errs:#?}"
    );
}

#[test]
fn hashmap_fixture_pins_spans() {
    let errs = errors("reject/sim/std_hashmap.rs");
    // The import on line 5 comes first; the field and the constructor
    // follow.
    let lines: Vec<u64> = errs.iter().map(|f| f.line).collect();
    assert_eq!(lines.first(), Some(&5), "{errs:#?}");
    assert!(lines.contains(&8) && lines.contains(&14), "{errs:#?}");
}

#[test]
fn wall_clock_fixture_flags_import_and_call() {
    let errs = errors("reject/sim/bare_instant.rs");
    assert!(
        errs.iter()
            .all(|f| f.code.starts_with("clippy::disallowed_")),
        "{errs:#?}"
    );
    let lines: Vec<u64> = errs.iter().map(|f| f.line).collect();
    assert!(lines.contains(&6), "import line: {lines:?}");
    assert!(
        errs.iter()
            .any(|f| f.line == 9 && f.code == "clippy::disallowed_methods"),
        "call line: {errs:#?}"
    );
}

#[test]
fn entropy_fixture_flags_thread_rng_and_from_entropy() {
    // No `rand` exists in the dependency graph (`tests/manifest.rs` pins
    // the external set), so both entropy sources fail to resolve.
    let errs = errors("reject/core/thread_rng.rs");
    for line in [6, 11] {
        assert!(
            errs.iter()
                .any(|f| f.line == line && f.code == "E0433" && f.message.contains("rand")),
            "line {line}: {errs:#?}"
        );
    }
}

#[test]
fn thread_fixtures_cover_sim_and_dst_and_bench_pool_is_audited() {
    for rel in ["reject/sim/thread.rs", "reject/dst/thread.rs"] {
        assert!(
            errors(rel).iter().any(
                |f| f.code == "clippy::disallowed_methods" && f.message.contains("std::thread")
            ),
            "{rel} should be caught"
        );
    }
    // The bench pool is accepted only through its audited exemption.
    assert!(findings("accept/bench/pool.rs").is_empty());
    let inv = inventory("accept/bench/pool.rs");
    assert_eq!(inv.len(), 1, "{inv:?}");
    assert!(
        inv[0].contains("expect(clippy::disallowed_methods)"),
        "{inv:?}"
    );
}

#[test]
fn sans_io_fixture_flags_sockets_and_fs() {
    let errs = errors("reject/core/net_io.rs");
    assert!(
        errs.iter()
            .all(|f| f.code.starts_with("clippy::disallowed_")),
        "{errs:#?}"
    );
    assert!(
        errs.iter()
            .any(|f| f.message.contains("std::net::UdpSocket")),
        "{errs:#?}"
    );
    assert!(
        errs.iter().any(|f| f.message.contains("std::fs::write")),
        "{errs:#?}"
    );
}

#[test]
fn panic_fixture_flags_all_four_shapes() {
    let errs = errors("reject/sim/wheel.rs");
    let codes: Vec<&str> = errs.iter().map(|f| f.code.as_str()).collect();
    for lint in [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::indexing_slicing",
        "clippy::unreachable",
    ] {
        assert!(codes.contains(&lint), "{lint} missing: {codes:?}");
    }
}

#[test]
fn engine_step_fixture_is_in_panic_scope() {
    let errs = errors("reject/core/engine/pdr.rs");
    let mut codes: Vec<&str> = errs.iter().map(|f| f.code.as_str()).collect();
    codes.sort_unstable();
    assert_eq!(codes, ["clippy::expect_used", "clippy::panic"], "{errs:#?}");
}

#[test]
fn node_fixture_is_in_panic_scope() {
    // The whole `PdsNode` module denies the panic lints, so the report
    // accessor is caught alongside the callbacks.
    let errs = errors("reject/core/node.rs");
    for (line, lint) in [
        (26, "clippy::expect_used"),
        (30, "clippy::indexing_slicing"),
        (35, "clippy::unwrap_used"),
    ] {
        assert!(
            errs.iter().any(|f| f.line == line && f.code == lint),
            "{lint} on line {line}: {errs:#?}"
        );
    }
}

#[test]
fn audited_panic_pragma_becomes_a_ratcheted_exemption() {
    assert!(findings("accept/sim/wheel.rs").is_empty());
    let inv = inventory("accept/sim/wheel.rs");
    assert_eq!(inv.len(), 1, "{inv:?}");
    assert!(
        inv[0].contains("expect(clippy::indexing_slicing)"),
        "{inv:?}"
    );
    assert!(inv[0].contains("modulo"), "{inv:?}");
}

#[test]
fn worker_pool_and_channels_in_the_kernel_are_rejected() {
    // Threads and `mpsc` stay banned in `pds-sim`, with no audited
    // exception: a world is stepped on one thread.
    let errs = errors("reject/sim/worker_channel.rs");
    assert!(
        errs.iter()
            .any(|f| f.message.contains("std::thread::scope")),
        "{errs:#?}"
    );
    assert!(
        errs.iter()
            .any(|f| f.message.contains("std::sync::mpsc::channel")),
        "channels are scheduling-order-dependent too: {errs:#?}"
    );
}

#[test]
fn slab_fixture_needs_no_exemptions() {
    // The memory-diet slab idiom (checked `.get()` access, `?`-chained
    // SoA borrows — DESIGN.md §16) checks clean under the panic deny
    // without a single audited exemption: it is panic-free by
    // construction, not by exemption.
    assert!(findings("accept/sim/slab_table.rs").is_empty());
    assert!(inventory("accept/sim/slab_table.rs").is_empty());
}

#[test]
fn unsafe_fixture_flags_unsafe_code_and_missing_safety() {
    let errs = errors("reject/unsafe/src/lib.rs");
    let codes: Vec<&str> = errs.iter().map(|f| f.code.as_str()).collect();
    assert!(codes.contains(&"unsafe_code"), "{errs:#?}");
    assert!(
        codes.contains(&"clippy::undocumented_unsafe_blocks"),
        "{errs:#?}"
    );
}

#[test]
fn layering_fixture_flags_core_depending_on_sim() {
    let manifests = manifest::load_workspace(&fixtures_root().join("layering")).unwrap();
    assert_eq!(manifests.len(), 2);
    let found = layering::violations(&manifests);
    // The violation is anchored to the manifest line that introduced it.
    assert_eq!(
        found,
        ["crates/core/Cargo.toml:8: layering violation: `pds-core` may not depend on `pds-sim`"]
    );
}
