//! Fixture pinning for every lint rule family.
//!
//! The fixture tree under `crates/xtask/fixtures/` mirrors real workspace
//! path shapes (`sim/…`, `core/engine/…`, `…/src/lib.rs`) so the rules'
//! path scoping applies exactly as it does on the real tree:
//!
//! * every file under `accept/` must lint clean (no error findings);
//! * every file under `reject/` must produce at least one error;
//! * targeted assertions pin the rule name, span, and message shape of
//!   each rule family's canonical violation.
//!
//! The engine's workspace walk skips `fixtures/` directories, so these
//! files never pollute a real `cargo xtask lint` run.

use pds_lint::rules::{default_rules, Workspace};
use pds_lint::source::SourceFile;
use pds_lint::{Diagnostic, Exemption, Severity};
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Lints one fixture file with the full default registry, returning
/// (findings, exemptions). The path is fixture-relative so component
/// scoping sees `sim/…`, `core/…`, etc.
fn lint_fixture(rel: &Path) -> (Vec<Diagnostic>, Vec<Exemption>) {
    let text = std::fs::read_to_string(fixtures_root().join(rel))
        .unwrap_or_else(|e| panic!("read {}: {e}", rel.display()));
    let file = SourceFile::parse(rel, text);
    let mut findings = Vec::new();
    let mut exemptions = Vec::new();
    pds_lint::engine::check_one(&file, &default_rules(), &mut findings, &mut exemptions);
    (findings, exemptions)
}

fn errors(findings: &[Diagnostic]) -> Vec<&Diagnostic> {
    findings
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
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

#[test]
fn every_accept_fixture_lints_clean() {
    for rel in fixture_files("accept") {
        let (findings, _) = lint_fixture(&rel);
        let errs = errors(&findings);
        assert!(
            errs.is_empty(),
            "{} should be accepted, got: {:#?}",
            rel.display(),
            errs
        );
    }
}

#[test]
fn every_reject_fixture_is_caught() {
    for rel in fixture_files("reject") {
        let (findings, _) = lint_fixture(&rel);
        assert!(
            !errors(&findings).is_empty(),
            "{} should be rejected but linted clean",
            rel.display()
        );
    }
}

#[test]
fn aliased_hashmap_is_resolved_through_the_use_tree() {
    let (findings, _) = lint_fixture(Path::new("reject/sim/aliased_hashmap.rs"));
    let errs = errors(&findings);
    assert!(
        errs.iter().all(|d| d.rule == "std-collections"),
        "{errs:#?}"
    );
    // Import + type position + constructor call.
    assert_eq!(errs.len(), 3, "{errs:#?}");
    assert!(
        errs[0].message.contains("aliased as `Map`"),
        "{}",
        errs[0].message
    );
}

#[test]
fn hashmap_fixture_pins_spans() {
    let (findings, _) = lint_fixture(Path::new("reject/sim/std_hashmap.rs"));
    let errs = errors(&findings);
    assert!(!errs.is_empty());
    // The import on line 5 anchors at the leaf segment.
    assert_eq!(errs[0].line, 5, "{errs:#?}");
    assert!(errs[0].excerpt.contains("use std::collections::HashMap"));
}

#[test]
fn wall_clock_fixture_flags_import_and_call() {
    let (findings, _) = lint_fixture(Path::new("reject/sim/bare_instant.rs"));
    let errs = errors(&findings);
    assert!(errs.iter().all(|d| d.rule == "wall-clock"), "{errs:#?}");
    let lines: Vec<u32> = errs.iter().map(|d| d.line).collect();
    assert!(lines.contains(&6), "import line: {lines:?}");
    assert!(lines.contains(&9), "call line: {lines:?}");
}

#[test]
fn entropy_fixture_flags_thread_rng_and_from_entropy() {
    let (findings, _) = lint_fixture(Path::new("reject/core/thread_rng.rs"));
    let errs = errors(&findings);
    assert!(errs.iter().all(|d| d.rule == "entropy-rng"), "{errs:#?}");
    assert!(
        errs.iter().any(|d| d.message.contains("from_entropy")),
        "{errs:#?}"
    );
}

#[test]
fn thread_fixtures_cover_sim_and_dst_but_not_bench() {
    for rel in ["reject/sim/thread.rs", "reject/dst/thread.rs"] {
        let (findings, _) = lint_fixture(Path::new(rel));
        assert!(
            errors(&findings).iter().any(|d| d.rule == "thread-pool"),
            "{rel} should be caught"
        );
    }
    let (findings, _) = lint_fixture(Path::new("accept/bench/pool.rs"));
    assert!(errors(&findings).is_empty(), "bench pool is exempt");
}

#[test]
fn sans_io_fixture_flags_sockets_and_fs() {
    let (findings, _) = lint_fixture(Path::new("reject/core/net_io.rs"));
    let errs = errors(&findings);
    assert!(errs.iter().all(|d| d.rule == "sans-io"), "{errs:#?}");
    assert!(
        errs.iter().any(|d| d.message.contains("std::net")),
        "{errs:#?}"
    );
    assert!(
        errs.iter().any(|d| d.message.contains("std::fs")),
        "{errs:#?}"
    );
}

#[test]
fn panic_fixture_flags_all_four_shapes() {
    let (findings, _) = lint_fixture(Path::new("reject/sim/wheel.rs"));
    let errs = errors(&findings);
    assert!(errs.iter().all(|d| d.rule == "panic"), "{errs:#?}");
    let msgs: Vec<&str> = errs.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`.unwrap()`")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("`.expect()`")), "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("slice/array indexing")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("`unreachable!`")),
        "{msgs:?}"
    );
    // Findings name the enclosing function.
    assert!(
        msgs.iter().any(|m| m.contains("in `Wheel::pop_front`")),
        "{msgs:?}"
    );
}

#[test]
fn engine_step_fixture_is_in_panic_scope() {
    let (findings, _) = lint_fixture(Path::new("reject/core/engine/pdr.rs"));
    let errs = errors(&findings);
    assert_eq!(errs.len(), 2, "{errs:#?}");
    assert!(errs.iter().all(|d| d.rule == "panic"));
}

#[test]
fn audited_panic_pragma_becomes_a_ratcheted_exemption() {
    let (findings, exemptions) = lint_fixture(Path::new("accept/sim/wheel.rs"));
    assert!(errors(&findings).is_empty(), "{findings:#?}");
    assert_eq!(exemptions.len(), 1, "{exemptions:#?}");
    assert_eq!(exemptions[0].rule, "panic");
    assert!(exemptions[0].reason.contains("modulo"));
}

#[test]
fn worker_pool_and_channels_in_the_kernel_are_rejected() {
    // Threads and `mpsc` stay banned in `pds-sim`, with no audited
    // exception: a world is stepped on one thread.
    let (findings, _) = lint_fixture(Path::new("reject/sim/worker_channel.rs"));
    let errs = errors(&findings);
    assert!(errs.iter().any(|d| d.rule == "thread-pool"), "{errs:#?}");
    assert!(
        errs.iter().any(|d| d.message.contains("mpsc")),
        "channels are scheduling-order-dependent too: {errs:#?}"
    );
}

#[test]
fn slab_fixture_needs_no_exemptions() {
    // The memory-diet slab idiom (checked `.get()` access, `?`-chained
    // SoA borrows — DESIGN.md §16) lints clean without a single audited
    // pragma: it is panic-free by construction, not by exemption.
    let (findings, exemptions) = lint_fixture(Path::new("accept/sim/slab_table.rs"));
    assert!(errors(&findings).is_empty(), "{findings:#?}");
    assert!(exemptions.is_empty(), "{exemptions:#?}");
}

#[test]
fn unsafe_fixture_flags_missing_forbid_and_missing_safety() {
    let (findings, _) = lint_fixture(Path::new("reject/unsafe/src/lib.rs"));
    let errs = errors(&findings);
    assert_eq!(errs.len(), 2, "{errs:#?}");
    assert!(errs
        .iter()
        .any(|d| d.message.contains("forbid(unsafe_code)")));
    assert!(errs.iter().any(|d| d.message.contains("SAFETY")));
}

#[test]
fn layering_fixture_flags_core_depending_on_sim() {
    let manifests = pds_lint::manifest::load_workspace(&fixtures_root().join("layering")).unwrap();
    assert_eq!(manifests.len(), 2);
    let ws = Workspace { manifests };
    let mut out = Vec::new();
    for rule in default_rules() {
        rule.check_workspace(&ws, &mut out);
    }
    assert!(
        out.iter().any(|d| d.rule == "layering"
            && d.message.contains("`pds-core` may not depend on `pds-sim`")),
        "{out:#?}"
    );
    assert!(
        out.iter().any(|d| d.message.contains("dependency cycle")),
        "{out:#?}"
    );
    // The violation is anchored to the manifest line that introduced it.
    let edge = out
        .iter()
        .find(|d| d.message.contains("may not depend on"))
        .unwrap();
    assert!(edge.path.ends_with("crates/core/Cargo.toml"));
    assert!(edge.line > 1);
}
