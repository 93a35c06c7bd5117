//! The manifest half of the static gate (DESIGN.md §13): facts about the
//! workspace that clippy, which sees one crate at a time, cannot check.

use pds_gate::ratchet::{self, RatchetStatus};
use pds_gate::rules::layering;
use pds_gate::{manifest, surface, workspace_root, HOT_MODULES, PANIC_LINTS};

/// The vendored stand-ins under `vendor/`: the only external crates any
/// workspace crate may name. Keeping `rand`, `getrandom` and friends out
/// of the graph is what keeps entropy-seeded randomness out of the code.
const EXTERNAL_DEPS: &[&str] = &["bytes", "proptest"];

/// Every cargo feature in the workspace, as `(crate, feature)`. A feature
/// is a second build that only some jobs compile, so adding one means
/// extending this list consciously.
const FEATURES: &[(&str, &str)] = &[];

/// The crates whose `clippy.toml` adds the sans-io bans to the root one.
const SANS_IO_CONFIGS: &[&str] = &["crates/core/clippy.toml", "crates/bloom/clippy.toml"];

fn manifests() -> Vec<manifest::Manifest> {
    let all = manifest::load_workspace(&workspace_root()).unwrap();
    assert!(all.len() >= 10, "found only {} crates", all.len());
    all
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn crate_layering_follows_the_pinned_dag() {
    let found = layering::violations(&manifests());
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn layering_table_lists_only_existing_crates() {
    let stale = layering::stale_entries(&manifests());
    assert!(
        stale.is_empty(),
        "remove {stale:?} from rules/layering.rs: no such crate"
    );
}

#[test]
fn cargo_features_stay_the_pinned_few() {
    let found: Vec<(String, String)> = manifests()
        .into_iter()
        .flat_map(|m| {
            m.features
                .into_iter()
                .map(move |f| (m.name.clone(), f.name))
        })
        .collect();
    let pinned: Vec<(String, String)> = FEATURES
        .iter()
        .map(|(c, f)| ((*c).to_string(), (*f).to_string()))
        .collect();
    assert_eq!(
        found, pinned,
        "a feature was added or removed; update FEATURES"
    );
}

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    let missing: Vec<String> = manifests()
        .into_iter()
        .filter(|m| !m.lints_workspace)
        .map(|m| m.path.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "add `[lints] workspace = true` to {missing:?}"
    );
}

#[test]
fn external_dependencies_stay_the_vendored_three() {
    for m in manifests() {
        for dep in m.dependencies.iter().chain(&m.dev_dependencies) {
            assert!(
                dep.name.starts_with("pds") || EXTERNAL_DEPS.contains(&dep.name.as_str()),
                "{}:{}: `{}` is not a vendored dependency",
                m.path.display(),
                dep.line,
                dep.name
            );
        }
    }
}

#[test]
fn hot_modules_deny_the_panic_lints() {
    let attr = format!(
        "#![deny(\n{}\n)]\n",
        PANIC_LINTS
            .iter()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    for rel in HOT_MODULES {
        assert!(read(rel).contains(&attr), "{rel} must start with\n{attr}");
    }
}

#[test]
fn sans_io_configs_keep_every_root_ban() {
    let paths = |text: &str| -> Vec<String> {
        text.lines()
            .filter_map(|l| l.trim().strip_prefix("{ path = \""))
            .filter_map(|l| l.split('"').next())
            .map(str::to_string)
            .collect()
    };
    let root = paths(&read("clippy.toml"));
    assert!(root.iter().any(|p| p == "std::collections::HashMap"));
    let first = read(SANS_IO_CONFIGS[0]);
    for rel in SANS_IO_CONFIGS {
        let text = read(rel);
        assert_eq!(text, first, "{rel} differs from {}", SANS_IO_CONFIGS[0]);
        let own = paths(&text);
        let dropped: Vec<&String> = root.iter().filter(|p| !own.contains(p)).collect();
        assert!(dropped.is_empty(), "{rel} drops root bans {dropped:?}");
        assert!(own.iter().any(|p| p == "std::fs::write"), "{rel}");
    }
}

#[test]
fn exemption_inventory_matches_the_pinned_file() {
    let root = workspace_root();
    let inventory = match ratchet::scan(&root).unwrap() {
        Ok(lines) => lines,
        Err(reasonless) => panic!("exemptions without a reason: {reasonless:#?}"),
    };
    match ratchet::check(&root, ratchet::EXEMPTIONS_FILE, &inventory).unwrap() {
        RatchetStatus::Match => {}
        RatchetStatus::Mismatch { missing, extra } => panic!(
            "{} differs from the source's exemptions\n\
             new, not pinned: {missing:#?}\n\
             pinned, no longer in the source: {extra:#?}\n\
             review, then make its entries read:\n{}",
            ratchet::EXEMPTIONS_FILE,
            inventory.join("\n")
        ),
    }
}

#[test]
fn public_surface_matches_the_pinned_file() {
    let root = workspace_root();
    let inventory = surface::scan(&root).unwrap();
    match ratchet::check(&root, surface::SURFACE_FILE, &inventory).unwrap() {
        RatchetStatus::Match => {}
        RatchetStatus::Mismatch { missing, extra } => panic!(
            "{} differs from the `pub` items under crates/*/src\n\
             new, not pinned: {missing:#?}\n\
             pinned, no longer in the source: {extra:#?}\n\
             narrow what no other crate uses to `pub(crate)`, then make its \
             entries read:\n{}",
            surface::SURFACE_FILE,
            inventory.join("\n")
        ),
    }
}

/// Every `.rs` file under `dir`, as (path relative to the workspace root,
/// text).
fn rust_sources(dir: &std::path::Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() && !path.ends_with("target") {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(workspace_root()).unwrap_or(&path);
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((rel.display().to_string(), text));
        }
    }
}

#[test]
fn design_cites_only_existing_tests() {
    let mut sources = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_sources(&workspace_root().join(dir), &mut sources);
    }
    // Backticked `module::tests::name` and `file.rs::name` citations; a
    // trailing `…` cites every test whose name starts with what precedes it.
    let design = read("DESIGN.md");
    let citations: Vec<&str> = design
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| span.contains("::tests::") || span.contains(".rs::"))
        .collect();
    assert!(citations.len() >= 9, "found only {citations:?}");
    let unresolved: Vec<&str> = citations
        .iter()
        .copied()
        .filter(|citation| {
            let (owner, name) = citation.rsplit_once("::").unwrap();
            let owner = owner.trim_end_matches("::tests");
            let in_owner = |rel: &str| {
                if owner.ends_with(".rs") {
                    rel.ends_with(&format!("/{owner}")) || rel == owner
                } else {
                    rel.ends_with(&format!("/{owner}.rs")) || rel.contains(&format!("/{owner}/"))
                }
            };
            let wanted = match name.strip_suffix('…') {
                Some(prefix) => format!("fn {prefix}"),
                None => format!("fn {name}("),
            };
            !sources
                .iter()
                .any(|(rel, text)| in_owner(rel) && text.contains(&wanted))
        })
        .collect();
    assert!(
        unresolved.is_empty(),
        "DESIGN.md cites tests no source file defines: {unresolved:?}"
    );
}
