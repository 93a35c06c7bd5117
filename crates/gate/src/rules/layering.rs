//! `layering`: the crate dependency DAG is pinned.
//!
//! The workspace layers bottom-up:
//!
//! ```text
//! pds-det ─┬─► pds-obs ──┐
//!          │             ├─► pds-core ─► pds-sim ─► pds-mobility
//! pds-bloom┴─────────────┘                  │            │
//!                                           ▼            ▼
//!                              pds-bench ─► pds-dst   (facade: pds)
//! ```
//!
//! The `pds` facade also hosts the repository-level `tests/` and
//! `examples/`; their extra crates are dev-dependencies.
//!
//! The invariant that motivated this rule: **`pds-core` must never depend
//! on `pds-sim`** — the protocol engines sit *below* the simulator so the
//! same engine code can later run under a real network backend. Cargo
//! would happily accept the reverse edge; this rule names the manifest
//! line that introduced it. (A cycle needs no rule: cargo refuses to
//! resolve one.)
//!
//! `[dev-dependencies]` are exempt: they never ship, and cargo permits
//! dev-only cycles (pds-core's integration tests drive pds-sim). Only
//! workspace (`pds*`) crates are layered; vendored externals
//! (`bytes`, `proptest`) are outside the DAG.

use crate::manifest::Manifest;

/// Allowed normal-dependency edges, per crate. A crate absent from this
/// table is itself a violation — extending the workspace means extending
/// the table consciously.
const ALLOWED: &[(&str, &[&str])] = &[
    ("pds-det", &[]),
    ("pds-bloom", &[]),
    ("pds-obs", &["pds-det"]),
    ("pds-core", &["pds-det", "pds-bloom", "pds-obs"]),
    ("pds-sim", &["pds-det", "pds-obs", "pds-core"]),
    (
        "pds-mobility",
        &["pds-det", "pds-obs", "pds-core", "pds-sim"],
    ),
    (
        "pds-bench",
        &[
            "pds-det",
            "pds-obs",
            "pds-bloom",
            "pds-core",
            "pds-sim",
            "pds-mobility",
        ],
    ),
    (
        "pds-dst",
        &[
            "pds-det",
            "pds-obs",
            "pds-bloom",
            "pds-core",
            "pds-sim",
            "pds-mobility",
            "pds-bench",
        ],
    ),
    (
        "pds",
        &[
            "pds-det",
            "pds-obs",
            "pds-bloom",
            "pds-core",
            "pds-sim",
            "pds-mobility",
            "pds-bench",
        ],
    ),
    ("pds-gate", &[]),
];

/// Table entries that name no crate in `manifests`: a retired crate must
/// leave the table with it.
#[must_use]
pub fn stale_entries(manifests: &[Manifest]) -> Vec<&'static str> {
    ALLOWED
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !manifests.iter().any(|m| m.name == *name))
        .collect()
}

/// Every layering violation among `manifests`, one message each, naming
/// the manifest line that introduced the edge.
#[must_use]
pub fn violations(manifests: &[Manifest]) -> Vec<String> {
    let mut out = Vec::new();
    for m in manifests {
        let Some((_, allowed)) = ALLOWED.iter().find(|(n, _)| *n == m.name) else {
            out.push(format!(
                "{}: crate `{}` is not in the layering table; add it to rules/layering.rs with its allowed dependencies",
                m.path.display(),
                m.name
            ));
            continue;
        };
        for dep in &m.dependencies {
            if dep.name.starts_with("pds") && !allowed.contains(&dep.name.as_str()) {
                out.push(format!(
                    "{}:{}: layering violation: `{}` may not depend on `{}`",
                    m.path.display(),
                    dep.line,
                    m.name,
                    dep.name
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Dep;
    use std::path::PathBuf;

    fn manifest(name: &str, deps: &[&str]) -> Manifest {
        Manifest {
            name: name.to_string(),
            dependencies: deps
                .iter()
                .enumerate()
                .map(|(i, d)| Dep {
                    name: (*d).to_string(),
                    line: u32::try_from(i).unwrap() + 10,
                })
                .collect(),
            dev_dependencies: Vec::new(),
            features: Vec::new(),
            lints_workspace: true,
            path: PathBuf::from(format!("crates/{name}/Cargo.toml")),
        }
    }

    #[test]
    fn clean_dag_passes() {
        let msgs = violations(&[
            manifest("pds-det", &[]),
            manifest("pds-core", &["pds-det", "pds-bloom", "pds-obs"]),
            manifest("pds-sim", &["pds-det", "pds-obs", "pds-core"]),
        ]);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn core_depending_on_sim_is_the_canonical_violation() {
        let msgs = violations(&[
            manifest("pds-core", &["pds-det", "pds-sim"]),
            manifest("pds-sim", &["pds-core"]),
        ]);
        assert_eq!(
            msgs,
            vec!["crates/pds-core/Cargo.toml:11: layering violation: `pds-core` may not depend on `pds-sim`"]
        );
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let mut m = manifest("pds-core", &["pds-det"]);
        m.dev_dependencies.push(Dep {
            name: "pds-sim".to_string(),
            line: 20,
        });
        let msgs = violations(&[m]);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn table_entries_without_a_crate_are_stale() {
        let all: Vec<Manifest> = ALLOWED.iter().map(|(n, d)| manifest(n, d)).collect();
        assert!(stale_entries(&all).is_empty());
        assert_eq!(stale_entries(&all[1..]), vec![ALLOWED[0].0]);
    }

    #[test]
    fn unknown_crate_must_be_added_to_the_table() {
        let msgs = violations(&[manifest("pds-new-thing", &[])]);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("not in the layering table"));
    }
}
