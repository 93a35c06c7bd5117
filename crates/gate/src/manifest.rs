//! Minimal `Cargo.toml` reader for the manifest checks.
//!
//! Reads just what the gate needs — the package name, the keys of
//! `[dependencies]` / `[dev-dependencies]` / `[features]` and the `[lints]`
//! opt-in — with a line-oriented scan. The workspace's manifests are plain
//! (no multi-line inline tables for dependencies), and `cargo metadata` is
//! unavailable offline, so a full TOML parser would be dead weight.

use std::path::{Path, PathBuf};

/// One dependency key with the manifest line it was declared on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// Crate name as written in the dependency table.
    pub name: String,
    /// 1-based line in the manifest, for spanned diagnostics.
    pub line: u32,
}

/// One crate manifest, reduced to the facts the layering rule checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// `package.name`.
    pub name: String,
    /// Keys of `[dependencies]` (normal deps only — these shape the
    /// shipped DAG).
    pub dependencies: Vec<Dep>,
    /// Keys of `[dev-dependencies]`. Exempt from layering (they never
    /// ship and cargo permits cycles through them), but kept for
    /// reporting.
    pub dev_dependencies: Vec<Dep>,
    /// Keys of `[features]`, with their declaration lines.
    pub features: Vec<Dep>,
    /// Whether the manifest says `[lints] workspace = true`.
    pub lints_workspace: bool,
    /// Manifest path, for diagnostics.
    pub path: PathBuf,
}

impl Manifest {
    /// Normal-dependency names, in declaration order.
    #[cfg(test)]
    pub(crate) fn dep_names(&self) -> Vec<&str> {
        self.dependencies.iter().map(|d| d.name.as_str()).collect()
    }
}

/// Parses one manifest file's text.
#[must_use]
pub(crate) fn parse(path: &Path, text: &str) -> Option<Manifest> {
    let mut section = String::new();
    let mut name = None;
    let mut dependencies = Vec::new();
    let mut dev_dependencies = Vec::new();
    let mut features = Vec::new();
    let mut lints_workspace = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = u32::try_from(idx).unwrap_or(u32::MAX).saturating_add(1);
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_string();
        let dep = Dep {
            name: key.clone(),
            line: lineno,
        };
        match section.as_str() {
            "package" if key == "name" => {
                name = Some(value.trim().trim_matches('"').to_string());
            }
            "lints" if key == "workspace" => lints_workspace = value.trim() == "true",
            "dependencies" => dependencies.push(dep),
            "dev-dependencies" => dev_dependencies.push(dep),
            "features" => features.push(dep),
            // Target-specific tables (`[target.….dependencies]`) count as
            // real dependencies too.
            s if s.ends_with(".dependencies") && !s.contains("dev") => dependencies.push(dep),
            _ => {}
        }
    }
    Some(Manifest {
        name: name?,
        dependencies,
        dev_dependencies,
        features,
        lints_workspace,
        path: path.to_path_buf(),
    })
}

/// Loads every `crates/*/Cargo.toml` under `root`, sorted by crate name.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<Manifest>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Ok(out);
    }
    let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let manifest_path = entry.path().join("Cargo.toml");
        if manifest_path.is_file() {
            let text = std::fs::read_to_string(&manifest_path)?;
            let rel = manifest_path
                .strip_prefix(root)
                .unwrap_or(&manifest_path)
                .to_path_buf();
            if let Some(m) = parse(&rel, &text) {
                out.push(m);
            }
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_name_and_dep_sections() {
        let text = r#"
[package]
name = "pds-core"
version = "0.1.0"

[dependencies]
pds-det = { workspace = true }
bytes = { workspace = true }

[dev-dependencies]
pds-sim = { workspace = true }

[lints]
workspace = true
"#;
        let m = parse(Path::new("crates/core/Cargo.toml"), text).unwrap();
        assert_eq!(m.name, "pds-core");
        assert_eq!(m.dep_names(), vec!["pds-det", "bytes"]);
        assert_eq!(m.dev_dependencies.len(), 1);
        assert_eq!(m.dev_dependencies[0].name, "pds-sim");
        assert!(m.lints_workspace);
        // Line numbers point at the declaration, not the section header
        // (the raw string opens with a newline, so `pds-det` sits on line 7).
        assert_eq!(m.dependencies[0].line, 7);
    }

    #[test]
    fn comments_and_other_sections_are_ignored() {
        let text = "[package]\nname = \"x\"\n# comment\n[features]\nprof = []\n[dependencies]\na = \"1\"\n";
        let m = parse(Path::new("t"), text).unwrap();
        assert_eq!(m.dep_names(), vec!["a"]);
        assert!(!m.lints_workspace);
    }

    #[test]
    fn parses_feature_keys_with_their_lines() {
        let text = "[package]\nname = \"x\"\n[features]\nprof = []\n# c\nfast = [\"y/fast\"]\n";
        let m = parse(Path::new("t"), text).unwrap();
        let found: Vec<(&str, u32)> = m
            .features
            .iter()
            .map(|f| (f.name.as_str(), f.line))
            .collect();
        assert_eq!(found, vec![("prof", 4), ("fast", 6)]);
        assert!(m.dependencies.is_empty());
    }
}
