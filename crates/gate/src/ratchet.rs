//! The exemption ratchet.
//!
//! An exemption from a gated lint (`GATED_LINTS`) is an
//! `#[expect(<lint>, reason = "<why>")]` attribute on the narrowest item
//! that needs it; `expect` rather than `allow`, so an exemption that no
//! longer suppresses anything fails clippy as unfulfilled. Every such
//! attribute under `crates/`, `tests/` and `examples/` is inventoried, one
//! line per (file, lint, reason), and `lint-exemptions.txt` at the
//! workspace root pins that inventory. `tests/manifest.rs` fails when the
//! two diverge in either direction, so growing the exemption set means
//! touching the pinned file in the same commit, and a removed exemption
//! cannot leave a stale line behind. A gated exemption without a reason
//! fails too.

use std::path::Path;

/// The pinned inventory file, relative to the workspace root.
pub const EXEMPTIONS_FILE: &str = "lint-exemptions.txt";

/// Lints whose exemptions are audited: the ones the gate denies.
pub(crate) const GATED_LINTS: &[&str] = &[
    "unsafe_code",
    "clippy::disallowed_methods",
    "clippy::disallowed_types",
    "clippy::undocumented_unsafe_blocks",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];

/// Directories scanned, relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "tests", "examples"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures"];

/// Result of comparing an inventory to the pinned file.
#[derive(Debug, PartialEq, Eq)]
pub enum RatchetStatus {
    /// Pinned file matches the inventory exactly.
    Match,
    /// Divergence: `missing` lines are new exemptions not yet pinned
    /// (the ratchet grew); `extra` lines are pinned but no longer
    /// produced (stale).
    Mismatch {
        /// In the inventory, not in the file.
        missing: Vec<String>,
        /// In the file, not in the inventory.
        extra: Vec<String>,
    },
}

/// The audited exemptions of one file, as inventory lines
/// (`<path>: expect(<lint>) -- <reason>`). `Err` names a gated lint
/// exempted without a reason.
pub fn file_inventory(path: &str, text: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    for (idx, line) in lines.iter().enumerate() {
        let head = line.trim_start();
        let Some(kind) = ["#[allow(", "#![allow(", "#[expect(", "#![expect("]
            .iter()
            .find(|p| head.starts_with(**p))
        else {
            continue;
        };
        // The attribute may span lines; `attr_args` stops where its
        // parens close.
        let rest = lines.get(idx + 1..).unwrap_or_default();
        let attr = std::iter::once(head)
            .chain(rest.iter().copied())
            .collect::<Vec<_>>()
            .join("\n");
        let Some(items) = attr.get(kind.len()..).and_then(attr_args) else {
            return Err(format!("{path}:{}: unterminated attribute", idx + 1));
        };
        let reason = items
            .iter()
            .find_map(|i| i.strip_prefix("reason"))
            .and_then(|r| r.trim_start().strip_prefix('='))
            .map(|r| unquote(r.trim()));
        let verb = kind
            .trim_start_matches(['#', '!', '['])
            .trim_end_matches('(');
        for lint in items.iter().filter(|i| GATED_LINTS.contains(&i.as_str())) {
            match &reason {
                Some(r) if !r.is_empty() => out.push(format!("{path}: {verb}({lint}) -- {r}")),
                _ => {
                    return Err(format!(
                        "{path}:{}: `{verb}({lint})` needs a `reason = \"...\"`",
                        idx + 1
                    ))
                }
            }
        }
    }
    Ok(out)
}

/// The comma-separated arguments of an attribute whose opening paren is
/// already consumed, trimmed, up to the matching close paren; commas and
/// parens inside string literals do not count. `None` if it never
/// closes.
fn attr_args(s: &str) -> Option<Vec<String>> {
    let mut items = vec![String::new()];
    let mut depth = 1usize;
    let (mut in_str, mut escaped) = (false, false);
    for c in s.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_str = true,
                '(' => depth += 1,
                ')' => depth -= 1,
                ',' if depth == 1 => {
                    items.push(String::new());
                    continue;
                }
                _ => {}
            }
            if depth == 0 {
                return Some(
                    items
                        .into_iter()
                        .map(|i| i.trim().to_string())
                        .filter(|i| !i.is_empty())
                        .collect(),
                );
            }
        }
        if let Some(last) = items.last_mut() {
            last.push(c);
        }
    }
    None
}

/// The contents of a string literal, with its escapes (`\"`, `\\`)
/// resolved to the escaped character.
fn unquote(lit: &str) -> String {
    let mut out = String::new();
    let mut chars = lit.trim_matches('"').chars();
    while let Some(c) = chars.next() {
        out.extend(if c == '\\' { chars.next() } else { Some(c) });
    }
    out
}

/// The workspace's inventory: every audited exemption under the scan
/// roots, sorted and deduplicated. `Err` lists reasonless exemptions.
pub fn scan(root: &Path) -> std::io::Result<Result<Vec<String>, Vec<String>>> {
    let (mut lines, mut errors) = (Vec::new(), Vec::new());
    for (rel, text) in sources(root, SCAN_ROOTS)? {
        match file_inventory(&rel, &text) {
            Ok(found) => lines.extend(found),
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        return Ok(Err(errors));
    }
    lines.sort();
    lines.dedup();
    Ok(Ok(lines))
}

/// Every `.rs` file under the `dirs` of `root`, as (path relative to
/// `root`, text), in path order.
pub(crate) fn sources(root: &Path, dirs: &[&str]) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for dir in dirs {
        walk(&root.join(dir), &mut files)?;
    }
    files.sort();
    files
        .into_iter()
        .map(|file| {
            let rel = file.strip_prefix(root).unwrap_or(&file).display();
            Ok((rel.to_string(), std::fs::read_to_string(&file)?))
        })
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Compares `inventory` to the pinned `file` under `root`, line for line
/// and counting repeats. A missing file is treated as an empty inventory.
pub fn check(root: &Path, file: &str, inventory: &[String]) -> std::io::Result<RatchetStatus> {
    let path = root.join(file);
    let text = if path.is_file() {
        std::fs::read_to_string(path)?
    } else {
        String::new()
    };
    let mut extra: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    let mut missing = Vec::new();
    for line in inventory {
        match extra.iter().position(|l| l == line) {
            Some(i) => {
                extra.remove(i);
            }
            None => missing.push(line.clone()),
        }
    }
    if missing.is_empty() && extra.is_empty() {
        Ok(RatchetStatus::Match)
    } else {
        Ok(RatchetStatus::Mismatch { missing, extra })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pds-gate-ratchet-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn multi_line_expect_with_two_lints_yields_two_lines() {
        let src = "fn a() {}\n    #[expect(\n        clippy::disallowed_types,\n        clippy::disallowed_methods,\n        reason = \"the one stopwatch (audited)\"\n    )]\nfn b() {}\n";
        assert_eq!(
            file_inventory("x.rs", src).unwrap(),
            vec![
                "x.rs: expect(clippy::disallowed_types) -- the one stopwatch (audited)",
                "x.rs: expect(clippy::disallowed_methods) -- the one stopwatch (audited)",
            ]
        );
    }

    #[test]
    fn ungated_allows_are_ignored_and_reasonless_gated_ones_fail() {
        let ungated = "#[allow(clippy::too_many_arguments)]\nfn f() {}\n";
        assert_eq!(file_inventory("x.rs", ungated), Ok(Vec::new()));
        let reasonless = "#![allow(clippy::disallowed_types)]\n";
        assert!(file_inventory("x.rs", reasonless)
            .unwrap_err()
            .contains("needs a `reason"));
    }

    #[test]
    fn growth_is_reported_as_missing() {
        let root = tmpdir("growth");
        std::fs::write(
            root.join(EXEMPTIONS_FILE),
            "# header\na.rs: expect(clippy::panic) -- bounded\n",
        )
        .unwrap();
        let grown = vec![
            "a.rs: expect(clippy::panic) -- bounded".to_string(),
            "c.rs: expect(clippy::panic) -- new one".to_string(),
        ];
        match check(&root, EXEMPTIONS_FILE, &grown).unwrap() {
            RatchetStatus::Mismatch { missing, extra } => {
                assert_eq!(missing, vec!["c.rs: expect(clippy::panic) -- new one"]);
                assert!(extra.is_empty());
            }
            RatchetStatus::Match => panic!("growth must not match"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_file_with_empty_inventory_matches() {
        let root = tmpdir("absent");
        let _ = std::fs::remove_file(root.join(EXEMPTIONS_FILE));
        assert_eq!(
            check(&root, EXEMPTIONS_FILE, &[]).unwrap(),
            RatchetStatus::Match
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
