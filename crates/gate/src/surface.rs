//! The public-surface inventory: one line, `<file>: <kind> <name>`, per
//! item declared plain `pub` under `crates/*/src`, pinned in
//! `public-surface.txt` and compared by [`ratchet::check`]. rustc's
//! `dead_code` lint never fires on a `pub` item, so each one is a
//! reviewed line. Fields and `pub use` re-exports are not listed.

use crate::ratchet;
use std::path::Path;

/// The pinned inventory file, relative to the workspace root.
pub const SURFACE_FILE: &str = "public-surface.txt";

/// The item kinds listed, by their keyword.
const KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// The words that may stand between `pub` and `fn`.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async"];

/// The `pub` items of one file, as inventory lines, in source order.
#[must_use]
pub fn file_surface(path: &str, text: &str) -> Vec<String> {
    let items = text.lines().filter_map(|line| {
        let words: Vec<&str> = line.trim_start().strip_prefix("pub ")?.split(' ').collect();
        // `pub const fn` and `pub unsafe fn` are functions.
        let at = words
            .iter()
            .position(|w| *w == "fn")
            .filter(|&i| words.iter().take(i).all(|w| QUALIFIERS.contains(w)))
            .unwrap_or(0);
        let (kind, tail) = (words.get(at)?, words.get(at + 1)?);
        let name = tail
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .next()?;
        (KINDS.contains(kind) && !name.is_empty()).then(|| format!("{path}: {kind} {name}"))
    });
    items.collect()
}

/// Every `pub` item under `crates/*/src`, sorted, repeats kept.
pub fn scan(root: &Path) -> std::io::Result<Vec<String>> {
    let sources = ratchet::sources(root, &["crates"])?;
    let in_src = sources
        .iter()
        .filter(|(rel, _)| rel.split('/').nth(2) == Some("src"));
    let mut lines: Vec<String> = in_src
        .flat_map(|(rel, text)| file_surface(rel, text))
        .collect();
    lines.sort();
    Ok(lines)
}

#[cfg(test)]
mod tests {
    #[test]
    fn lists_plain_pub_items_only() {
        let src = [
            "pub fn a() {}",
            "pub(crate) fn b() {}",
            "  pub const fn c() {}",
            "pub const D: u8 = 0;",
            "pub use x::E;",
            "  pub f: u8,",
            "pub mod g;",
        ]
        .join("\n");
        let found = super::file_surface("x.rs", &src);
        assert_eq!(
            found,
            ["x.rs: fn a", "x.rs: fn c", "x.rs: const D", "x.rs: mod g"]
        );
    }
}
