//! `panic`: panic-freedom on the hot dispatch path.
//!
//! A panic mid-dispatch poisons the world: the event queue is left
//! half-drained, the replay digest diverges from the prefix already
//! emitted, and under the DST fault layer a panic is indistinguishable
//! from a seed-minimization hit. The hot path therefore must not contain
//! `unwrap`/`expect`, panic-family macros, unchecked accessors, or bare
//! slice indexing (which panics on out-of-bounds).
//!
//! Scope is targeted, not blanket:
//!
//! * `crates/sim/src/wheel.rs` — the timer wheel (whole file);
//! * `crates/sim/src/transport.rs` — fragment reassembly (whole file);
//! * `crates/sim/src/world.rs` — the dispatch-path functions only
//!   (`World::dispatch` down through `fire_timer`); builders, accessors
//!   and tests are out of scope;
//! * `crates/core/src/engine/{mod,pdd,pdr,mdr}.rs` — the PDD/PDR/MDR
//!   step functions (whole files; `engine/tests.rs` is excluded).
//!
//! An invariant-justified index can stay with an audited line pragma:
//! `// lint: allow(panic) -- <why the invariant holds>`. Every such
//! pragma lands in the ratcheted exemption inventory.

use crate::diag::{Diagnostic, Exemption, Severity};
use crate::lexer::TokenKind;
use crate::rules::{has_component, Rule, RuleMeta};
use crate::source::SourceFile;
use std::path::Path;

/// One file under the panic-freedom contract.
struct HotTarget {
    /// Path component that must be present (crate or module dir).
    component: &'static str,
    /// Exact file name.
    file: &'static str,
    /// `None` = whole file; `Some` = only these function bodies.
    fns: Option<&'static [&'static str]>,
}

/// `World` dispatch-path functions, in call order from `run_until` down.
const WORLD_HOT_FNS: &[&str] = &[
    "run_until",
    "run_for",
    "pop_event",
    "dispatch",
    "dispatch_inner",
    "trace_kernel",
    "call_app",
    "apply_commands",
    "start_send",
    "pace_frame",
    "drain_bucket",
    "enqueue_os",
    "mac_try",
    "tx_end",
    "fault_cut",
    "fault_roll_drop",
    "fault_roll_delay",
    "fault_roll_dup",
    "fault_enqueue",
    "fault_deliver",
    "deliver_frame",
    "frame_done",
    "fire_timer",
    "refresh_node_grid",
    "emit",
];

const TARGETS: &[HotTarget] = &[
    HotTarget {
        component: "sim",
        file: "wheel.rs",
        fns: None,
    },
    HotTarget {
        component: "sim",
        file: "transport.rs",
        fns: None,
    },
    HotTarget {
        component: "sim",
        file: "world.rs",
        fns: Some(WORLD_HOT_FNS),
    },
    HotTarget {
        component: "engine",
        file: "mod.rs",
        fns: None,
    },
    HotTarget {
        component: "engine",
        file: "pdd.rs",
        fns: None,
    },
    HotTarget {
        component: "engine",
        file: "pdr.rs",
        fns: None,
    },
    HotTarget {
        component: "engine",
        file: "mdr.rs",
        fns: None,
    },
];

/// Method names that panic (or are UB) on the unhappy path.
const PANICKY_METHODS: &[&str] = &["unwrap", "expect", "unwrap_unchecked"];

/// Panic-family macro names.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can precede `[` without it being an index expression
/// (slice patterns, mostly).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "while", "match", "return", "else", "move", "box",
];

/// The panic-freedom rule.
pub struct PanicPath {
    meta: RuleMeta,
}

impl PanicPath {
    /// Constructs the rule.
    #[must_use]
    pub fn new() -> Self {
        Self {
            meta: RuleMeta {
                name: "panic",
                severity: Severity::Error,
                description: "no unwrap/expect/panic!/indexing/unchecked on the hot dispatch path",
                skip_cfg_test: true,
                skip_cfg_prof: false,
            },
        }
    }

    fn target_for(path: &Path) -> Option<&'static HotTarget> {
        let name = path.file_name()?.to_str()?;
        TARGETS
            .iter()
            .find(|t| t.file == name && has_component(path, &[t.component]))
    }
}

impl Default for PanicPath {
    fn default() -> Self {
        Self::new()
    }
}

impl Rule for PanicPath {
    fn meta(&self) -> &RuleMeta {
        &self.meta
    }

    fn applies(&self, path: &Path) -> bool {
        Self::target_for(path).is_some()
    }

    fn check_file(
        &self,
        file: &SourceFile,
        out: &mut Vec<Diagnostic>,
        _exemptions: &mut Vec<Exemption>,
    ) {
        let Some(target) = Self::target_for(&file.path) else {
            return;
        };
        // In-scope byte ranges: the listed fn bodies, or the whole file.
        let ranges: Vec<(usize, usize)> = match target.fns {
            None => vec![(0, file.text.len())],
            Some(names) => file
                .fns
                .iter()
                .filter(|f| names.contains(&f.name.as_str()))
                .map(|f| (f.lo, f.hi))
                .collect(),
        };
        let in_scope = |offset: usize| ranges.iter().any(|&(lo, hi)| offset >= lo && offset < hi);
        let enclosing = |offset: usize| {
            file.fns
                .iter()
                .filter(|f| offset >= f.lo && offset < f.hi)
                .min_by_key(|f| f.hi - f.lo)
                .map(crate::source::FnSpan::qualified)
        };
        let mut push = |tok: &crate::lexer::Token, what: String| {
            let site = enclosing(tok.lo)
                .map(|f| format!(" in `{f}`"))
                .unwrap_or_default();
            out.push(Diagnostic {
                rule: self.meta.name,
                severity: self.meta.severity,
                path: file.path.clone(),
                line: tok.line,
                col: tok.col,
                offset: tok.lo,
                message: format!("{what} on the hot path{site}"),
                excerpt: file.line_text(tok.line).to_string(),
                help: "return a typed error, use .get()/checked ops, or justify with `// lint: allow(panic) -- <invariant>`",
            });
        };

        let toks = &file.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if !in_scope(t.lo) {
                continue;
            }
            match t.kind {
                TokenKind::Ident => {
                    let word = t.text(&file.text);
                    let prev_dot = i >= 1 && toks[i - 1].is_punct(b'.');
                    let next_open_paren = toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokenKind::Open(b'('));
                    let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'));
                    if prev_dot && next_open_paren {
                        if PANICKY_METHODS.contains(&word) {
                            push(t, format!("`.{word}()`"));
                        } else if word.starts_with("get_unchecked") {
                            push(t, format!("unchecked accessor `.{word}()`"));
                        }
                    } else if next_bang && PANIC_MACROS.contains(&word) {
                        // `foo!` — but not `a != b` (the ident is then not
                        // a macro name we track followed by `(`/`[`/`{`).
                        let after_bang = toks.get(i + 2).map(|n| n.kind);
                        if matches!(
                            after_bang,
                            Some(
                                TokenKind::Open(b'(')
                                    | TokenKind::Open(b'[')
                                    | TokenKind::Open(b'{')
                            )
                        ) {
                            push(t, format!("`{word}!`"));
                        }
                    }
                }
                TokenKind::Open(b'[') if i >= 1 => {
                    let prev = &toks[i - 1];
                    let indexable = match prev.kind {
                        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text(&file.text)),
                        TokenKind::Close(b')') | TokenKind::Close(b']') => true,
                        _ => false,
                    };
                    if indexable {
                        push(t, "slice/array indexing".to_string());
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<String> {
        let rule = PanicPath::new();
        let f = SourceFile::parse(Path::new(path), src.to_string());
        let mut out = Vec::new();
        let mut ex = Vec::new();
        if rule.applies(Path::new(path)) {
            rule.check_file(&f, &mut out, &mut ex);
        }
        out.into_iter().map(|d| d.message).collect()
    }

    #[test]
    fn unwrap_in_wheel_is_caught() {
        let msgs = check(
            "crates/sim/src/wheel.rs",
            "fn pop(&mut self) { let x = self.slots.front().unwrap(); }\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`.unwrap()`"));
        assert!(msgs[0].contains("in `pop`"), "{msgs:?}");
    }

    #[test]
    fn world_scope_is_fn_targeted() {
        let src = "impl World {\n    fn dispatch(&mut self) { self.q[0]; }\n    fn stats(&self) -> u32 { self.counts[0] }\n}\n";
        let msgs = check("crates/sim/src/world.rs", src);
        // Indexing inside dispatch is flagged; the accessor is out of scope.
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("World::dispatch"));
    }

    #[test]
    fn panic_macro_and_expect_are_caught() {
        let msgs = check(
            "crates/core/src/engine/pdr.rs",
            "fn step(&mut self) { let v = self.x.expect(\"set\"); panic!(\"boom\"); }\n",
        );
        assert_eq!(msgs.len(), 2, "{msgs:?}");
    }

    #[test]
    fn benign_constructs_pass() {
        let msgs = check(
            "crates/sim/src/transport.rs",
            "fn ok(&self) -> Option<u8> {\n    let [a, b] = self.pair;\n    let _ = a != b;\n    let arr = [0u8; 4];\n    self.map.get(&1).copied().map(|x| x.saturating_add(arr.len() as u8))\n}\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn unwrap_or_variants_pass() {
        let msgs = check(
            "crates/sim/src/wheel.rs",
            "fn f(&self) -> u32 { self.x.unwrap_or(0).min(self.y.unwrap_or_else(|| 1)) }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn other_files_are_out_of_scope() {
        assert!(!PanicPath::new().applies(Path::new("crates/sim/src/radio.rs")));
        assert!(!PanicPath::new().applies(Path::new("crates/core/src/engine/tests.rs")));
        assert!(PanicPath::new().applies(Path::new("crates/core/src/engine/mdr.rs")));
    }
}
