//! The four determinism rules, ported from the old lexical scanner to
//! path-aware AST matching.
//!
//! Simulation crates must be bit-reproducible: iteration order, time, and
//! randomness all flow from the seeded deterministic substrate
//! (DESIGN.md §8). These rules ban the std escape hatches:
//!
//! * `std-collections` — `HashMap`/`HashSet` (RandomState iteration order
//!   varies per process); use `BTreeMap`/`BTreeSet` or `pds_det`
//!   containers;
//! * `wall-clock` — `Instant`/`SystemTime`/`UNIX_EPOCH`; use `SimTime`;
//! * `entropy-rng` — OS-entropy RNG constructors; use the seeded
//!   `SimRng`;
//! * `thread-pool` — `std::thread`/`rayon`; a world is stepped on one
//!   thread. The one exception is the parallel sweep executor in
//!   `pds-bench` (component-exempt), which runs whole worlds side by
//!   side.
//!
//! Unlike the old scanner these resolve `use` trees, so
//! `use std::collections::HashMap as Map; Map::new()` is caught.

use crate::diag::Severity;
use crate::rules::banned::BannedPathRule;
use crate::rules::{Rule, RuleMeta};

/// Crates under the determinism contract, plus the workspace `tests/`
/// tree. Test code is *not* exempt: replay digests are computed in tests,
/// so nondeterminism there hides real regressions.
const DET_SCOPE: &[&str] = &[
    "sim", "core", "mobility", "bloom", "bench", "obs", "dst", "tests",
];

/// The four determinism rules, in registry order.
#[must_use]
pub fn rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(std_collections()),
        Box::new(wall_clock()),
        Box::new(entropy_rng()),
        Box::new(thread_pool()),
    ]
}

/// `std-collections`: randomized-iteration-order containers.
#[must_use]
pub fn std_collections() -> BannedPathRule {
    BannedPathRule {
        meta: RuleMeta {
            name: "std-collections",
            severity: Severity::Error,
            description: "HashMap/HashSet iteration order is per-process random",
            skip_cfg_test: false,
            skip_cfg_prof: false,
        },
        help: "use BTreeMap/BTreeSet (deterministic iteration) instead",
        components: DET_SCOPE,
        exempt_components: &[],
        banned: &[
            &["std", "collections", "HashMap"],
            &["std", "collections", "HashSet"],
            &["std", "collections", "hash_map"],
            &["std", "collections", "hash_set"],
            &["std", "hash", "RandomState"],
        ],
        bare_idents: &["HashMap", "HashSet", "RandomState"],
        banned_methods: &[],
    }
}

/// `wall-clock`: host-clock reads.
#[must_use]
pub fn wall_clock() -> BannedPathRule {
    BannedPathRule {
        meta: RuleMeta {
            name: "wall-clock",
            severity: Severity::Error,
            description: "host clock reads are nondeterministic across runs",
            // Profiling instrumentation may read the clock — it reports
            // throughput, never feeds simulation state.
            skip_cfg_test: false,
            skip_cfg_prof: true,
        },
        help: "use SimTime / the event scheduler; wall time only behind the prof feature",
        components: DET_SCOPE,
        exempt_components: &[],
        banned: &[
            &["std", "time", "Instant"],
            &["std", "time", "SystemTime"],
            &["std", "time", "UNIX_EPOCH"],
        ],
        bare_idents: &["Instant", "SystemTime", "UNIX_EPOCH"],
        banned_methods: &[],
    }
}

/// `entropy-rng`: OS-entropy randomness.
#[must_use]
pub fn entropy_rng() -> BannedPathRule {
    BannedPathRule {
        meta: RuleMeta {
            name: "entropy-rng",
            severity: Severity::Error,
            description: "OS-entropy RNGs break seeded replay",
            skip_cfg_test: false,
            skip_cfg_prof: false,
        },
        help: "use the seeded SimRng (split from the world seed)",
        components: DET_SCOPE,
        exempt_components: &[],
        banned: &[
            &["rand", "thread_rng"],
            &["rand", "rngs", "OsRng"],
            &["rand", "rngs", "ThreadRng"],
            &["getrandom"],
        ],
        bare_idents: &["OsRng", "ThreadRng", "thread_rng", "getrandom"],
        banned_methods: &["from_entropy"],
    }
}

/// `thread-pool`: host threads.
#[must_use]
pub fn thread_pool() -> BannedPathRule {
    BannedPathRule {
        meta: RuleMeta {
            name: "thread-pool",
            severity: Severity::Error,
            description: "host threads introduce scheduling nondeterminism",
            skip_cfg_test: false,
            skip_cfg_prof: false,
        },
        help: "keep simulation state single-threaded; parallelism lives in pds-bench's \
               sweep executor, which runs whole worlds side by side",
        components: DET_SCOPE,
        // The bench harness runs whole deterministic worlds on worker
        // threads; digests stay reproducible because each world commits
        // sequentially internally. The crate stays exempt, as under the
        // old scanner.
        exempt_components: &["bench"],
        banned: &[&["std", "thread"], &["std", "sync", "mpsc"], &["rayon"]],
        bare_idents: &["ThreadPool", "rayon"],
        banned_methods: &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::Path;

    fn check(rule: &BannedPathRule, path: &str, src: &str) -> Vec<String> {
        let f = SourceFile::parse(Path::new(path), src.to_string());
        assert!(rule.applies(Path::new(path)), "rule should apply to {path}");
        let mut out = Vec::new();
        let mut ex = Vec::new();
        rule.check_file(&f, &mut out, &mut ex);
        out.into_iter().map(|d| d.message).collect()
    }

    #[test]
    fn aliased_hashmap_is_caught() {
        let msgs = check(
            &std_collections(),
            "crates/sim/src/x.rs",
            "use std::collections::HashMap as Map;\nfn f() { let m = Map::new(); m.len(); }\n",
        );
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("aliased as `Map`"), "{msgs:?}");
    }

    #[test]
    fn fully_qualified_instant_is_caught() {
        let msgs = check(
            &wall_clock(),
            "crates/core/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("std::time::Instant"));
    }

    #[test]
    fn deterministic_collections_pass() {
        let msgs = check(
            &std_collections(),
            "crates/sim/src/x.rs",
            "use std::collections::{BTreeMap, BTreeSet, VecDeque, BinaryHeap};\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn glob_of_banned_module_is_caught() {
        let msgs = check(
            &thread_pool(),
            "crates/dst/src/x.rs",
            "use std::thread::*;\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("glob import"));
    }

    #[test]
    fn from_entropy_method_is_caught() {
        let msgs = check(
            &entropy_rng(),
            "crates/core/src/x.rs",
            "fn f(r: R) { let x = R::seed(0).from_entropy(); }\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
    }

    #[test]
    fn bench_is_exempt_from_thread_pool_only() {
        let rule = thread_pool();
        assert!(!rule.applies(Path::new("crates/bench/src/sweep.rs")));
        let clock = wall_clock();
        assert!(clock.applies(Path::new("crates/bench/src/metrics.rs")));
    }

    #[test]
    fn xtask_is_out_of_scope() {
        let rule = std_collections();
        assert!(!rule.applies(Path::new("crates/xtask/src/main.rs")));
        assert!(rule.applies(Path::new("tests/replay.rs")));
    }
}
