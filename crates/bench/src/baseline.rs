//! Perf-baseline regression checking for the `sim_scale` record.
//!
//! `sim_scale --check-baseline [path]` re-runs the benchmark and compares
//! the fresh record against the committed `BENCH_sim_scale.json`. Only
//! quantities that do not depend on how fast the host ran are read:
//!
//! - **deterministic counters** (`frames_sent`, `frames_delivered`,
//!   `events`) must match *exactly* — they are functions of the seed and
//!   the horizon, so any drift is a silent behavior change, not noise;
//! - **equality flags** (`stats_equal`, `results_equal`) must be `true`
//!   in the fresh record;
//! - **peak heap per node** (`bytes_per_node`) may grow at most 25% —
//!   the memory diet must not quietly un-diet (a baseline of 0, from a
//!   record written before the allocator counted unconditionally, is
//!   skipped);
//! - **wall times and everything derived from them** (`*_wall_s`,
//!   `speedup`, `events_per_sec`) are never read: a gate whose tolerance
//!   sits inside runner noise is not a measurement. They stay in the
//!   record as trend lines; the measured costs live in the protocol
//!   benchmark (`BENCHMARK.json`).
//!
//! The `city` block is additionally gated on both records having run the
//! same city node count and horizon (nightly runs 50k against a committed
//! 10k record: `stats_equal` is still enforced, counters are not).
//!
//! Records are read with the workspace's one JSON reader,
//! `pds_obs::json` (reached through `pds_sim::obs`, so this crate's
//! dependency list — and `benchmark/Cargo.lock` — stay as they are);
//! [`parse`] and [`Value`] are re-exported here for the protocol
//! benchmark, which reads `BENCHMARK.json` and its own records with them.

use std::fmt;

/// Fractional growth in per-node peak heap (`bytes_per_node`) the fresh
/// run may show before the check fails (one-sided: using less memory is
/// never a regression). Skipped when the baseline recorded no peak (0).
pub const BYTES_PER_NODE_TOLERANCE: f64 = 0.25;

pub use pds_sim::obs::json::Value;

/// Parses a JSON document with the workspace's one reader
/// ([`pds_sim::obs::json::parse`]), flattening its error to a string.
///
/// # Errors
///
/// Returns a one-line description with a byte offset on malformed input.
pub fn parse(input: &str) -> Result<Value, String> {
    pds_sim::obs::json::parse(input).map_err(|e| e.to_string())
}

/// Outcome of a baseline comparison.
#[derive(Debug)]
pub enum Verdict {
    /// Records were comparable; the list holds every regression found
    /// (empty means the check passed).
    Compared(Vec<Regression>),
    /// Records were produced under different settings (e.g. `--quick` vs
    /// full horizon), so counters cannot be compared; the string says why.
    /// Not a failure — the caller should report and move on.
    Incomparable(String),
}

/// One baseline regression: which metric moved and how.
#[derive(Debug)]
pub struct Regression {
    /// Dotted path of the regressed metric, e.g. `resources[n=500].events`.
    pub what: String,
    /// The committed value.
    pub baseline: f64,
    /// The freshly measured value.
    pub current: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: baseline {} vs current {}",
            self.what, self.baseline, self.current
        )
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn rows<'a>(block: Option<&'a Value>, key: &str) -> &'a [Value] {
    block
        .and_then(|b| b.get(key))
        .and_then(Value::as_arr)
        .unwrap_or_default()
}

fn flag_false(out: &mut Vec<Regression>, row: Option<&Value>, flag: &str, what: &str) {
    if row.and_then(|r| r.get(flag)).and_then(Value::as_bool) == Some(false) {
        out.push(Regression {
            what: format!("{what}.{flag} is false"),
            baseline: 1.0,
            current: 0.0,
        });
    }
}

/// One matched row pair: counters exactly, peak heap per node within
/// [`BYTES_PER_NODE_TOLERANCE`] when the baseline recorded one.
fn compare_row(out: &mut Vec<Regression>, what: &str, brow: &Value, crow: &Value) {
    for counter in ["frames_sent", "frames_delivered", "events"] {
        if let (Some(b), Some(c)) = (num(brow, counter), num(crow, counter)) {
            if b != c {
                out.push(Regression {
                    what: format!("{what}.{counter}"),
                    baseline: b,
                    current: c,
                });
            }
        }
    }
    if let (Some(b), Some(c)) = (num(brow, "bytes_per_node"), num(crow, "bytes_per_node")) {
        if b > 0.0 && c > b * (1.0 + BYTES_PER_NODE_TOLERANCE) {
            out.push(Regression {
                what: format!("{what}.bytes_per_node"),
                baseline: b,
                current: c,
            });
        }
    }
}

/// Compares a fresh `sim_scale` record against the committed baseline.
///
/// # Errors
///
/// Returns an error string when either document fails to parse.
pub fn check(baseline_json: &str, current_json: &str) -> Result<Verdict, String> {
    let base = parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let cur = parse(current_json).map_err(|e| format!("current: {e}"))?;

    for key in ["quick", "sim_seconds"] {
        let (b, c) = (base.get(key), cur.get(key));
        if b != c {
            return Ok(Verdict::Incomparable(format!(
                "'{key}' differs ({b:?} vs {c:?}); run with matching flags to compare"
            )));
        }
    }

    let mut regressions = Vec::new();
    let missing = |what: String| Regression {
        what: format!("{what} missing from current record"),
        baseline: 1.0,
        current: f64::NAN,
    };

    // Per-n rows, matched by their "n" member so reordering or added node
    // counts never misalign the comparison.
    let cur_rows = rows(Some(&cur), "resources");
    for brow in rows(Some(&base), "resources") {
        let Some(n) = num(brow, "n") else {
            continue;
        };
        let what = format!("resources[n={n}]");
        match cur_rows.iter().find(|r| num(r, "n") == Some(n)) {
            Some(crow) => compare_row(&mut regressions, &what, brow, crow),
            None => regressions.push(missing(what)),
        }
    }

    flag_false(&mut regressions, cur.get("sweep"), "results_equal", "sweep");

    // City block: rows are matched by scenario key. Counters and heap are
    // comparable only when both records ran the same node count on the
    // same horizon — nightly 50k vs committed 10k is a different
    // experiment — but a false `stats_equal` in the fresh record is a
    // determinism break at any n.
    fn scenario(row: &Value) -> &str {
        row.get("scenario").and_then(Value::as_str).unwrap_or("?")
    }
    let (base_city, cur_city) = (base.get("city"), cur.get("city"));
    let cur_rows = rows(cur_city, "rows");
    for crow in cur_rows {
        let what = format!("city.rows[{}]", scenario(crow));
        flag_false(&mut regressions, Some(crow), "stats_equal", &what);
    }
    let setting = |city: Option<&Value>, key: &str| city.and_then(|c| num(c, key));
    let comparable = setting(base_city, "n").is_some()
        && setting(base_city, "n") == setting(cur_city, "n")
        && setting(base_city, "sim_seconds") == setting(cur_city, "sim_seconds");
    if comparable {
        for brow in rows(base_city, "rows") {
            let what = format!("city.rows[{}]", scenario(brow));
            match cur_rows.iter().find(|r| scenario(r) == scenario(brow)) {
                Some(crow) => compare_row(&mut regressions, &what, brow, crow),
                None => regressions.push(missing(what)),
            }
        }
    }

    Ok(Verdict::Compared(regressions))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record in the shape `sim_scale` writes, with every wall-derived
    /// member scaled by `wall`.
    #[derive(Clone, Copy)]
    struct Rec {
        frames: u64,
        events: u64,
        city_n: u64,
        city_events: u64,
        bytes_per_node: u64,
        city_equal: bool,
        wall: f64,
    }

    const BASE: Rec = Rec {
        frames: 1000,
        events: 5000,
        city_n: 10_000,
        city_events: 350_000,
        bytes_per_node: 10_000,
        city_equal: true,
        wall: 1.0,
    };

    impl Rec {
        fn json(self) -> String {
            let Rec {
                frames,
                events,
                city_n,
                city_events,
                bytes_per_node,
                city_equal,
                wall,
            } = self;
            format!(
                "{{\"bench\": \"sim_scale\", \"quick\": true, \"sim_seconds\": 2, \"cores\": 2,\n\
                 \"sweep\": {{\"jobs\": 2, \"cores\": 2, \"sequential_wall_s\": {}, \
                 \"parallel_wall_s\": {}, \"speedup\": {}, \"results_equal\": true}},\n\
                 \"resources\": [{{\"n\": 100, \"events\": {events}, \"frames_sent\": {frames}, \
                 \"frames_delivered\": 900, \"wall_s\": {}, \"events_per_sec\": {}, \
                 \"peak_alloc_bytes\": 1, \"bytes_per_node\": {bytes_per_node}}}],\n\
                 \"city\": {{\"n\": {city_n}, \"sim_seconds\": 2, \"budget_bytes_per_node\": 32768, \
                 \"rows\": [{{\"scenario\": \"stadium_exit\", \"n\": {city_n}, \
                 \"events\": {city_events}, \"wall_s\": {}, \"events_per_sec\": {}, \
                 \"peak_alloc_bytes\": 1, \"bytes_per_node\": {bytes_per_node}, \
                 \"stats_equal\": {city_equal}}}]}}}}",
                2.8 * wall,
                2.1 * wall,
                1.3 * wall,
                0.03 * wall,
                2.6e6 * wall,
                1.1 * wall,
                3.3e5 * wall,
            )
        }
    }

    fn found(base: Rec, cur: Rec) -> Vec<Regression> {
        match check(&base.json(), &cur.json()).unwrap() {
            Verdict::Compared(r) => r,
            Verdict::Incomparable(why) => panic!("unexpectedly incomparable: {why}"),
        }
    }

    /// Regressions of `BASE` after `edit`, against `BASE`.
    fn drift(edit: impl FnOnce(&mut Rec)) -> Vec<Regression> {
        let mut cur = BASE;
        edit(&mut cur);
        found(BASE, cur)
    }

    #[test]
    fn identical_records_pass() {
        assert!(found(BASE, BASE).is_empty());
    }

    #[test]
    fn counter_drift_is_exact_regression() {
        let found = drift(|r| r.frames = 1001);
        assert_eq!(found.len(), 1);
        assert!(found[0].what.contains("frames_sent"), "{}", found[0]);
    }

    #[test]
    fn event_count_drift_is_exact_regression() {
        let found = drift(|r| r.events = 5001);
        assert_eq!(found.len(), 1);
        assert!(
            found[0].what.contains("resources[n=100].events"),
            "{}",
            found[0]
        );
    }

    #[test]
    fn quick_mismatch_is_incomparable_not_failing() {
        let full = BASE.json().replace("\"quick\": true", "\"quick\": false");
        match check(&BASE.json(), &full).unwrap() {
            Verdict::Incomparable(why) => assert!(why.contains("quick")),
            Verdict::Compared(r) => panic!("expected incomparable, got {r:?}"),
        }
    }

    #[test]
    fn wall_times_are_ignored() {
        // No wall-derived member is read: every `*wall_s`, `speedup` and
        // `events_per_sec` ten times worse (and ten times better) passes.
        for wall in [10.0, 0.1] {
            assert!(drift(|r| r.wall = wall).is_empty());
        }
        let slow = Rec { wall: 10.0, ..BASE };
        assert_ne!(slow.json(), BASE.json());
    }

    #[test]
    fn city_event_drift_is_exact_regression() {
        let found = drift(|r| r.city_events = 350_001);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].what.contains("city.rows[stadium_exit].events"),
            "{}",
            found[0]
        );
    }

    #[test]
    fn city_blocks_at_different_n_compare_nothing_but_stats_equal() {
        // Nightly (50k) against the committed 10k record: counters and
        // heap are different experiments, but a determinism break in the
        // fresh record still fails.
        let nightly = |r: &mut Rec| (r.city_n, r.city_events) = (50_000, 999_999);
        assert!(drift(nightly).is_empty());
        let found = drift(|r| {
            nightly(r);
            r.city_equal = false;
        });
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].what.contains("stats_equal"), "{}", found[0]);
    }

    #[test]
    fn per_node_heap_growth_is_a_regression() {
        // Both the resources row and the city row carry the doubled load.
        let grown = drift(|r| r.bytes_per_node = 20_000);
        assert_eq!(grown.len(), 2, "{grown:?}");
        assert!(grown.iter().all(|r| r.what.contains("bytes_per_node")));
        // Within tolerance: 10000 → 12000 is +20% < 25%.
        let within = drift(|r| r.bytes_per_node = 12_000);
        assert!(within.is_empty(), "{within:?}");
    }

    #[test]
    fn unmeasured_heap_is_skipped_not_failed() {
        // bytes_per_node == 0 is a record written by a binary without the
        // counting allocator; comparing against it would punish measuring.
        let mut unmeasured = BASE;
        unmeasured.bytes_per_node = 0;
        assert!(found(unmeasured, BASE).is_empty());
        assert!(found(BASE, unmeasured).is_empty());
    }

    #[test]
    fn baseline_without_city_block_still_compares() {
        let new = BASE.json();
        let (head, _) = new.split_once(",\n\"city\"").expect("city block");
        let old = format!("{head}}}");
        // Neither direction may error or regress on the missing block.
        for (a, b) in [(&old, &new), (&new, &old)] {
            match check(a, b).unwrap() {
                Verdict::Compared(r) => assert!(r.is_empty(), "{r:?}"),
                Verdict::Incomparable(why) => panic!("{why}"),
            }
        }
    }

    #[test]
    fn integer_and_float_spellings_compare_equal() {
        // The reader keeps `2` exact (`Int`) and reads `2.0` as a float;
        // everything `check` compares must treat them as the same number.
        let mut floaty = BASE.json();
        for (int, float) in [
            ("\"sim_seconds\": 2,", "\"sim_seconds\": 2.0,"),
            ("\"events\": 5000,", "\"events\": 5000.0,"),
            ("\"n\": 10000,", "\"n\": 1e4,"),
        ] {
            assert!(floaty.contains(int));
            floaty = floaty.replace(int, float);
        }
        match check(&BASE.json(), &floaty).unwrap() {
            Verdict::Compared(r) => assert!(r.is_empty(), "{r:?}"),
            Verdict::Incomparable(why) => panic!("{why}"),
        }
    }

    #[test]
    fn parser_round_trips_the_committed_shape() {
        let v = parse(&BASE.json()).unwrap();
        assert_eq!(
            v.get("sweep")
                .and_then(|s| s.get("speedup"))
                .and_then(Value::as_f64),
            Some(1.3)
        );
        assert_eq!(
            v.get("resources")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(1)
        );
        // Non-ASCII text is read as UTF-8 (widening each byte `as char`
        // would give `Âµs`), and errors flatten to a `String`.
        let unit = parse("{\"unit\": \"µs ≈ 1\"}").unwrap();
        assert_eq!(unit.get("unit").and_then(Value::as_str), Some("µs ≈ 1"));
        assert!(parse("{\"unit\": ").unwrap_err().contains("byte"));
    }
}
