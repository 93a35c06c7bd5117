//! Property and cross-process tests of the deterministic collections'
//! replay-stability contract (DESIGN.md §8).

use pds_det::{DetMap, DetSet};
use proptest::prelude::*;

/// FNV-1a over an iteration order: two equal digests mean the sequences
/// were element-for-element identical.
fn order_digest(order: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (k, v) in order {
        fold(k);
        fold(v);
    }
    h
}

proptest! {
    /// Same insert/remove history ⇒ identical iteration order, every time.
    #[test]
    fn same_history_same_iteration_order(
        keys in proptest::collection::vec(any::<u64>(), 0..128),
        removes in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        let build = || {
            let mut m: DetMap<u64, u64> = DetMap::default();
            for &k in &keys {
                m.insert(k, k.wrapping_mul(3));
            }
            for r in &removes {
                m.remove(&(r % 257));
            }
            m
        };
        let a = build();
        let b = build();
        let oa: Vec<(u64, u64)> = a.iter().map(|(&k, &v)| (k, v)).collect();
        let ob: Vec<(u64, u64)> = b.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(oa, ob);
    }

    /// Set iteration is equally history-determined.
    #[test]
    fn set_iteration_is_history_determined(
        items in proptest::collection::vec(any::<u64>(), 0..128),
    ) {
        let build = || {
            let mut s: DetSet<u64> = DetSet::default();
            s.extend(items.iter().copied());
            s
        };
        let a: Vec<u64> = build().iter().copied().collect();
        let b: Vec<u64> = build().iter().copied().collect();
        prop_assert_eq!(a, b);
    }
}

/// The cross-process half of the contract: a fresh OS process (fresh ASLR,
/// fresh would-be `RandomState` entropy) iterates a `DetMap` in exactly
/// the same order. The test re-executes its own binary twice, has each
/// child build the same map and print an order digest, and compares.
/// A std `HashMap` in place of `DetMap` fails this test.
#[test]
fn iteration_order_identical_across_processes() {
    const CHILD_ENV: &str = "PDS_DET_ORDER_CHILD";
    let digest = || {
        let mut m: DetMap<u64, u64> = DetMap::default();
        for i in 0..2048u64 {
            m.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i);
        }
        for i in 0..512u64 {
            m.remove(&(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        }
        order_digest(m.iter().map(|(&k, &v)| (k, v)))
    };
    if std::env::var(CHILD_ENV).is_ok() {
        // Child mode: report the digest through stdout and stop.
        println!("det-order-digest={:016x}", digest());
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "iteration_order_identical_across_processes",
                "--nocapture",
            ])
            .env(CHILD_ENV, "1")
            .output()
            .expect("re-exec test binary");
        assert!(out.status.success(), "child test run failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        // libtest may glue the child's print onto its own "test ..." line,
        // so match by substring rather than line prefix.
        let hex = stdout
            .split("det-order-digest=")
            .nth(1)
            .map(|rest| rest.chars().take(16).collect::<String>())
            .unwrap_or_else(|| panic!("no digest line in child output:\n{stdout}"));
        u64::from_str_radix(&hex, 16).expect("hex digest")
    };
    let first = spawn();
    let second = spawn();
    assert_eq!(first, second, "iteration order differed between processes");
    assert_eq!(first, digest(), "parent order differs from children");
}
