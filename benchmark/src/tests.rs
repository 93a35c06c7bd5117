//! `cargo test` runs every workload at `Size::Smoke`. The layer tallies and
//! the heap high-water mark are process-wide, so each test holds `SERIAL`
//! while it runs: a test driving nodes on another thread would be booked
//! here.

use crate::probes;
use crate::report::{end_to_end, per_layer, quartiles, Metric};
use crate::timed::{peek, Bare, Slot, Traced};
use crate::workloads::{run_rep, Rep, Size, Workload};
use pds_core::{
    ChunkId, DataDescriptor, ItemName, NodeId, PdsMessage, QueryFilter, QueryId, QueryKind,
    QueryMessage, ResponseId, ResponseKind, ResponseMessage, SimTime,
};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock has nothing to leave
    // half-updated: the guard protects no data.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn smoke<M: crate::timed::Mode>(workload: Workload) -> Rep {
    run_rep::<M>(
        workload,
        Size::Smoke,
        11,
        &pds_bench::metrics::WallClock::start(),
    )
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn quartiles_match_pythons_statistics_module() {
    let _serial = serial();
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 3.0, 7.0));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
}

#[test]
fn header_peek_agrees_with_the_codec_on_every_kind() {
    let _serial = serial();
    let item = ItemName::new("clip");
    let descriptor = DataDescriptor::builder()
        .attr("name", "clip")
        .attr("total_chunks", 4i64)
        .build();
    let query = |kind: QueryKind| {
        PdsMessage::Query(QueryMessage {
            id: QueryId(7),
            kind,
            sender: NodeId(3),
            expires_at: SimTime::from_secs_f64(20.0),
            filter: QueryFilter::match_all(),
            bloom: None,
            round: 2,
            ttl_hops: 4,
        })
    };
    let response = |kind: ResponseKind| {
        PdsMessage::Response(ResponseMessage {
            id: ResponseId(9),
            sender: NodeId(3),
            kind,
        })
    };
    let cases = [
        (query(QueryKind::Metadata), Slot::QueryMeta),
        (query(QueryKind::SmallData), Slot::QueryMeta),
        (
            query(QueryKind::Cdi {
                descriptor: descriptor.clone(),
            }),
            Slot::QueryCdi,
        ),
        (
            query(QueryKind::Chunks {
                item: item.clone(),
                chunks: vec![ChunkId(0), ChunkId(2)],
            }),
            Slot::QueryChunks,
        ),
        (
            query(QueryKind::MdrChunks {
                item: item.clone(),
                total_chunks: 4,
            }),
            Slot::QueryChunks,
        ),
        (
            response(ResponseKind::Metadata {
                entries: vec![descriptor.clone()],
            }),
            Slot::RespMeta,
        ),
        (
            response(ResponseKind::SmallData {
                items: vec![(descriptor.clone(), bytes::Bytes::from_static(b"x"))],
            }),
            Slot::RespMeta,
        ),
        (
            response(ResponseKind::Cdi {
                item,
                pairs: vec![(ChunkId(1), 2)],
            }),
            Slot::RespCdi,
        ),
        (
            response(ResponseKind::Chunk {
                descriptor,
                chunk: ChunkId(1),
                data: bytes::Bytes::from_static(b"chunk"),
            }),
            Slot::RespChunk,
        ),
    ];
    for (message, slot) in cases {
        let wire = message.encode();
        assert_eq!(PdsMessage::decode(&wire).as_ref(), Ok(&message));
        assert_eq!(peek(&wire), slot, "{message:?}");
    }
    assert_eq!(peek(&[]), Slot::Unknown);
    assert_eq!(peek(&[9, 9, 9]), Slot::Unknown);
}

#[test]
fn timed_nodes_and_the_sink_only_observe() {
    let _serial = serial();
    for workload in Workload::ALL {
        let (bare, traced) = (smoke::<Bare>(workload), smoke::<Traced>(workload));
        assert_eq!(bare.worlds.len(), traced.worlds.len());
        for (b, t) in bare.worlds.iter().zip(&traced.worlds) {
            assert_eq!(b.stats, t.stats, "{workload:?} {}", b.label);
            assert_eq!(b.events, t.events, "{workload:?} {}", b.label);
            let reports = |w: &crate::workloads::WorldRun| -> Vec<_> {
                w.sessions
                    .iter()
                    .map(|s| {
                        (
                            s.kind, s.node, s.latency, s.finished, s.recall, s.items, s.rounds,
                        )
                    })
                    .collect()
            };
            assert_eq!(reports(b), reports(t), "{workload:?} {}", b.label);
            assert!(t.trace.as_ref().is_some_and(|t| t.events > 0));
            assert!(b.trace.is_none());
        }
        assert_eq!(bare.fingerprint(), traced.fingerprint());
        assert_eq!(bare.failed(workload), 0, "{workload:?}");
        assert_eq!(bare.corrupt_chunks(), 0, "{workload:?}");
    }
}

#[test]
fn layer_allocations_add_up_and_repeat() {
    let _serial = serial();
    for workload in Workload::ALL {
        let bare = smoke::<Bare>(workload);
        let (first, second) = (smoke::<Traced>(workload), smoke::<Traced>(workload));
        let layers = per_layer(&first, &bare);
        // `sim.allocs` is the traced total less the two timed layers, so
        // that the three add up says nothing. What does: a bare repetition
        // has no sink, so it allocates what the traced one books to core
        // and sim, less the handful of buffers events are handed over in
        // (0 to 2 here; `obs.allocs`, were it booked to sim, is 10 to 22).
        let allocs = |rep: &Rep| rep.worlds.iter().map(|w| w.allocs).sum::<u64>() as f64;
        let [core, sim, obs] =
            ["core.allocs", "sim.allocs", "obs.allocs"].map(|n| value(&layers, n));
        let emission = core + sim - allocs(&bare);
        assert!(
            (0.0..=4.0).contains(&emission),
            "{workload:?} core {core} sim {sim} bare {}",
            allocs(&bare)
        );
        assert!(core > 0.0 && sim > 0.0 && obs > 0.0, "{workload:?}");
        let again = per_layer(&second, &bare);
        for name in [
            "core.allocs",
            "sim.allocs",
            "obs.allocs",
            "core.calls",
            "obs.events",
        ] {
            assert_eq!(
                value(&layers, name),
                value(&again, name),
                "{workload:?} {name}"
            );
        }
    }
}

/// The `(name, unit)` pairs of one list of `BENCHMARK.json`.
fn declared(json: &pds_bench::baseline::Value, list: &str) -> BTreeSet<(String, String)> {
    json.get(list)
        .and_then(|l| l.as_arr())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
            (
                field("name").expect("a name"),
                field("unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn emitted(metrics: &[Metric]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_what_is_emitted_and_nothing_else() {
    let _serial = serial();
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the root of the repository");
    let json = pds_bench::baseline::parse(&text).expect("BENCHMARK.json parses");

    let workloads: BTreeSet<String> = declared(&json, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    let probes = probes::run(Size::Smoke);
    for workload in Workload::ALL {
        let bare = smoke::<Bare>(workload);
        assert_eq!(
            emitted(&end_to_end(std::slice::from_ref(&bare))),
            declared(&json, "end_to_end"),
            "{workload:?}"
        );
        let mut layers = per_layer(&smoke::<Traced>(workload), &bare);
        layers.extend(probes.iter().cloned());
        assert_eq!(
            emitted(&layers),
            declared(&json, "per_layer"),
            "{workload:?}"
        );
        assert_eq!(emitted(&layers).len(), layers.len(), "a name is used twice");
    }

    for list in ["workloads", "end_to_end", "per_layer"] {
        for (name, unit) in declared(&json, list) {
            let plain = |s: &str, extra: &str| {
                s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
            };
            assert!(
                !name.is_empty() && name.len() <= 64 && plain(&name, "_.-"),
                "{name}"
            );
            assert!(unit.len() <= 16 && plain(&unit, "_/%.-"), "{unit}");
        }
    }
}
