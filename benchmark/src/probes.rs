//! Layer probes: workload-independent loops over single public functions
//! of each crate, in ns per operation. They say what a layer costs on its
//! own; the traced rep says how much of a workload that layer is.

use crate::report::{median, metric, Metric};
use crate::workloads::{entry_descriptor as descriptor, Size};
use bytes::Bytes;
use pds_bench::city::CityScenario;
use pds_bench::metrics::WallClock;
use pds_bloom::{BloomFilter, BloomParams};
use pds_core::{
    min_max_assign, Application, AssignStrategy, CdiTable, ChunkId, Context, DataStore, ItemName,
    LingeringQueryTable, MessageMeta, NodeId, PdsConfig, PdsEngine, PdsMessage, QueryFilter,
    QueryId, QueryKind, QueryMessage, ResponseId, ResponseKind, ResponseMessage,
};
use pds_mobility::{grid, presets, TraceStream};
use pds_obs::{FlightRecorder, JsonlSink, Phase, RingSink, TraceEvent, TraceKind, TraceSink};
use pds_sim::{SimConfig, SimDuration, SimRng, SimTime, TimerWheel, World};
use std::hint::black_box;

/// ns per operation: the median over `samples` samples, each of which
/// repeats `setup` (untimed) then `run` (timed, `ops` operations) until
/// `sample_time` of timed work has accumulated.
fn sampled<S, R>(
    samples: usize,
    sample_time: f64,
    ops: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> R,
) -> f64 {
    let samples: Vec<f64> = (0..samples)
        .map(|_| {
            let (mut timed, mut batches) = (0.0, 0u64);
            while timed < sample_time {
                let state = setup();
                let clock = WallClock::start();
                black_box(run(black_box(state)));
                timed += clock.elapsed_s();
                batches += 1;
            }
            timed * 1e9 / (batches * ops as u64) as f64
        })
        .collect();
    median(&samples)
}

fn probe<S, R>(
    sample_time: f64,
    ops: usize,
    setup: impl FnMut() -> S,
    run: impl FnMut(S) -> R,
) -> f64 {
    sampled(5, sample_time, ops, setup, run)
}

fn metadata_query(id: u64, round: u32, bloom: Option<Vec<u8>>) -> QueryMessage {
    QueryMessage {
        id: QueryId(id),
        kind: QueryKind::Metadata,
        sender: NodeId(1),
        expires_at: SimTime::from_secs_f64(20.0),
        filter: QueryFilter::match_all(),
        bloom,
        round,
        ttl_hops: 0,
    }
}

fn trace_event(i: u64) -> TraceEvent {
    TraceEvent {
        at_us: i,
        node: (i % 100) as u32,
        phase: Phase::Radio,
        kind: TraceKind::TxStart {
            tx: i,
            origin: i % 100,
            seq: i,
            bytes: 1466,
            class: 1,
        },
    }
}

/// The no-op engine of the bare-kernel probes: `pds_bench::city`'s
/// chatter, so the grid world differs from the city worlds only in layout,
/// size and radio configuration.
struct Chatter {
    phase: SimDuration,
}

impl Application for Chatter {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(self.phase, 0);
    }
    fn on_message(&mut self, _: &mut Context, _: MessageMeta, _: Bytes) {}
    fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
        ctx.broadcast(Bytes::from_static(&[0u8; 200]), &[]);
        ctx.set_timer(SimDuration::from_millis(250), 0);
    }
}

/// Host ns per kernel event over 2 simulated seconds of `build`'s world.
/// Three samples, not five: one run of a 10 000-node world takes seconds.
fn bare_kernel(sample_time: f64, mut build: impl FnMut() -> World) -> f64 {
    let mut events = 0;
    let ns_per_run = sampled(3, sample_time, 1, &mut build, |mut world| {
        world.run_until(SimTime::from_secs_f64(2.0));
        events = world.events_dispatched();
    });
    ns_per_run / events as f64
}

/// ns per `TraceSink::record` into a fresh sink of `new`'s kind.
fn record_ns<S: TraceSink>(sample_time: f64, new: impl FnMut() -> S) -> f64 {
    let events: Vec<TraceEvent> = (0..10_000).map(trace_event).collect();
    probe(sample_time, events.len(), new, |mut sink| {
        for ev in &events {
            sink.record(ev);
        }
        sink
    })
}

/// Runs every probe. At `Size::Smoke` the loops are a millisecond long and
/// the city worlds hold 500 nodes: enough to see every name, no more.
pub fn run(size: Size) -> Vec<Metric> {
    let sample_time = size.pick(0.1, 0.001);
    let city_n = size.pick(10_000, 500);
    let mut out = Vec::new();
    let mut ns = |name: &str, value: f64| out.push(metric(name, value, "ns"));

    // pds-bloom: a 5 000-item filter at fpp 0.01.
    let params = BloomParams::optimal(5_000, 0.01);
    ns(
        "bloom.insert_ns",
        probe(
            sample_time,
            5_000,
            || BloomFilter::new(params),
            |mut f| {
                for i in 0..5_000u32 {
                    f.insert(&i.to_le_bytes());
                }
                f
            },
        ),
    );
    let mut filled = BloomFilter::new(params);
    for i in 0..5_000u32 {
        filled.insert(&i.to_le_bytes());
    }
    ns(
        "bloom.contains_ns",
        probe(
            sample_time,
            10_000,
            || (),
            |()| {
                (0..10_000u32)
                    .filter(|i| filled.contains(&i.to_le_bytes()))
                    .count()
            },
        ),
    );
    ns(
        "bloom.encode_decode_ns",
        probe(
            sample_time,
            1,
            || (),
            |()| BloomFilter::decode(&filled.encode()).expect("round trip"),
        ),
    );

    // pds-core codec: a 1 000-entry metadata response.
    let response = PdsMessage::Response(ResponseMessage {
        id: ResponseId(1),
        sender: NodeId(0),
        kind: ResponseKind::Metadata {
            entries: (0..1_000).map(descriptor).collect(),
        },
    });
    ns(
        "core.encode_ns_per_entry",
        probe(sample_time, 1_000, || (), |()| response.encode()),
    );
    let encoded = response.encode();
    ns(
        "core.decode_ns_per_entry",
        probe(
            sample_time,
            1_000,
            || (),
            |()| PdsMessage::decode(&encoded).expect("decodes"),
        ),
    );

    let mut store = DataStore::new();
    for i in 0..5_000 {
        store.insert_own(descriptor(i), None);
    }
    ns(
        "core.store_match_ns_per_entry",
        probe(
            sample_time,
            5_000,
            || (),
            |()| {
                store
                    .match_metadata(&QueryFilter::match_all(), SimTime::ZERO)
                    .len()
            },
        ),
    );

    // LQT: 64 bloom-less metadata queries (each synthesizes its filter).
    let queries = || -> Vec<QueryMessage> { (0..64).map(|i| metadata_query(i, 0, None)).collect() };
    ns(
        "core.lqt_insert_ns",
        probe(
            sample_time,
            64,
            || (LingeringQueryTable::with_budget(512 * 1024), queries()),
            |(mut lqt, queries)| {
                for q in queries {
                    lqt.insert(q, NodeId(1));
                }
                lqt
            },
        ),
    );
    let mut lqt = LingeringQueryTable::new();
    for q in queries() {
        lqt.insert(q, NodeId(1));
    }
    ns(
        "core.lqt_match_ns",
        probe(
            sample_time,
            1,
            || (),
            |()| lqt.match_metadata(SimTime::ZERO).len(),
        ),
    );

    // CDI: an 80-chunk item seen through 8 neighbours, first sighting
    // then an update of every route.
    let item = ItemName::new("clip");
    ns(
        "core.cdi_observe_ns",
        probe(sample_time, 2 * 80 * 8, CdiTable::new, |mut cdi| {
            for pass in 0..2 {
                for c in 0..80 {
                    for n in 0..8 {
                        cdi.observe(
                            &item,
                            ChunkId(c),
                            NodeId(n),
                            1 + (c + n + pass) % 4,
                            SimTime::from_secs_f64(180.0),
                        );
                    }
                }
            }
            cdi
        }),
    );
    let wave: Vec<(ChunkId, Vec<(NodeId, u32)>)> = (0..80)
        .map(|i| {
            (
                ChunkId(i),
                (0..8).map(|n| (NodeId(n), 1 + (i * 7 + n) % 5)).collect(),
            )
        })
        .collect();
    ns(
        "core.assign_80x8_ns",
        probe(
            sample_time,
            1,
            || (),
            |()| min_max_assign(&wave, AssignStrategy::MinMax),
        ),
    );

    // The engine as a provider: round-2 metadata queries carrying a
    // 2 500-item Bloom filter against a 50-entry store.
    let engine = |id: u32| {
        let mut engine = PdsEngine::new(NodeId(id), PdsConfig::default(), 7);
        for i in 0..50 {
            engine.store_mut().insert_own(descriptor(i), None);
        }
        engine
    };
    let mut consumer_has = BloomFilter::with_round(BloomParams::optimal(2_500, 0.01), 1);
    for i in 1_000..3_500 {
        consumer_has.insert(descriptor(i).entry_key().as_bytes());
    }
    let bloom = consumer_has.encode();
    ns(
        "core.engine_query_ns",
        probe(
            sample_time,
            64,
            || {
                let queries: Vec<PdsMessage> = (0..64)
                    .map(|i| PdsMessage::Query(metadata_query(i, 1, Some(bloom.clone()))))
                    .collect();
                (engine(0), queries)
            },
            |(mut engine, queries)| {
                let mut sent = 0;
                for q in queries {
                    sent += engine
                        .handle_message(SimTime::ZERO, NodeId(1), true, q)
                        .len();
                }
                (engine, sent)
            },
        ),
    );
    // The engine as a relay holding one lingering query: 50-entry
    // responses of fresh entries pass through, Bloom rewriting on.
    ns(
        "core.engine_resp_relay_ns",
        probe(
            sample_time,
            64,
            || {
                let mut relay = engine(0);
                let query = PdsMessage::Query(metadata_query(1, 0, None));
                relay.handle_message(SimTime::ZERO, NodeId(1), true, query);
                let responses: Vec<PdsMessage> = (0..64)
                    .map(|r| {
                        PdsMessage::Response(ResponseMessage {
                            id: ResponseId(r),
                            sender: NodeId(2),
                            kind: ResponseKind::Metadata {
                                entries: (0..50)
                                    .map(|i| descriptor(10_000 + r as usize * 50 + i))
                                    .collect(),
                            },
                        })
                    })
                    .collect();
                (relay, responses)
            },
            |(mut relay, responses)| {
                let mut sent = 0;
                for r in responses {
                    sent += relay
                        .handle_message(SimTime::ZERO, NodeId(2), true, r)
                        .len();
                }
                (relay, sent)
            },
        ),
    );

    // pds-sim: the timer wheel under kernel-like churn, 4 096 pending.
    ns(
        "sim.wheel_churn_ns",
        probe(
            sample_time,
            20_000,
            || {
                let mut wheel = TimerWheel::new();
                for i in 0..4_096u64 {
                    wheel.push(SimTime::from_micros(i * 7), i);
                }
                (wheel, SimRng::new(9))
            },
            |(mut wheel, mut rng)| {
                for _ in 0..20_000 {
                    let (at, id) = wheel.pop_until(SimTime::MAX).expect("stays full");
                    wheel.push(at + SimDuration::from_micros(rng.range_u64(1, 2_000)), id);
                }
                wheel
            },
        ),
    );
    // The kernel alone, no engines: a 1 000-node grid under the paper's
    // radio configuration, and two of the 10 000-node city layouts.
    ns(
        "sim.bare_grid1k_ns_per_event",
        bare_kernel(sample_time, || {
            let mut world = World::new(SimConfig::paper_multi_hop(), 42);
            let mut rng = SimRng::new(42);
            for pos in grid::positions(25, 40, grid::SPACING_M) {
                let phase = SimDuration::from_micros(rng.range_u64(0, 250_000));
                world.add_node(pos, Box::new(Chatter { phase }));
            }
            world
        }),
    );
    ns(
        "sim.bare_corridor10k_ns_per_event",
        bare_kernel(sample_time, || {
            CityScenario::VehicularCorridor.build(city_n, 42)
        }),
    );
    ns(
        "sim.bare_relief10k_ns_per_event",
        bare_kernel(sample_time, || {
            CityScenario::DisasterRelief.build(city_n, 42)
        }),
    );

    // pds-obs: one record into each sink.
    ns(
        "obs.ring_record_ns",
        record_ns(sample_time, || RingSink::new(0)),
    );
    ns(
        "obs.flight_record_ns",
        record_ns(sample_time, FlightRecorder::default),
    );
    ns(
        "obs.jsonl_record_ns",
        record_ns(sample_time, || JsonlSink::new(std::io::sink())),
    );

    // pds-mobility: pulling a 2x Student Center hour from the stream.
    let mut pulled = 0;
    let per_stream = probe(
        sample_time,
        1,
        || {
            TraceStream::new(
                &presets::student_center(),
                SimDuration::from_secs(3_600),
                2.0,
                42,
            )
        },
        |stream| pulled = stream.count(),
    );
    ns("mobility.stream_ns_per_event", per_stream / pulled as f64);

    out
}
