//! Micro-benchmarks of the hot data structures: Bloom filters, descriptor
//! codecs, predicate matching, the GAP heuristic and the event kernel.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pds_bloom::{BloomFilter, BloomParams};
use pds_core::{
    min_max_assign, AssignStrategy, AttrValue, ChunkId, DataDescriptor, NodeId, PdsMessage,
    Predicate, QueryFilter, Relation, ResponseId, ResponseKind, ResponseMessage,
};
use std::hint::black_box;

fn descriptor(i: usize) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("ns", "e")
        .attr("type", "no2")
        .attr("time", AttrValue::Time(1_480_000_000 + i as i64))
        .build()
}

fn bloom_benches(c: &mut Criterion) {
    let params = BloomParams::optimal(5_000, 0.01);
    c.bench_function("bloom/insert_5k", |b| {
        b.iter_batched(
            || BloomFilter::new(params),
            |mut f| {
                for i in 0..5_000u32 {
                    f.insert(&i.to_le_bytes());
                }
                f
            },
            BatchSize::SmallInput,
        );
    });
    let mut filled = BloomFilter::new(params);
    for i in 0..5_000u32 {
        filled.insert(&i.to_le_bytes());
    }
    c.bench_function("bloom/contains", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(filled.contains(&i.to_le_bytes()))
        });
    });
    c.bench_function("bloom/encode_decode", |b| {
        b.iter(|| {
            let bytes = filled.encode();
            black_box(BloomFilter::decode(&bytes).expect("roundtrip"))
        });
    });
}

fn codec_benches(c: &mut Criterion) {
    let entries: Vec<DataDescriptor> = (0..1_000).map(descriptor).collect();
    let response = PdsMessage::Response(ResponseMessage {
        id: ResponseId(1),
        sender: NodeId(0),
        kind: ResponseKind::Metadata { entries },
    });
    c.bench_function("codec/encode_1k_entries", |b| {
        b.iter(|| black_box(response.encode()));
    });
    let bytes = response.encode();
    c.bench_function("codec/decode_1k_entries", |b| {
        b.iter(|| black_box(PdsMessage::decode(&bytes).expect("decodes")));
    });
    // The PDR unit of transfer: one 256 KiB chunk, written once per
    // transmission and viewed, not copied, on reception.
    let chunk = PdsMessage::Response(ResponseMessage {
        id: ResponseId(2),
        sender: NodeId(0),
        kind: ResponseKind::Chunk {
            descriptor: descriptor(0),
            chunk: ChunkId(0),
            data: Bytes::from(vec![7u8; 256 * 1024]),
        },
    });
    c.bench_function("codec/chunk_256k_encode", |b| {
        b.iter(|| black_box(chunk.encode()));
    });
    let bytes = chunk.encode();
    c.bench_function("codec/chunk_256k_decode", |b| {
        b.iter(|| black_box(PdsMessage::decode(&bytes).expect("decodes")));
    });
}

fn predicate_benches(c: &mut Criterion) {
    let filter = QueryFilter::new(vec![
        Predicate::new("type", Relation::Eq, "no2"),
        Predicate::range(
            "time",
            AttrValue::Time(1_480_000_000),
            AttrValue::Time(1_480_010_000),
        ),
    ]);
    let entries: Vec<DataDescriptor> = (0..1_000).map(descriptor).collect();
    c.bench_function("predicate/match_1k", |b| {
        b.iter(|| {
            let n = entries.iter().filter(|d| filter.matches(d)).count();
            black_box(n)
        });
    });
}

fn assign_benches(c: &mut Criterion) {
    // The paper's regime: |N| and |C| ~ 10 per query.
    let chunks: Vec<(ChunkId, Vec<(NodeId, u32)>)> = (0..10)
        .map(|i| {
            (
                ChunkId(i),
                (0..10).map(|n| (NodeId(n), 1 + (i + n) % 4)).collect(),
            )
        })
        .collect();
    c.bench_function("assign/minmax_10x10", |b| {
        b.iter(|| black_box(min_max_assign(&chunks, AssignStrategy::MinMax)));
    });
    // A large wave: 80 chunks, 8 neighbors (a 20 MB item).
    let big: Vec<(ChunkId, Vec<(NodeId, u32)>)> = (0..80)
        .map(|i| {
            (
                ChunkId(i),
                (0..8).map(|n| (NodeId(n), 1 + (i * 7 + n) % 5)).collect(),
            )
        })
        .collect();
    c.bench_function("assign/minmax_80x8", |b| {
        b.iter(|| black_box(min_max_assign(&big, AssignStrategy::MinMax)));
    });
}

fn kernel_benches(c: &mut Criterion) {
    use bytes::Bytes;
    use pds_sim::{Application, Context, MessageMeta, Position, SimConfig, SimTime, World};
    struct Chatter;
    impl Application for Chatter {
        fn on_start(&mut self, ctx: &mut Context) {
            ctx.set_timer(pds_sim::SimDuration::from_millis(10), 0);
        }
        fn on_message(&mut self, _: &mut Context, _: MessageMeta, _: Bytes) {}
        fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
            ctx.broadcast(Bytes::from_static(&[0u8; 200]), &[]);
            ctx.set_timer(pds_sim::SimDuration::from_millis(10), 0);
        }
    }
    c.bench_function("kernel/25_nodes_1s_chatter", |b| {
        b.iter(|| {
            let mut w = World::new(SimConfig::default(), 1);
            for i in 0..25 {
                let x = f64::from(i % 5) * 50.0;
                let y = f64::from(i / 5) * 50.0;
                w.add_node(Position::new(x, y), Box::new(Chatter));
            }
            w.run_until(SimTime::from_secs_f64(1.0));
            black_box(w.stats().frames_sent)
        });
    });
    // The spatial grid under load: the same dense chatter at 200 nodes.
    c.bench_function("kernel/200_nodes_grid", |b| {
        b.iter(|| {
            let mut w = World::new(SimConfig::default(), 1);
            for i in 0..200 {
                let x = f64::from(i % 15) * 50.0;
                let y = f64::from(i / 15) * 50.0;
                w.add_node(Position::new(x, y), Box::new(Chatter));
            }
            w.run_until(SimTime::from_secs_f64(0.5));
            black_box(w.stats().frames_sent)
        });
    });
}

fn scheduler_benches(c: &mut Criterion) {
    use pds_sim::{SimRng, SimTime, TimerWheel};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Kernel-like churn: hold ~PENDING timers in flight, and for STEPS
    // steps pop the earliest deadline and push a successor a short random
    // delay later — the steady-state pattern of MAC retries, app timers
    // and transmission ends. The same seeded offset stream drives both
    // structures so the comparison is apples-to-apples.
    const PENDING: usize = 4096;
    const STEPS: usize = 20_000;

    c.bench_function("scheduler/wheel_churn_4k", |b| {
        b.iter_batched(
            || {
                let mut wheel = TimerWheel::new();
                for i in 0..PENDING as u64 {
                    wheel.push(SimTime::from_micros(i * 7), i);
                }
                (wheel, SimRng::new(9))
            },
            |(mut wheel, mut rng)| {
                for _ in 0..STEPS {
                    let (at, id) = wheel.pop_until(SimTime::MAX).expect("queue stays full");
                    wheel.push(
                        at + pds_sim::SimDuration::from_micros(rng.range_u64(1, 2_000)),
                        id,
                    );
                }
                black_box(wheel.len())
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("scheduler/heap_churn_4k", |b| {
        b.iter_batched(
            || {
                let mut heap = BinaryHeap::new();
                for i in 0..PENDING as u64 {
                    heap.push(Reverse((i * 7, i)));
                }
                (heap, SimRng::new(9))
            },
            |(mut heap, mut rng)| {
                for _ in 0..STEPS {
                    let Reverse((at, id)) = heap.pop().expect("queue stays full");
                    heap.push(Reverse((at + rng.range_u64(1, 2_000), id)));
                }
                black_box(heap.len())
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bloom_benches, codec_benches, predicate_benches, assign_benches, kernel_benches, scheduler_benches
);
criterion_main!(benches);
