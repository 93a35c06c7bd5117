//! Tracing walkthrough: record a PDS run as a JSONL trace, then analyze it.
//!
//! A producer two hops from a consumer serves a chunked video item; the
//! consumer first discovers what exists (PDD), then retrieves the item
//! chunk by chunk (PDR). With a [`pds::obs::JsonlSink`] installed, every
//! kernel dispatch, radio frame, transport message and protocol round
//! lands in the trace file — in deterministic order, stamped with virtual
//! time — and the same analysis the `pds-obs` CLI runs offline works
//! in-process:
//!
//! 1. the summary `pds-obs summary` prints: an event census by kind and
//!    phase, the per-phase overhead table (whose bytes were PDD vs PDR),
//!    and CDFs of message delay, session delay, query-round gap,
//!    retransmissions per message and queue depth,
//! 2. the session table, each session reconstructed as a cross-node span,
//! 3. the causal critical-path decomposition of each session's delay
//!    (queueing / contention / airtime / retransmission / processing).
//!
//! Run with: `cargo run --example trace [-- <trace.jsonl>]`
//! The trace path defaults to `pds-trace.jsonl` in the temp directory;
//! inspect it afterwards with `pds-obs summary <trace.jsonl>`.

use bytes::Bytes;
use pds::core::{ChunkId, DataDescriptor, PdsConfig, PdsNode, QueryFilter};
use pds::obs::{read_trace_file, render_critical_path, render_sessions, render_summary, JsonlSink};
use pds::sim::{Position, SimConfig, SimTime, World};
use std::process::ExitCode;

fn main() -> ExitCode {
    let trace_path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("pds-trace.jsonl"));

    // -- 1. Record: the sink observes, it never feeds back -----------------
    let mut world = World::new(SimConfig::default(), 42);
    world.set_trace_sink(Box::new(
        JsonlSink::create(&trace_path).expect("create trace file"),
    ));

    // A producer holding a 4-chunk video and some sensor metadata…
    let chunk = |c: u32| Bytes::from(vec![c as u8; 8 * 1024]);
    let mut producer = PdsNode::new(PdsConfig::default(), 1)
        .with_chunk(video(4), ChunkId(0), chunk(0))
        .with_chunk(video(4), ChunkId(1), chunk(1))
        .with_chunk(video(4), ChunkId(2), chunk(2))
        .with_chunk(video(4), ChunkId(3), chunk(3));
    for i in 0..3 {
        producer = producer.with_metadata(reading(i), None);
    }
    world.add_node(Position::new(0.0, 0.0), Box::new(producer));
    // …a relay in the middle…
    world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    // …and a consumer two hops out.
    let consumer = world.add_node(
        Position::new(120.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 3)),
    );

    world.run_until(SimTime::from_secs_f64(0.5));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_discovery(ctx, QueryFilter::match_all());
    });
    world.schedule(SimTime::from_secs_f64(8.0), move |w| {
        w.with_app::<PdsNode, _>(consumer, |node, ctx| {
            node.start_retrieval(ctx, video(4));
        });
    });
    world.run_until(SimTime::from_secs_f64(30.0));
    // Flush the JSONL file; a trace cut short by an I/O error is no trace.
    let sink = world.take_trace_sink().expect("sink installed");
    let written = sink
        .as_any()
        .downcast_ref::<JsonlSink<std::io::BufWriter<std::fs::File>>>()
        .and_then(JsonlSink::error);
    if let Some(e) = written {
        eprintln!("trace {} is incomplete: {e}", trace_path.display());
        return ExitCode::FAILURE;
    }

    // -- 2. Read it back ---------------------------------------------------
    let events = read_trace_file(&trace_path).expect("parse trace");
    println!(
        "recorded {} events over {:.1} virtual seconds into {}\n",
        events.len(),
        events.last().map_or(0.0, |e| e.at_us as f64 / 1e6),
        trace_path.display()
    );

    // -- 3. The summary: what happened, whose bytes, how long --------------
    // Discovery traffic (metadata queries and replies) is tiny next to the
    // chunk transfer; the overhead table is the paper's overhead argument.
    print!("{}", render_summary(&events));

    // -- 4. Sessions, reconstructed across nodes ----------------------------
    // The consumer's query, the relay's forward and the producer's response
    // correlate back to one session id; `span_ms` is the emission span.
    println!("{}", render_sessions(&events));

    // -- 5. Where did the time go? The causal critical path ----------------
    // Every inter-event gap of a session is charged to queueing,
    // contention, airtime, retransmission or processing — the components
    // sum exactly to the session span.
    println!("{}", render_critical_path(&events));
    println!(
        "inspect the full trace with: pds-obs summary {}",
        trace_path.display()
    );
    ExitCode::SUCCESS
}

fn video(total: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("ns", "events")
        .attr("type", "video")
        .attr("name", "parade-clip")
        .attr("total_chunks", i64::from(total))
        .build()
}

fn reading(i: i64) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("ns", "env")
        .attr("type", "no2")
        .attr("seq", i)
        .build()
}
