//! End-to-end observability contract (ISSUE 3, DESIGN.md §9): traces from a
//! real PDS scenario are deterministic (same seed → byte-identical event
//! stream, no divergence), discriminating (different seeds → a first
//! diverging event with virtual time, node and kind), non-perturbing
//! (identical `Stats` with tracing on and off), and round-trippable
//! through the JSONL schema the `pds-obs` CLI reads.

use bytes::Bytes;
use pds_core::{DataDescriptor, PdsConfig, PdsNode, QueryFilter};
use pds_obs::{
    critical_path, first_divergence, phase_overhead, read_trace_file, render_divergence,
    render_summary, sessions, DelayComponent, FlightRecorder, JsonlSink, Phase, RingSink,
    TraceEvent, TraceKind, TraceSink,
};
use pds_sim::{Position, SimConfig, SimTime, Stats, World};

fn entry(n: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "no2")
        .attr("seq", i64::from(n))
        .build()
}

fn video(total: u32) -> DataDescriptor {
    DataDescriptor::builder()
        .attr("type", "video")
        .attr("name", "clip")
        .attr("total_chunks", i64::from(total))
        .build()
}

/// Discovery plus a two-hop PDR retrieval: exercises PDD, PDR, transport
/// and radio trace events in one run.
fn run(seed: u64, sink: Option<Box<dyn TraceSink>>) -> (World, Stats) {
    let mut world = World::new(SimConfig::default(), seed);
    if let Some(sink) = sink {
        world.set_trace_sink(sink);
    }
    let chunk = |c: u32| Bytes::from(vec![c as u8; 4 * 1024]);
    let mut provider = PdsNode::new(PdsConfig::default(), 1)
        .with_chunk(video(3), pds_core::ChunkId(0), chunk(0))
        .with_chunk(video(3), pds_core::ChunkId(1), chunk(1))
        .with_chunk(video(3), pds_core::ChunkId(2), chunk(2));
    for k in 0..4u32 {
        provider = provider.with_metadata(entry(k), None);
    }
    world.add_node(Position::new(0.0, 0.0), Box::new(provider));
    world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2).with_metadata(entry(10), None)),
    );
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
            node.start_retrieval(ctx, video(3));
        });
    });
    world.run_until(SimTime::from_secs_f64(30.0));
    let stats = world.stats().clone();
    (world, stats)
}

fn traced_events(seed: u64) -> Vec<TraceEvent> {
    let (mut world, _) = run(seed, Some(Box::new(RingSink::new(0))));
    let sink = world.take_trace_sink().expect("sink installed");
    sink.as_any()
        .downcast_ref::<RingSink>()
        .expect("ring sink")
        .events()
}

#[test]
fn same_seed_traces_have_no_divergence() {
    let a = traced_events(42);
    let b = traced_events(42);
    assert!(!a.is_empty(), "scenario must emit trace events");
    assert!(
        first_divergence(&a, &b).is_none(),
        "same seed must replay to an identical trace"
    );
}

#[test]
fn different_seed_traces_report_first_divergence() {
    let a = traced_events(42);
    let b = traced_events(43);
    let d = first_divergence(&a, &b).expect("different seeds must diverge");
    let rendered = render_divergence(&a, &b, &d, 3);
    // The report names the first diverging event: virtual time, node, kind.
    let ev = d.left.as_ref().or(d.right.as_ref()).expect("one side set");
    assert!(
        rendered.contains(&format!("{}", ev.at_us)),
        "report must show the virtual time: {rendered}"
    );
    assert!(
        rendered.contains(&format!("{:?}", ev.kind)),
        "report must show the event kind: {rendered}"
    );
    assert!(
        rendered.contains(&format!("n{}", ev.node)),
        "report must show the node: {rendered}"
    );
}

#[test]
fn tracing_does_not_perturb_stats() {
    let (_, traced) = run(42, Some(Box::new(RingSink::new(0))));
    let (_, untraced) = run(42, None);
    assert_eq!(traced, untraced, "tracing must be observation-only");
}

#[test]
fn jsonl_file_round_trips_the_ring_trace() {
    let ring = traced_events(42);
    let path = std::env::temp_dir().join(format!("pds-obs-rt-{}.jsonl", std::process::id()));
    let (mut world, _) = run(
        42,
        Some(Box::new(
            JsonlSink::create(&path).expect("create trace file"),
        )),
    );
    drop(world.take_trace_sink()); // flushes
    let from_file = read_trace_file(&path).expect("parse trace file");
    std::fs::remove_file(&path).ok();
    assert_eq!(from_file, ring, "JSONL round trip must be lossless");
}

/// ISSUE 8 acceptance: the critical-path analysis decomposes each
/// session's end-to-end delay into the five named components, and the
/// components sum *exactly* (not just within rounding) to the session
/// delay — every inter-event gap is attributed to exactly one component.
#[test]
fn critical_path_components_sum_to_session_delay() {
    let events = traced_events(42);
    let spans = sessions(&events);
    assert!(!spans.is_empty(), "scenario must yield sessions");
    assert!(
        DelayComponent::ALL.len() >= 4,
        "decomposition must name at least four components"
    );
    let mut finished = 0;
    for span in &spans {
        if span.finish_us.is_none() {
            continue;
        }
        finished += 1;
        let breakdown = critical_path(span);
        assert_eq!(
            breakdown.total_us(),
            span.span_us(),
            "components must sum to the end-to-end delay of n{}#{} ({:?})",
            span.node,
            span.session,
            span.phase
        );
    }
    assert!(finished > 0, "at least one session must finish");

    // The PDR retrieval session specifically: a two-hop chunk fetch has
    // real airtime and processing, so the decomposition is non-trivial.
    let pdr = spans
        .iter()
        .find(|s| s.phase == Phase::Pdr && s.finish_us.is_some())
        .expect("the retrieval session must finish");
    let breakdown = critical_path(pdr);
    assert!(pdr.span_us() > 0, "retrieval cannot be instantaneous");
    let nonzero = DelayComponent::ALL
        .iter()
        .filter(|c| breakdown.get(**c) > 0)
        .count();
    assert!(
        nonzero >= 2,
        "retrieval delay must split across components: {breakdown:?}"
    );
}

/// The always-on flight recorder is a bounded tail of the same stream
/// the unbounded ring sees: with capacity above the scenario's per-node
/// event count, the dump reproduces the full trace in emission order,
/// and recording does not perturb the simulation.
#[test]
fn flight_recorder_dump_matches_full_trace() {
    let ring = traced_events(42);
    let (mut world, stats) = run(42, Some(Box::new(FlightRecorder::new(1 << 20))));
    let sink = world.take_trace_sink().expect("sink installed");
    let recorder = sink
        .as_any()
        .downcast_ref::<FlightRecorder>()
        .expect("flight recorder");
    assert_eq!(recorder.dropped(), 0, "capacity must cover the scenario");
    assert_eq!(
        recorder.dump(),
        ring,
        "flight dump must reproduce the trace in emission order"
    );
    let (_, untraced) = run(42, None);
    assert_eq!(stats, untraced, "flight recording must be observation-only");
}

#[test]
fn protocol_phases_appear_in_the_trace() {
    let events = traced_events(42);
    let overhead = phase_overhead(&events);
    assert!(
        overhead.get(&Phase::Pdd).is_some_and(|o| o.bytes > 0),
        "discovery traffic must be attributed to PDD: {overhead:?}"
    );
    assert!(
        overhead.get(&Phase::Pdr).is_some_and(|o| o.bytes > 0),
        "chunk traffic must be attributed to PDR: {overhead:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::SessionFinished { .. })),
        "consumer sessions must emit SessionFinished"
    );
}

/// `summary` on a real discovery + retrieval run prints all five
/// distributions it derives, each with samples: message delay, session
/// delay, query-round gap, retransmits per message and queue depth.
#[test]
fn summary_prints_every_distribution_with_samples() {
    let summary = render_summary(&traced_events(42));
    for title in [
        "message delay CDF",
        "pdd session delay CDF",
        "pdr session delay CDF",
        "query-round gap CDF",
        "retransmits per message CDF",
        "queue depth CDF",
    ] {
        let block = format!("{title} (n=");
        assert!(summary.contains(&block), "missing {title:?}:\n{summary}");
        assert!(!summary.contains(&format!("{block}0)")), "{title} is empty");
    }
}

/// Session correlation across concurrent consumer sessions: a discovery,
/// a PDR retrieval started while the discovery is still live, and then an
/// MDR retrieval of a second item. Ids count up per node from 1 in start
/// order, each with its start's phase; every query a session sends names
/// that session while it is live; and each id finishes exactly once.
#[test]
fn concurrent_sessions_correlate_their_queries_and_finish_once() {
    let reel = |total: u32| {
        DataDescriptor::builder()
            .attr("type", "video")
            .attr("name", "reel")
            .attr("total_chunks", i64::from(total))
            .build()
    };
    let mut world = World::new(SimConfig::default(), 42);
    world.set_trace_sink(Box::new(RingSink::new(0)));
    let chunk = |c: u32| Bytes::from(vec![c as u8; 4 * 1024]);
    let mut provider = PdsNode::new(PdsConfig::default(), 1);
    for c in 0..3u32 {
        provider = provider
            .with_chunk(video(3), pds_core::ChunkId(c), chunk(c))
            .with_chunk(reel(3), pds_core::ChunkId(c), chunk(c));
    }
    for k in 0..4u32 {
        provider = provider.with_metadata(entry(k), None);
    }
    world.add_node(Position::new(0.0, 0.0), Box::new(provider));
    world.add_node(
        Position::new(60.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 2)),
    );
    let consumer = world.add_node(
        Position::new(120.0, 0.0),
        Box::new(PdsNode::new(PdsConfig::default(), 3)),
    );
    world.run_until(SimTime::from_secs_f64(0.5));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        node.start_discovery(ctx, QueryFilter::match_all());
    });
    world.run_until(SimTime::from_secs_f64(0.6));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        assert!(
            node.discovery_report()
                .is_some_and(|r| r.finished_at.is_none()),
            "the discovery must still be live when the retrieval starts"
        );
        node.start_retrieval(ctx, video(3));
    });
    world.run_until(SimTime::from_secs_f64(30.0));
    world.with_app::<PdsNode, _>(consumer, |node, ctx| {
        assert!(
            node.retrieval_report()
                .is_some_and(|r| r.finished_at.is_some()),
            "the PDR retrieval must finish before the MDR one starts"
        );
        node.start_mdr_retrieval(ctx, reel(3));
    });
    world.run_until(SimTime::from_secs_f64(120.0));
    let sink = world.take_trace_sink().expect("sink installed");
    let events = sink
        .as_any()
        .downcast_ref::<RingSink>()
        .expect("ring sink")
        .events();

    let me = consumer.0;
    let mut started: Vec<(u64, Phase)> = Vec::new();
    let mut live: Vec<(u64, Phase)> = Vec::new();
    let mut finished: Vec<(u64, Phase)> = Vec::new();
    for e in &events {
        match e.kind {
            TraceKind::SessionStarted { session } => {
                assert_eq!(e.node, me, "only the consumer runs sessions");
                started.push((session, e.phase));
                live.push((session, e.phase));
            }
            TraceKind::SessionFinished { session, .. } => {
                assert_eq!(e.node, me, "only the consumer runs sessions");
                finished.push((session, e.phase));
                live.retain(|&(s, _)| s != session);
            }
            TraceKind::QuerySent { session, .. } if session != 0 => {
                assert_eq!(
                    e.node, me,
                    "only the consumer's own queries carry a session"
                );
                assert!(
                    live.contains(&(session, e.phase)),
                    "{e} names no live {:?} session (live: {live:?})",
                    e.phase
                );
            }
            _ => {}
        }
    }
    assert_eq!(
        started,
        [(1, Phase::Pdd), (2, Phase::Pdr), (3, Phase::Mdr)],
        "session ids count up from 1 in start order"
    );
    let mut by_id = finished.clone();
    by_id.sort_unstable_by_key(|&(s, _)| s);
    assert_eq!(
        by_id, started,
        "each session finishes once, in its phase: {finished:?}"
    );
    for phase in [Phase::Pdd, Phase::Pdr, Phase::Mdr] {
        assert!(
            events.iter().any(|e| e.phase == phase
                && matches!(e.kind, TraceKind::QuerySent { session, .. } if session != 0)),
            "the {phase:?} session must send a correlated query"
        );
    }
}
