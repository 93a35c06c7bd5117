//! The replay-digest gate (DESIGN.md §8): one scenario, run repeatedly —
//! with eager and with lazy grid re-bucketing, traced and untraced, with
//! and without a fault plan — must produce identical event stream digests.

use bytes::Bytes;
use pds_sim::{
    Application, Context, FaultPlan, MessageMeta, NodeId, PartitionWindow, Position, SilenceWindow,
    SimConfig, SimDuration, SimTime, Stats, World,
};

/// The digest of the standard scenario below, captured before the DST fault
/// hook existed. The fault layer's zero-cost contract: a build that carries
/// the hook but installs no plan must still produce exactly this stream.
/// Any intentional kernel event-stream change must update this constant
/// (and say so in the commit).
const PINNED_FAULTLESS_DIGEST: u64 = 0xb231_38e1_74af_7c23;

/// Counts everything it hears.
struct Sink {
    received: usize,
}

impl Application for Sink {
    fn on_start(&mut self, _ctx: &mut Context) {}
    fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: Bytes) {
        self.received += 1;
    }
}

/// Broadcasts `count` messages of `size` bytes, one per 50 ms tick.
struct Blaster {
    count: u32,
    size: usize,
    intended: Vec<NodeId>,
}

impl Application for Blaster {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }
    fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: Bytes) {}
    fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
        if self.count == 0 {
            return;
        }
        self.count -= 1;
        ctx.broadcast(Bytes::from(vec![0u8; self.size]), &self.intended);
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }
}

/// A lossy, mobile, churning scenario exercising every event kind: app
/// timers, MAC attempts and defers, transmissions, bucket drains, control
/// closures and sweeps.
fn run(rebucket_ms: u64, seed: u64) -> (u64, u64) {
    run_traced(rebucket_ms, seed, false)
}

fn run_traced(rebucket_ms: u64, seed: u64, traced: bool) -> (u64, u64) {
    let (digest, stats) = run_plan(rebucket_ms, seed, traced, None);
    (digest, stats.frames_delivered)
}

/// With `PDS_TRACE_DIR` set, a JSONL sink writing one uniquely named trace
/// file per run into that directory; `None` otherwise.
fn jsonl_sink_from_env(rebucket_ms: u64, seed: u64) -> Option<Box<dyn pds_sim::TraceSink>> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static RUN: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::var_os("PDS_TRACE_DIR")?;
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let path = std::path::Path::new(&dir).join(format!(
        "replay-rebucket{rebucket_ms}-seed{seed}-run{run}.jsonl"
    ));
    match pds_sim::obs::JsonlSink::create(&path) {
        Ok(sink) => Some(Box::new(sink)),
        Err(e) => {
            eprintln!("PDS_TRACE_DIR: cannot create {}: {e}", path.display());
            None
        }
    }
}

fn run_plan(rebucket_ms: u64, seed: u64, traced: bool, plan: Option<FaultPlan>) -> (u64, Stats) {
    let sink: Option<Box<dyn pds_sim::TraceSink>> = if traced {
        Some(Box::new(pds_sim::obs::RingSink::new(0)))
    } else {
        // CI failure forensics: PDS_TRACE_DIR=<dir> dumps every run's full
        // event stream as JSONL so `pds-obs diff` can explain a digest
        // mismatch offline.
        jsonl_sink_from_env(rebucket_ms, seed)
    };
    let (digest, stats, sink) = run_sinked(rebucket_ms, seed, sink, plan);
    let jsonl = sink.as_deref().and_then(|s| {
        s.as_any()
            .downcast_ref::<pds_sim::obs::JsonlSink<std::io::BufWriter<std::fs::File>>>()
    });
    if let Some(e) = jsonl.and_then(pds_sim::obs::JsonlSink::error) {
        eprintln!(
            "PDS_TRACE_DIR: trace of rebucket {rebucket_ms} ms, seed {seed} is incomplete: {e}"
        );
    }
    (digest, stats)
}

fn run_sinked(
    rebucket_ms: u64,
    seed: u64,
    sink: Option<Box<dyn pds_sim::TraceSink>>,
    plan: Option<FaultPlan>,
) -> (u64, Stats, Option<Box<dyn pds_sim::TraceSink>>) {
    let mut c = SimConfig::default();
    c.radio.baseline_loss = 0.1;
    c.spatial.rebucket_interval = SimDuration::from_millis(rebucket_ms);
    let mut w = World::new(c, seed);
    if let Some(plan) = plan {
        w.install_faults(plan);
    }
    if let Some(sink) = sink {
        w.set_trace_sink(sink);
    }
    w.add_node(
        Position::new(0.0, 0.0),
        Box::new(Blaster {
            count: 40,
            size: 1200,
            intended: vec![NodeId(1)],
        }),
    );
    let b = w.add_node(Position::new(30.0, 0.0), Box::new(Sink { received: 0 }));
    w.add_node(
        Position::new(60.0, 30.0),
        Box::new(Blaster {
            count: 40,
            size: 900,
            intended: vec![],
        }),
    );
    let far = w.add_node(Position::new(400.0, 0.0), Box::new(Sink { received: 0 }));
    // A walker crossing the chatter, plus churn mid-run.
    w.move_node(far, Position::new(0.0, 0.0), 40.0);
    w.schedule(SimTime::from_secs_f64(2.0), move |w| w.remove_node(b));
    w.schedule(SimTime::from_secs_f64(3.0), |w| {
        w.add_node(Position::new(20.0, 20.0), Box::new(Sink { received: 0 }));
    });
    w.run_until(SimTime::from_secs_f64(8.0));
    let sink = w.take_trace_sink();
    (w.replay_digest(), w.stats().clone(), sink)
}

/// A plan exercising every wire-level fault class against the standard
/// scenario: extra drops, duplicated and delayed (reordered) deliveries, a
/// healing partition and a byzantine-silent window.
fn adversarial_plan(seed: u64) -> FaultPlan {
    let mut p = FaultPlan::none(seed);
    p.drop_prob = 0.05;
    p.dup_prob = 0.04;
    p.delay_prob = 0.04;
    p.delay_max = SimDuration::from_millis(80);
    p.partitions.push(PartitionWindow {
        from: SimTime::from_secs_f64(2.5),
        until: SimTime::from_secs_f64(4.0),
        boundary: 2,
    });
    p.silences.push(SilenceWindow {
        node: 2,
        from: SimTime::from_secs_f64(5.0),
        until: SimTime::from_secs_f64(6.0),
    });
    p
}

#[test]
fn replay_digest_is_stable_across_runs_and_rebucket_intervals() {
    let (eager, delivered) = run(0, 42);
    assert!(delivered > 0, "scenario must actually exchange traffic");
    // A rerun, and a run with lazy re-bucketing (stale buckets, padded
    // queries), must agree bit-for-bit.
    assert_eq!(run(0, 42).0, eager);
    assert_eq!(run(500, 42).0, eager);
}

#[test]
fn replay_digest_unchanged_by_tracing() {
    // Installing a trace sink is observation, not simulation: the dispatched
    // event stream (and therefore the digest) must be bit-identical with
    // tracing on and off.
    let (off, delivered) = run_traced(0, 42, false);
    let (on, delivered_on) = run_traced(0, 42, true);
    assert!(delivered > 0, "scenario must actually exchange traffic");
    assert_eq!(on, off, "trace sink must not perturb the event stream");
    assert_eq!(delivered_on, delivered);
}

#[test]
fn replay_digest_unchanged_by_flight_recorder() {
    // The always-on black box is observation too: a bounded
    // `FlightRecorder` (small rings, steady-state overwrites in play)
    // must leave the dispatched stream bit-identical — same digest pin,
    // same stats — as no sink at all.
    let (off, off_stats, _) = run_sinked(0, 42, None, None);
    let (on, on_stats, sink) = run_sinked(
        0,
        42,
        Some(Box::new(pds_sim::obs::FlightRecorder::new(256))),
        None,
    );
    assert_eq!(on, off, "flight recorder must not perturb the event stream");
    assert_eq!(on_stats, off_stats);
    assert_eq!(on, PINNED_FAULTLESS_DIGEST);
    let sink = sink.expect("recorder still installed");
    let recorder = sink
        .as_any()
        .downcast_ref::<pds_sim::obs::FlightRecorder>()
        .expect("flight recorder");
    assert!(recorder.recorded() > 0, "black box recorded nothing");
    // When CI is capturing digest forensics, park the flight dump next to
    // the JSONL traces so the black box rides the same artifact.
    if let Some(dir) = std::env::var_os("PDS_TRACE_DIR") {
        let path = std::path::Path::new(&dir).join("flight-grid-seed42.trace.jsonl");
        recorder.dump_to_file(&path).expect("write flight dump");
    }
}

#[test]
fn replay_digest_distinguishes_seeds() {
    assert_ne!(
        run(0, 42).0,
        run(0, 43).0,
        "different seeds must yield different event streams"
    );
}

#[test]
fn faultless_digest_matches_pre_fault_hook_pin() {
    // The acceptance bar for the DST layer: merely *carrying* the fault
    // hook must not move a single bit of the faultless event stream.
    assert_eq!(
        run(0, 42).0,
        PINNED_FAULTLESS_DIGEST,
        "faultless stream drifted from the pre-fault-hook capture"
    );
}

#[test]
fn noop_fault_plan_is_invisible() {
    // Installing a plan that injects nothing must be indistinguishable —
    // digest and every counter — from installing no plan, because the
    // fault rng is plan-owned and zero-probability rolls consume nothing.
    let (bare, bare_stats) = run_plan(0, 42, false, None);
    let (noop, noop_stats) = run_plan(0, 42, false, Some(FaultPlan::none(999)));
    assert_eq!(noop, bare, "no-op plan perturbed the event stream");
    assert_eq!(noop_stats, bare_stats);
    assert_eq!(bare, PINNED_FAULTLESS_DIGEST);
}

#[test]
fn faulted_digest_is_stable_across_runs_and_rebucket_intervals() {
    // A (seed, plan) pair is a complete replay token: the adversarial
    // stream must be bit-identical across reruns and re-bucket intervals,
    // exactly like the faultless one.
    let (first, stats) = run_plan(0, 42, false, Some(adversarial_plan(7)));
    assert!(
        stats.frames_fault_cut > 0
            && stats.frames_fault_dropped > 0
            && stats.frames_fault_delayed > 0
            && stats.frames_fault_duplicated > 0,
        "plan must actually bite: {stats:?}"
    );
    assert_ne!(
        first, PINNED_FAULTLESS_DIGEST,
        "faults must perturb the stream"
    );
    for rebucket in [0, 500] {
        let (digest, rerun_stats) = run_plan(rebucket, 42, false, Some(adversarial_plan(7)));
        assert_eq!(digest, first, "rebucket {rebucket} ms diverged");
        assert_eq!(rerun_stats, stats);
    }
}

#[test]
fn fault_plans_with_different_seeds_diverge() {
    let (a, _) = run_plan(0, 42, false, Some(adversarial_plan(7)));
    let (b, _) = run_plan(0, 42, false, Some(adversarial_plan(8)));
    assert_ne!(a, b, "plan seed must feed the fault rolls");
}
