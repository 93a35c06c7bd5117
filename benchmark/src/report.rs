//! Turns reps into named metrics: the end-to-end set from untraced reps,
//! the per-layer set from the traced rep, and the checks that decide
//! whether the outputs were correct.

use crate::timed::{Slot, Tally};
use crate::workloads::{Kind, Rep, Session, Workload, WorldRun};
use pds_obs::DelayComponent;
use pds_sim::{PhaseBytes, Stats};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `(q1, median, q3)` the way Python's `statistics.quantiles(n=4)` and
/// `statistics.median` give them; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: f64| {
        if n == 1 {
            return v[0];
        }
        // The "exclusive" method: position q*(n+1), clamped to the ends.
        let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(0.25), at(0.5), at(0.75))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Mean of the middle half of `values`: a median that also averages. It
/// holds still from seed to seed where a plain median jumps (sessions in
/// two clusters, as pdr_grid's warm and cold consumers) and where a mean
/// is dragged about (a few sessions failing slowly, as under churn).
fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Rep {
    pub fn wall_s(&self) -> f64 {
        self.worlds.iter().map(|w| w.drive.1 - w.drive.0).sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.worlds.iter().map(|w| w.setup.1 - w.setup.0).sum()
    }

    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.worlds.iter().flat_map(|w| &w.sessions)
    }

    fn stat(&self, field: impl Fn(&Stats) -> u64) -> f64 {
        self.worlds.iter().map(|w| field(&w.stats)).sum::<u64>() as f64
    }

    fn sum(&self, field: impl Fn(&WorldRun) -> u64) -> f64 {
        self.worlds.iter().map(field).sum::<u64>() as f64
    }

    fn layer(&self, slots: &[Slot]) -> Tally {
        let mut total = Tally::default();
        for w in &self.worlds {
            for &s in slots {
                total.add(w.layers[s as usize]);
            }
        }
        total
    }

    /// FNV-1a over everything simulated: events dispatched, every `Stats`
    /// field and every session's outcome. Two runs of the same inputs
    /// must agree on it whatever the host did.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for w in &self.worlds {
            fold(w.events);
            // Exhaustive on purpose: a new counter must be folded in too.
            let Stats {
                frames_sent,
                frames_delivered,
                frames_collided,
                frames_lost_random,
                frames_half_duplex,
                frames_dropped_os,
                bytes_sent,
                data_bytes_sent,
                data_bytes_by_phase:
                    PhaseBytes {
                        pdd,
                        pdr,
                        mdr,
                        other,
                    },
                ack_bytes_sent,
                messages_sent,
                messages_delivered,
                messages_failed,
                frames_retransmitted,
                frames_fault_cut,
                frames_fault_dropped,
                frames_fault_delayed,
                frames_fault_duplicated,
            } = w.stats;
            for v in [
                frames_sent,
                frames_delivered,
                frames_collided,
                frames_lost_random,
                frames_half_duplex,
                frames_dropped_os,
                bytes_sent,
                data_bytes_sent,
                pdd,
                pdr,
                mdr,
                other,
                ack_bytes_sent,
                messages_sent,
                messages_delivered,
                messages_failed,
                frames_retransmitted,
                frames_fault_cut,
                frames_fault_dropped,
                frames_fault_delayed,
                frames_fault_duplicated,
            ] {
                fold(v);
            }
            for s in &w.sessions {
                fold(s.latency.as_micros());
                fold(s.items);
                fold(u64::from(s.finished));
            }
        }
        h
    }

    /// Sessions that did not do what the workload requires of them.
    pub fn failed(&self, workload: Workload) -> usize {
        self.sessions()
            .filter(|s| {
                let incomplete = s.kind == Kind::Retrieval && s.recall != Some(1.0);
                !s.finished || (workload.must_complete() && incomplete)
            })
            .count()
    }

    pub fn corrupt_chunks(&self) -> u64 {
        self.worlds.iter().map(|w| w.corrupt_chunks).sum()
    }
}

/// The end-to-end metrics of one workload. Simulated ones are exact (the
/// reps agree on [`Rep::fingerprint`], which the caller checks). Host
/// times take each world's fastest run over the reps and sum those: a
/// world is the same deterministic computation in every rep and a busy
/// host only ever adds time, so the fastest run is the best estimate of
/// what the program costs. On the 2-core reference host that reads half as
/// far apart from run to run as the median over reps.
pub fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let over_reps = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let fastest = |span: &dyn Fn(&WorldRun) -> (f64, f64)| -> f64 {
        (0..reps[0].worlds.len())
            .map(|i| {
                reps.iter()
                    .map(|r| span(&r.worlds[i]))
                    .map(|(start, end)| end - start)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let rep = &reps[0];
    let sessions: Vec<&Session> = rep.sessions().collect();
    let latencies: Vec<f64> = sessions.iter().map(|s| s.latency.as_secs_f64()).collect();
    let recalls: Vec<f64> = sessions.iter().filter_map(|s| s.recall).collect();
    let finished = sessions.iter().filter(|s| s.finished).count();
    vec![
        metric("wall_s", fastest(&|w| w.drive), "s"),
        metric("setup_s", fastest(&|w| w.setup), "s"),
        metric(
            "peak_heap_mb",
            over_reps(&|r| r.sum(|w| w.peak_heap_bytes as u64) / r.worlds.len() as f64 / 1e6),
            "MB",
        ),
        metric("sim_latency_iqm_s", interquartile_mean(&latencies), "s"),
        metric(
            "recall",
            recalls.iter().sum::<f64>() / recalls.len() as f64,
            "ratio",
        ),
        metric("overhead_mb", rep.stat(|s| s.bytes_sent) / 1e6, "MB"),
        metric(
            "finished_share",
            finished as f64 / sessions.len() as f64,
            "ratio",
        ),
    ]
}

const CORE_SLOTS: [Slot; 11] = [
    Slot::SessionStart,
    Slot::OnStart,
    Slot::OnTimer,
    Slot::OnSendResult,
    Slot::QueryMeta,
    Slot::QueryCdi,
    Slot::QueryChunks,
    Slot::RespMeta,
    Slot::RespCdi,
    Slot::RespChunk,
    Slot::Unknown,
];

/// The per-workload part of the per-layer metrics, from the traced rep.
/// `untraced` is a rep of the same seed run bare, for the overhead ratio.
pub fn per_layer(traced: &Rep, untraced: &Rep) -> Vec<Metric> {
    let secs = |t: Tally| t.ns as f64 / 1e9;
    let wall = traced.wall_s();
    let core = traced.layer(&CORE_SLOTS);
    let obs = traced.layer(&[Slot::Obs]);
    let driver_s: f64 = traced
        .worlds
        .iter()
        .map(|w| w.drive.1 - w.drive.0 - w.kernel_s)
        .sum();
    let sim_s = wall - secs(core) - secs(obs) - driver_s;
    let allocs = traced.sum(|w| w.allocs);
    let sim_allocs = allocs - (core.allocs + obs.allocs) as f64;
    let events = traced.sum(|w| w.events);
    let nodes = traced.sum(|w| w.nodes);

    let mut out = vec![
        metric("core.busy_s", secs(core), "s"),
        metric(
            "core.busy_share",
            ratio(secs(core), secs(core) + sim_s),
            "ratio",
        ),
        metric("core.calls", core.calls as f64, "count"),
        metric(
            "core.ns_per_call",
            ratio(core.ns as f64, core.calls as f64),
            "ns",
        ),
    ];
    for (name, slots) in [
        ("core.on_timer_s", &[Slot::OnTimer][..]),
        ("core.on_send_result_s", &[Slot::OnSendResult]),
        ("core.query_meta_s", &[Slot::QueryMeta]),
        ("core.query_cdi_s", &[Slot::QueryCdi]),
        ("core.query_chunks_s", &[Slot::QueryChunks]),
        ("core.resp_meta_s", &[Slot::RespMeta]),
        ("core.resp_cdi_s", &[Slot::RespCdi]),
        ("core.resp_chunk_s", &[Slot::RespChunk]),
    ] {
        out.push(metric(name, secs(traced.layer(slots)), "s"));
    }

    let of_kind =
        |kind: Kind| -> Vec<&Session> { traced.sessions().filter(|s| s.kind == kind).collect() };
    let discoveries = of_kind(Kind::Discovery);
    let mean = |f: &dyn Fn(&Session) -> f64| {
        ratio(
            discoveries.iter().map(|s| f(s)).sum::<f64>(),
            discoveries.len() as f64,
        )
    };
    out.extend([
        metric(
            "core.decode_errors",
            traced.sum(|w| w.decode_errors),
            "count",
        ),
        metric("core.resends", traced.sum(|w| w.resends), "count"),
        metric(
            "core.disc_rounds_mean",
            mean(&|s| f64::from(s.rounds)),
            "count",
        ),
        metric("core.disc_entries_mean", mean(&|s| s.items as f64), "count"),
        metric("core.allocs", core.allocs as f64, "count"),
        metric(
            "core.allocs_per_call",
            ratio(core.allocs as f64, core.calls as f64),
            "count",
        ),
        metric("sim.busy_s", sim_s, "s"),
        metric("sim.busy_share", ratio(sim_s, secs(core) + sim_s), "ratio"),
        metric("sim.events", events, "count"),
        metric("sim.ns_per_event", ratio(sim_s * 1e9, events), "ns"),
        metric("sim.events_per_s", ratio(events, wall), "1/s"),
    ]);
    let frames_sent = traced.stat(|s| s.frames_sent);
    let receptions = traced.stat(|s| {
        s.frames_delivered + s.frames_collided + s.frames_half_duplex + s.frames_lost_random
    });
    for (name, value) in [
        ("sim.frames_sent", frames_sent),
        ("sim.frames_delivered", traced.stat(|s| s.frames_delivered)),
        ("sim.frames_collided", traced.stat(|s| s.frames_collided)),
        (
            "sim.frames_half_duplex",
            traced.stat(|s| s.frames_half_duplex),
        ),
        (
            "sim.frames_lost_random",
            traced.stat(|s| s.frames_lost_random),
        ),
        (
            "sim.frames_dropped_os",
            traced.stat(|s| s.frames_dropped_os),
        ),
        (
            "sim.frames_retransmitted",
            traced.stat(|s| s.frames_retransmitted),
        ),
        ("sim.messages_sent", traced.stat(|s| s.messages_sent)),
        (
            "sim.messages_delivered",
            traced.stat(|s| s.messages_delivered),
        ),
        ("sim.messages_failed", traced.stat(|s| s.messages_failed)),
    ] {
        out.push(metric(name, value, "count"));
    }
    out.extend([
        metric(
            "sim.retx_ratio",
            ratio(traced.stat(|s| s.frames_retransmitted), frames_sent),
            "ratio",
        ),
        metric(
            "sim.collision_ratio",
            ratio(traced.stat(|s| s.frames_collided), receptions),
            "ratio",
        ),
        metric(
            "sim.bytes_pdd_mb",
            traced.stat(|s| s.data_bytes_by_phase.pdd) / 1e6,
            "MB",
        ),
        metric(
            "sim.bytes_pdr_mb",
            traced.stat(|s| s.data_bytes_by_phase.pdr) / 1e6,
            "MB",
        ),
        metric(
            "sim.bytes_ack_mb",
            traced.stat(|s| s.ack_bytes_sent) / 1e6,
            "MB",
        ),
        metric("sim.allocs", sim_allocs, "count"),
        metric("sim.allocs_per_event", ratio(sim_allocs, events), "count"),
        metric(
            "sim.heap_bytes_per_node",
            ratio(traced.sum(|w| w.heap_setup_bytes as u64), nodes),
            "B",
        ),
        // 52 bits of the hash: a JSON number holds that many exactly.
        metric(
            "sim.fingerprint",
            (traced.fingerprint() & ((1 << 52) - 1)) as f64,
            "hash",
        ),
    ]);

    let traces = || traced.worlds.iter().filter_map(|w| w.trace.as_ref());
    let trace_events: u64 = traces().map(|t| t.events).sum();
    out.extend([
        metric("obs.busy_s", secs(obs), "s"),
        metric("obs.events", trace_events as f64, "count"),
        metric(
            "obs.ns_per_event",
            ratio(obs.ns as f64, obs.calls as f64),
            "ns",
        ),
        metric("obs.allocs", obs.allocs as f64, "count"),
        metric(
            "obs.sessions_ns_per_event",
            ratio(
                traces().map(|t| t.sessions_s).sum::<f64>() * 1e9,
                trace_events as f64,
            ),
            "ns",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(wall, untraced.wall_s()),
            "ratio",
        ),
    ]);
    let path_total: u64 = traces().flat_map(|t| t.path_us).sum();
    for (i, component) in DelayComponent::ALL.iter().enumerate() {
        let us: u64 = traces().map(|t| t.path_us[i]).sum();
        out.push(metric(
            format!("path.{}_share", component.name()),
            ratio(us as f64, path_total as f64),
            "ratio",
        ));
    }
    out.push(metric(
        "path.sessions",
        traces().map(|t| t.path_sessions).sum::<u64>() as f64,
        "count",
    ));

    let latencies = |kind: Kind| -> Vec<f64> {
        of_kind(kind)
            .iter()
            .map(|s| s.latency.as_secs_f64())
            .collect()
    };
    let (disc, pdr) = (latencies(Kind::Discovery), latencies(Kind::Retrieval));
    let all: Vec<f64> = disc.iter().chain(&pdr).copied().collect();
    out.extend([
        metric("lat.p50_s", median(&all), "s"),
        metric("lat.mean_s", ratio(all.iter().sum(), all.len() as f64), "s"),
        metric("lat.disc_p50_s", percentile(&disc, 0.5), "s"),
        metric("lat.pdr_p50_s", percentile(&pdr, 0.5), "s"),
        // p80 is the highest round percentile with ten samples beyond it
        // at campus_churn's 64 sessions a kind; elsewhere read it as "the
        // slow end" of fewer samples.
        metric("lat.disc_p80_s", percentile(&disc, 0.8), "s"),
        metric("lat.pdr_p80_s", percentile(&pdr, 0.8), "s"),
        metric(
            "mobility.build_s",
            traced.worlds.iter().map(|w| w.mobility_build_s).sum(),
            "s",
        ),
        metric(
            "mobility.events",
            traced.sum(|w| w.mobility_events),
            "count",
        ),
        metric("bench.driver_s", driver_s, "s"),
    ]);
    out
}

/// One line per metric, `name value unit`.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

/// The result object the benchmark contract asks for on the last line.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
