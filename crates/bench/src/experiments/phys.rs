//! Single-hop prototype calibration experiments (§V of the paper):
//! Fig. 3 plus the two parameter sweeps whose figures the paper omits.
//!
//! These run in the Android-prototype regime ([`SimConfig::prototype`]):
//! ~5 Mbps effective broadcast service rate and fire-and-forget UDP sends
//! that silently overflow the 1 MB OS buffer.

use super::RunConfig;
use crate::report::{f2, pct, Table};
use crate::sweep::run_grid;
use bytes::Bytes;
use pds_sim::{
    AckConfig, Application, Context, MessageMeta, Position, SenderMode, SimConfig, SimDuration,
    SimTime, World,
};

/// Sends `count` messages of `size` bytes to `intended`, paced at
/// `app_rate_bps` (the rate the application calls `send`, not the radio
/// rate).
struct BulkSender {
    count: usize,
    size: usize,
    intended: Vec<pds_sim::NodeId>,
    gap: SimDuration,
    sent: usize,
}

impl BulkSender {
    fn new(count: usize, size: usize, intended: Vec<pds_sim::NodeId>, app_rate_bps: f64) -> Self {
        let gap = SimDuration::from_secs_f64(size as f64 * 8.0 / app_rate_bps);
        Self {
            count,
            size,
            intended,
            gap,
            sent: 0,
        }
    }
}

impl Application for BulkSender {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_message(&mut self, _ctx: &mut Context, _meta: MessageMeta, _payload: Bytes) {}
    fn on_timer(&mut self, ctx: &mut Context, _tag: u64) {
        if self.sent >= self.count {
            return;
        }
        self.sent += 1;
        ctx.broadcast(Bytes::from(vec![0u8; self.size]), &self.intended);
        ctx.set_timer(self.gap, 0);
    }
}

/// Counts complete message receptions and the span they arrived over.
struct Receiver {
    received: usize,
    bytes: u64,
    first_at: Option<SimTime>,
    last_at: SimTime,
}

impl Receiver {
    fn new() -> Self {
        Self {
            received: 0,
            bytes: 0,
            first_at: None,
            last_at: SimTime::ZERO,
        }
    }

    fn data_rate_mbps(&self) -> f64 {
        match self.first_at {
            Some(first) if self.last_at > first => {
                self.bytes as f64 * 8.0 / self.last_at.since(first).as_secs_f64() / 1e6
            }
            _ => 0.0,
        }
    }
}

impl Application for Receiver {
    fn on_start(&mut self, _ctx: &mut Context) {}
    fn on_message(&mut self, ctx: &mut Context, _meta: MessageMeta, payload: Bytes) {
        self.received += 1;
        self.bytes += payload.len() as u64;
        self.first_at.get_or_insert(ctx.now());
        self.last_at = ctx.now();
    }
}

/// One single-hop run: `senders` nodes each send `count` messages to one
/// receiver. Returns (reception ratio, receiver data rate in Mbps).
fn single_hop_run(config: SimConfig, senders: usize, count: usize, seed: u64) -> (f64, f64) {
    let mut world = World::new(config, seed);
    let receiver_pos = Position::new(0.0, 0.0);
    // Senders on a circle well inside radio range.
    let receiver_id = pds_sim::NodeId(0);
    let mut world_receiver = None;
    for i in 0..=senders {
        if i == 0 {
            world_receiver = Some(world.add_node(receiver_pos, Box::new(Receiver::new())));
        } else {
            let angle = i as f64 / senders as f64 * std::f64::consts::TAU;
            let pos = Position::new(30.0 * angle.cos(), 30.0 * angle.sin());
            world.add_node(
                pos,
                Box::new(BulkSender::new(count, 1400, vec![receiver_id], 60.0e6)),
            );
        }
    }
    let receiver = world_receiver.expect("receiver added");
    world.run_until(SimTime::from_secs_f64(120.0));
    let app = world.app::<Receiver>(receiver).expect("receiver alive");
    let total = senders * count;
    (app.received as f64 / total as f64, app.data_rate_mbps())
}

/// Fig. 3: reception rate and receiver data rate for raw UDP, leaky bucket
/// only, and leaky bucket + ack, with 1–4 concurrent senders.
pub(crate) fn fig03_single_hop(cfg: &RunConfig) -> Vec<Table> {
    let count = if cfg.quick { 800 } else { 4_000 };
    let modes: [(&str, SimConfig); 3] = [
        ("raw-udp", {
            let mut c = SimConfig::prototype();
            c.sender = SenderMode::RawUdp;
            c.ack = AckConfig::disabled();
            c
        }),
        ("leaky", {
            let mut c = SimConfig::prototype();
            c.ack = AckConfig::disabled();
            c
        }),
        ("leaky+ack", SimConfig::prototype()),
    ];
    let mut reception = Table::new(
        "Fig. 3 — single-hop reception rate vs concurrent senders",
        &["senders", "raw-udp", "leaky", "leaky+ack"],
    );
    let mut rate = Table::new(
        "Fig. 3 — receiver data rate (Mbps) vs concurrent senders",
        &["senders", "raw-udp", "leaky", "leaky+ack"],
    );
    let points: Vec<(usize, &SimConfig)> = (1..=4usize)
        .flat_map(|senders| modes.iter().map(move |(_, c)| (senders, c)))
        .collect();
    let grid = run_grid(cfg, &points, |&(senders, config), seed| {
        single_hop_run(config.clone(), senders, count, seed)
    });
    let mut grid = grid.into_iter();
    for senders in 1..=4usize {
        let mut rec_cells = vec![senders.to_string()];
        let mut rate_cells = vec![senders.to_string()];
        for _ in &modes {
            let runs = grid.next().expect("one result set per (senders, mode)");
            let n = runs.len() as f64;
            rec_cells.push(pct(runs.iter().map(|r| r.0).sum::<f64>() / n));
            rate_cells.push(f2(runs.iter().map(|r| r.1).sum::<f64>() / n));
        }
        reception.push_row(rec_cells);
        rate.push_row(rate_cells);
    }
    vec![reception, rate]
}

/// §V-2 sweep: reception vs `LeakingRate` (1–6 Mbps) and `BucketCapacity`
/// (the paper settles on 300 KB / 4.5 Mbps).
pub(crate) fn leaky_sweep(cfg: &RunConfig) -> Vec<Table> {
    let count = if cfg.quick { 1_200 } else { 6_000 };
    let rates = [1.0e6, 2.0e6, 3.0e6, 4.0e6, 4.5e6, 5.0e6, 6.0e6];
    let capacities = [100_000usize, 300_000, 600_000, 1_200_000];
    let mut t = Table::new(
        "§V-2 — reception vs LeakingRate × BucketCapacity (1 sender, 1 receiver)",
        &["rate_mbps", "100KB", "300KB", "600KB", "1200KB"],
    );
    let points: Vec<(f64, usize)> = rates
        .iter()
        .flat_map(|&rate| capacities.iter().map(move |&cap| (rate, cap)))
        .collect();
    let grid = run_grid(cfg, &points, |&(rate, capacity), seed| {
        let mut c = SimConfig::prototype();
        c.ack = AckConfig::disabled();
        c.sender = SenderMode::LeakyBucket {
            capacity_bytes: capacity,
            rate_bps: rate,
        };
        single_hop_run(c, 1, count, seed).0
    });
    let mut grid = grid.into_iter();
    for &rate in &rates {
        let mut cells = vec![f2(rate / 1e6)];
        for _ in &capacities {
            let runs = grid.next().expect("one result set per (rate, capacity)");
            cells.push(pct(runs.iter().sum::<f64>() / runs.len() as f64));
        }
        t.push_row(cells);
    }
    vec![t]
}

/// §V-1 sweep: reception vs `RetrTimeout` and `MaxRetrTime` with four
/// concurrent senders (the paper finds the benefit plateaus at 0.2 s / 4).
pub(crate) fn ack_sweep(cfg: &RunConfig) -> Vec<Table> {
    let count = if cfg.quick { 300 } else { 800 };
    let timeouts = [50u64, 100, 200, 400];
    let retries = [0u32, 1, 2, 4, 8];
    let mut t = Table::new(
        "§V-1 — reception vs RetrTimeout × MaxRetrTime (4 senders, 1 receiver)",
        &[
            "timeout_ms",
            "retr=0",
            "retr=1",
            "retr=2",
            "retr=4",
            "retr=8",
        ],
    );
    let points: Vec<(u64, u32)> = timeouts
        .iter()
        .flat_map(|&t| retries.iter().map(move |&r| (t, r)))
        .collect();
    let grid = run_grid(cfg, &points, |&(timeout, max_retr), seed| {
        let mut c = SimConfig::prototype();
        c.ack = AckConfig {
            enabled: true,
            retr_timeout: SimDuration::from_millis(timeout),
            max_retr,
        };
        single_hop_run(c, 4, count, seed).0
    });
    let mut grid = grid.into_iter();
    for &timeout in &timeouts {
        let mut cells = vec![timeout.to_string()];
        for _ in &retries {
            let runs = grid.next().expect("one result set per (timeout, retries)");
            cells.push(pct(runs.iter().sum::<f64>() / runs.len() as f64));
        }
        t.push_row(cells);
    }
    vec![t]
}
