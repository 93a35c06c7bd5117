//! The shared broadcast medium: where every node is, what is on the air,
//! and the spatial indexes over both.
//!
//! [`Medium`] keeps the authoritative tables (node motions, the
//! transmission slab) and the indexes derived from them (node and
//! transmission grids, per-sender transmission lists, the prune wheel) in
//! step: every write goes through its methods. It answers the kernel's
//! radio questions — carrier sense, neighbors, and the physical verdicts
//! of a finished transmission, which [`phys_verdicts`] computes by
//! reading the medium directly.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::config::{RadioConfig, SimConfig, MAX_FRAME_BYTES, RANGE_M, SENSE_DELAY};
use crate::profile::{Profiler, Scope};
use crate::radio::{
    phys_verdicts, Motion, PathLossMemo, PhysOutcome, PhysScratch, Position, Transmission,
};
use crate::slab::{DenseTable, SeqSlab};
use crate::spatial::{NodeGrid, TxEntry, TxGrid};
use crate::transport::Frame;
use crate::wheel::TimerWheel;
use pds_core::{NodeId, SimDuration, SimTime};

/// Node positions and transmissions of one world. The tables are
/// readable crate-wide (the physical verdict and the tests read them);
/// only this module writes them.
#[derive(Debug)]
pub(crate) struct Medium {
    pub radio: RadioConfig,
    rebucket_interval: SimDuration,
    /// Transmissions end at most this long after they start; pruning
    /// keeps two of these behind the clock.
    max_airtime: SimDuration,
    /// Motions of all alive nodes, keyed like the kernel's node table.
    pub motions: DenseTable<Motion>,
    /// Active (and recently finished) transmissions, keyed by monotone tx
    /// id in a base-offset slab sized to the live window. Iterates in
    /// ascending id order, the order every interference sum folds in (f64
    /// addition is not associative).
    pub transmissions: SeqSlab<Transmission>,
    /// Spatial index over node positions (receiver/neighbor queries).
    pub node_grid: NodeGrid,
    /// Spatial index over transmission start positions (carrier sense).
    pub tx_grid: TxGrid,
    /// Live transmission ids per sender, indexed by raw node id, for O(1)
    /// half-duplex checks. Entries outlive their node (pruning still needs
    /// them) and empty lists cost nothing.
    pub tx_by_sender: Vec<Vec<u64>>,
    /// Transmission end times, for amortized-O(1) pruning instead of slab
    /// sweeps. Same wheel primitive as the event queue (DESIGN.md §11);
    /// tx ids are pushed in ascending order, so equal ends pop in id order.
    tx_prune: TimerWheel<u64>,
    /// Reusable buffers of the physical verdict.
    phys: PhysScratch,
    /// Reusable neighbor-query result and candidate buffers.
    nbr_scratch: Vec<NodeId>,
    nbr_cands: Vec<(NodeId, Motion)>,
}

impl Medium {
    /// An empty medium for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `radio.path_loss_exp` or `radio.capture_sinr` is negative
    /// or not finite (see [`World::new`](crate::World::new)).
    pub(crate) fn new(config: &SimConfig) -> Self {
        let radio = config.radio.clone();
        assert!(
            radio.path_loss_exp.is_finite() && radio.path_loss_exp >= 0.0,
            "path_loss_exp must be finite and >= 0 (got {})",
            radio.path_loss_exp
        );
        assert!(
            radio.capture_sinr.is_finite() && radio.capture_sinr >= 0.0,
            "capture_sinr must be finite and >= 0 (got {})",
            radio.capture_sinr
        );
        // One cell per radio range: a decode-range query probes at most
        // 3×3 cells.
        let cell_m = RANGE_M;
        // Carrier sense and (with a finite interference horizon) the
        // interference pre-scan query this grid with wider radii; sizing
        // its cells to the largest such radius keeps every probe at 3×3
        // cells.
        let tx_reach = if radio.interference_range_factor.is_finite() {
            radio
                .cs_range_factor
                .max(radio.interference_range_factor + 1.0)
        } else {
            radio.cs_range_factor
        };
        Self {
            max_airtime: radio.frame_airtime(MAX_FRAME_BYTES),
            rebucket_interval: config.spatial.rebucket_interval,
            motions: DenseTable::default(),
            transmissions: SeqSlab::default(),
            node_grid: NodeGrid::new(cell_m, SimTime::ZERO),
            tx_grid: TxGrid::new(cell_m * tx_reach.max(1.0)),
            tx_by_sender: Vec::new(),
            tx_prune: TimerWheel::new(),
            phys: PhysScratch {
                memo: PathLossMemo::new(),
                ..PhysScratch::default()
            },
            nbr_scratch: Vec::new(),
            nbr_cands: Vec::new(),
            radio,
        }
    }

    /// Pre-sizes the motion table for `n` nodes (an allocation hint).
    pub(crate) fn reserve(&mut self, n: usize) {
        self.motions.reserve(n);
    }

    /// Sets `id`'s motion from `now` on, adding the node if it is new.
    pub(crate) fn place(&mut self, id: NodeId, motion: Motion, now: SimTime) {
        self.node_grid.upsert(id, &motion, now);
        self.motions.insert(id, motion);
    }

    /// Removes a node. Its frames already on the air stay there.
    pub(crate) fn remove(&mut self, id: NodeId) {
        self.motions.remove(&id);
        self.node_grid.remove(id);
    }

    /// Position of `id` at `now`, if alive.
    pub(crate) fn position(&self, id: NodeId, now: SimTime) -> Option<Position> {
        self.motions.get(&id).map(|m| m.position(now))
    }

    /// Re-buckets moving nodes once the grid is older than the configured
    /// re-bucket interval. Until then, queries stay exact by padding their
    /// radius with the maximum possible drift. Only a rebucket is timed.
    pub(crate) fn refresh(&mut self, now: SimTime, prof: &mut Profiler) {
        let stamp = self.node_grid.stamp();
        if now <= stamp || now.since(stamp) < self.rebucket_interval {
            return;
        }
        let t0 = prof.read();
        let motions = &self.motions;
        self.node_grid.rebucket(now, |id| motions.get(&id).copied());
        prof.charge(Scope::Grid, t0);
    }

    /// Alive nodes within radio range of `id` at `now` (excluding
    /// itself), ascending by id, in a scratch buffer the next call
    /// overwrites.
    pub(crate) fn neighbors(&mut self, id: NodeId, now: SimTime) -> &[NodeId] {
        self.nbr_scratch.clear();
        let Some(pos) = self.position(id, now) else {
            return &self.nbr_scratch;
        };
        let range = RANGE_M;
        self.nbr_cands.clear();
        self.node_grid
            .query_into(pos, range, now, &mut self.nbr_cands);
        self.nbr_cands.sort_unstable_by_key(|&(r, _)| r);
        self.nbr_cands.dedup_by_key(|&mut (r, _)| r);
        for &(r, m) in &self.nbr_cands {
            if r != id && m.position(now).distance(&pos) <= range {
                self.nbr_scratch.push(r);
            }
        }
        &self.nbr_scratch
    }

    /// Carrier sense at `pos`: the latest end among other senders'
    /// transmissions within the (extended) sense range that have been on
    /// the air long enough to detect, or `None` if the channel is idle.
    pub(crate) fn busy_until(&self, id: NodeId, pos: Position, now: SimTime) -> Option<SimTime> {
        let cs_range = RANGE_M * self.radio.cs_range_factor;
        // The grid carries the sense-relevant fields inline and is read in
        // place, so the scan neither copies candidates nor touches the
        // transmission slab; `max` is order-independent, so the
        // unspecified visiting order is fine.
        let mut busy = None;
        self.tx_grid.visit(pos, cs_range, |cell| {
            let sensed = cell.iter().filter(|t| {
                t.end > now
                    && t.sender != id
                    && t.start + SENSE_DELAY <= now
                    && t.pos.distance(&pos) <= cs_range
            });
            busy = busy.max(sensed.map(|t| t.end).max());
        });
        busy
    }

    /// Puts `frame` on the air from `pos` over `[start, end)` and returns
    /// its transmission id.
    pub(crate) fn begin(
        &mut self,
        sender: NodeId,
        pos: Position,
        start: SimTime,
        end: SimTime,
        frame: Frame,
    ) -> u64 {
        let id = self.transmissions.push_with(|id| Transmission {
            id,
            sender,
            start_pos: pos,
            start,
            end,
            frame,
        });
        self.tx_grid.insert(TxEntry {
            id,
            sender,
            pos,
            start,
            end,
        });
        let sender_ix = sender.0 as usize;
        if sender_ix >= self.tx_by_sender.len() {
            self.tx_by_sender.resize_with(sender_ix + 1, Vec::new);
        }
        if let Some(ids) = self.tx_by_sender.get_mut(sender_ix) {
            ids.push(id);
        }
        self.tx_prune.push(end, id);
        id
    }

    /// The physical receive verdicts of `tx` into `out` (cleared first),
    /// in ascending receiver-id order. See [`phys_verdicts`].
    pub(crate) fn verdicts(
        &mut self,
        tx: &Transmission,
        out: &mut Vec<(NodeId, PhysOutcome)>,
        prof: &mut Profiler,
    ) {
        let t0 = prof.read();
        out.clear();
        let mut scratch = std::mem::take(&mut self.phys);
        phys_verdicts(self, tx, out, &mut scratch, &mut prof.profile.verdict_paths);
        self.phys = scratch;
        prof.charge(Scope::Phys, t0);
    }

    /// Drops transmissions that can no longer overlap anything — those
    /// that ended more than two maximal airtimes before `now` — with
    /// their grid and per-sender index entries.
    pub(crate) fn prune(&mut self, now: SimTime) {
        let horizon = now.since(SimTime::ZERO + self.max_airtime + self.max_airtime);
        let keep_after = SimTime::ZERO + horizon; // now - 2*max_airtime, saturating
        while let Some((_, id)) = self.tx_prune.pop_until(keep_after) {
            let Some(t) = self.transmissions.remove(&id) else {
                continue;
            };
            self.tx_grid.remove(id);
            // Empty per-sender vecs stay in place: the slot is the
            // sender's identity, and the capacity is reused by its next
            // transmission.
            if let Some(ids) = self.tx_by_sender.get_mut(t.sender.0 as usize) {
                ids.retain(|&x| x != id);
            }
        }
    }
}
