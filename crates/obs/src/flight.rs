//! Always-on flight recorder: bounded per-node event rings.
//!
//! A [`FlightRecorder`] is the sink a long adversarial run can afford to
//! keep installed from the first event: each node gets a fixed-capacity
//! ring, so memory is `O(nodes × capacity)` no matter how long the run,
//! and the steady state allocates nothing — rings fill once, then
//! overwrite in place ([`TraceEvent`] payloads are plain integers, so an
//! overwrite is a memcpy, not an allocation). A global record counter is
//! stored next to every event so [`FlightRecorder::dump`] can sort the
//! rings back into exact emission order even when timestamps tie.
//!
//! Per-node (rather than one global) rings are what make the dump useful
//! at a violation: a chatty relay cannot evict the quiet consumer's last
//! session events, so `pds-obs explain` still sees both ends of the
//! failing exchange. The DST harness dumps the recorder when an invariant
//! trips, and the replay-digest tests do the same at first divergence —
//! turning every minimized seed into a causal narrative.

use crate::event::TraceEvent;
use crate::json;
use crate::sink::TraceSink;
use std::any::Any;
use std::io::{self, Write};
use std::path::Path;

/// Default per-node ring capacity: enough for the last couple of protocol
/// rounds per node while keeping a 1000-node recorder's working set under
/// ~5 MB. Capacity is the recorder's one real cost knob: the steady-state
/// overwrite is a write into the node's ring, so once the rings outgrow
/// the cache every recorded event pays a miss — 1024 slots/node measures
/// ~2.6× the record cost of 256 on a 1000-node run. The default was 256
/// until the slab/SoA kernel diet (DESIGN.md §16) made the bare event
/// loop ~2.4× faster, which turned those misses into the dominant cost of
/// an instrumented run; at 64 the rings are mostly cache-resident (the
/// protocol benchmark's `obs.flight_record_ns` probe tracks the cost).
pub const DEFAULT_NODE_CAPACITY: usize = 64;

/// One node's bounded ring: events tagged with the global record sequence
/// at which they were captured.
#[derive(Debug)]
struct NodeRing {
    /// `(global_seq, event)` pairs; grows to `capacity` once, then is
    /// overwritten in place.
    buf: Vec<(u64, TraceEvent)>,
    /// Next overwrite position once `buf.len() == capacity`.
    head: usize,
}

/// Bounded per-node ring sink (see module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    /// Ring per node id; index `node as usize`, grown lazily. Slot is
    /// `None` until the node's first event.
    nodes: Vec<Option<NodeRing>>,
    /// Ring for node-less events (`node == u32::MAX`: control closures,
    /// sweeps).
    global: Option<NodeRing>,
    capacity: usize,
    /// Global record counter; also the sort key of [`FlightRecorder::dump`].
    seq: u64,
    /// Events overwritten because their node's ring was full.
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_NODE_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events per node (clamped to
    /// at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            nodes: Vec::new(),
            global: None,
            capacity: capacity.max(1),
            seq: 0,
            dropped: 0,
        }
    }

    /// Total events recorded over the run (retained or overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Events lost to ring overwrites.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently retained across all rings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rings().map(|r| r.buf.len()).sum()
    }

    /// Whether nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn rings(&self) -> impl Iterator<Item = &NodeRing> {
        self.nodes.iter().flatten().chain(self.global.iter())
    }

    fn ring_for(&mut self, node: u32) -> &mut NodeRing {
        let capacity = self.capacity;
        let slot = if node == u32::MAX {
            &mut self.global
        } else {
            let idx = node as usize;
            if idx >= self.nodes.len() {
                self.nodes.resize_with(idx + 1, || None);
            }
            &mut self.nodes[idx]
        };
        slot.get_or_insert_with(|| NodeRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
        })
    }

    /// The retained events merged back into emission order.
    ///
    /// Dumps are ordinary traces: every analysis (`sessions`,
    /// `critical-path`, `explain`, `diff`) and the JSONL codec apply
    /// unchanged. Every retained entry carries its unique global record
    /// sequence, so the merge is one sort by that key — `O(n log n)` in
    /// the retained events however many rings hold them.
    #[must_use]
    pub fn dump(&self) -> Vec<TraceEvent> {
        self.in_emission_order().cloned().collect()
    }

    fn in_emission_order(&self) -> impl Iterator<Item = &TraceEvent> {
        let mut entries: Vec<&(u64, TraceEvent)> =
            self.rings().flat_map(|ring| &ring.buf).collect();
        entries.sort_unstable_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, ev)| ev)
    }

    /// Writes the merged dump as JSONL.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    pub(crate) fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut line = String::new();
        for ev in self.in_emission_order() {
            line.clear();
            json::push_json(ev, &mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        w.flush()
    }

    /// Writes the merged dump to `path` as a JSONL trace file readable by
    /// `pds-obs explain`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn dump_to_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write_jsonl(io::BufWriter::new(file))
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, ev: &TraceEvent) {
        let seq = self.seq;
        self.seq += 1;
        let capacity = self.capacity;
        let ring = self.ring_for(ev.node);
        if ring.buf.len() < capacity {
            ring.buf.push((seq, ev.clone()));
        } else {
            // Steady state: overwrite in place, zero allocation. Branchful
            // wrap instead of `% capacity` — the modulo is an integer
            // division on the per-event hot path.
            ring.buf[ring.head] = (seq, ev.clone());
            ring.head += 1;
            if ring.head == capacity {
                ring.head = 0;
            }
            self.dropped += 1;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, TraceKind};

    fn ev(at: u64, node: u32) -> TraceEvent {
        TraceEvent {
            at_us: at,
            node,
            phase: Phase::Kernel,
            kind: TraceKind::TimerFired { timer: at },
        }
    }

    #[test]
    fn dump_preserves_emission_order_across_nodes() {
        // Capacity 3, round-robin over three nodes and the node-less ring,
        // every event of a round stamped with the same virtual time: only
        // the global sequence can order them. 5 rounds wrap every ring
        // (head ends mid-buffer), and node 1 then wraps once more alone.
        let mut fr = FlightRecorder::new(3);
        let nodes = [0u32, 1, 2, u32::MAX];
        let mut script = Vec::new();
        for round in 0..5u64 {
            for node in nodes {
                script.push((round, node));
            }
        }
        script.extend([(5u64, 1u32), (5, 1)]);
        for &(at, node) in &script {
            fr.record(&ev(at, node));
        }
        // An event survives iff fewer than 3 later events share its ring.
        let kept: Vec<(u64, u32)> = script
            .iter()
            .enumerate()
            .filter(|&(i, e)| script[i + 1..].iter().filter(|l| l.1 == e.1).count() < 3)
            .map(|(_, e)| *e)
            .collect();
        let got: Vec<(u64, u32)> = fr.dump().iter().map(|e| (e.at_us, e.node)).collect();
        assert_eq!(got, kept);
        assert_eq!(got.len(), 12);
        assert_eq!(fr.recorded(), script.len() as u64);
        assert_eq!(fr.dropped(), script.len() as u64 - 12);
    }

    #[test]
    fn per_node_rings_keep_quiet_nodes_intact() {
        let mut fr = FlightRecorder::new(4);
        // One early event from the quiet node, then a flood from node 0.
        fr.record(&ev(1, 7));
        for at in 2..100 {
            fr.record(&ev(at, 0));
        }
        let dump = fr.dump();
        // The quiet node's lone event survived the flood...
        assert!(dump.iter().any(|e| e.node == 7 && e.at_us == 1));
        // ...while node 0 kept only its last 4 events, in order.
        let node0: Vec<u64> = dump
            .iter()
            .filter(|e| e.node == 0)
            .map(|e| e.at_us)
            .collect();
        assert_eq!(node0, vec![96, 97, 98, 99]);
        assert_eq!(fr.dropped(), 94);
        assert_eq!(fr.len(), 5);
    }

    #[test]
    fn steady_state_capacity_is_fixed() {
        let mut fr = FlightRecorder::new(3);
        for at in 0..50 {
            fr.record(&ev(at, 1));
        }
        let ring = fr.nodes[1].as_ref().expect("ring exists");
        assert_eq!(ring.buf.len(), 3);
        assert_eq!(ring.buf.capacity(), 3, "ring never grows past capacity");
    }

    #[test]
    fn jsonl_dump_round_trips() {
        let mut fr = FlightRecorder::new(16);
        for at in 0..10 {
            fr.record(&ev(at, (at % 3) as u32));
        }
        let mut buf = Vec::new();
        fr.write_jsonl(&mut buf).expect("write");
        let back = crate::json::read_trace(&buf[..]).expect("parse");
        assert_eq!(back, fr.dump());
    }

    #[test]
    fn downcasts_through_trait_object() {
        let mut boxed: Box<dyn TraceSink> = Box::new(FlightRecorder::new(2));
        boxed.record(&ev(1, 0));
        let fr = boxed
            .as_any()
            .downcast_ref::<FlightRecorder>()
            .expect("flight recorder");
        assert_eq!(fr.recorded(), 1);
    }
}
