//! Trace sinks: where emitted events go.
//!
//! The simulator holds an `Option<Box<dyn TraceSink>>`; with no sink
//! installed, every emission site is a single branch on `Option::is_some`
//! and the hot path stays untouched. Sinks only *observe* events — a sink
//! must never feed anything back into simulation state, which is what keeps
//! tracing replay-digest-neutral (DESIGN.md §8).

use crate::event::TraceEvent;
use crate::json;
use std::any::Any;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::Path;

/// Receives trace events in emission order.
///
/// `Any` is a supertrait so a sink handed to the simulator can be recovered
/// and downcast after a run (e.g. to read a ring buffer's events back).
/// `Send` is a supertrait so a simulated world carrying a sink can move to a
/// sweep worker thread; a sink is only ever driven by the one thread that
/// owns its world.
pub trait TraceSink: Any + Send {
    /// Records one event. Called synchronously from the emission site;
    /// implementations must not block on anything but local I/O.
    fn record(&mut self, ev: &TraceEvent);

    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}

    /// Upcast for post-run downcasting.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-run downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Keeps the last `capacity` events in memory (0 = unbounded).
///
/// The bounded mode is what the CI failure path uses: re-run a failing
/// scenario with a ring large enough for the interesting tail without
/// risking out-of-memory on a long run.
#[derive(Debug, Default)]
pub struct RingSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (0 = unbounded).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.iter().cloned().collect()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.capacity > 0 && self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev.clone());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Serializes every event as one JSON object per line (JSONL).
///
/// I/O errors are counted, not propagated — an emission site inside the
/// simulation kernel has no useful way to surface a disk error, and
/// aborting a run over its *diagnostics* would be backwards.
pub struct JsonlSink<W: Write + Send + 'static> {
    writer: W,
    /// Reused line buffer: steady-state recording allocates nothing.
    line: String,
    lines: u64,
    errors: u64,
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncates) `path` and writes the trace there, buffered.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(io::BufWriter::new(file)))
    }
}

impl<W: Write + Send + 'static> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            line: String::with_capacity(128),
            lines: 0,
            errors: 0,
        }
    }

    /// Lines successfully written.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Write errors swallowed so far (should stay 0).
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write + Send + 'static> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        self.line.clear();
        json::push_json(ev, &mut self.line);
        self.line.push('\n');
        if self.writer.write_all(self.line.as_bytes()).is_ok() {
            self.lines += 1;
        } else {
            self.errors += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<W: Write + Send + 'static> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("errors", &self.errors)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, TraceKind};

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at_us: at,
            node: 1,
            phase: Phase::Kernel,
            kind: TraceKind::Sweep,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = RingSink::new(2);
        r.record(&ev(1));
        r.record(&ev(2));
        r.record(&ev(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let got: Vec<u64> = r.events().iter().map(|e| e.at_us).collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn unbounded_ring_keeps_everything() {
        let mut r = RingSink::new(0);
        for i in 0..100 {
            r.record(&ev(i));
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.dropped(), 0);
        assert!(!r.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(&ev(5));
        s.record(&ev(6));
        assert_eq!(s.lines(), 2);
        assert_eq!(s.errors(), 0);
        let buf = s.into_inner();
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with('{'));
    }

    #[test]
    fn sinks_downcast_through_as_any() {
        let mut boxed: Box<dyn TraceSink> = Box::new(RingSink::new(0));
        boxed.record(&ev(9));
        let ring = boxed.as_any().downcast_ref::<RingSink>().expect("ring");
        assert_eq!(ring.len(), 1);
    }
}
