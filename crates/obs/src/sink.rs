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
/// An emission site inside the simulation kernel has no useful way to
/// surface a disk error, and aborting a run over its *diagnostics* would be
/// backwards: so the first write or flush error is kept, nothing is written
/// after it, and the owner reads it back with [`JsonlSink::error`] (through
/// [`TraceSink::as_any`] on a sink taken back from the simulator) or
/// [`JsonlSink::finish`].
pub struct JsonlSink<W: Write + Send + 'static> {
    writer: W,
    /// Reused line buffer: steady-state recording allocates nothing.
    line: String,
    error: Option<io::Error>,
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
            error: None,
        }
    }

    /// The first I/O error met, after which the trace is incomplete.
    #[must_use]
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the first write or flush error: the trace is incomplete.
    pub fn finish(mut self) -> io::Result<W> {
        TraceSink::flush(&mut self);
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.writer),
        }
    }
}

impl<W: Write + Send + 'static> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        json::push_json(ev, &mut self.line);
        self.line.push('\n');
        self.error = self.writer.write_all(self.line.as_bytes()).err();
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.writer.flush().err();
        }
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
            .field("error", &self.error)
            .finish_non_exhaustive()
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
        assert_eq!(r.events.len(), 2);
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
        assert_eq!(r.events.len(), 100);
        assert_eq!(r.dropped(), 0);
        assert!(!r.events.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(&ev(5));
        s.record(&ev(6));
        assert!(s.error().is_none());
        let buf = s.finish().expect("written");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with('{'));
    }

    /// Accepts `left` bytes, then fails every write; counts write calls.
    struct FailAfter {
        left: usize,
        calls: u32,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.left == 0 {
                return Err(io::Error::other("device full"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_keeps_the_first_error_and_stops_writing() {
        let failing = || {
            let mut s = JsonlSink::new(FailAfter {
                left: 100,
                calls: 0,
            });
            for i in 0..10 {
                s.record(&ev(i));
            }
            s
        };
        let mut s = failing();
        assert_eq!(
            s.error().map(io::Error::kind),
            Some(io::ErrorKind::Other),
            "a short write is an error"
        );
        let calls = s.writer.calls;
        s.record(&ev(11));
        TraceSink::flush(&mut s);
        assert_eq!(s.writer.calls, calls, "nothing is written after it");
        assert!(s.finish().is_err());
        // What a caller holding the simulator's boxed sink sees.
        let boxed: Box<dyn TraceSink> = Box::new(failing());
        let jsonl = boxed.as_any().downcast_ref::<JsonlSink<FailAfter>>();
        assert!(jsonl.and_then(JsonlSink::error).is_some());
    }

    #[test]
    fn sinks_downcast_through_as_any() {
        let mut boxed: Box<dyn TraceSink> = Box::new(RingSink::new(0));
        boxed.record(&ev(9));
        let ring = boxed.as_any().downcast_ref::<RingSink>().expect("ring");
        assert_eq!(ring.events.len(), 1);
    }
}
