//! The workspace's one JSON reader, and the JSONL codec for trace events.
//!
//! The workspace is offline (no serde), so this module carries the only
//! JSON tokenizer under `crates/`: [`parse`] reads a document into a
//! [`Value`] tree — objects, arrays, strings (UTF-8 sliced from the
//! input; `\"` and `\\` are the only escapes), numbers and bools, no
//! `null` — and is what the trace reader below, `pds_bench::baseline`
//! (bench records, `BENCHMARK.json`) and the static gate's fixture test
//! (clippy's diagnostics) use. Integers are kept exact: a bare digit
//! string that fits `u64` parses to [`Value::Int`], because the trace
//! carries ids up to `u64::MAX` that an `f64` would round.
//!
//! The trace schema is deliberately flat — one JSON object per line, values
//! restricted to unsigned integers, booleans and bare identifier strings —
//! and is declared once, in the `event` module's `trace_kinds!` table; the
//! writer and reader here walk that table. Field order in serialized
//! output is fixed (`t`, `node`, `phase`, `kind`, then payload fields in
//! declaration order), which makes traces byte-comparable with `diff(1)`
//! as well as with [`crate::first_divergence`].
//!
//! [`parse_line`] rejects everything the writer cannot have produced: a
//! line that is not one object, trailing garbage, a nested, fractional,
//! negative or out-of-`u64`-range value or an escaped string anywhere in
//! the line, a missing or mistyped field, an unknown phase or kind.

use crate::event::{Phase, TraceEvent, TraceKind};
use std::io::BufRead;
use std::path::Path;

/// A parse failure, with the offending line number when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 = unknown).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(message: impl Into<String>) -> ParseError {
    ParseError {
        line: 0,
        message: message.into(),
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A bare non-negative integer that fits `u64`, kept exact.
    Int(u64),
    /// Any other number (negative, fractional, exponent, or too large
    /// for `u64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An ordered array.
    Arr(Vec<Value>),
    /// An object as an ordered key-value list (duplicate keys keep the
    /// first occurrence on lookup).
    Obj(Vec<(String, Value)>),
}

/// Numbers compare by value, so `Int(2)` equals `Num(2.0)`: a record
/// that prints a whole `f64` as `2` still matches one that prints `2.0`.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => matches!((self.as_f64(), other.as_f64()), (Some(a), Some(b)) if a == b),
        }
    }
}

impl Value {
    /// Member lookup on objects; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if any (integers above 2⁵³ round).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if any.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if any.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, if any.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] (line 0, byte offset in the message) on
/// malformed input, trailing data, or nesting deeper than 64 levels.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(err(format!("trailing data at byte {}", p.pos)));
    }
    Ok(value)
}

/// Nesting bound: the parser recurses per level, and its input comes from
/// files, so a line of 100 000 `[` must be an error, not a stack overflow.
const MAX_DEPTH: usize = 64;

/// Recursive-descent state: a cursor over the input.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let rest = &self.src.as_bytes()[self.pos..];
        match rest.first() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') if rest.starts_with(b"true") => {
                self.pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if rest.starts_with(b"false") => {
                self.pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(err(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// The shape objects and arrays share — `open close`, or
    /// `open item (',' item)* close` — one nesting level down. The caller
    /// has seen the opening bracket.
    fn parse_seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(err(format!("nesting too deep at byte {}", self.pos)));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => {
                        let close = close as char;
                        return Err(err(format!(
                            "expected ',' or '{close}' at byte {}",
                            self.pos
                        )));
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn parse_object(&mut self) -> Result<Value, ParseError> {
        let mut members = Vec::new();
        self.parse_seq(b'}', |p| {
            p.skip_ws();
            let key = p.parse_string()?;
            p.eat(b':')?;
            members.push((key, p.parse_value()?));
            Ok(())
        })?;
        Ok(Value::Obj(members))
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        self.parse_seq(b']', |p| {
            items.push(p.parse_value()?);
            Ok(())
        })?;
        Ok(Value::Arr(items))
    }

    /// Copies the string out in UTF-8 slices: `"` and `\` are ASCII, so
    /// every cut lands on a character boundary.
    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        let mut start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    out.push_str(&self.src[start..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.src[start..self.pos]);
                    match self.src.as_bytes().get(self.pos + 1) {
                        Some(b'"' | b'\\') => {}
                        _ => return Err(err(format!("unsupported escape at byte {}", self.pos))),
                    }
                    // The escaped character opens the next slice.
                    start = self.pos + 1;
                    self.pos += 2;
                }
                _ => self.pos += 1,
            }
        }
        Err(err("unterminated string"))
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| err(format!("bad number at byte {start}")))
    }
}

/// A payload field type of the trace schema (`u64` or `bool`): how it is
/// written and which [`Value`] it reads back from.
pub(crate) trait Field: Sized {
    /// For "field 'x' is not …" errors.
    const EXPECTED: &'static str;
    fn push(&self, out: &mut String);
    fn read(v: &Value) -> Option<Self>;
    #[cfg(test)]
    fn sample(draw: u64) -> Self;
}

impl Field for u64 {
    const EXPECTED: &'static str = "an integer";
    fn push(&self, out: &mut String) {
        // itoa without allocation churn: u64::MAX is 20 digits.
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut v = *self;
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&buf[i..]).expect("digits"));
    }
    fn read(v: &Value) -> Option<u64> {
        match v {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
    #[cfg(test)]
    fn sample(draw: u64) -> u64 {
        draw
    }
}

impl Field for bool {
    const EXPECTED: &'static str = "a bool";
    fn push(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(v: &Value) -> Option<bool> {
        v.as_bool()
    }
    #[cfg(test)]
    fn sample(draw: u64) -> bool {
        draw & 1 == 1
    }
}

/// Appends `,"name":value`.
pub(crate) fn push_field(out: &mut String, name: &str, value: &impl Field) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    value.push(out);
}

/// Appends one event as a single-line JSON object (no trailing newline).
pub(crate) fn push_json(ev: &TraceEvent, out: &mut String) {
    out.push_str("{\"t\":");
    ev.at_us.push(out);
    push_field(out, "node", &u64::from(ev.node));
    out.push_str(",\"phase\":\"");
    out.push_str(ev.phase.name());
    out.push_str("\",\"kind\":\"");
    out.push_str(ev.kind.name());
    out.push('"');
    ev.kind.push_fields(out);
    out.push('}');
}

/// Serializes one event as a single-line JSON object (no trailing newline).
#[must_use]
pub fn to_json(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    push_json(ev, &mut s);
    s
}

/// The members of one parsed trace line, looked up by key.
pub(crate) struct Fields<'a>(&'a Value);

impl Fields<'_> {
    fn value(&self, key: &str) -> Result<&Value, ParseError> {
        self.0
            .get(key)
            .ok_or_else(|| err(format!("missing field '{key}'")))
    }

    pub(crate) fn get<T: Field>(&self, key: &str) -> Result<T, ParseError> {
        T::read(self.value(key)?)
            .ok_or_else(|| err(format!("field '{key}' is not {}", T::EXPECTED)))
    }

    fn str(&self, key: &str) -> Result<&str, ParseError> {
        self.value(key)?
            .as_str()
            .ok_or_else(|| err(format!("field '{key}' is not a string")))
    }
}

/// Parses one JSONL line back into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a [`ParseError`] when the line is not a flat object of the trace
/// schema or required fields are missing/mistyped (see the module docs for
/// the full list of rejections).
pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
    // The schema only emits bare identifiers, and JSON allows a backslash
    // only inside a string: any escape means a foreign or corrupted file.
    if line.contains('\\') {
        return Err(err("escape sequences are not part of the trace schema"));
    }
    let object = parse(line)?;
    let Value::Obj(members) = &object else {
        return Err(err("trace line is not an object"));
    };
    if let Some((key, _)) = members
        .iter()
        .find(|(_, v)| !matches!(v, Value::Int(_) | Value::Bool(_) | Value::Str(_)))
    {
        return Err(err(format!(
            "field '{key}': the schema allows unsigned ints, bools and strings"
        )));
    }
    let f = Fields(&object);
    let node = u32::try_from(f.get::<u64>("node")?).map_err(|_| err("node id exceeds u32"))?;
    let phase = f.str("phase")?;
    let phase = Phase::parse(phase).ok_or_else(|| err(format!("unknown phase '{phase}'")))?;
    Ok(TraceEvent {
        at_us: f.get("t")?,
        node,
        phase,
        kind: TraceKind::from_fields(f.str("kind")?, &f)?,
    })
}

/// Reads a whole JSONL trace from a reader. Blank lines are skipped.
///
/// # Errors
///
/// Returns the first I/O or parse error, annotated with its line number.
pub fn read_trace<R: BufRead>(reader: R) -> Result<Vec<TraceEvent>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| ParseError {
            line: i + 1,
            message: format!("read error: {e}"),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(&line).map_err(|mut e| {
            e.line = i + 1;
            e
        })?);
    }
    Ok(out)
}

/// Reads a JSONL trace file.
///
/// # Errors
///
/// Returns a [`ParseError`] if the file cannot be opened or any line fails
/// to parse.
pub fn read_trace_file(path: impl AsRef<Path>) -> Result<Vec<TraceEvent>, ParseError> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| err(format!("cannot open {}: {e}", path.as_ref().display())))?;
    read_trace(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every kind, exercising every payload field.
    pub(crate) fn one_of_each() -> Vec<TraceEvent> {
        let kinds = vec![
            TraceKind::NodeStart,
            TraceKind::MacTry { deferred: true },
            TraceKind::MacTry { deferred: false },
            TraceKind::TxEnd { tx: 7 },
            TraceKind::BucketDrain,
            TraceKind::TimerFired { timer: 11 },
            TraceKind::Control { ctrl: 2 },
            TraceKind::Sweep,
            TraceKind::TxStart {
                tx: 3,
                origin: 9,
                seq: 4,
                bytes: 1466,
                class: 1,
            },
            TraceKind::FrameDelivered { tx: 3, bytes: 1466 },
            TraceKind::FrameCollided { tx: 4 },
            TraceKind::FrameLostRandom { tx: 5 },
            TraceKind::FrameHalfDuplex { tx: 6 },
            TraceKind::FrameDroppedOs { bytes: 999 },
            TraceKind::QueueDepth { bytes: 4096 },
            TraceKind::FaultDeliver { fault: 14 },
            TraceKind::FaultCut { tx: 15 },
            TraceKind::FaultDropped { tx: 16 },
            TraceKind::FaultDelayed { tx: 17 },
            TraceKind::FaultDuplicated { tx: 18 },
            TraceKind::MessageSent {
                seq: 1,
                bytes: 540,
                class: 2,
            },
            TraceKind::MessageDelivered {
                origin: 9,
                seq: 1,
                bytes: 540,
                overheard: true,
            },
            TraceKind::MessageAcked { seq: 1 },
            TraceKind::MessageFailed { seq: 2 },
            TraceKind::Retransmit { seq: 2, frames: 3 },
            TraceKind::AckSent {
                origin: 9,
                seq: 1,
                bytes: 40,
            },
            TraceKind::QuerySent {
                query: u64::MAX,
                session: 7,
                seq: 21,
            },
            TraceKind::QuerySent {
                query: 51,
                session: 0,
                seq: 22,
            },
            TraceKind::QueryReceived {
                query: 88,
                from: 12,
            },
            TraceKind::ResponseSent {
                response: 0,
                query: 88,
                seq: 23,
            },
            TraceKind::ResponseReceived {
                response: 77,
                from: 3,
            },
            TraceKind::SessionStarted { session: 7 },
            TraceKind::SessionFinished {
                session: 7,
                delay_us: 1_250_000,
                rounds: 3,
                items: 45,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                at_us: i as u64 * 1000,
                node: if i % 5 == 0 { u32::MAX } else { i as u32 },
                phase: Phase::ALL[i % Phase::ALL.len()],
                kind,
            })
            .collect()
    }

    /// The wire format, pinned byte for byte: the fixture holds the lines
    /// of `one_of_each()`, generated by a hand-written per-variant writer
    /// independent of the schema table. Any change to those lines is a
    /// deliberate schema migration: regenerate the fixture AND update
    /// DESIGN.md §9 / §14 in the same PR.
    #[test]
    fn every_kind_round_trips() {
        let golden = include_str!("../tests/fixtures/one_of_each.jsonl");
        let events = one_of_each();
        assert_eq!(golden.lines().count(), events.len());
        for (ev, line) in events.iter().zip(golden.lines()) {
            assert_eq!(to_json(ev), line);
            let back = parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&back, ev, "round trip of {line}");
        }
    }

    /// A kind added to the schema table cannot skip the golden fixture
    /// (the property test below builds its kinds from the table itself).
    #[test]
    fn one_of_each_covers_every_declared_kind() {
        use std::collections::BTreeSet;
        let table = TraceKind::each(|| 0);
        let declared: BTreeSet<_> = table.iter().map(TraceKind::name).collect();
        assert_eq!(declared.len(), table.len(), "duplicate wire name");
        let covered: BTreeSet<_> = one_of_each().iter().map(|ev| ev.kind.name()).collect();
        assert_eq!(covered, declared);
    }

    #[test]
    fn whole_trace_round_trips_through_reader() {
        let events = one_of_each();
        let mut buf = String::new();
        for ev in &events {
            buf.push_str(&to_json(ev));
            buf.push('\n');
        }
        buf.push('\n'); // trailing blank line is tolerated
        let back = read_trace(buf.as_bytes()).expect("parse");
        assert_eq!(back, events);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"t\":1}").is_err(), "missing fields");
        assert!(
            parse_line("{\"t\":1,\"node\":0,\"phase\":\"kernel\",\"kind\":\"nope\"}").is_err(),
            "unknown kind"
        );
        assert!(
            parse_line("{\"t\":-5,\"node\":0,\"phase\":\"kernel\",\"kind\":\"sweep\"}").is_err(),
            "negative numbers are outside the schema"
        );
        assert!(
            parse_line("{\"t\":1,\"node\":0,\"phase\":\"kernel\",\"kind\":\"sweep\"}x").is_err(),
            "trailing garbage"
        );
        // `tail` follows `"tx":` in an otherwise valid line.
        let with_tx = |tail: &str| {
            parse_line(&format!(
                "{{\"t\":1,\"node\":0,\"phase\":\"kernel\",\"kind\":\"tx_end\",\"tx\":{tail}}}"
            ))
        };
        assert!(with_tx("7").is_ok());
        assert!(
            with_tx("7,\"tx\":true").is_ok(),
            "duplicate keys keep the first"
        );
        for (tail, why) in [
            ("7.0", "float in a field position"),
            ("7e0", "exponent in a field position"),
            ("{\"id\":7}", "nested object in a field position"),
            ("[7]", "array in a field position"),
            ("\"7\"", "string in an integer position"),
            ("\"\\\\7\"", "escaped string in a field position"),
            ("18446744073709551616", "u64::MAX + 1"),
            ("7,\"extra\":[]", "nested value under an unknown key"),
            (
                "7,\"extra\":\"\\\"\"",
                "escaped string under an unknown key",
            ),
        ] {
            assert!(with_tx(tail).is_err(), "{why}: {tail}");
        }
        assert!(
            parse_line("{\"t\":1,\"node\":4294967296,\"phase\":\"kernel\",\"kind\":\"sweep\"}")
                .is_err(),
            "node id beyond u32"
        );
        assert!(
            parse_line(&"[".repeat(100_000)).is_err(),
            "deep nesting is an error, not a stack overflow"
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "{\"t\":1,\"node\":0,\"phase\":\"kernel\",\"kind\":\"sweep\"}\nbroken\n";
        let e = read_trace(text.as_bytes()).expect_err("second line is broken");
        assert_eq!(e.line, 2);
    }

    /// The general reader behind `pds_bench::baseline::parse`.
    #[test]
    fn parse_reads_documents() {
        let v =
            parse(" {\"a\": [1, -2, 2.5, 1e3, true], \"s\": \"µs ≈ 1\", \"q\": \"a\\\"b\\\\c\"} ")
                .expect("parses");
        let a = v.get("a").and_then(Value::as_arr).expect("array");
        assert!(matches!(a[0], Value::Int(1)));
        assert!(matches!(a[1], Value::Num(n) if n == -2.0));
        assert_eq!(a[2].as_f64(), Some(2.5));
        assert_eq!(a[3].as_f64(), Some(1000.0));
        assert_eq!(a[4].as_bool(), Some(true));
        // Non-ASCII text is sliced as UTF-8, not widened byte by byte.
        assert_eq!(v.get("s").and_then(Value::as_str), Some("µs ≈ 1"));
        assert_eq!(v.get("q").and_then(Value::as_str), Some("a\"b\\c"));
        // Integers stay exact up to u64::MAX; one past it is a float.
        assert!(matches!(
            parse("18446744073709551615"),
            Ok(Value::Int(u64::MAX))
        ));
        assert!(matches!(parse("18446744073709551616"), Ok(Value::Num(_))));
        // Numbers compare by value across the two cases.
        assert_eq!(parse("2").unwrap(), parse("2.0").unwrap());
        assert_ne!(parse("2").unwrap(), parse("2.5").unwrap());
        assert_ne!(parse("1").unwrap(), parse("true").unwrap());
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "\"\\n\"",
            "1 2",
            "--1",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_phase() -> impl Strategy<Value = Phase> {
            any::<u64>().prop_map(|i| Phase::ALL[(i % Phase::ALL.len() as u64) as usize])
        }

        proptest! {
            /// Every kind of the schema table, with payload fields drawn
            /// over the full u64/bool range, so the codec's integer and
            /// bool paths are fuzzed — not just the hand-picked values in
            /// `one_of_each`.
            #[test]
            fn any_event_round_trips(
                at_us in any::<u64>(),
                node in any::<u32>(),
                phase in arb_phase(),
                payload in proptest::collection::vec(any::<u64>(), 8),
            ) {
                let mut draws = payload.into_iter().cycle();
                for kind in TraceKind::each(|| draws.next().expect("cycle of 8")) {
                    let ev = TraceEvent { at_us, node, phase, kind };
                    let line = to_json(&ev);
                    let back = parse_line(&line).expect("round trip parses");
                    prop_assert_eq!(back, ev);
                }
            }
        }
    }
}
