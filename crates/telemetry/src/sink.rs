//! Trace sinks: the JSON-lines encoding and its parser.
//!
//! Each record becomes one line with a fixed key order:
//!
//! ```json
//! {"type":"span","name":"api.call","t0":0,"t1":1.25,"id":3,"parent":1,"attrs":{"endpoint":"followers_ids"}}
//! ```
//!
//! `id` and `parent` appear only when the record carries them (spans
//! recorded through a [`TraceContext`](crate::TraceContext)); flat records
//! keep the pre-causal shape. The schema deliberately contains **only
//! sim-time fields** (`t0`, `t1`); no wall-clock timestamp ever enters a
//! record, so traces from identical seeds are byte-identical. Strings and
//! numbers are written through [`crate::json`]: numbers in Rust's
//! shortest round-trip `f64` form, which is itself deterministic.
//!
//! [`parse_jsonl`] reads the encoding back through [`json::parse`], so the
//! `fakeaudit trace` subcommands analyze traces from disk. It checks each
//! record's fields, whatever their order.

use crate::json::{self, Num, Quoted, Value};
use crate::trace::{EventKind, SpanId, TraceEvent};
use std::fmt::Write as _;
use std::io::{self, Write};

/// Encodes one record as a single JSON line (no trailing newline).
pub fn event_to_json(e: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"type\":\"{}\",\"name\":{},\"t0\":{},\"t1\":{}",
        e.kind.as_str(),
        Quoted(&e.name),
        Num(e.t0),
        Num(e.t1)
    );
    if let Some(SpanId(id)) = e.id {
        let _ = write!(out, ",\"id\":{id}");
    }
    if let Some(SpanId(parent)) = e.parent {
        let _ = write!(out, ",\"parent\":{parent}");
    }
    out.push_str(",\"attrs\":{");
    for (i, (k, v)) in e.attrs.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}{}:{}", Quoted(k), Quoted(v));
    }
    out.push_str("}}");
    out
}

/// Writes every record as JSON lines.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl<W: Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    let mut sink = JsonlSink::new(w);
    for e in events {
        sink.write_event(e)?;
    }
    sink.flush()
}

/// How many encoded bytes [`JsonlSink`] accumulates before issuing one
/// `write_all` to the underlying writer.
pub const DEFAULT_SINK_BUFFER: usize = 64 * 1024;

/// A buffered JSONL writer: encodes each event into an internal buffer
/// and hands the buffer to the underlying writer in large chunks, so a
/// trace dump is a handful of `write` syscalls instead of two per event.
///
/// The encoding is [`event_to_json`] + `\n` exactly — output through a
/// sink is byte-identical to the historical line-at-a-time writer, which
/// the golden-trace fixtures pin.
///
/// An optional byte cap ([`JsonlSink::with_max_bytes`]) bounds the total
/// output: once writing a line would exceed the cap, that line and all
/// later ones are dropped (counted by [`JsonlSink::dropped`]) rather than
/// truncated mid-record, so a capped file is still valid JSONL. The
/// wall-clock gateway uses this so tracing can never fill a disk while a
/// listener runs unattended.
///
/// Buffered bytes reach the writer only on [`JsonlSink::flush`] /
/// [`JsonlSink::into_inner`] (or when the buffer crosses its threshold);
/// callers that need durability must flush explicitly.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    buf: Vec<u8>,
    flush_threshold: usize,
    max_bytes: Option<u64>,
    /// Bytes accepted (buffered or written) so far.
    accepted: u64,
    dropped: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink with the default buffer threshold and no byte cap.
    pub fn new(out: W) -> Self {
        Self::with_threshold(out, DEFAULT_SINK_BUFFER)
    }

    /// A sink flushing to `out` whenever the buffer reaches
    /// `flush_threshold` bytes (minimum 1: every event flushes).
    pub fn with_threshold(out: W, flush_threshold: usize) -> Self {
        Self {
            out,
            buf: Vec::with_capacity(flush_threshold.clamp(1, DEFAULT_SINK_BUFFER)),
            flush_threshold: flush_threshold.max(1),
            max_bytes: None,
            accepted: 0,
            dropped: 0,
        }
    }

    /// Caps total output at `cap` bytes; whole lines past the cap are
    /// dropped and counted.
    #[must_use]
    pub fn with_max_bytes(mut self, cap: u64) -> Self {
        self.max_bytes = Some(cap);
        self
    }

    /// Encodes and buffers one event.
    ///
    /// Returns `false` if the event was dropped by the byte cap.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer when the buffer
    /// spills.
    pub fn write_event(&mut self, e: &TraceEvent) -> io::Result<bool> {
        let line = event_to_json(e);
        let needed = line.len() as u64 + 1;
        if let Some(cap) = self.max_bytes {
            if self.accepted + needed > cap {
                self.dropped += 1;
                return Ok(false);
            }
        }
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.accepted += needed;
        if self.buf.len() >= self.flush_threshold {
            self.spill()?;
        }
        Ok(true)
    }

    /// Events rejected by the byte cap so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes accepted (buffered or written) so far.
    pub fn bytes_accepted(&self) -> u64 {
        self.accepted
    }

    fn spill(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Writes any buffered bytes and flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.spill()?;
        self.out.flush()
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final flush.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.flush()?;
        Ok(self.out)
    }
}

/// A parse failure: the offending (1-based) line and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one line of the writer's encoding back into a [`TraceEvent`].
fn parse_line(line: &str) -> Result<TraceEvent, String> {
    let Value::Obj(mut record) = json::parse(line)? else {
        return Err("a trace record must be an object".into());
    };
    let mut field = |key: &str| {
        let i = record.iter().position(|(k, _)| k == key)?;
        Some(record.swap_remove(i).1)
    };
    let kind = match field("type") {
        Some(Value::Str(kind)) if kind == "span" => EventKind::Span,
        Some(Value::Str(kind)) if kind == "event" => EventKind::Point,
        Some(Value::Str(other)) => return Err(format!("unknown record type {other:?}")),
        _ => return Err("missing string field \"type\"".into()),
    };
    let Some(Value::Str(name)) = field("name") else {
        return Err("missing string field \"name\"".into());
    };
    // A non-finite time was written as `null`.
    let time = |key: &str, value: Option<Value>| match value {
        Some(Value::Num(t)) => Ok(t),
        Some(Value::Null) => Ok(f64::NAN),
        _ => Err(format!("missing numeric field {key:?}")),
    };
    let t0 = time("t0", field("t0"))?;
    let t1 = time("t1", field("t1"))?;
    let span_id = |key: &str, value: Option<Value>| match value {
        None => Ok(None),
        Some(Value::Num(id)) => Ok(Some(SpanId(id as u64))),
        Some(_) => Err(format!("field {key:?} is not a number")),
    };
    let id = span_id("id", field("id"))?;
    let parent = span_id("parent", field("parent"))?;
    let Some(Value::Obj(pairs)) = field("attrs") else {
        return Err("missing object field \"attrs\"".into());
    };
    let attrs = pairs
        .into_iter()
        .map(|(k, v)| match v {
            Value::Str(v) => Ok((k.into_owned(), v.into_owned())),
            _ => Err(format!("attribute {k:?} is not a string")),
        })
        .collect::<Result<_, String>>()?;
    Ok(TraceEvent {
        kind,
        name: name.into_owned(),
        t0,
        t1,
        id,
        parent,
        attrs,
    })
}

/// Parses a JSONL trace written by [`write_jsonl`]. Blank lines are
/// skipped.
///
/// # Errors
///
/// [`ParseError`] with the first offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            parse_line(line).map_err(|message| ParseError {
                line: i + 1,
                message,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_key_order_and_values() {
        let e = TraceEvent::span("api.call", 0.0, 1.25, &[("endpoint", "followers_ids")]);
        assert_eq!(
            event_to_json(&e),
            "{\"type\":\"span\",\"name\":\"api.call\",\"t0\":0,\"t1\":1.25,\
             \"attrs\":{\"endpoint\":\"followers_ids\"}}"
        );
    }

    #[test]
    fn identity_fields_are_encoded_when_present() {
        let e = TraceEvent::span_in("s", 0.0, 1.0, &[], SpanId(4), Some(SpanId(2)));
        assert_eq!(
            event_to_json(&e),
            "{\"type\":\"span\",\"name\":\"s\",\"t0\":0,\"t1\":1,\
             \"id\":4,\"parent\":2,\"attrs\":{}}"
        );
        let root = TraceEvent::span_in("r", 0.0, 1.0, &[], SpanId(1), None);
        assert!(!event_to_json(&root).contains("parent"));
    }

    #[test]
    fn point_event_repeats_time() {
        let e = TraceEvent::point("quota.rejected", 3.5, &[]);
        assert_eq!(
            event_to_json(&e),
            "{\"type\":\"event\",\"name\":\"quota.rejected\",\"t0\":3.5,\"t1\":3.5,\"attrs\":{}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = TraceEvent::point("x", 0.0, &[("k", "a\"b\\c\nd")]);
        let line = event_to_json(&e);
        assert!(line.contains("a\\\"b\\\\c\\nd"));
        assert_eq!(json::Escaped("\u{1}").to_string(), "\\u0001");
    }

    #[test]
    fn non_finite_becomes_null() {
        let e = TraceEvent::point("x", f64::NAN, &[]);
        assert!(event_to_json(&e).contains("\"t0\":null"));
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let events = vec![
            TraceEvent::point("a", 0.0, &[]),
            TraceEvent::point("b", 1.0, &[]),
        ];
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let events = vec![
            TraceEvent::span_in(
                "server.request",
                0.0,
                4.5,
                &[("tool", "TA"), ("outcome", "completed")],
                SpanId(1),
                None,
            ),
            TraceEvent::span_in(
                "api.call",
                1.0,
                2.25,
                &[("endpoint", "x")],
                SpanId(2),
                Some(SpanId(1)),
            ),
            TraceEvent::point_in("server.shed", 9.0, &[("tool", "SB")], Some(SpanId(1))),
            TraceEvent::point("quota.rejected", 3.0, &[]),
            TraceEvent::span("legacy.flat", 0.5, 0.75, &[("k", "va\"l\nue")]),
        ];
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let parsed = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_skips_blank_lines_and_reports_position() {
        let text = "\n{\"type\":\"event\",\"name\":\"a\",\"t0\":0,\"t1\":0,\"attrs\":{}}\n\n";
        assert_eq!(parse_jsonl(text).unwrap().len(), 1);
        let err = parse_jsonl("{\"type\":\"span\"").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("trace line 1"));
        let err = parse_jsonl("{\"type\":\"blob\",\"name\":\"a\",\"t0\":0,\"t1\":0,\"attrs\":{}}")
            .unwrap_err();
        assert!(err.message.contains("unknown record type"));
    }

    #[test]
    fn parse_handles_null_times() {
        let line = "{\"type\":\"event\",\"name\":\"x\",\"t0\":null,\"t1\":null,\"attrs\":{}}";
        let e = &parse_jsonl(line).unwrap()[0];
        assert!(e.t0.is_nan() && e.t1.is_nan());
    }

    #[test]
    fn parse_takes_fields_in_any_order_and_checks_each() {
        let line = "{\"attrs\":{\"k\":\"v\"},\"t1\":2,\"parent\":1,\"name\":\"x\",\
                    \"t0\":1,\"id\":2,\"type\":\"span\"}";
        let e = &parse_jsonl(line).unwrap()[0];
        assert_eq!(
            e,
            &TraceEvent::span_in("x", 1.0, 2.0, &[("k", "v")], SpanId(2), Some(SpanId(1)))
        );
        for (bad, message) in [
            (
                "{\"type\":\"span\",\"t0\":0,\"t1\":0,\"attrs\":{}}",
                "\"name\"",
            ),
            (
                "{\"type\":\"span\",\"name\":\"x\",\"t0\":0,\"t1\":0,\"attrs\":{\"k\":1}}",
                "not a string",
            ),
            ("[]", "must be an object"),
        ] {
            let err = parse_jsonl(&format!("\n{bad}")).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.message.contains(message), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        let line = "{\"type\":\"event\",\"name\":\"x\",\"t0\":0,\"t1\":0,\"attrs\":{}} extra";
        assert!(parse_jsonl(line).unwrap_err().message.contains("trailing"));
    }

    /// A writer that records each `write` call so tests can observe how
    /// many syscall-equivalents the sink issues.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_events(n: usize) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| TraceEvent::point(&format!("event{i}"), i as f64, &[("k", "v")]))
            .collect()
    }

    #[test]
    fn sink_output_is_byte_identical_to_unbuffered_writer() {
        let events = sample_events(50);
        let mut unbuffered = Vec::new();
        for e in &events {
            unbuffered.extend_from_slice(event_to_json(e).as_bytes());
            unbuffered.push(b'\n');
        }
        let mut buffered = Vec::new();
        write_jsonl(&events, &mut buffered).unwrap();
        assert_eq!(buffered, unbuffered);
    }

    #[test]
    fn sink_batches_writes() {
        let events = sample_events(100);
        let mut w = CountingWriter::default();
        let mut sink = JsonlSink::new(&mut w);
        for e in &events {
            sink.write_event(e).unwrap();
        }
        sink.flush().unwrap();
        // 100 events, well under the 64 KiB threshold: one spill at flush.
        assert_eq!(w.writes, 1);
        assert_eq!(
            parse_jsonl(std::str::from_utf8(&w.bytes).unwrap()).unwrap(),
            events
        );
    }

    #[test]
    fn sink_spills_when_threshold_crossed() {
        let events = sample_events(10);
        let mut w = CountingWriter::default();
        let mut sink = JsonlSink::with_threshold(&mut w, 1);
        for e in &events {
            sink.write_event(e).unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(w.writes, 10);
    }

    #[test]
    fn sink_holds_bytes_until_flush() {
        let mut w = CountingWriter::default();
        let mut sink = JsonlSink::new(&mut w);
        sink.write_event(&TraceEvent::point("a", 0.0, &[])).unwrap();
        assert!(sink.bytes_accepted() > 0);
        sink.flush().unwrap();
        assert!(!w.bytes.is_empty());
    }

    #[test]
    fn sink_cap_drops_whole_lines() {
        let events = sample_events(10);
        let one_line = event_to_json(&events[0]).len() as u64 + 1;
        let mut out = Vec::new();
        let mut sink = JsonlSink::new(&mut out).with_max_bytes(one_line * 3 + 1);
        let mut accepted = 0;
        for e in &events {
            if sink.write_event(e).unwrap() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 3);
        assert_eq!(sink.dropped(), 7);
        sink.flush().unwrap();
        // Capped output is still valid JSONL — no mid-record truncation.
        let parsed = parse_jsonl(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn sink_into_inner_flushes() {
        let events = sample_events(3);
        let sink = {
            let mut sink = JsonlSink::new(Vec::new());
            for e in &events {
                sink.write_event(e).unwrap();
            }
            sink
        };
        let out = sink.into_inner().unwrap();
        assert_eq!(
            parse_jsonl(std::str::from_utf8(&out).unwrap()).unwrap(),
            events
        );
    }
}
