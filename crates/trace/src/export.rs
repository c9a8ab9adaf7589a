//! Exporters and validation.
//!
//! [`chrome_trace_json`] renders a record stream in the Chrome
//! trace-event JSON format (load the file in `chrome://tracing` or
//! Perfetto to see per-chip and per-job timelines). One virtual cycle
//! is exported as one microsecond, so the viewer's time axis reads
//! directly in kilocycles per millisecond.
//!
//! The output is byte-deterministic: records render in stream order,
//! integers as integers, and every float with a fixed four-decimal
//! format. No wall-clock value ever enters the file.
//!
//! [`parse_json`] is a minimal offline JSON reader (the vendored serde
//! is an inert stub, so there is no `serde_json`); it exists so tests
//! and `ci.sh` can prove the exported artifact actually parses.

use crate::event::{ArgValue, Args, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out`, escaped for inclusion in a JSON string
/// literal.
pub(crate) fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` escaped for inclusion in a JSON string literal: the string
/// escaper every vsmooth JSON artifact shares.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(s, &mut out);
    out
}

/// A float at the artifact-wide fixed precision of four decimals.
pub fn json_f64(x: f64) -> String {
    format!("{x:.4}")
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\":\"");
    escape_json_into(value, out);
    out.push('"');
}

fn push_args(out: &mut String, args: &Args) {
    out.push_str(",\"args\":{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value {
            ArgValue::Str(s) => push_str_field(out, key, s),
            ArgValue::U64(v) => {
                let _ = write!(out, "\"{key}\":{v}");
            }
            ArgValue::F64(v) => {
                let _ = write!(out, "\"{key}\":{v:.4}");
            }
        }
    }
    out.push('}');
}

/// Renders one record as a JSON object. Shared with the incremental
/// streaming sink so batch and streamed exports are byte-identical.
pub(crate) fn push_event(out: &mut String, record: &TraceRecord) {
    out.push('{');
    match record {
        TraceRecord::Span {
            name,
            cat,
            pid,
            tid,
            ts,
            dur,
            args,
        } => {
            push_str_field(out, "name", name);
            let _ = write!(out, ",\"cat\":\"{cat}\",\"ph\":\"X\"");
            let _ = write!(
                out,
                ",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur}"
            );
            push_args(out, args);
        }
        TraceRecord::Instant {
            name,
            cat,
            pid,
            tid,
            ts,
            args,
        } => {
            push_str_field(out, "name", name);
            let _ = write!(out, ",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\"");
            let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}");
            push_args(out, args);
        }
        TraceRecord::Counter {
            name,
            pid,
            ts,
            value,
        } => {
            push_str_field(out, "name", name);
            let _ = write!(out, ",\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts}");
            let _ = write!(out, ",\"args\":{{\"value\":{value:.4}}}");
        }
        TraceRecord::ProcessName { pid, name } => {
            let _ = write!(out, "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid}");
            out.push_str(",\"args\":{");
            push_str_field(out, "name", name);
            out.push('}');
        }
        TraceRecord::ThreadName { pid, tid, name } => {
            let _ = write!(
                out,
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid}"
            );
            out.push_str(",\"args\":{");
            push_str_field(out, "name", name);
            out.push('}');
        }
    }
    out.push('}');
}

/// Renders a record stream as a `chrome://tracing`-loadable JSON
/// document.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        push_event(&mut out, record);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual-cycles\"}}\n");
    out
}

/// A parsed JSON value (offline stand-in for `serde_json::Value`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, key-sorted.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::String(self.string()?)),
            b't' if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            b'f' if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            b'n' if self.eat_literal("null") => Ok(JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.error("unexpected character")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // exporter; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                b if b < 0x80 => {
                    self.pos += 1;
                    out.push(b as char);
                }
                b => {
                    // Consume one multi-byte UTF-8 character. Decoding
                    // only its own bytes (length from the leading byte)
                    // keeps string parsing linear — validating the whole
                    // remaining input per character made large documents
                    // quadratic to parse.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.error("invalid utf-8")),
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.error("invalid utf-8"))?;
                    let c = std::str::from_utf8(chunk)
                        .map_err(|_| self.error("invalid utf-8"))?
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("invalid utf-8"))?;
                    self.pos += len;
                    out.push(c);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message with the failing byte offset.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing data"));
    }
    Ok(v)
}

/// Shape summary of a parsed Chrome trace, used by tests and `ci.sh`
/// to assert an export is well-formed and non-trivial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceShape {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete spans (`ph == "X"`).
    pub spans: usize,
    /// Instants (`ph == "i"`).
    pub instants: usize,
    /// Counter samples (`ph == "C"`).
    pub counters: usize,
    /// Droop instants (`cat == "droop"`).
    pub droops: usize,
}

/// Parses `json` as a Chrome trace document and summarizes its shape.
///
/// # Errors
///
/// Fails if the document does not parse or lacks a `traceEvents`
/// array.
pub fn validate_chrome_trace(json: &str) -> Result<TraceShape, String> {
    let doc = parse_json(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut shape = TraceShape {
        events: events.len(),
        ..TraceShape::default()
    };
    for event in events {
        let ph = event.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        match ph {
            "X" => shape.spans += 1,
            "i" => shape.instants += 1,
            "C" => shape.counters += 1,
            _ => {}
        }
        if event.get("cat").and_then(JsonValue::as_str) == Some("droop") {
            shape.droops += 1;
        }
    }
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DroopEvent, PID_JOBS};
    use crate::tracer::Tracer;

    fn sample_tracer() -> Tracer {
        let t = Tracer::enabled();
        t.process_name(PID_JOBS, "jobs");
        t.thread_name(PID_JOBS, 3, "job 3");
        t.complete(
            "429.mcf",
            "job",
            PID_JOBS,
            3,
            100,
            2_000,
            vec![("chip", 1usize.into()), ("ipc", 0.75.into())],
        );
        t.instant("admit", "job", PID_JOBS, 3, 100, vec![]);
        t.droop(DroopEvent {
            chip: 1,
            core: 0,
            cycle: 1_234,
            depth_pct: 2.8125,
            workloads: vec!["429.mcf".into()],
            phase: "epoch2".into(),
        });
        t
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let json = sample_tracer().to_chrome_json();
        let shape = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(shape.events, 6);
        assert_eq!(shape.spans, 1);
        assert_eq!(shape.instants, 2);
        assert_eq!(shape.counters, 1);
        assert_eq!(shape.droops, 1);
    }

    #[test]
    fn export_is_deterministic() {
        let a = sample_tracer().to_chrome_json();
        let b = sample_tracer().to_chrome_json();
        assert_eq!(a, b);
    }

    #[test]
    fn droop_args_survive_export() {
        let json = sample_tracer().to_chrome_json();
        let doc = parse_json(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let droop = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("droop"))
            .expect("droop instant");
        let args = droop.get("args").expect("args");
        assert_eq!(
            args.get("depth_pct").and_then(JsonValue::as_f64),
            Some(2.8125)
        );
        assert_eq!(
            args.get("phase").and_then(JsonValue::as_str),
            Some("epoch2")
        );
    }

    #[test]
    fn strings_are_escaped() {
        let t = Tracer::enabled();
        t.process_name(PID_JOBS, "a\"b\\c\nd");
        let json = t.to_chrome_json();
        let doc = parse_json(&json).expect("escapes parse back");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let name = events[0].get("args").unwrap().get("name").unwrap();
        assert_eq!(name.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn parser_handles_scalars_and_nesting() {
        let v = parse_json(r#"{"a":[1,-2.5e1,true,false,null,"s"],"b":{}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2], JsonValue::Bool(true));
        assert_eq!(a[4], JsonValue::Null);
        assert_eq!(a[5].as_str(), Some("s"));
        assert_eq!(v.get("b"), Some(&JsonValue::Object(BTreeMap::new())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(validate_chrome_trace("{\"noEvents\":[]}").is_err());
    }

    #[test]
    fn empty_tracer_exports_an_empty_but_valid_document() {
        let json = Tracer::enabled().to_chrome_json();
        let shape = validate_chrome_trace(&json).unwrap();
        assert_eq!(shape.events, 0);
    }

    #[test]
    fn shared_helpers_escape_and_fix_precision() {
        assert_eq!(escape_json("a\"b\\c\nd\re"), "a\\\"b\\\\c\\nd\\re");
        assert_eq!(escape_json("\u{01}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(json_f64(1.0), "1.0000");
        assert_eq!(json_f64(-0.12345), "-0.1235");
    }
}
