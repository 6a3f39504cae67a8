//! The workspace's one JSON module: the string escaper and number
//! format every writer shares, the one reader, and the `BENCH_*.json`
//! envelope.
//!
//! Writers keep their own format strings and splice values in through
//! [`Quoted`], [`Num`] and [`OrNull`], so the escaping rules and the
//! `null` for a non-finite number are decided here once. A number whose
//! schema fixes its decimals (a query cell's `{:.4}`, a BENCH file's
//! latencies) stays the caller's format.
//!
//! [`parse`] reads any JSON document into a [`Value`] tree whose strings
//! borrow from the input unless they carry an escape. The trace parser
//! (`sink::parse_jsonl`) and the bench ledger read through it.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// `s` JSON-escaped, without surrounding quotes: `"`, `\` and the
/// control characters below U+0020 are escaped (`\n`, `\r` and `\t` by
/// name, the rest as `\u00XX`); everything else is written as is.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut plain = 0;
        for (i, c) in s.char_indices() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                c if (c as u32) < 0x20 => None,
                _ => continue,
            };
            f.write_str(&s[plain..i])?;
            match short {
                Some(escape) => f.write_str(escape)?,
                None => write!(f, "\\u{:04x}", c as u32)?,
            }
            plain = i + c.len_utf8();
        }
        f.write_str(&s[plain..])
    }
}

/// A quoted, escaped JSON string.
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", Escaped(self.0))
    }
}

/// An f64 as JSON: a finite value in its shortest round-trip form,
/// anything else as `null` (JSON has no infinity or NaN).
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// `Some` value as JSON, or `null`.
pub struct OrNull<T>(pub Option<T>);

impl<T: fmt::Display> fmt::Display for OrNull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => f.write_str("null"),
        }
    }
}

/// Writes a `BENCH_*.json` document in the layout every bench shares:
/// `schema_version` 1 and `bench`, then `config` with one member per
/// line, then `members` in the caller's order, one per line. Values are
/// JSON text the caller formatted; a `scenarios` array comes from
/// [`bench_rows`].
pub fn bench_json(bench: &str, config: &[(&str, String)], members: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\n  \"schema_version\": 1,\n  \"bench\": {},\n  \"config\": {{",
        Quoted(bench)
    );
    for (i, (key, value)) in config.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\n    {}: {value}", Quoted(key));
    }
    out.push_str("\n  }");
    for (key, value) in members {
        let _ = write!(out, ",\n  {}: {value}", Quoted(key));
    }
    out.push_str("\n}\n");
    out
}

/// A BENCH file's `scenarios` array: one object per line.
pub fn bench_rows(rows: &[String]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\n    {row}");
    }
    out.push_str("\n  ]");
    out
}

/// A parsed JSON value. Numbers are f64; strings borrow from the input
/// unless they carry an escape; object members keep their input order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, escapes decoded.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, in input order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl Value<'_> {
    /// Member `key` of an object (the first, if repeated); `None`
    /// otherwise.
    pub fn get(&self, key: &str) -> Option<&Self> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The f64 behind a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The str behind a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_arr(&self) -> Option<&[Self]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest before [`parse`] gives up, so
/// that no input can exhaust the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; whitespace may surround it.
///
/// # Errors
///
/// A message naming the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value<'_>, String> {
    let mut reader = Reader {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != text.len() {
        return Err(format!("trailing data at byte {}", reader.pos));
    }
    Ok(value)
}

/// A recursive-descent cursor over one document.
struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value<'a>, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn nested(
        &mut self,
        read: fn(&mut Self) -> Result<Value<'a>, String>,
    ) -> Result<Value<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = read(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    /// Reads a string. Each run of plain text is found with one scan and
    /// copied at most once; a string with no escape borrows its run.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            // `"` and `\` are ASCII, so both ends of the run are char
            // boundaries.
            let plain = &self.text[start..start + run];
            self.pos = start + run + 1;
            if self.bytes[start + run] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(plain),
                    Some(mut s) => {
                        s.push_str(plain);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(plain);
            s.push(self.escape()?);
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let c = match self.bytes.get(at) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                let code = self
                    .text
                    .get(at + 1..at + 5)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                self.pos += 4;
                // The writers never emit surrogate pairs; an unpaired
                // surrogate decodes to U+FFFD.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {at}")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn array(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value<'a>, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakeaudit_check::{check, Rng};

    /// Characters that exercise every escaping rule: quotes, backslashes,
    /// named and numbered control characters, DEL, and multi-byte text.
    const TRICKY: &str = "ab \"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}é€😀{}[],:";

    fn arbitrary_string(rng: &mut Rng) -> String {
        if rng.coin() {
            rng.string(TRICKY, 0..24)
        } else {
            // Any scalar value, surrogates excluded by `from_u32`.
            (0..rng.range(0..12usize))
                .filter_map(|_| char::from_u32(rng.below(0x11_0000) as u32))
                .collect()
        }
    }

    fn arbitrary_f64(rng: &mut Rng) -> f64 {
        match rng.below(4) {
            0 => f64::from_bits(rng.next_u64()),
            1 => rng.pick(&[
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::INFINITY,
                f64::NAN,
            ]),
            2 => rng.range(-1e6..1e6),
            _ => rng.range(-1_000_000i64..1_000_000) as f64 / 1000.0,
        }
    }

    #[test]
    fn escaped_writes_the_shared_rules() {
        assert_eq!(Escaped("a\"b\\c\nd").to_string(), "a\\\"b\\\\c\\nd");
        assert_eq!(
            Escaped("\r\t\u{1}\u{7f}é").to_string(),
            "\\r\\t\\u0001\u{7f}é"
        );
        assert_eq!(Quoted("x").to_string(), "\"x\"");
        assert_eq!(Num(1.0).to_string(), "1");
        assert_eq!(Num(0.1).to_string(), "0.1");
        assert_eq!(Num(f64::NAN).to_string(), "null");
        assert_eq!(OrNull(Some(Num(2.5))).to_string(), "2.5");
        assert_eq!(OrNull::<Num>(None).to_string(), "null");
    }

    #[test]
    fn quoted_strings_parse_back_to_themselves() {
        check("quoted strings round-trip", 512, arbitrary_string, |s| {
            let text = Quoted(s).to_string();
            assert_eq!(parse(&text), Ok(Value::Str(Cow::Borrowed(s.as_str()))));
        });
    }

    #[test]
    fn numbers_parse_back_exactly_or_as_null() {
        check("numbers round-trip", 512, arbitrary_f64, |&x| {
            let text = Num(x).to_string();
            let parsed = parse(&text).unwrap();
            if x.is_finite() {
                assert_eq!(parsed.as_f64().map(f64::to_bits), Some(x.to_bits()));
            } else {
                assert_eq!(parsed, Value::Null);
            }
        });
    }

    #[test]
    fn arbitrary_input_never_panics_the_readers() {
        let draw = |rng: &mut Rng| {
            if rng.coin() {
                rng.string("{}[]\":,\\ntrueflsu0123456789.-+eE \n", 0..48)
            } else {
                // A real trace line, cut and patched at random.
                let line = "{\"type\":\"span\",\"name\":\"a\\\"b\",\"t0\":0,\"t1\":1.5,\
                            \"id\":2,\"parent\":1,\"attrs\":{\"k\":\"v\\u0001\"}}";
                let mut bytes = line.as_bytes()[..rng.range(0..line.len() + 1)].to_vec();
                for _ in 0..rng.range(0..3usize) {
                    let i = rng.range(0..bytes.len() + 1);
                    bytes.insert(i, rng.pick(b"{}[]\":,\\u9 "));
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
        };
        check("readers never panic", 2048, draw, |text| {
            let _ = parse(text);
            let _ = crate::sink::parse_jsonl(text);
        });
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn bench_envelope_matches_the_shared_layout() {
        let doc = bench_json(
            "demo",
            &[("seed", "7".to_owned()), ("mode", Quoted("x").to_string())],
            &[
                (
                    "scenarios",
                    bench_rows(&["{\"a\": 1}".to_owned(), "{}".to_owned()]),
                ),
                ("extra", "0".to_owned()),
            ],
        );
        assert_eq!(
            doc,
            "{\n  \"schema_version\": 1,\n  \"bench\": \"demo\",\n  \"config\": {\n    \
             \"seed\": 7,\n    \"mode\": \"x\"\n  },\n  \"scenarios\": [\n    {\"a\": 1},\n    \
             {}\n  ],\n  \"extra\": 0\n}\n"
        );
        assert_eq!(
            bench_json("e", &[], &[("scenarios", bench_rows(&[]))]),
            "{\n  \"schema_version\": 1,\n  \"bench\": \"e\",\n  \"config\": {\n  },\n  \
             \"scenarios\": [\n  ]\n}\n"
        );
    }

    /// A bench JSON in the E11 shape.
    fn bench_doc() -> String {
        bench_json(
            "gateway",
            &[
                ("seed", "7".to_owned()),
                ("allocs_per_req", "120.5".to_owned()),
            ],
            &[
                ("breaker_trips", "0".to_owned()),
                (
                    "scenarios",
                    bench_rows(&["{\"name\": \"closed_loop\", \"mode\": \"closed\", \
                                  \"requests_per_sec\": 100.00, \"p50_ms\": 1.000, \
                                  \"p95_ms\": 2.000, \"p99_ms\": 3.000, \"shed_rate\": 0.0}"
                        .to_owned()]),
                ),
            ],
        )
    }

    #[test]
    fn reader_handles_the_bench_schema() {
        let text = bench_doc();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("gateway"));
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("seed"))
                .and_then(Value::as_f64),
            Some(7.0)
        );
        let scenarios = doc.get("scenarios").and_then(Value::as_arr).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(
            scenarios[0].get("p99_ms").and_then(Value::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn reader_rejects_malformed_input() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
        // Escapes and nesting round-trip.
        let v = parse(" {\"s\": \"a\\n\\\"b\\\"\", \"l\": [true, null, -2.5e1]} ").unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\n\"b\""));
        assert_eq!(v.get("l").and_then(Value::as_arr).unwrap().len(), 3);
        assert_eq!(
            v.get("l").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-25.0)
        );
    }
}
