//! Hand-rolled JSON: an event serializer for the JSON-Lines sink and a
//! small validating parser so traces round-trip in tests and tools without
//! pulling in serde (DESIGN.md §5).

use crate::{Event, Value};
use std::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        // JSON has no Inf/NaN; encode as null.
        out.push_str("null");
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(f) => write_f64(*f, out),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => write_escaped(s, out),
        Value::Text(s) => write_escaped(s, out),
    }
}

/// Serialize one event as a single JSON object (no trailing newline):
/// `{"ev":"name","sub":"injection","level":"info","cycle":123,...fields}`.
pub fn write_event(ev: &Event, out: &mut String) {
    out.push_str("{\"ev\":");
    write_escaped(ev.name, out);
    out.push_str(",\"sub\":");
    write_escaped(ev.sub.name(), out);
    out.push_str(",\"level\":");
    write_escaped(ev.level.name(), out);
    if let Some(cycle) = ev.cycle {
        let _ = write!(out, ",\"cycle\":{cycle}");
    }
    for (k, v) in &ev.fields {
        out.push(',');
        write_escaped(k, out);
        out.push(':');
        write_value(v, out);
    }
    out.push('}');
}

/// Incremental builder for a single-line JSON object, for writers that are
/// not [`Event`]s (campaign journals, quarantine records). Keeps the
/// serializer hand-rolled and in one place (DESIGN.md §5).
///
/// ```
/// use sea_trace::json::ObjWriter;
/// let mut o = ObjWriter::new();
/// o.str_field("kind", "inject").u64_field("i", 7).bool_field("ok", true);
/// assert_eq!(o.finish(), r#"{"kind":"inject","i":7,"ok":true}"#);
/// ```
#[derive(Default)]
pub struct ObjWriter {
    buf: String,
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> ObjWriter {
        ObjWriter { buf: String::new() }
    }

    fn key(&mut self, k: &str) -> &mut String {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        write_escaped(k, &mut self.buf);
        self.buf.push(':');
        &mut self.buf
    }

    /// Appends a string member.
    pub fn str_field(&mut self, k: &str, v: &str) -> &mut ObjWriter {
        let buf = self.key(k);
        write_escaped(v, buf);
        self
    }

    /// Appends an unsigned-integer member. Note JSON numbers are only
    /// exact to 2^53; store full-width hashes/seeds as hex strings.
    pub fn u64_field(&mut self, k: &str, v: u64) -> &mut ObjWriter {
        let buf = self.key(k);
        let _ = write!(buf, "{v}");
        self
    }

    /// Appends a float member (non-finite values become `null`).
    pub fn f64_field(&mut self, k: &str, v: f64) -> &mut ObjWriter {
        let buf = self.key(k);
        write_f64(v, buf);
        self
    }

    /// Appends a member whose value is already serialized JSON (a nested
    /// object or array built by another writer). The caller is
    /// responsible for `json` being well-formed.
    pub fn raw_field(&mut self, k: &str, json: &str) -> &mut ObjWriter {
        let buf = self.key(k);
        buf.push_str(json);
        self
    }

    /// Appends a boolean member.
    pub fn bool_field(&mut self, k: &str, v: bool) -> &mut ObjWriter {
        let buf = self.key(k);
        buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the serialized line (no newline).
    pub fn finish(&mut self) -> String {
        if self.buf.is_empty() {
            return "{}".to_string();
        }
        let mut out = std::mem::take(&mut self.buf);
        out.push('}');
        out
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (held as f64; integers up to 2^53 are exact).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number as u64 (if integral and in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Render a parsed [`Json`] value back to compact text, member order
/// preserved. Integral numbers up to 2^53 print without a fraction, so a
/// parse → render round trip of integer-only documents (protocol frames,
/// canonical specs) is byte-stable.
pub fn render(j: &Json) -> String {
    let mut out = String::new();
    render_into(j, &mut out);
    out
}

fn render_into(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                let _ = std::fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
            } else {
                let _ = std::fmt::Write::write_fmt(out, format_args!("{n}"));
            }
        }
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (k, (key, val)) in members.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                write_escaped(key, out);
                out.push(':');
                render_into(val, out);
            }
            out.push('}');
        }
    }
}

/// Parse error: message plus byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest `[`/`{` nesting [`parse`] accepts; deeper input is a
/// [`ParseError`], so the recursive parser cannot overflow a thread's
/// stack on untrusted bytes (fleet protocol lines, observe POST bodies,
/// journal records). The deepest document the repo writes nests six deep:
/// the fleet daemon's `/status`, at `active.strata[].classes.<class>`.
pub const MAX_DEPTH: usize = 32;

/// Parse a complete JSON document (rejecting trailing garbage).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        b: input.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { msg, at: self.i }
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.b.get(self.i) {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("nested too deep")),
            Some(b'{' | b'[') => {
                self.depth += 1;
                let v = if self.b[self.i] == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &'static [u8], v: Json) -> Result<Json, ParseError> {
        if self.b[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}', "expected ',' or '}'")?;
            return Ok(Json::Obj(members));
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']', "expected ',' or ']'")?;
            return Ok(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while let Some(&c) = self.b.get(self.i) {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.i += 1;
            }
            // The skipped span is valid UTF-8 because the input is &str and
            // we only stopped at ASCII boundaries.
            out.push_str(std::str::from_utf8(&self.b[start..self.i]).expect("utf8 span"));
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = *self.b.get(self.i).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
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
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogate pairs: only BMP escapes are emitted
                            // by our writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        self.eat(b'-');
        while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.eat(b'.') {
            while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii number");
        text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            msg: "bad number",
            at: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Subsystem};

    #[test]
    fn event_serializes_and_parses_back() {
        let ev = Event::new(Subsystem::Injection, Level::Info, "injection.provenance")
            .at_cycle(98_765)
            .field("component", "L1D")
            .field("bit", 4321u64)
            .field("latency", -3i64)
            .field("rate", 0.25f64)
            .field("activated", true)
            .field("note", "quote \" backslash \\ tab \t".to_string());
        let mut line = String::new();
        write_event(&ev, &mut line);
        let j = parse(&line).unwrap();
        assert_eq!(j.get("ev").unwrap().as_str(), Some("injection.provenance"));
        assert_eq!(j.get("sub").unwrap().as_str(), Some("injection"));
        assert_eq!(j.get("level").unwrap().as_str(), Some("info"));
        assert_eq!(j.get("cycle").unwrap().as_u64(), Some(98_765));
        assert_eq!(j.get("component").unwrap().as_str(), Some("L1D"));
        assert_eq!(j.get("bit").unwrap().as_u64(), Some(4321));
        assert_eq!(j.get("latency").unwrap().as_f64(), Some(-3.0));
        assert_eq!(j.get("rate").unwrap().as_f64(), Some(0.25));
        assert_eq!(j.get("activated").unwrap().as_bool(), Some(true));
        assert_eq!(
            j.get("note").unwrap().as_str(),
            Some("quote \" backslash \\ tab \t")
        );
    }

    #[test]
    fn parser_handles_nesting_and_ws() {
        let j = parse(r#" { "a": [1, 2.5, -3e2, true, null], "b": { "c": "d" } } "#).unwrap();
        match j.get("a").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items.len(), 5);
                assert_eq!(items[1].as_f64(), Some(2.5));
                assert_eq!(items[2].as_f64(), Some(-300.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"a"}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)).unwrap_err().msg,
            "nested too deep"
        );
        // Far past any thread's stack if the parser recursed on it.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat(1 << 18)).is_err());
    }

    #[test]
    fn control_chars_escape_and_return() {
        let mut s = String::new();
        write_escaped("a\u{1}b", &mut s);
        assert_eq!(s, "\"a\\u0001b\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\u{1}b"));
    }

    #[test]
    fn unicode_survives_round_trip() {
        let mut s = String::new();
        write_escaped("héllo λ 日本", &mut s);
        assert_eq!(parse(&s).unwrap().as_str(), Some("héllo λ 日本"));
    }

    #[test]
    fn obj_writer_output_parses_back() {
        let mut o = ObjWriter::new();
        o.str_field("panic", "index out of bounds: len 4\n")
            .u64_field("i", 12)
            .f64_field("rate", 0.5)
            .f64_field("bad", f64::INFINITY)
            .bool_field("deterministic", false);
        let line = o.finish();
        let j = parse(&line).unwrap();
        assert_eq!(
            j.get("panic").unwrap().as_str(),
            Some("index out of bounds: len 4\n")
        );
        assert_eq!(j.get("i").unwrap().as_u64(), Some(12));
        assert_eq!(j.get("rate").unwrap().as_f64(), Some(0.5));
        assert_eq!(j.get("bad"), Some(&Json::Null));
        assert_eq!(j.get("deterministic").unwrap().as_bool(), Some(false));
        assert_eq!(ObjWriter::new().finish(), "{}");
    }

    #[test]
    fn raw_field_nests_objects_and_arrays() {
        let mut inner = ObjWriter::new();
        inner.str_field("label", "L1D").f64_field("margin", 0.04);
        let mut o = ObjWriter::new();
        o.str_field("state", "running")
            .raw_field("stratum", &inner.finish())
            .raw_field("classes", "[1,2,3]");
        let j = parse(&o.finish()).unwrap();
        assert_eq!(
            j.get("stratum").unwrap().get("label").unwrap().as_str(),
            Some("L1D")
        );
        match j.get("classes").unwrap() {
            Json::Arr(items) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let ev = Event::new(Subsystem::Beam, Level::Info, "x").field("v", f64::NAN);
        let mut line = String::new();
        write_event(&ev, &mut line);
        assert_eq!(parse(&line).unwrap().get("v"), Some(&Json::Null));
    }

    #[test]
    fn render_round_trips_integer_documents_byte_stable() {
        for doc in [
            r#"{"op":"done","wl":3,"start":128,"end":192,"obs":[[0,1],[5,3]]}"#,
            r#"{"s":"a\"b\\c","n":null,"t":true,"f":false,"deep":{"arr":[1,[2,{"k":3}]]}}"#,
            "[]",
            "{}",
            r#"[0,-7,9007199254740992]"#,
        ] {
            let parsed = parse(doc).unwrap();
            assert_eq!(render(&parsed), doc, "{doc}");
            // Render output is itself parseable to the same value.
            assert_eq!(parse(&render(&parsed)).unwrap(), parsed);
        }
        // Non-integral numbers re-parse to the same value even when the
        // textual form differs.
        let j = parse("{\"x\":0.25}").unwrap();
        assert_eq!(parse(&render(&j)).unwrap(), j);
    }
}
