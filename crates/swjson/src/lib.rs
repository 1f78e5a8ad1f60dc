//! # swjson — minimal, dependency-free JSON for the swCaffe workspace
//!
//! The build environment is hermetic (no registry crates), so the
//! interchange formats in this repo — [`NetDef`](../swcaffe_core) files
//! and the [`swprof`](../swprof) benchmark reports CI gates on — are
//! (de)serialised through this small JSON library instead of serde.
//!
//! Design points that matter for the callers:
//!
//! * **Deterministic output.** Objects preserve insertion order and the
//!   writer is pure, so the same value always renders to the same bytes —
//!   the property `bench check` relies on to diff fresh runs against
//!   checked-in baselines.
//! * **Lossless numbers.** Integers are kept as `i64` (hardware counters:
//!   DMA bytes, flops, message counts) and only genuine reals go through
//!   `f64`, using Rust's shortest-roundtrip formatting.

use std::fmt::{self, Write as _};

/// A parse failure: what went wrong and the byte offset at which the
/// parser noticed. The offset indexes the *input bytes* (not chars), so
/// callers can point at the exact spot in a file or an editor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub(crate) offset: usize,
    pub(crate) msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Keeps `Json::parse(..)?` working in the many `Result<_, String>`
/// functions across the workspace.
impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// A JSON value. Objects are ordered key/value vectors, not maps, so
/// serialisation is deterministic and duplicate detection is explicit.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integral number (fits `i64`); kept exact.
    Int(i64),
    /// Real number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: integers widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline —
    /// the canonical on-disk format for baselines and reports.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0, true);
        out.push('\n');
        out
    }

    /// Render without any whitespace.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0, false);
        out
    }

    /// Parse a JSON document. Trailing content after the top-level value
    /// is an error carrying the byte offset of the failure.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

/// Convenience conversions for building values.
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        if v <= i64::MAX as u64 {
            Json::Int(v as i64)
        } else {
            Json::Num(v as f64)
        }
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// Builder for ordered objects: `obj().field("a", 1).field("b", "x").build()`.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    fields: Vec<(String, Json)>,
}

pub fn obj() -> ObjBuilder {
    ObjBuilder::default()
}

impl ObjBuilder {
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

fn write_value(out: &mut String, v: &Json, indent: usize, pretty: bool) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Num(n) => write_f64(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent + 1, pretty);
                write_value(out, item, indent + 1, pretty);
            }
            newline_indent(out, indent, pretty);
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent + 1, pretty);
                write_string(out, k);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, val, indent + 1, pretty);
            }
            newline_indent(out, indent, pretty);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: usize, pretty: bool) {
    if pretty {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
}

fn write_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-bad encoding.
        out.push_str("null");
        return;
    }
    if n == n.trunc() && n.abs() < 1e15 {
        // Keep integral reals readable and round-trippable as reals.
        let _ = write!(out, "{n:.1}");
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> ParseError {
        self.error_at(msg, self.pos)
    }

    fn error_at(&self, msg: &str, offset: usize) -> ParseError {
        ParseError {
            offset,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal (expected '{word}')")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(&format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_real = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_real = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Only ASCII digits/signs/exponents were consumed, so this slice
        // is valid UTF-8 by construction — but fail, don't panic, if the
        // invariant is ever broken.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error_at("invalid UTF-8 in number", start))?;
        if !is_real {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error_at(&format!("invalid number '{text}'"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "9007199254740993"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_compact_string(), text);
        }
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("-2e3").unwrap(), Json::Num(-2000.0));
    }

    #[test]
    fn big_counters_stay_exact() {
        // i64-range counters (DMA bytes, flops) survive exactly — the
        // reason Json::Int exists.
        let v = Json::Int(1_234_567_890_123_456_789);
        let back = Json::parse(&v.to_compact_string()).unwrap();
        assert_eq!(back.as_i64(), Some(1_234_567_890_123_456_789));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "tab\there \"quoted\" back\\slash\nnewline \u{1}ctl ünïcode 🚀";
        let v = Json::Str(s.to_string());
        let text = v.to_compact_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn surrogate_pair_parses() {
        assert_eq!(Json::parse(r#""🚀""#).unwrap().as_str(), Some("🚀"));
    }

    #[test]
    fn nested_structure_round_trips_pretty_and_compact() {
        let v = obj()
            .field("name", "fig2")
            .field("ok", true)
            .field(
                "metrics",
                Json::Arr(vec![Json::Int(1), Json::Num(2.5), Json::Null]),
            )
            .field("nested", obj().field("x", 1.0f64).build())
            .field("empty_arr", Json::Arr(vec![]))
            .field("empty_obj", Json::Obj(vec![]))
            .build();
        for text in [v.to_pretty_string(), v.to_compact_string()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let v = Json::parse(text).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn deterministic_rendering() {
        let v = obj()
            .field("a", 1.25f64)
            .field("b", Json::Arr(vec![Json::Int(3)]))
            .build();
        assert_eq!(v.to_pretty_string(), v.to_pretty_string());
        assert_eq!(
            v.to_pretty_string(),
            "{\n  \"a\": 1.25,\n  \"b\": [\n    3\n  ]\n}\n"
        );
    }

    #[test]
    fn integral_reals_keep_a_decimal_point() {
        // 2.0 must not collapse to "2" (which would re-parse as Int and
        // change the metric class on a round trip).
        let text = Json::Num(2.0).to_compact_string();
        assert_eq!(text, "2.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Num(2.0));
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn errors_carry_byte_offsets() {
        // The offset pins the failure to the exact input byte.
        let e = Json::parse(r#"{"a" 1}"#).unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(e.msg.contains("':'"), "{}", e.msg);
        let e = Json::parse("[1, 2, x]").unwrap_err();
        assert_eq!(e.offset, 7);
        // Number errors point at the number's first byte.
        let e = Json::parse("   1e999e9").unwrap_err();
        assert_eq!(e.offset, 3);
        // Display (and the String conversion used by `?` call sites)
        // includes the offset.
        assert!(String::from(e.clone()).contains("at byte 3"), "{e}");
    }

    #[test]
    fn non_finite_reals_encode_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact_string(), "null");
    }
}
