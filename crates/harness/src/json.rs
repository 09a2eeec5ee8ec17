//! A small, dependency-free JSON value type with a writer and a
//! strict recursive-descent parser ([`Reader`]), which can also read
//! typed parts of a document without building a [`Json`] tree.
//!
//! The container image carries no external crates, so the harness
//! rolls its own serialization. Design points that matter here:
//!
//! - Objects preserve insertion order (`Vec<(String, Json)>`), so
//!   serialization is deterministic — the sweep runner's
//!   parallel-equals-serial guarantee is checked on the emitted bytes.
//! - Integers are kept distinct from floats (`i64`/`u64` vs `f64`),
//!   so cycle counts round-trip exactly.
//! - Floats are written with Rust's shortest-roundtrip `Display`,
//!   which re-parses to the identical `f64`.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integer (covers final-memory words).
    Int(i64),
    /// Unsigned integer (covers cycle counts).
    UInt(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object; panics on non-objects (builder
    /// misuse, not data-dependent).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object"),
        }
        self
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::UInt(v) if v <= i64::MAX as u64 => Some(v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(v) => Some(v),
            Json::Int(v) => Some(v as f64),
            Json::UInt(v) => Some(v as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Canonical form: every object's fields sorted by key,
    /// recursively (arrays keep their order — element order is
    /// semantically significant). Two documents that differ only in
    /// field order canonicalize to identical values, so their compact
    /// serializations — and therefore their content hashes — agree.
    pub fn canonicalize(self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.into_iter().map(Json::canonicalize).collect()),
            Json::Obj(fields) => {
                let mut fields: Vec<(String, Json)> = fields
                    .into_iter()
                    .map(|(k, v)| (k, v.canonicalize()))
                    .collect();
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(fields)
            }
            other => other,
        }
    }

    /// Compact serialization (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Pretty serialization, two-space indent.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let mut s = String::new();
        let _ = write!(s, "{v}");
        // `Display` omits ".0" on integral floats; keep the float/int
        // distinction visible so round-trips preserve the variant.
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        out.push_str(&s);
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Parse a JSON document; rejects trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut r = Reader::new(input.as_bytes());
    let value = r.value()?;
    r.end()?;
    Ok(value)
}

/// A byte cursor over one JSON document: the strict recursive-descent
/// parser behind [`parse`], with typed reads for callers that want
/// part of a document without building a [`Json`] tree for all of it.
///
/// Every read accepts exactly the text [`Reader::value`] accepts and
/// fails wherever the matching [`Json`] accessor would (a typed read
/// of `1.0` as an integer fails like `Json::Num(1.0).as_i64()`), so a
/// caller mixing typed reads, [`Reader::skip`] and `value` keeps
/// [`parse`]'s accept/reject set. Input need not be valid UTF-8:
/// strings are validated as they are read, and any other non-ASCII
/// byte is a syntax error.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Succeeds when only whitespace is left.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    /// Read one value as a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.fields(|r, key| {
                    fields.push((key.to_string(), r.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(_) => self.number(),
        }
    }

    /// Validate one value and move past it without building it.
    pub fn skip(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.elements(Reader::skip),
            Some(b'{') => self.fields(|r, _| r.skip()),
            _ => self.value().map(drop),
        }
    }

    /// Walk an object, calling `field` with each key and the reader
    /// positioned at its value, which `field` must consume.
    pub fn fields(
        &mut self,
        mut field: impl FnMut(&mut Reader<'a>, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            field(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Walk an array, calling `element` with the reader positioned at
    /// each element, which `element` must consume.
    #[inline]
    pub fn elements(
        &mut self,
        mut element: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Read an array of integers that fit `i64` ([`Json::as_i64`]).
    pub fn i64_array(&mut self) -> Result<Vec<i64>, String> {
        // Sized by the commas before the first `]`, exact for an integer
        // array: a memory image is allocated once, with no regrowth and
        // no slack. Bounded by the input's length either way.
        let mut commas = 0;
        for &b in &self.bytes[self.pos..] {
            match b {
                b']' => break,
                b',' => commas += 1,
                _ => {}
            }
        }
        let mut out = Vec::with_capacity(commas + 1);
        self.elements(|r| {
            r.skip_ws();
            out.push(match r.plain_int() {
                Some((true, magnitude)) => (magnitude as i64).wrapping_neg(),
                Some((false, magnitude)) if magnitude <= i64::MAX as u64 => magnitude as i64,
                _ => r.scalar(Json::as_i64, "an i64")?,
            });
            Ok(())
        })?;
        Ok(out)
    }

    /// Read a non-negative integer ([`Json::as_u64`]).
    pub fn u64(&mut self) -> Result<u64, String> {
        self.scalar(Json::as_u64, "a u64")
    }

    /// Read a string; borrowed from the input unless it has escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.string()
    }

    /// Consume a `null` if one comes next; otherwise read nothing.
    pub fn null(&mut self) -> bool {
        self.skip_ws();
        let found = self.bytes[self.pos..].starts_with(b"null");
        if found {
            self.pos += 4;
        }
        found
    }

    /// A number read through `accessor`; any other value is an error.
    #[inline]
    fn scalar<T>(
        &mut self,
        accessor: impl Fn(&Json) -> Option<T>,
        what: &str,
    ) -> Result<T, String> {
        self.skip_ws();
        let start = self.pos;
        let value = match self.peek() {
            Some(b'n' | b't' | b'f' | b'"' | b'[' | b'{') | None => None,
            Some(_) => accessor(&self.number()?),
        };
        value.ok_or_else(|| format!("expected {what} at byte {start}"))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", ch as char, self.pos))
        }
    }

    fn lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        // Allocated at the first escape; until then the string is a
        // slice of the input.
        let mut owned: Option<String> = None;
        loop {
            // Copy the run up to the next quote or backslash whole.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&bytes[start..self.pos]).map_err(|e| e.to_string())?;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                _ => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// A number; plain integers take [`Reader::plain_int`], the rest
    /// [`Reader::number_text`].
    #[inline]
    fn number(&mut self) -> Result<Json, String> {
        match self.plain_int() {
            // Non-negative integers (`-0` included) come back as UInt
            // so u64 fields round-trip through their own variant.
            Some((true, magnitude)) if magnitude != 0 => {
                Ok(Json::Int((magnitude as i64).wrapping_neg()))
            }
            Some((_, magnitude)) => Ok(Json::UInt(magnitude)),
            None => self.number_text(),
        }
    }

    /// Consume a plain integer — digits after an optional `-`, not
    /// followed by more of a number — whose value fits `u64` (or `i64`
    /// when negative), accumulating the digits in place. Returns
    /// `(negative, magnitude)`, or `None` with nothing consumed.
    #[inline]
    fn plain_int(&mut self) -> Option<(bool, u64)> {
        let negative = self.peek() == Some(b'-');
        let digits = self.pos + usize::from(negative);
        let (mut end, mut magnitude) = (digits, 0u64);
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(end) {
            if magnitude >= u64::MAX / 10 {
                return None; // this digit may overflow
            }
            magnitude = magnitude * 10 + u64::from(b - b'0');
            end += 1;
        }
        let more = matches!(self.bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if end == digits || more || (negative && magnitude > 1 << 63) {
            return None;
        }
        self.pos = end;
        Some((negative, magnitude))
    }

    /// The lexer takes a maximal run of `[0-9.eE+-]` after an optional
    /// leading `-` and hands it to `str::parse`: floats, integers that
    /// overflow, and malformed runs.
    #[cold]
    fn number_text(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.is_empty() || text == "-" {
            return Err(format!("invalid number at byte {start}"));
        }
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(if v >= 0 {
                    Json::UInt(v as u64)
                } else {
                    Json::Int(v)
                });
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("invalid number {text:?}: {e}"))
    }
}

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
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
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
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let doc = Json::obj()
            .field("name", "sweep \"x\"\n")
            .field("cycles", u64::MAX)
            .field("word", -42i64)
            .field("frac", 0.1875f64)
            .field("flag", true)
            .field("none", Json::Null)
            .field("rows", Json::Arr(vec![Json::UInt(1), Json::Int(-2)]));
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = parse(&text).unwrap();
            assert_eq!(back.to_string_compact(), doc.to_string_compact());
        }
    }

    #[test]
    fn u64_max_survives() {
        let text = Json::UInt(u64::MAX).to_string_compact();
        assert_eq!(parse(&text).unwrap(), Json::UInt(u64::MAX));
    }

    #[test]
    fn float_display_is_reparsable() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 12345.6789] {
            let text = Json::Num(v).to_string_compact();
            match parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(back, v),
                other => panic!("float reparsed as {other:?}"),
            }
        }
        // Integral floats keep their ".0" marker.
        assert_eq!(Json::Num(2.0).to_string_compact(), "2.0");
    }

    #[test]
    fn canonicalize_sorts_keys_recursively() {
        let a = parse(r#"{"b":{"y":1,"x":2},"a":[{"q":1,"p":2}]}"#).unwrap();
        let b = parse(r#"{"a":[{"p":2,"q":1}],"b":{"x":2,"y":1}}"#).unwrap();
        assert_eq!(
            a.canonicalize().to_string_compact(),
            b.canonicalize().to_string_compact()
        );
        // Arrays keep element order: [1,2] and [2,1] stay distinct.
        let c = parse("[1,2]").unwrap().canonicalize();
        assert_eq!(c.to_string_compact(), "[1,2]");
    }

    /// The lexer's accept/reject table. Every expectation was produced
    /// by the character-at-a-time parser this one replaced (one
    /// `from_utf8` per string character, every number through
    /// `str::parse`), so the table pins that grammar, quirks included:
    /// `-0` and `007` are integers, `+1` and `1.` are floats, `\u`
    /// takes `u32::from_str_radix`'s sign and surrogates are rejected.
    #[test]
    fn lexer_edge_cases_match_the_previous_parser() {
        use Json::{Int, Num, Str, UInt};
        let ok: &[(&str, Json)] = &[
            ("-0", UInt(0)),
            ("007", UInt(7)),
            ("-00", UInt(0)),
            ("0", UInt(0)),
            ("00000000000000000000000001", UInt(1)),
            ("1.0", Num(1.0)),
            ("1e3", Num(1000.0)),
            ("1E+2", Num(100.0)),
            ("-0.0", Num(-0.0)),
            ("+1", Num(1.0)),
            ("1.", Num(1.0)),
            (".5", Num(0.5)),
            ("1e999", Num(f64::INFINITY)),
            ("-1", Int(-1)),
            ("9223372036854775807", UInt(9223372036854775807)),
            ("9223372036854775808", UInt(9223372036854775808)),
            ("18446744073709551615", UInt(u64::MAX)),
            ("18446744073709551616", Num(1.8446744073709552e19)),
            ("-9223372036854775808", Int(i64::MIN)),
            ("-9223372036854775809", Num(-9.223372036854776e18)),
            ("[007,-0]", Json::Arr(vec![UInt(7), UInt(0)])),
            (
                r#""a\"b\\c\/d\n\r\t\b\f""#,
                Str("a\"b\\c/d\n\r\t\u{8}\u{c}".into()),
            ),
            (r#""\u0041\u00e9""#, Str("A\u{e9}".into())),
            (r#""\u+041""#, Str("A".into())),
            (
                "\"h\u{e9}llo \u{2713} \u{1d11e}\"",
                Str("h\u{e9}llo \u{2713} \u{1d11e}".into()),
            ),
            ("\"tab\there\"", Str("tab\there".into())),
            ("\"\"", Str(String::new())),
        ];
        for (text, want) in ok {
            let got = parse(text).unwrap_or_else(|e| panic!("{text:?} rejected: {e}"));
            // `PartialEq` on f64 would also accept a variant change of
            // an integral value; compare the variants through Debug.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{text:?}");
        }
        let rejected = [
            "1-2",
            "--1",
            "-",
            "1e",
            "\"abc",
            "\"\u{e9}",
            "\"a\\",
            r#""\x""#,
            r#""\u12""#,
            r#""\u00zz""#,
            r#""\ud800""#,
        ];
        for text in rejected {
            assert!(parse(text).is_err(), "{text:?} accepted");
        }
    }

    /// Typed reads accept what `value` accepts and the matching
    /// accessor takes, and skip validates what it passes over.
    #[test]
    fn typed_reads_agree_with_the_tree() {
        let mut r = Reader::new(br#"{"a":[1,-2,0],"s":"x\ny","n":null,"u":7,"z":[{"q":[]}]}"#);
        let mut seen = Vec::new();
        r.fields(|r, key| {
            match key {
                "a" => assert_eq!(r.i64_array()?, vec![1, -2, 0]),
                "s" => assert_eq!(r.str()?, "x\ny"),
                "n" => assert!(r.null()),
                "u" => assert_eq!(r.u64()?, 7),
                _ => r.skip()?,
            }
            seen.push(key.to_string());
            Ok(())
        })
        .unwrap();
        r.end().unwrap();
        assert_eq!(seen, ["a", "s", "n", "u", "z"]);

        for bad in [
            "[1.0]",
            "[null]",
            "[\"1\"]",
            "[18446744073709551615]",
            "[1,]",
            "1",
        ] {
            assert!(Reader::new(bad.as_bytes()).i64_array().is_err(), "{bad}");
        }
        for bad in ["-1", "1.5", "\"7\"", "null"] {
            assert!(Reader::new(bad.as_bytes()).u64().is_err(), "{bad}");
        }
        let bad_values: [&[u8]; 5] = [b"[1,]", b"{\"a\"}", b"\"\\q\"", b"tru", b"[\"\xff\"]"];
        for bad in bad_values {
            assert!(Reader::new(bad).skip().is_err(), "{bad:?}");
        }
        // Strings without escapes are borrowed from the input.
        assert!(matches!(
            Reader::new(b"\"plain\"").str(),
            Ok(Cow::Borrowed("plain"))
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("").is_err());
    }
}
