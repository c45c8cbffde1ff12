//! A tiny hand-rolled JSON value type shared across the workspace: enough
//! to *emit* the `BENCH_*.json` reports and `nsr-obs/v1` JSON-lines, and to
//! *parse them back* for validation (the CI smoke steps re-read what the
//! harnesses wrote and check the schemas).
//!
//! The workspace is intentionally dependency-free, so this replaces
//! `serde_json` for the narrow subset the reports need: objects, arrays,
//! strings, finite numbers, booleans and null. Numbers are stored as
//! `f64`; non-finite values are rendered as `null` (JSON has no NaN).
//! Strings support the full escape repertoire including surrogate pairs
//! (`😀` decodes to `😀`); *lone* surrogates remain a parse
//! error because they are not Unicode scalar values.
//!
//! It lives here rather than in `nsr-bench` so every crate can emit
//! structured records without `nsr-bench`'s heavier dependency closure.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, when `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline — the
    /// exact format checked into the repository's `BENCH_*.json` files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on a single line with no indentation or trailing newline —
    /// the format used for `nsr-obs/v1` JSON-lines records, where each
    /// record must occupy exactly one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    fn render_compact_into(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => {
                self.render_into(out, 0);
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_compact_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Integral values print without a fraction; others with
                    // enough digits to round-trip through `parse`.
                    if *n == n.trunc() && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
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
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    render_string(k, out);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Returns a descriptive error (with byte
    /// offset) on malformed input.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                offset: pos,
                what: "trailing characters after the document",
            });
        }
        Ok(value)
    }
}

/// A JSON parse error: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for ParseError {}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str, what: &'static str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError { offset: *pos, what })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError {
            offset: *pos,
            what: "unexpected end of input",
        }),
        Some(b'n') => expect(bytes, pos, "null", "expected `null`").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true", "expected `true`").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false", "expected `false`").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            what: "expected `,` or `]` in array",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":", "expected `:` after object key")?;
                map.insert(key, parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            what: "expected `,` or `}` in object",
                        })
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Reads four hex digits starting at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, &'static str> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    std::str::from_utf8(hex)
        .ok()
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or("invalid \\u escape")
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError {
            offset: *pos,
            what: "expected `\"`",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(ParseError {
                    offset: *pos,
                    what: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = hex4(bytes, *pos + 1)
                            .map_err(|what| ParseError { offset: *pos, what })?;
                        match code {
                            // A high surrogate must be immediately followed
                            // by an escaped low surrogate; the pair decodes
                            // to one supplementary-plane scalar.
                            0xd800..=0xdbff => {
                                if bytes.get(*pos + 5) != Some(&b'\\')
                                    || bytes.get(*pos + 6) != Some(&b'u')
                                {
                                    return Err(ParseError {
                                        offset: *pos,
                                        what: "unpaired high surrogate in \\u escape",
                                    });
                                }
                                let low = hex4(bytes, *pos + 7).map_err(|what| ParseError {
                                    offset: *pos + 6,
                                    what,
                                })?;
                                if !(0xdc00..=0xdfff).contains(&low) {
                                    return Err(ParseError {
                                        offset: *pos + 6,
                                        what: "unpaired high surrogate in \\u escape",
                                    });
                                }
                                let scalar = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                let c = char::from_u32(scalar).ok_or(ParseError {
                                    offset: *pos,
                                    what: "\\u escape is not a scalar value",
                                })?;
                                out.push(c);
                                *pos += 10;
                            }
                            // A low surrogate with no preceding high half
                            // is not a scalar value.
                            0xdc00..=0xdfff => {
                                return Err(ParseError {
                                    offset: *pos,
                                    what: "unpaired low surrogate in \\u escape",
                                })
                            }
                            _ => {
                                let c = char::from_u32(code).ok_or(ParseError {
                                    offset: *pos,
                                    what: "\\u escape is not a scalar value",
                                })?;
                                out.push(c);
                                *pos += 4;
                            }
                        }
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            what: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(&b) => {
                // Copy the full UTF-8 sequence starting at this byte.
                let start = *pos;
                let len = match b {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = bytes.get(start..start + len).ok_or(ParseError {
                    offset: start,
                    what: "truncated UTF-8 sequence",
                })?;
                let s = std::str::from_utf8(chunk).map_err(|_| ParseError {
                    offset: start,
                    what: "invalid UTF-8 in string",
                })?;
                out.push_str(s);
                *pos += len;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| ParseError {
        offset: start,
        what: "invalid number",
    })?;
    text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
        offset: start,
        what: "invalid number",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shaped_document() {
        let doc = Json::obj([
            ("schema", Json::Str("nsr-bench/v1".into())),
            ("suite", Json::Str("erasure".into())),
            (
                "results",
                Json::Arr(vec![Json::obj([
                    ("name", Json::Str("gf256/mul_acc_64k".into())),
                    ("ns_per_iter", Json::Num(19_531.25)),
                    ("bytes_per_iter", Json::Num(65_536.0)),
                    ("mib_per_s", Json::Num(3_200.0)),
                ])]),
            ),
        ]);
        let text = doc.render();
        assert!(text.ends_with('\n'));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("nsr-bench/v1")
        );
        let results = back.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(
            results[0].get("ns_per_iter").and_then(Json::as_f64),
            Some(19_531.25)
        );
    }

    #[test]
    fn parses_literals_escapes_and_nesting() {
        let back =
            Json::parse(r#" { "a": [1, -2.5e3, true, false, null], "b": "x\n\"y\"A" } "#).unwrap();
        assert_eq!(back.get("b").and_then(Json::as_str), Some("x\n\"y\"A"));
        let a = back.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[1], Json::Num(-2500.0));
        assert_eq!(a[4], Json::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "[1,]e",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Json::parse("{\"a\": nope}").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn decodes_surrogate_pairs() {
        // U+1F600 as an escaped pair, the case the old parser rejected.
        let back = Json::parse(r#""😀""#).unwrap();
        assert_eq!(back, Json::Str("😀".into()));
        // Pair embedded mid-string, with surrounding text intact.
        let back = Json::parse(r#""pre 𝒜 post""#).unwrap();
        assert_eq!(back, Json::Str("pre 𝒜 post".into()));
    }

    #[test]
    fn surrogate_pair_escape_round_trips_through_render() {
        // The renderer emits non-BMP characters as raw UTF-8; both the raw
        // and the escaped spelling must parse back to the same document.
        let doc = Json::obj([("label", Json::Str("node-😀-𝒜".into()))]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        let escaped = "{\"label\": \"node-\\ud83d\\ude00-\\ud835\\udc9c\"}";
        assert_eq!(Json::parse(escaped).unwrap(), doc);
    }

    #[test]
    fn rejects_lone_surrogates() {
        for bad in [
            r#""\ud83d""#,       // lone high at end of string
            r#""\ud83d rest""#,  // high followed by plain text
            r#""\ud83d\n""#,     // high followed by a non-\u escape
            r#""\ud83dA""#,      // high followed by a non-surrogate
            r#""\ud83d\ud83d""#, // high followed by another high
            r#""\ude00""#,       // lone low
            r#""x\ude00y""#,     // lone low mid-string
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn render_compact_is_single_line_and_round_trips() {
        let doc = Json::obj([
            ("schema", Json::Str("nsr-obs/v1".into())),
            ("value", Json::Num(42.0)),
            ("tags", Json::Arr(vec![Json::Str("a".into()), Json::Null])),
            ("nested", Json::obj([("k", Json::Bool(true))])),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
        assert_eq!(Json::Obj(BTreeMap::new()).render_compact(), "{}");
        assert_eq!(Json::Arr(vec![]).render_compact(), "[]");
    }
}
