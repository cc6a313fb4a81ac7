//! Minimal JSON emission and validation.
//!
//! The workspace builds offline against a no-op `serde` stand-in, so this
//! module provides the two things the serving layer actually needs: a
//! small builder that emits well-formed JSON objects/arrays, and a strict
//! recursive-descent validator: every `sesr` bench harness checks its
//! report with it before writing, and `bench-gate` parses through it.

use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON number (non-finite values become `null`,
/// which JSON has no way to express as a number).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental JSON object builder. Consuming-builder style:
///
/// ```
/// use sesr_serve::json::JsonObject;
/// let j = JsonObject::new().str("name", "m5").int("scale", 2).finish();
/// assert_eq!(j, r#"{"name":"m5","scale":2}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        let _ = write!(self.buf, "\"{}\":", escape(k));
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    /// Adds an unsigned integer field.
    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a floating-point field (`null` if non-finite).
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialized JSON value (object, array, …) verbatim.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Serializes pre-serialized JSON values into an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

/// Validates that `s` is one complete, well-formed JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with a
/// byte offset.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    parse_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        None => Err(format!("unexpected end of input at byte {i}", i = *i)),
        Some(b'{') => parse_object(b, i),
        Some(b'[') => parse_array(b, i),
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, "true"),
        Some(b'f') => parse_lit(b, i, "false"),
        Some(b'n') => parse_lit(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        Some(c) => Err(format!("unexpected byte {c:?} at {i}", i = *i)),
    }
}

fn parse_object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // consume '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at byte {i}", i = *i));
        }
        parse_string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}", i = *i));
        }
        *i += 1;
        skip_ws(b, i);
        parse_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}", i = *i)),
        }
    }
}

fn parse_array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // consume '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        parse_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {i}", i = *i)),
        }
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // consume '"'
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        for k in 1..=4 {
                            if !b.get(*i + k).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {i}", i = *i));
                            }
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at byte {i}", i = *i)),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {i}", i = *i)),
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}", i = *i))
    }
}

/// A parsed JSON document, for reading values back out of bench reports
/// (the gate in `scripts/bench_gate.sh` compares fresh runs against the
/// committed baselines without shelling out to python).
///
/// Object members keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, with a byte
    /// offset.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        validate(s)?;
        let b = s.as_bytes();
        let mut i = 0usize;
        skip_ws(b, &mut i);
        Ok(read_value(b, &mut i))
    }

    /// Walks `path` through nested objects; `None` if any key is absent
    /// or an intermediate value is not an object.
    pub fn get(&self, path: &[&str]) -> Option<&JsonValue> {
        let mut cur = self;
        for key in path {
            let JsonValue::Object(members) = cur else {
                return None;
            };
            cur = members.iter().find(|(k, _)| k == key).map(|(_, v)| v)?;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The member keys in document order, if this is an object.
    pub fn as_object_keys(&self) -> Option<Vec<String>> {
        match self {
            JsonValue::Object(members) => Some(members.iter().map(|(k, _)| k.clone()).collect()),
            _ => None,
        }
    }
}

// The readers below assume `validate` has already accepted the document,
// so they only have to materialize values, not diagnose errors.
fn read_value(b: &[u8], i: &mut usize) -> JsonValue {
    match b[*i] {
        b'{' => {
            *i += 1;
            let mut members = Vec::new();
            skip_ws(b, i);
            if b[*i] == b'}' {
                *i += 1;
                return JsonValue::Object(members);
            }
            loop {
                skip_ws(b, i);
                let key = read_string(b, i);
                skip_ws(b, i);
                *i += 1; // ':'
                skip_ws(b, i);
                members.push((key, read_value(b, i)));
                skip_ws(b, i);
                let sep = b[*i];
                *i += 1;
                if sep == b'}' {
                    return JsonValue::Object(members);
                }
            }
        }
        b'[' => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b[*i] == b']' {
                *i += 1;
                return JsonValue::Array(items);
            }
            loop {
                skip_ws(b, i);
                items.push(read_value(b, i));
                skip_ws(b, i);
                let sep = b[*i];
                *i += 1;
                if sep == b']' {
                    return JsonValue::Array(items);
                }
            }
        }
        b'"' => JsonValue::String(read_string(b, i)),
        b't' => {
            *i += 4;
            JsonValue::Bool(true)
        }
        b'f' => {
            *i += 5;
            JsonValue::Bool(false)
        }
        b'n' => {
            *i += 4;
            JsonValue::Null
        }
        _ => {
            let start = *i;
            while b.get(*i).is_some_and(|c| {
                matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') || c.is_ascii_digit()
            }) {
                *i += 1;
            }
            let text = std::str::from_utf8(&b[start..*i]).expect("validated number is ASCII");
            JsonValue::Number(text.parse().expect("validated number parses"))
        }
    }
}

fn read_string(b: &[u8], i: &mut usize) -> String {
    *i += 1; // opening '"'
    let mut out = String::new();
    loop {
        match b[*i] {
            b'"' => {
                *i += 1;
                return out;
            }
            b'\\' => {
                *i += 1;
                match b[*i] {
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = std::str::from_utf8(&b[*i + 1..*i + 5]).unwrap_or("");
                        let code = u32::from_str_radix(hex, 16).unwrap_or(0xFFFD);
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *i += 4;
                    }
                    c => out.push(c as char),
                }
                *i += 1;
            }
            _ => {
                // Copy one UTF-8 scalar (multi-byte sequences arrive as
                // raw bytes; the document was already validated as &str).
                let start = *i;
                *i += 1;
                while b.get(*i).is_some_and(|c| c & 0xC0 == 0x80) {
                    *i += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*i]).expect("input was valid UTF-8"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_valid_json() {
        let inner = JsonObject::new().num("p50_ms", 1.25).finish();
        let doc = JsonObject::new()
            .str("name", "queue \"wait\"\n")
            .int("count", 42)
            .bool("ok", true)
            .num("nan_becomes_null", f64::NAN)
            .raw("stages", &array(vec![inner]))
            .finish();
        validate(&doc).unwrap();
        assert!(doc.contains("\\\"wait\\\"\\n"));
        assert!(doc.contains("null"));
    }

    #[test]
    fn validator_accepts_canonical_documents() {
        for ok in [
            "{}",
            "[]",
            "3",
            "-0.5e+10",
            r#"{"a":[1,2,{"b":null}],"c":"x"}"#,
            "  [true, false]  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn value_parser_reads_back_builder_output() {
        let doc = JsonObject::new()
            .str("bench", "sesr-train")
            .raw(
                "results",
                &JsonObject::new()
                    .raw("m5", &JsonObject::new().num("steps_per_sec", 12.5).finish())
                    .raw(
                        "m11",
                        &JsonObject::new().num("steps_per_sec", 7.25).finish(),
                    )
                    .finish(),
            )
            .finish();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(
            v.get(&["bench"]).and_then(JsonValue::as_str),
            Some("sesr-train")
        );
        assert_eq!(
            v.get(&["results", "m5", "steps_per_sec"])
                .and_then(JsonValue::as_f64),
            Some(12.5)
        );
        assert_eq!(
            v.get(&["results"]).and_then(JsonValue::as_object_keys),
            Some(vec!["m5".to_string(), "m11".to_string()])
        );
        assert!(v.get(&["results", "m7", "steps_per_sec"]).is_none());
    }

    #[test]
    fn value_parser_handles_escapes_arrays_and_literals() {
        let v = JsonValue::parse(r#"{"s":"a\"b\nA","a":[1,-2.5e1,true,null]}"#).unwrap();
        assert_eq!(v.get(&["s"]).and_then(JsonValue::as_str), Some("a\"b\nA"));
        let JsonValue::Array(items) = v.get(&["a"]).unwrap() else {
            panic!("expected array");
        };
        assert_eq!(items[0], JsonValue::Number(1.0));
        assert_eq!(items[1], JsonValue::Number(-25.0));
        assert_eq!(items[2], JsonValue::Bool(true));
        assert_eq!(items[3], JsonValue::Null);
        assert!(JsonValue::parse("{oops").is_err());
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "{'a':1}",
            "1 2",
            "\"unterminated",
            "{\"a\":01e}",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "{bad} should be rejected");
        }
    }
}
