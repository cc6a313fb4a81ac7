//! Minimal JSON emission and validation.
//!
//! The workspace builds offline against a no-op `serde` stand-in, so this
//! module provides the two things the serving layer actually needs: a
//! small builder that emits well-formed JSON objects/arrays, and a strict
//! recursive-descent parser: every `sesr` bench harness checks its report
//! with it before writing, and `bench-gate` reads baselines through it.

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
    JsonValue::parse(s).map(|_| ())
}

/// A parsed JSON document, for reading values back out of bench reports
/// (`sesr bench-gate` rebuilds a lane's configuration from its baseline
/// and compares the fresh run against it without shelling out).
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
        let mut p = Parser { s, i: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
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

/// Recursive-descent parser: one pass that checks the grammar and builds
/// the value, reporting the first error with its byte offset.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            None => Err(format!("unexpected end of input at byte {}", self.i)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:?} at {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.members(b'}', |p| {
            if p.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", p.i));
            }
            let key = p.string()?;
            p.skip_ws();
            if p.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", p.i));
            }
            p.i += 1;
            p.skip_ws();
            Ok((key, p.value()?))
        })
        .map(JsonValue::Object)
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.members(b']', Self::value).map(JsonValue::Array)
    }

    /// The comma-separated members of an object or array, from its
    /// opening byte through `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1; // consume '{' or '['
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(member(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.i
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // consume '"'
        let mut out = String::new();
        // Start of the current unescaped run. Runs end only at ASCII
        // bytes ('"', '\\'), so they always slice on char boundaries.
        let mut run = self.i;
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    out.push(match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self.s.get(self.i + 1..self.i + 5).unwrap_or("");
                            if hex.len() != 4 || !hex.bytes().all(|c| c.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape at byte {}", self.i));
                            }
                            self.i += 4;
                            u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .unwrap_or('\u{FFFD}')
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    });
                    self.i += 1;
                    run = self.i;
                }
                Some(0x00..=0x1f) => {
                    return Err(format!("raw control byte in string at {}", self.i))
                }
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.i;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.i += 1;
            }
            p.i > s
        };
        if !digits(self) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        self.s[start..self.i]
            .parse()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
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
