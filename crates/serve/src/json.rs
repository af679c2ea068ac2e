//! A minimal, dependency-free JSON reader for the wire protocol and the
//! persisted job specs.
//!
//! The workspace's *output* JSON is hand-assembled with a fixed field
//! order (see [`emask_telemetry::Event::to_json`]); this module is the
//! *input* half: a strict recursive-descent parser over the small JSON
//! subset the protocol needs. Integers parse exactly (`i64`); anything
//! with a fraction or exponent parses as `f64`. Duplicate object keys
//! keep the last value, matching what every mainstream parser does.
//! Nesting is bounded ([`MAX_DEPTH`]) so a hostile request cannot drive
//! the recursive descent into a stack overflow. The parser takes `&str`,
//! so input is valid UTF-8 before it gets here.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, parsed exactly.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` elsewhere. Last duplicate wins.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer.
    #[must_use]
    pub(crate) fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was wrong.
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Deepest allowed array/object nesting. Far beyond anything the
/// protocol produces (requests nest two levels), while keeping the
/// recursive descent's stack use bounded against hostile input.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first offending character.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> ParseError {
        ParseError { at: self.pos, reason }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Counts one level of array/object nesting against [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
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
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        self.descend()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for the
                            // protocol; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is already valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            text.parse::<i64>().map(Json::Int).map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<f64>().map(Json::Float).map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"cmd":"submit","spec":{"experiment":"fault","trials":400,"recover":true,"deadline_ms":null,"bits":[0,1,7]}}"#).unwrap();
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("submit"));
        let spec = v.get("spec").unwrap();
        assert_eq!(spec.get("trials").unwrap().as_usize(), Some(400));
        assert_eq!(spec.get("recover").unwrap().as_bool(), Some(true));
        assert_eq!(spec.get("deadline_ms"), Some(&Json::Null));
        assert_eq!(
            spec.get("bits"),
            Some(&Json::Arr(vec![Json::Int(0), Json::Int(1), Json::Int(7)]))
        );
    }

    #[test]
    fn integers_parse_exactly_and_floats_separately() {
        assert_eq!(parse("9007199254740993").unwrap(), Json::Int(9_007_199_254_740_993));
        assert_eq!(parse("-5").unwrap(), Json::Int(-5));
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert!(parse("99999999999999999999").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        // What the writers escape (`emask_telemetry::escape_json`) parses
        // back to the input.
        for s in ["\"", "\\", "\n", "\u{1}", "a\"b\\c\ndA"] {
            let literal = format!("\"{}\"", emask_telemetry::escape_json(s));
            assert_eq!(parse(&literal).unwrap().as_str(), Some(s), "{literal}");
        }
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in ["", "{", "[1,", "tru", "\"\\q\"", "{\"a\" 1}", "1 2", "\u{7}"] {
            let err = parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
        // `get` sees the survivor even when nested duplicates disagree.
        let v = parse(r#"{"a":{"b":1},"a":{"b":2},"c":3}"#).unwrap();
        assert_eq!(v.get("a").unwrap().get("b").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("c").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn truncated_documents_fail_at_the_cut() {
        // Every prefix of a valid request must fail cleanly, never panic
        // or accept.
        let full = r#"{"cmd":"submit","spec":{"experiment":"fault","trials":10}}"#;
        for cut in 1..full.len() {
            let prefix = &full[..cut];
            assert!(parse(prefix).is_err(), "accepted truncation: {prefix}");
        }
        // Truncations inside escapes and numbers carry useful offsets.
        let err = parse(r#"{"a":"\u00"#).unwrap_err();
        assert!(err.at <= 10, "{err}");
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.reason, "nesting too deep");
        // Mixed object/array nesting counts the same budget; a hostile
        // depth bomb fails fast instead of overflowing the stack.
        let bomb = "{\"a\":".repeat(10_000) + "1" + &"}".repeat(10_000);
        assert_eq!(parse(&bomb).unwrap_err().reason, "nesting too deep");
        // Siblings do not accumulate: depth is nesting, not node count.
        let wide = format!("[{}]", vec![deep(MAX_DEPTH - 1); 4].join(","));
        assert!(parse(&wide).is_ok());
    }
}
