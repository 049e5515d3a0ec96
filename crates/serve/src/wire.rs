//! A minimal JSON value type for the wire protocol.
//!
//! The network front end speaks line-delimited JSON (see `docs/PROTOCOL.md`), and the
//! offline build image has no serde — so this module provides the exact JSON subset
//! the protocol needs, built for *lossless* numeric transport:
//!
//! * Numbers are stored as their **raw source token** ([`Json::Num`]), not as `f64`.
//!   A `u64` join key like `18446744073709551615` survives parse → serialize
//!   untouched (an `f64` round trip would silently round it), and an `f64` estimate
//!   serialized with Rust's shortest-round-trip formatting parses back to the
//!   bit-identical value — the property the loopback conformance tests assert.
//! * Serialization is canonical and compact (no whitespace), so a value's encoding
//!   is deterministic.
//! * Parsing is strict JSON (RFC 8259): no trailing commas, no comments, full input
//!   consumption, escape and surrogate-pair handling, and a nesting-depth bound so a
//!   hostile request cannot overflow the parser stack.
//!
//! Everything here is pure data manipulation — it compiles and is tested without the
//! `server` feature, which lets the `docs/PROTOCOL.md` conformance test run in the
//! tier-1 suite.

use std::fmt;

/// Maximum nesting depth [`Json::parse`] accepts.  The protocol needs 5 levels;
/// 64 leaves slack without letting `[[[[…` recurse unboundedly.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Object member order is preserved and duplicate keys are tolerated on parse;
/// [`get`](Self::get) returns the **first** match, and encoding writes members in
/// stored order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (see module docs for why).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// An integer number value.
    #[must_use]
    pub fn u64(n: u64) -> Self {
        Json::Num(n.to_string())
    }

    /// A floating-point number value, formatted with Rust's shortest
    /// round-trip formatting (so parsing it back yields the bit-identical `f64`).
    /// Non-finite values have no JSON representation and encode as `null`.
    #[must_use]
    pub fn f64(x: f64) -> Self {
        if x.is_finite() {
            let mut token = x.to_string();
            // `(-)inf`/`NaN` are excluded above; `1e300`-style tokens never occur
            // (Display writes all digits), so the token is valid JSON except that
            // integral floats format bare ("2"). That is still a valid JSON number
            // and parses back to the same f64, so leave it — but keep `-0` signed.
            if token == "-0" {
                token = "-0.0".to_string();
            }
            Json::Num(token)
        } else {
            Json::Null
        }
    }

    /// Whether this value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Member lookup on an object (first match); `None` for other value kinds.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a number written as a non-negative JSON
    /// integer (no fraction, no exponent — `1.0` and `1e3` are rejected, so 64-bit
    /// join keys can never lose precision silently).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// [`as_u64`](Self::as_u64) narrowed to `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Parses a complete JSON document (leading/trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Canonical compact encoding (no whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(raw) => f.write_str(raw),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    value.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal.  Runs of bytes that need no escape go
/// out as one slice (a sketch blob's hex is tens of kilobytes of them); every
/// escaped byte is ASCII, so run boundaries are always char boundaries.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(f, "\\u{b:04x}")?;
        } else {
            f.write_str(escape)?;
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// A JSON syntax error at a byte offset of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the parsed text.
    pub at: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", char::from(byte))))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", char::from(c)))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: runs of plain (non-escape, non-quote, non-control) bytes
            // are copied as one UTF-8 slice.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, and the run boundary bytes are all ASCII, so
                // the slice is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("runs between ASCII delimiters in a &str are valid UTF-8"),
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("raw control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')
                            .map_err(|_| self.error("high surrogate not followed by \\u"))?;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    } else {
                        return Err(self.error("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&unit) {
                    return Err(self.error("unpaired low surrogate"));
                } else {
                    unit
                };
                out.push(
                    char::from_u32(scalar)
                        .ok_or_else(|| self.error("escape is not a Unicode scalar"))?,
                );
            }
            other => {
                return Err(self.error(format!("unknown escape `\\{}`", char::from(other))));
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    /// Validates the RFC 8259 number grammar and returns the raw token.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected digits in number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected digits after decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected digits in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(Json::Num(token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The escaper before runs replaced it: one write per character.  The run
    /// escaper must match it byte for byte.
    struct ReferenceEscaped<'a>(&'a str);

    impl fmt::Display for ReferenceEscaped<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("\"")?;
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    '\u{08}' => f.write_str("\\b")?,
                    '\u{0C}' => f.write_str("\\f")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => f.write_str(c.encode_utf8(&mut [0; 4]))?,
                }
            }
            f.write_str("\"")
        }
    }

    /// One character of a generated string: every class the escaper treats
    /// differently — control characters, quote and backslash, plain ASCII,
    /// and any scalar value (non-ASCII, astral).
    fn generated_char((class, bits): (usize, u32)) -> char {
        match class {
            0 => char::from_u32(bits % 0x20).expect("control characters are chars"),
            1 => ['"', '\\', '/', '\u{7f}'][(bits % 4) as usize],
            2 => char::from_u32(0x20 + bits % 0x5f).expect("printable ASCII"),
            _ => char::from_u32(bits % 0x11_0000).unwrap_or('\u{fffd}'),
        }
    }

    proptest! {
        #[test]
        fn run_escaper_matches_the_reference_and_round_trips(
            chars in proptest::collection::vec((0usize..4, any::<u32>()), 0..48),
        ) {
            let text: String = chars.into_iter().map(generated_char).collect();
            let encoded = Json::str(&text).to_string();
            prop_assert_eq!(&encoded, &ReferenceEscaped(&text).to_string());
            prop_assert_eq!(Json::parse(&encoded).expect("parses").as_str(), Some(text.as_str()));
        }
    }

    #[test]
    fn run_escaper_matches_the_reference_on_every_control_character() {
        let text: String = (0u32..0x80).filter_map(char::from_u32).collect();
        let encoded = Json::str(&text).to_string();
        assert_eq!(encoded, ReferenceEscaped(&text).to_string());
        assert_eq!(
            Json::parse(&encoded).expect("parses").as_str(),
            Some(text.as_str())
        );
    }

    fn round_trip(text: &str) -> Json {
        let parsed = Json::parse(text).expect("parses");
        let reparsed = Json::parse(&parsed.to_string()).expect("re-parses");
        assert_eq!(parsed, reparsed, "encode→parse must be the identity");
        parsed
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(round_trip("null"), Json::Null);
        assert_eq!(round_trip("true"), Json::Bool(true));
        assert_eq!(round_trip("false"), Json::Bool(false));
        assert_eq!(round_trip("\"hi\""), Json::str("hi"));
        assert_eq!(round_trip("42").as_u64(), Some(42));
        assert_eq!(round_trip("-1.5e3").as_f64(), Some(-1500.0));
    }

    #[test]
    fn u64_keys_survive_untouched() {
        let max = u64::MAX.to_string();
        let parsed = Json::parse(&max).expect("parses");
        assert_eq!(parsed.as_u64(), Some(u64::MAX));
        assert_eq!(
            parsed.to_string(),
            max,
            "no f64 rounding on the way through"
        );
        // Fractions and exponents are not integers.
        assert_eq!(Json::parse("1.0").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn f64_encoding_is_bit_exact() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            2.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            123_456.789_012_345,
            1e-300,
        ] {
            let encoded = Json::f64(x).to_string();
            let back = Json::parse(&encoded)
                .expect("valid JSON")
                .as_f64()
                .expect("a number");
            assert_eq!(back.to_bits(), x.to_bits(), "{x} → {encoded} → {back}");
        }
        assert!(Json::f64(f64::NAN).is_null());
        assert!(Json::f64(f64::INFINITY).is_null());
    }

    #[test]
    fn structures_and_lookup() {
        let doc = round_trip(r#"{"a": [1, {"b": "c"}], "d": null, "a": 2}"#);
        assert_eq!(
            doc.get("a").and_then(|a| a.as_arr()).map(<[Json]>::len),
            Some(2),
            "first duplicate wins"
        );
        assert!(doc.get("d").expect("member").is_null());
        assert!(doc.get("missing").is_none());
        assert_eq!(doc.to_string(), r#"{"a":[1,{"b":"c"}],"d":null,"a":2}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let exotic = "quote\" slash\\ newline\n tab\t nul\u{0} emoji🦀 bmp\u{2603}";
        let encoded = Json::str(exotic).to_string();
        assert_eq!(
            Json::parse(&encoded).expect("parses").as_str(),
            Some(exotic)
        );
        // Escape forms parse to the same string.
        assert_eq!(Json::parse(r#""A\né🦀""#).unwrap().as_str(), Some("A\né🦀"));
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for bad in [
            "",
            "tru",
            "nulll",
            "01",
            "1.",
            "1e",
            "+1",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\u{1}\"",
            r#""\ud800""#,
            r#""\ud800A""#,
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":1,}",
            "{a:1}",
            "[1]]",
            "1 2",
        ] {
            let err = Json::parse(bad).expect_err(&format!("`{bad}` must fail"));
            assert!(!err.to_string().is_empty());
        }
        // Depth bound: 100 nested arrays exceed MAX_DEPTH.
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = Json::parse(&deep).expect_err("too deep");
        assert!(err.detail.contains("nesting"), "{err}");
    }

    #[test]
    fn builders_produce_valid_documents() {
        let doc = Json::Obj(vec![
            ("k".to_string(), Json::u64(7)),
            ("x".to_string(), Json::f64(0.5)),
            ("s".to_string(), Json::str("v")),
            (
                "a".to_string(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"k":7,"x":0.5,"s":"v","a":[true,null]}"#
        );
        assert_eq!(Json::parse(&doc.to_string()).expect("parses"), doc);
    }
}
