//! A minimal JSON value type, parser and serializer for the query IR.
//!
//! The container vendors no serde, so the IR codec carries its own JSON
//! support: a [`Json`] tree with order-preserving objects, a
//! recursive-descent parser, and compact / pretty serializers. Only what the IR needs
//! is implemented — notably, numbers are either `i64` or `f64` (a float
//! always serializes with a decimal point or exponent, so the two round-trip
//! distinctly), and no lossy escapes beyond the JSON-mandatory set are
//! produced. Arrays and objects nest at most [`MAX_NESTING_DEPTH`] levels
//! deep.

use pathalg_rpq::parse::MAX_NESTING_DEPTH;
use std::fmt;

/// A JSON value. Object member order is preserved (a `Vec`, not a map), so
/// serialize → parse → serialize is byte-identical — which is what makes the
/// golden-file round-trip check in the test suite meaningful.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no decimal point or exponent in the source).
    Int(i64),
    /// A float (decimal point or exponent present in the source).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in member order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn object(members: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "int",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Compact serialization (no whitespace).
    pub(crate) fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub(crate) fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // `{:?}` always renders a decimal point (or exponent), so a
            // float can never be re-parsed as an integer.
            Json::Float(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    let (key, value) = &members[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, d);
                });
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Writes a delimited, comma-separated sequence with optional pretty
/// indentation; `item` writes the i-th element at the given depth.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    item: impl Fn(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON syntax error with the byte offset where it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON syntax error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value; trailing non-whitespace input is an error.
pub fn parse_json(input: &str) -> Result<Json, JsonError> {
    let mut p = JsonParser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at the current position.
    depth: usize,
}

impl JsonParser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.into(),
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

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{literal}'")))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth >= MAX_NESTING_DEPTH {
                    return Err(self.error(format!(
                        "value nests deeper than {MAX_NESTING_DEPTH} levels"
                    )));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => {
                    self.pos = start;
                    return Err(self.error("unterminated string"));
                }
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for the IR; a
                            // lone surrogate is rejected.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.error("raw control character in string")),
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so this is valid.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.error(format!("invalid number '{text}'")))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.error(format!("invalid integer '{text}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let j = parse_json(
            r#"{"a": null, "b": true, "c": -42, "d": 2.5, "e": "hi", "f": [1, 2], "g": {}}"#,
        )
        .unwrap();
        assert_eq!(j.get("a"), Some(&Json::Null));
        assert_eq!(j.get("b"), Some(&Json::Bool(true)));
        assert_eq!(j.get("c"), Some(&Json::Int(-42)));
        assert_eq!(j.get("d"), Some(&Json::Float(2.5)));
        assert_eq!(j.get("e").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            j.get("f").and_then(Json::as_array),
            Some(&[Json::Int(1), Json::Int(2)][..])
        );
        assert_eq!(j.get("g"), Some(&Json::Object(Vec::new())));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn ints_and_floats_round_trip_distinctly() {
        for text in ["3", "-7", "0"] {
            let j = parse_json(text).unwrap();
            assert!(matches!(j, Json::Int(_)), "{text}");
            assert_eq!(j.to_compact(), text);
        }
        let f = parse_json("3.0").unwrap();
        assert_eq!(f, Json::Float(3.0));
        assert_eq!(f.to_compact(), "3.0", "floats keep their decimal point");
        assert_eq!(parse_json("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::str("a\"b\\c\nd\te\u{1}π");
        let text = original.to_compact();
        assert_eq!(parse_json(&text).unwrap(), original);
        assert!(text.contains("\\u0001"));
        let unicode = parse_json(r#""π and \/""#).unwrap();
        assert_eq!(unicode.as_str(), Some("π and /"));
    }

    #[test]
    fn compact_serialization_is_stable_under_reparse() {
        let source = r#"{"version":"v1","items":[1,2.5,"x",null,false],"nested":{"k":[]}}"#;
        let parsed = parse_json(source).unwrap();
        assert_eq!(parsed.to_compact(), source);
        // Pretty output parses back to the same tree.
        assert_eq!(parse_json(&parsed.to_pretty()).unwrap(), parsed);
    }

    #[test]
    fn object_member_order_is_preserved() {
        let j = parse_json(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(j.to_compact(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn nesting_past_the_bound_is_a_syntax_error() {
        let nested = |k: usize| format!("{}{}", "[".repeat(k), "]".repeat(k));
        assert!(parse_json(&nested(MAX_NESTING_DEPTH)).is_ok());
        for deep in [nested(MAX_NESTING_DEPTH + 1), "{\"a\":".repeat(100_000)] {
            let err = parse_json(&deep).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{}", err.message);
        }
    }

    #[test]
    fn syntax_errors_carry_positions() {
        for (input, needle) in [
            ("", "end of input"),
            ("{", "expected"),
            ("[1,]", "unexpected character"),
            (r#"{"a" 1}"#, "expected ':'"),
            ("tru", "expected 'true'"),
            (r#""abc"#, "unterminated"),
            ("1 2", "trailing"),
            ("12345678901234567890123", "invalid integer"),
        ] {
            let err = parse_json(input).unwrap_err();
            assert!(err.message.contains(needle), "{input}: got {}", err.message);
            assert!(err.to_string().contains("offset"));
        }
    }
}
