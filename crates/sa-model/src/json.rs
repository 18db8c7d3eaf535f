//! A minimal JSON value type with rendering and parsing.
//!
//! The experiment harness persists raw measurement rows as JSON. The build
//! environment has no access to crates.io, so instead of `serde`/`serde_json`
//! this module provides the small self-contained subset the workspace needs:
//! a [`JsonValue`] tree, a renderer ([`JsonValue::render`] /
//! [`JsonValue::render_pretty`]) and a recursive-descent parser
//! ([`JsonValue::parse`]).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys are kept sorted for deterministic output.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    pub fn object<I: IntoIterator<Item = (String, JsonValue)>>(fields: I) -> Self {
        JsonValue::Object(fields.into_iter().collect())
    }

    /// The value of an object field, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a `usize`, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as usize),
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

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value compactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (open_sep, item_sep, close_sep) = match indent {
            Some(width) => (
                format!("\n{}", " ".repeat(width * (depth + 1))),
                format!(",\n{}", " ".repeat(width * (depth + 1))),
                format!("\n{}", " ".repeat(width * depth)),
            ),
            None => (String::new(), ", ".to_string(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(x) => {
                if !x.is_finite() {
                    // JSON has no Infinity/NaN literal; follow the convention
                    // of JavaScript's JSON.stringify and emit null.
                    out.push_str("null");
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    out.push_str(&format!("{x}"));
                }
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                out.push_str(&open_sep);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&item_sep);
                    }
                    item.write(out, indent, depth + 1);
                }
                out.push_str(&close_sep);
                out.push(']');
            }
            JsonValue::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                out.push_str(&open_sep);
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(&item_sep);
                    }
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                out.push_str(&close_sep);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Arrays and objects nested more than 128
    /// levels deep are rejected with an error.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after document"));
        }
        Ok(value)
    }
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

/// Arrays and objects nested deeper than this are rejected, so hostile input
/// cannot exhaust the parser's stack (the same limit as the binary
/// checkpoint codec's).
const MAX_DEPTH: usize = 128;

/// A parse failure, with the byte offset at which it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses a container one level deeper, refusing to pass `MAX_DEPTH`.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            map.insert(key, self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    /// Reads the 4 hex digits of a `\uXXXX` escape (cursor on the `u`),
    /// leaving the cursor on the last digit.
    fn hex_escape(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 >= self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            let code = self.hex_escape()?;
                            if (0xD800..0xDC00).contains(&code) {
                                // A high surrogate must be followed by an
                                // escaped low surrogate; combine the pair into
                                // one code point (RFC 8259 §7).
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex_escape()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid \\u code point"))?,
                                );
                            }
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input slice is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "42", "-3.5", "\"hi\""] {
            let v = JsonValue::parse(text).expect(text);
            assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn roundtrip_nested_structure() {
        let v = JsonValue::object([
            ("name".to_string(), JsonValue::String("cycle-8".into())),
            (
                "rounds".to_string(),
                JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(2.5)]),
            ),
            ("clean".to_string(), JsonValue::Bool(true)),
        ]);
        let compact = v.render();
        let pretty = v.render_pretty();
        assert_eq!(JsonValue::parse(&compact).unwrap(), v);
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = JsonValue::String("a\"b\\c\nd\te\u{1}".into());
        let text = v.render();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse("{\"n\": 3, \"s\": \"x\", \"a\": [1]}").unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_usize), Some(3));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::Number(5.0).render(), "5");
        assert_eq!(JsonValue::Number(5.25).render(), "5.25");
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_code_point() {
        let v = JsonValue::parse("\"\\ud83d\\ude00\"").expect("surrogate pair");
        assert_eq!(v, JsonValue::String("😀".into()));
        // lone or malformed surrogates are rejected, not silently mangled
        assert!(JsonValue::parse("\"\\ud83d\"").is_err());
        assert!(JsonValue::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(JsonValue::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(JsonValue::Number(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::Number(f64::NEG_INFINITY).render(), "null");
        assert_eq!(JsonValue::Number(f64::NAN).render(), "null");
        // the emitted document stays parseable
        let v = JsonValue::Array(vec![JsonValue::Number(f64::NAN)]);
        assert!(JsonValue::parse(&v.render()).is_ok());
    }

    #[test]
    fn nesting_depth_is_capped() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_limit).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&objects).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = JsonValue::parse(&past).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting"), "{err}");
        // Deep enough to overflow an uncapped recursive-descent parser.
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = JsonValue::parse("[1, ").unwrap_err();
        assert!(err.offset >= 3, "{err}");
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("nully").is_err());
    }
}
