//! The workspace's one JSON codec (RFC 8259). Server wire messages, the
//! metrics endpoint, trace exports, verifier findings and the benchmark
//! reports are all written, and wire requests and trace files read, through
//! this module.
//!
//! * [`Value`] is the document tree. Numbers keep their lexeme — read them
//!   with [`Value::as_u64`] or [`Value::as_f64`] — and objects are ordered
//!   `(key, value)` lists, so output follows insertion order and is
//!   byte-deterministic.
//! * [`parse`] decodes every escape, including UTF-16 surrogate pairs. It
//!   rejects raw control characters inside strings, lone surrogates, leading
//!   zeros, duplicate object keys and trailing text, and it caps nesting at
//!   [`MAX_DEPTH`], so a hostile `[[[[…` is an error, never a stack overflow.
//! * The writer is `Value`'s [`Display`](std::fmt::Display): `to_string()`
//!   is compact and `{:#}` indents two spaces per level. It escapes `"`, `\`
//!   and U+0000–U+001F, and writes non-finite floats as `null`.
//!
//! ```
//! use telemetry::json::{self, Value};
//!
//! let request = Value::object([("tenant", Value::from("a\"b")), ("qubits", Value::from(3u64))]);
//! let text = request.to_string();
//! assert_eq!(text, r#"{"tenant":"a\"b","qubits":3}"#);
//! let back = json::parse(&text).unwrap();
//! assert_eq!(back, request);
//! assert_eq!(back.get("qubits").and_then(Value::as_u64), Some(3));
//! assert!(json::parse(r#"{"qubits":03}"#).is_err());
//! ```

use std::fmt::{self, Write};

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its JSON lexeme (build one with `Value::from`).
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: members in document order, keys unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The number as a `u64`, if it is a non-negative integer lexeme in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.lexeme()?.parse().ok()
    }

    /// The number as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.lexeme()?.parse().ok()
    }

    fn lexeme(&self) -> Option<&str> {
        match self {
            Value::Number(lexeme) => Some(lexeme),
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array's elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member named `key`, when `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

macro_rules! number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(n.to_string())
            }
        }
    )*};
}

number_from!(u64, usize, i64);

impl From<f64> for Value {
    /// Finite floats in shortest round-trip form; NaN and infinities as `null`.
    fn from(x: f64) -> Value {
        if x.is_finite() {
            Value::Number(x.to_string())
        } else {
            Value::Null
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, 0)
    }
}

fn write_value(f: &mut fmt::Formatter<'_>, value: &Value, depth: usize) -> fmt::Result {
    match value {
        Value::Null => f.write_str("null"),
        Value::Bool(b) => write!(f, "{b}"),
        Value::Number(lexeme) => f.write_str(lexeme),
        Value::String(s) => write_string(f, s),
        Value::Array(items) => write_members(f, ('[', ']'), depth, items.iter().map(|v| (None, v))),
        Value::Object(fields) => write_members(
            f,
            ('{', '}'),
            depth,
            fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
        ),
    }
}

/// Writes an array (keys `None`) or object body; `{:#}` puts each member on
/// its own line.
fn write_members<'a>(
    f: &mut fmt::Formatter<'_>,
    (open, close): (char, char),
    depth: usize,
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
) -> fmt::Result {
    let pretty = f.alternate();
    let empty = members.len() == 0;
    f.write_char(open)?;
    for (index, (key, value)) in members.enumerate() {
        if index > 0 {
            f.write_char(',')?;
        }
        if pretty {
            write!(f, "\n{:1$}", "", 2 * (depth + 1))?;
        }
        if let Some(key) = key {
            write_string(f, key)?;
            f.write_str(if pretty { ": " } else { ":" })?;
        }
        write_value(f, value, depth + 1)?;
    }
    if pretty && !empty {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    f.write_char(close)
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Why a text is not JSON, and the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    offset: usize,
    reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; whitespace may surround it, nothing else.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    match parser.text[parser.pos..].chars().next() {
        None => Ok(value),
        Some(c) => Err(parser.error(format!("trailing {c:?} after the value"))),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn expected(&self, what: &str) -> JsonError {
        match self.text[self.pos..].chars().next() {
            Some(c) => self.error(format!("expected {what}, got {c:?}")),
            None => self.error("unexpected end of input"),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// Advances past the bytes matching `pred`; returns how many there were.
    fn skip(&mut self, pred: impl Fn(&u8) -> bool) -> usize {
        let start = self.pos;
        while self.text.as_bytes().get(self.pos).is_some_and(&pred) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn skip_ws(&mut self) {
        self.skip(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let words = [("true", Value::Bool(true)), ("false", Value::Bool(false))];
                for (word, value) in words.into_iter().chain([("null", Value::Null)]) {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(self.expected("a value"))
            }
        }
    }

    /// Steps over the opening bracket of a container at nesting level
    /// `depth`; true when the container is empty (and now closed).
    fn open(&mut self, depth: usize, close: u8) -> Result<bool, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(self.eat(close))
    }

    /// After a container member: true at the closing bracket, false after a
    /// comma.
    fn closed(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.eat(b',') {
            Ok(false)
        } else if self.eat(close) {
            Ok(true)
        } else {
            Err(self.expected(&format!("',' or '{}'", close as char)))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        let mut items = Vec::new();
        if !self.open(depth, b']')? {
            loop {
                items.push(self.value(depth)?);
                if self.closed(b']')? {
                    break;
                }
            }
        }
        Ok(Value::Array(items))
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        let start = self.pos;
        let mut fields = Vec::new();
        if !self.open(depth, b'}')? {
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.expected("a string key"));
                }
                let key = self.string()?;
                self.skip_ws();
                if !self.eat(b':') {
                    return Err(self.expected("':'"));
                }
                fields.push((key, self.value(depth)?));
                if self.closed(b'}')? {
                    break;
                }
            }
        }
        // One sort keeps hostile many-key objects O(n log n).
        let mut keys: Vec<&String> = fields.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(JsonError {
                offset: start,
                reason: format!("duplicate key {:?}", pair[0]),
            });
        }
        Ok(Value::Object(fields))
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.pos;
        match self.skip(u8::is_ascii_digit) {
            0 => return Err(self.expected("a digit")),
            1 => {}
            _ if self.text.as_bytes()[int] == b'0' => {
                return Err(self.error("leading zero in number"));
            }
            _ => {}
        }
        if self.eat(b'.') && self.skip(u8::is_ascii_digit) == 0 {
            return Err(self.expected("a digit after '.'"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            if self.skip(u8::is_ascii_digit) == 0 {
                return Err(self.expected("an exponent digit"));
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    /// Parses a string starting at its opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Quote, backslash and control bytes are ASCII, so the run of
            // other bytes ends on a char boundary.
            let run = self.pos;
            self.skip(|&b| b != b'"' && b != b'\\' && b >= 0x20);
            out.push_str(&self.text[run..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            } else if self.eat(b'\\') {
                out.push(self.escape()?);
            } else if let Some(byte) = self.peek() {
                return Err(self.error(format!("raw control character U+{byte:04X} in string")));
            } else {
                return Err(self.error("unterminated string"));
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(c) = self.text[self.pos..].chars().next() else {
            return Err(self.error("unterminated string"));
        };
        self.pos += c.len_utf8();
        Ok(match c {
            '"' | '\\' | '/' => c,
            'b' => '\u{8}',
            'f' => '\u{c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let mut code = self.hex4()?;
                // A high surrogate must pair with a `\u` low surrogate.
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                char::from_u32(code).ok_or_else(|| self.error("lone surrogate in \\u escape"))?
            }
            _ => return Err(self.error(format!("invalid escape '\\{c}'"))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|digits| digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|digits| u32::from_str_radix(digits, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits after \\u"))?;
        self.pos += 4;
        Ok(code)
    }
}
