//! Minimal dependency-free JSON for the neurosnn workspace.
//!
//! The workspace cannot rely on crates.io (builds must work fully
//! offline), so this crate provides the small JSON subset the repo needs:
//! a [`Json`] value tree, a writer whose float formatting is
//! shortest-roundtrip (Rust's `{}` for `f64`), so checkpoints survive
//! save → load bit-exactly, and one strict recursive-descent grammar.
//!
//! The grammar is a pull [`Reader`]: a caller steps through keys and
//! array items and reads numbers straight into its own types, skipping
//! what it does not need, with no tree in between (the serving layer
//! decodes spike rasters this way). [`Json::parse`] is the same reader
//! building a tree. It is RFC 8259's grammar, nested at most 128
//! levels: numbers have no leading zeros and a digit on each side of
//! any decimal point, strings hold no raw control characters, and
//! nothing but whitespace may follow the value. (Two leniencies remain
//! in `\u` escapes: the four characters go through
//! `u32::from_str_radix`, which also takes a leading `+`, and a
//! surrogate pair decodes to two U+FFFD.) Errors carry a byte offset
//! and a [`JsonErrorKind`].
//!
//! # Examples
//!
//! ```
//! use snn_json::Json;
//!
//! let v = Json::parse(r#"{"name": "snn", "dims": [4, 2]}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("snn"));
//! assert_eq!(v.get("dims").unwrap().as_array().unwrap().len(), 2);
//! let round = Json::parse(&v.to_string()).unwrap();
//! assert_eq!(v, round);
//! ```

use std::borrow::Cow;
use std::fmt;

pub mod integrity;

/// A JSON value.
///
/// Objects preserve insertion order (they are stored as a vector of
/// key–value pairs), which keeps serialized checkpoints diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; `f32` payloads roundtrip exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key–value pairs).
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`] and [`Reader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What is wrong there.
    pub kind: JsonErrorKind,
}

/// What a [`JsonError`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// No value starts at this byte.
    ExpectedValue,
    /// A required byte is missing: a key's opening `"`, the `:` after
    /// it, or the `[` / `{` a [`Reader`] was asked to enter.
    Expected(u8),
    /// A misspelt `null`.
    ExpectedNull,
    /// A misspelt `true`.
    ExpectedTrue,
    /// A misspelt `false`.
    ExpectedFalse,
    /// An array item is followed by neither `,` nor `]`.
    ExpectedCommaOrBracket,
    /// An object member is followed by neither `,` nor `}`.
    ExpectedCommaOrBrace,
    /// Something other than whitespace follows the document's value.
    TrailingCharacters,
    /// Containers nest deeper than 128 levels.
    TooDeep,
    /// The input ends inside a string.
    UnterminatedString,
    /// A `\u` escape is cut off by the end of the input.
    TruncatedEscape,
    /// A `\u` escape is not four hex digits.
    BadUnicodeEscape,
    /// A backslash starts no escape.
    BadEscape,
    /// A string holds a raw U+0000–U+001F, which RFC 8259 §7 requires
    /// escaped.
    ControlCharacter,
    /// The bytes of a number form no number.
    InvalidNumber,
    /// An integer part with a leading zero, such as `007` (RFC 8259 §6).
    LeadingZero,
    /// A decimal point without a digit on each side, such as `1.`,
    /// `-.5` or `1.e5` (RFC 8259 §6).
    BareDecimalPoint,
}

impl fmt::Display for JsonErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonErrorKind::ExpectedValue => write!(f, "expected a JSON value"),
            JsonErrorKind::Expected(b) => write!(f, "expected '{}'", *b as char),
            JsonErrorKind::ExpectedNull => write!(f, "expected 'null'"),
            JsonErrorKind::ExpectedTrue => write!(f, "expected 'true'"),
            JsonErrorKind::ExpectedFalse => write!(f, "expected 'false'"),
            JsonErrorKind::ExpectedCommaOrBracket => write!(f, "expected ',' or ']'"),
            JsonErrorKind::ExpectedCommaOrBrace => write!(f, "expected ',' or '}}'"),
            JsonErrorKind::TrailingCharacters => write!(f, "trailing characters after value"),
            JsonErrorKind::TooDeep => write!(f, "nesting too deep"),
            JsonErrorKind::UnterminatedString => write!(f, "unterminated string"),
            JsonErrorKind::TruncatedEscape => write!(f, "truncated \\u escape"),
            JsonErrorKind::BadUnicodeEscape => write!(f, "bad \\u escape"),
            JsonErrorKind::BadEscape => write!(f, "bad escape"),
            JsonErrorKind::ControlCharacter => write!(f, "unescaped control character in string"),
            JsonErrorKind::InvalidNumber => write!(f, "invalid number"),
            JsonErrorKind::LeadingZero => write!(f, "leading zero in number"),
            JsonErrorKind::BareDecimalPoint => {
                write!(f, "decimal point without a digit on each side")
            }
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.kind)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key–value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of numbers from an `f32` slice.
    pub fn f32_array(xs: &[f32]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::from(x)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `f32`, if it is a number.
    pub fn as_f32(&self) -> Option<f32> {
        self.as_f64().map(|x| x as f32)
    }

    /// The value as `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            // Integral exactly when the cast round-trips, which costs
            // less than `fract` (a libm call on baseline x86-64) on the
            // thousands of integers in a raster; 2^64 saturates to
            // `usize::MAX`.
            Json::Num(x) if *x >= 0.0 && *x <= usize::MAX as f64 && (*x as usize) as f64 == *x => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (must contain exactly one value) into a
    /// tree: a [`Reader`] that reads one value and finishes.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut reader = Reader::new(input);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }

    /// Serializes with two-space indentation (human-inspectable files).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth + 1));
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth + 1));
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            other => {
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }
}

impl From<f32> for Json {
    fn from(x: f32) -> Json {
        Json::Num(x as f64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => {
                // JSON has no NaN/Infinity; emit null like serde_json's
                // lossy mode so a checkpoint with a poisoned weight is
                // still a valid document (and loudly wrong on reload).
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                write_string(&mut buf, s);
                write!(f, "{buf}")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    write_string(&mut buf, k);
                    write!(f, "{buf}:{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

const MAX_DEPTH: usize = 128;

/// The kind of value at a [`Reader`]'s cursor, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` or `false`
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over one JSON document: the grammar behind
/// [`Json::parse`], for callers that decode straight into their own
/// types instead of building a tree.
///
/// The caller walks the document value by value:
/// [`peek`](Self::peek) names the next value's kind;
/// [`begin_array`](Self::begin_array) with [`next_item`](Self::next_item)
/// and [`begin_object`](Self::begin_object) with
/// [`next_key`](Self::next_key) step through containers;
/// [`number`](Self::number) reads a number, [`value`](Self::value)
/// parses any value into a [`Json`] and [`skip`](Self::skip) checks one
/// without building it; [`finish`](Self::finish) rejects anything after
/// the document. Every item and member must be read, entered or skipped
/// before the next `next_item` / `next_key` call. A caller that enters
/// or reads only what `peek` names, and skips the rest, accepts exactly
/// the documents [`Json::parse`] accepts and rejects the others at the
/// same byte with the same [`JsonError`].
///
/// # Examples
///
/// ```
/// use snn_json::{Kind, Reader};
///
/// // Sum the numbers of "xs", skipping every other member.
/// let mut r = Reader::new(r#"{"name": "a", "xs": [1, 2.5, -4], "meta": {"k": [null]}}"#);
/// r.begin_object().unwrap();
/// let mut sum = 0.0;
/// while let Some(key) = r.next_key().unwrap() {
///     if key == "xs" && r.peek() == Some(Kind::Array) {
///         r.begin_array().unwrap();
///         while r.next_item().unwrap() {
///             sum += r.number().unwrap();
///         }
///     } else {
///         r.skip().unwrap();
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(sum, -0.5);
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    /// The document; valid UTF-8, and `pos` only stops on ASCII bytes
    /// or the end, so slicing it at `pos` never splits a character.
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// The innermost container was just opened, so its first
    /// `next_item` / `next_key` takes no comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[cold]
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            offset: self.pos,
            kind,
        }
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(JsonErrorKind::Expected(b)))
        }
    }

    /// The kind of the next value, after skipping whitespace; `None`
    /// when no value starts there (reading or skipping it then fails).
    /// Consumes nothing else.
    #[inline]
    pub fn peek(&mut self) -> Option<Kind> {
        self.skip_ws();
        Some(match self.byte()? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Bool,
            b'"' => Kind::String,
            b'[' => Kind::Array,
            b'{' => Kind::Object,
            b'-' | b'0'..=b'9' => Kind::Number,
            _ => return None,
        })
    }

    /// Starts a value: the nesting check every value gets, then its kind.
    #[inline]
    fn start(&mut self) -> Result<Kind, JsonError> {
        match self.peek() {
            _ if self.depth > MAX_DEPTH => Err(self.err(JsonErrorKind::TooDeep)),
            Some(kind) => Ok(kind),
            None => Err(self.err(JsonErrorKind::ExpectedValue)),
        }
    }

    #[inline]
    fn enter(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
    }

    #[inline]
    fn leave(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Enters the array at the cursor; walk it with
    /// [`next_item`](Self::next_item).
    ///
    /// # Errors
    ///
    /// Fails where [`Json::parse`] would, or if the value is not an array.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        if self.start()? != Kind::Array {
            return Err(self.err(JsonErrorKind::Expected(b'[')));
        }
        self.enter();
        Ok(())
    }

    /// Moves to the next item of the innermost open array: `true` with
    /// the cursor on the item, or `false` once the closing `]` is
    /// consumed.
    ///
    /// # Errors
    ///
    /// Fails where [`Json::parse`] would.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let more = if std::mem::take(&mut self.fresh) {
            self.byte() != Some(b']')
        } else {
            match self.byte() {
                Some(b',') => {
                    self.pos += 1;
                    true
                }
                Some(b']') => false,
                _ => return Err(self.err(JsonErrorKind::ExpectedCommaOrBracket)),
            }
        };
        if !more {
            self.leave();
        }
        Ok(more)
    }

    /// Enters the object at the cursor; walk it with
    /// [`next_key`](Self::next_key).
    ///
    /// # Errors
    ///
    /// Fails where [`Json::parse`] would, or if the value is not an
    /// object.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        if self.start()? != Kind::Object {
            return Err(self.err(JsonErrorKind::Expected(b'{')));
        }
        self.enter();
        Ok(())
    }

    /// Moves to the next member of the innermost open object: its key,
    /// with the cursor on its value, or `None` once the closing `}` is
    /// consumed. Keys come in document order, repeats included; the key
    /// borrows from the document unless it holds escapes.
    ///
    /// # Errors
    ///
    /// Fails where [`Json::parse`] would.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        if std::mem::take(&mut self.fresh) {
            if self.byte() == Some(b'}') {
                self.leave();
                return Ok(None);
            }
        } else {
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.leave();
                    return Ok(None);
                }
                _ => return Err(self.err(JsonErrorKind::ExpectedCommaOrBrace)),
            }
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads the number at the cursor. Integers of up to 15 digits skip
    /// `str::parse` (they are exact in an `f64`, so the value is the
    /// same); every other number goes through it.
    ///
    /// # Errors
    ///
    /// Fails where [`Json::parse`] would, or if the value is not a
    /// number.
    #[inline]
    pub fn number(&mut self) -> Result<f64, JsonError> {
        if self.start()? != Kind::Number {
            return Err(self.err(JsonErrorKind::InvalidNumber));
        }
        self.number_here()
    }

    /// Parses the value at the cursor into a tree.
    ///
    /// # Errors
    ///
    /// Fails where [`Json::parse`] would.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        Ok(match self.start()? {
            Kind::Null => {
                self.literal("null", JsonErrorKind::ExpectedNull)?;
                Json::Null
            }
            Kind::Bool => Json::Bool(self.boolean()?),
            Kind::Number => Json::Num(self.number_here()?),
            Kind::String => Json::Str(self.string()?.into_owned()),
            Kind::Array => {
                self.enter();
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Json::Arr(items)
            }
            Kind::Object => {
                self.enter();
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    pairs.push((key.into_owned(), value));
                }
                Json::Obj(pairs)
            }
        })
    }

    /// Checks the value at the cursor against the grammar and moves past
    /// it, building nothing.
    ///
    /// # Errors
    ///
    /// Fails where [`Json::parse`] would.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.start()? {
            Kind::Null => self.literal("null", JsonErrorKind::ExpectedNull),
            Kind::Bool => self.boolean().map(drop),
            Kind::Number => self.number_here().map(drop),
            Kind::String => self.string().map(drop),
            Kind::Array => {
                self.enter();
                while self.next_item()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.enter();
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Ends the document: only whitespace may follow its value.
    ///
    /// # Errors
    ///
    /// [`JsonErrorKind::TrailingCharacters`] otherwise.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err(JsonErrorKind::TrailingCharacters));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, missing: JsonErrorKind) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(missing))
        }
    }

    fn boolean(&mut self) -> Result<bool, JsonError> {
        if self.byte() == Some(b't') {
            self.literal("true", JsonErrorKind::ExpectedTrue)?;
            Ok(true)
        } else {
            self.literal("false", JsonErrorKind::ExpectedFalse)?;
            Ok(false)
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        // Unescaped runs are copied only once an escape forces an owned
        // string; a plain key borrows from the document.
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let text = &self.input[run..self.pos];
            match self.byte() {
                None => return Err(self.err(JsonErrorKind::UnterminatedString)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(text),
                        Some(mut s) => {
                            s.push_str(text);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(text);
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                    run = self.pos;
                }
                // RFC 8259 §7: U+0000–U+001F must be escaped.
                Some(_) => return Err(self.err(JsonErrorKind::ControlCharacter)),
            }
        }
    }

    /// Decodes the escape after a backslash, leaving the cursor past it.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                if self.pos + 5 > self.bytes.len() {
                    return Err(self.err(JsonErrorKind::TruncatedEscape));
                }
                let hex = &self.bytes[self.pos + 1..self.pos + 5];
                let hex = std::str::from_utf8(hex)
                    .ok()
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| self.err(JsonErrorKind::BadUnicodeEscape))?;
                self.pos += 4;
                // Surrogate pairs are not needed for the data this repo
                // writes; lone surrogates become the replacement
                // character.
                char::from_u32(hex).unwrap_or('\u{FFFD}')
            }
            _ => return Err(self.err(JsonErrorKind::BadEscape)),
        };
        self.pos += 1;
        Ok(c)
    }

    #[inline]
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - from
    }

    #[inline]
    fn number_here(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.byte() == Some(b'-');
        self.pos += usize::from(negative);
        let int_start = self.pos;
        let mut int = 0u64;
        while let Some(d @ b'0'..=b'9') = self.byte() {
            int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let int_digits = self.pos - int_start;
        let point = self.pos;
        let frac_digits = (self.byte() == Some(b'.')).then(|| {
            self.pos += 1;
            self.digits()
        });
        let exp_digits = matches!(self.byte(), Some(b'e' | b'E')).then(|| {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()
        });
        // Forms that `str::parse` also rejects keep their old error, at
        // the end of the token.
        if (int_digits == 0 && frac_digits.unwrap_or(0) == 0) || exp_digits == Some(0) {
            return Err(self.err(JsonErrorKind::InvalidNumber));
        }
        // RFC 8259 §6, which `str::parse` does not enforce.
        if int_digits > 1 && self.bytes[int_start] == b'0' {
            self.pos = int_start;
            return Err(self.err(JsonErrorKind::LeadingZero));
        }
        if int_digits == 0 || frac_digits == Some(0) {
            self.pos = point;
            return Err(self.err(JsonErrorKind::BareDecimalPoint));
        }
        if frac_digits.is_none() && exp_digits.is_none() && int_digits <= 15 {
            // Below 2^53, so exact: the value `str::parse` returns.
            let x = int as f64;
            return Ok(if negative { -x } else { x });
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|_| self.err(JsonErrorKind::InvalidNumber))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for src in ["null", "true", "false", "0", "-1.5", "3e8", "\"hi\""] {
            let v = Json::parse(src).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn f32_roundtrip_is_exact() {
        let xs = [0.1f32, -1e-7, 3.4e38, f32::MIN_POSITIVE, 0.333_333_34];
        let v = Json::f32_array(&xs);
        let back = Json::parse(&v.to_string()).unwrap();
        let ys: Vec<f32> = back
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f32().unwrap())
            .collect();
        assert_eq!(&xs[..], &ys[..]);
    }

    #[test]
    fn object_access() {
        let v = Json::parse(r#"{"a": 1, "b": [true, null], "c": {"d": "x"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_usize(), Some(1));
        assert_eq!(
            v.get("b").unwrap().as_array().unwrap()[0].as_bool(),
            Some(true)
        );
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn as_usize_takes_exactly_the_non_negative_integers() {
        for (x, want) in [
            (0.0, Some(0)),
            (-0.0, Some(0)),
            (7.0, Some(7)),
            (9_007_199_254_740_993.0, Some(9_007_199_254_740_992)),
            (18_446_744_073_709_551_616.0, Some(usize::MAX)),
            (0.5, None),
            (4_503_599_627_370_495.5, None),
            (-1.0, None),
            (1e300, None),
            (f64::INFINITY, None),
            (f64::NAN, None),
        ] {
            assert_eq!(Json::Num(x).as_usize(), want, "{x}");
        }
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        let round = Json::parse(&v.to_string()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"héllo ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ✓"));
    }

    #[test]
    fn rejects_garbage() {
        for src in [
            "{not json",
            "[1,]",
            "{\"a\":}",
            "12 34",
            "",
            "nul",
            "\"open",
            "-",
            "1e",
            "[1.e]",
        ] {
            assert!(Json::parse(src).is_err(), "should reject {src:?}");
        }
        // RFC 8259 forms that `str::parse::<f64>` would accept.
        for (src, kind) in [
            ("007", JsonErrorKind::LeadingZero),
            ("01.5", JsonErrorKind::LeadingZero),
            ("-00", JsonErrorKind::LeadingZero),
            ("[[01,2]]", JsonErrorKind::LeadingZero),
            ("1.", JsonErrorKind::BareDecimalPoint),
            ("[[1.,2]]", JsonErrorKind::BareDecimalPoint),
            ("-.5", JsonErrorKind::BareDecimalPoint),
            ("1.e5", JsonErrorKind::BareDecimalPoint),
            ("\"a\u{0}b\"", JsonErrorKind::ControlCharacter),
            ("\"tab\there\"", JsonErrorKind::ControlCharacter),
            ("{\"k\n\": 1}", JsonErrorKind::ControlCharacter),
            ("\"\u{1f}\"", JsonErrorKind::ControlCharacter),
        ] {
            let err = Json::parse(src).expect_err(src);
            assert_eq!(err.kind, kind, "{src:?}: {err}");
        }
    }

    #[test]
    fn errors_name_their_byte() {
        for (src, offset, message) in [
            ("[1, 2", 5, "expected ',' or ']'"),
            ("[1,]", 3, "expected a JSON value"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("{1: 2}", 1, "expected '\"'"),
            ("[1] x", 4, "trailing characters after value"),
            ("[1e]", 3, "invalid number"),
            ("[007]", 1, "leading zero in number"),
            ("[-.5]", 2, "decimal point without a digit on each side"),
            ("\"\\q\"", 2, "bad escape"),
            ("\"\\u12", 2, "truncated \\u escape"),
            ("\"abc", 4, "unterminated string"),
            ("tru", 0, "expected 'true'"),
        ] {
            let err = Json::parse(src).expect_err(src);
            assert_eq!(
                err.to_string(),
                format!("json parse error at byte {offset}: {message}"),
                "{src:?}"
            );
        }
    }

    #[test]
    fn integer_fast_path_matches_str_parse() {
        for src in [
            "0",
            "-0",
            "7",
            "-42",
            "123456789012345",
            "-999999999999999",
            "1234567890123456",
            "9007199254740993",
            "18446744073709551616",
            "1e400",
            "-1e400",
            "1.0",
            "1e0",
            "2.5E-3",
        ] {
            let x = Reader::new(src).number().unwrap();
            let want: f64 = src.parse().unwrap();
            assert_eq!(x.to_bits(), want.to_bits(), "{src}");
        }
    }

    #[test]
    fn reader_walks_and_skips_like_parse() {
        let src = r#" {"a": [1, {"b": null}, "s\u00e9"], "c": true, "d": -2.5e1} "#;
        let mut r = Reader::new(src);
        r.begin_object().unwrap();
        let mut keys = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            keys.push(key.into_owned());
            if keys.len() == 3 {
                assert_eq!(r.peek(), Some(Kind::Number));
                assert_eq!(r.number().unwrap(), -25.0);
            } else {
                r.skip().unwrap();
            }
        }
        r.finish().unwrap();
        assert_eq!(keys, ["a", "c", "d"]);
        // A key with escapes is owned; a plain one borrows.
        let mut r = Reader::new(r#"{"plain": 1, "t\tab": 2}"#);
        r.begin_object().unwrap();
        assert!(matches!(
            r.next_key().unwrap(),
            Some(Cow::Borrowed("plain"))
        ));
        r.skip().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("t\tab"));
        // Skipping reports the first error exactly as parsing does.
        for src in [
            "[1, [2, 3}, 4]",
            "{\"a\": [[[",
            "[\"x\", 01]",
            "[[1,2],[3,4]] ,",
        ] {
            let mut r = Reader::new(src);
            let skipped = r.skip().and_then(|()| r.finish());
            assert_eq!(skipped, Json::parse(src).map(drop), "{src}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn pretty_parses_back() {
        let v = Json::obj(vec![
            ("name", Json::from("bench")),
            ("values", Json::f32_array(&[1.0, 2.5])),
            ("empty", Json::Arr(vec![])),
        ]);
        let p = v.pretty();
        assert!(p.contains('\n'));
        assert_eq!(Json::parse(&p).unwrap(), v);
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let src = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&src).is_err());
        // 128 levels of containers may hold one more value; the value
        // after that is too deep, even a scalar.
        let ok = "[".repeat(129) + &"]".repeat(129);
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(129) + "1" + &"]".repeat(129);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!((err.offset, err.kind), (129, JsonErrorKind::TooDeep));
    }
}
