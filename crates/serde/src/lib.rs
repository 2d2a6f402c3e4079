//! In-tree JSON serialization for the ALFI workspace.
//!
//! The paper's output pipeline (Fig. 3) persists ground truth,
//! detections, and KPI summaries as JSON documents. This module owns
//! that format end to end: a one-pass [`JsonWriter`] that renders a
//! [`ToJson`] value straight into a `String` in the layout the repo's
//! golden files were written with (2-space indent, struct fields in
//! declaration order, integral floats rendered as `1.0`), a [`Json`]
//! value type for parsed and hand-built documents (rendered by the same
//! writer), a recursive-descent parser, and [`ToJson`]/[`FromJson`]
//! traits that structs implement by hand or via [`json_struct!`].
//!
//! Floats that are exactly an `f32` — every box, score, area and
//! injected value — are formatted by [`write_f32_exact`] instead of
//! `core::fmt`, with the same text.
//!
//! # Example
//!
//! ```
//! use alfi_serde::{json_struct, to_compact, to_pretty, FromJson, Json};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point { x: f32, y: f32 }
//! json_struct!(Point { x, y });
//!
//! let p = Point { x: 1.0, y: 0.1 };
//! assert_eq!(to_compact(&p), r#"{"x":1.0,"y":0.10000000149011612}"#);
//! let back = Point::from_json(&Json::parse(&to_pretty(&p)).unwrap()).unwrap();
//! assert_eq!(p, back);
//! ```

mod float;
mod writer;

pub use float::write_f32_exact;
pub use writer::{JsonArray, JsonObject, JsonWriter};

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or constructed JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map) so
/// that struct serialization keeps field declaration order, matching the
/// files previous versions of the repo wrote.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent in the source.
    Int(i128),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Error produced by JSON parsing or [`FromJson`] decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` (accepts both `Int` and `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `i128` (integers only).
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation (the `serde_json`
    /// `to_string_pretty` layout the repo's files were written with).
    pub fn pretty(&self) -> String {
        to_pretty(self)
    }

    /// Serializes without whitespace.
    pub fn compact(&self) -> String {
        to_compact(self)
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!("trailing characters at offset {}", p.pos)));
        }
        Ok(v)
    }
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected '{}' at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::new("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError::new(format!(
                "unexpected character '{}' at offset {}",
                b as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
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
                _ => return Err(JsonError::new(format!("expected ',' or ']' at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::new(format!("expected ',' or '}}' at offset {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000C}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(JsonError::new("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(JsonError::new("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or_else(|| JsonError::new("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| JsonError::new("invalid code point"))?
                            };
                            s.push(c);
                            continue;
                        }
                        _ => return Err(JsonError::new(format!("invalid escape at offset {}", self.pos))),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::new("control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len])
                        .map_err(|_| JsonError::new("invalid utf-8"))?;
                    s.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::new("truncated \\u escape"));
        }
        let chunk = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(chunk, 16).map_err(|_| JsonError::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| JsonError::new(format!("invalid number '{text}'")))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| JsonError::new(format!("invalid number '{text}'")))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Writes a value as JSON text.
pub trait ToJson {
    /// Writes the value through `w`.
    fn write_json(&self, w: &mut JsonWriter<'_>);
}

/// The members of a struct's JSON object without its braces, in the
/// order [`json_struct!`] lists them; lets a caller put members of its
/// own (an event tag, a format version) before them in the same object.
pub trait JsonFields {
    /// Writes each field into `obj`.
    fn write_fields(&self, obj: &mut JsonObject<'_, '_>);
}

/// Renders `value` with 2-space indentation (see [`Json::pretty`]).
pub fn to_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut JsonWriter::pretty(&mut out));
    out
}

/// Renders `value` without whitespace.
pub fn to_compact<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut JsonWriter::compact(&mut out));
    out
}

impl ToJson for Json {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Int(i) => w.i128(*i),
            Json::Float(f) => w.f64(*f),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => items.write_json(w),
            Json::Obj(pairs) => {
                let mut obj = w.object();
                for (k, v) in pairs {
                    obj.entry(k, v);
                }
                obj.end();
            }
        }
    }
}

/// Reconstructs a value from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Decodes from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the shape or types don't match.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

macro_rules! impl_json_int {
    ($write:ident as $wide:ty: $($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter<'_>) {
                w.$write(*self as $wide);
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v.as_int().ok_or_else(|| JsonError::new(concat!("expected integer for ", stringify!($t))))?;
                <$t>::try_from(i).map_err(|_| JsonError::new(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_json_int!(u64 as u64: u8, u16, u32, u64, usize);
impl_json_int!(i64 as i64: i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.f64(*self);
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            // Non-finite floats serialize as null; decode them back as NaN.
            Json::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| JsonError::new("not a number")),
        }
    }
}

impl ToJson for f32 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.f64(*self as f64);
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.bool(*self);
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_owned).ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let mut arr = w.array();
        for item in self {
            arr.item(item);
        }
        arr.end();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().write_json(w);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().write_json(w);
    }
}

impl<T: FromJson + Copy + Default, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v.as_arr().ok_or_else(|| JsonError::new("expected array"))?;
        if items.len() != N {
            return Err(JsonError::new(format!("expected array of length {N}, got {}", items.len())));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_json(item)?;
        }
        Ok(out)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let mut arr = w.array();
        arr.item(&self.0);
        arr.item(&self.1);
        arr.end();
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr().ok_or_else(|| JsonError::new("expected array"))? {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            items => Err(JsonError::new(format!("expected a pair, got {} items", items.len()))),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

// Maps with integer-like keys serialize as objects with stringified keys
// (the serde_json convention for non-string keys).
impl<K: ToString + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        let mut obj = w.object();
        for (k, v) in self {
            obj.entry(&k.to_string(), v);
        }
        obj.end();
    }
}

impl<K: std::str::FromStr + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let pairs = v.as_obj().ok_or_else(|| JsonError::new("expected object"))?;
        let mut map = BTreeMap::new();
        for (k, val) in pairs {
            let key = k.parse::<K>().map_err(|_| JsonError::new(format!("bad map key '{k}'")))?;
            map.insert(key, V::from_json(val)?);
        }
        Ok(map)
    }
}

/// Decodes one struct field from an object, by key.
///
/// # Errors
///
/// Returns [`JsonError`] naming the field if the key is absent or the
/// value mistyped.
pub fn from_field<T: FromJson>(obj: &Json, key: &str) -> Result<T, JsonError> {
    match obj.get(key) {
        Some(v) => T::from_json(v).map_err(|e| JsonError::new(format!("field `{key}`: {}", e.msg))),
        None => Err(JsonError::new(format!("missing field `{key}`"))),
    }
}

/// Implements [`ToJson`], [`JsonFields`] and [`FromJson`] for a plain
/// struct, listing each field once; serialization preserves the listed
/// order and writes each key as a static `"name":` fragment.
///
/// `json_struct!(write Type { .. })` implements only the writing half
/// ([`ToJson`] and [`JsonFields`]), for borrowed views such as a struct
/// of slices that render the same object as an owned type.
#[macro_export]
macro_rules! json_struct {
    (write $ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::JsonFields for $ty {
            fn write_fields(&self, obj: &mut $crate::JsonObject<'_, '_>) {
                $(obj.field(concat!("\"", stringify!($field), "\":"), &self.$field);)+
            }
        }
        impl $crate::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::JsonWriter<'_>) {
                let mut obj = w.object();
                $crate::JsonFields::write_fields(self, &mut obj);
                obj.end();
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::json_struct!(write $ty { $($field),+ });
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $($field: $crate::from_field(v, stringify!($field))?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "-0.25", "1e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.compact()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn int_float_distinction_is_preserved() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
        assert_eq!(Json::Int(3).compact(), "3");
        assert_eq!(Json::Float(3.0).compact(), "3.0");
        assert_eq!(Json::Float(0.5).compact(), "0.5");
    }

    #[test]
    fn non_finite_floats_write_null() {
        assert_eq!(Json::Float(f64::NAN).compact(), "null");
        assert_eq!(Json::Float(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn pretty_layout_matches_two_space_convention() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Int(1)),
            ("b".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("c".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(v.pretty(), "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ],\n  \"c\": {}\n}");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let text = "{\"z\": 1, \"a\": 2}";
        let v = Json::parse(text).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{0001}unicode\u{00e9}";
        let v = Json::Str(s.to_string());
        let back = Json::parse(&v.compact()).unwrap();
        assert_eq!(back.as_str().unwrap(), s);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1F600}");
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for text in ["{not json", "[1,", "{\"a\":}", "tru", "\"open", "1 2", "", "{\"a\" 1}", "[1 2]"] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
    }

    #[derive(Debug, PartialEq, Default)]
    struct Demo {
        id: u64,
        name: String,
        score: f32,
        tags: Vec<String>,
        bbox: [f32; 4],
    }
    json_struct!(Demo { id, name, score, tags, bbox });

    #[test]
    fn json_struct_macro_round_trips() {
        let d = Demo {
            id: 7,
            name: "box".into(),
            score: 0.25,
            tags: vec!["a".into(), "b".into()],
            bbox: [1.0, 2.0, 3.0, 4.0],
        };
        let text = to_pretty(&d);
        let back = Demo::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(d, back);
        // Fields appear in declaration order.
        assert!(text.find("\"id\"").unwrap() < text.find("\"name\"").unwrap());
        assert!(text.find("\"name\"").unwrap() < text.find("\"score\"").unwrap());
    }

    #[test]
    fn json_struct_missing_field_is_error() {
        let v = Json::parse("{\"id\": 1}").unwrap();
        assert!(Demo::from_json(&v).is_err());
    }

    #[test]
    fn field_errors_name_the_field() {
        let v = Json::parse("{\"id\": -1}").unwrap();
        let err = from_field::<u64>(&v, "id").unwrap_err().to_string();
        assert!(err.contains("field `id`: integer out of range"), "{err}");
        let err = from_field::<u64>(&v, "name").unwrap_err().to_string();
        assert!(err.contains("missing field `name`"), "{err}");
    }

    #[test]
    fn pairs_round_trip_and_need_exactly_two_items() {
        let pair = (0.25f64, 7u32);
        assert_eq!(to_compact(&pair), "[0.25,7]");
        assert_eq!(<(f64, u32)>::from_json(&Json::parse(&to_compact(&pair)).unwrap()).unwrap(), pair);
        for text in ["[]", "[0.5]", "[0.5,1,2]", "{}"] {
            assert!(<(f64, u32)>::from_json(&Json::parse(text).unwrap()).is_err(), "{text}");
        }
    }

    #[test]
    fn map_round_trips_with_stringified_keys() {
        let mut m = BTreeMap::new();
        m.insert(3usize, 0.5f64);
        m.insert(7usize, 1.0f64);
        let text = to_compact(&m);
        assert_eq!(text, "{\"3\":0.5,\"7\":1.0}");
        let back: BTreeMap<usize, f64> = FromJson::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn f32_round_trips_through_f64_widening() {
        for x in [0.1f32, 1.0, -3.75, f32::MAX, f32::MIN_POSITIVE] {
            let back = f32::from_json(&Json::parse(&to_compact(&x)).unwrap()).unwrap();
            assert_eq!(x, back);
        }
    }
}
