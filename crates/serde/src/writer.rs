//! One-pass JSON rendering: [`JsonWriter`] appends a value's text to a
//! `String` as [`ToJson`] walks it, with no intermediate [`Json`](crate::Json)
//! tree and no per-value allocation.

use crate::ToJson;
use std::fmt::Write as _;

/// A newline and the indentation of depth 64; shallower depths slice it.
const INDENT: &str = concat!(
    "\n",
    "                                                                ",
    "                                                                "
);

/// `"00" "01" … "99"`, two ASCII digits per value.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes `v`'s decimal digits into the end of `buf` and returns them.
pub(crate) fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[v as usize * 2..v as usize * 2 + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII")
}

/// Appends JSON text to a `String`, either pretty (2-space indentation,
/// `"key": value`, the `serde_json` `to_string_pretty` layout) or
/// compact (no whitespace).
///
/// Scalars are written directly; [`JsonWriter::array`] and
/// [`JsonWriter::object`] open a container whose items the returned
/// [`JsonArray`] / [`JsonObject`] write, and whose `end` closes it.
///
/// ```
/// use alfi_serde::JsonWriter;
///
/// let mut out = String::new();
/// let mut w = JsonWriter::compact(&mut out);
/// let mut obj = w.object();
/// obj.field("\"ids\":", &[1u8, 2]);
/// obj.entry("name", "box");
/// obj.end();
/// assert_eq!(out, r#"{"ids":[1,2],"name":"box"}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Nesting depth of the next value (pretty layout only).
    depth: usize,
}

impl<'a> JsonWriter<'a> {
    /// A writer with the pretty layout.
    pub fn pretty(out: &'a mut String) -> Self {
        JsonWriter { out, pretty: true, depth: 0 }
    }

    /// A writer with the compact layout.
    pub fn compact(out: &'a mut String) -> Self {
        JsonWriter { out, pretty: false, depth: 0 }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.out.push_str(decimal(v, &mut [0; 20]));
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push('-');
        }
        self.u64(v.unsigned_abs());
    }

    /// Writes a 128-bit integer (the [`Json::Int`](crate::Json::Int) range).
    pub fn i128(&mut self, v: i128) {
        match i64::try_from(v) {
            Ok(v) => self.i64(v),
            Err(_) => {
                let _ = write!(self.out, "{v}");
            }
        }
    }

    /// Writes a float the way `serde_json` does: the shortest text that
    /// reads back as the same `f64`, with `.0` appended to integral
    /// values; non-finite values become `null`.
    ///
    /// An exact `f32` value takes [`write_f32_exact`](crate::write_f32_exact);
    /// every other value is formatted by `core::fmt`. Both write
    /// `Display`'s text.
    pub fn f64(&mut self, v: f64) {
        if !v.is_finite() {
            return self.null();
        }
        let start = self.out.len();
        if !crate::write_f32_exact(self.out, v) {
            let _ = write!(self.out, "{v}");
        }
        if !self.out.as_bytes()[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            self.out.push_str(".0");
        }
    }

    /// Writes a string, escaping `"`, `\` and the control characters
    /// below U+0020; runs without such bytes are copied whole.
    pub fn str(&mut self, s: &str) {
        let out = &mut *self.out;
        out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0..=0x1f => "\\u00",
                _ => continue,
            };
            out.push_str(&s[run..i]);
            out.push_str(escape);
            if escape == "\\u00" {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    /// Opens an array; write its items through the returned handle and
    /// close it with [`JsonArray::end`].
    pub fn array(&mut self) -> JsonArray<'_, 'a> {
        self.open('[');
        JsonArray { w: self, empty: true }
    }

    /// Opens an object; write its members through the returned handle
    /// and close it with [`JsonObject::end`].
    pub fn object(&mut self) -> JsonObject<'_, 'a> {
        self.open('{');
        JsonObject { w: self, empty: true }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
    }

    /// Starts a container's next member: the comma after the previous
    /// one, then (pretty) a newline at the member's depth.
    fn next_member(&mut self, empty: &mut bool) {
        if !std::mem::take(empty) {
            self.out.push(',');
        }
        self.newline();
    }

    /// Closes a container; an empty one stays on the opening line.
    fn close(&mut self, empty: bool, bracket: char) {
        self.depth -= 1;
        if !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// Ends a member's key: pretty puts a space after the colon.
    fn after_key(&mut self) {
        if self.pretty {
            self.out.push(' ');
        }
    }

    fn newline(&mut self) {
        if !self.pretty {
            return;
        }
        let mut spaces = 2 * self.depth;
        let deepest = INDENT.len() - 1;
        self.out.push_str(&INDENT[..1 + spaces.min(deepest)]);
        while spaces > deepest {
            spaces -= deepest;
            self.out.push_str(&INDENT[1..1 + spaces.min(deepest)]);
        }
    }
}

/// An open JSON array of a [`JsonWriter`].
#[derive(Debug)]
#[must_use = "an array is closed by `end`"]
pub struct JsonArray<'w, 'a> {
    w: &'w mut JsonWriter<'a>,
    empty: bool,
}

impl JsonArray<'_, '_> {
    /// Writes the next item.
    pub fn item<T: ToJson + ?Sized>(&mut self, value: &T) {
        self.w.next_member(&mut self.empty);
        value.write_json(self.w);
    }

    /// Writes `]`.
    pub fn end(self) {
        self.w.close(self.empty, ']');
    }
}

/// An open JSON object of a [`JsonWriter`].
#[derive(Debug)]
#[must_use = "an object is closed by `end`"]
pub struct JsonObject<'w, 'a> {
    w: &'w mut JsonWriter<'a>,
    empty: bool,
}

impl JsonObject<'_, '_> {
    /// Writes a member whose key is given already quoted and followed
    /// by its colon, `"\"name\":"`, the fragment [`json_struct!`](crate::json_struct)
    /// writes for each field; the key is copied as is, unescaped.
    pub fn field<T: ToJson + ?Sized>(&mut self, quoted_key: &'static str, value: &T) {
        self.w.next_member(&mut self.empty);
        self.w.out.push_str(quoted_key);
        self.w.after_key();
        value.write_json(self.w);
    }

    /// Writes a member with any key, escaped as a JSON string.
    pub fn entry<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.w.next_member(&mut self.empty);
        self.w.str(key);
        self.w.out.push(':');
        self.w.after_key();
        value.write_json(self.w);
    }

    /// Writes `}`.
    pub fn end(self) {
        self.w.close(self.empty, '}');
    }
}
