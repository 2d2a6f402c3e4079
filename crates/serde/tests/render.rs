//! The one-pass writer against the tree renderer it replaced: random
//! [`Json`] trees must render to the same bytes, pretty and compact, as
//! the test-local copy of the old `Json::write` below, kept as the
//! reference. A `json_struct!` value streamed through the writer must
//! parse back equal.

use alfi_check::gen;
use alfi_rng::Rng;
use alfi_serde::{json_struct, to_compact, to_pretty, FromJson, Json};
use std::collections::BTreeMap;

/// The tree renderer as it was before the writer: `indent` is the
/// depth (pretty) or `None` (compact).
fn reference(v: &Json, out: &mut String, indent: Option<usize>) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(f) => reference_f64(out, *f),
        Json::Str(s) => reference_escaped(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent.map(|d| d + 1));
                reference(item, out, indent.map(|d| d + 1));
            }
            newline_indent(out, indent);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent.map(|d| d + 1));
                reference_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                reference(v, out, indent.map(|d| d + 1));
            }
            newline_indent(out, indent);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn reference_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn reference_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Every escape class, DEL, and one- to four-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1}',
    '\u{1b}', '\u{1f}', '\u{7f}', 'é', '€', '\u{2028}', '😀',
];

fn any_string(rng: &mut Rng) -> String {
    gen::string_from(rng, ALPHABET, 0..12)
}

fn any_int(rng: &mut Rng) -> i128 {
    let extremes =
        [i128::MIN, i128::MAX, i64::MIN as i128 - 1, i64::MAX as i128 + 1, u64::MAX as i128, 0, -1];
    match rng.gen_range(0..4) {
        0 => extremes[rng.gen_range(0..extremes.len())],
        1 => rng.next_u64() as i64 as i128,
        2 => (rng.next_u64() as i128) << 64 | rng.next_u64() as i128,
        _ => rng.gen_range(-1000i64..1000) as i128,
    }
}

fn any_float(rng: &mut Rng) -> f64 {
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1.0,
        -2.0,
        1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
    ];
    let v = match rng.gen_range(0..7) {
        0 => specials[rng.gen_range(0..specials.len())],
        // f64 subnormals, and f32 subnormals (exact f32, below the digit path's range)
        1 => f64::from_bits(rng.next_u64() & ((1 << 52) - 1)),
        2 => f32::from_bits(rng.next_u32() & 0x007f_ffff) as f64,
        // exact f32 values of every magnitude, and short ones
        3 => gen::any_f32(rng) as f64,
        4 => (rng.gen_range(-100_000i32..100_000) as f32 / 64.0) as f64,
        // not an f32
        5 => gen::any_f64(rng),
        _ => rng.next_f64() * 1000.0,
    };
    if gen::any_bool(rng) {
        -v
    } else {
        v
    }
}

fn any_json(rng: &mut Rng, depth: usize) -> Json {
    match rng.gen_range(0..if depth == 0 { 5 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(gen::any_bool(rng)),
        2 => Json::Int(any_int(rng)),
        3 => Json::Float(any_float(rng)),
        4 => Json::Str(any_string(rng)),
        5 => Json::Arr(gen::vec_of(rng, 0..4, |rng| any_json(rng, depth - 1))),
        _ => Json::Obj(gen::vec_of(rng, 0..4, |rng| (any_string(rng), any_json(rng, depth - 1)))),
    }
}

#[test]
fn writer_renders_trees_as_the_reference_does() {
    alfi_check::check("writer_matches_tree_renderer", |rng| {
        let v = any_json(rng, 5);
        let (mut pretty, mut compact) = (String::new(), String::new());
        reference(&v, &mut pretty, Some(0));
        reference(&v, &mut compact, None);
        assert_eq!(v.pretty(), pretty, "{v:?}");
        assert_eq!(v.compact(), compact, "{v:?}");
    });
}

#[test]
fn deep_nesting_indents_past_the_static_slice() {
    let mut v = Json::Arr(vec![Json::Int(1)]);
    for _ in 0..150 {
        v = Json::Arr(vec![v]);
    }
    let mut want = String::new();
    reference(&v, &mut want, Some(0));
    assert_eq!(v.pretty(), want);
}

#[derive(Debug, Clone, PartialEq)]
struct Inner {
    label: String,
    weight: f32,
}
json_struct!(Inner { label, weight });

#[derive(Debug, Clone, PartialEq)]
struct Outer {
    id: u64,
    offset: i32,
    ratio: f64,
    corners: [f32; 4],
    inner: Inner,
    items: Vec<Inner>,
    bit: Option<u8>,
    interval: (f64, f64),
    per_class: BTreeMap<usize, f64>,
    flag: bool,
}
json_struct!(Outer { id, offset, ratio, corners, inner, items, bit, interval, per_class, flag });

/// A finite value of `draw` (NaN reads back as NaN, never equal, and
/// ±Inf as NaN).
fn finite<T: Copy>(rng: &mut Rng, draw: fn(&mut Rng) -> T, is_finite: fn(T) -> bool) -> T {
    loop {
        let v = draw(rng);
        if is_finite(v) {
            return v;
        }
    }
}

fn any_f64(rng: &mut Rng) -> f64 {
    finite(rng, any_float, f64::is_finite)
}

fn any_inner(rng: &mut Rng) -> Inner {
    Inner { label: any_string(rng), weight: finite(rng, gen::any_f32, f32::is_finite) }
}

#[test]
fn streamed_json_struct_values_parse_back_equal() {
    alfi_check::check("streamed_struct_round_trips", |rng| {
        let v = Outer {
            id: rng.next_u64(),
            offset: rng.next_u32() as i32,
            ratio: any_f64(rng),
            corners: [(); 4].map(|()| finite(rng, gen::any_f32, f32::is_finite)),
            inner: any_inner(rng),
            items: gen::vec_of(rng, 0..4, any_inner),
            bit: gen::any_bool(rng).then(|| rng.next_u32() as u8),
            interval: (any_f64(rng), any_f64(rng)),
            per_class: (0..rng.gen_range(0..4)).map(|c| (c * 3, any_f64(rng))).collect(),
            flag: gen::any_bool(rng),
        };
        for text in [to_pretty(&v), to_compact(&v)] {
            let back = Outer::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, v, "{text}");
            // The streamed text is the tree's rendering of what it parses to.
            let tree = Json::parse(&text).unwrap();
            assert!(text == tree.pretty() || text == tree.compact(), "{text}");
        }
    });
}
