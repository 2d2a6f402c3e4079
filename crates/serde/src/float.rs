//! Shortest round-trip digits for `f64` values that are exactly an `f32`.
//!
//! Every bounding box, score, area and injected value the workspace
//! writes is an `f32` widened to `f64`, and `core::fmt` spends most of a
//! JSON document's time formatting them. [`write_f32_exact`] writes the
//! same text as `Display` for such a value without `core::fmt`: it
//! computes the value's exact `f64` rounding interval in `u128`
//! arithmetic, removes digits while the interval still holds a shorter
//! number (the digit-removal loop of Ryu, Adams PLDI 2018, without its
//! multiplier tables), and lays the digits out as `Display` does.
//!
//! An `f32` widened to `f64` has at least 29 trailing zero bits in its
//! significand, so its `f64` rounding interval is tiny and the shortest
//! digits are those of the `f64`, not of the `f32` (`0.1f32` prints as
//! `0.10000000149011612`). The arithmetic fits for magnitudes of at
//! least 2^-48; smaller values, like every `f64` that is not an `f32`,
//! are left to `core::fmt`. The `float_digits` tests compare the result
//! with `format!("{}", f as f64)`, sampled in the default suite and over
//! all 2^32 `f32` bit patterns in an ignored test.

/// The largest power of five the scaled interval may be multiplied by:
/// a 55-bit bound times `5^31` still fits in `u128`.
const MAX_POW5: u32 = 31;

/// Appends `v` formatted as `Display` formats it (`format!("{v}")`) when
/// `v` is exactly an `f32` (`(v as f32) as f64 == v`) that is zero or at
/// least 2^-48 in magnitude, and returns `true`. Returns `false` and
/// appends nothing for NaN, ±Inf, values below that range and every
/// `f64` that is not an `f32`.
///
/// ```
/// let mut out = String::new();
/// assert!(alfi_serde::write_f32_exact(&mut out, 0.1f32 as f64));
/// assert_eq!(out, "0.10000000149011612");
/// assert!(!alfi_serde::write_f32_exact(&mut out, 0.1));
/// ```
pub fn write_f32_exact(out: &mut String, v: f64) -> bool {
    if !v.is_finite() || (v as f32) as f64 != v {
        return false;
    }
    let bits = v.to_bits();
    let sign = if bits >> 63 == 1 { "-" } else { "" };
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1 << 52) - 1);
    if biased == 0 {
        // ±0: every nonzero f32 is a normal f64.
        out.push_str(sign);
        out.push('0');
        return true;
    }
    let Some((digits, exp)) = shortest(frac | 1 << 52, biased - 1075, frac == 0) else {
        return false;
    };
    out.push_str(sign);
    layout(out, digits, exp);
    true
}

/// `floor(e · log10 2)` for `0 <= e <= 1650` (Ryu's `log10Pow2`).
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78913) >> 18) as i32
}

/// The shortest `digits · 10^exp` in the closed `f64` rounding interval
/// of `m · 2^e` (`m` an even 53-bit significand; `pow2` when `m` is a
/// power of two, whose lower neighbour is half as far), closest to the
/// value, halfway cases rounded up. `None` when the interval's
/// scaling does not fit in `u128`.
fn shortest(m: u64, e: i32, pow2: bool) -> Option<(u64, i32)> {
    // The value and its interval bounds, in units of 2^(e - 2).
    let mv = 4 * m;
    let (mm, mp) = (mv - if pow2 { 1 } else { 2 }, mv + 2);
    let e2 = e - 2;
    // Scale all three by 10^-q, where 10^q <= 2^e2 so that at least one
    // multiple of 10^q lies in the interval: the floor of each, whether
    // it was exact, and whether the fraction dropped is at least 1/2.
    let (q, shift, p5) = if e2 >= 0 {
        // x · 2^e2 / 10^q = (x << (e2 - q)) / 5^q.
        let q = log10_pow2(e2);
        (q, (e2 - q) as u32, q as u32)
    } else {
        // x · 2^e2 · 10^k = (x · 5^k) >> (-e2 - k), with k = -q.
        let k = log10_pow2(-e2) + 1;
        (-k, (-e2 - k) as u32, k as u32)
    };
    if p5 > MAX_POW5 || (e2 >= 0 && shift > 128 - 55) {
        return None;
    }
    let p5 = 5u128.pow(p5);
    let scale = |x: u64| {
        if e2 >= 0 {
            let n = (x as u128) << shift;
            let rem = n % p5;
            ((n / p5) as u64, rem == 0, 2 * rem >= p5)
        } else {
            let n = x as u128 * p5;
            let rem = n & ((1 << shift) - 1);
            ((n >> shift) as u64, rem == 0, shift > 0 && rem >> (shift - 1) == 1)
        }
    };
    let ((mut vm, mut vm_exact, _), (mut vr, _, half), (mut vp, _, _)) =
        (scale(mm), scale(mv), scale(mp));
    // Drop a digit while a multiple of the next power of ten still lies
    // above the lower bound, then (the bounds are inclusive, m being
    // even) while the lower bound itself is one. `last` stands for the
    // dropped part: at least 5 when it is at least half a unit.
    let (mut exp, mut last) = (q, if half { 5 } else { 0 });
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        last = vr % 10;
        (vm, vr, vp, exp) = (vm / 10, vr / 10, vp / 10, exp + 1);
    }
    if vm_exact {
        while vm % 10 == 0 {
            last = vr % 10;
            (vm, vr, vp, exp) = (vm / 10, vr / 10, vp / 10, exp + 1);
        }
    }
    // Exactly halfway rounds up, as `core::fmt` does.
    let up = (vr == vm && !vm_exact) || last >= 5;
    Some((vr + u64::from(up), exp))
}

/// Writes `digits · 10^exp` positionally, as `Display` does: never an
/// exponent, a leading `0.` below one, trailing zeros above the digits.
fn layout(out: &mut String, digits: u64, exp: i32) {
    let mut buf = [0u8; 20];
    let text = crate::writer::decimal(digits, &mut buf);
    let n = text.len() as i32;
    let point = n + exp;
    let zeros = |out: &mut String, k: i32| out.extend(std::iter::repeat_n('0', k as usize));
    if point <= 0 {
        out.push_str("0.");
        zeros(out, -point);
        out.push_str(text);
    } else if point < n {
        out.push_str(&text[..point as usize]);
        out.push('.');
        out.push_str(&text[point as usize..]);
    } else {
        out.push_str(text);
        zeros(out, point - n);
    }
}
