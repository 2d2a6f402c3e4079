//! `write_f32_exact` against `core::fmt`: wherever the f32 digit path
//! answers, its text must be `format!("{}", f as f64)`; it must answer
//! every finite `f32` that is zero or at least 2^-48 in magnitude, and
//! refuse NaN, ±Inf and the rest.
//!
//! The default suite samples random bit patterns, powers of two, the
//! subnormal and range boundaries, `f32::MAX`, the integers up to 2^24
//! and their negatives, and the exact halfway cases. The `#[ignore]`d
//! test walks all 2^32 bit patterns; run it with
//! `cargo test --release -p alfi-serde -- --ignored`.

use alfi_serde::write_f32_exact;
use std::fmt::Write as _;

/// The smallest magnitude the digit path answers.
const MIN_ANSWERED: f32 = 3.5527137e-15; // 2^-48

/// The mismatch of `f` (its bits, the path's answer, `Display`'s text),
/// if any; `ours` and `display` are reused buffers.
fn mismatch(
    f: f32,
    ours: &mut String,
    display: &mut String,
) -> Option<(u32, Option<String>, String)> {
    ours.clear();
    display.clear();
    let answered = write_f32_exact(ours, f as f64);
    let _ = write!(display, "{}", f as f64);
    let should = f.is_finite() && (f == 0.0 || f.abs() >= MIN_ANSWERED);
    let agrees = if answered { should && ours == display } else { !should && ours.is_empty() };
    (!agrees).then(|| (f.to_bits(), answered.then(|| ours.clone()), display.clone()))
}

fn assert_matches(values: impl IntoIterator<Item = f32>) {
    let (mut ours, mut display) = (String::new(), String::new());
    for f in values {
        if let Some((bits, got, want)) = mismatch(f, &mut ours, &mut display) {
            panic!("f32 bits {bits:#010x}: digit path wrote {got:?}, Display writes {want:?}");
        }
    }
}

#[test]
fn special_values_and_boundaries() {
    let min_sub = f32::from_bits(1);
    assert_matches([
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        0.5,
        1.0e-3,
        300.25,
        16_777_216.0,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        min_sub,
        -min_sub,
        MIN_ANSWERED,
        -MIN_ANSWERED,
        f32::from_bits(MIN_ANSWERED.to_bits() - 1),
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ]);
    let mut out = String::new();
    for v in [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, 1e-300] {
        assert!(!write_f32_exact(&mut out, v), "{v} is not an f32");
    }
    assert!(out.is_empty());
}

#[test]
fn halfway_values_keep_the_even_digit() {
    // Many odd significands in [128, 1024) lie exactly halfway between
    // two shortest candidates of their f64 interval; `core::fmt` rounds
    // those up.
    assert_matches((0..4096u32).map(|i| f32::from_bits(0x4300_0001 + 2 * 977 * i)));
    assert_matches((0..4096u32).map(|i| f32::from_bits(0x4400_0001 + 2 * 1021 * i)));
}

#[test]
fn sampled_f32_values_match_display() {
    alfi_check::check("f32_digits_match_display", |rng| {
        let mut values: Vec<f32> = (0..64).map(|_| f32::from_bits(rng.next_u32())).collect();
        let e: i32 = rng.gen_range(-149..128);
        let pow2 = 2f64.powi(e) as f32;
        let int = rng.gen_range(0..=1u32 << 24) as f32;
        let k: u32 = rng.gen_range(0..64);
        values.extend([
            pow2,
            int,
            f32::from_bits(0x0080_0000 + k),
            f32::from_bits(0x0080_0000 - 1 - k),
            f32::from_bits(f32::MAX.to_bits() - k),
            f32::from_bits(MIN_ANSWERED.to_bits() + k),
            f32::from_bits(MIN_ANSWERED.to_bits() - 1 - k),
        ]);
        assert_matches(values.iter().flat_map(|&f| [f, -f]));
    });
}

#[test]
#[ignore = "walks all 2^32 f32 bit patterns; run in a release build"]
fn every_f32_matches_display() {
    const CHUNK: u64 = 1 << 16;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2) as u64;
    let chunks = (1u64 << 32) / CHUNK;
    let (count, first) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let (mut count, mut first) = (0usize, Vec::new());
                    let (mut ours, mut display) = (String::new(), String::new());
                    for c in (w..chunks).step_by(threads as usize) {
                        for bits in c * CHUNK..(c + 1) * CHUNK {
                            let f = f32::from_bits(bits as u32);
                            if let Some(bad) = mismatch(f, &mut ours, &mut display) {
                                count += 1;
                                if first.len() < 8 {
                                    first.push(bad);
                                }
                            }
                        }
                    }
                    (count, first)
                })
            })
            .collect();
        workers.into_iter().fold((0, Vec::new()), |(count, mut first), w| {
            let (c, f) = w.join().expect("walk worker panicked");
            first.extend(f);
            (count + c, first)
        })
    });
    assert_eq!(count, 0, "{count} mismatches, first: {first:?}");
}
