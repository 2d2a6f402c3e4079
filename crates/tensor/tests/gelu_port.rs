//! The blocked path's GELU is a bit-exact port of the libm expression:
//! the AVX2 kernel, the scalar port and the libm expression agree bit
//! for bit, for GELU and for its `tanh`, NaN payloads included.
//!
//! The fast test covers a strided sweep of 2^20 bit patterns, ±64 ULPs
//! around every branch threshold of fdlibm `tanhf` and `expm1f`, the
//! special values and every slice length up to 17 (the AVX2 kernel's
//! tail). The `#[ignore]`d test walks all 2^32 inputs; run it with
//! `cargo test --release -p alfi-tensor -- --ignored`.

use alfi_tensor::elementwise::{self, gelu_libm, Lanes};
use alfi_tensor::gemm::KernelPath;

/// The implementations this host runs: the scalar port, and the AVX2
/// kernel where the CPU has AVX2.
fn available() -> Vec<Lanes> {
    [Lanes::Scalar, Lanes::Avx2]
        .into_iter()
        .filter(|l| l.is_available())
        .collect()
}

/// The inputs of `x` on which some implementation's GELU or tanh
/// differs from the libm expression's bits, as `(fn, lanes, input,
/// got, want)` bit patterns.
fn mismatches(x: &[f32]) -> Vec<(&'static str, Lanes, u32, u32, u32)> {
    let mut bad = Vec::new();
    let mut out = vec![0.0f32; x.len()];
    for lanes in available() {
        for (name, kernel, libm) in [
            (
                "tanh",
                elementwise::tanh_on as fn(Lanes, &[f32], &mut [f32]),
                f32::tanh as fn(f32) -> f32,
            ),
            ("gelu", elementwise::gelu_on, gelu_libm),
        ] {
            kernel(lanes, x, &mut out);
            for (&v, &got) in x.iter().zip(&out) {
                let want = libm(v);
                if got.to_bits() != want.to_bits() {
                    bad.push((name, lanes, v.to_bits(), got.to_bits(), want.to_bits()));
                }
            }
        }
    }
    bad
}

fn assert_exact(x: &[f32], what: &str) {
    let bad = mismatches(x);
    assert!(
        bad.is_empty(),
        "{what}: {} mismatches, first {:08x?}",
        bad.len(),
        &bad[..bad.len().min(8)]
    );
}

/// `v` and the 64 representable values on either side of it, for both
/// signs.
fn around(v: f32) -> impl Iterator<Item = f32> {
    let b = v.abs().to_bits() as i64;
    (b - 64..=b + 64).flat_map(|b| {
        let b = b.clamp(0, 0x7f80_0000) as u32;
        [f32::from_bits(b), -f32::from_bits(b)]
    })
}

/// The `v` whose GELU passes `u` to tanh: `√(2/π)·(v + 0.044715·v³)`
/// is increasing, so bisection finds it.
fn gelu_arg(u: f64) -> f32 {
    let c = (2.0 / std::f64::consts::PI).sqrt();
    let (mut lo, mut hi) = (0.0f64, u.max(1.0) * 4.0);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if c * (mid + 0.044_715 * mid * mid * mid) < u {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo as f32
}

#[test]
fn the_port_equals_libm_on_sweeps_thresholds_and_special_values() {
    // Every 4093rd bit pattern: 2^20 and more, every exponent and sign.
    let sweep: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
    assert!(sweep.len() >= 1 << 20);
    assert_exact(&sweep, "strided sweep");

    // tanhf's branch thresholds on |x|, and expm1f's, which it meets at
    // 2|x|, so at half of them; then the boundaries where expm1f's
    // reduction `k` steps -2/-3, 22/23 and 56/57, at (|k| - 1/2)·ln2.
    let thresholds = [
        0x2400_0000u32,
        0x3300_0000,
        0x3eb1_7218,
        0x3f80_0000,
        0x3f85_1592,
        0x4195_b844,
        0x41b0_0000,
        0x42b1_7218,
    ];
    let mut tanh_args: Vec<f64> = Vec::new();
    for t in thresholds {
        tanh_args.push(f32::from_bits(t) as f64);
        tanh_args.push(f32::from_bits(t) as f64 / 2.0);
    }
    for k in [3.0f64, 23.0, 57.0] {
        tanh_args.push((k - 0.5) * std::f64::consts::LN_2 / 2.0);
    }
    // Each threshold as a tanh input, and the GELU input whose tanh
    // argument lands on it.
    let near: Vec<f32> = tanh_args
        .iter()
        .flat_map(|&u| [u as f32, gelu_arg(u)])
        .flat_map(around)
        .collect();
    assert_exact(&near, "±64 ULPs around the branch thresholds");

    let special: Vec<f32> = [
        0x0000_0000u32, // +0
        0x8000_0000,    // -0
        0x0000_0001,    // subnormals
        0x0000_0100,
        0x0040_0000,
        0x007f_ffff,
        0x8000_0001,
        0x807f_ffff,
        0x0080_0000, // smallest normals
        0x8080_0000,
        0x7f7f_ffff, // ±MAX
        0xff7f_ffff,
        0x7f80_0000, // ±Inf
        0xff80_0000,
        0x7fc0_0000, // quiet NaNs of both signs, with payloads
        0xffc0_0000,
        0x7fc1_2345,
        0xffff_ffff,
        0x7f80_0001, // signalling NaNs of both signs
        0x7fa0_0000,
        0x7fbf_ffff,
        0xff80_0001,
        0xffa5_a5a5,
    ]
    .into_iter()
    .map(f32::from_bits)
    .collect();
    assert_exact(&special, "special values");

    // Every slice length through two AVX2 chunks and a tail, off the
    // vector alignment, on both paths of `gelu` too.
    let mixed: Vec<f32> = special
        .iter()
        .copied()
        .chain(near.iter().copied().step_by(97))
        .collect();
    for len in 0..=17 {
        let x = &mixed[1..1 + len];
        assert_exact(x, &format!("length {len}"));
        for path in [KernelPath::Reference, KernelPath::Blocked] {
            let mut out = vec![0.0f32; len];
            elementwise::gelu(x, &mut out, path);
            let want: Vec<u32> = x.iter().map(|&v| gelu_libm(v).to_bits()).collect();
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want,
                "{path}, length {len}"
            );
        }
    }
}

#[test]
#[ignore = "walks all 2^32 inputs; run in a release build"]
fn the_port_equals_libm_on_every_input() {
    const CHUNK: u64 = 1 << 16;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let chunks = (1u64 << 32) / CHUNK;
    // Each worker counts its mismatches and keeps the first few.
    let (count, first) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let (mut count, mut first) = (0usize, Vec::new());
                    let mut x = vec![0.0f32; CHUNK as usize];
                    for c in (w..chunks).step_by(threads as usize) {
                        for (i, v) in x.iter_mut().enumerate() {
                            *v = f32::from_bits((c * CHUNK + i as u64) as u32);
                        }
                        let bad = mismatches(&x);
                        count += bad.len();
                        first.extend(bad.into_iter().take(8 - first.len().min(8)));
                    }
                    (count, first)
                })
            })
            .collect();
        workers
            .into_iter()
            .fold((0, Vec::new()), |(count, mut first), w| {
                let (c, f) = w.join().expect("sweep worker panicked");
                first.extend(f);
                (count + c, first)
            })
    });
    assert_eq!(count, 0, "mismatches over 2^32 inputs, first {first:08x?}");
}
