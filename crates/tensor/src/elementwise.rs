//! Element-wise activation kernels on the GEMM's kernel-path switch.
//!
//! [`gelu`] evaluates the tanh approximation of GELU,
//! `0.5·v·(1 + tanh(√(2/π)·(v + 0.044715·v³)))`, on the path
//! [`crate::gemm::kernel_path`] selects:
//!
//! * **Reference** — the expression on the host libm's `tanhf`
//!   ([`gelu_libm`]), the oracle every golden artifact was pinned
//!   against.
//! * **Blocked** — the same expression on a port of glibc's fdlibm
//!   `tanhf` and `expm1f` (`sysdeps/ieee754/flt-32/s_tanhf.c` and
//!   `s_expm1f.c`): the same single-precision operations in the same
//!   order, never a fused multiply-add, and the same integer arithmetic
//!   on bit patterns. An 8-lane AVX2 kernel evaluates the branches
//!   `tanhf` takes and selects per lane instead of branching, with one
//!   `expm1f` form for every reduction `k >= 3`, exact through `tanhf`;
//!   the scalar port runs the tail, hosts without AVX2 and
//!   `ALFI_KERNEL_PORTABLE=1`.
//!
//! Where the host libm's `tanhf` is that fdlibm routine (glibc's
//! `flt-32` one, not an ifunc), the ports equal the libm expression bit
//! for bit on every one of the 2^32 inputs, NaN payloads included; an
//! `#[ignore]`d test walks them all. The blocked path's GELU does not
//! read the host libm, so it gives the same bits on every host.
//!
//! Softmax, attention's `exp` and `Sigmoid` stay on libm: glibc's
//! `expf` is an ifunc with an FMA variant, so no port of it can equal
//! it on every host.

use crate::gemm::{simd_available, KernelPath};

/// Which implementation evaluates the blocked path's kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    /// One value at a time: the scalar ports.
    Scalar,
    /// Eight values per AVX2 instruction, the scalar ports for the tail.
    Avx2,
}

impl Lanes {
    /// Whether this host can run the implementation: [`Lanes::Avx2`]
    /// needs an `x86_64` CPU with AVX2 (`ALFI_KERNEL_PORTABLE` does not
    /// matter here).
    pub fn is_available(self) -> bool {
        match self {
            Lanes::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Lanes::Avx2 => false,
        }
    }
}

/// GELU of every element of `x` into `out` on `path`; both paths give
/// the same bits (see the module docs).
///
/// # Panics
///
/// Panics if `x` and `out` differ in length.
pub fn gelu(x: &[f32], out: &mut [f32], path: KernelPath) {
    match path {
        KernelPath::Reference => {
            assert_eq!(x.len(), out.len(), "gelu operand lengths");
            for (o, &v) in out.iter_mut().zip(x) {
                *o = gelu_libm(v);
            }
        }
        KernelPath::Blocked => {
            let lanes = if simd_available() {
                Lanes::Avx2
            } else {
                Lanes::Scalar
            };
            gelu_on(lanes, x, out);
        }
    }
}

/// The reference path's GELU of one value: the expression on the host
/// libm's `tanhf`.
pub fn gelu_libm(v: f32) -> f32 {
    gelu_expr(v, f32::tanh)
}

/// The GELU expression around a `tanh`: one definition for the
/// reference path and the ports, so they share its operation order.
#[inline(always)]
fn gelu_expr(v: f32, tanh: impl Fn(f32) -> f32) -> f32 {
    // tanh approximation of GELU
    let c = (2.0f32 / std::f32::consts::PI).sqrt();
    0.5 * v * (1.0 + tanh(c * (v + 0.044_715 * v * v * v)))
}

/// GELU of every element of `x` into `out` on the blocked path's
/// `lanes` implementation.
///
/// # Panics
///
/// Panics if `x` and `out` differ in length, or `lanes` is not
/// available on this host.
pub fn gelu_on(lanes: Lanes, x: &[f32], out: &mut [f32]) {
    map(lanes, Op::Gelu, x, out);
}

/// fdlibm `tanhf` of every element of `x` into `out` on `lanes`, the
/// blocked path's GELU's `tanh`.
///
/// # Panics
///
/// Panics if `x` and `out` differ in length, or `lanes` is not
/// available on this host.
pub fn tanh_on(lanes: Lanes, x: &[f32], out: &mut [f32]) {
    map(lanes, Op::Tanh, x, out);
}

#[derive(Clone, Copy)]
enum Op {
    Gelu,
    Tanh,
}

impl Op {
    /// The scalar port of `op` at one value.
    #[inline]
    fn scalar(self, v: f32) -> f32 {
        match self {
            Op::Gelu => gelu_expr(v, tanh_port),
            Op::Tanh => tanh_port(v),
        }
    }
}

fn map(lanes: Lanes, op: Op, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "element-wise operand lengths");
    assert!(
        lanes.is_available(),
        "{lanes:?} kernels are not available on this host"
    );
    let done = match lanes {
        Lanes::Scalar => 0,
        // SAFETY: `is_available` confirmed AVX2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2 => unsafe { avx2::map(op, x, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Lanes::Avx2 => unreachable!("AVX2 is never available off x86_64"),
    };
    for (o, &v) in out[done..].iter_mut().zip(&x[done..]) {
        *o = op.scalar(v);
    }
}

// ---------------------------------------------------------------------------
// Scalar ports: glibc's fdlibm routines, statement for statement.
// ---------------------------------------------------------------------------

const TINY: f32 = 1.0e-30;
const HUGE: f32 = 1.0e30;
// fdlibm's constants, by their bit patterns (decimal as in the source).
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180); // 8.8721679688e+01
const LN2_HI: f32 = f32::from_bits(0x3f31_7180); // 6.9313812256e-01
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1); // 9.0580006145e-06
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b); // 1.4426950216e+00
// Scaled coefficients related to expm1.
const Q1: f32 = f32::from_bits(0xbd08_8889); // -3.3333335072e-02
const Q2: f32 = f32::from_bits(0x3ad0_0d01); // 1.5873016091e-03
const Q3: f32 = f32::from_bits(0xb8a6_70cd); // -7.9365076090e-05
const Q4: f32 = f32::from_bits(0x3686_7e54); // 4.0082177293e-06
const Q5: f32 = f32::from_bits(0xb457_edbb); // -2.0109921195e-07

/// fdlibm `tanhf`.
fn tanh_port(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    // x is Inf or NaN: tanh(±Inf) = ±1, tanh(NaN) = NaN.
    if ix >= 0x7f80_0000 {
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55: tanh(small) = small
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1_port(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1_port(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| >= 22: ±1
        1.0 - TINY
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// fdlibm `expm1f`.
fn expm1_port(x: f32) -> f32 {
    let mut x = x;
    let hx = x.to_bits() & 0x7fff_ffff;
    let negative = x.is_sign_negative();
    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| >= 27·ln2
        if hx >= 0x42b1_7218 {
            // |x| >= 88.721...
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if negative { -1.0 } else { x }; // exp(±Inf) - 1 = {-1, Inf}
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if negative {
            return TINY - 1.0; // x < -27·ln2: -1
        }
    }
    // Argument reduction.
    let k: i32;
    let mut c = 0.0;
    if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo);
        if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln2
            if negative {
                (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
            } else {
                (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
            }
        } else {
            // C's float-to-int conversion truncates.
            k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI; // t·ln2_hi is exact here
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: x
        let t = HUGE + x;
        return x - (t - HUGE);
    } else {
        k = 0;
    }
    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    // Adds k to y's exponent.
    let scale = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    if k <= -2 || k > 56 {
        // exp(x) - 1 suffices
        return scale(1.0 - (e - x)) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32); // 1 - 2^-k
        scale(t - (e - x))
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        let mut y = x - (e + t);
        y += 1.0;
        scale(y)
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels: the ports on eight lanes, every branch evaluated and
// selected per lane.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Runs `op` over the whole 8-lane chunks of `x` into `out` and
    /// returns how many leading elements it wrote.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn map(op: Op, x: &[f32], out: &mut [f32]) -> usize {
        let mut done = 0;
        for (src, dst) in x.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
            // SAFETY: both chunks hold exactly eight `f32`s.
            let v = unsafe { _mm256_loadu_ps(src.as_ptr()) };
            let r = match op {
                Op::Gelu => gelu(v),
                Op::Tanh => tanh(v),
            };
            // SAFETY: as above.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), r) };
            done += 8;
        }
        done
    }

    /// `gelu_expr` on [`tanh`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gelu(v: __m256) -> __m256 {
        let c = _mm256_set1_ps((2.0f32 / std::f32::consts::PI).sqrt());
        let cube = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.044_715), v), v),
            v,
        );
        let th = tanh(_mm256_mul_ps(c, _mm256_add_ps(v, cube)));
        _mm256_mul_ps(
            _mm256_mul_ps(_mm256_set1_ps(0.5), v),
            _mm256_add_ps(_mm256_set1_ps(1.0), th),
        )
    }

    /// `tanh_port` of each lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tanh(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0));
        let ix = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
        let ax = _mm256_castsi256_ps(ix);
        // 2^-55 <= |x| < 22: the |x| >= 1 and |x| < 1 forms share
        // `expm1` on their own arguments and one division.
        let big = at_least(ix, 0x3f80_0000);
        let arg = _mm256_blendv_ps(
            _mm256_mul_ps(_mm256_set1_ps(-2.0), ax),
            _mm256_mul_ps(two, ax),
            big,
        );
        let t = expm1(arg);
        let neg_t = _mm256_xor_ps(t, _mm256_set1_ps(-0.0));
        let q = _mm256_div_ps(_mm256_blendv_ps(neg_t, two, big), _mm256_add_ps(t, two));
        let z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), big);
        let mut r = _mm256_xor_ps(z, sign);
        // |x| >= 22: ±1
        let unit = _mm256_xor_ps(_mm256_set1_ps(1.0 - TINY), sign);
        r = _mm256_blendv_ps(r, unit, at_least(ix, 0x41b0_0000));
        // |x| < 2^-55, then ±0
        let small = _mm256_mul_ps(x, _mm256_add_ps(one, x));
        r = _mm256_blendv_ps(r, small, below(ix, 0x2400_0000));
        r = _mm256_blendv_ps(
            r,
            x,
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(ix, _mm256_setzero_si256())),
        );
        // Inf or NaN
        let recip = _mm256_div_ps(one, x);
        let nonfinite = _mm256_blendv_ps(_mm256_add_ps(recip, one), _mm256_sub_ps(recip, one), x);
        _mm256_blendv_ps(r, nonfinite, at_least(ix, 0x7f80_0000))
    }

    /// `expm1_port` as [`tanh`] needs it, on each lane whose argument
    /// `tanh` passes it: `(-2, -2^-54]` or `[2, 44)`. There `k` is 0,
    /// -1, -2, -3 or 3..=63 and no special case but `|x| < 2^-25`
    /// applies; other lanes compute values `tanh` discards. Every
    /// `k >= 3` lane takes the port's `k < 23` form, which leaves
    /// `expm1f`'s value from `k = 23` on; there `tanh`'s
    /// `1 - 2/(t + 2)` rounds to the same bits from either `t` (the
    /// 2^32-input walk in `tests/gelu_port.rs` checks it). So this is
    /// exact through `tanh`, not as `expm1f`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn expm1(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let hx = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
        let half = _mm256_blendv_ps(_mm256_set1_ps(0.5), _mm256_set1_ps(-0.5), x);
        let k_far = _mm256_cvttps_epi32(_mm256_add_ps(
            _mm256_mul_ps(_mm256_set1_ps(INVLN2), x),
            half,
        ));
        let k_near = _mm256_or_si256(
            _mm256_srai_epi32(_mm256_castps_si256(x), 31),
            _mm256_set1_epi32(1),
        );
        let reduced = _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(0x3eb1_7218));
        let near = _mm256_castps_si256(below(hx, 0x3f85_1592));
        let k = _mm256_and_si256(reduced, _mm256_blendv_epi8(k_far, k_near, near));
        // hi = x - k·ln2_hi and lo = k·ln2_lo are the ±1 forms for
        // k = ±1, and leave x as it is (c = 0) for k = 0.
        let kf = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(x, _mm256_mul_ps(kf, _mm256_set1_ps(LN2_HI)));
        let lo = _mm256_mul_ps(kf, _mm256_set1_ps(LN2_LO));
        let x = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, x), lo);

        let hfx = _mm256_mul_ps(_mm256_set1_ps(0.5), x);
        let hxs = _mm256_mul_ps(x, hfx);
        let mut p = _mm256_set1_ps(Q5);
        for q in [Q4, Q3, Q2, Q1] {
            p = _mm256_add_ps(_mm256_set1_ps(q), _mm256_mul_ps(hxs, p));
        }
        let r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, p));
        let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t),
                _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(x, t)),
            ),
        );
        let k0 = _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
        let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c), hxs);
        let k_minus1 = _mm256_sub_ps(
            _mm256_mul_ps(_mm256_set1_ps(0.5), _mm256_sub_ps(x, e)),
            _mm256_set1_ps(0.5),
        );
        let e_minus_x = _mm256_sub_ps(e, x);
        let k_out = _mm256_sub_ps(scale(_mm256_sub_ps(one, e_minus_x), k), one);
        let t_low = _mm256_sub_epi32(
            _mm256_set1_epi32(0x3f80_0000),
            _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
        );
        let k_low = scale(_mm256_sub_ps(_mm256_castsi256_ps(t_low), e_minus_x), k);

        let is = |m: __m256i| _mm256_castsi256_ps(m);
        let mut r = _mm256_blendv_ps(
            k_low,
            k_out,
            is(_mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k)),
        );
        r = _mm256_blendv_ps(
            r,
            k_minus1,
            is(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1))),
        );
        r = _mm256_blendv_ps(r, k0, is(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())));
        // |x| < 2^-25: x (before the reduction, which left it as it is)
        let tiny = _mm256_sub_ps(
            x,
            _mm256_sub_ps(_mm256_add_ps(_mm256_set1_ps(HUGE), x), _mm256_set1_ps(HUGE)),
        );
        _mm256_blendv_ps(r, tiny, below(hx, 0x3300_0000))
    }

    /// Adds `k` to each lane's exponent, as integer adds on the bits.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn scale(y: __m256, k: __m256i) -> __m256 {
        _mm256_castsi256_ps(_mm256_add_epi32(
            _mm256_castps_si256(y),
            _mm256_slli_epi32(k, 23),
        ))
    }

    /// Lanes whose non-negative `bits` are at least `t`, as a blend mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn at_least(bits: __m256i, t: i32) -> __m256 {
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(bits, _mm256_set1_epi32(t - 1)))
    }

    /// Lanes whose non-negative `bits` are below `t`, as a blend mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn below(bits: __m256i, t: i32) -> __m256 {
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(t), bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar `expm1f` port equals libm's on every 4093rd bit
    /// pattern and ±64 ULPs around each of its branch thresholds,
    /// including the branches `tanh` never takes.
    #[test]
    fn expm1_port_equals_libm() {
        let thresholds = [
            0x3300_0000u32,
            0x3eb1_7218,
            0x3f85_1592,
            0x4195_b844,
            0x42b1_7180,
            0x42b1_7218,
        ];
        let near = thresholds
            .iter()
            .flat_map(|&t| (t - 64..=t + 64).flat_map(|b| [b, b | 0x8000_0000]));
        for b in (0..=u32::MAX).step_by(4093).chain(near) {
            let x = f32::from_bits(b);
            assert_eq!(
                expm1_port(x).to_bits(),
                x.exp_m1().to_bits(),
                "expm1({x:e}) = {b:08x}"
            );
        }
    }
}
