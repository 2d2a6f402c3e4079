//! Property-based tests for the tensor substrate's core invariants,
//! running on the in-tree `alfi-check` harness.

mod common;

use alfi_check::{assume, check, check_with, gen};
use alfi_rng::Rng;
use alfi_tensor::conv::{avg_pool2d, conv2d_direct, conv2d_im2col, max_pool2d, ConvConfig};
use alfi_tensor::f16::{Bf16, F16};
use alfi_tensor::gemm;
use alfi_tensor::quant::{flip_bit_i8, QuantParams};
use alfi_tensor::{bits, Shape, Tensor, TensorError};
use common::fanned_out;

/// Flipping any bit twice restores the exact bit pattern — the
/// transient-fault restore guarantee rests on this.
#[test]
fn f32_flip_is_involutive() {
    check("f32_flip_is_involutive", |rng| {
        let v = gen::any_f32(rng);
        let pos: u8 = rng.gen_range(0u8..32);
        let back = bits::flip_bit(bits::flip_bit(v, pos), pos);
        assert_eq!(back.to_bits(), v.to_bits());
    });
}

/// Flip direction is consistent with the pre-flip bit value.
#[test]
fn flip_direction_matches_bit() {
    check("flip_direction_matches_bit", |rng| {
        let v = gen::any_f32(rng);
        let pos: u8 = rng.gen_range(0u8..32);
        let was_set = bits::get_bit(v, pos);
        let (_, dir) = bits::flip_bit_traced(v, pos);
        assert_eq!(dir == bits::FlipDirection::OneToZero, was_set);
    });
}

/// A flipped value always differs from the original in exactly one bit.
#[test]
fn flip_changes_exactly_one_bit() {
    check("flip_changes_exactly_one_bit", |rng| {
        let v = gen::any_f32(rng);
        let pos: u8 = rng.gen_range(0u8..32);
        let c = bits::flip_bit(v, pos);
        assert_eq!((c.to_bits() ^ v.to_bits()).count_ones(), 1);
    });
}

/// Stuck-at faults are idempotent.
#[test]
fn stuck_at_is_idempotent() {
    check("stuck_at_is_idempotent", |rng| {
        let v = gen::any_f32(rng);
        let pos: u8 = rng.gen_range(0u8..32);
        let bit = gen::any_bool(rng);
        let once = bits::set_bit(v, pos, bit);
        let twice = bits::set_bit(once, pos, bit);
        assert_eq!(once.to_bits(), twice.to_bits());
    });
}

/// Shape flat/multi index round trip for arbitrary small shapes of
/// rank 0–5: every in-bounds index maps to `Σ index[i] * strides[i]`
/// and back.
#[test]
fn shape_index_round_trip() {
    check("shape_index_round_trip", |rng| {
        let dims = gen::vec_of(rng, 0..6, |r| r.gen_range(1usize..6));
        let s = Shape::new(&dims);
        let strides = s.strides();
        let n = s.num_elements();
        let index: Vec<usize> = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
        let expected: usize = index.iter().zip(&strides).map(|(i, st)| i * st).sum();
        assert_eq!(s.flat_index(&index).unwrap(), expected);
        assert_eq!(s.multi_index(expected).unwrap(), index);
        for flat in [0, n / 2, n - 1] {
            let idx = s.multi_index(flat).unwrap();
            assert_eq!(s.flat_index(&idx).unwrap(), flat);
        }
    });
}

/// Rank mismatches and an out-of-range coordinate on any axis (dims of
/// size zero included) are reported as typed errors carrying the
/// offending index and the shape.
#[test]
fn shape_index_errors_are_typed() {
    check("shape_index_errors_are_typed", |rng| {
        let dims = gen::vec_of(rng, 0..6, |r| r.gen_range(0usize..6));
        let s = Shape::new(&dims);
        let rank = dims.len();

        let wrong_rank = (rank + rng.gen_range(1usize..3)) % 7;
        assert_eq!(
            s.flat_index(&vec![0; wrong_rank]),
            Err(TensorError::RankMismatch { expected: rank, actual: wrong_rank })
        );
        for axis in 0..rank {
            let mut index: Vec<usize> = dims.iter().map(|&d| d.saturating_sub(1)).collect();
            index[axis] = dims[axis] + rng.gen_range(0usize..3);
            assert_eq!(
                s.flat_index(&index),
                Err(TensorError::IndexOutOfBounds { index: index.clone(), shape: dims.clone() })
            );
        }
        let past_end = s.num_elements() + rng.gen_range(0usize..3);
        assert_eq!(
            s.multi_index(past_end),
            Err(TensorError::IndexOutOfBounds { index: vec![past_end], shape: dims.clone() })
        );
    });
}

/// f16 conversion round-trips values already representable in f16.
#[test]
fn f16_double_conversion_is_stable() {
    check("f16_double_conversion_is_stable", |rng| {
        let v: f32 = rng.gen_range(-60000.0f32..60000.0);
        let once = F16::from_f32(v).to_f32();
        let twice = F16::from_f32(once).to_f32();
        assert_eq!(once.to_bits(), twice.to_bits());
    });
}

/// f16 conversion error is within one ULP of the f16 grid for normal values.
#[test]
fn f16_error_bound() {
    check("f16_error_bound", |rng| {
        let v: f32 = rng.gen_range(1.0e-3f32..60000.0);
        let back = F16::from_f32(v).to_f32();
        // ulp at magnitude v is at most v * 2^-10
        assert!((back - v).abs() <= v * 1.0e-3, "{} -> {}", v, back);
    });
}

/// bf16 conversion error bound for normal values (7-bit mantissa).
#[test]
fn bf16_error_bound() {
    check("bf16_error_bound", |rng| {
        let v: f32 = rng.gen_range(1.0e-3f32..1.0e30);
        let back = Bf16::from_f32(v).to_f32();
        assert!((back - v).abs() <= v * 8.0e-3, "{} -> {}", v, back);
    });
}

/// f16/bf16 flips are involutive.
#[test]
fn f16_bf16_flip_involutive() {
    check("f16_bf16_flip_involutive", |rng| {
        let v = gen::any_f32(rng);
        let pos: u8 = rng.gen_range(0u8..16);
        let h = F16::from_f32(v);
        assert_eq!(h.flip_bit(pos).flip_bit(pos), h);
        let b = Bf16::from_f32(v);
        assert_eq!(b.flip_bit(pos).flip_bit(pos), b);
    });
}

/// Quantize/dequantize error stays within half a step for in-range values.
#[test]
fn quant_round_trip_error() {
    check("quant_round_trip_error", |rng| {
        let lo: f32 = rng.gen_range(-10.0f32..-0.1);
        let hi: f32 = rng.gen_range(0.1f32..10.0);
        let x: f32 = rng.gen_range(-0.09f32..0.09);
        let p = QuantParams::from_range(lo, hi);
        let x = x * (hi - lo) * 5.0; // scale into range
        let x = x.clamp(lo, hi);
        let back = p.dequantize(p.quantize(x));
        assert!((back - x).abs() <= p.max_round_error() + p.scale * 1e-3);
    });
}

/// int8 flips are involutive.
#[test]
fn i8_flip_involutive() {
    check("i8_flip_involutive", |rng| {
        let q = gen::any_i8(rng);
        let pos: u8 = rng.gen_range(0u8..8);
        assert_eq!(flip_bit_i8(flip_bit_i8(q, pos), pos), q);
    });
}

/// Direct and im2col convolutions agree on random configurations.
#[test]
fn conv_implementations_agree() {
    check("conv_implementations_agree", |rng| {
        let seed = gen::any_u64(rng);
        let c_in: usize = rng.gen_range(1usize..4);
        let c_out: usize = rng.gen_range(1usize..4);
        let hw: usize = rng.gen_range(3usize..8);
        let k: usize = rng.gen_range(1usize..4);
        let pad: usize = rng.gen_range(0usize..2);
        assume!(k <= hw + 2 * pad);
        let mut data_rng = Rng::from_seed(seed);
        let input = Tensor::rand_normal(&mut data_rng, &[1, c_in, hw, hw], 0.0, 1.0);
        let weight = Tensor::rand_normal(&mut data_rng, &[c_out, c_in, k, k], 0.0, 1.0);
        let cfg = ConvConfig { stride: 1, padding: pad, dilation: 1 };
        let a = conv2d_direct(&input, &weight, None, cfg).unwrap();
        let b = conv2d_im2col(&input, &weight, None, cfg).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-3);
    });
}

/// Max pool output never exceeds the input maximum and avg pool stays
/// within [min, max].
#[test]
fn pooling_bounds() {
    check("pooling_bounds", |rng| {
        let seed = gen::any_u64(rng);
        let hw: usize = rng.gen_range(2usize..8);
        let k: usize = rng.gen_range(1usize..4);
        assume!(k <= hw);
        let mut data_rng = Rng::from_seed(seed);
        let input = Tensor::rand_normal(&mut data_rng, &[1, 2, hw, hw], 0.0, 3.0);
        let cfg = ConvConfig::default();
        let mx = max_pool2d(&input, k, cfg).unwrap();
        let av = avg_pool2d(&input, k, cfg).unwrap();
        assert!(mx.max() <= input.max());
        assert!(av.max() <= input.max() + 1e-5);
        assert!(av.min() >= input.min() - 1e-5);
    });
}

/// softmax output is a probability vector for finite inputs.
#[test]
fn softmax_is_probability() {
    check("softmax_is_probability", |rng| {
        let v = gen::vec_of(rng, 1..20, |r| r.gen_range(-50.0f32..50.0));
        let n = v.len();
        let t = Tensor::from_vec(v, &[n]).unwrap();
        let s = t.softmax_lastdim().unwrap();
        let sum: f32 = s.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(s.data().iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    });
}

/// The row-chunked parallel matmul is bit-identical to the sequential
/// kernel at every thread cap 1–8. Every shape crosses the fan-out floor
/// (`n` is sized to it), from thin `m` on the reference kernel to
/// blocked ones, so the chunked pool path runs at every cap above 1.
#[test]
fn parallel_matmul_is_bit_identical() {
    check_with(32, "parallel_matmul_is_bit_identical", |rng| {
        let seed = gen::any_u64(rng);
        let m: usize = rng.gen_range(2usize..40);
        let k: usize = rng.gen_range(16usize..128);
        let n: usize = gemm::PAR_MIN_MACS.div_ceil(m * k) + rng.gen_range(0usize..64);
        let mut data_rng = Rng::from_seed(seed);
        let a = Tensor::rand_normal(&mut data_rng, &[m, k], 0.0, 1.0);
        let b = Tensor::rand_normal(&mut data_rng, &[k, n], 0.0, 1.0);
        let reference = alfi_pool::with_parallelism(1, || a.matmul(&b).unwrap());
        for threads in 2..=8 {
            let what = format!("parallel matmul at {threads} threads (m={m} k={k} n={n})");
            let par = fanned_out(threads, &what, || a.matmul(&b).unwrap());
            assert_eq!(reference.data(), par.data(), "{what} diverged");
        }
    });
}

/// The parallel im2col convolution is bit-identical to its sequential
/// path at every thread cap 1–8, and tracks the direct kernel within FP
/// tolerance (the two differ in summation order, so bit-equality across
/// *implementations* is not expected). Several batch items fan out over
/// items at any size; a single item fans out its GEMM's rows, so its
/// output channels are sized to the fan-out floor.
#[test]
fn parallel_conv_is_bit_identical_and_matches_direct() {
    check_with(32, "parallel_conv_is_bit_identical_and_matches_direct", |rng| {
        let seed = gen::any_u64(rng);
        let nb: usize = rng.gen_range(1usize..5);
        let c_in: usize = rng.gen_range(1usize..4);
        let hw: usize = rng.gen_range(4usize..10);
        let k: usize = rng.gen_range(1usize..4);
        let pad: usize = rng.gen_range(0usize..2);
        let stride: usize = rng.gen_range(1usize..3);
        assume!(k <= hw + 2 * pad);
        let cfg = ConvConfig { stride, padding: pad, dilation: 1 };
        let spatial = cfg.out_size(hw, k).unwrap().pow(2);
        let c_out: usize = if nb > 1 {
            rng.gen_range(1usize..4)
        } else {
            gemm::PAR_MIN_MACS.div_ceil(c_in * k * k * spatial) + rng.gen_range(0usize..3)
        };
        let mut data_rng = Rng::from_seed(seed);
        let input = Tensor::rand_normal(&mut data_rng, &[nb, c_in, hw, hw], 0.0, 1.0);
        let weight = Tensor::rand_normal(&mut data_rng, &[c_out, c_in, k, k], 0.0, 1.0);
        let bias = Tensor::rand_normal(&mut data_rng, &[c_out], 0.0, 1.0);
        let reference = alfi_pool::with_parallelism(1, || {
            conv2d_im2col(&input, &weight, Some(&bias), cfg).unwrap()
        });
        for threads in 2..=8 {
            let what = format!(
                "parallel conv at {threads} threads (nb={nb} c_in={c_in} c_out={c_out} hw={hw} k={k} s={stride} p={pad})"
            );
            let par = fanned_out(threads, &what, || conv2d_im2col(&input, &weight, Some(&bias), cfg).unwrap());
            assert_eq!(reference.data(), par.data(), "{what} diverged");
        }
        let direct = conv2d_direct(&input, &weight, Some(&bias), cfg).unwrap();
        assert!(direct.max_abs_diff(&reference).unwrap() < 1e-3);
    });
}

/// stack/batch_item round trip.
#[test]
fn stack_round_trip() {
    check("stack_round_trip", |rng| {
        let seed = gen::any_u64(rng);
        let n: usize = rng.gen_range(1usize..5);
        let len: usize = rng.gen_range(1usize..10);
        let mut data_rng = Rng::from_seed(seed);
        let items: Vec<Tensor> =
            (0..n).map(|_| Tensor::rand_uniform(&mut data_rng, &[len], -1.0, 1.0)).collect();
        let stacked = Tensor::stack(&items).unwrap();
        for (i, item) in items.iter().enumerate() {
            assert_eq!(&stacked.batch_item(i).unwrap(), item);
        }
    });
}
