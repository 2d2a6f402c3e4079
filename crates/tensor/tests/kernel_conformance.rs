//! Differential kernel-conformance suite: the cache-blocked packed
//! GEMM must be **bit-for-bit identical** to the sequential reference
//! kernels on every shape class that stresses its blocking logic —
//! remainder rows/columns relative to the `MR × NR` register tile,
//! `k = 1`, degenerate `1×N` / `N×1` products, and odd im2col
//! geometries with stride, padding and dilation — sequentially and at
//! every pool cap 1–8.
//!
//! The contract under test is the one DESIGN.md §5g states: blocking,
//! packing and vectorization may only reorder *independent* output
//! elements, never the per-element accumulation chain, so the blocked
//! path is not "close to" the reference — it is the same function.
//!
//! The same contract lets a fault plan recompute only the output rows a
//! weight fault changes (conv output channels, linear output features)
//! and lets a network reuse one pack of a linear weight; the row-subset
//! and ready-pack tests below pin both against the full kernels.

mod common;

use alfi_rng::Rng;
use alfi_tensor::conv::{conv2d_direct, conv2d_fused, conv2d_im2col, conv2d_rows, ConvConfig};
use alfi_tensor::gemm::{
    self, BLayout, Bias, GemmSpec, KernelPath, NoEpilogue, MR, NR,
};
use alfi_tensor::Tensor;
use common::fanned_out;
use std::sync::Mutex;

/// Serializes tests that flip the process-global kernel override so
/// they cannot race each other under the multi-threaded test runner.
/// (Tests that pass an explicit [`KernelPath`] to `gemm_with` do not
/// need it.)
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the kernel override pinned to `path`, restoring the
/// previous override afterwards.
fn with_kernel<R>(path: KernelPath, f: impl FnOnce() -> R) -> R {
    let prev = gemm::kernel_override();
    gemm::set_kernel_override(Some(path));
    let out = f();
    gemm::set_kernel_override(prev);
    out
}

/// Deterministic operand data with a deliberate fraction of exact
/// zeros so the `skip_zero_a` rule is exercised, not just compiled.
fn operand(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0.0f32..1.0) < 0.15 {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

fn run_gemm(a: &[f32], b: &[f32], spec: &GemmSpec<'_>, path: KernelPath) -> Vec<f32> {
    let mut out = vec![0.0f32; spec.m * spec.n];
    gemm::gemm(a, b, &mut out, spec, path);
    out
}

fn assert_bits_equal(reference: &[f32], blocked: &[f32], what: &str) {
    assert_eq!(reference.len(), blocked.len(), "{what}: length mismatch");
    for (i, (r, b)) in reference.iter().zip(blocked.iter()).enumerate() {
        assert_eq!(
            r.to_bits(),
            b.to_bits(),
            "{what}: bit drift at flat index {i} (reference {r}, blocked {b})"
        );
    }
}

/// The exhaustive shape matrix: every remainder class against the
/// `MR × NR` register tile (`m % MR` ∈ 0..MR, `n % NR` spanning 0, 1,
/// NR−1 and a full extra panel), `k = 1`, and both `B` layouts with
/// and without the zero-skip rule and each bias mode.
#[test]
fn blocked_gemm_matches_reference_on_shape_matrix() {
    let ms = [1, 2, 3, MR, MR + 1, 2 * MR - 1, 2 * MR, 9, 17];
    let ns = [1, 2, NR - 1, NR, NR + 1, 2 * NR, 2 * NR + 3];
    let ks = [1, 2, 7, 64];
    let mut rng = Rng::from_seed(0xC04F0121);
    for &m in &ms {
        for &n in &ns {
            for &k in &ks {
                let a = operand(&mut rng, m * k);
                let b = operand(&mut rng, k * n); // k·n == n·k: serves both layouts
                let bias: Vec<f32> = (0..m.max(n)).map(|i| (i as f32) * 0.25 - 1.0).collect();
                for layout in [BLayout::RowMajor, BLayout::Transposed] {
                    for skip in [false, true] {
                        for bias_mode in 0..3usize {
                            let bias_spec = match bias_mode {
                                0 => Bias::None,
                                1 => Bias::InitPerCol(&bias[..n]),
                                _ => Bias::PostPerRow(&bias[..m]),
                            };
                            let spec = GemmSpec { m, k, n, layout, skip_zero_a: skip, bias: bias_spec };
                            let reference = run_gemm(&a, &b, &spec, KernelPath::Reference);
                            let blocked = run_gemm(&a, &b, &spec, KernelPath::Blocked);
                            assert_bits_equal(
                                &reference,
                                &blocked,
                                &format!("m={m} n={n} k={k} layout={layout:?} skip={skip} bias={bias_mode}"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Degenerate shapes: `1×N`, `N×1`, `k = 1` crossed, plus empty
/// outputs (`m = 0` / `n = 0`) which must be a clean no-op on both
/// paths.
#[test]
fn blocked_gemm_matches_reference_on_degenerate_shapes() {
    let mut rng = Rng::from_seed(0xDE6E);
    for (m, k, n) in [
        (1, 1, 1),
        (1, 1, 100),
        (100, 1, 1),
        (1, 64, 1),
        (1, 7, 2 * NR + 5),
        (3 * MR + 2, 5, 1),
    ] {
        let a = operand(&mut rng, m * k);
        let b = operand(&mut rng, k * n);
        let spec = GemmSpec {
            m,
            k,
            n,
            layout: BLayout::RowMajor,
            skip_zero_a: true,
            bias: Bias::None,
        };
        let reference = run_gemm(&a, &b, &spec, KernelPath::Reference);
        let blocked = run_gemm(&a, &b, &spec, KernelPath::Blocked);
        assert_bits_equal(&reference, &blocked, &format!("degenerate m={m} k={k} n={n}"));
    }
    for (m, n) in [(0, 8), (8, 0), (0, 0)] {
        let spec = GemmSpec {
            m,
            k: 4,
            n,
            layout: BLayout::RowMajor,
            skip_zero_a: true,
            bias: Bias::None,
        };
        let a = vec![1.0f32; m * 4];
        let b = vec![1.0f32; 4 * n];
        let reference = run_gemm(&a, &b, &spec, KernelPath::Reference);
        let blocked = run_gemm(&a, &b, &spec, KernelPath::Blocked);
        assert_eq!(reference, blocked);
        assert!(reference.is_empty());
    }
}

/// A GEMM shape above the fan-out floor, odd in every dimension, whose
/// `MR`-aligned chunks leave a ragged last one.
const FAN_OUT_SHAPE: (usize, usize, usize) = (97, 157, 149);

/// Both kernel paths stay bit-identical to the single-thread reference
/// at every pool cap 1–8, on a shape above the fan-out floor (so the
/// chunked fan-out actually runs).
#[test]
fn gemm_is_bit_identical_at_every_pool_cap() {
    let (m, k, n) = FAN_OUT_SHAPE;
    assert!(m * k * n >= gemm::PAR_MIN_MACS, "the shape must cross the fan-out floor");
    let mut rng = Rng::from_seed(0x9001);
    let a = operand(&mut rng, m * k);
    let b = operand(&mut rng, k * n);
    let spec =
        GemmSpec { m, k, n, layout: BLayout::RowMajor, skip_zero_a: true, bias: Bias::None };
    let golden =
        alfi_pool::with_parallelism(1, || run_gemm(&a, &b, &spec, KernelPath::Reference));
    for threads in 1..=8 {
        for path in [KernelPath::Reference, KernelPath::Blocked] {
            let what = format!("{path} at {threads} threads");
            let got = fanned_out(threads, &what, || run_gemm(&a, &b, &spec, path));
            assert_bits_equal(&golden, &got, &what);
        }
    }
}

/// `Tensor::matmul` dispatches through the kernel switch; both paths
/// must reproduce the public [`alfi_tensor::matmul_rows`] oracle
/// exactly.
#[test]
fn matmul_paths_match_the_rows_oracle() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::from_seed(0x0A11);
    for (m, k, n) in [(1, 1, 1), (5, 17, 33), (16, 64, 48)] {
        let a = Tensor::from_vec(operand(&mut rng, m * k), &[m, k]).unwrap();
        let b = Tensor::from_vec(operand(&mut rng, k * n), &[k, n]).unwrap();
        let mut oracle_data = vec![0.0f32; m * n];
        alfi_tensor::matmul_rows(a.data(), b.data(), &mut oracle_data, 0, k, n);
        let oracle = Tensor::from_vec(oracle_data, &[m, n]).unwrap();
        for path in [KernelPath::Reference, KernelPath::Blocked] {
            let got = with_kernel(path, || a.matmul(&b).unwrap());
            assert_bits_equal(
                oracle.data(),
                got.data(),
                &format!("matmul {path} m={m} k={k} n={n}"),
            );
        }
    }
}

/// Odd im2col geometries — kernel larger than one, strides and pads
/// that leave ragged output extents, dilation holes, `1×1` kernels —
/// run bit-identically through both kernel paths, and track the
/// direct-convolution oracle within FP tolerance (direct sums in a
/// different order, so bit-equality across *algorithms* is not
/// expected there).
#[test]
fn conv_im2col_paths_are_bit_identical_on_odd_geometries() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::from_seed(0xC0DE);
    // (hw, k, stride, pad, dilation)
    let geometries = [
        (7, 3, 1, 0, 1),
        (7, 3, 2, 1, 1),
        (9, 1, 1, 0, 1), // 1×1 kernel: im2col is a pure GEMM
        (9, 1, 3, 0, 1), // stride > kernel
        (8, 5, 1, 2, 1),
        (11, 3, 2, 0, 2), // dilation hole
        (13, 3, 3, 2, 2),
        (6, 2, 2, 1, 1), // even kernel
    ];
    for &(hw, k, stride, pad, dilation) in &geometries {
        let (nb, c_in, c_out) = (2, 3, 5);
        let input = Tensor::from_vec(
            operand(&mut rng, nb * c_in * hw * hw),
            &[nb, c_in, hw, hw],
        )
        .unwrap();
        let weight = Tensor::from_vec(
            operand(&mut rng, c_out * c_in * k * k),
            &[c_out, c_in, k, k],
        )
        .unwrap();
        let bias = Tensor::from_vec(operand(&mut rng, c_out), &[c_out]).unwrap();
        let cfg = ConvConfig::with_dilation(stride, pad, dilation).unwrap();
        for bias_opt in [None, Some(&bias)] {
            let reference = with_kernel(KernelPath::Reference, || {
                conv2d_im2col(&input, &weight, bias_opt, cfg).unwrap()
            });
            let blocked = with_kernel(KernelPath::Blocked, || {
                conv2d_im2col(&input, &weight, bias_opt, cfg).unwrap()
            });
            assert_eq!(reference.dims(), blocked.dims());
            assert_bits_equal(
                reference.data(),
                blocked.data(),
                &format!("conv hw={hw} k={k} s={stride} p={pad} d={dilation} bias={}", bias_opt.is_some()),
            );
            let direct = conv2d_direct(&input, &weight, bias_opt, cfg).unwrap();
            assert!(
                direct.max_abs_diff(&reference).unwrap() < 1e-3,
                "im2col drifted from the direct oracle (hw={hw} k={k} s={stride} p={pad} d={dilation})"
            );
        }
    }
}

/// The batch-parallel convolution is bit-identical across kernel paths
/// at every pool cap 1–8; above cap 1 it fans out over batch items.
#[test]
fn conv_paths_are_bit_identical_at_every_pool_cap() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::from_seed(0xBA7C);
    let (nb, c_in, c_out, hw, k) = (5, 3, 4, 9, 3);
    let input =
        Tensor::from_vec(operand(&mut rng, nb * c_in * hw * hw), &[nb, c_in, hw, hw]).unwrap();
    let weight =
        Tensor::from_vec(operand(&mut rng, c_out * c_in * k * k), &[c_out, c_in, k, k]).unwrap();
    let bias = Tensor::from_vec(operand(&mut rng, c_out), &[c_out]).unwrap();
    let cfg = ConvConfig::with_dilation(2, 1, 1).unwrap();
    let golden = alfi_pool::with_parallelism(1, || {
        with_kernel(KernelPath::Reference, || {
            conv2d_im2col(&input, &weight, Some(&bias), cfg).unwrap()
        })
    });
    for threads in 1..=8 {
        for path in [KernelPath::Reference, KernelPath::Blocked] {
            let what = format!("conv {path} at {threads} threads");
            let got = fanned_out(threads, &what, || {
                with_kernel(path, || conv2d_im2col(&input, &weight, Some(&bias), cfg).unwrap())
            });
            assert_bits_equal(golden.data(), got.data(), &what);
        }
    }
}

/// The fused epilogue hook fires exactly once per element with the
/// element's global flat index, on both paths, sequential and
/// parallel.
#[test]
fn epilogue_fires_once_per_element_with_global_indices() {
    use std::sync::atomic::{AtomicU32, Ordering};

    struct CountEpilogue {
        hits: Vec<AtomicU32>,
    }
    impl gemm::Epilogue for CountEpilogue {
        fn apply(&self, flat: usize, v: f32) -> f32 {
            self.hits[flat].fetch_add(1, Ordering::Relaxed);
            v
        }
    }

    let (m, k, n) = FAN_OUT_SHAPE;
    let mut rng = Rng::from_seed(0xE417);
    let a = operand(&mut rng, m * k);
    let b = operand(&mut rng, k * n);
    let spec =
        GemmSpec { m, k, n, layout: BLayout::RowMajor, skip_zero_a: true, bias: Bias::None };
    for threads in [1, 3, 8] {
        for path in [KernelPath::Reference, KernelPath::Blocked] {
            let epi = CountEpilogue { hits: (0..m * n).map(|_| AtomicU32::new(0)).collect() };
            let mut out = vec![0.0f32; m * n];
            fanned_out(threads, &format!("epilogue {path}"), || {
                gemm::gemm_with(&a, &b, &mut out, &spec, &epi, path)
            });
            assert!(
                epi.hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{path} at {threads} threads: epilogue fired != once for some element"
            );
        }
    }
    // NoEpilogue must be skipped entirely and identical to itself.
    let mut plain = vec![0.0f32; m * n];
    gemm::gemm_with(&a, &b, &mut plain, &spec, &NoEpilogue, KernelPath::Blocked);
    let reference = run_gemm(&a, &b, &spec, KernelPath::Reference);
    assert_bits_equal(&reference, &plain, "NoEpilogue blocked");
}

/// Operand data that also carries the values a corrupted weight or an
/// overflowed activation brings: ±0, NaN and ±Inf, beside the exact
/// zeros of [`operand`].
fn special_operand(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0u32..40) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4..=9 => 0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// The fused clamps a conv or linear node can carry.
fn clamps() -> [Option<gemm::Clamp>; 3] {
    [
        None,
        Some(gemm::Clamp { lo: -1.5, hi: 1.5, mode: gemm::ClampMode::Clip }),
        Some(gemm::Clamp { lo: -1.5, hi: 1.5, mode: gemm::ClampMode::Zero }),
    ]
}

/// Replacement rows: new values (NaN, Inf and zeros included) for each
/// listed row, plus one all-zero row so the zero-skip rule meets Inf
/// inputs.
fn replacement_rows(rng: &mut Rng, rows: &[usize], len: usize) -> Vec<(usize, Vec<f32>)> {
    rows.iter()
        .enumerate()
        .map(|(i, &r)| (r, if i == 1 { vec![0.0; len] } else { special_operand(rng, len) }))
        .collect()
}

/// Row subsets of `count` rows: single rows at both ends, an unsorted
/// pair, every row in reverse, and (when there are enough) a subset as
/// tall as the blocked path's packing floor.
fn row_subsets(count: usize) -> Vec<Vec<usize>> {
    let mut subsets = vec![vec![0], vec![count - 1], vec![count - 1, 0], (0..count).rev().collect()];
    if count > gemm::BLOCKED_MIN_M {
        subsets.push((1..=gemm::BLOCKED_MIN_M).collect());
    }
    subsets
}

/// Recomputing a subset of a conv's output channels with replaced
/// filters equals the full fused conv over the patched weight, bit for
/// bit, on both kernel paths: with and without bias and clamp, with
/// NaN, Inf and zero weights and inputs, on strided, padded and dilated
/// geometries, and for subsets on both sides of the packing floor.
#[test]
fn conv_row_subsets_equal_the_full_kernel_rows() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::from_seed(0x2045);
    // (hw, k, stride, pad, dilation)
    for &(hw, k, stride, pad, dilation) in &[(7, 3, 1, 1, 1), (9, 3, 2, 1, 1), (8, 1, 1, 0, 1), (11, 3, 2, 2, 2)] {
        let (nb, c_in, c_out) = (2, 3, 11);
        let kdim = c_in * k * k;
        let input =
            Tensor::from_vec(special_operand(&mut rng, nb * c_in * hw * hw), &[nb, c_in, hw, hw])
                .unwrap();
        let weight =
            Tensor::from_vec(operand(&mut rng, c_out * kdim), &[c_out, c_in, k, k]).unwrap();
        let bias = Tensor::from_vec(special_operand(&mut rng, c_out), &[c_out]).unwrap();
        let cfg = ConvConfig::with_dilation(stride, pad, dilation).unwrap();
        for subset in row_subsets(c_out) {
            let rows = replacement_rows(&mut rng, &subset, kdim);
            let mut patched = weight.clone();
            for (c, w) in &rows {
                patched.data_mut()[c * kdim..(c + 1) * kdim].copy_from_slice(w);
            }
            for path in [KernelPath::Reference, KernelPath::Blocked] {
                for bias in [None, Some(&bias)] {
                    for clamp in clamps() {
                        let (expect, got) = with_kernel(path, || {
                            let expect = conv2d_fused(&input, &patched, bias, cfg, clamp).unwrap();
                            let mut got = conv2d_fused(&input, &weight, bias, cfg, clamp).unwrap();
                            conv2d_rows(&input, &weight, &rows, bias, cfg, clamp, &mut got).unwrap();
                            (expect, got)
                        });
                        assert_bits_equal(
                            expect.data(),
                            got.data(),
                            &format!(
                                "conv rows {subset:?} hw={hw} k={k} s={stride} p={pad} d={dilation} \\
                                 {path} bias={} {clamp:?}",
                                bias.is_some()
                            ),
                        );
                    }
                }
            }
        }
    }
    // A row past the channels, a short row or a wrong output shape is
    // an error, not a panic.
    let input = Tensor::zeros(&[1, 1, 4, 4]);
    let weight = Tensor::zeros(&[2, 1, 3, 3]);
    let cfg = ConvConfig::default();
    let mut out = conv2d_fused(&input, &weight, None, cfg, None).unwrap();
    for rows in [vec![(2, vec![0.0; 9])], vec![(0, vec![0.0; 8])]] {
        assert!(conv2d_rows(&input, &weight, &rows, None, cfg, None, &mut out).is_err());
    }
    let mut wrong = Tensor::zeros(&[1, 2, 3, 3]);
    assert!(conv2d_rows(&input, &weight, &[(0, vec![0.0; 9])], None, cfg, None, &mut wrong).is_err());
}

/// Batch item `b` of `input` as the `[c_in·kh·kw, h_out·w_out]` column
/// matrix, by the definition: column `(oy, ox)` of row `(ic, ky, kx)`
/// reads input `(oy·stride + ky·dilation − pad, ox·stride + kx·dilation
/// − pad)`, or zero in the padding.
fn im2col_oracle(input: &Tensor, b: usize, k: usize, cfg: ConvConfig) -> (Vec<f32>, usize) {
    let (c_in, h, w) = (input.dims()[1], input.dims()[2], input.dims()[3]);
    let (h_out, w_out) = (cfg.out_size(h, k).unwrap(), cfg.out_size(w, k).unwrap());
    let at = |o: usize, t: usize| (o * cfg.stride + t * cfg.dilation).checked_sub(cfg.padding);
    let mut cols = Vec::with_capacity(c_in * k * k * h_out * w_out);
    for ic in 0..c_in {
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        cols.push(match (at(oy, ky), at(ox, kx)) {
                            (Some(iy), Some(ix)) if iy < h && ix < w => input.get(&[b, ic, iy, ix]),
                            _ => 0.0,
                        });
                    }
                }
            }
        }
    }
    (cols, h_out * w_out)
}

/// The blocked conv kernels lower their input straight into packed
/// panels. That equals the two-buffer path — the blocked GEMM over the
/// im2col matrix, which packs it — bit for bit, NaN payloads included:
/// with NaN, ±Inf and ±0 in inputs, filters and biases, with and
/// without bias and clamp, over strides 1–3, paddings 0–2, dilations
/// 1–2 and kernels 1/3/5/7, from one input channel up. `conv2d_fused`
/// is checked over the whole output, `conv2d_rows` over replaced
/// filters.
#[test]
fn direct_pack_convs_equal_the_two_buffer_gemm_on_special_operands() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::from_seed(0xD12E);
    let (nb, c_out) = (2, 11);
    // (c_in, hw, k, stride, pad, dilation)
    let geometries =
        [(1, 9, 3, 1, 1, 1), (3, 11, 1, 2, 0, 1), (2, 13, 5, 3, 2, 2), (3, 17, 7, 1, 2, 1), (1, 12, 3, 2, 1, 2)];
    for (c_in, hw, k, stride, pad, dilation) in geometries {
        let kdim = c_in * k * k;
        let input =
            Tensor::from_vec(special_operand(&mut rng, nb * c_in * hw * hw), &[nb, c_in, hw, hw]).unwrap();
        let weight = Tensor::from_vec(special_operand(&mut rng, c_out * kdim), &[c_out, c_in, k, k]).unwrap();
        let bias = Tensor::from_vec(special_operand(&mut rng, c_out), &[c_out]).unwrap();
        let cfg = ConvConfig::with_dilation(stride, pad, dilation).unwrap();
        let rows = replacement_rows(&mut rng, &[c_out - 1, 0], kdim);
        let mut patched = weight.clone();
        for (c, w) in &rows {
            patched.data_mut()[c * kdim..(c + 1) * kdim].copy_from_slice(w);
        }
        let zero_bias = vec![0.0f32; c_out];
        for bias in [None, Some(&bias)] {
            for clamp in clamps() {
                let (fused, rowed) = with_kernel(KernelPath::Blocked, || {
                    let fused = conv2d_fused(&input, &weight, bias, cfg, clamp).unwrap();
                    let mut rowed = fused.clone();
                    conv2d_rows(&input, &weight, &rows, bias, cfg, clamp, &mut rowed).unwrap();
                    (fused, rowed)
                });
                for (filters, got, kernel) in [(&weight, &fused, "fused"), (&patched, &rowed, "rows")] {
                    for b in 0..nb {
                        let (cols, spatial) = im2col_oracle(&input, b, k, cfg);
                        let spec = GemmSpec {
                            m: c_out,
                            k: kdim,
                            n: spatial,
                            layout: BLayout::RowMajor,
                            skip_zero_a: true,
                            bias: Bias::PostPerRow(bias.map_or(&zero_bias[..], Tensor::data)),
                        };
                        let mut expect = vec![0.0f32; c_out * spatial];
                        gemm::gemm_with(filters.data(), &cols, &mut expect, &spec, &clamp, KernelPath::Blocked);
                        let what = format!(
                            "{kernel} c_in={c_in} hw={hw} k={k} s={stride} p={pad} d={dilation} b={b} bias={} {clamp:?}",
                            bias.is_some()
                        );
                        assert_bits_equal(&expect, &got.data()[b * c_out * spatial..(b + 1) * c_out * spatial], &what);
                    }
                }
            }
        }
    }
}

/// The linear layer's GEMM: `x · Wᵀ` with the bias initializing each
/// output feature's chain and no zero-skip.
fn linear_spec(m: usize, k: usize, n: usize, bias: Option<&[f32]>) -> GemmSpec<'_> {
    GemmSpec {
        m,
        k,
        n,
        layout: BLayout::Transposed,
        skip_zero_a: false,
        bias: bias.map_or(Bias::None, Bias::InitPerCol),
    }
}

/// Recomputing a subset of a linear layer's output features with
/// replaced weight rows equals the full linear GEMM over the patched
/// weight, bit for bit, on both kernel paths: rank-2 batches and
/// folded token rows, with and without bias and clamp, with NaN, Inf
/// and zero operands, for subsets narrower and wider than one panel.
#[test]
fn linear_row_subsets_equal_the_full_kernel_rows() {
    let mut rng = Rng::from_seed(0x11AE);
    for &(m, k, n) in &[(1, 7, 5), (3, 64, 2 * NR + 3), (MR + 3, 1, 17), (16, 33, NR)] {
        let x = special_operand(&mut rng, m * k);
        let weight = operand(&mut rng, n * k);
        let bias = special_operand(&mut rng, n);
        for subset in row_subsets(n) {
            let rows = replacement_rows(&mut rng, &subset, k);
            let mut patched = weight.clone();
            for (j, w) in &rows {
                patched[j * k..(j + 1) * k].copy_from_slice(w);
            }
            for path in [KernelPath::Reference, KernelPath::Blocked] {
                for bias in [None, Some(&bias[..])] {
                    for clamp in clamps() {
                        let spec = linear_spec(m, k, n, bias);
                        let mut expect = vec![0.0f32; m * n];
                        gemm::gemm_with(&x, &patched, &mut expect, &spec, &clamp, path);
                        let mut got = vec![0.0f32; m * n];
                        gemm::gemm_with(&x, &weight, &mut got, &spec, &clamp, path);
                        gemm::linear_rows(&x, &weight, &rows, &mut got, &spec, clamp, path);
                        assert_bits_equal(
                            &expect,
                            &got,
                            &format!(
                                "linear rows {subset:?} m={m} k={k} n={n} {path} bias={} {clamp:?}",
                                bias.is_some()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// A GEMM on a ready pack equals one that packs per call, bit for bit,
/// on both kernel paths and at several pool caps: the first blocked
/// call fills the cache and later calls, with other `A` operands, read
/// it (`meter_counts` pins that only the first one packs).
#[test]
fn a_gemm_on_a_ready_pack_equals_one_that_packs_per_call() {
    let mut rng = Rng::from_seed(0x9AC4);
    for &(m, k, n) in &[(1, 64, 2 * NR + 3), (MR + 1, 7, NR - 1), FAN_OUT_SHAPE] {
        let b = special_operand(&mut rng, k * n);
        let row_bias = special_operand(&mut rng, m);
        let col_bias = special_operand(&mut rng, n);
        for layout in [BLayout::RowMajor, BLayout::Transposed] {
            for bias in [Bias::None, Bias::InitPerCol(&col_bias), Bias::PostPerRow(&row_bias)] {
                let spec = GemmSpec { m, k, n, layout, skip_zero_a: true, bias };
                for clamp in clamps() {
                    for path in [KernelPath::Reference, KernelPath::Blocked] {
                        let cache = gemm::PackCache::default();
                        for (call, threads) in [1, 3, 1].into_iter().enumerate() {
                            let a = special_operand(&mut rng, m * k);
                            let mut expect = vec![0.0f32; m * n];
                            let mut got = vec![0.0f32; m * n];
                            alfi_pool::with_parallelism(threads, || {
                                gemm::gemm_with(&a, &b, &mut expect, &spec, &clamp, path);
                                gemm::gemm_cached(&a, &b, &cache, &mut got, &spec, &clamp, path);
                            });
                            let what = format!("ready pack m={m} k={k} n={n} {layout:?} {bias:?} {clamp:?} {path} call {call}");
                            assert_bits_equal(&expect, &got, &what);
                        }
                    }
                }
            }
        }
    }
}

/// The cross-kernel contract on non-finite data (DESIGN.md §5g): the
/// same NaN-ness at every element and the same bits at every non-NaN
/// element. A NaN's sign and payload may differ between the paths.
fn assert_equal_but_nan_payloads(reference: &[f32], blocked: &[f32], what: &str) {
    assert_eq!(reference.len(), blocked.len(), "{what}: length mismatch");
    for (i, (r, b)) in reference.iter().zip(blocked.iter()).enumerate() {
        if r.is_nan() || b.is_nan() {
            assert!(
                r.is_nan() && b.is_nan(),
                "{what}: NaN-ness differs at flat index {i} (reference {r}, blocked {b})"
            );
        } else {
            assert_eq!(
                r.to_bits(),
                b.to_bits(),
                "{what}: bit drift at flat index {i} (reference {r}, blocked {b})"
            );
        }
    }
}

/// On operands holding NaN, ±Inf and ±0, the blocked GEMM equals the
/// reference up to NaN payloads, over the whole shape matrix of
/// [`blocked_gemm_matches_reference_on_shape_matrix`]: both `B`
/// layouts, zero-skip on and off, and every bias mode.
#[test]
fn gemm_paths_agree_on_special_operands_but_nan_payloads() {
    let ms = [1, 2, 3, MR, MR + 1, 2 * MR - 1, 2 * MR, 9, 17];
    let ns = [1, 2, NR - 1, NR, NR + 1, 2 * NR, 2 * NR + 3];
    let ks = [1, 2, 7, 64];
    let mut rng = Rng::from_seed(0x5EC1A1);
    for &m in &ms {
        for &n in &ns {
            for &k in &ks {
                let a = special_operand(&mut rng, m * k);
                let b = special_operand(&mut rng, k * n);
                let bias = special_operand(&mut rng, m.max(n));
                for layout in [BLayout::RowMajor, BLayout::Transposed] {
                    for skip in [false, true] {
                        for bias in [Bias::None, Bias::InitPerCol(&bias[..n]), Bias::PostPerRow(&bias[..m])] {
                            let spec = GemmSpec { m, k, n, layout, skip_zero_a: skip, bias };
                            assert_equal_but_nan_payloads(
                                &run_gemm(&a, &b, &spec, KernelPath::Reference),
                                &run_gemm(&a, &b, &spec, KernelPath::Blocked),
                                &format!("m={m} n={n} k={k} {layout:?} skip={skip} {bias:?}"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The fused conv on inputs, weights and biases holding NaN, ±Inf and
/// ±0 equals itself across the kernel paths up to NaN payloads, with
/// and without bias and clamp, on strided, padded and dilated
/// geometries.
#[test]
fn conv_fused_paths_agree_on_special_operands_but_nan_payloads() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::from_seed(0xC0F5);
    // (hw, k, stride, pad, dilation)
    for &(hw, k, stride, pad, dilation) in &[(7, 3, 1, 1, 1), (9, 3, 2, 1, 1), (8, 1, 1, 0, 1), (11, 3, 2, 2, 2)] {
        let (nb, c_in, c_out) = (2, 3, 11);
        let input =
            Tensor::from_vec(special_operand(&mut rng, nb * c_in * hw * hw), &[nb, c_in, hw, hw])
                .unwrap();
        let weight =
            Tensor::from_vec(special_operand(&mut rng, c_out * c_in * k * k), &[c_out, c_in, k, k])
                .unwrap();
        let bias = Tensor::from_vec(special_operand(&mut rng, c_out), &[c_out]).unwrap();
        let cfg = ConvConfig::with_dilation(stride, pad, dilation).unwrap();
        for bias in [None, Some(&bias)] {
            for clamp in clamps() {
                let [reference, blocked] = [KernelPath::Reference, KernelPath::Blocked]
                    .map(|path| with_kernel(path, || conv2d_fused(&input, &weight, bias, cfg, clamp).unwrap()));
                assert_equal_but_nan_payloads(
                    reference.data(),
                    blocked.data(),
                    &format!(
                        "conv hw={hw} k={k} s={stride} p={pad} d={dilation} bias={} {clamp:?}",
                        bias.is_some()
                    ),
                );
            }
        }
    }
}
