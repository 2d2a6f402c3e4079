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

use alfi_rng::Rng;
use alfi_tensor::conv::{conv2d_direct, conv2d_im2col, ConvConfig};
use alfi_tensor::gemm::{
    self, BLayout, Bias, GemmSpec, KernelPath, NoEpilogue, MR, NR,
};
use alfi_tensor::Tensor;
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

/// Both kernel paths stay bit-identical to the single-thread reference
/// at every pool cap 1–8, on a shape large enough to cross the
/// parallelization threshold (so the chunked fan-out actually runs).
#[test]
fn gemm_is_bit_identical_at_every_pool_cap() {
    let (m, k, n) = (37, 48, 53); // m·k·n ≈ 94k > threshold; odd in every dimension
    let mut rng = Rng::from_seed(0x9001);
    let a = operand(&mut rng, m * k);
    let b = operand(&mut rng, k * n);
    let spec =
        GemmSpec { m, k, n, layout: BLayout::RowMajor, skip_zero_a: true, bias: Bias::None };
    let golden =
        alfi_pool::with_parallelism(1, || run_gemm(&a, &b, &spec, KernelPath::Reference));
    for threads in 1..=8 {
        for path in [KernelPath::Reference, KernelPath::Blocked] {
            let got = alfi_pool::with_parallelism(threads, || run_gemm(&a, &b, &spec, path));
            assert_bits_equal(&golden, &got, &format!("{path} at {threads} threads"));
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
/// at every pool cap 1–8.
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
            let got = alfi_pool::with_parallelism(threads, || {
                with_kernel(path, || conv2d_im2col(&input, &weight, Some(&bias), cfg).unwrap())
            });
            assert_bits_equal(
                golden.data(),
                got.data(),
                &format!("conv {path} at {threads} threads"),
            );
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

    let (m, k, n) = (37, 48, 53); // crosses the parallel threshold
    let mut rng = Rng::from_seed(0xE417);
    let a = operand(&mut rng, m * k);
    let b = operand(&mut rng, k * n);
    let spec =
        GemmSpec { m, k, n, layout: BLayout::RowMajor, skip_zero_a: true, bias: Bias::None };
    for threads in [1, 3, 8] {
        for path in [KernelPath::Reference, KernelPath::Blocked] {
            let epi = CountEpilogue { hits: (0..m * n).map(|_| AtomicU32::new(0)).collect() };
            let mut out = vec![0.0f32; m * n];
            alfi_pool::with_parallelism(threads, || {
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
