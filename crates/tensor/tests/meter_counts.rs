//! Pinned FLOP/byte accounting for the kernel meters.
//!
//! The packed-B GEMM writes each `B` element into its panel exactly
//! once per GEMM invocation, no matter how many `MR × NR` register
//! tiles later stream the panel — so `gemm_pack_bytes` must grow by
//! `4 · ⌈n/NR⌉ · NR · k` per call, not by that amount times the tile
//! count. These tests pin the exact counter deltas for known shapes on
//! both kernel paths (the reference path packs nothing). A GEMM on a
//! ready pack charges the pack once, on its first blocked call, a
//! conv row recompute counts as a convolution with that many output
//! channels, and a linear row recompute as a GEMM over the columns it
//! computes.
//!
//! Everything lives in one `#[test]` because the counters are
//! process-global: concurrent test functions would race each other's
//! deltas.

use alfi_metrics::names;
use alfi_rng::Rng;
use alfi_tensor::conv::{conv2d_im2col, conv2d_rows, ConvConfig};
use alfi_tensor::gemm::{self, KernelPath, BLOCKED_MIN_M, MR, NR};
use alfi_tensor::Tensor;

struct Meters {
    matmul_flops: u64,
    matmul_bytes: u64,
    conv_flops: u64,
    conv_bytes: u64,
    pack_bytes: u64,
}

fn read_meters() -> Meters {
    let snap = alfi_metrics::global().snapshot();
    Meters {
        matmul_flops: snap.counter(names::TENSOR_MATMUL_FLOPS),
        matmul_bytes: snap.counter(names::TENSOR_MATMUL_BYTES),
        conv_flops: snap.counter(names::TENSOR_CONV_FLOPS),
        conv_bytes: snap.counter(names::TENSOR_CONV_BYTES),
        pack_bytes: snap.counter(names::TENSOR_GEMM_PACK_BYTES),
    }
}

fn with_kernel<R>(path: KernelPath, f: impl FnOnce() -> R) -> R {
    let prev = gemm::kernel_override();
    gemm::set_kernel_override(Some(path));
    let out = f();
    gemm::set_kernel_override(prev);
    out
}

#[test]
fn flop_and_byte_counts_are_pinned_for_known_shapes() {
    alfi_metrics::set_global_enabled(true);
    let mut rng = Rng::from_seed(7);

    // --- matmul: [m,k] × [k,n] with n deliberately not a multiple of
    // NR, so the ragged last panel's zero-padding is part of the pin,
    // and m above the thin-shape floor so the blocked path packs.
    let (m, k, n) = (BLOCKED_MIN_M + 1, 12usize, 2 * NR + 3);
    let a = Tensor::rand_normal(&mut rng, &[m, k], 0.0, 1.0);
    let b = Tensor::rand_normal(&mut rng, &[k, n], 0.0, 1.0);

    let before = read_meters();
    with_kernel(KernelPath::Blocked, || a.matmul(&b).unwrap());
    let after = read_meters();
    assert_eq!(after.matmul_flops - before.matmul_flops, 2 * (m * k * n) as u64);
    assert_eq!(
        after.matmul_bytes - before.matmul_bytes,
        4 * (m * k + k * n + m * n) as u64
    );
    let panel_elems = n.div_ceil(NR) * NR * k; // 3 panels of NR·k, zero-padded
    assert_eq!(
        after.pack_bytes - before.pack_bytes,
        4 * panel_elems as u64,
        "pack bytes must be charged once per GEMM call, not per tile"
    );
    assert_eq!(after.conv_flops, before.conv_flops, "matmul must not touch conv meters");

    // The reference path never packs: same matmul meters, zero pack delta.
    let before = read_meters();
    with_kernel(KernelPath::Reference, || a.matmul(&b).unwrap());
    let after = read_meters();
    assert_eq!(after.matmul_flops - before.matmul_flops, 2 * (m * k * n) as u64);
    assert_eq!(after.pack_bytes, before.pack_bytes, "reference path packs nothing");

    // --- conv: the conv meter counts the convolution as a whole, and
    // the blocked path packs one im2col B panel set per batch item.
    let (nb, c_in, c_out, hw, kk) = (3usize, 2usize, BLOCKED_MIN_M, 9usize, 3usize);
    let cfg = ConvConfig::new(2, 1).unwrap();
    let input = Tensor::rand_normal(&mut rng, &[nb, c_in, hw, hw], 0.0, 1.0);
    let weight = Tensor::rand_normal(&mut rng, &[c_out, c_in, kk, kk], 0.0, 1.0);
    let out_hw = (hw + 2 - kk) / 2 + 1; // stride 2, pad 1
    let spatial = out_hw * out_hw;
    let kdim = c_in * kk * kk;

    let before = read_meters();
    with_kernel(KernelPath::Blocked, || conv2d_im2col(&input, &weight, None, cfg).unwrap());
    let after = read_meters();
    assert_eq!(
        after.conv_flops - before.conv_flops,
        2 * (nb * c_out * spatial * kdim) as u64
    );
    assert_eq!(
        after.conv_bytes - before.conv_bytes,
        4 * (input.num_elements() + weight.num_elements() + nb * c_out * spatial) as u64
    );
    assert_eq!(
        after.pack_bytes - before.pack_bytes,
        (nb * 4 * spatial.div_ceil(NR) * NR * kdim) as u64,
        "one pack per batch item's GEMM"
    );
    assert_eq!(after.matmul_flops, before.matmul_flops, "conv must not touch matmul meters");

    // --- a conv row recompute counts as a conv with as many output
    // channels as it recomputes: the two replaced rows on the reference
    // path, their whole MR-row register tiles (rows 0..MR and MR..c_out)
    // on the blocked path, which also packs per batch item like the
    // full conv's kernel (c_out is at the floor).
    let mut out = conv2d_im2col(&input, &weight, None, cfg).unwrap();
    let rows: Vec<(usize, Vec<f32>)> = vec![(1, vec![0.5; kdim]), (MR, vec![-0.5; kdim])];
    for (path, computed, packs) in [(KernelPath::Blocked, c_out, true), (KernelPath::Reference, 2, false)] {
        let before = read_meters();
        with_kernel(path, || conv2d_rows(&input, &weight, &rows, None, cfg, None, &mut out).unwrap());
        let after = read_meters();
        assert_eq!(
            after.conv_flops - before.conv_flops,
            2 * (nb * computed * spatial * kdim) as u64,
            "{path}: rows × spatial × kdim MACs per batch item"
        );
        assert_eq!(
            after.conv_bytes - before.conv_bytes,
            4 * (input.num_elements() + computed * kdim + nb * computed * spatial) as u64
        );
        let pack = if packs { nb * 4 * spatial.div_ceil(NR) * NR * kdim } else { 0 };
        assert_eq!(after.pack_bytes - before.pack_bytes, pack as u64, "{path}: row packs");
        assert_eq!(after.matmul_flops, before.matmul_flops);
    }

    // --- a GEMM on a ready pack packs once, on its first blocked call;
    // a linear row recompute packs its own rows (NR-padded) and counts
    // the columns it computes on the matmul meter, none on the conv's.
    let (lm, lk, ln) = (1usize, 24usize, 2 * NR + 3);
    let x = Tensor::rand_normal(&mut rng, &[lm, lk], 0.0, 1.0);
    let w = Tensor::rand_normal(&mut rng, &[ln, lk], 0.0, 1.0);
    let spec = gemm::GemmSpec {
        m: lm,
        k: lk,
        n: ln,
        layout: gemm::BLayout::Transposed,
        skip_zero_a: false,
        bias: gemm::Bias::None,
    };
    let cache = gemm::PackCache::default();
    let mut y = vec![0.0f32; lm * ln];
    for call in 0..3 {
        let before = read_meters();
        gemm::gemm_cached(x.data(), w.data(), &cache, &mut y, &spec, &None, KernelPath::Blocked);
        let after = read_meters();
        let pack = if call == 0 { 4 * ln.div_ceil(NR) * NR * lk } else { 0 };
        assert_eq!(after.pack_bytes - before.pack_bytes, pack as u64, "ready pack, call {call}");
    }
    // Rows 0 and NR: the whole first two panels.
    let rows: Vec<(usize, Vec<f32>)> = [0, NR].iter().map(|&j| (j, vec![1.0; lk])).collect();
    let before = read_meters();
    gemm::linear_rows(x.data(), w.data(), &rows, &mut y, &spec, None, KernelPath::Blocked);
    let after = read_meters();
    assert_eq!(after.pack_bytes - before.pack_bytes, (4 * 2 * NR * lk) as u64, "two row panels");
    assert_eq!(after.matmul_flops - before.matmul_flops, (2 * lm * lk * 2 * NR) as u64, "two panels' columns");
    assert_eq!(after.conv_flops, before.conv_flops);

    // --- thin products delegate to the reference kernel: no pack.
    let thin = Tensor::rand_normal(&mut rng, &[BLOCKED_MIN_M - 1, k], 0.0, 1.0);
    let before = read_meters();
    with_kernel(KernelPath::Blocked, || thin.matmul(&b).unwrap());
    let after = read_meters();
    assert_eq!(
        after.matmul_flops - before.matmul_flops,
        2 * ((BLOCKED_MIN_M - 1) * k * n) as u64
    );
    assert_eq!(
        after.pack_bytes, before.pack_bytes,
        "below the thin-shape floor the blocked path must not pack"
    );

    // --- disabled runs meter nothing.
    alfi_metrics::set_global_enabled(false);
    let before = read_meters();
    with_kernel(KernelPath::Blocked, || a.matmul(&b).unwrap());
    let after = read_meters();
    assert_eq!(after.matmul_flops, before.matmul_flops);
    assert_eq!(after.pack_bytes, before.pack_bytes);
}
