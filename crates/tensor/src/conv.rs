//! Convolution and pooling compute kernels.
//!
//! These are the MAC-heavy kernels whose outputs PyTorchALFI's hooks
//! intercept: "one of the hook function parameters is the output of a
//! specific layer's MAC operation" (§II). The layer wrappers in `alfi-nn`
//! call into this module and then hand the output tensor to the hook
//! registry for in-place corruption.
//!
//! Two 2-D convolution implementations are provided: a direct 7-loop
//! kernel (`conv2d_direct`, the reference) and an im2col + GEMM kernel
//! (`conv2d_im2col`, the fast path, driven by the [`crate::gemm`]
//! blocked/reference kernels). Tests assert they agree bit-for-bit
//! modulo floating-point associativity. When the blocked kernel packs
//! the GEMM, the input is lowered straight into its `NR`-wide panels
//! (the same values in the same order as packing an im2col matrix, in
//! one buffer instead of two); the reference kernel and thin GEMMs
//! read the im2col matrix itself.

use crate::gemm;
use crate::{Tensor, TensorError};

/// Stride/padding/dilation configuration shared by convolution and
/// pooling kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvConfig {
    /// Step between successive kernel applications (same in H and W).
    pub stride: usize,
    /// Zero padding added on every spatial border.
    pub padding: usize,
    /// Spacing between kernel taps (1 = dense kernel, the default).
    pub dilation: usize,
}

impl Default for ConvConfig {
    fn default() -> Self {
        ConvConfig { stride: 1, padding: 0, dilation: 1 }
    }
}

impl ConvConfig {
    /// Creates a dense (dilation 1) configuration, validating that the
    /// stride is nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidKernelConfig`] if `stride == 0`.
    pub fn new(stride: usize, padding: usize) -> Result<Self, TensorError> {
        Self::with_dilation(stride, padding, 1)
    }

    /// Creates a configuration with an explicit dilation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidKernelConfig`] if `stride == 0` or
    /// `dilation == 0`.
    pub fn with_dilation(
        stride: usize,
        padding: usize,
        dilation: usize,
    ) -> Result<Self, TensorError> {
        if stride == 0 {
            return Err(TensorError::InvalidKernelConfig("stride must be nonzero".into()));
        }
        if dilation == 0 {
            return Err(TensorError::InvalidKernelConfig("dilation must be nonzero".into()));
        }
        Ok(ConvConfig { stride, padding, dilation })
    }

    /// The span a `k`-tap kernel covers in the input under this
    /// dilation: `(k - 1) * dilation + 1`.
    fn effective_kernel(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            (k - 1) * self.dilation + 1
        }
    }

    /// Output spatial size for an input of size `n` and kernel size `k`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidKernelConfig`] if the (dilated)
    /// kernel does not fit in the padded input.
    pub fn out_size(&self, n: usize, k: usize) -> Result<usize, TensorError> {
        let padded = n + 2 * self.padding;
        let eff = self.effective_kernel(k);
        if k == 0 || eff > padded {
            return Err(TensorError::InvalidKernelConfig(format!(
                "kernel size {k} (dilation {}) does not fit input {n} with padding {}",
                self.dilation, self.padding
            )));
        }
        Ok((padded - eff) / self.stride + 1)
    }
}

fn check_rank(t: &Tensor, rank: usize) -> Result<(), TensorError> {
    if t.rank() != rank {
        return Err(TensorError::RankMismatch { expected: rank, actual: t.rank() });
    }
    Ok(())
}

/// The checked geometry of one 2-D convolution.
#[derive(Clone, Copy)]
struct Conv2dShape {
    n: usize,
    c_in: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    h_out: usize,
    w_out: usize,
}

impl Conv2dShape {
    /// Checks `input` `[n, c_in, h, w]`, `weight` `[c_out, c_in, kh, kw]`
    /// and `bias` `[c_out]` against each other and `cfg`.
    fn new(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        cfg: ConvConfig,
    ) -> Result<Self, TensorError> {
        check_rank(input, 4)?;
        check_rank(weight, 4)?;
        let (n, c_in, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
        let (c_out, wc_in, kh, kw) =
            (weight.dims()[0], weight.dims()[1], weight.dims()[2], weight.dims()[3]);
        if wc_in != c_in {
            return Err(TensorError::ShapeMismatch {
                left: input.dims().to_vec(),
                right: weight.dims().to_vec(),
            });
        }
        if let Some(b) = bias {
            if b.dims() != [c_out] {
                return Err(TensorError::ShapeMismatch {
                    left: vec![c_out],
                    right: b.dims().to_vec(),
                });
            }
        }
        let h_out = cfg.out_size(h, kh)?;
        let w_out = cfg.out_size(w, kw)?;
        Ok(Conv2dShape { n, c_in, c_out, kh, kw, h_out, w_out })
    }
}

/// 2-D convolution, direct nested-loop reference implementation.
///
/// * `input`: `[n, c_in, h, w]`
/// * `weight`: `[c_out, c_in, kh, kw]`
/// * `bias`: `[c_out]` or `None`
///
/// Returns `[n, c_out, h_out, w_out]`.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or kernels that do not fit.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: ConvConfig,
) -> Result<Tensor, TensorError> {
    let Conv2dShape { n, c_in, c_out, kh, kw, h_out, w_out } =
        Conv2dShape::new(input, weight, bias, cfg)?;
    let (h, w) = (input.dims()[2], input.dims()[3]);
    let mut out = vec![0.0f32; n * c_out * h_out * w_out];
    let in_data = input.data();
    let w_data = weight.data();
    let pad = cfg.padding as isize;

    for b in 0..n {
        for oc in 0..c_out {
            let bias_v = bias.map_or(0.0, |t| t.data()[oc]);
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let mut acc = bias_v;
                    for ic in 0..c_in {
                        for ky in 0..kh {
                            let iy = (oy * cfg.stride + ky * cfg.dilation) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * cfg.stride + kx * cfg.dilation) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let iv = in_data
                                    [((b * c_in + ic) * h + iy as usize) * w + ix as usize];
                                let wv = w_data[((oc * c_in + ic) * kh + ky) * kw + kx];
                                acc += iv * wv;
                            }
                        }
                    }
                    out[((b * c_out + oc) * h_out + oy) * w_out + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c_out, h_out, w_out])
}

/// One kernel tap `(ic, ky, kx)` of the im2col lowering: row `kk` of
/// the `[c_in·kh·kw, h_out·w_out]` matrix, read from input plane
/// `plane`. Only output rows `oy` and columns `ox` whose input position
/// lands inside the plane are read; every other position of the row
/// stays zero.
struct Tap<'a> {
    kk: usize,
    plane: &'a [f32],
    oy: std::ops::Range<usize>,
    ox: std::ops::Range<usize>,
    /// Input row of output row 0 plus the padding: `ky · dilation`.
    ty: usize,
    /// Input column of output column 0 plus the padding: `kx · dilation`.
    tx: usize,
}

impl Tap<'_> {
    /// The input row output row `oy` reads, and the column in it of
    /// output column `ox.start`; column `ox.start + j` is `stride · j`
    /// further on.
    fn row(&self, oy: usize, w: usize, cfg: ConvConfig) -> (&[f32], usize) {
        let iy = oy * cfg.stride + self.ty - cfg.padding;
        (&self.plane[iy * w..(iy + 1) * w], self.ox.start * cfg.stride + self.tx - cfg.padding)
    }
}

/// The output positions, of `o_count`, whose input coordinate
/// `o · stride + t − pad` lands in `[0, extent)`, for a tap offset
/// `t = k · dilation`. Hoisting the range out of the copy loops removes
/// the per-element boundary branches; out-of-range positions keep their
/// zero initialization.
fn in_range(t: usize, extent: usize, o_count: usize, cfg: ConvConfig) -> std::ops::Range<usize> {
    let (pad, stride) = (cfg.padding, cfg.stride);
    let o_min = if t >= pad { 0 } else { (pad - t).div_ceil(stride) };
    let o_end = if extent + pad <= t { 0 } else { (extent + pad - t).div_ceil(stride).min(o_count) };
    o_min.min(o_end)..o_end
}

/// Calls `f` on every tap of batch item `b`'s lowering that reads any
/// input. The in-range output rows depend only on `ky` and the columns
/// only on `kx`, so input channels are the innermost loop and the
/// ranges are computed `kh + kh·kw` times, not once per tap.
fn for_each_tap(input: &Tensor, b: usize, g: &Conv2dShape, cfg: ConvConfig, mut f: impl FnMut(&Tap<'_>)) {
    let (h, w) = (input.dims()[2], input.dims()[3]);
    let planes = &input.data()[b * g.c_in * h * w..(b + 1) * g.c_in * h * w];
    for ky in 0..g.kh {
        let ty = ky * cfg.dilation;
        let oy = in_range(ty, h, g.h_out, cfg);
        for kx in 0..g.kw {
            let tx = kx * cfg.dilation;
            let ox = in_range(tx, w, g.w_out, cfg);
            if oy.is_empty() || ox.is_empty() {
                continue;
            }
            for (ic, plane) in planes.chunks_exact(h * w).enumerate() {
                let kk = (ic * g.kh + ky) * g.kw + kx;
                f(&Tap { kk, plane, oy: oy.clone(), ox: ox.clone(), ty, tx });
            }
        }
    }
}

/// Copies `dst.len()` input values `src[x]`, `src[x + stride]`, … into
/// `dst`.
#[inline]
fn copy_run(dst: &mut [f32], src: &[f32], x: usize, stride: usize) {
    if stride == 1 {
        // Contiguous tap row: one memcpy.
        dst.copy_from_slice(&src[x..x + dst.len()]);
    } else {
        debug_assert!(dst.is_empty() || x + (dst.len() - 1) * stride < src.len(), "strided run past its row");
        for (d, &v) in dst.iter_mut().zip(src[x..].iter().step_by(stride)) {
            *d = v;
        }
    }
}

/// Lowers batch item `b` of the input into the `[c_in·kh·kw,
/// h_out·w_out]` column matrix of GEMM convolution, row-major.
fn im2col(input: &Tensor, b: usize, g: &Conv2dShape, cfg: ConvConfig) -> Vec<f32> {
    let w = input.dims()[3];
    let cols = g.h_out * g.w_out;
    let mut out = vec![0.0f32; g.c_in * g.kh * g.kw * cols];
    for_each_tap(input, b, g, cfg, |tap| {
        let out_row = &mut out[tap.kk * cols..(tap.kk + 1) * cols];
        for oy in tap.oy.clone() {
            let (src, x) = tap.row(oy, w, cfg);
            let dst = &mut out_row[oy * g.w_out + tap.ox.start..oy * g.w_out + tap.ox.end];
            copy_run(dst, src, x, cfg.stride);
        }
    });
    out
}

/// [`im2col`] written straight into the blocked kernel's `NR`-wide
/// panels: element for element `pack_b(im2col(..))` (`packed[p][kk][j]
/// = cols[kk][p·NR + j]`, zero-padded), in one buffer instead of two.
/// Each in-range run of an output row is split where it crosses a
/// panel; the panel and lane of a run's first column are walked
/// incrementally from row to row.
fn im2col_panels(input: &Tensor, b: usize, g: &Conv2dShape, cfg: ConvConfig) -> Vec<f32> {
    use gemm::NR;
    let w = input.dims()[3];
    let kdim = g.c_in * g.kh * g.kw;
    let panel_len = kdim * NR;
    let mut packed = vec![0.0f32; (g.h_out * g.w_out).div_ceil(NR) * panel_len];
    // One output row further on is `w_out` columns further on.
    let (dp, dl) = (g.w_out / NR, g.w_out % NR);
    for_each_tap(input, b, g, cfg, |tap| {
        let first = tap.oy.start * g.w_out + tap.ox.start;
        let (mut p, mut l) = (first / NR, first % NR);
        for oy in tap.oy.clone() {
            let (src, mut x) = tap.row(oy, w, cfg);
            let (mut pp, mut ll, mut left) = (p, l, tap.ox.len());
            loop {
                let len = (NR - ll).min(left);
                let at = pp * panel_len + tap.kk * NR + ll;
                copy_run(&mut packed[at..at + len], src, x, cfg.stride);
                left -= len;
                if left == 0 {
                    break;
                }
                x += len * cfg.stride;
                pp += 1;
                ll = 0;
            }
            p += dp;
            l += dl;
            if l >= NR {
                l -= NR;
                p += 1;
            }
        }
    });
    packed
}

/// Batch item `b` lowered for the conv GEMM: straight into the blocked
/// kernel's panels when it packs this GEMM (`panels`; counted on the
/// pack meter), else the im2col matrix the reference kernel reads.
fn lower(input: &Tensor, b: usize, g: &Conv2dShape, cfg: ConvConfig, panels: bool) -> Vec<f32> {
    if panels {
        let packed = im2col_panels(input, b, g, cfg);
        crate::meter::gemm_pack(packed.len());
        packed
    } else {
        im2col(input, b, g, cfg)
    }
}

/// The GEMM operand of a [`lower`]ed input.
fn operand(lowered: &[f32], panels: bool) -> gemm::Operand<'_> {
    if panels {
        gemm::Operand::Panels(lowered)
    } else {
        gemm::Operand::Plain(lowered)
    }
}

/// 2-D convolution via im2col + GEMM — the fast path used by `alfi-nn`.
///
/// Semantics and argument conventions are identical to [`conv2d_direct`].
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or kernels that do not fit.
pub fn conv2d_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: ConvConfig,
) -> Result<Tensor, TensorError> {
    let g = Conv2dShape::new(input, weight, bias, cfg)?;
    let Conv2dShape { n, c_in, c_out, kh, kw, h_out, w_out } = g;
    let kdim = c_in * kh * kw;
    let spatial = h_out * w_out;
    let per_item = c_out * spatial;
    let mut out = vec![0.0f32; n * per_item];
    crate::meter::conv2d(n, c_in, c_out, kh, kw, spatial, input.data().len(), weight.data().len());

    // The `[c_out, c_in, kh, kw]` weight buffer is already the
    // `[c_out, kdim]` GEMM operand in row-major order.
    let w_data = weight.data();
    // The historical kernel always ran the bias pass (adding 0.0 when
    // no bias was given), so a zero vector — not skipping the pass —
    // preserves bit-identity (`-0.0 + 0.0 == +0.0`).
    let zero_bias;
    let bias_row = match bias {
        Some(t) => t.data(),
        None => {
            zero_bias = vec![0.0f32; c_out];
            &zero_bias[..]
        }
    };
    // Resolve the kernel path on the caller thread so pool workers all
    // run the same implementation.
    let path = gemm::kernel_path();
    let spec = gemm::GemmSpec {
        m: c_out,
        k: kdim,
        n: spatial,
        layout: gemm::BLayout::RowMajor,
        skip_zero_a: true,
        bias: gemm::Bias::PostPerRow(bias_row),
    };
    let panels = gemm::packs(path, c_out, spec.layout);

    // One batch item = one fully independent lowering + GEMM, writing
    // only its own slice of `out`. The per-item
    // computation is identical on both paths, so parallel output is
    // bit-identical to sequential for any thread count.
    let conv_item = |b: usize, dst_item: &mut [f32]| {
        let lowered = lower(input, b, &g, cfg, panels);
        gemm::run(w_data, operand(&lowered, panels), dst_item, &spec, path, c_out);
    };

    let threads = alfi_pool::current_parallelism();
    if threads > 1 && n > 1 {
        alfi_pool::global().parallel_chunks_mut(threads, &mut out, per_item, |b, chunk| {
            conv_item(b, chunk);
        });
    } else {
        for b in 0..n {
            conv_item(b, &mut out[b * per_item..(b + 1) * per_item]);
        }
    }
    Tensor::from_vec(out, &[n, c_out, h_out, w_out])
}

/// Recomputes some output channels of [`conv2d_im2col`] in place.
///
/// `out` holds `conv2d_im2col(input, weight, bias, cfg)`. Each
/// `(c, w)` of `rows` replaces output channel `c`'s filter with the
/// `c_in · kh · kw` values `w` (in `weight`'s layout) and rewrites
/// channel `c` of every batch item; every other element keeps its
/// value. Per batch item this recomputes those rows of the GEMM over
/// the input lowered as [`conv2d_im2col`] lowers it, so a rewritten
/// element equals [`conv2d_im2col`] with the replaced filters bit for
/// bit, NaN bits included, on either kernel path. The meters count it
/// as a convolution with as many output channels as the GEMM
/// recomputed, and each blocked lowering as one pack.
///
/// # Errors
///
/// The [`conv2d_im2col`] shape errors, and a shape mismatch when `out`
/// is not that convolution's output shape or a row is not one filter
/// of an existing channel.
pub fn conv2d_rows(
    input: &Tensor,
    weight: &Tensor,
    rows: &[(usize, Vec<f32>)],
    bias: Option<&Tensor>,
    cfg: ConvConfig,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let g = Conv2dShape::new(input, weight, bias, cfg)?;
    let Conv2dShape { n, c_in, c_out, kh, kw, h_out, w_out } = g;
    let (kdim, spatial) = (c_in * kh * kw, h_out * w_out);
    if out.dims() != [n, c_out, h_out, w_out] {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, c_out, h_out, w_out],
            right: out.dims().to_vec(),
        });
    }
    if let Some((c, row)) = rows.iter().find(|(c, row)| *c >= c_out || row.len() != kdim) {
        return Err(TensorError::ShapeMismatch {
            left: weight.dims().to_vec(),
            right: vec![*c, row.len()],
        });
    }
    if rows.is_empty() {
        return Ok(());
    }
    // The conv kernel always runs its bias pass (see `conv2d_im2col`).
    let zero_bias = vec![0.0f32; c_out];
    let spec = gemm::GemmSpec {
        m: c_out,
        k: kdim,
        n: spatial,
        layout: gemm::BLayout::RowMajor,
        skip_zero_a: true,
        bias: gemm::Bias::PostPerRow(bias.map_or(&zero_bias[..], Tensor::data)),
    };
    let path = gemm::kernel_path();
    let panels = gemm::packs(path, c_out, spec.layout);
    let mut computed = 0;
    for (b, dst) in out.data_mut().chunks_exact_mut(c_out * spatial).enumerate() {
        let lowered = lower(input, b, &g, cfg, panels);
        computed = gemm::gemm_rows(weight.data(), rows, operand(&lowered, panels), dst, &spec, path);
    }
    crate::meter::conv2d(n, c_in, computed, kh, kw, spatial, input.data().len(), computed * kdim);
    Ok(())
}

/// 3-D convolution (direct implementation).
///
/// * `input`: `[n, c_in, d, h, w]`
/// * `weight`: `[c_out, c_in, kd, kh, kw]`
/// * `bias`: `[c_out]` or `None`
///
/// Returns `[n, c_out, d_out, h_out, w_out]`. Conv3d is one of the three
/// layer types PyTorchALFI supports for fault injection (§IV-B), and its
/// presence is why Table I's fault records carry an extra *Depth* row.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or kernels that do not fit.
pub fn conv3d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: ConvConfig,
) -> Result<Tensor, TensorError> {
    check_rank(input, 5)?;
    check_rank(weight, 5)?;
    let (n, c_in, d, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
        input.dims()[4],
    );
    let (c_out, wc_in, kd, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
        weight.dims()[4],
    );
    if wc_in != c_in {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: weight.dims().to_vec(),
        });
    }
    let d_out = cfg.out_size(d, kd)?;
    let h_out = cfg.out_size(h, kh)?;
    let w_out = cfg.out_size(w, kw)?;
    let mut out = vec![0.0f32; n * c_out * d_out * h_out * w_out];
    let in_data = input.data();
    let w_data = weight.data();
    let pad = cfg.padding as isize;

    for b in 0..n {
        for oc in 0..c_out {
            let bias_v = bias.map_or(0.0, |t| t.data()[oc]);
            for oz in 0..d_out {
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        let mut acc = bias_v;
                        for ic in 0..c_in {
                            for kz in 0..kd {
                                let iz = (oz * cfg.stride + kz * cfg.dilation) as isize - pad;
                                if iz < 0 || iz >= d as isize {
                                    continue;
                                }
                                for ky in 0..kh {
                                    let iy = (oy * cfg.stride + ky * cfg.dilation) as isize - pad;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    for kx in 0..kw {
                                        let ix = (ox * cfg.stride + kx * cfg.dilation) as isize - pad;
                                        if ix < 0 || ix >= w as isize {
                                            continue;
                                        }
                                        let iv = in_data[(((b * c_in + ic) * d + iz as usize) * h
                                            + iy as usize)
                                            * w
                                            + ix as usize];
                                        let wv = w_data
                                            [(((oc * c_in + ic) * kd + kz) * kh + ky) * kw + kx];
                                        acc += iv * wv;
                                    }
                                }
                            }
                        }
                        out[(((b * c_out + oc) * d_out + oz) * h_out + oy) * w_out + ox] = acc;
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c_out, d_out, h_out, w_out])
}

/// 2-D max pooling over `[n, c, h, w]` with square window `k`.
///
/// Padding positions contribute `f32::NEG_INFINITY` (i.e. are ignored
/// unless the whole window is padding).
///
/// # Errors
///
/// Returns an error for rank mismatches or windows that do not fit.
pub fn max_pool2d(input: &Tensor, k: usize, cfg: ConvConfig) -> Result<Tensor, TensorError> {
    check_rank(input, 4)?;
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let h_out = cfg.out_size(h, k)?;
    let w_out = cfg.out_size(w, k)?;
    let mut out = vec![f32::NEG_INFINITY; n * c * h_out * w_out];
    let data = input.data();
    // Window-tap-major: each output's running maximum takes its
    // in-range taps in the same `(ky, kx)` order as a loop over its own
    // window would, and a tap's in-range output rows and columns are
    // computed once instead of tested per element.
    for ky in 0..k {
        let ty = ky * cfg.dilation;
        let rows = in_range(ty, h, h_out, cfg);
        for kx in 0..k {
            let tx = kx * cfg.dilation;
            let cols = in_range(tx, w, w_out, cfg);
            let x0 = cols.start * cfg.stride + tx;
            for pc in 0..n * c {
                let plane = &data[pc * h * w..(pc + 1) * h * w];
                let dst = &mut out[pc * h_out * w_out..(pc + 1) * h_out * w_out];
                for oy in rows.clone() {
                    let src = &plane[(oy * cfg.stride + ty - cfg.padding) * w..][..w];
                    let run = &mut dst[oy * w_out + cols.start..oy * w_out + cols.end];
                    for (j, m) in run.iter_mut().enumerate() {
                        *m = m.max(src[x0 + j * cfg.stride - cfg.padding]);
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h_out, w_out])
}

/// 2-D average pooling over `[n, c, h, w]` with square window `k`.
///
/// The divisor counts only in-bounds positions (PyTorch's
/// `count_include_pad=False` convention).
///
/// # Errors
///
/// Returns an error for rank mismatches or windows that do not fit.
pub fn avg_pool2d(input: &Tensor, k: usize, cfg: ConvConfig) -> Result<Tensor, TensorError> {
    check_rank(input, 4)?;
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let h_out = cfg.out_size(h, k)?;
    let w_out = cfg.out_size(w, k)?;
    let mut out = vec![0.0f32; n * c * h_out * w_out];
    let data = input.data();
    let pad = cfg.padding as isize;
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let mut acc = 0.0f32;
                    let mut cnt = 0usize;
                    for ky in 0..k {
                        let iy = (oy * cfg.stride + ky * cfg.dilation) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * cfg.stride + kx * cfg.dilation) as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += data[((b * c + ch) * h + iy as usize) * w + ix as usize];
                            cnt += 1;
                        }
                    }
                    out[((b * c + ch) * h_out + oy) * w_out + ox] =
                        if cnt > 0 { acc / cnt as f32 } else { 0.0 };
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h_out, w_out])
}

/// Adaptive average pooling to an exact `out × out` spatial size, as used
/// by ResNet/VGG classifier heads.
///
/// # Errors
///
/// Returns an error for rank mismatches or `out == 0`.
pub fn adaptive_avg_pool2d(input: &Tensor, out_hw: usize) -> Result<Tensor, TensorError> {
    check_rank(input, 4)?;
    if out_hw == 0 {
        return Err(TensorError::InvalidKernelConfig("adaptive pool output size must be nonzero".into()));
    }
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let mut out = vec![0.0f32; n * c * out_hw * out_hw];
    let data = input.data();
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..out_hw {
                let y0 = oy * h / out_hw;
                let y1 = ((oy + 1) * h).div_ceil(out_hw);
                for ox in 0..out_hw {
                    let x0 = ox * w / out_hw;
                    let x1 = ((ox + 1) * w).div_ceil(out_hw);
                    let mut acc = 0.0f32;
                    let mut cnt = 0usize;
                    for iy in y0..y1.min(h) {
                        for ix in x0..x1.min(w) {
                            acc += data[((b * c + ch) * h + iy) * w + ix];
                            cnt += 1;
                        }
                    }
                    out[((b * c + ch) * out_hw + oy) * out_hw + ox] =
                        if cnt > 0 { acc / cnt as f32 } else { 0.0 };
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, out_hw, out_hw])
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_rng::Rng;

    #[test]
    fn conv_config_validates() {
        assert!(ConvConfig::new(0, 1).is_err());
        let c = ConvConfig::new(2, 1).unwrap();
        assert_eq!(c.out_size(5, 3).unwrap(), 3); // (5+2-3)/2+1
        assert!(c.out_size(1, 5).is_err());
    }

    #[test]
    fn conv2d_identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1.0 is identity.
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d_direct(&input, &weight, None, ConvConfig::default()).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_matches_hand_computed_example() {
        // 3x3 input, 2x2 kernel of ones: each output = sum of 2x2 patch.
        let input =
            Tensor::from_vec(vec![1., 2., 3., 4., 5., 6., 7., 8., 9.], &[1, 1, 3, 3]).unwrap();
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let out = conv2d_direct(&input, &weight, None, ConvConfig::default()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[12., 16., 24., 28.]);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let weight = Tensor::zeros(&[2, 1, 1, 1]);
        let bias = Tensor::from_vec(vec![5.0, -3.0], &[2]).unwrap();
        let out = conv2d_direct(&input, &weight, Some(&bias), ConvConfig::default()).unwrap();
        assert!(out.data()[..4].iter().all(|&x| x == 5.0));
        assert!(out.data()[4..].iter().all(|&x| x == -3.0));
    }

    #[test]
    fn conv2d_padding_grows_output() {
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let out =
            conv2d_direct(&input, &weight, None, ConvConfig { stride: 1, padding: 1, dilation: 1 }).unwrap();
        assert_eq!(out.dims(), &[1, 1, 3, 3]);
        // center sees all 9 ones; corner sees 4
        assert_eq!(out.get(&[0, 0, 1, 1]), 9.0);
        assert_eq!(out.get(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn im2col_agrees_with_direct_on_random_inputs() {
        let mut rng = Rng::from_seed(42);
        for &(n, c_in, c_out, hw, k, s, p) in
            &[(2, 3, 4, 8, 3, 1, 1), (1, 1, 1, 5, 2, 2, 0), (2, 4, 2, 7, 3, 2, 1)]
        {
            let input = Tensor::rand_normal(&mut rng, &[n, c_in, hw, hw], 0.0, 1.0);
            let weight = Tensor::rand_normal(&mut rng, &[c_out, c_in, k, k], 0.0, 0.5);
            let bias = Tensor::rand_normal(&mut rng, &[c_out], 0.0, 0.1);
            let cfg = ConvConfig { stride: s, padding: p, dilation: 1 };
            let a = conv2d_direct(&input, &weight, Some(&bias), cfg).unwrap();
            let b = conv2d_im2col(&input, &weight, Some(&bias), cfg).unwrap();
            assert_eq!(a.dims(), b.dims());
            assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
        }
    }

    /// The direct pack writes exactly `pack_b(im2col(..))`, bit for
    /// bit on NaN, ±Inf and ±0 inputs, for every stride 1–3, padding
    /// 0–2, dilation 1–2 and kernel 1/3/5/7 that fits, from one input
    /// channel up, on both batch items.
    #[test]
    fn direct_pack_equals_the_pack_of_im2col() {
        let mut rng = Rng::from_seed(0xD1EC);
        let special = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        let (mut cases, mut ragged) = (0, 0);
        for c_in in [1, 2, 5] {
            for (h, w) in [(13, 17), (15, 14)] {
                let mut input = Tensor::rand_normal(&mut rng, &[2, c_in, h, w], 0.0, 1.0);
                for (i, v) in input.data_mut().iter_mut().enumerate().step_by(7) {
                    *v = special[i % special.len()];
                }
                for k in [1, 3, 5, 7] {
                    let weight = Tensor::zeros(&[1, c_in, k, k]);
                    for (stride, pad, dilation) in (1..=3).flat_map(|s| (0..=2).flat_map(move |p| (1..=2).map(move |d| (s, p, d)))) {
                        let cfg = ConvConfig { stride, padding: pad, dilation };
                        let Ok(g) = Conv2dShape::new(&input, &weight, None, cfg) else { continue };
                        let spatial = g.h_out * g.w_out;
                        for b in 0..2 {
                            let expect = gemm::pack_b(&im2col(&input, b, &g, cfg), c_in * k * k, spatial, gemm::BLayout::RowMajor);
                            let got = im2col_panels(&input, b, &g, cfg);
                            let what = format!("c_in={c_in} {h}x{w} k={k} s={stride} p={pad} d={dilation} b={b}");
                            assert_eq!(expect.len(), got.len(), "{what}");
                            for (i, (e, o)) in expect.iter().zip(&got).enumerate() {
                                assert_eq!(e.to_bits(), o.to_bits(), "{what}: element {i}");
                            }
                        }
                        cases += 1;
                        ragged += usize::from(spatial % gemm::NR != 0);
                    }
                }
            }
        }
        assert!(cases > 300 && ragged > cases / 2, "{cases} cases, {ragged} with a ragged last panel");
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let input = Tensor::zeros(&[1, 3, 4, 4]);
        let weight = Tensor::zeros(&[2, 4, 3, 3]);
        assert!(conv2d_direct(&input, &weight, None, ConvConfig::default()).is_err());
        assert!(conv2d_im2col(&input, &weight, None, ConvConfig::default()).is_err());
    }

    #[test]
    fn conv3d_reduces_to_conv2d_for_depth_one() {
        let mut rng = Rng::from_seed(9);
        let input2 = Tensor::rand_normal(&mut rng, &[1, 2, 5, 5], 0.0, 1.0);
        let weight2 = Tensor::rand_normal(&mut rng, &[3, 2, 3, 3], 0.0, 1.0);
        let input3 = input2.reshape(&[1, 2, 1, 5, 5]).unwrap();
        let weight3 = weight2.reshape(&[3, 2, 1, 3, 3]).unwrap();
        let a = conv2d_direct(&input2, &weight2, None, ConvConfig::default()).unwrap();
        let b = conv3d_direct(&input3, &weight3, None, ConvConfig::default()).unwrap();
        assert_eq!(b.dims(), &[1, 3, 1, 3, 3]);
        assert!(a.reshape(&[1, 3, 1, 3, 3]).unwrap().max_abs_diff(&b).unwrap() < 1e-5);
    }

    #[test]
    fn conv3d_sums_across_depth() {
        let input = Tensor::ones(&[1, 1, 2, 2, 2]);
        let weight = Tensor::ones(&[1, 1, 2, 2, 2]);
        let out = conv3d_direct(&input, &weight, None, ConvConfig::default()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1, 1, 1]);
        assert_eq!(out.data()[0], 8.0);
    }

    #[test]
    fn max_pool_takes_window_maximum() {
        let input =
            Tensor::from_vec(vec![1., 2., 3., 4., 5., 6., 7., 8., 9.], &[1, 1, 3, 3]).unwrap();
        let out = max_pool2d(&input, 2, ConvConfig::default()).unwrap();
        assert_eq!(out.data(), &[5., 6., 8., 9.]);
    }

    /// `max_pool2d` equals the per-window loop it replaced bit for bit:
    /// the same running maximum over the same taps in the same order,
    /// so ±0 ties and NaNs resolve as they did, over strides 1–3,
    /// paddings 0–2, dilations 1–2 and windows 1–3.
    #[test]
    fn max_pool_equals_the_per_window_loop() {
        let oracle = |input: &Tensor, k: usize, cfg: ConvConfig| -> Vec<f32> {
            let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
            let (h_out, w_out) = (cfg.out_size(h, k).unwrap(), cfg.out_size(w, k).unwrap());
            let at = |o: usize, t: usize, extent: usize| {
                (o * cfg.stride + t * cfg.dilation).checked_sub(cfg.padding).filter(|&i| i < extent)
            };
            let mut out = Vec::new();
            for plane in input.data().chunks_exact(h * w).take(n * c) {
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        let mut m = f32::NEG_INFINITY;
                        for ky in 0..k {
                            for kx in 0..k {
                                if let (Some(iy), Some(ix)) = (at(oy, ky, h), at(ox, kx, w)) {
                                    m = m.max(plane[iy * w + ix]);
                                }
                            }
                        }
                        out.push(m);
                    }
                }
            }
            out
        };
        let mut rng = Rng::from_seed(0x9001);
        // Mostly zeros of both signs and negative values, so that many
        // windows' maximum is a ±0 tie.
        let special = [f32::NAN, -0.0, 0.0, f32::NEG_INFINITY, 0.0, -0.0, -f32::NAN, -0.0, 0.0];
        let mut input = Tensor::rand_normal(&mut rng, &[2, 3, 9, 8], 0.0, 1.0);
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            *v = if i % 4 == 0 { -v.abs() } else { special[i % special.len()] };
        }
        let mut cases = 0;
        for k in 1..=3 {
            for (stride, pad, dilation) in (1..=3).flat_map(|s| (0..=2).flat_map(move |p| (1..=2).map(move |d| (s, p, d)))) {
                let cfg = ConvConfig { stride, padding: pad, dilation };
                let Ok(got) = max_pool2d(&input, k, cfg) else { continue };
                let expect = oracle(&input, k, cfg);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.data()), bits(&expect), "k={k} s={stride} p={pad} d={dilation}");
                cases += 1;
            }
        }
        assert!(cases > 40, "{cases} cases");
    }

    #[test]
    fn max_pool_stride_two_downsamples() {
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let out = max_pool2d(&input, 2, ConvConfig { stride: 2, padding: 0, dilation: 1 }).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[5., 7., 13., 15.]);
    }

    #[test]
    fn avg_pool_ignores_padding_in_divisor() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let out = avg_pool2d(&input, 3, ConvConfig { stride: 1, padding: 1, dilation: 1 }).unwrap();
        // every window contains only ones (padding excluded from divisor)
        assert!(out.data().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn adaptive_avg_pool_to_one_is_global_mean() {
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let out = adaptive_avg_pool2d(&input, 1).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1, 1]);
        assert!((out.data()[0] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn adaptive_avg_pool_identity_when_sizes_match() {
        let mut rng = Rng::from_seed(1);
        let input = Tensor::rand_normal(&mut rng, &[1, 2, 3, 3], 0.0, 1.0);
        let out = adaptive_avg_pool2d(&input, 3).unwrap();
        assert!(input.max_abs_diff(&out).unwrap() < 1e-6);
    }

    #[test]
    fn pooling_rejects_bad_rank() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(max_pool2d(&t, 2, ConvConfig::default()).is_err());
        assert!(avg_pool2d(&t, 2, ConvConfig::default()).is_err());
        assert!(adaptive_avg_pool2d(&t, 1).is_err());
    }
}
