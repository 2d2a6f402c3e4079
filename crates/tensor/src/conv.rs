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
//! modulo floating-point associativity. [`conv2d_fused`] additionally
//! fuses a range-supervision clamp into the GEMM epilogue, so a model
//! hardened with fused clamps avoids a second pass over the
//! activations.

use crate::gemm::{self, Clamp};
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

/// Lowers an input image into column-matrix form for GEMM convolution.
///
/// Produces a `[c_in*kh*kw, h_out*w_out]` matrix per batch item; this
/// function returns the matrix for batch item `b`.
fn im2col(
    input: &Tensor,
    b: usize,
    kh: usize,
    kw: usize,
    h_out: usize,
    w_out: usize,
    cfg: ConvConfig,
) -> Tensor {
    let (c_in, h, w) = (input.dims()[1], input.dims()[2], input.dims()[3]);
    let rows = c_in * kh * kw;
    let cols = h_out * w_out;
    let mut out = vec![0.0f32; rows * cols];
    let data = input.data();
    let pad = cfg.padding;
    let (stride, dil) = (cfg.stride, cfg.dilation);
    // Valid output-coordinate range for a tap offset `t = k * dilation`:
    // the input coordinate `o * stride + t - pad` must land in
    // `[0, extent)`. Hoisting the range out of the copy loops removes
    // the per-element boundary branches; out-of-range positions keep
    // their zero initialization, exactly as the branch-per-element form
    // produced.
    let valid = |t: usize, extent: usize, o_count: usize| -> (usize, usize) {
        let o_min = if t >= pad { 0 } else { (pad - t).div_ceil(stride) };
        let o_end = if extent + pad <= t {
            0
        } else {
            (extent + pad - t).div_ceil(stride).min(o_count)
        };
        (o_min.min(o_end), o_end)
    };
    for ic in 0..c_in {
        let plane_start = (b * c_in + ic) * h * w;
        let plane = &data[plane_start..plane_start + h * w];
        for ky in 0..kh {
            let ty = ky * dil;
            let (oy0, oy1) = valid(ty, h, h_out);
            for kx in 0..kw {
                let tx = kx * dil;
                let (ox0, ox1) = valid(tx, w, w_out);
                let row = (ic * kh + ky) * kw + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for oy in oy0..oy1 {
                    let iy = oy * stride + ty - pad;
                    let src = &plane[iy * w..(iy + 1) * w];
                    let dst = &mut out_row[oy * w_out + ox0..oy * w_out + ox1];
                    if stride == 1 {
                        // Contiguous tap row: one memcpy per output row.
                        let ix0 = ox0 + tx - pad;
                        dst.copy_from_slice(&src[ix0..ix0 + dst.len()]);
                    } else {
                        for (j, d) in dst.iter_mut().enumerate() {
                            *d = src[(ox0 + j) * stride + tx - pad];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols]).expect("im2col dims consistent")
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
    conv2d_fused(input, weight, bias, cfg, None)
}

/// [`conv2d_im2col`] with a range-supervision clamp fused into the GEMM
/// epilogue.
///
/// Per output element the operation order is fixed — GEMM sum, bias,
/// clamp — which is exactly the separate-pass sequence (forward, then a
/// spliced `RangeRestrict` layer), so fused and separate-pass results
/// are bit-identical. With `clamp = None` this *is* `conv2d_im2col`.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or kernels that do not fit.
pub fn conv2d_fused(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: ConvConfig,
    clamp: Option<Clamp>,
) -> Result<Tensor, TensorError> {
    let Conv2dShape { n, c_in, c_out, kh, kw, h_out, w_out } =
        Conv2dShape::new(input, weight, bias, cfg)?;
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

    // One batch item = one fully independent im2col + GEMM + epilogue,
    // writing only its own slice of `out`. The per-item computation is
    // identical on both paths, so parallel output is bit-identical to
    // sequential for any thread count.
    let conv_item = |b: usize, dst_item: &mut [f32]| {
        let cols = im2col(input, b, kh, kw, h_out, w_out, cfg);
        let spec = gemm::GemmSpec {
            m: c_out,
            k: kdim,
            n: spatial,
            layout: gemm::BLayout::RowMajor,
            skip_zero_a: true,
            bias: gemm::Bias::PostPerRow(bias_row),
        };
        gemm::run(w_data, cols.data(), None, dst_item, &spec, &clamp, path, c_out);
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

/// Recomputes some output channels of [`conv2d_fused`] in place.
///
/// `out` holds `conv2d_fused(input, weight, bias, cfg, clamp)`. Each
/// `(c, w)` of `rows` replaces output channel `c`'s filter with the
/// `c_in · kh · kw` values `w` (in `weight`'s layout) and rewrites
/// channel `c` of every batch item; every other element keeps its
/// value. Per batch item this recomputes those rows of the GEMM over
/// an im2col of the input, so a rewritten element equals
/// [`conv2d_fused`] with the replaced filters bit for bit, NaN bits
/// included, on either kernel path. The meters count it as a convolution with as many output
/// channels as the GEMM recomputed.
///
/// # Errors
///
/// The [`conv2d_fused`] shape errors, and a shape mismatch when `out`
/// is not that convolution's output shape or a row is not one filter
/// of an existing channel.
pub fn conv2d_rows(
    input: &Tensor,
    weight: &Tensor,
    rows: &[(usize, Vec<f32>)],
    bias: Option<&Tensor>,
    cfg: ConvConfig,
    clamp: Option<Clamp>,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let Conv2dShape { n, c_in, c_out, kh, kw, h_out, w_out } =
        Conv2dShape::new(input, weight, bias, cfg)?;
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
    // The conv kernel always runs its bias pass (see `conv2d_fused`).
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
    let mut computed = 0;
    for (b, dst) in out.data_mut().chunks_exact_mut(c_out * spatial).enumerate() {
        let cols = im2col(input, b, kh, kw, h_out, w_out, cfg);
        computed = gemm::gemm_rows(weight.data(), rows, cols.data(), dst, &spec, clamp, path);
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
    let pad = cfg.padding as isize;
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let mut m = f32::NEG_INFINITY;
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
                            m = m.max(data[((b * c + ch) * h + iy as usize) * w + ix as usize]);
                        }
                    }
                    out[((b * c + ch) * h_out + oy) * w_out + ox] = m;
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
