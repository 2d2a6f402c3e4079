//! Layer operations and their parameters.
//!
//! A [`Layer`] is a single operation in a [`crate::Network`] graph. The
//! three *injectable* kinds — [`Conv2d`], [`Conv3d`] and [`Linear`] — are
//! exactly the layer types PyTorchALFI supports for fault injection
//! (§IV-B: "Supported layer types are conv2d, conv3d, and Linear").

use crate::error::NnError;
use alfi_tensor::conv::{
    adaptive_avg_pool2d, avg_pool2d, conv2d_im2col, conv3d_direct, max_pool2d, ConvConfig,
};
use alfi_tensor::{elementwise, gemm, Tensor};

/// Classification of layer kinds, used to filter injectable layers in a
/// fault-injection scenario (`layer_types: [conv2d, linear]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution — injectable.
    Conv2d,
    /// 3-D convolution — injectable.
    Conv3d,
    /// Fully-connected layer — injectable.
    Linear,
    /// Any non-injectable operation (activations, pooling, arithmetic...).
    Other,
}

impl LayerKind {
    /// Whether ALFI may target this layer kind for fault injection.
    pub fn is_injectable(self) -> bool {
        !matches!(self, LayerKind::Other)
    }
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LayerKind::Conv2d => "conv2d",
            LayerKind::Conv3d => "conv3d",
            LayerKind::Linear => "linear",
            LayerKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// A 2-D convolution layer with weights `[c_out, c_in, kh, kw]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    /// Convolution weight tensor `[c_out, c_in, kh, kw]`.
    pub weight: Tensor,
    /// Optional per-output-channel bias `[c_out]`.
    pub bias: Option<Tensor>,
    /// Stride and padding.
    pub cfg: ConvConfig,
}

/// A 3-D convolution layer with weights `[c_out, c_in, kd, kh, kw]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv3d {
    /// Convolution weight tensor `[c_out, c_in, kd, kh, kw]`.
    pub weight: Tensor,
    /// Optional per-output-channel bias `[c_out]`.
    pub bias: Option<Tensor>,
    /// Stride and padding.
    pub cfg: ConvConfig,
}

/// A fully-connected layer computing `x · Wᵀ + b` with weight `[out, in]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix `[out_features, in_features]`.
    pub weight: Tensor,
    /// Optional bias `[out_features]`.
    pub bias: Option<Tensor>,
}

/// Inference-mode 2-D batch normalization with frozen statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm2d {
    /// Per-channel scale γ.
    pub gamma: Tensor,
    /// Per-channel shift β.
    pub beta: Tensor,
    /// Frozen running mean.
    pub running_mean: Tensor,
    /// Frozen running variance.
    pub running_var: Tensor,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl BatchNorm2d {
    /// Identity-initialized batch norm over `c` channels (γ=1, β=0,
    /// mean=0, var=1).
    pub fn identity(c: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::ones(&[c]),
            beta: Tensor::zeros(&[c]),
            running_mean: Tensor::zeros(&[c]),
            running_var: Tensor::ones(&[c]),
            eps: 1e-5,
        }
    }
}

/// Inference layer normalization over the last dimension (the
/// transformer's token-feature axis).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    /// Per-feature scale γ `[dim]`.
    pub gamma: Tensor,
    /// Per-feature shift β `[dim]`.
    pub beta: Tensor,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl LayerNorm {
    /// Identity-initialized layer norm over `dim` features (γ=1, β=0).
    pub fn identity(dim: usize) -> Self {
        LayerNorm { gamma: Tensor::ones(&[dim]), beta: Tensor::zeros(&[dim]), eps: 1e-5 }
    }
}

/// A user-defined layer operation — the extensibility hook of paper
/// §V-G ("the tool is designed to easily incorporate new custom
/// trainable layers not native to PyTorch by adding the custom layer's
/// type in the `verify_layer` function").
///
/// A custom layer may expose a weight tensor and masquerade as one of
/// the supported injectable kinds via [`CustomLayer::injection_kind`];
/// ALFI then targets it exactly like a native conv/linear layer. Weight
/// tensors must be rank 2, 4 or 5 so fault coordinates can be sampled.
pub trait CustomLayer: Send + Sync + std::fmt::Debug {
    /// Short type name shown in logs and debugging output.
    fn type_name(&self) -> &str;
    /// Executes the layer (unary).
    ///
    /// # Errors
    ///
    /// Implementations return [`NnError`] for incompatible inputs.
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError>;
    /// Clones the layer into a fresh box (custom layers must be
    /// clonable so faulty model instances can be spun off).
    fn clone_box(&self) -> Box<dyn CustomLayer>;
    /// The injectable kind this layer registers as, or `None` to opt out
    /// of fault injection.
    fn injection_kind(&self) -> Option<LayerKind> {
        None
    }
    /// The layer's weight tensor, if it has one.
    fn weight(&self) -> Option<&Tensor> {
        None
    }
    /// Mutable weight access for weight fault injection.
    fn weight_mut(&mut self) -> Option<&mut Tensor> {
        None
    }
}

impl Clone for Box<dyn CustomLayer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A single operation in a network graph.
#[derive(Debug, Clone)]
pub enum Layer {
    /// A user-defined operation (see [`CustomLayer`]).
    Custom(Box<dyn CustomLayer>),
    /// 2-D convolution (injectable).
    Conv2d(Conv2d),
    /// 3-D convolution (injectable).
    Conv3d(Conv3d),
    /// Fully-connected layer (injectable).
    Linear(Linear),
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Inference batch normalization.
    BatchNorm2d(BatchNorm2d),
    /// Max pooling with square window `k`.
    MaxPool2d {
        /// Window size.
        k: usize,
        /// Stride and padding.
        cfg: ConvConfig,
    },
    /// Average pooling with square window `k`.
    AvgPool2d {
        /// Window size.
        k: usize,
        /// Stride and padding.
        cfg: ConvConfig,
    },
    /// Adaptive average pooling to `out × out`.
    AdaptiveAvgPool2d(usize),
    /// Flattens `[n, ...]` to `[n, rest]`.
    Flatten,
    /// Elementwise sum of two inputs (residual connections).
    Add,
    /// Channel-dimension concatenation of two NCHW inputs.
    ConcatChannels,
    /// Nearest-neighbour 2× spatial upsampling (FPN top-down path).
    Upsample2x,
    /// Identity pass-through (graph plumbing).
    Identity,
    /// Inference layer normalization over the last dimension
    /// (non-injectable, like batch norm).
    LayerNorm(LayerNorm),
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Rearranges a patch-embedding output `[n, d, gh, gw]` into the
    /// token tensor `[n, gh·gw, d]` consumed by transformer blocks.
    ImageToTokens,
    /// Adds a learned positional embedding `[tokens, dim]` to a token
    /// tensor `[n, tokens, dim]` (non-injectable plumbing).
    PosEmbed(Tensor),
    /// Multi-head scaled dot-product self-attention over separate
    /// `(q, k, v)` token tensors `[n, tokens, dim]` — each head runs
    /// `softmax(Q·Kᵀ/√dₕ)·V` through the shared GEMM kernel path.
    Attention {
        /// Number of attention heads; must divide the feature dim.
        heads: usize,
    },
    /// Mean over the token dimension: `[n, t, d]` → `[n, d]` (the
    /// ViT-style pooling head in lieu of a class token).
    MeanTokens,
    /// Activation-range supervision (Ranger/Clipper, Geissler et al.):
    /// values outside `[lo, hi]` are clipped to the bound (`Clip`) or
    /// zeroed (`Zero`). Inserted by `alfi-mitigation` to harden models;
    /// non-injectable, so hardening preserves the injectable-layer list.
    RangeRestrict {
        /// Lower bound of the healthy activation range.
        lo: f32,
        /// Upper bound of the healthy activation range.
        hi: f32,
        /// What to do with out-of-range values.
        mode: RestrictMode,
    },
}

/// Out-of-range handling for [`Layer::RangeRestrict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestrictMode {
    /// Ranger: saturate to the violated bound. NaN maps to `lo`.
    Clip,
    /// Clipper: replace with zero. NaN maps to zero.
    Zero,
}

impl From<RestrictMode> for gemm::ClampMode {
    fn from(mode: RestrictMode) -> Self {
        match mode {
            RestrictMode::Clip => gemm::ClampMode::Clip,
            RestrictMode::Zero => gemm::ClampMode::Zero,
        }
    }
}

impl From<gemm::ClampMode> for RestrictMode {
    fn from(mode: gemm::ClampMode) -> Self {
        match mode {
            gemm::ClampMode::Clip => RestrictMode::Clip,
            gemm::ClampMode::Zero => RestrictMode::Zero,
        }
    }
}

impl Layer {
    /// The kind used for injectability filtering.
    pub fn kind(&self) -> LayerKind {
        match self {
            Layer::Conv2d(_) => LayerKind::Conv2d,
            Layer::Conv3d(_) => LayerKind::Conv3d,
            Layer::Linear(_) => LayerKind::Linear,
            Layer::Custom(c) => c.injection_kind().unwrap_or(LayerKind::Other),
            _ => LayerKind::Other,
        }
    }

    /// Immutable access to the layer's weight tensor, if it has one.
    pub fn weight(&self) -> Option<&Tensor> {
        match self {
            Layer::Conv2d(c) => Some(&c.weight),
            Layer::Conv3d(c) => Some(&c.weight),
            Layer::Linear(l) => Some(&l.weight),
            Layer::Custom(c) => c.weight(),
            _ => None,
        }
    }

    /// Mutable access to the layer's weight tensor — the entry point for
    /// weight fault injection ("fault injections into weights don't have
    /// to use hooks, because weights are defined before the inference
    /// run", §II).
    pub fn weight_mut(&mut self) -> Option<&mut Tensor> {
        match self {
            Layer::Conv2d(c) => Some(&mut c.weight),
            Layer::Conv3d(c) => Some(&mut c.weight),
            Layer::Linear(l) => Some(&mut l.weight),
            Layer::Custom(c) => c.weight_mut(),
            _ => None,
        }
    }

    /// Number of arguments this layer consumes (1, 2, or 3 for
    /// attention's `q, k, v`).
    pub fn arity(&self) -> usize {
        match self {
            Layer::Add | Layer::ConcatChannels => 2,
            Layer::Attention { .. } => 3,
            _ => 1,
        }
    }

    /// Executes the layer on its inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if input ranks/shapes are incompatible with the
    /// operation.
    pub fn forward(&self, inputs: &[&Tensor]) -> Result<Tensor, NnError> {
        let x = inputs[0];
        match self {
            Layer::Custom(c) => c.forward(x),
            Layer::Conv2d(c) => Ok(conv2d_im2col(x, &c.weight, c.bias.as_ref(), c.cfg)?),
            Layer::Conv3d(c) => Ok(conv3d_direct(x, &c.weight, c.bias.as_ref(), c.cfg)?),
            Layer::Linear(l) => linear_forward(x, l),
            Layer::Relu => Ok(x.map(|v| v.max(0.0))),
            Layer::LeakyRelu(slope) => {
                let s = *slope;
                Ok(x.map(move |v| if v >= 0.0 { v } else { s * v }))
            }
            Layer::Sigmoid => Ok(x.map(|v| 1.0 / (1.0 + (-v).exp()))),
            Layer::BatchNorm2d(bn) => batchnorm_forward(x, bn),
            Layer::MaxPool2d { k, cfg } => Ok(max_pool2d(x, *k, *cfg)?),
            Layer::AvgPool2d { k, cfg } => Ok(avg_pool2d(x, *k, *cfg)?),
            Layer::AdaptiveAvgPool2d(out) => Ok(adaptive_avg_pool2d(x, *out)?),
            Layer::Flatten => {
                if x.rank() < 2 {
                    return Err(NnError::BadInput {
                        layer: "flatten".into(),
                        reason: format!("rank {} < 2", x.rank()),
                    });
                }
                let n = x.dims()[0];
                let rest: usize = x.dims()[1..].iter().product();
                Ok(x.reshape(&[n, rest])?)
            }
            Layer::Add => Ok(x.add(inputs[1])?),
            Layer::ConcatChannels => concat_channels(x, inputs[1]),
            Layer::LayerNorm(ln) => layernorm_forward(x, ln),
            Layer::Gelu => {
                let mut out = vec![0.0f32; x.num_elements()];
                elementwise::gelu(x.data(), &mut out, gemm::kernel_path());
                Ok(Tensor::from_vec(out, x.dims())?)
            }
            Layer::ImageToTokens => image_to_tokens(x),
            Layer::PosEmbed(pe) => pos_embed_forward(x, pe),
            Layer::Attention { heads } => attention_forward(x, inputs[1], inputs[2], *heads),
            Layer::MeanTokens => mean_tokens(x),
            Layer::Upsample2x => upsample2x(x),
            Layer::Identity => Ok(x.clone()),
            Layer::RangeRestrict { lo, hi, mode } => {
                let (lo, hi, mode) = (*lo, *hi, *mode);
                Ok(x.map(move |v| match mode {
                    RestrictMode::Clip => {
                        if v.is_nan() {
                            lo
                        } else {
                            v.clamp(lo, hi)
                        }
                    }
                    RestrictMode::Zero => {
                        if v.is_nan() || v < lo || v > hi {
                            0.0
                        } else {
                            v
                        }
                    }
                }))
            }
        }
    }

    /// Whether `other` computes the same function bit for bit: the same
    /// kind, the same configuration and bitwise-equal parameters.
    /// Custom layers are opaque, so they never compare equal.
    pub fn bitwise_eq(&self, other: &Layer) -> bool {
        fn t(a: &Tensor, b: &Tensor) -> bool {
            a.dims() == b.dims()
                && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        fn opt(a: &Option<Tensor>, b: &Option<Tensor>) -> bool {
            match (a, b) {
                (Some(a), Some(b)) => t(a, b),
                (None, None) => true,
                _ => false,
            }
        }
        let f = |a: f32, b: f32| a.to_bits() == b.to_bits();
        match (self, other) {
            (Layer::Conv2d(a), Layer::Conv2d(b)) => {
                a.cfg == b.cfg && t(&a.weight, &b.weight) && opt(&a.bias, &b.bias)
            }
            (Layer::Conv3d(a), Layer::Conv3d(b)) => {
                a.cfg == b.cfg && t(&a.weight, &b.weight) && opt(&a.bias, &b.bias)
            }
            (Layer::Linear(a), Layer::Linear(b)) => {
                t(&a.weight, &b.weight) && opt(&a.bias, &b.bias)
            }
            (Layer::LeakyRelu(a), Layer::LeakyRelu(b)) => f(*a, *b),
            (Layer::BatchNorm2d(a), Layer::BatchNorm2d(b)) => {
                t(&a.gamma, &b.gamma)
                    && t(&a.beta, &b.beta)
                    && t(&a.running_mean, &b.running_mean)
                    && t(&a.running_var, &b.running_var)
                    && f(a.eps, b.eps)
            }
            (Layer::MaxPool2d { k: ka, cfg: ca }, Layer::MaxPool2d { k: kb, cfg: cb })
            | (Layer::AvgPool2d { k: ka, cfg: ca }, Layer::AvgPool2d { k: kb, cfg: cb }) => {
                ka == kb && ca == cb
            }
            (Layer::AdaptiveAvgPool2d(a), Layer::AdaptiveAvgPool2d(b)) => a == b,
            (Layer::LayerNorm(a), Layer::LayerNorm(b)) => {
                t(&a.gamma, &b.gamma) && t(&a.beta, &b.beta) && f(a.eps, b.eps)
            }
            (Layer::PosEmbed(a), Layer::PosEmbed(b)) => t(a, b),
            (Layer::Attention { heads: a }, Layer::Attention { heads: b }) => a == b,
            (
                Layer::RangeRestrict { lo: la, hi: ha, mode: ma },
                Layer::RangeRestrict { lo: lb, hi: hb, mode: mb },
            ) => f(*la, *lb) && f(*ha, *hb) && ma == mb,
            (Layer::Relu, Layer::Relu)
            | (Layer::Sigmoid, Layer::Sigmoid)
            | (Layer::Flatten, Layer::Flatten)
            | (Layer::Add, Layer::Add)
            | (Layer::ConcatChannels, Layer::ConcatChannels)
            | (Layer::Upsample2x, Layer::Upsample2x)
            | (Layer::Identity, Layer::Identity)
            | (Layer::Gelu, Layer::Gelu)
            | (Layer::ImageToTokens, Layer::ImageToTokens)
            | (Layer::MeanTokens, Layer::MeanTokens) => true,
            _ => false,
        }
    }
}

fn linear_forward(x: &Tensor, l: &Linear) -> Result<Tensor, NnError> {
    linear_fused(x, l, None, None)
}

/// Linear layer forward with a range-supervision clamp fused into the
/// GEMM epilogue.
///
/// The historical per-element operation order is preserved on both
/// kernel paths: the accumulator starts at the output's bias value,
/// products accumulate in ascending input-feature order (no zero-skip
/// — the linear kernel never had one), then the clamp applies. With
/// `clamp = None` this is the plain forward. With a `pack` (a
/// network's cache for this weight) the blocked path packs the weight
/// once, not per call.
pub(crate) fn linear_fused(
    x: &Tensor,
    l: &Linear,
    clamp: Option<gemm::Clamp>,
    pack: Option<&gemm::PackCache>,
) -> Result<Tensor, NnError> {
    let (rows, _, out_dims) = linear_shape(x, l)?;
    let spec = linear_spec(rows, l);
    let mut out = vec![0.0f32; rows * spec.n];
    let (w, path) = (l.weight.data(), gemm::kernel_path());
    match pack {
        Some(pack) => gemm::gemm_cached(x.data(), w, pack, &mut out, &spec, &clamp, path),
        None => gemm::gemm_with(x.data(), w, &mut out, &spec, &clamp, path),
    }
    Ok(Tensor::from_vec(out, &out_dims)?)
}

/// Recomputes the output features `rows` of [`linear_fused`] in place:
/// `out` is the layer's output for `x`, and each `(j, w)` replaces
/// weight row `j` (see [`gemm::linear_rows`]).
pub(crate) fn linear_rows(
    x: &Tensor,
    l: &Linear,
    rows: &[(usize, Vec<f32>)],
    clamp: Option<gemm::Clamp>,
    out: &mut Tensor,
) -> Result<(), NnError> {
    let (m, in_f, out_dims) = linear_shape(x, l)?;
    let bad = |reason: String| NnError::BadInput { layer: "linear".into(), reason };
    if out.dims() != out_dims.as_slice() {
        return Err(bad(format!("output {:?} is not the layer's {:?}", out.dims(), out_dims)));
    }
    let out_f = l.weight.dims()[0];
    if let Some((j, row)) = rows.iter().find(|(j, row)| *j >= out_f || row.len() != in_f) {
        return Err(bad(format!("row {j} of {} values for a {out_f} × {in_f} weight", row.len())));
    }
    let spec = linear_spec(m, l);
    gemm::linear_rows(x.data(), l.weight.data(), rows, out.data_mut(), &spec, clamp, gemm::kernel_path());
    Ok(())
}

/// The GEMM of a linear layer over `rows` input rows: `x [rows, in] ·
/// Wᵀ`, reading `W` transposed in place, the bias initializing each
/// output feature's chain, no zero-skip.
fn linear_spec(rows: usize, l: &Linear) -> gemm::GemmSpec<'_> {
    gemm::GemmSpec {
        m: rows,
        k: l.weight.dims()[1],
        n: l.weight.dims()[0],
        layout: gemm::BLayout::Transposed,
        skip_zero_a: false,
        bias: match l.bias.as_ref() {
            Some(b) => gemm::Bias::InitPerCol(b.data()),
            None => gemm::Bias::None,
        },
    }
}

/// A linear layer's GEMM rows, input features and output dims for input
/// `x`: rank 2 `[n, in]`, or rank-3 tokens `[n, t, in]` applied per token
/// (the token axis folds into the GEMM rows).
fn linear_shape(x: &Tensor, l: &Linear) -> Result<(usize, usize, Vec<usize>), NnError> {
    let (out_f, in_f) = (l.weight.dims()[0], l.weight.dims()[1]);
    let bad = |reason: String| NnError::BadInput { layer: "linear".into(), reason };
    if x.rank() != 2 && x.rank() != 3 {
        return Err(bad(format!("expected rank 2 or 3 input, got rank {}", x.rank())));
    }
    let (lead, last) = x.dims().split_at(x.rank() - 1);
    if last[0] != in_f {
        return Err(bad(format!("input features {} != weight in_features {}", last[0], in_f)));
    }
    let mut out_dims = lead.to_vec();
    out_dims.push(out_f);
    Ok((lead.iter().product(), in_f, out_dims))
}

fn layernorm_forward(x: &Tensor, ln: &LayerNorm) -> Result<Tensor, NnError> {
    if x.rank() < 2 {
        return Err(NnError::BadInput {
            layer: "layernorm".into(),
            reason: format!("expected rank >= 2, got rank {}", x.rank()),
        });
    }
    let d = *x.dims().last().expect("rank >= 2");
    if ln.gamma.num_elements() != d {
        return Err(NnError::BadInput {
            layer: "layernorm".into(),
            reason: format!("{} features but {} gammas", d, ln.gamma.num_elements()),
        });
    }
    let rows = x.num_elements() / d;
    let mut out = vec![0.0f32; x.num_elements()];
    let data = x.data();
    let (g, b) = (ln.gamma.data(), ln.beta.data());
    for r in 0..rows {
        let row = &data[r * d..(r + 1) * d];
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv_std = 1.0 / (var + ln.eps).sqrt();
        for i in 0..d {
            out[r * d + i] = (row[i] - mean) * inv_std * g[i] + b[i];
        }
    }
    Ok(Tensor::from_vec(out, x.dims())?)
}

fn image_to_tokens(x: &Tensor) -> Result<Tensor, NnError> {
    if x.rank() != 4 {
        return Err(NnError::BadInput {
            layer: "image_to_tokens".into(),
            reason: format!("expected rank 4 input, got rank {}", x.rank()),
        });
    }
    let (n, d, gh, gw) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let t = gh * gw;
    let mut out = vec![0.0f32; n * t * d];
    let data = x.data();
    for b in 0..n {
        for c in 0..d {
            for p in 0..t {
                out[(b * t + p) * d + c] = data[(b * d + c) * t + p];
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, t, d])?)
}

fn pos_embed_forward(x: &Tensor, pe: &Tensor) -> Result<Tensor, NnError> {
    if x.rank() != 3 || pe.rank() != 2 || &x.dims()[1..] != pe.dims() {
        return Err(NnError::BadInput {
            layer: "pos_embed".into(),
            reason: format!("token tensor {:?} vs embedding {:?}", x.dims(), pe.dims()),
        });
    }
    let (n, td) = (x.dims()[0], pe.num_elements());
    let mut out = x.data().to_vec();
    let p = pe.data();
    for b in 0..n {
        for i in 0..td {
            out[b * td + i] += p[i];
        }
    }
    Ok(Tensor::from_vec(out, x.dims())?)
}

fn attention_forward(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Result<Tensor, NnError> {
    let bad = |reason: String| NnError::BadInput { layer: "attention".into(), reason };
    if q.rank() != 3 || q.dims() != k.dims() || q.dims() != v.dims() {
        return Err(bad(format!(
            "q/k/v must share a rank-3 shape, got {:?}/{:?}/{:?}",
            q.dims(),
            k.dims(),
            v.dims()
        )));
    }
    let (n, t, d) = (q.dims()[0], q.dims()[1], q.dims()[2]);
    if heads == 0 || d % heads != 0 {
        return Err(bad(format!("{heads} heads do not divide feature dim {d}")));
    }
    let hd = d / heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut out = vec![0.0f32; n * t * d];
    let path = gemm::kernel_path();
    // Per-(batch, head) contiguous [t, hd] operand buffers; both GEMMs
    // run through the shared kernel path so attention inherits the
    // blocked/reference conformance story.
    let mut qh = vec![0.0f32; t * hd];
    let mut kh = vec![0.0f32; t * hd];
    let mut vh = vec![0.0f32; t * hd];
    let mut scores = vec![0.0f32; t * t];
    let mut ctx = vec![0.0f32; t * hd];
    for b in 0..n {
        for h in 0..heads {
            let off = h * hd;
            for p in 0..t {
                let row = (b * t + p) * d + off;
                qh[p * hd..(p + 1) * hd].copy_from_slice(&q.data()[row..row + hd]);
                kh[p * hd..(p + 1) * hd].copy_from_slice(&k.data()[row..row + hd]);
                vh[p * hd..(p + 1) * hd].copy_from_slice(&v.data()[row..row + hd]);
            }
            // scores = Q·Kᵀ, reading K transposed in place.
            let spec = gemm::GemmSpec {
                m: t,
                k: hd,
                n: t,
                layout: gemm::BLayout::Transposed,
                skip_zero_a: false,
                bias: gemm::Bias::None,
            };
            gemm::gemm(&qh, &kh, &mut scores, &spec, path);
            for row in scores.chunks_mut(t) {
                softmax_row(row, scale);
            }
            // ctx = softmax(scores)·V. The row-major reference kernel
            // accumulates into the output buffer (callers normally pass
            // a fresh zeroed tensor), so the reused per-head buffer must
            // be cleared — without this, heads after the first sum onto
            // the previous head's context on the reference path while
            // the blocked path's register tiles overwrite, breaking the
            // cross-kernel bit-identity contract.
            ctx.fill(0.0);
            let spec = gemm::GemmSpec {
                m: t,
                k: t,
                n: hd,
                layout: gemm::BLayout::RowMajor,
                skip_zero_a: false,
                bias: gemm::Bias::None,
            };
            gemm::gemm(&scores, &vh, &mut ctx, &spec, path);
            for p in 0..t {
                let row = (b * t + p) * d + off;
                out[row..row + hd].copy_from_slice(&ctx[p * hd..(p + 1) * hd]);
            }
        }
    }
    Ok(Tensor::from_vec(out, q.dims())?)
}

/// Numerically stable softmax of one pre-scaled score row. NaN scores
/// propagate (a faulted attention row stays observable as a DUE
/// precursor rather than being masked).
fn softmax_row(row: &mut [f32], scale: f32) {
    for v in row.iter_mut() {
        *v *= scale;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

fn mean_tokens(x: &Tensor) -> Result<Tensor, NnError> {
    if x.rank() != 3 {
        return Err(NnError::BadInput {
            layer: "mean_tokens".into(),
            reason: format!("expected rank 3 input, got rank {}", x.rank()),
        });
    }
    let (n, t, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let mut out = vec![0.0f32; n * d];
    let data = x.data();
    for b in 0..n {
        for p in 0..t {
            for i in 0..d {
                out[b * d + i] += data[(b * t + p) * d + i];
            }
        }
    }
    for v in out.iter_mut() {
        *v /= t as f32;
    }
    Ok(Tensor::from_vec(out, &[n, d])?)
}

fn batchnorm_forward(x: &Tensor, bn: &BatchNorm2d) -> Result<Tensor, NnError> {
    if x.rank() != 4 {
        return Err(NnError::BadInput {
            layer: "batchnorm2d".into(),
            reason: format!("expected rank 4 input, got rank {}", x.rank()),
        });
    }
    let c = x.dims()[1];
    if bn.gamma.num_elements() != c {
        return Err(NnError::BadInput {
            layer: "batchnorm2d".into(),
            reason: format!("{} channels but {} gammas", c, bn.gamma.num_elements()),
        });
    }
    let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
    let mut out = vec![0.0f32; x.num_elements()];
    let data = x.data();
    for b in 0..n {
        for ch in 0..c {
            let inv_std = 1.0 / (bn.running_var.data()[ch] + bn.eps).sqrt();
            let g = bn.gamma.data()[ch] * inv_std;
            let off = bn.beta.data()[ch] - bn.running_mean.data()[ch] * g;
            let base = (b * c + ch) * h * w;
            for i in 0..h * w {
                out[base + i] = data[base + i] * g + off;
            }
        }
    }
    Ok(Tensor::from_vec(out, x.dims())?)
}

fn concat_channels(a: &Tensor, b: &Tensor) -> Result<Tensor, NnError> {
    if a.rank() != 4 || b.rank() != 4 {
        return Err(NnError::BadInput {
            layer: "concat".into(),
            reason: "both inputs must be rank 4".into(),
        });
    }
    let (n, ca, h, w) = (a.dims()[0], a.dims()[1], a.dims()[2], a.dims()[3]);
    let cb = b.dims()[1];
    if b.dims()[0] != n || b.dims()[2] != h || b.dims()[3] != w {
        return Err(NnError::BadInput {
            layer: "concat".into(),
            reason: format!("incompatible shapes {:?} vs {:?}", a.dims(), b.dims()),
        });
    }
    let mut out = Vec::with_capacity(a.num_elements() + b.num_elements());
    let plane = h * w;
    for i in 0..n {
        out.extend_from_slice(&a.data()[i * ca * plane..(i + 1) * ca * plane]);
        out.extend_from_slice(&b.data()[i * cb * plane..(i + 1) * cb * plane]);
    }
    Ok(Tensor::from_vec(out, &[n, ca + cb, h, w])?)
}

fn upsample2x(x: &Tensor) -> Result<Tensor, NnError> {
    if x.rank() != 4 {
        return Err(NnError::BadInput {
            layer: "upsample2x".into(),
            reason: format!("expected rank 4 input, got rank {}", x.rank()),
        });
    }
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let mut out = vec![0.0f32; n * c * 4 * h * w];
    let data = x.data();
    for b in 0..n {
        for ch in 0..c {
            for y in 0..h {
                for xx in 0..w {
                    let v = data[((b * c + ch) * h + y) * w + xx];
                    for dy in 0..2 {
                        for dx in 0..2 {
                            out[((b * c + ch) * 2 * h + 2 * y + dy) * 2 * w + 2 * xx + dx] = v;
                        }
                    }
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, c, 2 * h, 2 * w])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_rng::Rng;

    #[test]
    fn layer_kinds_and_injectability() {
        let lin = Layer::Linear(Linear { weight: Tensor::zeros(&[2, 2]), bias: None });
        assert_eq!(lin.kind(), LayerKind::Linear);
        assert!(lin.kind().is_injectable());
        assert!(!Layer::Relu.kind().is_injectable());
        assert_eq!(LayerKind::Conv2d.to_string(), "conv2d");
    }

    #[test]
    fn relu_and_leaky_relu() {
        let x = Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[1, 3]).unwrap();
        let r = Layer::Relu.forward(&[&x]).unwrap();
        assert_eq!(r.data(), &[0.0, 0.0, 3.0]);
        let l = Layer::LeakyRelu(0.1).forward(&[&x]).unwrap();
        assert_eq!(l.data(), &[-0.2, 0.0, 3.0]);
    }

    #[test]
    fn sigmoid_maps_to_unit_interval() {
        let x = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]).unwrap();
        let s = Layer::Sigmoid.forward(&[&x]).unwrap();
        assert!(s.data()[0] < 1e-6);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn linear_matches_hand_computation() {
        let l = Linear {
            weight: Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
            bias: Some(Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap()),
        };
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = Layer::Linear(l).forward(&[&x]).unwrap();
        assert_eq!(y.data(), &[13.0, 27.0]);
    }

    #[test]
    fn linear_rejects_bad_input() {
        let l = Layer::Linear(Linear { weight: Tensor::zeros(&[2, 3]), bias: None });
        assert!(l.forward(&[&Tensor::zeros(&[1, 4])]).is_err());
        assert!(l.forward(&[&Tensor::zeros(&[4])]).is_err());
    }

    #[test]
    fn batchnorm_identity_passes_through() {
        let mut rng = Rng::from_seed(1);
        let x = Tensor::rand_normal(&mut rng, &[2, 3, 4, 4], 0.0, 1.0);
        let bn = Layer::BatchNorm2d(BatchNorm2d::identity(3));
        let y = bn.forward(&[&x]).unwrap();
        assert!(x.max_abs_diff(&y).unwrap() < 1e-4);
    }

    #[test]
    fn batchnorm_normalizes_known_stats() {
        let mut bn = BatchNorm2d::identity(1);
        bn.running_mean = Tensor::from_vec(vec![2.0], &[1]).unwrap();
        bn.running_var = Tensor::from_vec(vec![4.0], &[1]).unwrap();
        let x = Tensor::full(&[1, 1, 1, 2], 4.0);
        let y = Layer::BatchNorm2d(bn).forward(&[&x]).unwrap();
        // (4-2)/sqrt(4+eps) ~= 1.0
        assert!((y.data()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn flatten_collapses_trailing_dims() {
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = Layer::Flatten.forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[2, 60]);
    }

    #[test]
    fn add_requires_same_shape() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[2, 2]);
        let y = Layer::Add.forward(&[&a, &b]).unwrap();
        assert!(y.data().iter().all(|&v| v == 2.0));
        let c = Tensor::ones(&[3]);
        assert!(Layer::Add.forward(&[&a, &c]).is_err());
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::full(&[1, 1, 2, 2], 1.0);
        let b = Tensor::full(&[1, 2, 2, 2], 2.0);
        let y = Layer::ConcatChannels.forward(&[&a, &b]).unwrap();
        assert_eq!(y.dims(), &[1, 3, 2, 2]);
        assert_eq!(y.get(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.get(&[0, 1, 0, 0]), 2.0);
        assert_eq!(y.get(&[0, 2, 1, 1]), 2.0);
    }

    #[test]
    fn upsample_doubles_spatial_dims() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = Layer::Upsample2x.forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        assert_eq!(y.get(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.get(&[0, 0, 0, 1]), 1.0);
        assert_eq!(y.get(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.get(&[0, 0, 3, 3]), 4.0);
    }

    #[test]
    fn weight_accessors_cover_injectable_layers() {
        let mut conv = Layer::Conv2d(Conv2d {
            weight: Tensor::zeros(&[1, 1, 1, 1]),
            bias: None,
            cfg: ConvConfig::default(),
        });
        assert!(conv.weight().is_some());
        conv.weight_mut().unwrap().set(&[0, 0, 0, 0], 5.0);
        assert_eq!(conv.weight().unwrap().get(&[0, 0, 0, 0]), 5.0);
        assert!(Layer::Relu.weight().is_none());
    }

    #[test]
    fn arity_is_two_only_for_binary_ops() {
        assert_eq!(Layer::Add.arity(), 2);
        assert_eq!(Layer::ConcatChannels.arity(), 2);
        assert_eq!(Layer::Relu.arity(), 1);
    }

    #[test]
    fn linear_applies_per_token_on_rank3_input() {
        let l = Linear {
            weight: Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
            bias: Some(Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap()),
        };
        // [1, 2 tokens, 2 features]
        let x = Tensor::from_vec(vec![1.0, 1.0, 0.0, 1.0], &[1, 2, 2]).unwrap();
        let y = Layer::Linear(l.clone()).forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(&y.data()[..2], &[13.0, 27.0]); // token 0 == rank-2 case
        assert_eq!(&y.data()[2..], &[12.0, 24.0]);
        // token rows match the folded rank-2 computation exactly
        let folded = x.reshape(&[2, 2]).unwrap();
        let y2 = Layer::Linear(l).forward(&[&folded]).unwrap();
        assert_eq!(y.data(), y2.data());
    }

    #[test]
    fn layernorm_normalizes_each_token_row() {
        let ln = LayerNorm::identity(2);
        let x = Tensor::from_vec(vec![1.0, 3.0, -5.0, 5.0], &[1, 2, 2]).unwrap();
        let y = Layer::LayerNorm(ln).forward(&[&x]).unwrap();
        // each row normalized to zero mean / unit variance
        for row in y.data().chunks(2) {
            assert!((row[0] + row[1]).abs() < 1e-4);
            assert!((row[1] - 1.0).abs() < 1e-2);
        }
        let bad = LayerNorm::identity(3);
        assert!(Layer::LayerNorm(bad).forward(&[&x]).is_err());
    }

    /// GELU gives the libm expression's bits on both kernel paths, NaN
    /// payloads included, over a sweep with a ragged AVX2 tail.
    #[test]
    fn gelu_matches_reference_points() {
        let points = [0.0, -0.0, 1.0, -1.0, 10.0];
        let mut v: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        v.extend(points);
        v.extend([f32::INFINITY, f32::NEG_INFINITY, f32::from_bits(0xffa5_a5a5), f32::from_bits(0x7f80_0001)]);
        let x = Tensor::from_vec(v.clone(), &[v.len()]).unwrap();
        let want: Vec<u32> = v.iter().map(|&v| elementwise::gelu_libm(v).to_bits()).collect();
        let prev = gemm::kernel_override();
        for path in [gemm::KernelPath::Reference, gemm::KernelPath::Blocked] {
            gemm::set_kernel_override(Some(path));
            let y = Layer::Gelu.forward(&[&x]).unwrap();
            assert_eq!(y.dims(), x.dims());
            assert!(y.data().iter().map(|v| v.to_bits()).eq(want.iter().copied()), "{path}");
        }
        gemm::set_kernel_override(prev);
        // 0 at ±0, Φ(v)·v near ±1, the identity for large v.
        let at = |p: f32| elementwise::gelu_libm(p).to_bits();
        assert_eq!(points.map(at), [0, 0x8000_0000, 0x3f57_585c, 0xbe22_9e90, 10.0f32.to_bits()]);
    }

    #[test]
    fn image_to_tokens_transposes_channels_last() {
        // [1, 2ch, 1, 2] -> [1, 2 tokens, 2 features]
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]).unwrap();
        let y = Layer::ImageToTokens.forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn pos_embed_broadcasts_over_batch() {
        let pe = Tensor::from_vec(vec![10.0, 20.0], &[1, 2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 2]).unwrap();
        let y = Layer::PosEmbed(pe).forward(&[&x]).unwrap();
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn attention_uniform_scores_average_values() {
        // q == k == 0 → uniform attention → each token gets the value
        // mean.
        let q = Tensor::zeros(&[1, 2, 2]);
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let y = Layer::Attention { heads: 1 }.forward(&[&q, &q, &v]).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2]);
        for row in y.data().chunks(2) {
            assert!((row[0] - 2.0).abs() < 1e-5);
            assert!((row[1] - 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_peaked_scores_select_one_value() {
        let k = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[1, 2, 2]).unwrap();
        let v = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[1, 2, 2]).unwrap();
        // mismatched q/k/v shapes are rejected
        let short = Tensor::from_vec(vec![100.0, 0.0], &[1, 1, 2]).unwrap();
        assert!(Layer::Attention { heads: 1 }.forward(&[&short, &k, &v]).is_err());
        // both queries align strongly with key 0 → both select value row 0
        let q = Tensor::from_vec(vec![100.0, 0.0, 100.0, 0.0], &[1, 2, 2]).unwrap();
        let y = Layer::Attention { heads: 1 }.forward(&[&q, &k, &v]).unwrap();
        for row in y.data().chunks(2) {
            assert!((row[0] - 5.0).abs() < 1e-3);
            assert!((row[1] - 6.0).abs() < 1e-3);
        }
    }

    #[test]
    fn attention_validates_heads() {
        let x = Tensor::zeros(&[1, 2, 3]);
        assert!(Layer::Attention { heads: 2 }.forward(&[&x, &x, &x]).is_err());
        assert!(Layer::Attention { heads: 0 }.forward(&[&x, &x, &x]).is_err());
        assert_eq!(Layer::Attention { heads: 2 }.arity(), 3);
    }

    #[test]
    fn mean_tokens_pools_the_token_axis() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let y = Layer::MeanTokens.forward(&[&x]).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[2.0, 3.0]);
        assert!(Layer::MeanTokens.forward(&[&Tensor::zeros(&[2, 2])]).is_err());
    }

    #[test]
    fn transformer_layers_are_not_injectable() {
        for l in [
            Layer::LayerNorm(LayerNorm::identity(2)),
            Layer::Gelu,
            Layer::ImageToTokens,
            Layer::PosEmbed(Tensor::zeros(&[1, 2])),
            Layer::Attention { heads: 1 },
            Layer::MeanTokens,
        ] {
            assert_eq!(l.kind(), LayerKind::Other);
            assert!(l.weight().is_none());
        }
    }

    #[test]
    fn identity_is_identity() {
        let x = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        assert_eq!(Layer::Identity.forward(&[&x]).unwrap(), x);
    }

    #[test]
    fn ranger_clips_to_bounds() {
        let x = Tensor::from_vec(vec![-5.0, 0.5, 99.0, f32::NAN, f32::INFINITY], &[5]).unwrap();
        let l = Layer::RangeRestrict { lo: -1.0, hi: 2.0, mode: RestrictMode::Clip };
        let y = l.forward(&[&x]).unwrap();
        assert_eq!(y.data(), &[-1.0, 0.5, 2.0, -1.0, 2.0]);
    }

    #[test]
    fn clipper_zeroes_out_of_range() {
        let x = Tensor::from_vec(vec![-5.0, 0.5, 99.0, f32::NAN, f32::NEG_INFINITY], &[5]).unwrap();
        let l = Layer::RangeRestrict { lo: -1.0, hi: 2.0, mode: RestrictMode::Zero };
        let y = l.forward(&[&x]).unwrap();
        assert_eq!(y.data(), &[0.0, 0.5, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn range_restrict_is_not_injectable() {
        let l = Layer::RangeRestrict { lo: 0.0, hi: 1.0, mode: RestrictMode::Clip };
        assert_eq!(l.kind(), LayerKind::Other);
        assert!(l.weight().is_none());
    }

    #[test]
    fn in_range_values_pass_unchanged() {
        let x = Tensor::from_vec(vec![0.1, 0.9], &[2]).unwrap();
        for mode in [RestrictMode::Clip, RestrictMode::Zero] {
            let l = Layer::RangeRestrict { lo: 0.0, hi: 1.0, mode };
            assert_eq!(l.forward(&[&x]).unwrap(), x);
        }
    }
}
