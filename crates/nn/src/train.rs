//! Backpropagation and SGD training.
//!
//! The paper's campaigns run on *trained* models (torchvision
//! checkpoints). Since no checkpoints are available offline, this module
//! implements reverse-mode differentiation over [`Network`] graphs and a
//! momentum-SGD trainer, so the model zoo can be trained on the
//! synthetic datasets before fault injection — giving SDE metrics on
//! models that are actually accurate, exactly as in the paper.
//!
//! Supported in the backward pass: Conv2d, Linear, ReLU/LeakyReLU,
//! Sigmoid, BatchNorm2d (frozen statistics — treated as a fixed affine
//! map), Max/Avg/AdaptiveAvg pooling, Flatten, Add, ConcatChannels,
//! Upsample2x and Identity. Conv3d, custom layers and nodes carrying a
//! Ranger/Clipper guard ([`Network::set_guard`]) are inference-only and
//! report [`NnError::BadInput`] when reached by gradients.

use crate::error::NnError;
use crate::graph::Network;
use crate::layer::Layer;
use alfi_tensor::conv::ConvConfig;
use alfi_tensor::Tensor;
use std::collections::BTreeMap;

/// Parameter gradients of one layer.
#[derive(Debug, Clone)]
pub struct ParamGrads {
    /// Gradient w.r.t. the weight tensor (same shape).
    pub weight: Tensor,
    /// Gradient w.r.t. the bias, when the layer has one.
    pub bias: Option<Tensor>,
}

/// Result of a backward pass.
#[derive(Debug, Clone)]
pub struct BackwardResult {
    /// Per-node parameter gradients (only nodes with parameters appear).
    pub param_grads: BTreeMap<usize, ParamGrads>,
    /// Gradient w.r.t. the network input.
    pub input_grad: Tensor,
}

/// Numerically stable softmax cross-entropy over logits `[n, c]`.
///
/// Returns the mean loss and the gradient w.r.t. the logits
/// (`(softmax - onehot) / n`).
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for rank ≠ 2 logits or out-of-range
/// labels.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor), NnError> {
    if logits.rank() != 2 {
        return Err(NnError::BadInput {
            layer: "softmax_cross_entropy".into(),
            reason: format!("expected rank-2 logits, got rank {}", logits.rank()),
        });
    }
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != n {
        return Err(NnError::BadInput {
            layer: "softmax_cross_entropy".into(),
            reason: format!("{n} logits rows but {} labels", labels.len()),
        });
    }
    let probs = logits.softmax_lastdim()?;
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        if label >= c {
            return Err(NnError::BadInput {
                layer: "softmax_cross_entropy".into(),
                reason: format!("label {label} out of range for {c} classes"),
            });
        }
        let p = probs.get(&[i, label]).max(1e-12);
        loss -= p.ln();
        let g = grad.get(&[i, label]);
        grad.set(&[i, label], g - 1.0);
    }
    let scale = 1.0 / n as f32;
    Ok((loss * scale, grad.scale(scale)))
}

/// Runs a full backward pass through the network for one input batch.
///
/// `grad_output` is the loss gradient w.r.t. the network output (e.g.
/// from [`softmax_cross_entropy`]).
///
/// # Errors
///
/// Returns [`NnError`] for unsupported layers (Conv3d, custom), guarded
/// nodes or shape mismatches.
pub fn backward(
    net: &Network,
    input: &Tensor,
    grad_output: &Tensor,
) -> Result<BackwardResult, NnError> {
    let out_node = net
        .output_node()
        .ok_or_else(|| NnError::InvalidGraph("network has no output node".into()))?;
    let acts = net.forward_all(input)?;
    let mut grads: Vec<Option<Tensor>> = vec![None; net.num_nodes()];
    grads[out_node] = Some(grad_output.clone());
    let mut input_grad: Option<Tensor> = None;
    let mut param_grads = BTreeMap::new();

    for id in (0..net.num_nodes()).rev() {
        let Some(gout) = grads[id].take() else { continue };
        let node = &net.nodes()[id];
        if net.guard(id).is_some() {
            return Err(NnError::BadInput {
                layer: node.name.clone(),
                reason: "a guarded node is inference-only".into(),
            });
        }
        let inputs: Vec<&Tensor> = if node.inputs.is_empty() {
            vec![input]
        } else {
            node.inputs.iter().map(|&i| &acts[i]).collect()
        };
        let (gins, pgrads) = layer_backward(&node.layer, &inputs, &acts[id], &gout)?;
        if let Some(pg) = pgrads {
            param_grads.insert(id, pg);
        }
        for (slot, gin) in gins.into_iter().enumerate() {
            if node.inputs.is_empty() {
                accumulate(&mut input_grad, gin)?;
            } else {
                let src = node.inputs[slot];
                let mut cell = grads[src].take();
                accumulate(&mut cell, gin)?;
                grads[src] = cell;
            }
        }
    }
    Ok(BackwardResult {
        param_grads,
        input_grad: input_grad.unwrap_or_else(|| Tensor::zeros(input.dims())),
    })
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) -> Result<(), NnError> {
    match slot {
        Some(existing) => {
            *existing = existing.add(&g)?;
        }
        None => *slot = Some(g),
    }
    Ok(())
}

/// Backward rule for a single layer: returns gradients w.r.t. each input
/// plus parameter gradients.
fn layer_backward(
    layer: &Layer,
    inputs: &[&Tensor],
    output: &Tensor,
    gout: &Tensor,
) -> Result<(Vec<Tensor>, Option<ParamGrads>), NnError> {
    let x = inputs[0];
    match layer {
        Layer::Linear(l) => {
            let (n, in_f) = (x.dims()[0], l.weight.dims()[1]);
            let out_f = l.weight.dims()[0];
            // gin = gout [n,out] · W [out,in]
            let gin = gout.matmul(&l.weight)?;
            // gW = gout^T [out,n] · x [n,in]
            let mut gw = vec![0.0f32; out_f * in_f];
            for i in 0..n {
                for o in 0..out_f {
                    let go = gout.get(&[i, o]);
                    if go == 0.0 {
                        continue;
                    }
                    for k in 0..in_f {
                        gw[o * in_f + k] += go * x.get(&[i, k]);
                    }
                }
            }
            let gbias = l.bias.as_ref().map(|_| {
                let mut gb = vec![0.0f32; out_f];
                for i in 0..n {
                    for (o, g) in gb.iter_mut().enumerate() {
                        *g += gout.get(&[i, o]);
                    }
                }
                Tensor::from_vec(gb, &[out_f]).expect("bias dims")
            });
            Ok((
                vec![gin],
                Some(ParamGrads {
                    weight: Tensor::from_vec(gw, &[out_f, in_f])?,
                    bias: gbias,
                }),
            ))
        }
        Layer::Conv2d(c) => conv2d_backward(x, c, gout),
        Layer::Relu => Ok((vec![gout.zip(x, |g, v| if v > 0.0 { g } else { 0.0 })?], None)),
        Layer::LeakyRelu(slope) => {
            let s = *slope;
            Ok((vec![gout.zip(x, move |g, v| if v >= 0.0 { g } else { g * s })?], None))
        }
        Layer::Sigmoid => {
            // output = s(x): g * s * (1 - s)
            Ok((vec![gout.zip(output, |g, s| g * s * (1.0 - s))?], None))
        }
        Layer::BatchNorm2d(bn) => {
            // frozen statistics: y = x * gamma/sqrt(var+eps) + const
            let (n, ch, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
            let mut gin = vec![0.0f32; gout.num_elements()];
            for b in 0..n {
                for cc in 0..ch {
                    let scale = bn.gamma.data()[cc] / (bn.running_var.data()[cc] + bn.eps).sqrt();
                    let base = (b * ch + cc) * h * w;
                    for i in 0..h * w {
                        gin[base + i] = gout.data()[base + i] * scale;
                    }
                }
            }
            Ok((vec![Tensor::from_vec(gin, x.dims())?], None))
        }
        Layer::MaxPool2d { k, cfg } => Ok((vec![max_pool_backward(x, *k, *cfg, gout)?], None)),
        Layer::AvgPool2d { k, cfg } => Ok((vec![avg_pool_backward(x, *k, *cfg, gout)?], None)),
        Layer::AdaptiveAvgPool2d(out_hw) => {
            Ok((vec![adaptive_avg_backward(x, *out_hw, gout)?], None))
        }
        Layer::Flatten => Ok((vec![gout.reshape(x.dims())?], None)),
        Layer::Add => Ok((vec![gout.clone(), gout.clone()], None)),
        Layer::ConcatChannels => {
            let (n, ca, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
            let cb = inputs[1].dims()[1];
            let plane = h * w;
            let mut ga = vec![0.0f32; n * ca * plane];
            let mut gb = vec![0.0f32; n * cb * plane];
            let gd = gout.data();
            for i in 0..n {
                let src = i * (ca + cb) * plane;
                ga[i * ca * plane..(i + 1) * ca * plane]
                    .copy_from_slice(&gd[src..src + ca * plane]);
                gb[i * cb * plane..(i + 1) * cb * plane]
                    .copy_from_slice(&gd[src + ca * plane..src + (ca + cb) * plane]);
            }
            Ok((
                vec![
                    Tensor::from_vec(ga, &[n, ca, h, w])?,
                    Tensor::from_vec(gb, &[n, cb, h, w])?,
                ],
                None,
            ))
        }
        Layer::Upsample2x => {
            let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
            let mut gin = vec![0.0f32; x.num_elements()];
            let gd = gout.data();
            for b in 0..n {
                for cc in 0..c {
                    for y in 0..2 * h {
                        for xx in 0..2 * w {
                            gin[((b * c + cc) * h + y / 2) * w + xx / 2] +=
                                gd[((b * c + cc) * 2 * h + y) * 2 * w + xx];
                        }
                    }
                }
            }
            Ok((vec![Tensor::from_vec(gin, x.dims())?], None))
        }
        Layer::Identity => Ok((vec![gout.clone()], None)),
        Layer::Conv3d(_)
        | Layer::Custom(_)
        | Layer::LayerNorm(_)
        | Layer::Gelu
        | Layer::ImageToTokens
        | Layer::PosEmbed(_)
        | Layer::Attention { .. }
        | Layer::MeanTokens => Err(NnError::BadInput {
            layer: "backward".into(),
            reason: "conv3d, custom and transformer layers are inference-only".into(),
        }),
    }
}

fn conv2d_backward(
    x: &Tensor,
    c: &crate::layer::Conv2d,
    gout: &Tensor,
) -> Result<(Vec<Tensor>, Option<ParamGrads>), NnError> {
    let (n, c_in, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (c_out, _, kh, kw) =
        (c.weight.dims()[0], c.weight.dims()[1], c.weight.dims()[2], c.weight.dims()[3]);
    let (h_out, w_out) = (gout.dims()[2], gout.dims()[3]);
    let cfg = c.cfg;
    let pad = cfg.padding as isize;
    let mut gw = vec![0.0f32; c.weight.num_elements()];
    let mut gin = vec![0.0f32; x.num_elements()];
    let wd = c.weight.data();
    let xd = x.data();
    let gd = gout.data();

    for b in 0..n {
        for oc in 0..c_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let go = gd[((b * c_out + oc) * h_out + oy) * w_out + ox];
                    if go == 0.0 {
                        continue;
                    }
                    for ic in 0..c_in {
                        for ky in 0..kh {
                            let iy = (oy * cfg.stride + ky) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * cfg.stride + kx) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * c_in + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * c_in + ic) * kh + ky) * kw + kx;
                                gw[wi] += go * xd[xi];
                                gin[xi] += go * wd[wi];
                            }
                        }
                    }
                }
            }
        }
    }
    let gbias = c.bias.as_ref().map(|_| {
        let mut gb = vec![0.0f32; c_out];
        for b in 0..n {
            for oc in 0..c_out {
                for i in 0..h_out * w_out {
                    gb[oc] += gd[(b * c_out + oc) * h_out * w_out + i];
                }
            }
        }
        Tensor::from_vec(gb, &[c_out]).expect("bias dims")
    });
    Ok((
        vec![Tensor::from_vec(gin, x.dims())?],
        Some(ParamGrads { weight: Tensor::from_vec(gw, c.weight.dims())?, bias: gbias }),
    ))
}

fn max_pool_backward(
    x: &Tensor,
    k: usize,
    cfg: ConvConfig,
    gout: &Tensor,
) -> Result<Tensor, NnError> {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (h_out, w_out) = (gout.dims()[2], gout.dims()[3]);
    let pad = cfg.padding as isize;
    let mut gin = vec![0.0f32; x.num_elements()];
    let xd = x.data();
    for b in 0..n {
        for cc in 0..c {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    // find the argmax of the window, route the gradient
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = None;
                    for ky in 0..k {
                        let iy = (oy * cfg.stride + ky) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * cfg.stride + kx) as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = ((b * c + cc) * h + iy as usize) * w + ix as usize;
                            if xd[idx] > best {
                                best = xd[idx];
                                best_idx = Some(idx);
                            }
                        }
                    }
                    if let Some(idx) = best_idx {
                        gin[idx] += gout.get(&[b, cc, oy, ox]);
                    }
                }
            }
        }
    }
    Ok(Tensor::from_vec(gin, x.dims())?)
}

fn avg_pool_backward(
    x: &Tensor,
    k: usize,
    cfg: ConvConfig,
    gout: &Tensor,
) -> Result<Tensor, NnError> {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (h_out, w_out) = (gout.dims()[2], gout.dims()[3]);
    let pad = cfg.padding as isize;
    let mut gin = vec![0.0f32; x.num_elements()];
    for b in 0..n {
        for cc in 0..c {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    // count in-bounds cells (count_include_pad = false)
                    let mut cells = Vec::new();
                    for ky in 0..k {
                        let iy = (oy * cfg.stride + ky) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * cfg.stride + kx) as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            cells.push(((b * c + cc) * h + iy as usize) * w + ix as usize);
                        }
                    }
                    if cells.is_empty() {
                        continue;
                    }
                    let g = gout.get(&[b, cc, oy, ox]) / cells.len() as f32;
                    for idx in cells {
                        gin[idx] += g;
                    }
                }
            }
        }
    }
    Ok(Tensor::from_vec(gin, x.dims())?)
}

fn adaptive_avg_backward(x: &Tensor, out_hw: usize, gout: &Tensor) -> Result<Tensor, NnError> {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let mut gin = vec![0.0f32; x.num_elements()];
    for b in 0..n {
        for cc in 0..c {
            for oy in 0..out_hw {
                let y0 = oy * h / out_hw;
                let y1 = ((oy + 1) * h).div_ceil(out_hw).min(h).max(y0 + 1);
                for ox in 0..out_hw {
                    let x0 = ox * w / out_hw;
                    let x1 = ((ox + 1) * w).div_ceil(out_hw).min(w).max(x0 + 1);
                    let count = ((y1 - y0) * (x1 - x0)) as f32;
                    let g = gout.get(&[b, cc, oy, ox]) / count;
                    for iy in y0..y1 {
                        for ix in x0..x1 {
                            gin[((b * c + cc) * h + iy) * w + ix] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(Tensor::from_vec(gin, x.dims())?)
}

/// Momentum-SGD trainer over a network's injectable-layer parameters.
#[derive(Debug)]
pub struct SgdTrainer {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0.0 = plain SGD).
    pub momentum: f32,
    velocity: BTreeMap<usize, (Tensor, Option<Tensor>)>,
}

impl SgdTrainer {
    /// Creates a trainer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        SgdTrainer { lr, momentum, velocity: BTreeMap::new() }
    }

    /// Applies one optimizer step with the given parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] for gradient/parameter shape mismatches.
    pub fn step(
        &mut self,
        net: &mut Network,
        grads: &BTreeMap<usize, ParamGrads>,
    ) -> Result<(), NnError> {
        for (&node_id, pg) in grads {
            let lr = self.lr;
            let mom = self.momentum;
            let entry = self.velocity.entry(node_id).or_insert_with(|| {
                (
                    Tensor::zeros(pg.weight.dims()),
                    pg.bias.as_ref().map(|b| Tensor::zeros(b.dims())),
                )
            });
            entry.0 = entry.0.scale(mom).add(&pg.weight)?;
            let wv = entry.0.clone();
            let bv = match (&mut entry.1, &pg.bias) {
                (Some(v), Some(gb)) => {
                    *v = v.scale(mom).add(gb)?;
                    Some(v.clone())
                }
                _ => None,
            };
            let layer = net.layer_mut(node_id)?;
            if let Some(wt) = layer.weight_mut() {
                *wt = wt.sub(&wv.scale(lr))?;
            }
            // bias update (Conv2d/Linear only)
            match layer {
                Layer::Conv2d(c) => {
                    if let (Some(b), Some(bv)) = (&mut c.bias, &bv) {
                        *b = b.sub(&bv.scale(lr))?;
                    }
                }
                Layer::Linear(l) => {
                    if let (Some(b), Some(bv)) = (&mut l.bias, &bv) {
                        *b = b.sub(&bv.scale(lr))?;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// One training step: forward, loss, backward, SGD update. Returns the
/// batch loss.
///
/// # Errors
///
/// Propagates forward/backward errors.
pub fn train_step(
    net: &mut Network,
    trainer: &mut SgdTrainer,
    images: &Tensor,
    labels: &[usize],
) -> Result<f32, NnError> {
    let logits = net.forward(images)?;
    let (loss, grad) = softmax_cross_entropy(&logits, labels)?;
    let result = backward(net, images, &grad)?;
    trainer.step(net, &result.param_grads)?;
    Ok(loss)
}

/// Top-1 accuracy of a network over labelled batches.
///
/// # Errors
///
/// Propagates forward errors.
pub fn accuracy(net: &Network, images: &Tensor, labels: &[usize]) -> Result<f64, NnError> {
    let logits = net.forward(images)?;
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.batch_item(i)?;
        if row.argmax() == Some(label) {
            correct += 1;
        }
    }
    Ok(correct as f64 / labels.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{BatchNorm2d, Conv2d, Linear};
    use crate::models::NetBuilder;
    use alfi_tensor::conv::ConvConfig;
    use alfi_rng::Rng;

    /// Numerically checks d(loss)/d(param) for every weight element of a
    /// network against the analytic gradient, with loss = sum(output *
    /// probe) for a fixed probe tensor.
    fn finite_diff_check(net: &mut Network, input: &Tensor, tol: f32) {
        let out = net.forward(input).unwrap();
        let mut rng = Rng::from_seed(17);
        let probe = Tensor::rand_uniform(&mut rng, out.dims(), -1.0, 1.0);
        let analytic = backward(net, input, &probe).unwrap();

        let eps = 1e-3f32;
        let loss_of = |n: &Network| -> f32 {
            n.forward(input).unwrap().mul(&probe).unwrap().sum()
        };
        // check a sample of weight coordinates per parameterized node
        for (&node_id, pg) in &analytic.param_grads {
            let total = pg.weight.num_elements();
            let step = (total / 7).max(1);
            for flat in (0..total).step_by(step) {
                let coords = pg.weight.shape().multi_index(flat).unwrap();
                let orig = net.layer(node_id).unwrap().weight().unwrap().get(&coords);
                net.layer_mut(node_id).unwrap().weight_mut().unwrap().set(&coords, orig + eps);
                let up = loss_of(net);
                net.layer_mut(node_id).unwrap().weight_mut().unwrap().set(&coords, orig - eps);
                let down = loss_of(net);
                net.layer_mut(node_id).unwrap().weight_mut().unwrap().set(&coords, orig);
                let numeric = (up - down) / (2.0 * eps);
                let a = pg.weight.get(&coords);
                assert!(
                    (numeric - a).abs() <= tol * (1.0 + numeric.abs().max(a.abs())),
                    "node {node_id} coord {coords:?}: numeric {numeric} vs analytic {a}"
                );
            }
        }
        // input gradient spot check
        let ig = &analytic.input_grad;
        let total = input.num_elements();
        for flat in (0..total).step_by((total / 5).max(1)) {
            let coords = input.shape().multi_index(flat).unwrap();
            let orig = input.get(&coords);
            let mut xp = input.clone();
            xp.set(&coords, orig + eps);
            let up = net.forward(&xp).unwrap().mul(&probe).unwrap().sum();
            xp.set(&coords, orig - eps);
            let down = net.forward(&xp).unwrap().mul(&probe).unwrap().sum();
            let numeric = (up - down) / (2.0 * eps);
            let a = ig.get(&coords);
            assert!(
                (numeric - a).abs() <= tol * (1.0 + numeric.abs().max(a.abs())),
                "input coord {coords:?}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    fn rand_input(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::from_seed(seed);
        Tensor::rand_uniform(&mut rng, dims, -1.0, 1.0)
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut b = NetBuilder::new("lin", 3, 0);
        b.linear("fc1", 6, 5);
        b.relu("r");
        b.linear("fc2", 5, 3);
        let mut net = b.finish();
        finite_diff_check(&mut net, &rand_input(&[2, 6], 1), 2e-2);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut b = NetBuilder::new("conv", 5, 2);
        b.conv("c1", 3, 3, 1, 1);
        b.relu("r1");
        b.conv("c2", 2, 3, 2, 1);
        let mut net = b.finish();
        finite_diff_check(&mut net, &rand_input(&[1, 2, 6, 6], 2), 2e-2);
    }

    #[test]
    fn pooling_and_bn_gradients_match_finite_differences() {
        let mut b = NetBuilder::new("pool", 7, 2);
        b.conv("c1", 3, 3, 1, 1);
        b.batchnorm("bn");
        b.relu("r");
        b.maxpool("mp", 2, 2, 0);
        b.adaptive_avgpool("ap", 2);
        let flat = b.flat_features(&[1, 2, 8, 8]);
        b.flatten("fl");
        b.linear("fc", flat, 4);
        let mut net = b.finish();
        finite_diff_check(&mut net, &rand_input(&[1, 2, 8, 8], 3), 3e-2);
    }

    #[test]
    fn residual_add_gradients_match_finite_differences() {
        // y = relu(conv(x)) + x  (same channel count, 1x1 conv)
        let mut net = Network::new("res");
        let mut rng = Rng::from_seed(9);
        let conv = Layer::Conv2d(Conv2d {
            weight: Tensor::rand_uniform(&mut rng, &[2, 2, 1, 1], -0.5, 0.5),
            bias: Some(Tensor::zeros(&[2])),
            cfg: ConvConfig::default(),
        });
        let c = net.push("conv", conv, &[]).unwrap();
        let r = net.push("relu", Layer::Relu, &[c]).unwrap();
        let id = net.push("id", Layer::Identity, &[]).unwrap();
        let s = net.push("add", Layer::Add, &[r, id]).unwrap();
        net.set_output(s).unwrap();
        finite_diff_check(&mut net, &rand_input(&[1, 2, 4, 4], 4), 2e-2);
    }

    #[test]
    fn concat_and_sigmoid_gradients_match_finite_differences() {
        let mut net = Network::new("cat");
        let mut rng = Rng::from_seed(11);
        let conv = Layer::Conv2d(Conv2d {
            weight: Tensor::rand_uniform(&mut rng, &[2, 2, 3, 3], -0.5, 0.5),
            bias: Some(Tensor::zeros(&[2])),
            cfg: ConvConfig { stride: 1, padding: 1, dilation: 1 },
        });
        let c = net.push("conv", conv, &[]).unwrap();
        let sg = net.push("sig", Layer::Sigmoid, &[c]).unwrap();
        let id = net.push("id", Layer::Identity, &[]).unwrap();
        let cat = net.push("cat", Layer::ConcatChannels, &[sg, id]).unwrap();
        net.set_output(cat).unwrap();
        finite_diff_check(&mut net, &rand_input(&[1, 2, 4, 4], 5), 2e-2);
    }

    #[test]
    fn softmax_cross_entropy_loss_and_grad() {
        // Perfectly confident correct prediction -> ~0 loss, ~0 grad.
        let logits = Tensor::from_vec(vec![20.0, 0.0, 0.0], &[1, 3]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 1e-6);
        assert!(grad.data().iter().all(|g| g.abs() < 1e-6));
        // Uniform logits: loss = ln(c), grad pushes towards the label.
        let logits = Tensor::zeros(&[1, 3]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[1]).unwrap();
        assert!((loss - 3.0f32.ln()).abs() < 1e-5);
        assert!(grad.get(&[0, 1]) < 0.0);
        assert!(grad.get(&[0, 0]) > 0.0);
        // errors
        assert!(softmax_cross_entropy(&logits, &[5]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 1]).is_err());
    }

    #[test]
    fn sgd_reduces_loss_on_a_fixed_batch() {
        let mut b = NetBuilder::new("toy", 21, 0);
        b.linear("fc1", 8, 16);
        b.relu("r");
        b.linear("fc2", 16, 4);
        let mut net = b.finish();
        let images = rand_input(&[8, 8], 6);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let mut trainer = SgdTrainer::new(0.1, 0.9);
        let first = train_step(&mut net, &mut trainer, &images, &labels).unwrap();
        let mut last = first;
        for _ in 0..60 {
            last = train_step(&mut net, &mut trainer, &images, &labels).unwrap();
        }
        assert!(last < first * 0.2, "loss {first} -> {last}");
        assert!(accuracy(&net, &images, &labels).unwrap() > 0.9);
    }

    #[test]
    fn conv3d_and_custom_layers_are_rejected() {
        let mut b = NetBuilder::new("c3", 1, 2);
        b.conv3d("c3d", 2, 3, 1, 1);
        let net = b.finish();
        let x = Tensor::zeros(&[1, 2, 4, 4, 4]);
        let gout = net.forward(&x).unwrap();
        assert!(backward(&net, &x, &gout).is_err());
    }

    #[test]
    fn guarded_nodes_are_rejected() {
        let mut net = Network::new("guarded");
        let a = net.push("relu", Layer::Relu, &[]).unwrap();
        net.set_output(a).unwrap();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        let gout = net.forward(&x).unwrap();
        assert!(backward(&net, &x, &gout).is_ok());
        net.set_guard(a, crate::Clamp { lo: 0.0, hi: 1.0, mode: crate::ClampMode::Clip }).unwrap();
        let err = backward(&net, &x, &gout).unwrap_err();
        assert!(matches!(&err, NnError::BadInput { layer, .. } if layer == "relu"), "{err}");
    }

    #[test]
    fn batchnorm_with_nonidentity_stats_backprops_scaled() {
        let mut bn = BatchNorm2d::identity(1);
        bn.gamma = Tensor::from_vec(vec![3.0], &[1]).unwrap();
        bn.running_var = Tensor::from_vec(vec![8.0], &[1]).unwrap();
        let mut net = Network::new("bn");
        let a = net.push("bn", Layer::BatchNorm2d(bn), &[]).unwrap();
        net.set_output(a).unwrap();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let gout = Tensor::ones(&[1, 1, 2, 2]);
        let r = backward(&net, &x, &gout).unwrap();
        let expect = 3.0 / (8.0f32 + 1e-5).sqrt();
        for &g in r.input_grad.data() {
            assert!((g - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn trainer_bias_updates_change_linear_bias() {
        let mut net = Network::new("b");
        let a = net
            .push(
                "fc",
                Layer::Linear(Linear {
                    weight: Tensor::ones(&[2, 2]),
                    bias: Some(Tensor::zeros(&[2])),
                }),
                &[],
            )
            .unwrap();
        net.set_output(a).unwrap();
        let mut trainer = SgdTrainer::new(0.5, 0.0);
        let x = Tensor::ones(&[1, 2]);
        train_step(&mut net, &mut trainer, &x, &[0]).unwrap();
        let bias = match net.layer(a).unwrap() {
            Layer::Linear(l) => l.bias.clone().unwrap(),
            _ => unreachable!(),
        };
        assert!(bias.data().iter().any(|&b| b != 0.0), "bias must move");
    }

}
