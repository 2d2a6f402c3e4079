//! Two-stage region-proposal detector in the Faster-RCNN style.

use super::geometry::{nms, BBox, Detection};
use super::{
    cap_detections, decode_deltas, output_of, plane, sigmoid, Detector, DetectorConfig, RunNetwork,
};
use crate::error::NnError;
use crate::graph::{Network, NodeId};
use crate::models::NetBuilder;
use alfi_tensor::Tensor;

/// Square anchor side lengths (pixels) used by the RPN.
const RPN_ANCHORS: [f32; 3] = [12.0, 24.0, 48.0];
/// Proposals kept before NMS.
const PRE_NMS_TOP_N: usize = 64;
/// Proposals kept after NMS and fed to the second stage.
const POST_NMS_TOP_N: usize = 16;
/// RoI pooling output side length.
const ROI_POOL: usize = 4;

/// Faster-RCNN-style two-stage detector.
///
/// Stage 1 is a convolutional backbone plus a region-proposal network
/// (RPN) emitting per-anchor objectness and box deltas; proposals are
/// decoded, NMS-filtered and RoI-pooled from the backbone feature map.
/// Stage 2 is a fully-connected head scoring each proposal over
/// `num_classes + 1` classes (last index = background) and refining its
/// box. Both stages are ordinary [`Network`]s, so ALFI can inject faults
/// into either — the paper's fault-location "layer index" space simply
/// spans both networks in order.
#[derive(Debug, Clone)]
pub struct FrcnnTwoStage {
    backbone: Network,
    head: Network,
    cfg: DetectorConfig,
    feat_node: NodeId,
    obj_node: NodeId,
    delta_node: NodeId,
    feat_ch: usize,
    stride: usize,
}

impl FrcnnTwoStage {
    /// Builds the detector.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.input_hw` is not divisible by 8 (backbone stride).
    pub fn new(cfg: &DetectorConfig) -> FrcnnTwoStage {
        assert!(cfg.input_hw.is_multiple_of(8), "input_hw must be divisible by 8");
        let a = RPN_ANCHORS.len();
        let stride = 8usize;

        let mut b = NetBuilder::new("frcnn.backbone", cfg.seed, cfg.in_channels);
        b.conv("backbone.conv1", cfg.ch(32), 3, 2, 1);
        b.batchnorm("backbone.bn1");
        b.relu("backbone.relu1");
        b.conv("backbone.conv2", cfg.ch(64), 3, 2, 1);
        b.batchnorm("backbone.bn2");
        b.relu("backbone.relu2");
        b.conv("backbone.conv3", cfg.ch(128), 3, 2, 1);
        b.batchnorm("backbone.bn3");
        let feat_node = b.relu("backbone.relu3");
        let feat_ch = b.channels;
        // RPN head on the shared feature map.
        b.conv("rpn.conv", cfg.ch(128), 3, 1, 1);
        let rpn_mid = b.relu("rpn.relu");
        let obj_node = b.conv("rpn.objectness", a, 1, 1, 0);
        b.last = Some(rpn_mid);
        b.channels = cfg.ch(128);
        let delta_node = b.conv("rpn.deltas", a * 4, 1, 1, 0);
        let backbone = b.finish();

        // Second-stage head on RoI-pooled features.
        let roi_feat = feat_ch * ROI_POOL * ROI_POOL;
        let mut h = NetBuilder::new("frcnn.head", cfg.seed.wrapping_add(1), 0);
        h.linear("head.fc1", roi_feat, cfg.ch(256));
        h.relu("head.relu1");
        h.linear("head.out", cfg.ch(256), (cfg.num_classes + 1) + 4);
        let head = h.finish();

        FrcnnTwoStage {
            backbone,
            head,
            cfg: *cfg,
            feat_node,
            obj_node,
            delta_node,
            feat_ch,
            stride,
        }
    }

    /// Decodes RPN outputs into up to [`POST_NMS_TOP_N`] proposals for
    /// batch item `b`.
    fn proposals(&self, acts: &[Tensor], b: usize) -> Vec<(BBox, f32)> {
        let obj = &acts[self.obj_node];
        let deltas = &acts[self.delta_node];
        let (h, w) = (obj.dims()[2], obj.dims()[3]);
        let img = self.cfg.input_hw as f32;
        let mut cands: Vec<(BBox, f32)> = Vec::new();
        for (ai, &side) in RPN_ANCHORS.iter().enumerate() {
            let scores = plane(obj, b, ai);
            let d: [&[f32]; 4] = std::array::from_fn(|k| plane(deltas, b, ai * 4 + k));
            for gy in 0..h {
                for gx in 0..w {
                    let cell = gy * w + gx;
                    let score = sigmoid(scores[cell]);
                    let acx = (gx as f32 + 0.5) * self.stride as f32;
                    let acy = (gy as f32 + 0.5) * self.stride as f32;
                    let (dx, dy, dw, dh) = (d[0][cell], d[1][cell], d[2][cell], d[3][cell]);
                    let bbox =
                        decode_deltas(acx, acy, side, side, dx, dy, dw, dh).clamp_to(img, img);
                    if bbox.area() > 1.0 {
                        cands.push((bbox, score));
                    }
                }
            }
        }
        cands.sort_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => b.1.partial_cmp(&a.1).expect("non-nan"),
        });
        cands.truncate(PRE_NMS_TOP_N);
        // class-agnostic NMS at IoU 0.7
        let dets: Vec<Detection> = cands
            .iter()
            .map(|&(bbox, score)| Detection { bbox, score, class_id: 0 })
            .collect();
        let kept = nms(dets, 0.7);
        kept.into_iter().take(POST_NMS_TOP_N).map(|d| (d.bbox, d.score)).collect()
    }

    /// RoI-pools a channels-last feature map (see [`channels_last`]),
    /// `fh` rows by `fw` columns, over a proposal box. Appends a flat
    /// `c * ROI_POOL^2` vector to `out` in channel-major order: the mean
    /// of each sub-cell, summed row by row in row-major order. All `c`
    /// channels of a sub-cell accumulate together, pixel by pixel, so
    /// each (channel, sub-cell) sum adds the same values in the same
    /// order as a loop over one channel plane at a time.
    fn roi_pool(&self, hwc: &[f32], (fh, fw): (usize, usize), bbox: &BBox, out: &mut Vec<f32>) {
        const CELLS: usize = ROI_POOL * ROI_POOL;
        let c = hwc.len() / (fh * fw);
        let sx = self.stride as f32;
        // The proposal in feature cells, clamped: fx1 < fx2 <= fw and
        // fy1 < fy2 <= fh for any box (NaN included).
        let fx1 = (bbox.x1 / sx).floor().clamp(0.0, (fw - 1) as f32) as usize;
        let fy1 = (bbox.y1 / sx).floor().clamp(0.0, (fh - 1) as f32) as usize;
        let fx2 = ((bbox.x2 / sx).ceil().clamp(1.0, fw as f32) as usize).max(fx1 + 1);
        let fy2 = ((bbox.y2 / sx).ceil().clamp(1.0, fh as f32) as usize).max(fy1 + 1);
        let base = out.len();
        out.resize(base + c * CELLS, 0.0);
        let mut acc = vec![0.0f32; c];
        for py in 0..ROI_POOL {
            let ys = sub_cell(fy1, fy2, fh, py);
            for px in 0..ROI_POOL {
                let xs = sub_cell(fx1, fx2, fw, px);
                acc.fill(0.0);
                for y in ys.clone() {
                    for pixel in hwc[(y * fw + xs.start) * c..(y * fw + xs.end) * c].chunks_exact(c) {
                        for (a, &v) in acc.iter_mut().zip(pixel) {
                            *a += v;
                        }
                    }
                }
                let cnt = (ys.len() * xs.len()) as f32;
                let cell = base + py * ROI_POOL + px;
                for (ch, &a) in acc.iter().enumerate() {
                    out[cell + ch * CELLS] = a / cnt;
                }
            }
        }
    }
}

/// Batch item `b` of an NCHW feature map in channels-last order: the
/// `c` channels of cell `(y, x)` start at `(y * w + x) * c`.
fn channels_last(feat: &Tensor, b: usize) -> Vec<f32> {
    let (c, h, w) = (feat.dims()[1], feat.dims()[2], feat.dims()[3]);
    let mut hwc = vec![0.0f32; c * h * w];
    for ch in 0..c {
        for (cell, &v) in plane(feat, b, ch).iter().enumerate() {
            hwc[cell * c + ch] = v;
        }
    }
    hwc
}

/// Sub-cell `p` of `ROI_POOL` along one axis of the box span `lo..hi`,
/// within a feature side of `len` cells: never empty, always in bounds.
fn sub_cell(lo: usize, hi: usize, len: usize, p: usize) -> std::ops::Range<usize> {
    let span = hi - lo;
    let start = lo + p * span / ROI_POOL;
    let end = (lo + ((p + 1) * span).div_ceil(ROI_POOL)).min(hi);
    start..end.max(start + 1).min(len)
}

impl Detector for FrcnnTwoStage {
    fn clone_boxed(&self) -> Option<Box<dyn Detector>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "frcnn_two_stage"
    }

    fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }

    fn networks(&self) -> Vec<&Network> {
        vec![&self.backbone, &self.head]
    }

    fn networks_mut(&mut self) -> Vec<&mut Network> {
        vec![&mut self.backbone, &mut self.head]
    }

    fn detect_with(
        &self,
        images: &Tensor,
        run: &mut RunNetwork<'_>,
    ) -> Result<Vec<Vec<Detection>>, NnError> {
        let acts = run(0, &self.backbone, images)?;
        let feat = &acts[self.feat_node];
        let feat_hw = (feat.dims()[2], feat.dims()[3]);
        let n = images.dims()[0];
        let c = self.cfg.num_classes;
        let img = self.cfg.input_hw as f32;
        let mut out = Vec::with_capacity(n);
        for b in 0..n {
            let props = self.proposals(&acts, b);
            let mut dets = Vec::new();
            if !props.is_empty() {
                let roi_feat = self.feat_ch * ROI_POOL * ROI_POOL;
                let mut pooled = Vec::with_capacity(props.len() * roi_feat);
                let hwc = channels_last(feat, b);
                for (bbox, _) in &props {
                    self.roi_pool(&hwc, feat_hw, bbox, &mut pooled);
                }
                let input = Tensor::from_vec(pooled, &[props.len(), roi_feat])
                    .map_err(NnError::from)?;
                let head_acts = run(1, &self.head, &input)?;
                let head_out = output_of(&self.head, &head_acts)?;
                // One row per proposal: C+1 class logits, then 4 box deltas.
                let rows = head_out.data().chunks_exact(head_out.dims()[1]);
                for ((pbox, _pscore), row) in props.iter().zip(rows) {
                    // softmax over the (C+1) class logits
                    let logits = &row[..=c];
                    let mut best_cls = 0usize;
                    let mut best_logit = f32::NEG_INFINITY;
                    let mut denom = 0.0f32;
                    let max_logit = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    for (ci, &l) in logits.iter().enumerate() {
                        denom += (l - max_logit).exp();
                        if ci < c && l > best_logit {
                            best_logit = l;
                            best_cls = ci;
                        }
                    }
                    let score = (best_logit - max_logit).exp() / denom;
                    // `<` is false for NaN, so NaN-corrupted scores pass through and
                    // surface as DUE symptoms downstream.
                    if score < self.cfg.score_thresh {
                        continue;
                    }
                    let d = &row[c + 1..c + 5];
                    let cx = (pbox.x1 + pbox.x2) / 2.0;
                    let cy = (pbox.y1 + pbox.y2) / 2.0;
                    let bbox = decode_deltas(
                        cx,
                        cy,
                        pbox.width().max(1.0),
                        pbox.height().max(1.0),
                        d[0],
                        d[1],
                        d[2],
                        d[3],
                    )
                    .clamp_to(img, img);
                    dets.push(Detection { bbox, score, class_id: best_cls });
                }
            }
            out.push(cap_detections(nms(dets, self.cfg.nms_iou), self.cfg.max_dets));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_rng::Rng;

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            input_hw: 32,
            width_mult: 0.125,
            score_thresh: 0.2,
            ..DetectorConfig::default()
        }
    }

    #[test]
    fn frcnn_exposes_two_networks() {
        let mut det = FrcnnTwoStage::new(&cfg());
        assert_eq!(det.networks().len(), 2);
        assert_eq!(det.networks_mut().len(), 2);
        // both networks have injectable layers
        for net in det.networks() {
            assert!(!net.injectable_layers(None, None).unwrap().is_empty());
        }
    }

    #[test]
    fn frcnn_detects_without_panic_and_respects_cap() {
        let det = FrcnnTwoStage::new(&cfg());
        let mut rng = Rng::from_seed(7);
        let imgs = Tensor::rand_uniform(&mut rng, &[2, 3, 32, 32], 0.0, 1.0);
        let out = det.detect(&imgs).unwrap();
        assert_eq!(out.len(), 2);
        for dets in out {
            assert!(dets.len() <= det.cfg.max_dets);
            for d in dets {
                assert!(d.class_id < det.num_classes());
                assert!(d.bbox.x2 <= 32.0);
            }
        }
    }

    #[test]
    fn frcnn_is_deterministic() {
        let a = FrcnnTwoStage::new(&cfg());
        let b = FrcnnTwoStage::new(&cfg());
        let imgs = Tensor::ones(&[1, 3, 32, 32]);
        assert_eq!(a.detect(&imgs).unwrap(), b.detect(&imgs).unwrap());
    }

    #[test]
    fn proposals_are_bounded_and_sorted() {
        let det = FrcnnTwoStage::new(&cfg());
        let mut rng = Rng::from_seed(8);
        let imgs = Tensor::rand_uniform(&mut rng, &[1, 3, 32, 32], 0.0, 1.0);
        let acts = det.backbone.forward_all(&imgs).unwrap();
        let props = det.proposals(&acts, 0);
        assert!(props.len() <= POST_NMS_TOP_N);
        assert!(!props.is_empty());
        for w in props.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn roi_pool_produces_fixed_size_vector() {
        let det = FrcnnTwoStage::new(&cfg());
        let imgs = Tensor::ones(&[1, 3, 32, 32]);
        let acts = det.backbone.forward_all(&imgs).unwrap();
        let feat = &acts[det.feat_node];
        let hwc = channels_last(feat, 0);
        let pool = |bbox: BBox| {
            let mut v = Vec::new();
            det.roi_pool(&hwc, (feat.dims()[2], feat.dims()[3]), &bbox, &mut v);
            v
        };
        let v = pool(BBox::new(4.0, 4.0, 20.0, 28.0));
        assert_eq!(v.len(), det.feat_ch * ROI_POOL * ROI_POOL);
        assert!(v.iter().all(|x| x.is_finite()));
        // degenerate, inverted, out-of-frame and NaN boxes still pool
        for bbox in [
            BBox::new(0.0, 0.0, 0.5, 0.5),
            BBox::new(20.0, 20.0, 4.0, 4.0),
            BBox::new(-50.0, 40.0, -10.0, 90.0),
            BBox::new(f32::NAN, f32::NAN, f32::NAN, f32::NAN),
        ] {
            assert_eq!(pool(bbox).len(), v.len());
        }
    }

    /// The RoI pooling loop `roi_pool` replaced: one NCHW channel plane
    /// at a time, then `py`, `px`, each sub-cell summed row by row.
    fn roi_pool_reference(det: &FrcnnTwoStage, feat: &Tensor, b: usize, bbox: &BBox) -> Vec<f32> {
        let (c, fh, fw) = (feat.dims()[1], feat.dims()[2], feat.dims()[3]);
        let sx = det.stride as f32;
        let fx1 = (bbox.x1 / sx).floor().clamp(0.0, (fw - 1) as f32) as usize;
        let fy1 = (bbox.y1 / sx).floor().clamp(0.0, (fh - 1) as f32) as usize;
        let fx2 = ((bbox.x2 / sx).ceil().clamp(1.0, fw as f32) as usize).max(fx1 + 1);
        let fy2 = ((bbox.y2 / sx).ceil().clamp(1.0, fh as f32) as usize).max(fy1 + 1);
        let (rw, rh) = (fx2 - fx1, fy2 - fy1);
        let mut out = Vec::new();
        for ch in 0..c {
            let fmap = plane(feat, b, ch);
            for py in 0..ROI_POOL {
                let y0 = fy1 + py * rh / ROI_POOL;
                let y1 = (fy1 + ((py + 1) * rh).div_ceil(ROI_POOL)).min(fy2);
                let ys = y0..y1.max(y0 + 1).min(fh);
                for px in 0..ROI_POOL {
                    let x0 = fx1 + px * rw / ROI_POOL;
                    let x1 = (fx1 + ((px + 1) * rw).div_ceil(ROI_POOL)).min(fx2);
                    let xs = x0..x1.max(x0 + 1).min(fw);
                    let mut acc = 0.0f32;
                    for y in ys.clone() {
                        for &v in &fmap[y * fw + xs.start..y * fw + xs.end] {
                            acc += v;
                        }
                    }
                    let cnt = ys.len() * xs.len();
                    out.push(if cnt > 0 { acc / cnt as f32 } else { 0.0 });
                }
            }
        }
        out
    }

    /// Channel-innermost pooling reproduces the per-plane loop bit for
    /// bit: on random feature maps (second batch item included) and on
    /// random, degenerate, inverted, out-of-frame and NaN boxes.
    #[test]
    fn roi_pool_matches_the_per_plane_loop_bitwise() {
        let det = FrcnnTwoStage::new(&cfg());
        let mut rng = Rng::from_seed(21);
        // 12 × 12 cells, so a box spans sub-cells of several rows and
        // columns, where the summation order shows in the rounding.
        let (c, fh, fw) = (5, 12, 12);
        let feat = Tensor::rand_uniform(&mut rng, &[2, c, fh, fw], -3.0, 3.0);
        let side = (fw * det.stride) as f32;
        let mut boxes: Vec<BBox> = (0..400)
            .map(|_| {
                let mut v = || rng.gen_range(-0.2 * side..1.2 * side);
                BBox::new(v(), v(), v(), v())
            })
            .collect();
        boxes.extend([
            BBox::new(0.0, 0.0, side, side),
            BBox::new(0.0, 0.0, 0.5, 0.5),
            BBox::new(40.0, 40.0, 8.0, 8.0),
            BBox::new(-50.0, 40.0, -10.0, 990.0),
            BBox::new(2.0 * side, 2.0 * side, 3.0 * side, 3.0 * side),
            BBox::new(f32::NAN, f32::NAN, f32::NAN, f32::NAN),
            BBox::new(f32::NEG_INFINITY, 3.0, f32::INFINITY, f32::NAN),
        ]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for b in 0..2 {
            let hwc = channels_last(&feat, b);
            for bbox in &boxes {
                let mut got = Vec::new();
                det.roi_pool(&hwc, (fh, fw), bbox, &mut got);
                let expect = roi_pool_reference(&det, &feat, b, bbox);
                assert_eq!(bits(&got), bits(&expect), "item {b}, box {bbox:?}");
            }
        }
    }
}
