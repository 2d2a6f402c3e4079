//! One-stage grid detector in the YOLOv3 style.

use super::geometry::{nms, BBox, Detection};
use super::{cap_detections, output_of, plane, sigmoid, Detector, DetectorConfig, RunNetwork};
use crate::error::NnError;
use crate::graph::Network;
use crate::models::NetBuilder;
use alfi_tensor::Tensor;

/// Per-cell anchor priors (width, height) in pixels, one detector box per
/// anchor — a scaled-down version of YOLOv3's anchor set.
const YOLO_ANCHORS: [(f32, f32); 3] = [(10.0, 13.0), (24.0, 17.0), (40.0, 40.0)];

/// YOLOv3-style single-shot detector: a Darknet-flavoured convolutional
/// backbone that downsamples the image to an `S × S` grid, and a 1×1
/// prediction head emitting `A · (5 + C)` channels per cell (box offsets,
/// objectness and class scores for `A` anchors).
///
/// # Example
///
/// ```
/// use alfi_nn::detection::{Detector, DetectorConfig, YoloGrid};
/// use alfi_tensor::Tensor;
///
/// let det = YoloGrid::new(&DetectorConfig::default());
/// let images = Tensor::zeros(&[1, 3, 64, 64]);
/// let dets = det.detect(&images)?;
/// assert_eq!(dets.len(), 1);
/// # Ok::<(), alfi_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct YoloGrid {
    net: Network,
    cfg: DetectorConfig,
    grid: usize,
}

impl YoloGrid {
    /// Builds the detector for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.input_hw` is not divisible by 8 (three stride-2
    /// stages).
    pub fn new(cfg: &DetectorConfig) -> YoloGrid {
        assert!(cfg.input_hw.is_multiple_of(8), "input_hw must be divisible by 8");
        let grid = cfg.input_hw / 8;
        let a = YOLO_ANCHORS.len();
        let out_ch = a * (5 + cfg.num_classes);

        let mut b = NetBuilder::new("yolo_grid", cfg.seed, cfg.in_channels);
        // Darknet-style backbone: conv-bn-leaky blocks with stride-2
        // downsampling convolutions.
        b.conv("backbone.conv1", cfg.ch(32), 3, 1, 1);
        b.batchnorm("backbone.bn1");
        b.leaky_relu("backbone.leaky1", 0.1);
        b.conv("backbone.down1", cfg.ch(64), 3, 2, 1);
        b.batchnorm("backbone.bn2");
        b.leaky_relu("backbone.leaky2", 0.1);
        b.conv("backbone.conv2", cfg.ch(64), 3, 1, 1);
        b.batchnorm("backbone.bn3");
        b.leaky_relu("backbone.leaky3", 0.1);
        b.conv("backbone.down2", cfg.ch(128), 3, 2, 1);
        b.batchnorm("backbone.bn4");
        b.leaky_relu("backbone.leaky4", 0.1);
        b.conv("backbone.conv3", cfg.ch(128), 3, 1, 1);
        b.batchnorm("backbone.bn5");
        b.leaky_relu("backbone.leaky5", 0.1);
        b.conv("backbone.down3", cfg.ch(256), 3, 2, 1);
        b.batchnorm("backbone.bn6");
        b.leaky_relu("backbone.leaky6", 0.1);
        // Prediction head.
        b.conv("head.conv", cfg.ch(256), 3, 1, 1);
        b.leaky_relu("head.leaky", 0.1);
        b.conv("head.pred", out_ch, 1, 1, 0);
        let net = b.finish();

        YoloGrid { net, cfg: *cfg, grid }
    }

    /// The grid side length `S`.
    pub fn grid_size(&self) -> usize {
        self.grid
    }

    /// Decodes the raw head tensor `[n, A*(5+C), S, S]` into detections.
    fn decode(&self, raw: &Tensor) -> Vec<Vec<Detection>> {
        let (n, s, w) = (raw.dims()[0], self.grid, raw.dims()[3]);
        let c = self.cfg.num_classes;
        let a = YOLO_ANCHORS.len();
        let stride = self.cfg.input_hw as f32 / s as f32;
        let per_anchor = 5 + c;
        let mut out = Vec::with_capacity(n);
        for b in 0..n {
            let mut dets = Vec::new();
            for (ai, &(aw, ah)) in YOLO_ANCHORS.iter().enumerate().take(a) {
                let chans: Vec<&[f32]> =
                    (0..per_anchor).map(|k| plane(raw, b, ai * per_anchor + k)).collect();
                for gy in 0..s {
                    for gx in 0..s {
                        let cell = gy * w + gx;
                        let chan = |k: usize| chans[k][cell];
                        let obj = sigmoid(chan(4));
                        // class scores
                        let mut best_cls = 0usize;
                        let mut best_p = f32::NEG_INFINITY;
                        for ci in 0..c {
                            let p = chan(5 + ci);
                            if p > best_p {
                                best_p = p;
                                best_cls = ci;
                            }
                        }
                        let score = obj * sigmoid(best_p);
                        // `<` is false for NaN: corrupted scores stay visible.
                        if score < self.cfg.score_thresh {
                            continue;
                        }
                        let cx = (gx as f32 + sigmoid(chan(0))) * stride;
                        let cy = (gy as f32 + sigmoid(chan(1))) * stride;
                        let w = aw * chan(2).clamp(-4.0, 4.0).exp();
                        let h = ah * chan(3).clamp(-4.0, 4.0).exp();
                        let bbox = BBox::from_cxcywh(cx, cy, w, h)
                            .clamp_to(self.cfg.input_hw as f32, self.cfg.input_hw as f32);
                        dets.push(Detection { bbox, score, class_id: best_cls });
                    }
                }
            }
            let dets = nms(dets, self.cfg.nms_iou);
            out.push(cap_detections(dets, self.cfg.max_dets));
        }
        out
    }
}

impl Detector for YoloGrid {
    fn clone_boxed(&self) -> Option<Box<dyn Detector>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "yolo_grid"
    }

    fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }

    fn networks(&self) -> Vec<&Network> {
        vec![&self.net]
    }

    fn networks_mut(&mut self) -> Vec<&mut Network> {
        vec![&mut self.net]
    }

    fn detect_with(
        &self,
        images: &Tensor,
        run: &mut RunNetwork<'_>,
    ) -> Result<Vec<Vec<Detection>>, NnError> {
        let acts = run(0, &self.net, images)?;
        Ok(self.decode(output_of(&self.net, &acts)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_rng::Rng;

    fn cfg() -> DetectorConfig {
        DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() }
    }

    #[test]
    fn yolo_outputs_capped_sorted_detections() {
        let det = YoloGrid::new(&cfg());
        let mut rng = Rng::from_seed(3);
        let imgs = Tensor::rand_uniform(&mut rng, &[2, 3, 32, 32], 0.0, 1.0);
        let out = det.detect(&imgs).unwrap();
        assert_eq!(out.len(), 2);
        for dets in &out {
            assert!(dets.len() <= det.cfg.max_dets);
            for w in dets.windows(2) {
                assert!(w[0].score >= w[1].score || w[1].score.is_nan());
            }
            for d in dets {
                assert!(d.class_id < det.num_classes());
                assert!(d.bbox.x2 <= 32.0 && d.bbox.y2 <= 32.0);
            }
        }
    }

    #[test]
    fn yolo_is_deterministic() {
        let a = YoloGrid::new(&cfg());
        let b = YoloGrid::new(&cfg());
        let imgs = Tensor::ones(&[1, 3, 32, 32]);
        assert_eq!(a.detect(&imgs).unwrap(), b.detect(&imgs).unwrap());
    }

    #[test]
    fn yolo_grid_size_matches_downsampling() {
        let det = YoloGrid::new(&cfg());
        assert_eq!(det.grid_size(), 4);
        let shapes = det.net.infer_shapes(&[1, 3, 32, 32]).unwrap();
        let last = shapes.last().unwrap();
        assert_eq!(&last.dims()[2..], &[4, 4]);
    }

    #[test]
    fn yolo_exposes_single_injectable_network() {
        let mut det = YoloGrid::new(&cfg());
        assert_eq!(det.networks().len(), 1);
        let inj = det.networks()[0].injectable_layers(None, None).unwrap();
        assert!(inj.len() >= 8, "expected backbone+head convs, got {}", inj.len());
        assert_eq!(det.networks_mut().len(), 1);
    }
}
