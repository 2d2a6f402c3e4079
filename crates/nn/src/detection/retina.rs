//! One-stage anchor detector with an FPN, in the RetinaNet style.

use super::geometry::{nms, Detection};
use super::{
    anchor_sizes, cap_detections, decode_deltas, plane, sigmoid, Detector, DetectorConfig,
    RunNetwork,
};
use crate::error::NnError;
use crate::graph::{Network, NodeId};
use crate::layer::Layer;
use crate::models::NetBuilder;
use alfi_tensor::Tensor;

/// Anchor aspect ratios used at every pyramid level.
const RATIOS: [f32; 3] = [0.5, 1.0, 2.0];
/// Anchor scale multipliers used at every pyramid level.
const SCALES: [f32; 1] = [1.0];

/// RetinaNet-style detector: a convolutional backbone producing C3/C4
/// feature maps, a feature-pyramid network (1×1 laterals, top-down 2×
/// upsampling and additive merge) yielding P3/P4, and per-level
/// classification and box-regression subnets with dense anchors.
///
/// Deviation from the original: head weights are per-level rather than
/// shared across levels (the graph substrate binds weights to nodes);
/// this preserves the architecture's fault surface — dense sigmoid
/// classification over anchors at multiple scales — which is what drives
/// its IVMOD behaviour in Fig. 2b.
#[derive(Debug, Clone)]
pub struct RetinaAnchor {
    net: Network,
    cfg: DetectorConfig,
    /// Per level: (cls node, box node, stride).
    levels: Vec<(NodeId, NodeId, usize)>,
}

impl RetinaAnchor {
    /// Builds the detector.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.input_hw` is not divisible by 16 (P4 stride).
    pub fn new(cfg: &DetectorConfig) -> RetinaAnchor {
        assert!(cfg.input_hw.is_multiple_of(16), "input_hw must be divisible by 16");
        let a = SCALES.len() * RATIOS.len();
        let fpn_ch = cfg.ch(64);

        let mut b = NetBuilder::new("retina_anchor", cfg.seed, cfg.in_channels);
        // Backbone.
        b.conv("backbone.conv1", cfg.ch(32), 3, 2, 1); // stride 2
        b.batchnorm("backbone.bn1");
        b.relu("backbone.relu1");
        b.conv("backbone.conv2", cfg.ch(64), 3, 2, 1); // stride 4
        b.batchnorm("backbone.bn2");
        b.relu("backbone.relu2");
        b.conv("backbone.conv3", cfg.ch(128), 3, 2, 1); // stride 8
        b.batchnorm("backbone.bn3");
        let c3 = b.relu("backbone.relu3");
        let c3_ch = b.channels;
        b.conv("backbone.conv4", cfg.ch(256), 3, 2, 1); // stride 16
        b.batchnorm("backbone.bn4");
        let c4 = b.relu("backbone.relu4");
        let c4_ch = b.channels;

        // FPN laterals.
        b.last = Some(c4);
        b.channels = c4_ch;
        let p4 = b.conv("fpn.lateral4", fpn_ch, 1, 1, 0);
        let up = b.net.push("fpn.up4", Layer::Upsample2x, &[p4]).expect("valid node");
        b.last = Some(c3);
        b.channels = c3_ch;
        let lat3 = b.conv("fpn.lateral3", fpn_ch, 1, 1, 0);
        let p3 = b.net.push("fpn.merge3", Layer::Add, &[lat3, up]).expect("valid node");

        // Per-level heads.
        let mut levels = Vec::new();
        for (level, (feat, stride)) in [(p3, 8usize), (p4, 16usize)].into_iter().enumerate() {
            let lv = level + 3;
            b.last = Some(feat);
            b.channels = fpn_ch;
            b.conv(&format!("head{lv}.cls_conv1"), fpn_ch, 3, 1, 1);
            b.relu(&format!("head{lv}.cls_relu1"));
            let cls = b.conv(&format!("head{lv}.cls_pred"), a * cfg.num_classes, 1, 1, 0);
            b.last = Some(feat);
            b.channels = fpn_ch;
            b.conv(&format!("head{lv}.box_conv1"), fpn_ch, 3, 1, 1);
            b.relu(&format!("head{lv}.box_relu1"));
            let boxr = b.conv(&format!("head{lv}.box_pred"), a * 4, 1, 1, 0);
            levels.push((cls, boxr, stride));
        }
        let net = b.finish();
        RetinaAnchor { net, cfg: *cfg, levels }
    }

    /// The `(cls, box, stride)` head node ids per pyramid level.
    pub fn level_nodes(&self) -> &[(NodeId, NodeId, usize)] {
        &self.levels
    }
}

impl Detector for RetinaAnchor {
    fn clone_boxed(&self) -> Option<Box<dyn Detector>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &str {
        "retina_anchor"
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
        let n = images.dims()[0];
        let c = self.cfg.num_classes;
        let a = SCALES.len() * RATIOS.len();
        let img = self.cfg.input_hw as f32;
        let mut out = vec![Vec::new(); n];
        for &(cls_id, box_id, stride) in &self.levels {
            let cls = &acts[cls_id];
            let boxes = &acts[box_id];
            let (h, w) = (cls.dims()[2], cls.dims()[3]);
            let anchors = anchor_sizes(stride as f32 * 4.0, &SCALES, &RATIOS);
            for (b, dets) in out.iter_mut().enumerate().take(n) {
                for (ai, &(aw, ah)) in anchors.iter().enumerate().take(a) {
                    let scores: Vec<&[f32]> = (0..c).map(|ci| plane(cls, b, ai * c + ci)).collect();
                    let d: [&[f32]; 4] = std::array::from_fn(|k| plane(boxes, b, ai * 4 + k));
                    for gy in 0..h {
                        for gx in 0..w {
                            let cell = gy * w + gx;
                            let acx = (gx as f32 + 0.5) * stride as f32;
                            let acy = (gy as f32 + 0.5) * stride as f32;
                            let mut best_cls = 0usize;
                            let mut best_p = f32::NEG_INFINITY;
                            for (ci, class_plane) in scores.iter().enumerate() {
                                let p = class_plane[cell];
                                if p > best_p {
                                    best_p = p;
                                    best_cls = ci;
                                }
                            }
                            let score = sigmoid(best_p);
                            // `<` is false for NaN: corrupted scores stay visible.
                            if score < self.cfg.score_thresh {
                                continue;
                            }
                            let (dx, dy, dw, dh) = (d[0][cell], d[1][cell], d[2][cell], d[3][cell]);
                            let bbox = decode_deltas(acx, acy, aw, ah, dx, dy, dw, dh)
                                .clamp_to(img, img);
                            dets.push(Detection { bbox, score, class_id: best_cls });
                        }
                    }
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|dets| cap_detections(nms(dets, self.cfg.nms_iou), self.cfg.max_dets))
            .collect())
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
    fn retina_builds_two_levels_with_correct_strides() {
        let det = RetinaAnchor::new(&cfg());
        let strides: Vec<usize> = det.level_nodes().iter().map(|&(_, _, s)| s).collect();
        assert_eq!(strides, vec![8, 16]);
    }

    #[test]
    fn retina_head_shapes_are_consistent() {
        let det = RetinaAnchor::new(&cfg());
        let acts = det.net.forward_all(&Tensor::zeros(&[1, 3, 32, 32])).unwrap();
        let a = SCALES.len() * RATIOS.len();
        for &(cls, boxr, stride) in det.level_nodes() {
            let s = 32 / stride;
            assert_eq!(acts[cls].dims(), &[1, a * det.num_classes(), s, s]);
            assert_eq!(acts[boxr].dims(), &[1, a * 4, s, s]);
        }
    }

    #[test]
    fn retina_detects_deterministically() {
        let a = RetinaAnchor::new(&cfg());
        let b = RetinaAnchor::new(&cfg());
        let mut rng = Rng::from_seed(5);
        let imgs = Tensor::rand_uniform(&mut rng, &[1, 3, 32, 32], 0.0, 1.0);
        assert_eq!(a.detect(&imgs).unwrap(), b.detect(&imgs).unwrap());
    }

    #[test]
    fn retina_detections_respect_frame_and_cap() {
        let det = RetinaAnchor::new(&cfg());
        let mut rng = Rng::from_seed(6);
        let imgs = Tensor::rand_uniform(&mut rng, &[2, 3, 32, 32], 0.0, 1.0);
        for dets in det.detect(&imgs).unwrap() {
            assert!(dets.len() <= det.cfg.max_dets);
            for d in &dets {
                assert!(d.bbox.x1 >= 0.0 && d.bbox.y2 <= 32.0);
                assert!(d.class_id < det.num_classes());
            }
        }
    }

    #[test]
    fn retina_fpn_merge_uses_add_node() {
        let det = RetinaAnchor::new(&cfg());
        assert!(det
            .net
            .nodes()
            .iter()
            .any(|n| n.name == "fpn.merge3" && matches!(n.layer, Layer::Add)));
    }
}
