//! Object-detection model zoo.
//!
//! Reproduces the three detector families the paper's Fig. 2b evaluates:
//! a one-stage grid detector (YOLOv3-style, [`YoloGrid`]), a one-stage
//! anchor/FPN detector (RetinaNet-style, [`RetinaAnchor`]) and a
//! two-stage region-proposal detector (Faster-RCNN-style,
//! [`FrcnnTwoStage`]). Each is built from the same graph substrate as the
//! classifiers, so ALFI's hooks and weight mutation work unchanged; the
//! anchor decoding, proposal selection and NMS post-processing are plain
//! Rust, matching how PyTorchFI only instruments NN layers and leaves
//! post-processing fault-free.

mod frcnn;
pub mod geometry;
mod retina;
mod yolo;

pub use frcnn::FrcnnTwoStage;
pub use geometry::{match_detections, nms, BBox, Detection};
pub use retina::RetinaAnchor;
pub use yolo::YoloGrid;

use crate::error::NnError;
use crate::graph::Network;
use alfi_tensor::Tensor;

/// Configuration shared by all detector builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Input image side length.
    pub input_hw: usize,
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of object classes.
    pub num_classes: usize,
    /// Channel-width multiplier for the backbone and heads.
    pub width_mult: f32,
    /// Seed for deterministic weight initialization.
    pub seed: u64,
    /// Minimum confidence for a detection to be emitted.
    pub score_thresh: f32,
    /// IoU threshold for non-maximum suppression.
    pub nms_iou: f32,
    /// Maximum number of detections returned per image.
    pub max_dets: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            input_hw: 64,
            in_channels: 3,
            num_classes: 8,
            width_mult: 0.25,
            seed: 0,
            score_thresh: 0.55,
            nms_iou: 0.5,
            max_dets: 20,
        }
    }
}

impl DetectorConfig {
    /// Scales a base channel count by the width multiplier (minimum 1).
    pub fn ch(&self, base: usize) -> usize {
        ((base as f32 * self.width_mult).round() as usize).max(1)
    }

    /// Input tensor dims for batch size `n`.
    pub fn input_dims(&self, n: usize) -> Vec<usize> {
        vec![n, self.in_channels, self.input_hw, self.input_hw]
    }
}

/// Evaluates one of a detector's networks for [`Detector::detect_with`]:
/// `run(i, net, x)` runs `net`, which is `networks()[i]`, on `x` and
/// returns the activations of all its nodes, in node order.
pub type RunNetwork<'a> = dyn FnMut(usize, &Network, &Tensor) -> Result<Vec<Tensor>, NnError> + 'a;

/// A full object-detection model: one or more [`Network`]s plus decode
/// logic.
///
/// The `networks`/`networks_mut` accessors expose every NN component for
/// fault injection. `detect_with` runs inference plus decoding and
/// returns per-image detection lists, with every network evaluation
/// going through the caller's runner, so a fault campaign can corrupt
/// one call without touching the shared detector. `detect` is the plain
/// fault-free form.
pub trait Detector: Send + Sync {
    /// Model name (e.g. `yolo_grid`).
    fn name(&self) -> &str;
    /// Number of object classes.
    fn num_classes(&self) -> usize;
    /// The underlying networks, in a stable order.
    fn networks(&self) -> Vec<&Network>;
    /// Mutable access to the underlying networks (same order), for weight
    /// faults and hook registration.
    fn networks_mut(&mut self) -> Vec<&mut Network>;
    /// Runs detection on a batch `[n, c, h, w]`, returning one detection
    /// list per image. Every network is evaluated through `run` (see
    /// [`RunNetwork`]); everything else is the detector's own decoding.
    ///
    /// Decoding must be a deterministic function of `images` and the
    /// activations `run` returns: given the same ones, an
    /// implementation makes the same calls, with bitwise the same
    /// inputs, and returns the same detections. A fault campaign relies
    /// on this to hand a faulty pass the golden pass's activations for
    /// the networks a fault does not touch. The in-tree detectors meet
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input shape is incompatible, and
    /// propagates `run`'s errors.
    fn detect_with(
        &self,
        images: &Tensor,
        run: &mut RunNetwork<'_>,
    ) -> Result<Vec<Vec<Detection>>, NnError>;

    /// [`detect_with`](Self::detect_with) over plain forward passes of
    /// every node, registered hooks included.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input shape is incompatible.
    fn detect(&self, images: &Tensor) -> Result<Vec<Vec<Detection>>, NnError> {
        self.detect_with(images, &mut |_, net, x| net.forward_all(x))
    }

    /// Deep-copies the detector (weights and all), for callers that arm
    /// faults in place on a private copy, such as a fault-iterator
    /// style replay. Campaigns never need it: they share one detector
    /// across workers. Returns `None` when the detector cannot be
    /// cloned; the in-tree detectors all support it.
    fn clone_boxed(&self) -> Option<Box<dyn Detector>> {
        None
    }
}

/// The output node's activation among the node activations a
/// [`RunNetwork`] returned for `net`.
///
/// # Errors
///
/// Returns [`NnError::InvalidGraph`] if `net` has no output node or
/// `acts` does not reach it.
pub(crate) fn output_of<'t>(net: &Network, acts: &'t [Tensor]) -> Result<&'t Tensor, NnError> {
    net.output_node()
        .and_then(|o| acts.get(o))
        .ok_or_else(|| NnError::InvalidGraph(format!("no output from `{}`", net.name())))
}

/// The contiguous `h * w` plane of channel `ch` in batch item `b` of an
/// NCHW tensor. The decoders read head outputs through these slices
/// rather than one [`Tensor::get`] per element, visiting cells in the
/// same row-major order, so every value and every f32 reduction over
/// them is unchanged.
///
/// # Panics
///
/// Panics if the tensor is not rank 4 or `(b, ch)` is out of range.
pub(crate) fn plane(t: &Tensor, b: usize, ch: usize) -> &[f32] {
    let &[n, c, h, w] = t.dims() else {
        panic!("decoder input must be NCHW, got {:?}", t.dims());
    };
    assert!(b < n && ch < c, "plane ({b}, {ch}) outside {:?}", t.dims());
    let start = (b * c + ch) * h * w;
    &t.data()[start..start + h * w]
}

/// Numerically-stable logistic sigmoid used by all decoders.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Generates `scales.len() * ratios.len()` anchor boxes (w, h) for a
/// feature stride.
pub(crate) fn anchor_sizes(base: f32, scales: &[f32], ratios: &[f32]) -> Vec<(f32, f32)> {
    let mut out = Vec::with_capacity(scales.len() * ratios.len());
    for &s in scales {
        for &r in ratios {
            let area = (base * s) * (base * s);
            let w = (area / r).sqrt();
            let h = w * r;
            out.push((w, h));
        }
    }
    out
}

/// Standard box-delta decoding: applies `(dx, dy, dw, dh)` to an anchor
/// centered at `(acx, acy)` with size `(aw, ah)`. Delta magnitudes are
/// clamped to avoid `exp` overflow on fault-corrupted values — the decode
/// stays total even when the network emits huge numbers, so corruption
/// surfaces as wrong boxes (SDE) rather than a crash.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_deltas(
    acx: f32,
    acy: f32,
    aw: f32,
    ah: f32,
    dx: f32,
    dy: f32,
    dw: f32,
    dh: f32,
) -> BBox {
    const CLAMP: f32 = 4.0;
    let cx = acx + dx.clamp(-CLAMP, CLAMP) * aw;
    let cy = acy + dy.clamp(-CLAMP, CLAMP) * ah;
    let w = aw * dw.clamp(-CLAMP, CLAMP).exp();
    let h = ah * dh.clamp(-CLAMP, CLAMP).exp();
    BBox::from_cxcywh(cx, cy, w, h)
}

/// Truncates a detection list to the `max_dets` highest-scoring entries.
pub(crate) fn cap_detections(mut dets: Vec<Detection>, max_dets: usize) -> Vec<Detection> {
    dets.sort_by(|a, b| match (a.score.is_nan(), b.score.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.score.partial_cmp(&a.score).expect("non-nan"),
    });
    dets.truncate(max_dets);
    dets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_endpoints() {
        assert!(sigmoid(-40.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(40.0) > 1.0 - 1e-6);
    }

    #[test]
    fn anchor_sizes_cover_scales_and_ratios() {
        let a = anchor_sizes(16.0, &[1.0, 2.0], &[0.5, 1.0, 2.0]);
        assert_eq!(a.len(), 6);
        // ratio 1.0 anchors are square
        assert!((a[1].0 - a[1].1).abs() < 1e-4);
        // areas scale with the square of the scale factor
        let area0 = a[0].0 * a[0].1;
        let area3 = a[3].0 * a[3].1;
        assert!((area3 / area0 - 4.0).abs() < 1e-3);
    }

    #[test]
    fn decode_deltas_identity() {
        let b = decode_deltas(10.0, 20.0, 4.0, 6.0, 0.0, 0.0, 0.0, 0.0);
        assert!((b.x1 - 8.0).abs() < 1e-5 && (b.y2 - 23.0).abs() < 1e-5);
    }

    #[test]
    fn decode_deltas_clamps_corrupted_values() {
        let b = decode_deltas(10.0, 10.0, 4.0, 4.0, 1.0e20, f32::NEG_INFINITY, 1.0e20, 1.0e9);
        assert!(!b.has_non_finite());
    }

    #[test]
    fn cap_detections_keeps_top_scores() {
        let mk = |s: f32| Detection { bbox: BBox::new(0.0, 0.0, 1.0, 1.0), score: s, class_id: 0 };
        let capped = cap_detections(vec![mk(0.1), mk(0.9), mk(0.5), mk(f32::NAN)], 2);
        assert_eq!(capped.len(), 2);
        assert_eq!(capped[0].score, 0.9);
        assert_eq!(capped[1].score, 0.5);
    }

    /// Batch item `b` decodes from its own planes: detecting a batch
    /// gives each image exactly the detections it gets alone.
    #[test]
    fn batched_detect_matches_per_image_detect() {
        let cfg = DetectorConfig {
            input_hw: 32,
            width_mult: 0.125,
            score_thresh: 0.1,
            ..DetectorConfig::default()
        };
        let mut rng = alfi_rng::Rng::from_seed(11);
        let images = Tensor::rand_uniform(&mut rng, &[3, 3, 32, 32], 0.0, 1.0);
        let dets: [Box<dyn Detector>; 3] = [
            Box::new(YoloGrid::new(&cfg)),
            Box::new(RetinaAnchor::new(&cfg)),
            Box::new(FrcnnTwoStage::new(&cfg)),
        ];
        for det in &dets {
            let batched = det.detect(&images).unwrap();
            assert_eq!(batched.len(), 3);
            for (i, got) in batched.iter().enumerate() {
                assert!(!got.is_empty(), "{} found nothing in image {i}", det.name());
                let alone = Tensor::stack(&[images.batch_item(i).unwrap()]).unwrap();
                assert_eq!(got, &det.detect(&alone).unwrap()[0], "{} image {i}", det.name());
            }
        }
    }

    /// Every network evaluation goes through the runner, with the index
    /// `networks()` gives that network, and a runner doing plain
    /// forwards reproduces `detect`.
    #[test]
    fn detect_with_runs_each_network_under_its_index() {
        let cfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let images = Tensor::ones(&[2, 3, 32, 32]);
        let dets: [Box<dyn Detector>; 3] = [
            Box::new(YoloGrid::new(&cfg)),
            Box::new(RetinaAnchor::new(&cfg)),
            Box::new(FrcnnTwoStage::new(&cfg)),
        ];
        for det in &dets {
            let names: Vec<&str> = det.networks().iter().map(|n| n.name()).collect();
            let mut calls = Vec::new();
            let got = det
                .detect_with(&images, &mut |i, net, x| {
                    assert_eq!(net.name(), names[i], "{}: network {i}", det.name());
                    calls.push(i);
                    net.forward_all(x)
                })
                .unwrap();
            assert_eq!(got, det.detect(&images).unwrap(), "{}", det.name());
            assert_eq!(calls[0], 0);
            for i in 0..names.len() {
                assert!(calls.contains(&i), "{}: network {i} never ran", det.name());
            }
        }
    }

    #[test]
    fn plane_cells_are_the_indexed_elements() {
        let t = Tensor::from_vec((0..60).map(|v| v as f32).collect(), &[2, 3, 2, 5]).unwrap();
        for b in 0..2 {
            for ch in 0..3 {
                let p = plane(&t, b, ch);
                assert_eq!(p.len(), 10);
                for y in 0..2 {
                    for x in 0..5 {
                        assert_eq!(p[y * 5 + x], t.get(&[b, ch, y, x]));
                    }
                }
            }
        }
    }

    #[test]
    fn detector_config_scaling() {
        let cfg = DetectorConfig { width_mult: 0.5, ..DetectorConfig::default() };
        assert_eq!(cfg.ch(32), 16);
        assert_eq!(cfg.input_dims(2), vec![2, 3, 64, 64]);
    }
}
