//! COCO-style average precision / average recall.
//!
//! PyTorchALFI evaluates object detection with "COCO-based Average-
//! Precision metric variants (AP) ... Intersection over Union (IoU),
//! average precision (AP), and average recall (AR) are computed using
//! COCO's defined metrics" (§V-E). This module implements the 101-point
//! interpolated AP, AP@[.50:.95] averaging and AR, operating on the
//! framework's detection and ground-truth types.
//!
//! Every function runs on one per-class evaluator: it gathers a class's
//! finite-score detections, computes their IoUs with the class's boxes
//! in the same image and sorts them once, and each IoU threshold then
//! replays the greedy matching from those cached IoUs. [`coco_metrics`]
//! therefore scores each class once for all ten thresholds.
//!
//! The per-image lists may be any slice-like type (`Vec<_>`, `&[_]`),
//! so a caller holding rows can pass borrowed slices without copying.

use alfi_datasets::GroundTruthBox;
use alfi_nn::detection::{BBox, Detection};
use alfi_serde::json_struct;
use std::collections::BTreeMap;

/// Converts a COCO `[x, y, w, h]` ground-truth box to corner form.
fn gt_bbox(g: &GroundTruthBox) -> BBox {
    BBox::new(g.bbox[0], g.bbox[1], g.bbox[0] + g.bbox[2], g.bbox[1] + g.bbox[3])
}

/// Summary metrics over a detection dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CocoMetrics {
    /// Mean AP at IoU 0.50 over classes with ground truth.
    pub map_50: f64,
    /// Mean AP averaged over IoU ∈ {0.50, 0.55, …, 0.95}.
    pub map_50_95: f64,
    /// Per-class AP at IoU 0.50.
    pub ap_per_class_50: BTreeMap<usize, f64>,
    /// Average recall at 100 detections per image, averaged over the
    /// same IoU grid.
    pub ar_100: f64,
}

json_struct!(CocoMetrics { map_50, map_50_95, ap_per_class_50, ar_100 });

/// One class's detections, gathered, IoU-scored against the class's
/// ground truth and sorted once; [`ClassEval::replay`] then matches them
/// at any IoU threshold from the cached IoUs.
struct ClassEval {
    /// Ground-truth boxes of the class over all images.
    num_gt: usize,
    /// The class's finite-score detections, by descending score with
    /// ties broken by image and then detection index.
    dets: Vec<Scored>,
    /// Each detection's IoUs with its image's boxes of the class, in box
    /// order ([`Scored::iou`] indexes them).
    ious: Vec<f32>,
    /// Which ground-truth boxes the current replay has matched; a box's
    /// slot is its position among the class's boxes over all images.
    used: Vec<bool>,
    /// `(recall, precision)` after each detection of the last replay.
    pr: Vec<(f64, f64)>,
}

/// A detection's place in a [`ClassEval`].
#[derive(Debug, Clone, Copy)]
struct Scored {
    score: f32,
    /// Position among its image's detections of the class, by score.
    rank: usize,
    /// Slot of its image's first box of the class in `used`.
    gt: usize,
    /// Number of its image's boxes of the class.
    n_gt: usize,
    /// Start of its `n_gt` IoUs in `ious`.
    iou: usize,
}

/// Descending score; the stable sorts keep earlier entries first on ties.
fn by_score(a: &Scored, b: &Scored) -> std::cmp::Ordering {
    b.score.partial_cmp(&a.score).expect("finite scores")
}

impl ClassEval {
    /// Scores `class_id`'s detections against its ground truth. Gathers
    /// nothing when the class has no ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the per-image lists have different lengths.
    fn new(
        detections: &[impl AsRef<[Detection]>],
        ground_truth: &[impl AsRef<[GroundTruthBox]>],
        class_id: usize,
    ) -> ClassEval {
        assert_eq!(detections.len(), ground_truth.len(), "per-image lists must align");
        let num_gt = ground_truth
            .iter()
            .flat_map(AsRef::as_ref)
            .filter(|g| g.category_id == class_id)
            .count();
        let mut eval = ClassEval {
            num_gt,
            dets: Vec::new(),
            ious: Vec::new(),
            used: vec![false; num_gt],
            pr: Vec::new(),
        };
        if num_gt == 0 {
            return eval;
        }
        let mut gt = 0;
        for (dets, gts) in detections.iter().zip(ground_truth) {
            let (dets, gts) = (dets.as_ref(), gts.as_ref());
            let first = eval.dets.len();
            let boxes = || gts.iter().filter(move |g| g.category_id == class_id).map(gt_bbox);
            let n_gt = boxes().count();
            for d in dets.iter().filter(|d| d.class_id == class_id && d.score.is_finite()) {
                let iou = eval.ious.len();
                eval.dets.push(Scored { score: d.score, rank: 0, gt, n_gt, iou });
                eval.ious.extend(boxes().map(|g| d.bbox.iou(&g)));
            }
            // Sorting each image's run first leaves equal scores in
            // detection order, so the global sort below still breaks ties
            // by image and then detection index.
            let image = &mut eval.dets[first..];
            image.sort_by(by_score);
            for (rank, d) in image.iter_mut().enumerate() {
                d.rank = rank;
            }
            gt += n_gt;
        }
        eval.dets.sort_by(by_score);
        eval.pr.reserve_exact(eval.dets.len());
        eval
    }

    /// Matches each image's top `max_dets` detections greedily in score
    /// order at `iou_thresh`: each takes the unused box of its image with
    /// the highest IoU of at least the threshold, the last of equally
    /// good boxes winning. Fills `pr` and returns the 101-point
    /// interpolated AP and the recall over those detections.
    ///
    /// An image's detections are replayed in its own score order, and
    /// only its own earlier detections use its boxes, so its top
    /// `max_dets` match exactly as they would alone.
    fn replay(&mut self, iou_thresh: f32, max_dets: usize) -> (f64, f64) {
        self.used.fill(false);
        self.pr.clear();
        let (mut tp, mut fp) = (0usize, 0usize);
        for d in self.dets.iter().filter(|d| d.rank < max_dets) {
            let mut best = None;
            let mut best_iou = iou_thresh;
            for (slot, &iou) in (d.gt..).zip(&self.ious[d.iou..d.iou + d.n_gt]) {
                if !self.used[slot] && iou >= best_iou {
                    best_iou = iou;
                    best = Some(slot);
                }
            }
            match best {
                Some(slot) => {
                    self.used[slot] = true;
                    tp += 1;
                }
                None => fp += 1,
            }
            self.pr.push((tp as f64 / self.num_gt as f64, tp as f64 / (tp + fp) as f64));
        }
        // p(r) = max precision at recall >= r. Recall never decreases
        // along `pr`, so those points are a suffix and p(r) its maximum.
        let mut interp = [0.0f64; 101];
        let mut k = self.pr.len();
        let mut max = 0.0f64;
        for (i, p) in interp.iter_mut().enumerate().rev() {
            let r = i as f64 / 100.0;
            while k > 0 && self.pr[k - 1].0 >= r {
                k -= 1;
                max = max.max(self.pr[k].1);
            }
            *p = max;
        }
        let ap = interp.iter().fold(0.0, |sum, p| sum + p) / 101.0;
        let recall = if self.num_gt == 0 { 0.0 } else { tp as f64 / self.num_gt as f64 };
        (ap, recall)
    }
}

/// Computes the 101-point interpolated average precision for one class
/// at one IoU threshold, ranking every finite-score detection of the
/// class (no per-image cap; [`coco_metrics`] applies COCO's
/// `maxDets = 100`).
///
/// `detections[i]` / `ground_truth[i]` belong to image `i`; only entries
/// of `class_id` are considered. Returns 0 when the class has no ground
/// truth.
///
/// # Panics
///
/// Panics if the per-image lists have different lengths.
pub fn average_precision(
    detections: &[impl AsRef<[Detection]>],
    ground_truth: &[impl AsRef<[GroundTruthBox]>],
    class_id: usize,
    iou_thresh: f32,
) -> f64 {
    ClassEval::new(detections, ground_truth, class_id).replay(iou_thresh, usize::MAX).0
}

/// Computes the raw precision-recall points for one class at one IoU
/// threshold: one `(recall, precision)` pair per finite-score detection
/// of the class, every one ranked (no per-image cap), in score order —
/// the series a PR-curve plot consumes. Empty when the class has no
/// ground truth.
///
/// # Panics
///
/// Panics if the per-image lists have different lengths.
pub fn precision_recall_curve(
    detections: &[impl AsRef<[Detection]>],
    ground_truth: &[impl AsRef<[GroundTruthBox]>],
    class_id: usize,
    iou_thresh: f32,
) -> Vec<(f64, f64)> {
    let mut eval = ClassEval::new(detections, ground_truth, class_id);
    eval.replay(iou_thresh, usize::MAX);
    eval.pr
}

/// Computes the recall for one class at one IoU threshold, considering
/// at most `max_dets` highest-scoring detections per image.
///
/// # Panics
///
/// Panics if the per-image lists have different lengths.
pub fn recall(
    detections: &[impl AsRef<[Detection]>],
    ground_truth: &[impl AsRef<[GroundTruthBox]>],
    class_id: usize,
    iou_thresh: f32,
    max_dets: usize,
) -> f64 {
    ClassEval::new(detections, ground_truth, class_id).replay(iou_thresh, max_dets).1
}

/// The ten COCO IoU thresholds `0.50, 0.55, …, 0.95`.
pub fn coco_iou_grid() -> [f32; 10] {
    let mut grid = [0.0f32; 10];
    for (i, g) in grid.iter_mut().enumerate() {
        *g = 0.5 + 0.05 * i as f32;
    }
    grid
}

/// Computes the full COCO metric summary over per-image detections and
/// ground truth. Classes absent from the ground truth are excluded from
/// the means (COCO convention). AP and AR both rank only each image's
/// top 100 detections of a class (COCO's `maxDets = 100`).
///
/// Each class is scored once and replayed at the ten grid thresholds;
/// AP@0.50 is the first of them, since `coco_iou_grid()[0]` is exactly
/// 0.5.
///
/// # Panics
///
/// Panics if the per-image lists have different lengths (checked for
/// every class, so whenever `num_classes > 0`).
pub fn coco_metrics(
    detections: &[impl AsRef<[Detection]>],
    ground_truth: &[impl AsRef<[GroundTruthBox]>],
    num_classes: usize,
) -> CocoMetrics {
    let mut ap_per_class_50 = BTreeMap::new();
    let mut map_50 = 0.0;
    let mut map_50_95 = 0.0;
    let mut ar_100 = 0.0;
    let grid = coco_iou_grid();
    for c in 0..num_classes {
        let mut eval = ClassEval::new(detections, ground_truth, c);
        if eval.num_gt == 0 {
            continue;
        }
        let kpis = grid.map(|iou| eval.replay(iou, 100));
        // AP@0.50: the grid starts at exactly 0.5.
        let ap50 = kpis[0].0;
        ap_per_class_50.insert(c, ap50);
        map_50 += ap50;
        map_50_95 += kpis.iter().fold(0.0, |sum, k| sum + k.0) / grid.len() as f64;
        ar_100 += kpis.iter().fold(0.0, |sum, k| sum + k.1) / grid.len() as f64;
    }
    let n = ap_per_class_50.len().max(1) as f64;
    CocoMetrics {
        map_50: map_50 / n,
        map_50_95: map_50_95 / n,
        ap_per_class_50,
        ar_100: ar_100 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt(x: f32, y: f32, w: f32, h: f32, c: usize) -> GroundTruthBox {
        GroundTruthBox { bbox: [x, y, w, h], category_id: c }
    }

    fn det(x: f32, y: f32, w: f32, h: f32, c: usize, score: f32) -> Detection {
        Detection { bbox: BBox::new(x, y, x + w, y + h), score, class_id: c }
    }

    #[test]
    fn perfect_detections_have_ap_one() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0)], vec![gt(5.0, 5.0, 10.0, 10.0, 0)]];
        let dets = vec![
            vec![det(0.0, 0.0, 10.0, 10.0, 0, 0.9)],
            vec![det(5.0, 5.0, 10.0, 10.0, 0, 0.8)],
        ];
        let ap = average_precision(&dets, &gts, 0, 0.5);
        assert!((ap - 1.0).abs() < 1e-9, "ap {ap}");
    }

    #[test]
    fn no_detections_ap_zero() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0)]];
        let dets = vec![vec![]];
        assert_eq!(average_precision(&dets, &gts, 0, 0.5), 0.0);
    }

    #[test]
    fn class_without_gt_has_ap_zero_and_is_excluded_from_map() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0)]];
        let dets = vec![vec![det(0.0, 0.0, 10.0, 10.0, 0, 0.9)]];
        assert_eq!(average_precision(&dets, &gts, 1, 0.5), 0.0);
        let m = coco_metrics(&dets, &gts, 3);
        assert_eq!(m.ap_per_class_50.len(), 1);
        assert!((m.map_50 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn false_positive_before_true_positive_halves_early_precision() {
        // One GT; two detections: higher-scored FP then TP.
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0)]];
        let dets = vec![vec![
            det(50.0, 50.0, 10.0, 10.0, 0, 0.9), // FP
            det(0.0, 0.0, 10.0, 10.0, 0, 0.8),   // TP
        ]];
        let ap = average_precision(&dets, &gts, 0, 0.5);
        // recall 1.0 reached at precision 1/2 => AP = 0.5
        assert!((ap - 0.5).abs() < 0.01, "ap {ap}");
    }

    #[test]
    fn duplicate_detection_of_one_gt_is_fp() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0)]];
        let dets = vec![vec![
            det(0.0, 0.0, 10.0, 10.0, 0, 0.9),
            det(0.5, 0.5, 10.0, 10.0, 0, 0.8), // matches same GT -> FP
        ]];
        let ap = average_precision(&dets, &gts, 0, 0.5);
        assert!((ap - 1.0).abs() < 1e-9, "TP came first so AP stays 1, got {ap}");
        let r = recall(&dets, &gts, 0, 0.5, 100);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn higher_iou_threshold_is_stricter() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0)]];
        // Overlap ~0.6 box
        let dets = vec![vec![det(2.0, 0.0, 10.0, 10.0, 0, 0.9)]];
        let ap_50 = average_precision(&dets, &gts, 0, 0.5);
        let ap_90 = average_precision(&dets, &gts, 0, 0.9);
        assert!(ap_50 > 0.9);
        assert_eq!(ap_90, 0.0);
    }

    #[test]
    fn recall_respects_max_dets() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0), gt(50.0, 50.0, 10.0, 10.0, 0)]];
        let dets = vec![vec![
            det(0.0, 0.0, 10.0, 10.0, 0, 0.9),
            det(50.0, 50.0, 10.0, 10.0, 0, 0.8),
        ]];
        assert_eq!(recall(&dets, &gts, 0, 0.5, 100), 1.0);
        assert_eq!(recall(&dets, &gts, 0, 0.5, 1), 0.5);
    }

    #[test]
    #[should_panic(expected = "per-image lists must align")]
    fn recall_rejects_misaligned_lists() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0)], vec![], vec![gt(5.0, 5.0, 9.0, 9.0, 0)]];
        let dets = vec![vec![det(0.0, 0.0, 10.0, 10.0, 0, 0.9)], vec![]];
        recall(&dets, &gts, 0, 0.5, 100);
    }

    #[test]
    fn nan_scores_are_ignored() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0)]];
        let dets = vec![vec![det(0.0, 0.0, 10.0, 10.0, 0, f32::NAN)]];
        assert_eq!(average_precision(&dets, &gts, 0, 0.5), 0.0);
    }

    #[test]
    fn coco_grid_has_ten_thresholds() {
        let g = coco_iou_grid();
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.5).abs() < 1e-6);
        assert!((g[9] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn pr_curve_recall_is_monotone_and_bounded() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0), gt(50.0, 50.0, 10.0, 10.0, 0)]];
        let dets = vec![vec![
            det(0.0, 0.0, 10.0, 10.0, 0, 0.9),   // TP
            det(90.0, 90.0, 5.0, 5.0, 0, 0.8),   // FP
            det(50.0, 50.0, 10.0, 10.0, 0, 0.7), // TP
        ]];
        let pr = precision_recall_curve(&dets, &gts, 0, 0.5);
        assert_eq!(pr.len(), 3);
        assert_eq!(pr[0], (0.5, 1.0));
        assert_eq!(pr[1], (0.5, 0.5));
        assert_eq!(pr[2], (1.0, 2.0 / 3.0));
        for w in pr.windows(2) {
            assert!(w[1].0 >= w[0].0, "recall never decreases");
        }
        // no ground truth -> empty curve
        assert!(precision_recall_curve(&dets, &gts, 3, 0.5).is_empty());
    }

    #[test]
    fn map_50_95_is_at_most_map_50() {
        let gts = vec![vec![gt(0.0, 0.0, 10.0, 10.0, 0)]];
        let dets = vec![vec![det(1.0, 0.0, 10.0, 10.0, 0, 0.9)]];
        let m = coco_metrics(&dets, &gts, 1);
        assert!(m.map_50_95 <= m.map_50 + 1e-9);
        assert!(m.ar_100 <= 1.0);
    }
}
