//! The COCO KPIs equal a plain reference implementation bit for bit.
//!
//! `reference` below is the straightforward form of the KPI rules: every
//! AP and recall call filters, sorts and greedily matches each image
//! again. The property draws detection sets that stress every rule the
//! library must keep exactly (`f64::to_bits` equality):
//!
//! * boxes on a coarse grid, so IoUs tie with each other and with the
//!   thresholds;
//! * repeated scores (`0.0` and `-0.0` included), so the score order
//!   depends on the tie-break by image and detection index;
//! * NaN and ±Inf scores, which are dropped;
//! * one image with more than 100 detections of one class, so
//!   `max_dets = 100` truncates;
//! * classes with detections but no ground truth, and a class with
//!   neither;
//! * images without detections and images without ground truth.
//!
//! A hand-built case pins the exact nonzero `map_50`, `map_50_95` and
//! `ar_100` bits.

use alfi_check::{check_with, gen};
use alfi_datasets::GroundTruthBox;
use alfi_eval::{
    average_precision, coco_iou_grid, coco_metrics, precision_recall_curve, recall, CocoMetrics,
};
use alfi_nn::detection::{BBox, Detection};
use alfi_rng::Rng;

const CASES: usize = 128;

/// Ground-truth classes are drawn from `0..GT_CLASSES`, detection classes
/// from `0..GT_CLASSES + 1`; `coco_metrics` is asked for one class more,
/// which has neither.
const GT_CLASSES: usize = 3;
const NUM_CLASSES: usize = GT_CLASSES + 2;

/// The KPI rules written plainly, one filter-sort-match pass per call.
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    fn gt_bbox(g: &GroundTruthBox) -> BBox {
        BBox::new(g.bbox[0], g.bbox[1], g.bbox[0] + g.bbox[2], g.bbox[1] + g.bbox[3])
    }

    /// AP over each image's top `max_dets` detections of the class.
    pub fn average_precision(
        detections: &[Vec<Detection>],
        ground_truth: &[Vec<GroundTruthBox>],
        class_id: usize,
        iou_thresh: f32,
        max_dets: usize,
    ) -> f64 {
        let pr = precision_recall_curve(detections, ground_truth, class_id, iou_thresh, max_dets);
        let mut ap = 0.0;
        for i in 0..=100 {
            let r = i as f64 / 100.0;
            let p = pr
                .iter()
                .filter(|(rec, _)| *rec >= r)
                .map(|(_, prec)| *prec)
                .fold(0.0, f64::max);
            ap += p;
        }
        ap / 101.0
    }

    /// The PR points of each image's top `max_dets` detections of the
    /// class.
    pub fn precision_recall_curve(
        detections: &[Vec<Detection>],
        ground_truth: &[Vec<GroundTruthBox>],
        class_id: usize,
        iou_thresh: f32,
        max_dets: usize,
    ) -> Vec<(f64, f64)> {
        assert_eq!(detections.len(), ground_truth.len(), "per-image lists must align");
        let num_gt: usize = ground_truth
            .iter()
            .map(|g| g.iter().filter(|b| b.category_id == class_id).count())
            .sum();
        if num_gt == 0 {
            return Vec::new();
        }
        let mut all: Vec<(f32, usize, &Detection)> = Vec::new();
        for (img, dets) in detections.iter().enumerate() {
            let mut top: Vec<&Detection> =
                dets.iter().filter(|d| d.class_id == class_id && d.score.is_finite()).collect();
            top.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
            top.truncate(max_dets);
            all.extend(top.into_iter().map(|d| (d.score, img, d)));
        }
        all.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        let mut gt_used: Vec<Vec<bool>> =
            ground_truth.iter().map(|g| vec![false; g.len()]).collect();
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut pr: Vec<(f64, f64)> = Vec::with_capacity(all.len());
        for (_, img, det) in &all {
            let gts = &ground_truth[*img];
            let mut best = None;
            let mut best_iou = iou_thresh;
            for (gi, g) in gts.iter().enumerate() {
                if g.category_id != class_id || gt_used[*img][gi] {
                    continue;
                }
                let iou = det.bbox.iou(&gt_bbox(g));
                if iou >= best_iou {
                    best_iou = iou;
                    best = Some(gi);
                }
            }
            match best {
                Some(gi) => {
                    gt_used[*img][gi] = true;
                    tp += 1;
                }
                None => fp += 1,
            }
            pr.push((tp as f64 / num_gt as f64, tp as f64 / (tp + fp) as f64));
        }
        pr
    }

    pub fn recall(
        detections: &[Vec<Detection>],
        ground_truth: &[Vec<GroundTruthBox>],
        class_id: usize,
        iou_thresh: f32,
        max_dets: usize,
    ) -> f64 {
        let num_gt: usize = ground_truth
            .iter()
            .map(|g| g.iter().filter(|b| b.category_id == class_id).count())
            .sum();
        if num_gt == 0 {
            return 0.0;
        }
        let mut matched = 0usize;
        for (dets, gts) in detections.iter().zip(ground_truth.iter()) {
            let mut top: Vec<&Detection> =
                dets.iter().filter(|d| d.class_id == class_id && d.score.is_finite()).collect();
            top.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
            top.truncate(max_dets);
            let mut used = vec![false; gts.len()];
            for d in top {
                let mut best = None;
                let mut best_iou = iou_thresh;
                for (gi, g) in gts.iter().enumerate() {
                    if g.category_id != class_id || used[gi] {
                        continue;
                    }
                    let iou = d.bbox.iou(&gt_bbox(g));
                    if iou >= best_iou {
                        best_iou = iou;
                        best = Some(gi);
                    }
                }
                if let Some(gi) = best {
                    used[gi] = true;
                    matched += 1;
                }
            }
        }
        matched as f64 / num_gt as f64
    }

    pub fn coco_metrics(
        detections: &[Vec<Detection>],
        ground_truth: &[Vec<GroundTruthBox>],
        num_classes: usize,
    ) -> CocoMetrics {
        let classes_with_gt: Vec<usize> = (0..num_classes)
            .filter(|c| ground_truth.iter().any(|g| g.iter().any(|b| b.category_id == *c)))
            .collect();
        let mut ap_per_class_50 = BTreeMap::new();
        let mut map_50 = 0.0;
        let mut map_50_95 = 0.0;
        let mut ar_100 = 0.0;
        let grid = coco_iou_grid();
        for &c in &classes_with_gt {
            let ap50 = average_precision(detections, ground_truth, c, 0.5, 100);
            ap_per_class_50.insert(c, ap50);
            map_50 += ap50;
            let mut ap_sum = 0.0;
            let mut r_sum = 0.0;
            for &iou in &grid {
                ap_sum += average_precision(detections, ground_truth, c, iou, 100);
                r_sum += recall(detections, ground_truth, c, iou, 100);
            }
            map_50_95 += ap_sum / grid.len() as f64;
            ar_100 += r_sum / grid.len() as f64;
        }
        let n = classes_with_gt.len().max(1) as f64;
        CocoMetrics {
            map_50: map_50 / n,
            map_50_95: map_50_95 / n,
            ap_per_class_50,
            ar_100: ar_100 / n,
        }
    }
}

/// A box corner on a 5-pixel grid with a 10/20/30-pixel side, so that
/// many pairs share an IoU (0, 1/3, 0.5, 1, …).
fn grid_box(rng: &mut Rng) -> [f32; 4] {
    let step = |rng: &mut Rng, n: u32| 5.0 * rng.gen_range(0..n) as f32;
    let side = |rng: &mut Rng| 10.0 * rng.gen_range(1u32..4) as f32;
    [step(rng, 12), step(rng, 12), side(rng), side(rng)]
}

fn arb_score(rng: &mut Rng) -> f32 {
    const SCORES: [f32; 8] = [0.0, -0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
    match rng.gen_range(0u32..20) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        _ => SCORES[rng.gen_range(0..SCORES.len())],
    }
}

fn arb_detection(rng: &mut Rng, class_id: usize) -> Detection {
    let [x, y, w, h] = grid_box(rng);
    Detection { bbox: BBox::new(x, y, x + w, y + h), score: arb_score(rng), class_id }
}

fn arb_gt(rng: &mut Rng) -> GroundTruthBox {
    GroundTruthBox { bbox: grid_box(rng), category_id: rng.gen_range(0..GT_CLASSES) }
}

/// Aligned per-image detections and ground truth.
fn arb_dataset(rng: &mut Rng) -> (Vec<Vec<Detection>>, Vec<Vec<GroundTruthBox>>) {
    let images = rng.gen_range(0usize..8);
    let gts: Vec<Vec<GroundTruthBox>> =
        (0..images).map(|_| gen::vec_of(rng, 0..6, arb_gt)).collect();
    let mut dets: Vec<Vec<Detection>> = (0..images)
        .map(|_| {
            gen::vec_of(rng, 0..10, |rng| {
                let class_id = rng.gen_range(0..GT_CLASSES + 1);
                arb_detection(rng, class_id)
            })
        })
        .collect();
    if images > 0 && rng.gen_range(0u32..3) == 0 {
        // One crowded image: more than `max_dets = 100` of one class.
        let img = rng.gen_range(0..images);
        let class_id = rng.gen_range(0..GT_CLASSES);
        let extra = rng.gen_range(101usize..140);
        for _ in 0..extra {
            let at = rng.gen_range(0..=dets[img].len());
            dets[img].insert(at, arb_detection(rng, class_id));
        }
    }
    (dets, gts)
}

fn metric_bits(m: &CocoMetrics) -> (u64, u64, u64, Vec<(usize, u64)>) {
    (
        m.map_50.to_bits(),
        m.map_50_95.to_bits(),
        m.ar_100.to_bits(),
        m.ap_per_class_50.iter().map(|(&c, ap)| (c, ap.to_bits())).collect(),
    )
}

fn curve_bits(pr: &[(f64, f64)]) -> Vec<(u64, u64)> {
    pr.iter().map(|(r, p)| (r.to_bits(), p.to_bits())).collect()
}

/// `coco_metrics` (AP and AR over each image's top 100 detections),
/// `average_precision` and `precision_recall_curve` (every detection)
/// and `recall` (`max_dets` 1 and 100) return exactly the reference's
/// bits, for every class and for the COCO grid plus the 0 and 1
/// thresholds and one drawn at random.
#[test]
fn kpis_equal_the_reference_loops_bit_for_bit() {
    check_with(CASES, "kpis_equal_the_reference_loops_bit_for_bit", |rng| {
        let (dets, gts) = arb_dataset(rng);
        assert_eq!(
            metric_bits(&coco_metrics(&dets, &gts, NUM_CLASSES)),
            metric_bits(&reference::coco_metrics(&dets, &gts, NUM_CLASSES)),
            "coco_metrics"
        );
        let mut thresholds = coco_iou_grid().to_vec();
        thresholds.extend([0.0, 1.0, rng.gen_range(0.0f32..=1.0)]);
        for c in 0..NUM_CLASSES {
            for &t in &thresholds {
                assert_eq!(
                    average_precision(&dets, &gts, c, t).to_bits(),
                    reference::average_precision(&dets, &gts, c, t, usize::MAX).to_bits(),
                    "average_precision class {c} iou {t}"
                );
                assert_eq!(
                    curve_bits(&precision_recall_curve(&dets, &gts, c, t)),
                    curve_bits(&reference::precision_recall_curve(&dets, &gts, c, t, usize::MAX)),
                    "precision_recall_curve class {c} iou {t}"
                );
                for max_dets in [1, 100] {
                    assert_eq!(
                        recall(&dets, &gts, c, t, max_dets).to_bits(),
                        reference::recall(&dets, &gts, c, t, max_dets).to_bits(),
                        "recall class {c} iou {t} max_dets {max_dets}"
                    );
                }
            }
        }
    });
}

/// One hand-built case with partial overlaps, a duplicate, a miss, a
/// NaN score and a class without ground truth; its summary bits are
/// pinned.
#[test]
fn a_hand_built_case_pins_nonzero_kpi_bits() {
    let gt = |x: f32, y: f32, w: f32, h: f32, c: usize| GroundTruthBox {
        bbox: [x, y, w, h],
        category_id: c,
    };
    let det = |x: f32, y: f32, w: f32, h: f32, c: usize, score: f32| Detection {
        bbox: BBox::new(x, y, x + w, y + h),
        score,
        class_id: c,
    };
    let gts = vec![
        vec![gt(0.0, 0.0, 20.0, 20.0, 0), gt(40.0, 40.0, 20.0, 10.0, 1)],
        vec![gt(10.0, 10.0, 30.0, 30.0, 0), gt(50.0, 0.0, 10.0, 30.0, 0)],
        vec![],
        vec![gt(5.0, 5.0, 25.0, 15.0, 1)],
    ];
    let dets = vec![
        vec![
            det(1.0, 2.0, 20.0, 19.0, 0, 0.9),  // TP at every threshold up to 0.8
            det(0.0, 0.0, 20.0, 20.0, 0, 0.6),  // duplicate of the same box
            det(42.0, 40.0, 20.0, 12.0, 1, 0.7),
        ],
        vec![
            det(14.0, 12.0, 30.0, 28.0, 0, 0.8),
            det(50.0, 3.0, 10.0, 24.0, 0, 0.4),
            det(0.0, 60.0, 10.0, 10.0, 0, 0.95), // a miss, scored highest
            det(50.0, 0.0, 10.0, 30.0, 0, f32::NAN),
        ],
        vec![det(0.0, 0.0, 10.0, 10.0, 2, 0.5)], // class 2 has no ground truth
        vec![det(9.0, 5.0, 25.0, 15.0, 1, 0.3)],
    ];
    let m = coco_metrics(&dets, &gts, 3);
    assert_eq!(m, reference::coco_metrics(&dets, &gts, 3));
    assert_eq!(m.ap_per_class_50.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
    // map_50 0.8221122112211221, map_50_95 0.4145214521452145,
    // ar_100 0.5916666666666667.
    assert_eq!(m.map_50.to_bits(), 0x3fea_4ebe_449a_c868);
    assert_eq!(m.map_50_95.to_bits(), 0x3fda_8784_fc1d_1064);
    assert_eq!(m.ar_100.to_bits(), 0x3fe2_eeee_eeee_eeef);
}

/// One image holds 101 detections of a class: a hit on its first box,
/// 99 misses, then a hit on its second box scored lowest. COCO's AP
/// (`maxDets = 100`) never sees the last hit, so `coco_metrics`' AP is
/// the first hit's alone, while `average_precision` ranks all 101.
#[test]
fn coco_ap_ranks_only_each_images_top_100_detections() {
    let gts = vec![vec![
        GroundTruthBox { bbox: [0.0, 0.0, 10.0, 10.0], category_id: 0 },
        GroundTruthBox { bbox: [50.0, 50.0, 10.0, 10.0], category_id: 0 },
    ]];
    let det = |x: f32, score: f32| Detection {
        bbox: BBox::new(x, x, x + 10.0, x + 10.0),
        score,
        class_id: 0,
    };
    let mut image = vec![det(0.0, 1.0)];
    image.extend((0..99).map(|_| det(100.0, 0.9)));
    image.push(det(50.0, 0.5));
    let dets = vec![image];
    let m = coco_metrics(&dets, &gts, 1);
    assert_eq!(m, reference::coco_metrics(&dets, &gts, 1));
    // Recall 1/2 at precision 1: 51 of the 101 points, 51/101.
    assert_eq!(m.map_50.to_bits(), 0x3fe0_288d_f0ca_c5b4);
    assert_eq!(m.ar_100, 0.5);
    // Uncapped, the last hit lifts the 50 points above recall 1/2 to
    // precision 2/101.
    let uncapped = average_precision(&dets, &gts, 0, 0.5);
    assert_eq!(uncapped, reference::average_precision(&dets, &gts, 0, 0.5, usize::MAX));
    assert!((uncapped - (51.0 + 50.0 * (2.0 / 101.0)) / 101.0).abs() < 1e-12, "{uncapped}");
    assert!(uncapped > m.map_50);
}
