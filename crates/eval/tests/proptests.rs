//! Property-based tests for KPI invariants, running on the in-tree
//! `alfi-check` harness.

use alfi_check::{check_with, gen};
use alfi_datasets::GroundTruthBox;
use alfi_eval::{average_precision, image_delta, recall};
use alfi_nn::detection::{BBox, Detection};
use alfi_rng::Rng;

const CASES: usize = 96;

fn arb_detection(rng: &mut Rng) -> Detection {
    let x: f32 = rng.gen_range(0.0f32..80.0);
    let y: f32 = rng.gen_range(0.0f32..80.0);
    let w: f32 = rng.gen_range(1.0f32..30.0);
    let h: f32 = rng.gen_range(1.0f32..30.0);
    Detection {
        bbox: BBox::new(x, y, x + w, y + h),
        score: rng.gen_range(0.0f32..=1.0),
        class_id: rng.gen_range(0usize..4),
    }
}

fn arb_gt(rng: &mut Rng) -> GroundTruthBox {
    GroundTruthBox {
        bbox: [
            rng.gen_range(0.0f32..80.0),
            rng.gen_range(0.0f32..80.0),
            rng.gen_range(1.0f32..30.0),
            rng.gen_range(1.0f32..30.0),
        ],
        category_id: rng.gen_range(0usize..4),
    }
}

/// image_delta bookkeeping: matched + FN = |orig|, matched + FP =
/// |corr|; comparing a set with itself is clean.
#[test]
fn image_delta_bookkeeping() {
    check_with(CASES, "image_delta_bookkeeping", |rng| {
        let orig = gen::vec_of(rng, 0..10, arb_detection);
        let corr = gen::vec_of(rng, 0..10, arb_detection);
        let thr: f32 = rng.gen_range(0.2f32..0.8);
        let d = image_delta(&orig, &corr, thr);
        assert_eq!(d.matched + d.false_negatives, orig.len());
        assert_eq!(d.matched + d.false_positives, corr.len());
        let self_d = image_delta(&orig, &orig, thr);
        assert!(!self_d.is_corrupted());
    });
}

/// AP and recall stay within [0, 1]; recall is monotone in max_dets
/// and antitone in the IoU threshold.
#[test]
fn ap_recall_bounds_and_monotonicity() {
    check_with(CASES, "ap_recall_bounds_and_monotonicity", |rng| {
        let n: usize = rng.gen_range(1usize..4);
        let dets: Vec<Vec<Detection>> =
            (0..n).map(|_| gen::vec_of(rng, 0..6, arb_detection)).collect();
        let gts: Vec<Vec<GroundTruthBox>> = (0..n).map(|_| gen::vec_of(rng, 0..6, arb_gt)).collect();
        let class_id: usize = rng.gen_range(0usize..4);
        let ap = average_precision(&dets, &gts, class_id, 0.5);
        assert!((0.0..=1.0).contains(&ap));
        let r_all = recall(&dets, &gts, class_id, 0.5, 100);
        let r_one = recall(&dets, &gts, class_id, 0.5, 1);
        assert!((0.0..=1.0).contains(&r_all));
        assert!(r_one <= r_all + 1e-9);
        let r_strict = recall(&dets, &gts, class_id, 0.9, 100);
        assert!(r_strict <= r_all + 1e-9);
    });
}

/// Perfect predictions always score AP = 1 for classes with ground
/// truth.
#[test]
fn perfect_predictions_are_perfect() {
    check_with(CASES, "perfect_predictions_are_perfect", |rng| {
        let n: usize = rng.gen_range(1usize..4);
        let gts: Vec<Vec<GroundTruthBox>> = (0..n).map(|_| gen::vec_of(rng, 1..5, arb_gt)).collect();
        let dets: Vec<Vec<Detection>> = gts
            .iter()
            .map(|g| {
                g.iter()
                    .map(|b| Detection {
                        bbox: BBox::new(
                            b.bbox[0],
                            b.bbox[1],
                            b.bbox[0] + b.bbox[2],
                            b.bbox[1] + b.bbox[3],
                        ),
                        score: 0.9,
                        class_id: b.category_id,
                    })
                    .collect()
            })
            .collect();
        for class_id in 0..4 {
            let has_gt = gts.iter().any(|g| g.iter().any(|b| b.category_id == class_id));
            let ap = average_precision(&dets, &gts, class_id, 0.5);
            if has_gt {
                assert!((ap - 1.0).abs() < 1e-9, "class {class_id}: ap {ap}");
            } else {
                assert_eq!(ap, 0.0);
            }
        }
    });
}
