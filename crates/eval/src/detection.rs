//! Object-detection KPIs: the IVMOD metric (paper §V-F-2, Fig. 2b).
//!
//! IVMOD (Image-wise Vulnerability Metric for Object Detection, paper
//! reference \[5\]) judges each *image*: comparing the fault-injected
//! detection set against the fault-free one, an image counts as SDE-
//! corrupted if the fault introduced any false positives or false
//! negatives (IoU-matched, class-aware), and as DUE if NaN/Inf surfaced
//! during inference.

use alfi_core::campaign::DetectionRow;
use alfi_core::stats::Rate;
use alfi_nn::detection::{match_detections, Detection};
use alfi_serde::json_struct;

/// Per-image comparison of a faulty detection set against the fault-free
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageDelta {
    /// Detections present under fault but unmatched in the reference.
    pub false_positives: usize,
    /// Reference detections missing under fault.
    pub false_negatives: usize,
    /// Matched pairs.
    pub matched: usize,
}

json_struct!(ImageDelta { false_positives, false_negatives, matched });

impl ImageDelta {
    /// Whether the image's detection output degraded at all.
    pub fn is_corrupted(&self) -> bool {
        self.false_positives > 0 || self.false_negatives > 0
    }
}

/// Compares faulty detections against fault-free detections for one
/// image (IoU ≥ `iou_thresh`, class-aware, one-to-one matching).
pub fn image_delta(orig: &[Detection], corr: &[Detection], iou_thresh: f32) -> ImageDelta {
    let pairs = match_detections(orig, corr, iou_thresh);
    ImageDelta {
        matched: pairs.len(),
        false_negatives: orig.len() - pairs.len(),
        false_positives: corr.len() - pairs.len(),
    }
}

/// Campaign-level IVMOD rates.
#[derive(Debug, Clone, PartialEq)]
pub struct IvmodKpis {
    /// Fraction of images whose detection set silently degraded.
    pub ivmod_sde: Rate,
    /// Fraction of images whose inference produced NaN/Inf.
    pub ivmod_due: Rate,
    /// Mean false positives per corrupted image.
    pub mean_fp: f64,
    /// Mean false negatives per corrupted image.
    pub mean_fn: f64,
}

json_struct!(IvmodKpis { ivmod_sde, ivmod_due, mean_fp, mean_fn });

/// Computes IVMOD_SDE / IVMOD_DUE over all campaign rows.
///
/// DUE takes precedence over SDE per image: a detectable error is not
/// silent.
pub fn ivmod_kpis(rows: &[DetectionRow], iou_thresh: f32) -> IvmodKpis {
    let total = rows.len();
    let mut sde = 0usize;
    let mut due = 0usize;
    let mut fp_sum = 0usize;
    let mut fn_sum = 0usize;
    let mut corrupted_images = 0usize;
    for row in rows {
        let non_finite = row.corr_nan + row.corr_inf > 0
            || row.corr.iter().any(|d| !d.score.is_finite() || d.bbox.has_non_finite());
        if non_finite {
            due += 1;
            continue;
        }
        let delta = image_delta(&row.orig, &row.corr, iou_thresh);
        if delta.is_corrupted() {
            sde += 1;
            corrupted_images += 1;
            fp_sum += delta.false_positives;
            fn_sum += delta.false_negatives;
        }
    }
    IvmodKpis {
        ivmod_sde: Rate::from_counts(sde, total),
        ivmod_due: Rate::from_counts(due, total),
        mean_fp: if corrupted_images > 0 { fp_sum as f64 / corrupted_images as f64 } else { 0.0 },
        mean_fn: if corrupted_images > 0 { fn_sum as f64 / corrupted_images as f64 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_nn::detection::BBox;

    fn det(x: f32, class_id: usize, score: f32) -> Detection {
        Detection { bbox: BBox::new(x, 0.0, x + 10.0, 10.0), score, class_id }
    }

    fn row(orig: Vec<Detection>, corr: Vec<Detection>, nan: usize) -> DetectionRow {
        DetectionRow {
            image_id: 0,
            ground_truth: vec![],
            orig,
            corr,
            resil: None,
            faults: vec![],
            corr_nan: nan,
            corr_inf: 0,
        }
    }

    #[test]
    fn identical_sets_are_clean() {
        let d = image_delta(&[det(0.0, 1, 0.9)], &[det(0.0, 1, 0.9)], 0.5);
        assert_eq!(d.matched, 1);
        assert!(!d.is_corrupted());
    }

    #[test]
    fn extra_detection_is_false_positive() {
        let d = image_delta(&[det(0.0, 1, 0.9)], &[det(0.0, 1, 0.9), det(50.0, 2, 0.8)], 0.5);
        assert_eq!(d.false_positives, 1);
        assert_eq!(d.false_negatives, 0);
        assert!(d.is_corrupted());
    }

    #[test]
    fn missing_detection_is_false_negative() {
        let d = image_delta(&[det(0.0, 1, 0.9), det(50.0, 2, 0.8)], &[det(0.0, 1, 0.9)], 0.5);
        assert_eq!(d.false_negatives, 1);
    }

    #[test]
    fn class_flip_counts_as_fp_plus_fn() {
        let d = image_delta(&[det(0.0, 1, 0.9)], &[det(0.0, 2, 0.9)], 0.5);
        assert_eq!((d.false_positives, d.false_negatives), (1, 1));
    }

    #[test]
    fn shifted_box_below_iou_threshold_is_corruption() {
        let orig = vec![det(0.0, 1, 0.9)];
        let corr = vec![det(8.0, 1, 0.9)]; // IoU = 2/18 < 0.5
        let d = image_delta(&orig, &corr, 0.5);
        assert!(d.is_corrupted());
    }

    #[test]
    fn ivmod_separates_sde_and_due() {
        let rows = vec![
            row(vec![det(0.0, 1, 0.9)], vec![det(0.0, 1, 0.9)], 0), // clean
            row(vec![det(0.0, 1, 0.9)], vec![det(40.0, 1, 0.9)], 0), // sde
            row(vec![det(0.0, 1, 0.9)], vec![det(0.0, 1, 0.9)], 3), // due
            row(vec![det(0.0, 1, 0.9)], vec![det(0.0, 1, f32::NAN)], 0), // due (nan score)
        ];
        let k = ivmod_kpis(&rows, 0.5);
        assert_eq!(k.ivmod_sde.hits, 1);
        assert_eq!(k.ivmod_due.hits, 2);
        assert_eq!(k.ivmod_sde.total, 4);
    }

    #[test]
    fn mean_fp_fn_average_over_corrupted_images_only() {
        let rows = vec![
            row(vec![det(0.0, 1, 0.9)], vec![det(0.0, 1, 0.9)], 0), // clean
            row(vec![], vec![det(0.0, 1, 0.9), det(40.0, 1, 0.8)], 0), // 2 FP
        ];
        let k = ivmod_kpis(&rows, 0.5);
        assert_eq!(k.mean_fp, 2.0);
        assert_eq!(k.mean_fn, 0.0);
    }

    #[test]
    fn empty_campaign_is_vacuous() {
        let k = ivmod_kpis(&[], 0.5);
        assert_eq!(k.ivmod_sde.total, 0);
        assert_eq!(k.mean_fp, 0.0);
    }
}
