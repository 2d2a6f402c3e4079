//! Detection result writers — the Fig. 3 output pipeline.
//!
//! The object-detection submodule stores three output sets per campaign
//! (§V-F-2): (a) COCO ground truth + meta-files, (b) intermediate result
//! JSONs with "predicted classes, scores, and bounding box location per
//! object" for the fault-free and corrupted passes, and (c) mAP / IVMOD
//! summary values. This module writes all three from a
//! [`DetectionCampaignResult`].

use crate::coco_map::{coco_metrics, CocoMetrics};
use crate::detection::{ivmod_kpis, IvmodKpis};
use alfi_core::campaign::{DetectionCampaignResult, DetectionRow};
use alfi_core::CoreError;
use alfi_datasets::{CocoGroundTruth, GroundTruthBox};
use alfi_nn::detection::Detection;
use alfi_serde::{json_struct, to_pretty, FromJson, Json};
use std::path::Path;

/// One image's predictions in the intermediate-result JSON files.
#[derive(Debug, Clone, PartialEq)]
pub struct ImagePredictions {
    /// Dataset image id.
    pub image_id: u64,
    /// Predicted objects.
    pub detections: Vec<Detection>,
}

json_struct!(ImagePredictions { image_id, detections });

/// A row's image id and one of its detection lists: the borrowed form
/// of [`ImagePredictions`], written as the same object.
struct PredictionsRef<'a> {
    image_id: u64,
    detections: &'a [Detection],
}

json_struct!(write PredictionsRef<'_> { image_id, detections });

/// The metrics summary JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionSummary {
    /// Detector model name.
    pub model: String,
    /// COCO metrics of the fault-free pass against ground truth.
    pub orig_coco: CocoMetrics,
    /// COCO metrics of the corrupted pass against ground truth.
    pub corr_coco: CocoMetrics,
    /// IVMOD rates of corrupted vs fault-free detections.
    pub ivmod: IvmodKpis,
}

json_struct!(DetectionSummary { model, orig_coco, corr_coco, ivmod });

/// Computes the summary metrics for a detection campaign.
pub fn detection_summary(
    result: &DetectionCampaignResult,
    num_classes: usize,
    iou_thresh: f32,
) -> DetectionSummary {
    let rows = &result.rows;
    let gts: Vec<&[GroundTruthBox]> = rows.iter().map(|r| r.ground_truth.as_slice()).collect();
    let per_image = |get: fn(&DetectionRow) -> &[Detection]| rows.iter().map(get).collect::<Vec<_>>();
    DetectionSummary {
        model: result.model_name.clone(),
        orig_coco: coco_metrics(&per_image(|r| &r.orig), &gts, num_classes),
        corr_coco: coco_metrics(&per_image(|r| &r.corr), &gts, num_classes),
        ivmod: ivmod_kpis(rows, iou_thresh),
    }
}

/// Writes the three Fig. 3 output sets into `dir`:
///
/// * `ground_truth.json` — COCO-format annotations (set a),
/// * `detections_orig.json` / `detections_corr.json` — per-image
///   intermediate results (set b),
/// * `metrics.json` — mAP + IVMOD summary (set c).
///
/// The replay set (`scenario.yml`, `faults.bin`, `trace.bin`) is the
/// campaign's to write: run it with
/// [`RunConfig::save_dir`](alfi_core::campaign::RunConfig::save_dir).
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failures.
pub fn write_detection_outputs(
    result: &DetectionCampaignResult,
    ground_truth: &CocoGroundTruth,
    num_classes: usize,
    iou_thresh: f32,
    dir: impl AsRef<Path>,
) -> Result<DetectionSummary, CoreError> {
    let dir = dir.as_ref();
    let write = |name: &str, text: String| {
        std::fs::write(dir.join(name), text).map_err(|e| CoreError::Io(e.to_string()))
    };
    std::fs::create_dir_all(dir).map_err(|e| CoreError::Io(e.to_string()))?;
    write("ground_truth.json", to_pretty(ground_truth))?;

    let preds = |get: fn(&DetectionRow) -> &[Detection]| {
        let rows = result.rows.iter();
        let preds: Vec<_> =
            rows.map(|r| PredictionsRef { image_id: r.image_id, detections: get(r) }).collect();
        to_pretty(&preds)
    };
    write("detections_orig.json", preds(|r| &r.orig))?;
    write("detections_corr.json", preds(|r| &r.corr))?;
    if result.rows.iter().any(|r| r.resil.is_some()) {
        write("detections_resil.json", preds(|r| r.resil.as_deref().unwrap_or_default()))?;
    }

    let summary = detection_summary(result, num_classes, iou_thresh);
    write("metrics.json", to_pretty(&summary))?;
    Ok(summary)
}

/// Parses a `detections_*.json` file back into per-image predictions.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on read failures or malformed JSON.
pub fn read_predictions(path: impl AsRef<Path>) -> Result<Vec<ImagePredictions>, CoreError> {
    let text = std::fs::read_to_string(path.as_ref()).map_err(|e| CoreError::Io(e.to_string()))?;
    let json = Json::parse(&text).map_err(|e| CoreError::Io(e.to_string()))?;
    FromJson::from_json(&json).map_err(|e| CoreError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_core::campaign::DetectionRow;
    use alfi_core::{FaultMatrix, RunTrace};
    use alfi_nn::detection::BBox;
    use alfi_scenario::{InjectionTarget, Scenario};

    fn det(x: f32, c: usize, s: f32) -> Detection {
        Detection { bbox: BBox::new(x, 0.0, x + 10.0, 10.0), score: s, class_id: c }
    }

    fn result() -> DetectionCampaignResult {
        DetectionCampaignResult {
            rows: vec![
                DetectionRow {
                    image_id: 0,
                    ground_truth: vec![GroundTruthBox { bbox: [0.0, 0.0, 10.0, 10.0], category_id: 1 }],
                    orig: vec![det(0.0, 1, 0.9)],
                    corr: vec![det(40.0, 1, 0.9)],
                    resil: None,
                    faults: vec![],
                    corr_nan: 0,
                    corr_inf: 0,
                },
                DetectionRow {
                    image_id: 1,
                    ground_truth: vec![GroundTruthBox { bbox: [5.0, 0.0, 10.0, 10.0], category_id: 0 }],
                    orig: vec![det(5.0, 0, 0.8)],
                    corr: vec![det(5.0, 0, 0.8)],
                    resil: None,
                    faults: vec![],
                    corr_nan: 0,
                    corr_inf: 0,
                },
            ],
            scenario: Scenario::default(),
            fault_matrix: FaultMatrix {
                records: vec![],
                target: InjectionTarget::Neurons,
                faults_per_image: 1,
            },
            trace: RunTrace::default(),
            model_name: "yolo_grid".into(),
        }
    }

    #[test]
    fn summary_reports_orig_better_than_corr() {
        let s = detection_summary(&result(), 2, 0.5);
        assert!(s.orig_coco.map_50 > s.corr_coco.map_50);
        assert_eq!(s.ivmod.ivmod_sde.hits, 1);
        assert_eq!(s.ivmod.ivmod_sde.total, 2);
    }

    #[test]
    fn all_three_output_sets_are_written_and_parse() {
        let dir = std::env::temp_dir().join("alfi_det_outputs");
        let _ = std::fs::remove_dir_all(&dir);
        let r = result();
        let gt = CocoGroundTruth::default();
        let summary = write_detection_outputs(&r, &gt, 2, 0.5, &dir).unwrap();
        let files = ["ground_truth.json", "detections_orig.json", "detections_corr.json", "metrics.json"];
        for f in files {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        // intermediate results round-trip
        let orig = read_predictions(dir.join("detections_orig.json")).unwrap();
        assert_eq!(orig.len(), 2);
        assert_eq!(orig[0].detections, r.rows[0].orig);
        // metrics parse back
        let text = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        let parsed: DetectionSummary = FromJson::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, summary);
    }

    #[test]
    fn read_predictions_rejects_garbage() {
        let dir = std::env::temp_dir().join("alfi_det_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bad.json");
        std::fs::write(&p, "{oops").unwrap();
        assert!(read_predictions(&p).is_err());
        assert!(read_predictions(dir.join("missing.json")).is_err());
    }
}
