#![warn(missing_docs)]
//! # alfi-eval
//!
//! Object-detection KPIs for ALFI fault-injection campaigns — the
//! paper's "commonly used and new KPIs are automatically calculated at
//! the end of test runs" (§I) for detectors. Classification outcomes,
//! rates and breakdowns live in `alfi-core` (the SDC/DUE/masked rule
//! and [`Rate`](alfi_core::stats::Rate)) and `alfi-analyze` (reports
//! and row KPIs).
//!
//! * [`detection`] — the IVMOD image-wise vulnerability metric (Fig. 2b);
//! * [`coco_map`] — COCO-style AP / mAP / AR (§V-E);
//! * [`writers`] — the Fig. 3 three-output-set JSON pipeline.

pub mod coco_map;
pub mod detection;
pub mod writers;

pub use coco_map::{
    average_precision, coco_iou_grid, coco_metrics, precision_recall_curve, recall, CocoMetrics,
};
pub use detection::{image_delta, ivmod_kpis, ImageDelta, IvmodKpis};
pub use writers::{
    detection_summary, read_predictions, write_detection_outputs, DetectionSummary,
    ImagePredictions,
};
