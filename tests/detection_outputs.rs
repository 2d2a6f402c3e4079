//! Integration test: the Fig. 3 object-detection output contract.
//!
//! A detection campaign must emit three output sets — (a) COCO ground
//! truth + scenario meta, (b) per-pass intermediate detection JSONs,
//! (c) metric summary — all parseable, mutually consistent, and
//! sufficient to recompute the KPIs offline.

use alfi::core::campaign::{ObjDetCampaign, RunConfig};
use alfi::datasets::{CocoGroundTruth, DetectionDataset, DetectionLoader};
use alfi::eval::{ivmod_kpis, read_predictions, write_detection_outputs, DetectionSummary};
use alfi::nn::detection::{Detector, DetectorConfig, FrcnnTwoStage, RetinaAnchor, YoloGrid};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};

fn scenario(n: usize) -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = n;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 5;
    s
}

#[test]
fn fig3_three_output_sets_are_complete_and_consistent() {
    let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
    let det = YoloGrid::new(&dcfg);
    let ds = DetectionDataset::new(6, dcfg.num_classes, 3, 32, 1);
    let gt = ds.coco_ground_truth();
    let loader = DetectionLoader::new(ds, 1);
    let dir = std::env::temp_dir().join("alfi_it_fig3");
    let _ = std::fs::remove_dir_all(&dir);
    let result = ObjDetCampaign::new(&det, scenario(6), loader)
        .run_with(&RunConfig::new().save_dir(&dir))
        .unwrap();
    let summary = write_detection_outputs(&result, &gt, dcfg.num_classes, 0.5, &dir).unwrap();

    // Set (a): ground truth + meta.
    let gt_text = std::fs::read_to_string(dir.join("ground_truth.json")).unwrap();
    let gt_back = CocoGroundTruth::from_json(&gt_text).unwrap();
    assert_eq!(gt_back.images.len(), 6);
    assert!(!gt_back.annotations.is_empty());
    assert!(dir.join("scenario.yml").exists());
    assert!(dir.join("faults.bin").exists());
    assert!(dir.join("trace.bin").exists());

    // Set (b): intermediate per-pass results, aligned by image id.
    let orig = read_predictions(dir.join("detections_orig.json")).unwrap();
    let corr = read_predictions(dir.join("detections_corr.json")).unwrap();
    assert_eq!(orig.len(), 6);
    assert_eq!(corr.len(), 6);
    for (o, c) in orig.iter().zip(corr.iter()) {
        assert_eq!(o.image_id, c.image_id);
    }

    // Set (c): metrics parse and match an offline recomputation.
    let text = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
    let parsed: DetectionSummary =
        alfi_serde::FromJson::from_json(&alfi_serde::Json::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed, summary);
    let recomputed = ivmod_kpis(&result.rows, 0.5);
    assert_eq!(parsed.ivmod, recomputed);
}

#[test]
fn all_three_detector_families_run_campaigns() {
    for which in ["yolo", "retina", "frcnn"] {
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let ds = DetectionDataset::new(3, dcfg.num_classes, 3, 32, 2);
        let loader = DetectionLoader::new(ds, 1);
        let s = scenario(3);
        let rows = match which {
            "yolo" => {
                let d = YoloGrid::new(&dcfg);
                ObjDetCampaign::new(&d, s, loader).run_with(&RunConfig::default()).unwrap().rows
            }
            "retina" => {
                let d = RetinaAnchor::new(&dcfg);
                ObjDetCampaign::new(&d, s, loader).run_with(&RunConfig::default()).unwrap().rows
            }
            _ => {
                let d = FrcnnTwoStage::new(&dcfg);
                ObjDetCampaign::new(&d, s, loader).run_with(&RunConfig::default()).unwrap().rows
            }
        };
        assert_eq!(rows.len(), 3, "{which}");
        for row in &rows {
            assert_eq!(row.faults.len(), 1, "{which}: fault applied and logged");
        }
    }
}

#[test]
fn frcnn_faults_span_both_networks() {
    // The two-stage detector exposes backbone + head; a long campaign
    // with uniform layer selection should hit layers of both.
    let dcfg = DetectorConfig {
        input_hw: 32,
        width_mult: 0.125,
        score_thresh: 0.2,
        ..DetectorConfig::default()
    };
    let det = FrcnnTwoStage::new(&dcfg);
    let backbone_layers = det.networks()[0].injectable_layers(None, None).unwrap().len();
    let total_layers: usize =
        det.networks().iter().map(|n| n.injectable_layers(None, None).unwrap().len()).sum();
    assert!(total_layers > backbone_layers, "head must contribute layers");

    let ds = DetectionDataset::new(40, dcfg.num_classes, 3, 32, 2);
    let loader = DetectionLoader::new(ds, 1);
    let mut s = scenario(40);
    s.weighted_layer_selection = false;
    let result = ObjDetCampaign::new(&det, s, loader).run_with(&RunConfig::default()).unwrap();
    let mut hit_backbone = false;
    let mut hit_head = false;
    for row in &result.rows {
        for f in &row.faults {
            if f.record.layer < backbone_layers {
                hit_backbone = true;
            } else {
                hit_head = true;
            }
        }
    }
    assert!(hit_backbone && hit_head, "faults must reach both stages");
}

#[test]
fn exponent_faults_cause_some_detection_sdes() {
    // Shape check for Fig. 2b: a reasonable fraction of single
    // exponent-bit weight faults visibly changes the detection set.
    let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.25, ..DetectorConfig::default() };
    let det = YoloGrid::new(&dcfg);
    let ds = DetectionDataset::new(30, dcfg.num_classes, 3, 32, 4);
    let loader = DetectionLoader::new(ds, 1);
    let result = ObjDetCampaign::new(&det, scenario(30), loader).run_with(&RunConfig::default()).unwrap();
    let k = ivmod_kpis(&result.rows, 0.5);
    let corrupted = k.ivmod_sde.value + k.ivmod_due.value;
    assert!(corrupted > 0.0, "30 exponent faults should corrupt at least one image");
    assert!(k.ivmod_sde.value < 1.0, "not every fault should corrupt (masking exists)");
}
