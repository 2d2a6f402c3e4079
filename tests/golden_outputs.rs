//! Golden-file lockdown of campaign artifacts.
//!
//! Pins the exact text artifacts (CSV + JSON) of one classification
//! and one detection campaign under `tests/golden/`, and checks that
//! both the sequential drivers and the pool-backed parallel drivers
//! reproduce them byte-for-byte. Any change to fault sampling, kernel
//! summation order, CSV/JSON encoders or the campaign drivers shows
//! up as a readable text diff here.
//!
//! To bless new goldens after an intentional format change:
//!
//! ```text
//! ALFI_REGEN_GOLDEN=1 cargo test --test golden_outputs
//! ```

use alfi::core::campaign::{CsvVariant, ImgClassCampaign, ObjDetCampaign, RunConfig};
use alfi::datasets::{ClassificationDataset, ClassificationLoader, DetectionDataset, DetectionLoader};
use alfi::eval::write_detection_outputs;
use alfi::nn::detection::{DetectorConfig, YoloGrid};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};
use std::path::{Path, PathBuf};

fn golden_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(kind)
}

fn regen() -> bool {
    std::env::var_os("ALFI_REGEN_GOLDEN").is_some()
}

/// Compares `actual` against the pinned golden file, or rewrites the
/// golden when `ALFI_REGEN_GOLDEN` is set.
fn assert_golden(kind: &str, name: &str, actual: &[u8], context: &str) {
    let path = golden_dir(kind).join(name);
    if regen() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("[golden] regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run ALFI_REGEN_GOLDEN=1 cargo test --test golden_outputs",
            path.display()
        )
    });
    if expected != actual {
        let exp = String::from_utf8_lossy(&expected);
        let act = String::from_utf8_lossy(actual);
        panic!(
            "golden mismatch for {kind}/{name} ({context})\n--- golden ---\n{exp}\n--- actual ---\n{act}"
        );
    }
}

fn classification_scenario() -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = 4;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 0x601D;
    s
}

fn classification_campaign() -> ImgClassCampaign {
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 7, ..ModelConfig::default() };
    let ds = ClassificationDataset::new(4, mcfg.num_classes, 3, 16, 13);
    let loader = ClassificationLoader::new(ds, 2);
    ImgClassCampaign::new(alexnet(&mcfg), classification_scenario(), loader)
}

#[test]
fn classification_artifacts_match_goldens() {
    let seq = classification_campaign().run_with(&RunConfig::default()).unwrap();
    assert_golden(
        "classification",
        "results_orig.csv",
        seq.to_csv(CsvVariant::Original).as_bytes(),
        "sequential run",
    );
    assert_golden(
        "classification",
        "results_corr.csv",
        seq.to_csv(CsvVariant::Corrupted).as_bytes(),
        "sequential run",
    );
    assert_golden(
        "classification",
        "scenario.yml",
        seq.scenario.to_yaml_string().as_bytes(),
        "sequential run",
    );

    // The pool-backed parallel driver must hit the same goldens.
    for threads in [2usize, 5] {
        let par = classification_campaign().run_with(&RunConfig::new().threads(threads)).unwrap();
        assert_golden(
            "classification",
            "results_corr.csv",
            par.to_csv(CsvVariant::Corrupted).as_bytes(),
            &format!("{threads}-thread run"),
        );
    }
}

fn detection_scenario() -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = 3;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 0xD07;
    s
}

#[test]
fn detection_artifacts_match_goldens() {
    const FILES: [&str; 4] =
        ["ground_truth.json", "detections_orig.json", "detections_corr.json", "metrics.json"];
    // Low score threshold so the pinned JSONs contain actual boxes.
    let dcfg = DetectorConfig {
        input_hw: 32,
        width_mult: 0.125,
        score_thresh: 0.2,
        ..DetectorConfig::default()
    };

    let write = |threads: Option<usize>, tag: &str| {
        let det = YoloGrid::new(&dcfg);
        let ds = DetectionDataset::new(3, dcfg.num_classes, 3, 32, 17);
        let gt = ds.coco_ground_truth();
        let loader = DetectionLoader::new(ds, 1);
        let mut campaign = ObjDetCampaign::new(&det, detection_scenario(), loader);
        let result = match threads {
            None => campaign.run_with(&RunConfig::default()).unwrap(),
            Some(t) => campaign.run_with(&RunConfig::new().threads(t)).unwrap(),
        };
        let dir = std::env::temp_dir().join(format!("alfi_it_golden_det_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        write_detection_outputs(&result, &gt, dcfg.num_classes, 0.5, &dir).unwrap();
        dir
    };

    let dir = write(None, "seq");
    for file in FILES {
        assert_golden("detection", file, &std::fs::read(dir.join(file)).unwrap(), "sequential run");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let dir = write(Some(3), "par");
    for file in FILES {
        assert_golden("detection", file, &std::fs::read(dir.join(file)).unwrap(), "3-thread run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
