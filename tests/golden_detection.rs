//! Golden-file lockdown of the two-stage and anchor/FPN detectors.
//!
//! Pins the artifacts of `FrcnnTwoStage` and `RetinaAnchor` campaigns
//! under `tests/golden/detection/{frcnn,retina}/{weights,neurons}/`: the
//! COCO ground truth, the fault-free and faulty detections, the KPI
//! summary (`write_detection_outputs`) and the binary `rows.alfic`
//! store. Every image gets two flips of the top exponent bit (30) in
//! weights or neurons, which push NaN and Inf values through proposal
//! selection, RoI pooling and score decoding; in the weight campaigns
//! a NaN score (two-stage) or NaN box (anchor/FPN) reaches the pinned
//! detections. The loader batches two images, and the sequential and
//! 3-thread drivers must reproduce the same bytes. `YoloGrid` is
//! pinned by `tests/golden_outputs.rs`.
//!
//! To bless new goldens after an intentional format change:
//!
//! ```text
//! ALFI_REGEN_GOLDEN=1 cargo test --test golden_detection
//! ```

use alfi::core::campaign::{DetectionCampaignResult, ObjDetCampaign, RunConfig};
use alfi::datasets::{DetectionDataset, DetectionLoader};
use alfi::eval::write_detection_outputs;
use alfi::nn::detection::{Detector, DetectorConfig, FrcnnTwoStage, RetinaAnchor};
use alfi::scenario::{ArtifactFormat, FaultCount, FaultMode, InjectionTarget, Scenario};
use std::path::{Path, PathBuf};

const FILES: [&str; 5] = [
    "ground_truth.json",
    "detections_orig.json",
    "detections_corr.json",
    "metrics.json",
    "rows.alfic",
];

const IMAGES: usize = 4;

fn golden_dir(model: &str, target: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("detection")
        .join(model)
        .join(target)
}

fn regen() -> bool {
    std::env::var_os("ALFI_REGEN_GOLDEN").is_some()
}

/// Compares `actual` against the pinned golden file. Under
/// `ALFI_REGEN_GOLDEN` the sequential run blesses the golden (`bless`)
/// and the 3-thread run must then reproduce those exact bytes.
fn assert_golden(dir: &Path, name: &str, actual: &[u8], context: &str, bless: bool) {
    let path = dir.join(name);
    if regen() && bless {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("[golden] regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run ALFI_REGEN_GOLDEN=1 cargo test --test golden_detection",
            path.display()
        )
    });
    if expected != actual {
        if name.ends_with(".alfic") {
            panic!(
                "golden mismatch for {} ({context}): {} golden vs {} actual bytes",
                path.display(),
                expected.len(),
                actual.len()
            );
        }
        let exp = String::from_utf8_lossy(&expected);
        let act = String::from_utf8_lossy(actual);
        panic!(
            "golden mismatch for {} ({context})\n--- golden ---\n{exp}\n--- actual ---\n{act}",
            path.display()
        );
    }
}

fn dcfg() -> DetectorConfig {
    // Low score threshold so the pinned JSONs contain actual boxes.
    DetectorConfig { input_hw: 32, width_mult: 0.25, score_thresh: 0.1, ..DetectorConfig::default() }
}

fn scenario(target: InjectionTarget, seed: u64) -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = IMAGES;
    s.batch_size = 2;
    s.injection_target = target;
    s.faults_per_image = FaultCount::Fixed(2);
    s.fault_mode = FaultMode::BitFlip { bit_range: (30, 30) };
    s.seed = seed;
    s
}

/// Runs one campaign with `threads` driver threads, persisting the
/// binary store and the detection JSON set into a fresh temp dir.
fn run<D: Detector>(
    det: D,
    s: Scenario,
    threads: usize,
    tag: &str,
) -> (DetectionCampaignResult, PathBuf) {
    let cfg = dcfg();
    let ds = DetectionDataset::new(IMAGES, cfg.num_classes, 3, 32, 23);
    let gt = ds.coco_ground_truth();
    let loader = DetectionLoader::new(ds, s.batch_size);
    let dir = std::env::temp_dir().join(format!("alfi_it_golden_det_{tag}_{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    let rc = RunConfig::new().threads(threads).save_dir(&dir).format(ArtifactFormat::Binary);
    let result = ObjDetCampaign::new(&det, s, loader).run_with(&rc).unwrap();
    write_detection_outputs(&result, &gt, cfg.num_classes, 0.5, &dir).unwrap();
    (result, dir)
}

/// Pins one detector × fault target at the sequential and 3-thread
/// drivers, and checks that the pinned run still drives non-finite
/// values through decode (so the golden keeps covering that path).
/// Returns the sequential run.
fn check<D: Detector>(
    model: &str,
    target: InjectionTarget,
    seed: u64,
    build: impl Fn() -> D,
) -> DetectionCampaignResult {
    let tname = match target {
        InjectionTarget::Weights => "weights",
        InjectionTarget::Neurons => "neurons",
    };
    let dir = golden_dir(model, tname);
    let mut sequential = None;
    for threads in [1usize, 3] {
        let tag = format!("{model}_{tname}");
        let (result, out) = run(build(), scenario(target, seed), threads, &tag);
        assert_eq!(result.rows.len(), IMAGES);
        assert!(
            result.rows.iter().any(|r| r.corr_nan + r.corr_inf > 0),
            "{model}/{tname}: no fault drove NaN/Inf through the networks"
        );
        assert!(
            result.rows.iter().any(|r| r.corr != r.orig),
            "{model}/{tname}: no fault changed a detection"
        );
        let context = format!("{threads}-thread run");
        for file in FILES {
            let bytes = std::fs::read(out.join(file)).unwrap();
            assert_golden(&dir, file, &bytes, &context, threads == 1);
        }
        let _ = std::fs::remove_dir_all(&out);
        sequential.get_or_insert(result);
    }
    sequential.expect("the sequential run ran")
}

/// Asserts that a NaN or Inf score or box coordinate survived decode
/// into a faulty detection.
fn assert_nonfinite_detection(result: &DetectionCampaignResult) {
    let reached = result
        .rows
        .iter()
        .flat_map(|r| &r.corr)
        .any(|d| !d.score.is_finite() || d.bbox.has_non_finite());
    assert!(reached, "no non-finite score or box reached the faulty detections");
}

#[test]
fn frcnn_weight_faults_match_goldens() {
    let result = check("frcnn", InjectionTarget::Weights, 0xF7C5, || FrcnnTwoStage::new(&dcfg()));
    assert_nonfinite_detection(&result);
}

#[test]
fn frcnn_neuron_faults_match_goldens() {
    check("frcnn", InjectionTarget::Neurons, 0xF7D4, || FrcnnTwoStage::new(&dcfg()));
}

#[test]
fn retina_weight_faults_match_goldens() {
    let result = check("retina", InjectionTarget::Weights, 0x2EE9, || RetinaAnchor::new(&dcfg()));
    assert_nonfinite_detection(&result);
}

#[test]
fn retina_neuron_faults_match_goldens() {
    check("retina", InjectionTarget::Neurons, 0x2E9B, || RetinaAnchor::new(&dcfg()));
}
