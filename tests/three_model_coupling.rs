//! Integration test: tight coupling of fault-free, faulty and hardened
//! models — the paper's headline feature ("enables synchronized
//! inference and results in logging of separate DNN instances").
//!
//! Also checks the *direction* of the protection effect: under many
//! high-exponent weight faults, the Ranger-hardened model must show a
//! markedly lower SDE rate than the unprotected one (the Fig. 2a
//! relationship).

use alfi::analyze::kpi::hardened_corruption_rate;
use alfi::analyze::report::analyze_result;
use alfi::core::campaign::{ImgClassCampaign, RunConfig};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{FaultCount, FaultMode, InjectionTarget, Scenario};
use alfi::tensor::Tensor;

fn run_protected_campaign(protection: Protection, faults_per_image: usize) -> (f64, f64, usize) {
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.125, seed: 4, ..ModelConfig::default() };
    let model = alexnet(&mcfg);
    let n_images = 30;
    let ds = ClassificationDataset::new(n_images, mcfg.num_classes, 3, 16, 9);

    // Profile bounds on fault-free data.
    let calib: Vec<Tensor> =
        (0..6).map(|i| Tensor::stack(&[ds.get(i).image]).unwrap()).collect();
    let bounds = profile_bounds(&model, calib.iter()).unwrap();
    let hardened = harden(&model, &bounds, protection, 0.1).unwrap();

    let mut s = Scenario::default();
    s.dataset_size = n_images;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.faults_per_image = FaultCount::Fixed(faults_per_image);
    s.seed = 31;

    let loader = ClassificationLoader::new(ds, 1);
    let result = ImgClassCampaign::new(model, s, loader)
        .with_resil_model(hardened)
        .run_with(&RunConfig::default())
        .unwrap();

    let overall = analyze_result(&result).overall;
    let resil = hardened_corruption_rate(&result.rows);
    // corrupted-outcome share (SDE + DUE) for the unprotected model
    let unprotected = overall.sdc_rate.value + overall.due_rate.value;
    (unprotected, resil.value, result.rows.len())
}

#[test]
fn ranger_protection_reduces_corruption_under_heavy_faults() {
    // 30 simultaneous exponent-bit faults per image: the unprotected
    // model corrupts on most images; Ranger should absorb most of it.
    let (unprotected, protected, n) = run_protected_campaign(Protection::Ranger, 30);
    assert_eq!(n, 30);
    assert!(
        unprotected > 0.3,
        "heavy exponent faults should corrupt the unprotected model often, got {unprotected}"
    );
    assert!(
        protected < unprotected,
        "ranger ({protected}) must beat unprotected ({unprotected})"
    );
    assert!(
        protected <= unprotected * 0.6,
        "ranger should remove a large share of corruptions: {protected} vs {unprotected}"
    );
}

#[test]
fn clipper_also_protects() {
    let (unprotected, protected, _) = run_protected_campaign(Protection::Clipper, 30);
    assert!(protected < unprotected, "clipper ({protected}) vs unprotected ({unprotected})");
}

#[test]
fn all_three_outputs_are_logged_per_image() {
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 4, ..ModelConfig::default() };
    let model = alexnet(&mcfg);
    let ds = ClassificationDataset::new(4, mcfg.num_classes, 3, 16, 9);
    let calib = [Tensor::stack(&[ds.get(0).image]).unwrap()];
    let bounds = profile_bounds(&model, calib.iter()).unwrap();
    let hardened = harden(&model, &bounds, Protection::Ranger, 0.1).unwrap();

    let mut s = Scenario::default();
    s.dataset_size = 4;
    s.injection_target = InjectionTarget::Weights;
    let loader = ClassificationLoader::new(ds, 1);
    // the resil CSV exists only because resil outputs exist
    let dir = std::env::temp_dir().join("alfi_it_threemodel");
    let _ = std::fs::remove_dir_all(&dir);
    let result = ImgClassCampaign::new(model, s, loader)
        .with_resil_model(hardened)
        .run_with(&RunConfig::new().save_dir(&dir))
        .unwrap();

    for row in &result.rows {
        assert_eq!(row.orig_top5.len(), 5);
        assert_eq!(row.corr_top5.len(), 5);
        assert_eq!(row.resil_top5.as_ref().map(Vec::len), Some(5));
        assert_eq!(row.faults.len(), 1);
    }
    assert!(dir.join("results_resil.csv").exists());
}

#[test]
fn protection_is_transparent_without_faults() {
    // With zero faults per image the hardened model must agree with the
    // original on every prediction (margin keeps healthy values inside).
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 4, ..ModelConfig::default() };
    let model = alexnet(&mcfg);
    let ds = ClassificationDataset::new(10, mcfg.num_classes, 3, 16, 9);
    let calib: Vec<Tensor> =
        (0..10).map(|i| Tensor::stack(&[ds.get(i).image]).unwrap()).collect();
    let bounds = profile_bounds(&model, calib.iter()).unwrap();
    let hardened = harden(&model, &bounds, Protection::Ranger, 0.1).unwrap();
    for x in &calib {
        let a = model.forward(x).unwrap();
        let b = hardened.forward(x).unwrap();
        assert_eq!(
            a.batch_item(0).unwrap().argmax(),
            b.batch_item(0).unwrap().argmax()
        );
    }
}
