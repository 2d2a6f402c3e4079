//! # alfi-bench
//!
//! Experiment harness regenerating every table and figure of the
//! PyTorchALFI paper's evaluation (see DESIGN.md's experiment index).
//!
//! * `src/bin/repro_*` — binaries printing the full reproduced
//!   tables/series (`cargo run --release -p alfi-bench --bin repro_fig2a`);
//! * `benches/*` — micro/meso benchmarks on the in-tree [`timing`]
//!   harness, including the validation-efficiency comparison against
//!   the PyTorchFI-style baseline.
//!
//! The library part hosts the shared experiment drivers so binaries,
//! benches and tests run exactly the same code.

pub mod timing;

use alfi_analyze::kpi::hardened_corruption_rate;
use alfi_analyze::report::analyze_result;
use alfi_core::campaign::{ImgClassCampaign, ObjDetCampaign, RunConfig};
use alfi_core::stats::Rate;
use alfi_datasets::{ClassificationDataset, ClassificationLoader, DetectionDataset, DetectionLoader};
use alfi_eval::{ivmod_kpis, IvmodKpis};
use alfi_mitigation::{harden, profile_bounds, Protection};
use alfi_nn::detection::{Detector, DetectorConfig, FrcnnTwoStage, RetinaAnchor, YoloGrid};
use alfi_nn::models::{alexnet, resnet50, vgg16, ModelConfig};
use alfi_nn::Network;
use alfi_scenario::{FaultCount, FaultMode, InjectionTarget, Scenario};
use alfi_tensor::Tensor;

/// The three classification architectures of Fig. 2a.
pub const CLASSIFIERS: [&str; 3] = ["alexnet", "vgg16", "resnet50"];
/// The three detector architectures of Fig. 2b.
pub const DETECTORS: [&str; 3] = ["yolo_grid", "retina_anchor", "frcnn_two_stage"];
/// The two synthetic detection datasets standing in for CoCo/Kitti.
pub const DET_DATASETS: [&str; 2] = ["synth-coco", "synth-kitti"];

/// Scale knobs for experiments: `quick` keeps bench loops fast; the
/// repro binaries use `full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Images per campaign.
    pub images: usize,
    /// Input side length.
    pub input_hw: usize,
    /// Model width multiplier (×1/1000).
    pub width_permille: usize,
}

impl ExperimentScale {
    /// Small scale for CI/bench loops.
    pub fn quick() -> Self {
        ExperimentScale { images: 12, input_hw: 32, width_permille: 63 }
    }

    /// Larger scale for the printed reproduction runs.
    pub fn full() -> Self {
        ExperimentScale { images: 60, input_hw: 32, width_permille: 125 }
    }

    /// The width multiplier as f32.
    pub fn width_mult(&self) -> f32 {
        self.width_permille as f32 / 1000.0
    }
}

/// Builds one of the Fig. 2a classifiers by name.
///
/// # Panics
///
/// Panics on an unknown model name.
pub fn build_classifier(name: &str, scale: ExperimentScale, seed: u64) -> (Network, ModelConfig) {
    let cfg = ModelConfig {
        input_hw: scale.input_hw,
        width_mult: scale.width_mult(),
        seed,
        ..ModelConfig::default()
    };
    let net = match name {
        "alexnet" => alexnet(&cfg),
        "vgg16" => vgg16(&cfg),
        "resnet50" => resnet50(&cfg),
        other => panic!("unknown classifier `{other}`"),
    };
    (net, cfg)
}

/// Builds one of the Fig. 2b detectors by name.
///
/// # Panics
///
/// Panics on an unknown detector name.
pub fn build_detector(name: &str, scale: ExperimentScale, seed: u64) -> Box<dyn Detector> {
    let cfg = DetectorConfig {
        input_hw: scale.input_hw.max(32),
        width_mult: scale.width_mult().max(0.125),
        seed,
        ..DetectorConfig::default()
    };
    match name {
        "yolo_grid" => Box::new(YoloGrid::new(&cfg)),
        "retina_anchor" => Box::new(RetinaAnchor::new(&cfg)),
        "frcnn_two_stage" => Box::new(FrcnnTwoStage::new(&cfg)),
        other => panic!("unknown detector `{other}`"),
    }
}

/// Fig. 2a experiment point: SDE rate for one model / protection /
/// fault-count configuration under exponent-bit weight faults.
#[derive(Debug, Clone)]
pub struct Fig2aPoint {
    /// Model name.
    pub model: String,
    /// Protection applied (`None` = unprotected).
    pub protection: Option<Protection>,
    /// Simultaneous weight faults per image.
    pub faults_per_image: usize,
    /// SDE rate (plus Wilson CI).
    pub sde: Rate,
    /// DUE rate of the unprotected faulty pass.
    pub due: Rate,
    /// Total corruption rate: SDE + DUE for unprotected runs; equal to
    /// `sde` for protected runs (range supervision removes NaN/Inf by
    /// construction, converting residual damage into silent mispredictions).
    pub corrupted: Rate,
}

/// Runs one Fig. 2a experiment point.
///
/// # Panics
///
/// Panics on campaign errors (benchmark configurations are known-good).
pub fn run_fig2a_point(
    model_name: &str,
    protection: Option<Protection>,
    faults_per_image: usize,
    scale: ExperimentScale,
    seed: u64,
) -> Fig2aPoint {
    let (model, mcfg) = build_classifier(model_name, scale, seed);
    let ds = ClassificationDataset::new(scale.images, mcfg.num_classes, 3, scale.input_hw, seed);

    let mut scenario = Scenario::default();
    scenario.dataset_size = scale.images;
    scenario.injection_target = InjectionTarget::Weights;
    scenario.fault_mode = FaultMode::exponent_bit_flip();
    scenario.faults_per_image = FaultCount::Fixed(faults_per_image);
    scenario.seed = seed.wrapping_add(1);

    let loader = ClassificationLoader::new(ds.clone(), 1);
    let mut campaign = ImgClassCampaign::new(model.clone(), scenario, loader);
    if let Some(p) = protection {
        let calib: Vec<Tensor> = (0..4.min(scale.images))
            .map(|i| Tensor::stack(&[ds.get(i).image]).expect("stack"))
            .collect();
        let bounds = profile_bounds(&model, calib.iter()).expect("profiling succeeds");
        let hardened = harden(&model, &bounds, p, 0.1).expect("hardening succeeds");
        campaign = campaign.with_resil_model(hardened);
    }
    let result = campaign.run_with(&RunConfig::default()).expect("campaign succeeds");
    let overall = analyze_result(&result).overall;
    let rate = |hits: u64| Rate::from_counts(hits as usize, overall.samples as usize);
    let (sde, corrupted) = match protection {
        None => (rate(overall.sdc), rate(overall.sdc + overall.due)),
        Some(_) => {
            let r = hardened_corruption_rate(&result.rows);
            (r, r)
        }
    };
    Fig2aPoint {
        model: model_name.to_string(),
        protection,
        faults_per_image,
        sde,
        due: rate(overall.due),
        corrupted,
    }
}

/// Fig. 2b experiment point: IVMOD rates for one detector / dataset /
/// fault-count configuration.
#[derive(Debug, Clone)]
pub struct Fig2bPoint {
    /// Detector name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Simultaneous weight faults per image.
    pub faults_per_image: usize,
    /// IVMOD rates.
    pub ivmod: IvmodKpis,
}

/// Runs one Fig. 2b experiment point.
///
/// # Panics
///
/// Panics on campaign errors or unknown dataset names.
pub fn run_fig2b_point(
    detector_name: &str,
    dataset_name: &str,
    faults_per_image: usize,
    scale: ExperimentScale,
    seed: u64,
) -> Fig2bPoint {
    let detector = build_detector(detector_name, scale, seed);
    // The two synthetic datasets differ in class count and scene
    // statistics, standing in for CoCo (many small objects) vs Kitti
    // (fewer, larger objects).
    let (classes, ds_seed) = match dataset_name {
        "synth-coco" => (8usize, 100u64),
        "synth-kitti" => (3usize, 200u64),
        other => panic!("unknown dataset `{other}`"),
    };
    let hw = scale.input_hw.max(32);
    let ds = DetectionDataset::new(scale.images, classes, 3, hw, ds_seed);

    let mut scenario = Scenario::default();
    scenario.dataset_size = scale.images;
    scenario.injection_target = InjectionTarget::Weights;
    scenario.fault_mode = FaultMode::exponent_bit_flip();
    scenario.faults_per_image = FaultCount::Fixed(faults_per_image);
    scenario.seed = seed.wrapping_add(7);

    let loader = DetectionLoader::new(ds, 1);
    let result = ObjDetCampaign::new(detector.as_ref(), scenario, loader)
        .run_with(&RunConfig::default())
        .expect("campaign succeeds");
    Fig2bPoint {
        model: detector_name.to_string(),
        dataset: dataset_name.to_string(),
        faults_per_image,
        ivmod: ivmod_kpis(&result.rows, 0.5),
    }
}

/// Formats a rate as `12.3%` for table cells.
pub fn pct(rate: &Rate) -> String {
    format!("{:.1}%", rate.percent())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_point_runs_at_quick_scale() {
        let p = run_fig2a_point("alexnet", None, 1, ExperimentScale::quick(), 1);
        assert_eq!(p.sde.total, ExperimentScale::quick().images);
        assert!(p.sde.value <= 1.0);
    }

    #[test]
    fn fig2a_protected_point_reports_resil_rate() {
        let p = run_fig2a_point("alexnet", Some(Protection::Ranger), 10, ExperimentScale::quick(), 1);
        assert_eq!(p.protection, Some(Protection::Ranger));
        assert!(p.sde.total > 0);
    }

    #[test]
    fn fig2b_point_runs_at_quick_scale() {
        let p = run_fig2b_point("yolo_grid", "synth-coco", 1, ExperimentScale::quick(), 1);
        assert_eq!(p.ivmod.ivmod_sde.total, ExperimentScale::quick().images);
    }

    #[test]
    fn builders_cover_all_names() {
        for m in CLASSIFIERS {
            let (net, _) = build_classifier(m, ExperimentScale::quick(), 0);
            assert!(net.num_nodes() > 5);
        }
        for d in DETECTORS {
            let det = build_detector(d, ExperimentScale::quick(), 0);
            assert!(!det.networks().is_empty());
        }
    }
}
