//! Differential test of the two ways to build a classification report:
//! `analyze_result` over a campaign's in-memory result must equal
//! `analyze_dir` over the directory the same run saved, in every row,
//! rate and breakdown section. Both classify through `alfi-core`'s one
//! SDC/DUE/masked rule; this pins that the CSV reader, the store reader
//! and the in-memory fault keys agree with it and with each other.
//!
//! Each case runs in the CSV and the binary format at 1 and 7 threads:
//! exponent-bit weight faults with NaN/Inf rows, a `layers:` scenario
//! mixing four fault modes, a Ranger-hardened model, and
//! `scenarios/vit.yml` under a per-layer Wilson stop policy.

use alfi::analyze::report::{analyze_dir, analyze_result, DEFAULT_CONFIDENCE};
use alfi::analyze::CampaignReport;
use alfi::core::campaign::{
    ClassificationCampaignResult, ImgClassCampaign, RunConfig, VitCampaign,
};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{
    ArtifactFormat, CiMethod, FaultCount, FaultMode, InjectionTarget, LayerOverride, Scenario,
    StopPolicy, StopScope,
};
use alfi::tensor::Tensor;
use std::collections::BTreeMap;
use std::path::Path;

fn model_config() -> ModelConfig {
    ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 5, ..ModelConfig::default() }
}

fn loader(s: &Scenario) -> ClassificationLoader {
    let mcfg = model_config();
    let ds = ClassificationDataset::new(s.dataset_size, mcfg.num_classes, 3, 16, 17);
    ClassificationLoader::new(ds, s.batch_size)
}

fn assert_same(mem: &CampaignReport, disk: &CampaignReport, context: &str) {
    assert_eq!(mem.rows, disk.rows, "{context}: rows");
    assert_eq!(mem.overall, disk.overall, "{context}: overall");
    assert_eq!(mem.layers, disk.layers, "{context}: layers");
    assert_eq!(mem.bits, disk.bits, "{context}: bits");
    assert_eq!(mem.modes, disk.modes, "{context}: modes");
    assert_eq!(mem.cells, disk.cells, "{context}: cells");
    assert_eq!(mem.confidence, disk.confidence, "{context}: confidence");
    assert_eq!(mem.scenario, disk.scenario, "{context}: scenario");
}

/// Runs `run` in both row formats at 1 and 7 threads, asserting each
/// time that the in-memory report equals the saved directory's. Returns
/// the last run's result and report.
fn check(
    tag: &str,
    run: impl Fn(&RunConfig) -> ClassificationCampaignResult,
) -> (ClassificationCampaignResult, CampaignReport) {
    let mut last = None;
    for format in [ArtifactFormat::Csv, ArtifactFormat::Binary] {
        for threads in [1usize, 7] {
            let context = format!("{tag} {format:?} x{threads}");
            let dir = std::env::temp_dir()
                .join(format!("alfi_it_analyze_result_{tag}_{format:?}_{threads}"));
            let _ = std::fs::remove_dir_all(&dir);
            let result = run(&RunConfig::new().threads(threads).save_dir(&dir).format(format));
            let mem = analyze_result(&result);
            let disk = analyze_dir(&dir).unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_same(&mem, &disk, &context);
            assert_eq!(mem.rows as usize, result.rows.len(), "{context}");
            let _ = std::fs::remove_dir_all(&dir);
            last = Some((result, mem));
        }
    }
    last.unwrap()
}

#[test]
fn exponent_weight_faults_with_nan_and_inf_rows() {
    let mut s = Scenario::default();
    s.dataset_size = 12;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.faults_per_image = FaultCount::Fixed(32);
    s.seed = 41;
    let (result, report) = check("exponent", |cfg| {
        ImgClassCampaign::new(alexnet(&model_config()), s.clone(), loader(&s))
            .run_with(cfg)
            .unwrap()
    });
    assert!(result.rows.iter().any(|r| r.corr_nan > 0), "no NaN row");
    assert!(result.rows.iter().any(|r| r.corr_inf > 0), "no Inf row");
    assert!(result.rows.iter().any(|r| !r.corr_top5[0].1.is_finite()), "no non-finite top-1");
    assert!(report.overall.due > 0);
    assert_eq!(report.confidence, DEFAULT_CONFIDENCE);
}

#[test]
fn layers_scenario_covers_four_fault_modes() {
    let mut s = Scenario::default();
    s.dataset_size = 24;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 9;
    let mode = |rate: f64, mode: FaultMode| LayerOverride {
        rate: Some(rate),
        mode: Some(mode),
        ..Default::default()
    };
    s.layer_overrides = BTreeMap::from([
        ("1".to_string(), mode(0.2, FaultMode::StuckAt { bit_range: (23, 30), stuck_high: true })),
        ("2".to_string(), mode(0.2, FaultMode::RandomValue { min: -4.0, max: 4.0 })),
        (
            "3".to_string(),
            mode(0.2, FaultMode::QuantStep { bits: 8, amax: 4.0, bit_range: (0, 7) }),
        ),
    ]);
    let (_, report) = check("layers", |cfg| {
        ImgClassCampaign::new(alexnet(&model_config()), s.clone(), loader(&s))
            .run_with(cfg)
            .unwrap()
    });
    let modes: Vec<&str> = report.modes.iter().map(|(m, _)| m.as_str()).collect();
    assert_eq!(modes, vec!["bitflip", "quant", "replace", "stuck_at"]);
}

#[test]
fn ranger_hardened_campaign() {
    let mut s = Scenario::default();
    s.dataset_size = 10;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.faults_per_image = FaultCount::Fixed(4);
    s.seed = 13;
    let model = alexnet(&model_config());
    let ds = ClassificationDataset::new(4, model_config().num_classes, 3, 16, 3);
    let calib: Vec<Tensor> = (0..4).map(|i| Tensor::stack(&[ds.get(i).image]).unwrap()).collect();
    let bounds = profile_bounds(&model, calib.iter()).unwrap();
    let hardened = harden(&model, &bounds, Protection::Ranger, 0.1).unwrap();
    let (result, _) = check("ranger", |cfg| {
        ImgClassCampaign::new(model.clone(), s.clone(), loader(&s))
            .with_resil_model(hardened.clone())
            .run_with(cfg)
            .unwrap()
    });
    assert!(result.rows.iter().all(|r| r.resil_top5.is_some()));
}

#[test]
fn vit_scenario_takes_its_confidence_from_the_stop_policy() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios").join("vit.yml");
    let mut s = Scenario::load(path).unwrap();
    s.dataset_size = 24;
    s.stop_policy = Some(StopPolicy {
        half_width: 0.3,
        confidence: 0.9,
        min_samples: 2,
        check_every: 4,
        scope: StopScope::PerLayer,
        method: CiMethod::Wilson,
    });
    let (result, report) = check("vit", |cfg| {
        VitCampaign::tiny(&model_config(), s.clone(), loader(&s)).run_with(cfg).unwrap()
    });
    assert!(result.rows.len() < s.dataset_size, "the stop policy skipped retired strata");
    assert_eq!(report.confidence, 0.9);
    assert!(report.modes.iter().any(|(m, _)| m == "quant"), "the head's quant_step override ran");
}
