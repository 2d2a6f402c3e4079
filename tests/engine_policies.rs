//! Integration tests: fault-slot advancement through the shared
//! campaign engine, observed from the outside.
//!
//! The engine's [`SlotCursor`](alfi::core::campaign::SlotCursor) unit
//! tests pin the advancement rules in isolation; these tests pin them
//! end to end — multi-epoch `per_batch`/`per_epoch` slot assignment and
//! graceful truncated-replay-matrix termination for both campaign
//! types, through the public `run_with` API only.

use alfi::core::campaign::{ImgClassCampaign, ObjDetCampaign, RunConfig};
use alfi::core::CoreError;
use alfi::datasets::detection::DetectionDataset;
use alfi::datasets::{ClassificationDataset, ClassificationLoader, DetectionLoader};
use alfi::nn::detection::{DetectorConfig, YoloGrid};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{
    CiMethod, FaultDuration, FaultMode, InjectionPolicy, InjectionTarget, Scenario, ScenarioError,
    StopPolicy, StopScope,
};

fn model_cfg() -> ModelConfig {
    ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 7, ..ModelConfig::default() }
}

fn scenario(policy: InjectionPolicy, dataset_size: usize, batch_size: usize) -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = dataset_size;
    s.batch_size = batch_size;
    s.injection_policy = policy;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 0xA11F1;
    s
}

fn run_classification(s: Scenario) -> alfi::core::campaign::ClassificationCampaignResult {
    let mcfg = model_cfg();
    let ds = ClassificationDataset::new(s.dataset_size, mcfg.num_classes, 3, 16, 9);
    let loader = ClassificationLoader::new(ds, s.batch_size);
    ImgClassCampaign::new(alexnet(&mcfg), s, loader).run_with(&RunConfig::default()).unwrap()
}

#[test]
fn per_batch_consumes_one_slot_per_batch_across_epochs() {
    let mut s = scenario(InjectionPolicy::PerBatch, 6, 3);
    s.num_runs = 2;
    let result = run_classification(s);
    // 2 epochs × 2 batches × 3 images, every image processed.
    assert_eq!(result.rows.len(), 12);
    let m = &result.fault_matrix;
    for (i, row) in result.rows.iter().enumerate() {
        // Slot index == global batch index: epoch-crossing advancement.
        let slot = i / 3;
        let armed: Vec<_> = row.faults.iter().map(|a| a.record).collect();
        assert_eq!(armed, m.faults_for_slot(slot), "row {i} armed the wrong slot");
    }
}

#[test]
fn per_epoch_consumes_one_slot_per_epoch() {
    let mut s = scenario(InjectionPolicy::PerEpoch, 4, 2);
    s.num_runs = 3;
    let result = run_classification(s);
    assert_eq!(result.rows.len(), 12);
    let m = &result.fault_matrix;
    for (i, row) in result.rows.iter().enumerate() {
        let epoch = i / 4;
        let armed: Vec<_> = row.faults.iter().map(|a| a.record).collect();
        assert_eq!(armed, m.faults_for_slot(epoch), "row {i} armed the wrong slot");
    }
}

#[test]
fn truncated_replay_matrix_ends_classification_run_early() {
    // Generate a full matrix, replay a 4-slot prefix: the per_image run
    // must end gracefully after exactly 4 images, mid-batch.
    let s = scenario(InjectionPolicy::PerImage, 6, 3);
    let full = run_classification(s.clone());
    let mut matrix = full.fault_matrix.clone();
    matrix.records.truncate(4 * matrix.faults_per_image.max(1));

    let mcfg = model_cfg();
    let ds = ClassificationDataset::new(6, mcfg.num_classes, 3, 16, 9);
    let loader = ClassificationLoader::new(ds, 3);
    let result = ImgClassCampaign::new(alexnet(&mcfg), s, loader)
        .with_fault_matrix(matrix)
        .run_with(&RunConfig::default())
        .unwrap();
    assert_eq!(result.rows.len(), 4);
    for (a, b) in full.rows.iter().zip(result.rows.iter()) {
        assert_eq!(a.corr_top5, b.corr_top5, "replayed prefix must match the full run");
    }
}

#[test]
fn truncated_replay_matrix_stops_per_batch_reuse_scopes() {
    // One slot, two batches: batch 0 arms it, batch 1 finds the matrix
    // exhausted and the run ends (a pre-sized matrix bounds the run
    // even for scopes that would only reuse the armed slot).
    let s = scenario(InjectionPolicy::PerBatch, 6, 3);
    let full = run_classification(s.clone());
    let mut matrix = full.fault_matrix.clone();
    matrix.records.truncate(matrix.faults_per_image.max(1));

    let mcfg = model_cfg();
    let ds = ClassificationDataset::new(6, mcfg.num_classes, 3, 16, 9);
    let loader = ClassificationLoader::new(ds, 3);
    let result = ImgClassCampaign::new(alexnet(&mcfg), s, loader)
        .with_fault_matrix(matrix)
        .run_with(&RunConfig::default())
        .unwrap();
    assert_eq!(result.rows.len(), 3, "only the batch that armed the slot runs");
}

#[test]
fn stop_policy_truncates_to_a_strict_prefix_of_the_unbounded_run() {
    // A campaign-scope stop policy never skips scopes, so the truncated
    // run's rows must be a strict prefix of the unbounded run's —
    // identical faults armed, identical outputs — for both drivers.
    let s = scenario(InjectionPolicy::PerImage, 48, 1);
    let full = run_classification(s.clone());
    assert_eq!(full.rows.len(), 48);

    let policy = StopPolicy {
        half_width: 0.2,
        confidence: 0.95,
        min_samples: 16,
        check_every: 8,
        scope: StopScope::Campaign,
        method: CiMethod::Wilson,
    };
    for threads in [1usize, 4] {
        let mcfg = model_cfg();
        let ds = ClassificationDataset::new(48, mcfg.num_classes, 3, 16, 9);
        let loader = ClassificationLoader::new(ds, 1);
        let truncated = ImgClassCampaign::new(alexnet(&mcfg), s.clone(), loader)
            .run_with(&RunConfig::new().threads(threads).stop_policy(policy))
            .unwrap();
        assert!(
            truncated.rows.len() < full.rows.len(),
            "policy must truncate the run ({} threads)",
            threads
        );
        assert!(truncated.rows.len() >= policy.min_samples, "floor respected");
        for (i, (a, b)) in full.rows.iter().zip(truncated.rows.iter()).enumerate() {
            let full_faults: Vec<_> = a.faults.iter().map(|f| f.record).collect();
            let trunc_faults: Vec<_> = b.faults.iter().map(|f| f.record).collect();
            assert_eq!(full_faults, trunc_faults, "row {i} must arm the same faults");
            assert_eq!(a.corr_top5, b.corr_top5, "row {i} must match the unbounded run");
        }
    }
}

#[test]
fn truncated_replay_matrix_ends_detection_run_early() {
    let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
    let mut s = scenario(InjectionPolicy::PerImage, 4, 1);
    s.fault_mode = FaultMode::exponent_bit_flip();
    let run = |s: Scenario, matrix: Option<alfi::core::FaultMatrix>| {
        let det = YoloGrid::new(&dcfg);
        let ds = DetectionDataset::new(4, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, 1);
        let mut campaign = ObjDetCampaign::new(&det, s, loader);
        if let Some(m) = matrix {
            campaign = campaign.with_fault_matrix(m);
        }
        campaign.run_with(&RunConfig::default()).unwrap()
    };
    let full = run(s.clone(), None);
    assert_eq!(full.rows.len(), 4);
    let mut matrix = full.fault_matrix.clone();
    matrix.records.truncate(2 * matrix.faults_per_image.max(1));
    let truncated = run(s, Some(matrix));
    assert_eq!(truncated.rows.len(), 2);
    for (a, b) in full.rows.iter().zip(truncated.rows.iter()) {
        assert_eq!(a.corr, b.corr, "replayed prefix must match the full run");
    }
}

/// Every scope arms its own fault slot, so `fault_duration: permanent`
/// would run exactly like `transient`. Both campaign types refuse it
/// at one and two threads, before they create the save directory.
#[test]
fn permanent_fault_duration_is_rejected_before_the_run_starts() {
    let mut s = scenario(InjectionPolicy::PerImage, 4, 1);
    s.fault_duration = FaultDuration::Permanent;
    let mcfg = model_cfg();
    let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
    let det = YoloGrid::new(&dcfg);
    for threads in [1usize, 2] {
        let dir = std::env::temp_dir().join(format!("alfi_it_permanent_{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig::new().threads(threads).save_dir(&dir);
        let ds = ClassificationDataset::new(4, mcfg.num_classes, 3, 16, 9);
        let loader = ClassificationLoader::new(ds, 1);
        let classification =
            ImgClassCampaign::new(alexnet(&mcfg), s.clone(), loader).run_with(&cfg).map(|_| ());
        let loader = DetectionLoader::new(DetectionDataset::new(4, dcfg.num_classes, 3, 32, 3), 1);
        let detection = ObjDetCampaign::new(&det, s.clone(), loader).run_with(&cfg).map(|_| ());
        for (kind, result) in [("classification", classification), ("detection", detection)] {
            match result {
                Err(CoreError::Scenario(ScenarioError::InvalidField { field, .. })) => {
                    assert_eq!(field, "fault_duration", "{kind} at {threads} threads");
                }
                other => panic!("{kind} at {threads} threads: expected a scenario error: {other:?}"),
            }
        }
        assert!(!dir.exists(), "a rejected run must not create {}", dir.display());
    }
}
