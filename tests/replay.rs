//! Integration test: full persistence → replay round trip.
//!
//! The paper's central efficiency claim is reusability: "the identical
//! set of faults can be utilized across various experiments" (§IV-B) and
//! experiments can be replicated exactly from the persisted scenario YAML
//! and binary fault file. This test runs a campaign, persists everything,
//! reconstructs the world from files alone, and asserts bit-identical
//! results.

use alfi::core::campaign::{CsvVariant, ImgClassCampaign, RunConfig};
use alfi::core::{load_fault_matrix, Ptfiwrap, RunTrace};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};
use alfi::tensor::Tensor;

fn model_cfg() -> ModelConfig {
    ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 21, ..ModelConfig::default() }
}

fn scenario() -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = 5;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 2024;
    s
}

#[test]
fn campaign_replayed_from_files_is_bit_identical() {
    let dir = std::env::temp_dir().join("alfi_it_replay");
    let _ = std::fs::remove_dir_all(&dir);

    // First run: campaign + persist.
    let mcfg = model_cfg();
    let ds = ClassificationDataset::new(5, mcfg.num_classes, 3, 16, 3);
    let loader = ClassificationLoader::new(ds.clone(), 1);
    let result1 = ImgClassCampaign::new(alexnet(&mcfg), scenario(), loader)
        .run_with(&RunConfig::new().save_dir(&dir))
        .unwrap();

    // Second run: reconstruct scenario + fault matrix purely from disk.
    let s2 = Scenario::load(dir.join("scenario.yml")).unwrap();
    assert_eq!(s2, scenario());
    let matrix = load_fault_matrix(dir.join("faults.bin")).unwrap();
    assert_eq!(matrix, result1.fault_matrix);

    // Replaying with the loaded matrix must corrupt the exact same
    // weights to the exact same bit patterns.
    let model = alexnet(&mcfg);
    let mut wrapper =
        Ptfiwrap::with_fault_matrix(&model, s2.clone(), &mcfg.input_dims(1), matrix).unwrap();
    let trace1 = RunTrace::load(dir.join("trace.bin")).unwrap();
    let mut replayed = Vec::new();
    while let Ok(fm) = wrapper.next_faulty_model() {
        // materialize weight corruptions (weights are applied at arm time)
        replayed.extend(fm.applied_faults());
    }
    assert_eq!(replayed.len(), trace1.entries.len());
    for (r, t) in replayed.iter().zip(trace1.entries.iter()) {
        assert_eq!(r.record, t.applied.record);
        assert_eq!(r.original.to_bits(), t.applied.original.to_bits());
        assert_eq!(r.corrupted.to_bits(), t.applied.corrupted.to_bits());
        assert_eq!(r.direction, t.applied.direction);
    }

    // A second full campaign produces identical CSVs.
    let loader = ClassificationLoader::new(ds, 1);
    let result2 = ImgClassCampaign::new(alexnet(&mcfg), s2, loader).run_with(&RunConfig::default()).unwrap();
    assert_eq!(
        result1.to_csv(CsvVariant::Corrupted),
        result2.to_csv(CsvVariant::Corrupted)
    );
    assert_eq!(result1.trace, result2.trace);
}

#[test]
fn same_fault_file_transfers_to_a_hardened_model() {
    // The point of fault reuse: compare model variants under identical
    // faults. The corrupted coordinates and original values must match
    // between the original and hardened models (identical weights).
    let mcfg = model_cfg();
    let model = alexnet(&mcfg);
    let calib = [Tensor::ones(&mcfg.input_dims(1))];
    let bounds = alfi::mitigation::profile_bounds(&model, calib.iter()).unwrap();
    let hardened =
        alfi::mitigation::harden(&model, &bounds, alfi::mitigation::Protection::Ranger, 0.1)
            .unwrap();

    let mut w1 = Ptfiwrap::new(&model, scenario(), &mcfg.input_dims(1)).unwrap();
    let matrix = w1.fault_matrix().clone();
    let mut w2 =
        Ptfiwrap::with_fault_matrix(&hardened, scenario(), &mcfg.input_dims(1), matrix).unwrap();

    for _ in 0..3 {
        let f1 = w1.next_faulty_model().unwrap();
        let f2 = w2.next_faulty_model().unwrap();
        let a1 = f1.applied_faults();
        let a2 = f2.applied_faults();
        assert_eq!(a1.len(), a2.len());
        for (x, y) in a1.iter().zip(a2.iter()) {
            assert_eq!(x.record, y.record);
            assert_eq!(x.original.to_bits(), y.original.to_bits());
            assert_eq!(x.corrupted.to_bits(), y.corrupted.to_bits());
        }
    }
}

#[test]
fn corrupted_fault_file_is_rejected_not_replayed() {
    let dir = std::env::temp_dir().join("alfi_it_corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mcfg = model_cfg();
    let model = alexnet(&mcfg);
    let wrapper = Ptfiwrap::new(&model, scenario(), &mcfg.input_dims(1)).unwrap();
    let path = dir.join("faults.bin");
    alfi::core::save_fault_matrix(wrapper.fault_matrix(), &path).unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01; // single-bit file corruption
    std::fs::write(&path, &bytes).unwrap();
    let err = load_fault_matrix(&path).unwrap_err();
    assert!(err.to_string().contains("corrupt"), "{err}");
}
