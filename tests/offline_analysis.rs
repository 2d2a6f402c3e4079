//! Integration test: the offline post-processing loop — persist a
//! campaign's outputs, then recompute the paper's layer-wise / bit-wise
//! breakdowns from the saved directory alone (CSV + binary trace).

use alfi::analyze::kpi::flip_directions;
use alfi::analyze::report::analyze_dir;
use alfi::core::campaign::{CsvVariant, ImgClassCampaign, RunConfig};
use alfi::core::RunTrace;
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{FaultCount, FaultMode, InjectionTarget, Scenario};
use alfi::tensor::bits::BitField;
use std::collections::BTreeMap;

#[test]
fn persisted_outputs_support_full_offline_analysis() {
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.125, seed: 3, ..ModelConfig::default() };
    let mut s = Scenario::default();
    s.dataset_size = 20;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::any_bit_flip();
    s.faults_per_image = FaultCount::Fixed(2);
    s.seed = 77;
    let ds = ClassificationDataset::new(20, mcfg.num_classes, 3, 16, 4);
    let loader = ClassificationLoader::new(ds, 1);
    let dir = std::env::temp_dir().join("alfi_it_offline");
    let _ = std::fs::remove_dir_all(&dir);
    let result = ImgClassCampaign::new(alexnet(&mcfg), s, loader)
        .run_with(&RunConfig::new().save_dir(&dir))
        .unwrap();

    // (1) The saved CSVs are exactly the in-memory rows rendered: the
    // fault-free file and the corrupted one each carry their own top-5
    // and the faults of the corrupted pass.
    for (file, variant) in
        [("results_orig.csv", CsvVariant::Original), ("results_corr.csv", CsvVariant::Corrupted)]
    {
        let saved = std::fs::read_to_string(dir.join(file)).unwrap();
        assert_eq!(saved, result.to_csv(variant), "{file}");
    }

    // (2) Trace reload: every applied fault is recoverable bit-exactly.
    let trace = RunTrace::load(dir.join("trace.bin")).unwrap();
    assert_eq!(trace.entries.len(), 40); // 20 images * 2 faults
    let in_memory: Vec<_> = result.rows.iter().flat_map(|r| r.faults.iter()).collect();
    for (t, m) in trace.entries.iter().zip(in_memory) {
        assert_eq!(t.applied.record, m.record);
        assert_eq!(t.applied.corrupted.to_bits(), m.corrupted.to_bits());
    }

    // (3) The per-layer breakdown, read from the directory alone,
    // attributes every fault to its layer: a row counts once per fault.
    let report = analyze_dir(&dir).unwrap();
    assert_eq!(report.rows, 20);
    let by_layer: BTreeMap<usize, u64> =
        report.layers.iter().map(|(l, b)| (*l, b.samples)).collect();
    assert_eq!(by_layer.values().sum::<u64>(), 40);
    let mut fault_layers = BTreeMap::new();
    for fault in result.rows.iter().flat_map(|r| &r.faults) {
        *fault_layers.entry(fault.record.layer).or_insert(0u64) += 1;
    }
    assert_eq!(by_layer, fault_layers);

    // (4) Bit-position and bit-field breakdowns cover every bit-flip
    // fault; the field split derives from the per-bit section.
    assert_eq!(report.bits.iter().map(|(_, b)| b.samples).sum::<u64>(), 40);
    let mut by_field: BTreeMap<String, u64> = BTreeMap::new();
    for (bit, b) in &report.bits {
        *by_field.entry(BitField::of(*bit as u8).to_string()).or_default() += b.samples;
    }
    assert_eq!(by_field.values().sum::<u64>(), 40, "all faults were bit flips");
    assert!(by_field.keys().all(|f| ["exponent", "mantissa", "sign"].contains(&f.as_str())));

    // (5) The flip-direction split (recorded in the trace, not the CSV)
    // covers the same 40 bit flips.
    let dirs = flip_directions(&result.rows);
    assert_eq!(dirs.zero_to_one.samples + dirs.one_to_zero.samples, 40);
}
