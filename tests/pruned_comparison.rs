//! Integration test: the "original vs pruned model robustness" use case
//! (§V) — identical fault files applied to both variants.

use alfi::analyze::report::analyze_result;
use alfi::core::campaign::{ImgClassCampaign, RunConfig};
use alfi::core::Ptfiwrap;
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::nn::prune::{magnitude_prune, sparsity};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};

fn mcfg() -> ModelConfig {
    ModelConfig { input_hw: 16, width_mult: 0.125, seed: 8, ..ModelConfig::default() }
}

fn scenario() -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = 20;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 55;
    s
}

#[test]
fn same_fault_matrix_drives_both_variants() {
    let model = alexnet(&mcfg());
    let pruned = magnitude_prune(&model, 0.5).unwrap();
    assert!((sparsity(&pruned) - 0.5).abs() < 0.02);

    // Generate once against the original, replay against the pruned
    // model: locations are identical, only the original values differ
    // (the pruned weight may be 0.0).
    let mut w_orig = Ptfiwrap::new(&model, scenario(), &mcfg().input_dims(1)).unwrap();
    let matrix = w_orig.fault_matrix().clone();
    let mut w_pruned =
        Ptfiwrap::with_fault_matrix(&pruned, scenario(), &mcfg().input_dims(1), matrix).unwrap();

    for _ in 0..5 {
        let fo = w_orig.next_faulty_model().unwrap();
        let fp = w_pruned.next_faulty_model().unwrap();
        let lo = fo.applied_faults();
        let lp = fp.applied_faults();
        assert_eq!(lo[0].record, lp[0].record, "identical fault locations");
    }
}

#[test]
fn pruned_campaign_runs_and_reports_kpis() {
    // The comparison workflow end to end: run the same scenario over
    // both variants and compare SDE rates. (With untrained weights the
    // *direction* of the difference is not asserted — only that both
    // campaigns complete and produce comparable, well-formed KPIs; the
    // framework's job is the comparison machinery.)
    let run = |net| {
        let ds = ClassificationDataset::new(20, mcfg().num_classes, 3, 16, 2);
        let loader = ClassificationLoader::new(ds, 1);
        let result = ImgClassCampaign::new(net, scenario(), loader).run_with(&RunConfig::default()).unwrap();
        analyze_result(&result).overall
    };
    let model = alexnet(&mcfg());
    let pruned = magnitude_prune(&model, 0.7).unwrap();
    let k_orig = run(model);
    let k_pruned = run(pruned);
    assert_eq!(k_orig.sdc_rate.total, 20);
    assert_eq!(k_pruned.sdc_rate.total, 20);
    // sanity: rates are valid probabilities with CIs
    for k in [&k_orig, &k_pruned] {
        assert!(k.sdc_rate.value <= 1.0 && k.sdc_rate.ci_low <= k.sdc_rate.ci_high);
    }
}

#[test]
fn faults_on_pruned_zero_weights_resurrect_values() {
    // A single exponent-bit flip on a zeroed (pruned) weight resurrects
    // it to 2^(2^(b-23) - 127): at most 2.0 for bit 30, down to 2^-126
    // for bit 23 — bounded, but nonzero. Pruning therefore does NOT make
    // a weight immune to faults; it only caps the blast radius of a
    // single flip. Mantissa flips on 0.0 only reach denormals.
    use alfi::tensor::bits;
    let zero = 0.0f32;
    assert_eq!(bits::flip_bit(zero, 30), 2.0);
    assert_eq!(bits::flip_bit(zero, 23), f32::from_bits(1 << 23)); // 2^-126
    assert!(bits::flip_bit(zero, 10).abs() < 1.0e-38, "mantissa flip is denormal");
    // Two simultaneous exponent flips compound multiplicatively:
    let double = bits::flip_bits(zero, &[30, 29]);
    assert!(double > 1.0e9, "bits 30+29 give exponent 0b11000000 -> 2^65");
}
