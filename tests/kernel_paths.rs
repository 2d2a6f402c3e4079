//! Strict kernel-path bit-identity on a full campaign.
//!
//! The blocked packed GEMM is contractually the *same function* as the
//! sequential reference kernels — so an entire injection campaign
//! (fault sampling, three-model coupling, outcome classification, CSV
//! encoding) must produce byte-identical artifacts whichever path
//! `gemm::set_kernel_override` pins, at every driver thread count. A
//! single bit of drift anywhere in a forward pass would cascade into
//! different top-1 labels, different SDE tallies and a visible CSV
//! diff here.
//!
//! The campaigns run inside one `#[test]`: the kernel override is
//! process-global, so concurrent test functions pinning different paths
//! would race. The other test checks that `alfi` rejects a misspelled
//! path variable, in a child process.

use alfi::core::campaign::{CsvVariant, ImgClassCampaign, RunConfig, VitCampaign};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};
use alfi::tensor::gemm::{self, KernelPath};
use alfi::tensor::Tensor;

fn scenario() -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = 6;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 0x5EED;
    s
}

/// A small but complete campaign: conv + linear layers, a hardened
/// (range-clamped) companion model, weight faults on every image.
fn campaign() -> ImgClassCampaign {
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.125, seed: 11, ..ModelConfig::default() };
    let model = alexnet(&mcfg);
    let ds = ClassificationDataset::new(6, mcfg.num_classes, 3, 16, 21);
    let calib: Vec<Tensor> = (0..3).map(|i| Tensor::stack(&[ds.get(i).image]).unwrap()).collect();
    let bounds = profile_bounds(&model, calib.iter()).unwrap();
    let hardened = harden(&model, &bounds, Protection::Ranger, 0.1).unwrap();
    let loader = ClassificationLoader::new(ds, 2);
    ImgClassCampaign::new(model, scenario(), loader).with_resil_model(hardened)
}

/// Runs `f` with the kernel override pinned to `path`, restoring the
/// previous selection afterwards.
fn with_kernel<R>(path: KernelPath, f: impl FnOnce() -> R) -> R {
    let prev = gemm::kernel_override();
    gemm::set_kernel_override(Some(path));
    let out = f();
    gemm::set_kernel_override(prev);
    out
}

fn run_csvs(path: KernelPath, threads: usize) -> (String, String) {
    let result =
        with_kernel(path, || campaign().run_with(&RunConfig::new().threads(threads)).unwrap());
    (result.to_csv(CsvVariant::Original), result.to_csv(CsvVariant::Corrupted))
}

/// The transformer campaign exercises kernel surfaces the CNN one
/// cannot: attention's Q·Kᵀ GEMM (transposed-`B` layout) and the
/// softmax(scores)·V GEMM over reused per-head buffers. A
/// reference-vs-blocked divergence in either showed up here as
/// different top-k rows.
fn vit_campaign() -> VitCampaign {
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 11, ..ModelConfig::default() };
    let ds = ClassificationDataset::new(6, mcfg.num_classes, 3, 16, 21);
    let loader = ClassificationLoader::new(ds, 2);
    VitCampaign::tiny(&mcfg, scenario(), loader)
}

fn run_vit_csvs(path: KernelPath, threads: usize) -> (String, String) {
    let result =
        with_kernel(path, || vit_campaign().run_with(&RunConfig::new().threads(threads)).unwrap());
    (result.to_csv(CsvVariant::Original), result.to_csv(CsvVariant::Corrupted))
}

#[test]
fn campaign_artifacts_are_bit_identical_across_kernel_paths() {
    // Single-thread reference run is the golden for everything else.
    let (orig, corr) = run_csvs(KernelPath::Reference, 1);
    assert!(orig.lines().count() > 1, "campaign produced no rows");

    for threads in [1usize, 2, 4, 7] {
        for path in [KernelPath::Reference, KernelPath::Blocked] {
            let (o, c) = run_csvs(path, threads);
            assert_eq!(
                orig, o,
                "fault-free CSV drifted: {path} kernel, {threads} threads"
            );
            assert_eq!(
                corr, c,
                "corrupted CSV drifted: {path} kernel, {threads} threads"
            );
        }
    }

    // Same contract for the transformer campaign.
    let (vorig, vcorr) = run_vit_csvs(KernelPath::Reference, 1);
    assert!(vorig.lines().count() > 1, "vit campaign produced no rows");
    for threads in [1usize, 4] {
        for path in [KernelPath::Reference, KernelPath::Blocked] {
            let (o, c) = run_vit_csvs(path, threads);
            assert_eq!(vorig, o, "vit fault-free CSV drifted: {path} kernel, {threads} threads");
            assert_eq!(vcorr, c, "vit corrupted CSV drifted: {path} kernel, {threads} threads");
        }
    }

    // Every run restored the ambient selection.
    assert!(gemm::kernel_override().is_none(), "a pinned kernel path leaked past its run");
}

/// A misspelled kernel-path variable fails `alfi` (exit 1, naming the
/// variable and the values it accepts) instead of running on the
/// default path; an accepted value in any case passes.
#[test]
fn the_cli_rejects_a_kernel_variable_value_it_does_not_accept() {
    let alfi = |var: &str, value: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_alfi"))
            .arg("help")
            .env_remove("ALFI_KERNEL")
            .env_remove("ALFI_KERNEL_PORTABLE")
            .env(var, value)
            .output()
            .unwrap()
    };
    for (var, value, accepted) in
        [("ALFI_KERNEL", "refrence", "reference|blocked"), ("ALFI_KERNEL_PORTABLE", "on", "1|true|yes")]
    {
        let out = alfi(var, value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {stderr}");
        assert!(stderr.contains(var) && stderr.contains(accepted), "{var}={value}: {stderr}");
    }
    for (var, value) in [("ALFI_KERNEL", "Reference"), ("ALFI_KERNEL_PORTABLE", "1")] {
        assert!(alfi(var, value).status.success(), "{var}={value}");
    }
}
