//! High-level image-classification campaign with mitigation comparison
//! (the paper's `TestErrorModels_ImgClass` workflow, Fig. 2a in
//! miniature).
//!
//! Runs fault-free, faulty and Ranger-hardened models in lock-step over a
//! synthetic dataset, prints SDE/DUE KPIs, and writes the paper's three
//! output sets (scenario YAML, binary fault files, CSV results) to
//! `target/alfi_runs/classification/`.
//!
//! Run with: `cargo run --release --example classification_campaign`
//!
//! `run_with(&RunConfig)` drives this campaign through the same shared
//! engine as the detection one (`detection_campaign` example) — only
//! the per-scope model passes differ.

use alfi::analyze::kpi::hardened_corruption_rate;
use alfi::analyze::report::analyze_result;
use alfi::core::campaign::{ImgClassCampaign, RunConfig};
use alfi::core::stats::Rate;
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::models::{vgg16, ModelConfig};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mcfg = ModelConfig { input_hw: 32, width_mult: 0.125, seed: 3, ..ModelConfig::default() };
    let model = vgg16(&mcfg);
    println!("model: vgg16 ({} injectable layers)", model.injectable_layers(None, None)?.len());

    // Scenario: exponent-bit weight flips, one per image.
    let mut scenario = Scenario::default();
    scenario.dataset_size = 24;
    scenario.injection_target = InjectionTarget::Weights;
    scenario.fault_mode = FaultMode::exponent_bit_flip();
    scenario.seed = 11;

    let dataset = ClassificationDataset::new(scenario.dataset_size, mcfg.num_classes, 3, 32, 5);
    let loader = ClassificationLoader::new(dataset.clone(), scenario.batch_size);

    // Profile healthy activation bounds on a few fault-free images, then
    // build the Ranger-hardened twin.
    let calib: Vec<_> = (0..4)
        .map(|i| {
            alfi::tensor::Tensor::stack(&[dataset.get(i).image]).expect("stack single image")
        })
        .collect();
    let bounds = profile_bounds(&model, calib.iter())?;
    let hardened = harden(&model, &bounds, Protection::Ranger, 0.1)?;
    println!("hardened model: {} nodes (original {})", hardened.num_nodes(), model.num_nodes());

    let out = std::path::Path::new("target/alfi_runs/classification");
    let mut campaign =
        ImgClassCampaign::new(model, scenario, loader).with_resil_model(hardened);
    let result = campaign.run_with(&RunConfig::new().save_dir(out))?;

    let overall = analyze_result(&result).overall;
    let rate = |hits: u64| Rate::from_counts(hits as usize, overall.samples as usize);
    let resil = hardened_corruption_rate(&result.rows);
    println!("\n=== campaign KPIs (top-1 criterion) ===");
    println!("SDE (no protection):  {}", rate(overall.sdc));
    println!("DUE (NaN/Inf):        {}", rate(overall.due));
    println!("masked:               {}", rate(overall.masked));
    println!("SDE (Ranger):         {resil}");
    println!("\noutputs written to {}", out.display());
    for entry in std::fs::read_dir(out)? {
        println!("  {}", entry?.file_name().to_string_lossy());
    }
    Ok(())
}
