//! High-level object-detection campaign (the paper's
//! `TestErrorModels_ObjDet` workflow, Fig. 2b / Fig. 3 in miniature).
//!
//! Runs a YOLO-style detector under exponent-bit weight faults, computes
//! IVMOD_SDE / IVMOD_DUE and COCO mAP, and writes the Fig. 3 three-output
//! pipeline (ground truth JSON, per-pass detection JSONs, metrics JSON)
//! next to the campaign's replay set (scenario, fault matrix, trace) in
//! `target/alfi_runs/detection/`.
//!
//! Run with: `cargo run --release --example detection_campaign`
//!
//! `run_with(&RunConfig)` drives this campaign through the same shared
//! engine as the classification one (`classification_campaign`
//! example) — only the per-scope detector passes differ.

use alfi::core::campaign::{ObjDetCampaign, RunConfig};
use alfi::datasets::{DetectionDataset, DetectionLoader};
use alfi::eval::write_detection_outputs;
use alfi::nn::detection::{DetectorConfig, YoloGrid};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.25, seed: 2, ..DetectorConfig::default() };
    let detector = YoloGrid::new(&dcfg);

    let mut scenario = Scenario::default();
    scenario.dataset_size = 16;
    scenario.injection_target = InjectionTarget::Weights;
    scenario.fault_mode = FaultMode::exponent_bit_flip();
    scenario.seed = 9;

    let dataset = DetectionDataset::new(scenario.dataset_size, dcfg.num_classes, 3, 32, 7);
    let ground_truth = dataset.coco_ground_truth();
    let loader = DetectionLoader::new(dataset, scenario.batch_size);

    let out = std::path::Path::new("target/alfi_runs/detection");
    let result =
        ObjDetCampaign::new(&detector, scenario, loader).run_with(&RunConfig::new().save_dir(out))?;
    println!("campaign over {} images complete", result.rows.len());

    let summary = write_detection_outputs(&result, &ground_truth, dcfg.num_classes, 0.5, out)?;

    println!("\n=== detection KPIs ===");
    println!("model:           {}", summary.model);
    println!("IVMOD_SDE:       {}", summary.ivmod.ivmod_sde);
    println!("IVMOD_DUE:       {}", summary.ivmod.ivmod_due);
    println!("mean FP / image: {:.2}", summary.ivmod.mean_fp);
    println!("mean FN / image: {:.2}", summary.ivmod.mean_fn);
    println!("mAP@.50 orig:    {:.4}", summary.orig_coco.map_50);
    println!("mAP@.50 corr:    {:.4}", summary.corr_coco.map_50);

    println!("\noutputs written to {}", out.display());
    for entry in std::fs::read_dir(out)? {
        println!("  {}", entry?.file_name().to_string_lossy());
    }
    Ok(())
}
