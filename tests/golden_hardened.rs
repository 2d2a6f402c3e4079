//! Golden-file lockdown of Ranger-hardened campaign rows.
//!
//! Pins `results_orig.csv`, `results_corr.csv` and `results_resil.csv`
//! of two 32-image campaigns whose hardened twin comes from
//! `alfi_mitigation::harden` (bounds profiled on 4 images, Ranger,
//! margin 0.1, as `alfi classify --protect ranger` builds it) under
//! `tests/golden/hardened/`:
//!
//! - `vgg16/`: vgg16 ×0.125 under exponent-bit (23–30) weight faults;
//! - `vit/`: vit_tiny under exponent-bit (23–30) neuron faults. A
//!   guard that ran before its node's neuron faults would let some of
//!   them through, so this case pins where the guard sits: after the
//!   node's faults.
//!
//! Every pool width (1, 2, 4 and 7 threads) must reproduce the bytes.
//!
//! To bless new goldens after an intentional change:
//!
//! ```text
//! ALFI_REGEN_GOLDEN=1 cargo test --test golden_hardened
//! ```

use alfi::core::campaign::{ImgClassCampaign, RunConfig, VitCampaign};
use alfi::core::Artifacts;
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::models::{vgg16, vit_tiny, ModelConfig, VIT_TINY_DEPTH, VIT_TINY_HEADS};
use alfi::nn::Network;
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};
use alfi::tensor::Tensor;
use std::path::{Path, PathBuf};

const IMAGES: usize = 32;
const FILES: [&str; 3] = ["results_orig.csv", "results_corr.csv", "results_resil.csv"];

fn golden_dir(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join("hardened").join(case)
}

/// Compares `actual` with the pinned golden. Under `ALFI_REGEN_GOLDEN`
/// the 1-thread run blesses it; the other widths must then reproduce
/// those bytes within the same test run.
fn assert_golden(case: &str, name: &str, actual: &[u8], threads: usize) {
    let path = golden_dir(case).join(name);
    if std::env::var_os("ALFI_REGEN_GOLDEN").is_some() && threads == 1 {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("[golden] regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run ALFI_REGEN_GOLDEN=1 cargo test --test golden_hardened",
            path.display()
        )
    });
    if expected != actual {
        let exp = String::from_utf8_lossy(&expected);
        let act = String::from_utf8_lossy(actual);
        panic!(
            "golden mismatch for hardened/{case}/{name} ({threads}-thread run)\n\
             --- golden ---\n{exp}\n--- actual ---\n{act}"
        );
    }
}

/// The CLI's default classifier configuration.
fn model_config() -> ModelConfig {
    ModelConfig { input_hw: 32, width_mult: 0.125, seed: 0, ..ModelConfig::default() }
}

fn dataset(mcfg: &ModelConfig, seed: u64) -> ClassificationDataset {
    ClassificationDataset::new(IMAGES, mcfg.num_classes, mcfg.in_channels, mcfg.input_hw, seed)
}

/// The Ranger twin `alfi classify --protect ranger` builds: bounds from
/// the first 4 images, margin 0.1.
fn ranger_twin(model: &Network, ds: &ClassificationDataset) -> Network {
    let calib: Vec<Tensor> = (0..4).map(|i| Tensor::stack(&[ds.get(i).image]).unwrap()).collect();
    let bounds = profile_bounds(model, calib.iter()).unwrap();
    harden(model, &bounds, Protection::Ranger, 0.1).unwrap()
}

fn scenario(target: InjectionTarget, seed: u64) -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = IMAGES;
    s.injection_target = target;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = seed;
    s
}

/// Runs `run` into a fresh directory at `threads` and checks the three
/// row files against the goldens of `case`.
fn check(case: &str, threads: usize, run: impl Fn(&RunConfig)) {
    let dir = std::env::temp_dir().join(format!("alfi_it_golden_hardened_{case}_{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    run(&RunConfig::new().threads(threads).save_dir(&dir));
    let a = Artifacts::new(&dir);
    for (name, path) in FILES.iter().zip([a.rows_orig(), a.rows_corr(), a.rows_resil()]) {
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_golden(case, name, &bytes, threads);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ranger_vgg16_weight_rows_match_goldens_at_all_thread_counts() {
    let mcfg = model_config();
    let model = vgg16(&mcfg);
    let ds = dataset(&mcfg, 21);
    let twin = ranger_twin(&model, &ds);
    for threads in [1usize, 2, 4, 7] {
        check("vgg16", threads, |cfg| {
            let loader = ClassificationLoader::new(ds.clone(), 1);
            ImgClassCampaign::new(model.clone(), scenario(InjectionTarget::Weights, 23), loader)
                .with_resil_model(twin.clone())
                .run_with(cfg)
                .unwrap();
        });
    }
}

#[test]
fn ranger_vit_neuron_rows_match_goldens_at_all_thread_counts() {
    let mcfg = model_config();
    let model = vit_tiny(&mcfg);
    let ds = dataset(&mcfg, 22);
    let twin = ranger_twin(&model, &ds);
    for threads in [1usize, 2, 4, 7] {
        check("vit", threads, |cfg| {
            let loader = ClassificationLoader::new(ds.clone(), 1);
            let s = scenario(InjectionTarget::Neurons, 24);
            VitCampaign::new(model.clone(), VIT_TINY_DEPTH, VIT_TINY_HEADS, s, loader)
                .with_resil_model(twin.clone())
                .run_with(cfg)
                .unwrap();
        });
    }
}
