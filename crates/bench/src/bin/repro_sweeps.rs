//! Reproduces the §V use-case sweeps (U1, U2a–U2d in DESIGN.md) as one
//! consolidated report:
//!
//! * U1  — random positions throughout the network (SDE probability + CI)
//! * U2a — layer-wise sensitivity
//! * U2b — faults-per-image escalation
//! * U2c — neuron vs weight faults
//! * U2d — bit-position sensitivity
//!
//! Run with: `cargo run --release -p alfi-bench --bin repro_sweeps`

use alfi_bench::{build_classifier, ExperimentScale};
use alfi_core::stats::Rate;
use alfi_core::Ptfiwrap;
use alfi_datasets::ClassificationDataset;
use alfi_nn::Network;
use alfi_scenario::{FaultCount, FaultMode, InjectionTarget, Scenario};
use alfi_tensor::Tensor;

/// Runs `n` single-image fault injections and counts top-1 SDEs
/// (non-finite outputs count as corrupted).
fn sde_count(model: &Network, wrapper: &mut Ptfiwrap, images: &[Tensor]) -> (usize, usize) {
    let mut sde = 0usize;
    let mut total = 0usize;
    for input in images {
        let Ok(fm) = wrapper.next_faulty_model() else { break };
        let orig = model.forward(input).expect("clean forward");
        let corr = fm.forward(input).expect("faulty forward");
        let o = orig.batch_item(0).expect("batch").argmax();
        let c = corr.batch_item(0).expect("batch").argmax();
        if o != c || corr.has_non_finite() {
            sde += 1;
        }
        total += 1;
    }
    (sde, total)
}

fn main() {
    let scale = ExperimentScale::full();
    let (model, mcfg) = build_classifier("alexnet", scale, 5);
    let ds = ClassificationDataset::new(scale.images, mcfg.num_classes, 3, scale.input_hw, 8);
    let images: Vec<Tensor> =
        (0..scale.images).map(|i| Tensor::stack(&[ds.get(i).image]).expect("stack")).collect();

    let base = |target: InjectionTarget| {
        let mut s = Scenario::default();
        s.dataset_size = scale.images;
        s.injection_target = target;
        s.fault_mode = FaultMode::exponent_bit_flip();
        s.seed = 99;
        s
    };

    // U1: random positions throughout the network.
    println!("=== U1: random exponent-bit weight faults throughout alexnet ===");
    let mut wrapper = Ptfiwrap::new(&model, base(InjectionTarget::Weights), &mcfg.input_dims(1))
        .expect("wrapper");
    let (sde, total) = sde_count(&model, &mut wrapper, &images);
    println!("SDE probability: {}\n", Rate::from_counts(sde, total));

    // U2a: layer sweep.
    println!("=== U2a: layer-wise sensitivity ===");
    println!("{:<6} {:<22} {:>9}", "layer", "name", "SDE");
    let num_layers = model.injectable_layers(None, None).expect("layers").len();
    for layer in 0..num_layers {
        let mut s = base(InjectionTarget::Weights);
        s.layer_range = Some((layer, layer));
        s.weighted_layer_selection = false;
        let mut wrapper = Ptfiwrap::new(&model, s, &mcfg.input_dims(1)).expect("wrapper");
        let name = wrapper.targets()[0].name.clone();
        let (sde, total) = sde_count(&model, &mut wrapper, &images);
        println!("{:<6} {:<22} {:>4}/{:<4}", layer, name, sde, total);
    }

    // U2b: faults-per-image escalation.
    println!("\n=== U2b: faults-per-image escalation ===");
    println!("{:<8} {:>9}", "faults", "SDE");
    for k in [1usize, 2, 5, 10, 20, 50, 100] {
        let mut s = base(InjectionTarget::Weights);
        s.faults_per_image = FaultCount::Fixed(k);
        let mut wrapper = Ptfiwrap::new(&model, s, &mcfg.input_dims(1)).expect("wrapper");
        let (sde, total) = sde_count(&model, &mut wrapper, &images);
        println!("{:<8} {:>4}/{:<4}", k, sde, total);
    }

    // U2c: neuron vs weight faults.
    println!("\n=== U2c: neuron vs weight faults (single exponent-bit flip) ===");
    for target in [InjectionTarget::Weights, InjectionTarget::Neurons] {
        let mut wrapper = Ptfiwrap::new(&model, base(target), &mcfg.input_dims(1)).expect("wrapper");
        let (sde, total) = sde_count(&model, &mut wrapper, &images);
        println!("{:<9} SDE {}", target.to_string(), Rate::from_counts(sde, total));
    }

    // U2d: bit-position sweep (grouped by field to stay compact).
    println!("\n=== U2d: bit-position sensitivity (weight faults) ===");
    println!("{:<12} {:>9}", "bits", "SDE");
    for (label, lo, hi) in [
        ("mantissa 0-10", 0u8, 10u8),
        ("mantissa 11-22", 11, 22),
        ("exponent 23-26", 23, 26),
        ("exponent 27-30", 27, 30),
        ("sign 31", 31, 31),
    ] {
        let mut s = base(InjectionTarget::Weights);
        s.fault_mode = FaultMode::BitFlip { bit_range: (lo, hi) };
        let mut wrapper = Ptfiwrap::new(&model, s, &mcfg.input_dims(1)).expect("wrapper");
        let (sde, total) = sde_count(&model, &mut wrapper, &images);
        println!("{:<14} {:>4}/{:<4}", label, sde, total);
    }
    println!("\nexpected shape: high exponent bits dominate; low mantissa bits are masked.");
}
