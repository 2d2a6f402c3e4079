//! Reproduces the paper's *validation-efficiency* claims (E1 in
//! DESIGN.md): ALFI's pre-generated, persistable fault matrix versus the
//! PyTorchFI-style ad-hoc baseline.
//!
//! Measures, on the same model and fault budget:
//! 1. fault preparation cost — ALFI pays once up front, the baseline
//!    re-samples per inference;
//! 2. per-inference injection overhead relative to a clean forward pass;
//! 3. replay cost — ALFI reloads its binary fault file; the baseline has
//!    nothing to reload and must regenerate + rerun.
//!
//! Run with: `cargo run --release -p alfi-bench --bin repro_efficiency`

use alfi_bench::{build_classifier, ExperimentScale};
use alfi_core::baseline::AdHocInjector;
use alfi_core::{decode_fault_matrix, encode_fault_matrix, FaultMatrix, Ptfiwrap};
use alfi_core::resolve_targets;
use alfi_scenario::{FaultCount, FaultMode, InjectionTarget, Scenario};
use alfi_tensor::Tensor;
use std::time::Instant;

fn main() {
    let scale = ExperimentScale::full();
    let (model, mcfg) = build_classifier("vgg16", scale, 3);
    let input = Tensor::ones(&mcfg.input_dims(1));
    let n_inferences = 40usize;

    let mut scenario = Scenario::default();
    scenario.dataset_size = n_inferences;
    scenario.injection_target = InjectionTarget::Weights;
    scenario.fault_mode = FaultMode::exponent_bit_flip();
    scenario.faults_per_image = FaultCount::Fixed(1);

    println!("=== E1: validation efficiency, ALFI vs PyTorchFI-style baseline ===");
    println!("model vgg16 (width x{:.3}), {n_inferences} fault-injected inferences\n", scale.width_mult());

    // Clean inference reference.
    let t0 = Instant::now();
    for _ in 0..n_inferences {
        model.forward(&input).expect("clean forward");
    }
    let clean = t0.elapsed();
    println!("clean inference:            {:>10.1?} total, {:>9.2?}/img", clean, clean / n_inferences as u32);

    // (1) Fault preparation.
    let targets = resolve_targets(&[&model], &scenario, &[Some(mcfg.input_dims(1))]).unwrap();
    let t0 = Instant::now();
    let matrix = FaultMatrix::generate(&scenario, &targets).unwrap();
    let gen_time = t0.elapsed();
    // Large-scale generation throughput:
    let mut big = scenario.clone();
    big.dataset_size = 100_000;
    let t0 = Instant::now();
    let big_matrix = FaultMatrix::generate(&big, &targets).unwrap();
    let big_time = t0.elapsed();
    println!(
        "ALFI fault pre-generation:  {:>10.1?} for {} faults ({:.0} faults/ms at 100k scale)",
        gen_time,
        matrix.len(),
        big_matrix.len() as f64 / big_time.as_millis().max(1) as f64
    );

    // (2) Injection overhead: ALFI replays each slot as a fault plan
    // over the wrapper's shared model.
    let mut wrapper =
        Ptfiwrap::with_fault_matrix(&model, scenario.clone(), &mcfg.input_dims(1), matrix.clone())
            .unwrap();
    let t0 = Instant::now();
    let mut produced = 0usize;
    while let Ok(fm) = wrapper.next_faulty_model() {
        fm.forward(&input).expect("faulty forward");
        produced += 1;
    }
    let alfi_time = t0.elapsed();
    println!(
        "ALFI faulty inference:      {:>10.1?} total, {:>9.2?}/img ({:.1}% over clean)",
        alfi_time,
        alfi_time / produced as u32,
        (alfi_time.as_secs_f64() / clean.as_secs_f64() - 1.0) * 100.0
    );

    // Baseline: sample-on-the-fly per inference.
    let mut adhoc = AdHocInjector::new(&model, scenario.clone(), &mcfg.input_dims(1)).unwrap();
    let t0 = Instant::now();
    for _ in 0..n_inferences {
        adhoc.run_once(&model, &input, 1).expect("adhoc run");
    }
    let adhoc_time = t0.elapsed();
    println!(
        "baseline faulty inference:  {:>10.1?} total, {:>9.2?}/img ({:.1}% over clean)",
        adhoc_time,
        adhoc_time / n_inferences as u32,
        (adhoc_time.as_secs_f64() / clean.as_secs_f64() - 1.0) * 100.0
    );

    // (3) Replay: ALFI re-loads its binary artifact; equality is free.
    let bytes = encode_fault_matrix(&matrix);
    let t0 = Instant::now();
    let reloaded = decode_fault_matrix(&bytes).unwrap();
    let decode_time = t0.elapsed();
    assert_eq!(reloaded, matrix);
    println!(
        "\nALFI replay artifact:       {} bytes, decoded+verified in {:?};",
        bytes.len(),
        decode_time
    );
    println!("baseline artifact:          none — identical re-runs impossible without");
    println!("                            re-executing the entire campaign in order.");
}
