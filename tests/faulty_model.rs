//! The faulty models of `Ptfiwrap` against the clone-and-arm reference.
//!
//! A `FaultyModel` runs its active fault records through a `FaultPlan`
//! over the wrapper's shared, pristine model. For every slot of a
//! scenario, its output and its applied-fault log must equal those of
//! the reference: `Network::clone`, `arm_faults` with the same active
//! records, then `Network::forward`. The slots cover weight and neuron
//! faults, transient and accumulating permanent faults, and neuron
//! coordinates that miss a batch-1 input, on both kernel paths, for a
//! 2-D and a 3-D CNN.
//!
//! The kernel-path override is process-global, so only one test here
//! sets it; the others do not depend on the path (both are bit-exact).

use alfi::core::{arm_faults, AppliedFault, Ptfiwrap};
use alfi::datasets::ClassificationDataset;
use alfi::nn::models::{alexnet, c3d, C3dConfig, ModelConfig};
use alfi::nn::Network;
use alfi::scenario::{FaultCount, FaultDuration, FaultMode, InjectionTarget, LayerType, Scenario};
use alfi::tensor::gemm::{set_kernel_override, KernelPath};
use alfi::tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A log by its records and value bits (a NaN is not equal to itself).
fn log_bits(log: &[AppliedFault]) -> Vec<(String, u32, u32)> {
    log.iter()
        .map(|a| {
            (
                format!("{:?} {:?}", a.record, a.direction),
                a.original.to_bits(),
                a.corrupted.to_bits(),
            )
        })
        .collect()
}

/// Runs every slot of `scenario` (drawn for inputs of `wrap_dims`) on
/// `x`, requiring each faulty model to match an armed clone; returns
/// how many slots ran.
fn assert_slots_match_the_reference(
    model: &Network,
    scenario: Scenario,
    wrap_dims: &[usize],
    x: &Tensor,
) -> usize {
    let target = scenario.injection_target;
    let what = format!("{} {target:?} {:?}", model.name(), scenario.fault_duration);
    let mut wrapper = Ptfiwrap::new(model, scenario, wrap_dims).unwrap();
    let targets = wrapper.targets().to_vec();
    let mut slots = 0;
    while let Ok(faulty) = wrapper.next_faulty_model() {
        let mut armed_net = model.clone();
        let armed = arm_faults(&mut [&mut armed_net], &targets, &faulty.faults, target).unwrap();
        let expect = armed_net.forward(x).unwrap();
        let expect_log = armed.collect_applied();

        let got = faulty.forward(x).unwrap();
        assert_eq!(bits(&got), bits(&expect), "{what}, slot {slots}: output");
        assert_eq!(
            log_bits(&faulty.applied_faults()),
            log_bits(&expect_log),
            "{what}, slot {slots}"
        );
        if target == InjectionTarget::Neurons {
            // Every targeted node runs, so a fault either applies or skips.
            let skipped = faulty.faults.len() - expect_log.len();
            assert_eq!(
                faulty.skipped_faults(),
                skipped,
                "{what}, slot {slots}: skips"
            );
        }
        slots += 1;
    }
    slots
}

fn alexnet_cfg() -> ModelConfig {
    ModelConfig {
        input_hw: 32,
        width_mult: 0.0625,
        seed: 3,
        ..ModelConfig::default()
    }
}

fn image(cfg: &ModelConfig) -> Tensor {
    let ds = ClassificationDataset::new(1, cfg.num_classes, cfg.in_channels, cfg.input_hw, 9);
    Tensor::stack(&[ds.get(0).image]).unwrap()
}

#[test]
fn faulty_models_match_the_clone_and_arm_reference() {
    let cfg = alexnet_cfg();
    let model = alexnet(&cfg);
    let x = image(&cfg);
    let c3d_cfg = C3dConfig {
        frames: 4,
        input_hw: 8,
        width_mult: 0.125,
        seed: 3,
        ..C3dConfig::default()
    };
    let video = c3d(&c3d_cfg);
    let clip = Tensor::ones(&c3d_cfg.input_dims(1));
    for path in [KernelPath::Reference, KernelPath::Blocked] {
        set_kernel_override(Some(path));
        for target in [InjectionTarget::Weights, InjectionTarget::Neurons] {
            for duration in [FaultDuration::Transient, FaultDuration::Permanent] {
                // Neuron coordinates drawn for a batch of 4 partly miss
                // the batch-1 input.
                let s = Scenario {
                    dataset_size: 8,
                    batch_size: 4,
                    injection_target: target,
                    fault_duration: duration,
                    fault_mode: FaultMode::exponent_bit_flip(),
                    faults_per_image: FaultCount::Fixed(2),
                    seed: 11,
                    ..Scenario::default()
                };
                let slots = assert_slots_match_the_reference(&model, s, &cfg.input_dims(4), &x);
                assert_eq!(slots, 8, "{path} {target:?} {duration:?}");
            }
            let s = Scenario {
                dataset_size: 4,
                injection_target: target,
                fault_mode: FaultMode::exponent_bit_flip(),
                layer_types: vec![LayerType::Conv3d],
                seed: 17,
                ..Scenario::default()
            };
            let slots = assert_slots_match_the_reference(&video, s, &c3d_cfg.input_dims(1), &clip);
            assert_eq!(slots, 4, "c3d {path} {target:?}");
        }
    }
    set_kernel_override(None);
}

/// The log keeps every forward's neuron corruptions: reading it drains
/// nothing, and a second forward adds its own.
#[test]
fn applied_faults_keeps_the_neuron_corruptions_of_every_forward() {
    let cfg = alexnet_cfg();
    let model = alexnet(&cfg);
    let s = Scenario {
        dataset_size: 2,
        batch_size: 1,
        injection_target: InjectionTarget::Neurons,
        fault_mode: FaultMode::RandomValue {
            min: 1000.0,
            max: 1000.1,
        },
        ..Scenario::default()
    };
    let mut wrapper = Ptfiwrap::new(&model, s, &cfg.input_dims(1)).unwrap();
    let faulty = wrapper.next_faulty_model().unwrap();
    let x = image(&cfg);
    faulty.forward(&x).unwrap();
    assert_eq!(faulty.applied_faults().len(), 1);
    assert_eq!(
        faulty.applied_faults().len(),
        1,
        "a second read sees the same log"
    );
    faulty.forward(&x).unwrap();
    let log = faulty.applied_faults();
    assert_eq!(
        log.len(),
        2,
        "the second forward's corruption is logged too"
    );
    assert_eq!(log[0].record, log[1].record);
    assert_eq!(faulty.skipped_faults(), 0);
}

/// Instances share the wrapper's model instead of cloning it.
#[test]
fn faulty_models_share_the_wrappers_model() {
    let cfg = alexnet_cfg();
    let s = Scenario {
        dataset_size: 2,
        ..Scenario::default()
    };
    let mut wrapper = Ptfiwrap::new(&alexnet(&cfg), s, &cfg.input_dims(1)).unwrap();
    let a = wrapper.next_faulty_model().unwrap();
    let b = wrapper.next_faulty_model().unwrap();
    assert!(std::ptr::eq(a.model(), b.model()));
    assert!(std::ptr::eq(a.model(), wrapper.model()));
}
