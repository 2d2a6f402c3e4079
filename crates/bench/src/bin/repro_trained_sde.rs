//! Trained-substrate variant of the Fig. 2a experiment: trains a CNN to
//! high accuracy on the synthetic dataset with the built-in SGD trainer,
//! then sweeps exponent-bit weight-fault counts on the *trained* model,
//! with and without Ranger protection — the closest this reproduction
//! gets to the paper's trained-torchvision setting.
//!
//! Run with: `cargo run --release -p alfi-bench --bin repro_trained_sde`

use alfi_analyze::kpi::{hardened_corruption_rate, top1_accuracy};
use alfi_analyze::report::analyze_result;
use alfi_core::campaign::{CsvVariant, ImgClassCampaign, RunConfig};
use alfi_datasets::{ClassificationDataset, ClassificationLoader};
use alfi_mitigation::{harden, profile_bounds, Protection};
use alfi_nn::train::{accuracy, train_step, SgdTrainer};
use alfi_nn::{Conv2d, Layer, Linear, Network};
use alfi_scenario::{FaultCount, FaultMode, InjectionTarget, Scenario};
use alfi_tensor::conv::ConvConfig;
use alfi_tensor::Tensor;
use alfi_rng::Rng;

fn build_cnn(classes: usize, seed: u64) -> Network {
    let mut rng = Rng::from_seed(seed);
    let mut he = |dims: &[usize]| {
        let fan_in: usize = dims[1..].iter().product();
        Tensor::rand_normal(&mut rng, dims, 0.0, (2.0 / fan_in as f32).sqrt())
    };
    let mut net = Network::new("trained_cnn");
    let c1 = net
        .push(
            "conv1",
            Layer::Conv2d(Conv2d {
                weight: he(&[8, 3, 3, 3]),
                bias: Some(Tensor::zeros(&[8])),
                cfg: ConvConfig { stride: 1, padding: 1, dilation: 1 },
            }),
            &[],
        )
        .expect("graph");
    let r1 = net.push("relu1", Layer::Relu, &[c1]).expect("graph");
    let p1 = net
        .push("pool1", Layer::MaxPool2d { k: 2, cfg: ConvConfig { stride: 2, padding: 0, dilation: 1 } }, &[r1])
        .expect("graph");
    let c2 = net
        .push(
            "conv2",
            Layer::Conv2d(Conv2d {
                weight: he(&[16, 8, 3, 3]),
                bias: Some(Tensor::zeros(&[16])),
                cfg: ConvConfig { stride: 1, padding: 1, dilation: 1 },
            }),
            &[p1],
        )
        .expect("graph");
    let r2 = net.push("relu2", Layer::Relu, &[c2]).expect("graph");
    let p2 = net
        .push("pool2", Layer::MaxPool2d { k: 2, cfg: ConvConfig { stride: 2, padding: 0, dilation: 1 } }, &[r2])
        .expect("graph");
    let fl = net.push("flatten", Layer::Flatten, &[p2]).expect("graph");
    let f1 = net
        .push(
            "fc1",
            Layer::Linear(Linear { weight: he(&[32, 16 * 4 * 4]), bias: Some(Tensor::zeros(&[32])) }),
            &[fl],
        )
        .expect("graph");
    let r3 = net.push("relu3", Layer::Relu, &[f1]).expect("graph");
    let f2 = net
        .push(
            "fc2",
            Layer::Linear(Linear { weight: he(&[classes, 32]), bias: Some(Tensor::zeros(&[classes])) }),
            &[r3],
        )
        .expect("graph");
    net.set_output(f2).expect("graph");
    net
}

fn main() {
    let classes = 4usize;
    let train_ds = ClassificationDataset::new(160, classes, 3, 16, 1);
    let test_ds = ClassificationDataset::new(60, classes, 3, 16, 2);
    let mut net = build_cnn(classes, 7);

    println!("=== trained-substrate SDE reproduction ===");
    let loader = ClassificationLoader::new(train_ds, 16).with_shuffle(true);
    let mut trainer = SgdTrainer::new(0.05, 0.9);
    for epoch in 0..8u64 {
        for batch in loader.iter_epoch(epoch) {
            train_step(&mut net, &mut trainer, &batch.images, &batch.labels).expect("train");
        }
    }
    let test_images =
        Tensor::stack(&(0..test_ds.len()).map(|i| test_ds.get(i).image).collect::<Vec<_>>())
            .expect("stack");
    let test_labels: Vec<usize> = (0..test_ds.len()).map(|i| test_ds.get(i).label).collect();
    let acc = accuracy(&net, &test_images, &test_labels).expect("accuracy");
    println!("trained test accuracy: {:.1}% ({} held-out images)\n", acc * 100.0, test_ds.len());

    // Ranger hardening profiled on fault-free held-out data.
    let calib: Vec<Tensor> =
        (0..8).map(|i| Tensor::stack(&[test_ds.get(i).image]).expect("stack")).collect();
    let bounds = profile_bounds(&net, calib.iter()).expect("profile");
    let hardened = harden(&net, &bounds, Protection::Ranger, 0.1).expect("harden");

    println!(
        "{:<8} {:>10} {:>10} {:>9} {:>9} | {:>12}",
        "faults", "orig acc", "corr acc", "SDE", "DUE", "ranger SDE"
    );
    for k in [1usize, 5, 10, 20, 50, 100] {
        let mut s = Scenario::default();
        s.dataset_size = test_ds.len();
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        s.faults_per_image = FaultCount::Fixed(k);
        s.seed = 99;
        let loader = ClassificationLoader::new(test_ds.clone(), 1);
        let result = ImgClassCampaign::new(net.clone(), s, loader)
            .with_resil_model(hardened.clone())
            .run_with(&RunConfig::default())
            .expect("campaign");
        let overall = analyze_result(&result).overall;
        let ranger = hardened_corruption_rate(&result.rows);
        println!(
            "{:<8} {:>9.1}% {:>9.1}% {:>8.1}% {:>8.1}% | {:>11.1}%",
            k,
            top1_accuracy(&result.rows, CsvVariant::Original).percent(),
            top1_accuracy(&result.rows, CsvVariant::Corrupted).percent(),
            overall.sdc_rate.percent(),
            overall.due_rate.percent(),
            ranger.percent(),
        );
    }
    println!("\nexpected shape: near-total masking at 1 fault (high decision margins),");
    println!("corruption breaking through as bursts grow; Ranger suppresses the out-of-");
    println!("range activations that drive the break-through.");
}
