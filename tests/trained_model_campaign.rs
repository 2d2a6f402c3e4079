//! Integration test: the full train-then-inject workflow — SGD training
//! on the synthetic dataset followed by a fault campaign on the trained
//! model, asserting both that training genuinely works and that fault
//! masking behaves as expected on an accurate model.

use alfi::analyze::kpi::top1_accuracy;
use alfi::analyze::report::analyze_result;
use alfi::core::campaign::{CsvVariant, ImgClassCampaign, RunConfig};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::nn::train::{accuracy, train_step, SgdTrainer};
use alfi::nn::{Conv2d, Layer, Linear, Network};
use alfi::scenario::{FaultCount, FaultMode, InjectionTarget, Scenario};
use alfi::tensor::conv::ConvConfig;
use alfi::tensor::Tensor;
use alfi_rng::Rng;

fn build_cnn(classes: usize, seed: u64) -> Network {
    let mut rng = Rng::from_seed(seed);
    let mut he = |dims: &[usize]| {
        let fan_in: usize = dims[1..].iter().product();
        Tensor::rand_normal(&mut rng, dims, 0.0, (2.0 / fan_in as f32).sqrt())
    };
    let mut net = Network::new("cnn");
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
        .unwrap();
    let r1 = net.push("relu1", Layer::Relu, &[c1]).unwrap();
    let p1 = net
        .push("pool1", Layer::MaxPool2d { k: 2, cfg: ConvConfig { stride: 2, padding: 0, dilation: 1 } }, &[r1])
        .unwrap();
    let fl = net.push("flatten", Layer::Flatten, &[p1]).unwrap();
    let f1 = net
        .push(
            "fc1",
            Layer::Linear(Linear {
                weight: he(&[classes, 8 * 8 * 8]),
                bias: Some(Tensor::zeros(&[classes])),
            }),
            &[fl],
        )
        .unwrap();
    net.set_output(f1).unwrap();
    net
}

fn train(net: &mut Network, ds: &ClassificationDataset, epochs: u64) {
    let loader = ClassificationLoader::new(ds.clone(), 16).with_shuffle(true);
    let mut trainer = SgdTrainer::new(0.05, 0.9);
    for epoch in 0..epochs {
        for batch in loader.iter_epoch(epoch) {
            train_step(net, &mut trainer, &batch.images, &batch.labels).unwrap();
        }
    }
}

#[test]
fn training_reaches_high_accuracy_and_masks_single_faults() {
    let classes = 4usize;
    let train_ds = ClassificationDataset::new(120, classes, 3, 16, 1);
    let test_ds = ClassificationDataset::new(30, classes, 3, 16, 2);
    let mut net = build_cnn(classes, 7);

    // Accuracy before training is near chance; after, it must be high.
    let probe_images =
        Tensor::stack(&(0..30).map(|i| test_ds.get(i).image).collect::<Vec<_>>()).unwrap();
    let probe_labels: Vec<usize> = (0..30).map(|i| test_ds.get(i).label).collect();
    let before = accuracy(&net, &probe_images, &probe_labels).unwrap();
    train(&mut net, &train_ds, 6);
    let after = accuracy(&net, &probe_images, &probe_labels).unwrap();
    assert!(after > 0.9, "trained accuracy {after} (before: {before})");
    assert!(after > before, "training must improve accuracy");

    // FI on the trained model: single faults are mostly masked; heavy
    // bursts corrupt much more.
    let run = |k: usize| {
        let mut s = Scenario::default();
        s.dataset_size = 30;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        s.faults_per_image = FaultCount::Fixed(k);
        s.seed = 99;
        let loader = ClassificationLoader::new(test_ds.clone(), 1);
        let result = ImgClassCampaign::new(net.clone(), s, loader).run_with(&RunConfig::default()).unwrap();
        let overall = analyze_result(&result).overall;
        (overall.sdc + overall.due, top1_accuracy(&result.rows, CsvVariant::Original).value)
    };
    let (corrupt_1, orig_acc) = run(1);
    let (corrupt_50, _) = run(50);
    assert!(orig_acc > 0.9, "fault-free pass stays accurate inside the campaign");
    assert!(
        corrupt_50 > corrupt_1,
        "50 faults ({corrupt_50}) must corrupt more than 1 fault ({corrupt_1})"
    );
    assert!(corrupt_1 <= 6, "trained margins should mask most single faults, got {corrupt_1}/30");
}
