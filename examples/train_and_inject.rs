//! Train-then-inject: the paper's actual workflow. Campaigns in the
//! paper run on trained models; this example trains a small CNN on the
//! synthetic texture dataset with the built-in SGD trainer, verifies it
//! is genuinely accurate, and then runs an exponent-bit weight-fault
//! campaign on the trained model — reporting SDE against both the
//! fault-free prediction (the ALFI KPI) and the ground-truth labels.
//!
//! Run with: `cargo run --release --example train_and_inject`

use alfi::analyze::kpi::top1_accuracy;
use alfi::analyze::report::analyze_result;
use alfi::core::campaign::{CsvVariant, ImgClassCampaign, RunConfig};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::nn::train::{accuracy, train_step, SgdTrainer};
use alfi::nn::{Conv2d, Layer, Linear, Network};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};
use alfi::tensor::conv::ConvConfig;
use alfi::tensor::Tensor;
use alfi_rng::Rng;

/// A small trainable CNN: 2 convs + 2 linears over 16x16 textures.
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
        .unwrap();
    let r1 = net.push("relu1", Layer::Relu, &[c1]).unwrap();
    let p1 = net
        .push("pool1", Layer::MaxPool2d { k: 2, cfg: ConvConfig { stride: 2, padding: 0, dilation: 1 } }, &[r1])
        .unwrap();
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
        .unwrap();
    let r2 = net.push("relu2", Layer::Relu, &[c2]).unwrap();
    let p2 = net
        .push("pool2", Layer::MaxPool2d { k: 2, cfg: ConvConfig { stride: 2, padding: 0, dilation: 1 } }, &[r2])
        .unwrap();
    let fl = net.push("flatten", Layer::Flatten, &[p2]).unwrap();
    let f1 = net
        .push(
            "fc1",
            Layer::Linear(Linear { weight: he(&[32, 16 * 4 * 4]), bias: Some(Tensor::zeros(&[32])) }),
            &[fl],
        )
        .unwrap();
    let r3 = net.push("relu3", Layer::Relu, &[f1]).unwrap();
    let f2 = net
        .push(
            "fc2",
            Layer::Linear(Linear { weight: he(&[classes, 32]), bias: Some(Tensor::zeros(&[classes])) }),
            &[r3],
        )
        .unwrap();
    net.set_output(f2).unwrap();
    net
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let classes = 4usize;
    let train_ds = ClassificationDataset::new(160, classes, 3, 16, 1);
    let test_ds = ClassificationDataset::new(40, classes, 3, 16, 2);
    let mut net = build_cnn(classes, 7);

    // Train with momentum SGD.
    let loader = ClassificationLoader::new(train_ds, 16).with_shuffle(true);
    let mut trainer = SgdTrainer::new(0.05, 0.9);
    println!("training 2-conv CNN on synthetic textures ({classes} classes)...");
    for epoch in 0..8u64 {
        let mut loss_sum = 0.0f32;
        let mut batches = 0usize;
        for batch in loader.iter_epoch(epoch) {
            loss_sum += train_step(&mut net, &mut trainer, &batch.images, &batch.labels)?;
            batches += 1;
        }
        // held-out accuracy
        let mut correct = 0.0;
        let mut n = 0usize;
        for i in 0..test_ds.len() {
            let s = test_ds.get(i);
            let x = Tensor::stack(&[s.image])?;
            correct += accuracy(&net, &x, &[s.label])?;
            n += 1;
        }
        println!(
            "epoch {epoch}: loss {:.4}, test accuracy {:.1}%",
            loss_sum / batches as f32,
            100.0 * correct / n as f64
        );
    }

    // Fault-injection campaigns on the trained model, escalating the
    // number of simultaneous exponent-bit weight faults. A freshly
    // trained small model has wide decision margins, so single faults
    // are heavily masked — the interesting curve is where masking
    // breaks down.
    println!("\n=== exponent-bit weight FI on the TRAINED model ===");
    println!(
        "{:<8} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "faults", "orig acc", "corr acc", "SDE", "DUE", "masked"
    );
    for k in [1usize, 5, 20, 50] {
        let mut scenario = Scenario::default();
        scenario.dataset_size = 40;
        scenario.injection_target = InjectionTarget::Weights;
        scenario.fault_mode = FaultMode::exponent_bit_flip();
        scenario.faults_per_image = alfi::scenario::FaultCount::Fixed(k);
        scenario.seed = 99;
        let loader = ClassificationLoader::new(test_ds.clone(), 1);
        let result = ImgClassCampaign::new(net.clone(), scenario, loader).run_with(&RunConfig::default())?;
        let overall = analyze_result(&result).overall;
        println!(
            "{:<8} {:>11.1}% {:>11.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            k,
            top1_accuracy(&result.rows, CsvVariant::Original).percent(),
            top1_accuracy(&result.rows, CsvVariant::Corrupted).percent(),
            overall.sdc_rate.percent(),
            overall.due_rate.percent(),
            overall.masked_rate * 100.0,
        );
    }
    println!("\n(on a trained model the fault-free run is genuinely correct, so an SDE is");
    println!(" a real safety event: a prediction the user would have trusted, silently wrong;");
    println!(" high margins mask single faults, multi-fault bursts break through)");
    Ok(())
}
