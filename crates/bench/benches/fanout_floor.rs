//! Bench target: the sweep behind the GEMM fan-out floor
//! (`alfi_tensor::gemm::PAR_MIN_MACS`, DESIGN.md §5g).
//!
//! Times whole batch-1 forwards of vgg16 and resnet50 at widths 0.125,
//! 0.25 and 0.5 (32 px) on a 1-wide and a 2-wide pool, then every
//! distinct conv layer of those forwards alone at both widths, and
//! prints each conv GEMM's `m·k·n` against the compiled floor. A GEMM
//! fans out only from the floor up, so a layer below it reads the same
//! at both widths; a build with a lower floor shows what fanning those
//! layers out costs. Run with
//! `cargo bench -p alfi-bench --bench fanout_floor`.

use alfi_bench::timing::{BenchmarkId, Harness};
use alfi_bench::{build_classifier, ExperimentScale};
use alfi_nn::layer::Layer;
use alfi_rng::Rng;
use alfi_tensor::conv::{conv2d_fused, ConvConfig};
use alfi_tensor::gemm::PAR_MIN_MACS;
use alfi_tensor::Tensor;
use std::hint::black_box;
use std::time::Duration;

const MODELS: [&str; 2] = ["vgg16", "resnet50"];
const WIDTHS_PERMILLE: [usize; 3] = [125, 250, 500];
const POOL_WIDTHS: [usize; 2] = [1, 2];

/// One distinct conv layer of a forward: input dims, weight dims and
/// geometry.
#[derive(PartialEq)]
struct ConvShape {
    input: Vec<usize>,
    weight: Vec<usize>,
    cfg: ConvConfig,
    /// `m·k·n` of its batch-1 GEMM.
    macs: usize,
}

/// The distinct conv layers of `model`'s batch-1 forward at `scale`,
/// in first-use order.
fn conv_shapes(model: &str, scale: ExperimentScale) -> Vec<ConvShape> {
    let (net, cfg) = build_classifier(model, scale, 3);
    let dims = cfg.input_dims(1);
    let shapes = net.infer_shapes(&dims).expect("shape inference");
    let mut out: Vec<ConvShape> = Vec::new();
    for (node, shape) in net.nodes().iter().zip(&shapes) {
        let Layer::Conv2d(conv) = &node.layer else { continue };
        let input = match node.inputs.first() {
            Some(&id) => shapes[id].dims().to_vec(),
            None => dims.clone(),
        };
        let w = conv.weight.dims();
        let spatial = shape.dims()[2] * shape.dims()[3];
        let macs = w[0] * w[1] * w[2] * w[3] * spatial;
        let s = ConvShape { input, weight: w.to_vec(), cfg: conv.cfg, macs };
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

fn bench_forwards(c: &mut Harness) {
    let mut group = c.benchmark_group("fanout_floor_forward");
    group.sample_size(30).measurement_time(Duration::from_secs(2));
    for model in MODELS {
        for permille in WIDTHS_PERMILLE {
            let scale = ExperimentScale { width_permille: permille, ..ExperimentScale::quick() };
            let (net, cfg) = build_classifier(model, scale, 3);
            let image = Tensor::rand_normal(&mut Rng::from_seed(5), &cfg.input_dims(1), 0.0, 1.0);
            for threads in POOL_WIDTHS {
                let id = BenchmarkId::new(format!("{model}_w{permille}"), threads);
                group.bench_with_input(id, &threads, |b, &t| {
                    b.iter(|| alfi_pool::with_parallelism(t, || black_box(net.forward(&image).expect("forward"))))
                });
            }
        }
    }
    group.finish();
}

fn bench_conv_layers(c: &mut Harness) {
    println!("floor: {PAR_MIN_MACS} MACs");
    println!("{:<14} {:>5} {:>22} {:>18} {:>10}  fans out", "model", "width", "input", "weight", "m·k·n");
    let mut group = c.benchmark_group("fanout_floor_conv");
    group.sample_size(20).measurement_time(Duration::from_millis(300));
    let mut rng = Rng::from_seed(11);
    for model in MODELS {
        for permille in WIDTHS_PERMILLE {
            let scale = ExperimentScale { width_permille: permille, ..ExperimentScale::quick() };
            for (i, s) in conv_shapes(model, scale).iter().enumerate() {
                println!(
                    "{model:<14} {permille:>5} {:>22} {:>18} {:>10}  {}",
                    format!("{:?}", s.input),
                    format!("{:?}", s.weight),
                    s.macs,
                    s.macs >= PAR_MIN_MACS
                );
                let input = Tensor::rand_normal(&mut rng, &s.input, 0.0, 1.0);
                let weight = Tensor::rand_normal(&mut rng, &s.weight, 0.0, 0.2);
                for threads in POOL_WIDTHS {
                    let id = BenchmarkId::new(format!("{model}_w{permille}_conv{i}_{}macs", s.macs), threads);
                    group.bench_with_input(id, &threads, |b, &t| {
                        b.iter(|| {
                            alfi_pool::with_parallelism(t, || {
                                black_box(conv2d_fused(&input, &weight, None, s.cfg, None).expect("conv"))
                            })
                        })
                    });
                }
            }
        }
    }
    group.finish();
}

alfi_bench::bench_main!(bench_forwards, bench_conv_layers);
