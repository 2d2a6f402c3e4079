//! A `Network` packs each `Linear` weight's GEMM panels once per node
//! and reuses the pack on every later blocked call. Every change to the
//! network must leave it computing exactly what a freshly built copy of
//! the same parameters computes: a weight written through `layer_mut`
//! after a forward filled the pack, a clone changing its own layer, a
//! node spliced in with `insert_after`, a training step and a
//! checkpoint load.
//!
//! One test function, because it pins the process-global kernel path
//! to the blocked kernels (the only ones that pack) and reads the
//! process-global pack meter.

use alfi_metrics::names;
use alfi_nn::train::{train_step, SgdTrainer};
use alfi_nn::weights::{decode_weights_into, encode_weights};
use alfi_nn::{Conv2d, Layer, Linear, Network, RestrictMode};
use alfi_rng::Rng;
use alfi_tensor::conv::ConvConfig;
use alfi_tensor::gemm::{self, KernelPath};
use alfi_tensor::Tensor;

/// conv (4 channels, too few to pack) → relu → flatten → fc1 → fc2 →
/// relu → fc3, with seeded weights. fc1 and fc2 are neighbours, so a
/// pack that slid one node over would land on the other linear.
fn mlp(seed: u64) -> Network {
    let mut rng = Rng::from_seed(seed);
    let mut t = |dims: &[usize]| Tensor::rand_uniform(&mut rng, dims, -0.5, 0.5);
    let mut net = Network::new("mlp");
    let cfg = ConvConfig::new(1, 1).unwrap();
    let conv = Conv2d { weight: t(&[4, 2, 3, 3]), bias: Some(t(&[4])), cfg };
    net.push_seq("conv", Layer::Conv2d(conv)).unwrap();
    net.push_seq("relu", Layer::Relu).unwrap();
    net.push_seq("flatten", Layer::Flatten).unwrap();
    let fc1 = Linear { weight: t(&[20, 64]), bias: Some(t(&[20])) };
    net.push_seq("fc1", Layer::Linear(fc1)).unwrap();
    let fc2 = Linear { weight: t(&[20, 20]), bias: Some(t(&[20])) };
    net.push_seq("fc2", Layer::Linear(fc2)).unwrap();
    net.push_seq("relu1", Layer::Relu).unwrap();
    let fc3 = Linear { weight: t(&[5, 20]), bias: None };
    let out = net.push_seq("fc3", Layer::Linear(fc3)).unwrap();
    net.set_output(out).unwrap();
    net
}

/// The same nodes, parameters and fused clamps in a new network, whose
/// packs are all empty.
fn rebuilt(net: &Network) -> Network {
    let mut fresh = Network::new(net.name());
    for (id, node) in net.nodes().iter().enumerate() {
        fresh.push(node.name.clone(), node.layer.clone(), &node.inputs).unwrap();
        if let Some(clamp) = net.fused_clamp(id) {
            fresh.set_fused_clamp(id, clamp).unwrap();
        }
    }
    fresh.set_output(net.output_node().unwrap()).unwrap();
    fresh
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `net`'s output equals a freshly built copy's, bit for bit.
fn assert_fresh(net: &Network, x: &Tensor, what: &str) {
    let got = net.forward(x).unwrap();
    assert_eq!(bits(&got), bits(&rebuilt(net).forward(x).unwrap()), "{what}");
}

fn pack_bytes() -> u64 {
    alfi_metrics::global().snapshot().counter(names::TENSOR_GEMM_PACK_BYTES)
}

fn set(net: &mut Network, node: &str, at: &[usize], v: f32) {
    let id = net.node_by_name(node).unwrap();
    net.layer_mut(id).unwrap().weight_mut().unwrap().set(at, v);
}

#[test]
fn weight_packs_follow_every_change_to_the_network() {
    let prev = gemm::kernel_override();
    gemm::set_kernel_override(Some(KernelPath::Blocked));
    let mut rng = Rng::from_seed(3);
    let x = Tensor::rand_uniform(&mut rng, &[2, 2, 4, 4], -1.0, 1.0);

    // The first forward packs every linear weight; a second packs
    // nothing, and computes the same bits.
    alfi_metrics::set_global_enabled(true);
    let net = mlp(1);
    let before = pack_bytes();
    let first = net.forward(&x).unwrap();
    assert!(pack_bytes() > before, "the blocked linear kernel packs");
    let before = pack_bytes();
    assert_eq!(bits(&net.forward(&x).unwrap()), bits(&first));
    assert_eq!(pack_bytes(), before, "a filled pack is reused");
    alfi_metrics::set_global_enabled(false);

    // A weight written after a forward filled the pack.
    let mut changed = mlp(1);
    changed.forward(&x).unwrap();
    set(&mut changed, "fc1", &[3, 7], 40.0);
    set(&mut changed, "fc3", &[0, 0], -9.0);
    assert_fresh(&changed, &x, "layer_mut after a forward");
    assert_ne!(bits(&changed.forward(&x).unwrap()), bits(&first), "the writes reach the output");

    // A clone shares the packs until it changes a layer, and then
    // leaves the original's alone — whether it was cloned before or
    // after the original filled them.
    for fill_first in [true, false] {
        let original = mlp(1);
        if fill_first {
            original.forward(&x).unwrap();
        }
        let mut clone = original.clone();
        set(&mut clone, "fc1", &[0, 1], 25.0);
        assert_fresh(&clone, &x, "the changed clone");
        assert_eq!(bits(&original.forward(&x).unwrap()), bits(&first), "the original");
        assert_fresh(&original, &x, "the original");
    }

    // Nodes spliced in before, between and after the linears keep
    // every pack on its node.
    let mut spliced = mlp(1);
    spliced.forward(&x).unwrap();
    let guard = Layer::RangeRestrict { lo: -0.25, hi: 0.75, mode: RestrictMode::Clip };
    for node in ["flatten", "fc1", "fc3"] {
        let id = spliced.node_by_name(node).unwrap();
        spliced.insert_after(id, format!("__guard_{node}"), guard.clone()).unwrap();
        assert_fresh(&spliced, &x, &format!("insert_after {node}"));
    }
    set(&mut spliced, "fc3", &[4, 19], 3.0);
    assert_fresh(&spliced, &x, "layer_mut after insert_after");

    // A training step updates the weights through `layer_mut`.
    let mut trained = mlp(1);
    trained.forward(&x).unwrap();
    let mut sgd = SgdTrainer::new(0.5, 0.0);
    train_step(&mut trained, &mut sgd, &x, &[1, 3]).unwrap();
    assert_ne!(bits(&trained.forward(&x).unwrap()), bits(&first), "the step moved the weights");
    assert_fresh(&trained, &x, "a train step");

    // A checkpoint load replaces every weight.
    let mut loaded = mlp(1);
    loaded.forward(&x).unwrap();
    let other = mlp(2);
    decode_weights_into(&mut loaded, &encode_weights(&other)).unwrap();
    assert_eq!(bits(&loaded.forward(&x).unwrap()), bits(&other.forward(&x).unwrap()));
    assert_fresh(&loaded, &x, "a checkpoint load");

    gemm::set_kernel_override(prev);
}
