//! Per-node differential suite for weight-fault plans.
//!
//! A `FaultPlan` keeps only corrupted copies of the faulted weight rows,
//! and a pass recomputes only those rows of a `Conv2d` or `Linear`
//! node's output, over an unpatched output it borrows from the golden
//! pass when the node reads only golden activations. `Conv3d` and
//! custom layers evaluate a per-call copy with the rows written in.
//! The row-level suites (`campaign_resume`, `detection_plan`) compare
//! logits and rows only, and a wrong activation can hide behind them:
//! a guard downstream clips it, or the argmax does not move. So this
//! suite compares **every node's activation**, bit for bit, against the
//! `forward_all` of a clone armed with `arm_faults`.
//!
//! The plan's activations are collected through `FaultPlan::forward`'s
//! observer (nodes before the start node come from the prefix), for the
//! faulty pass and for the hardened twin's pass, each started from node
//! 0 and from its resume point, on both kernel paths. The cases cover
//! padded and strided convolutions (alexnet, vgg16, resnet50), linear
//! layers on rank-2 batches and on ViT token tensors, `Conv3d` (c3d) and
//! a custom layer that registers as `Linear`, several faults on one row
//! and on one element, corrupted values of 0, NaN and ±Inf, and spliced
//! and fused Ranger/Clipper twins profiled at margin 0 with faults on
//! node 0.

use alfi::core::{arm_faults, resolve_targets, FaultPlan, FaultRecord, FaultValue, LayerTarget};
use alfi::mitigation::{harden, harden_fused, profile_bounds, Protection};
use alfi::nn::models::{alexnet, c3d, resnet50, vgg16, vit_tiny, C3dConfig, ModelConfig};
use alfi::nn::{
    CustomLayer, Layer, LayerKind, Linear, Network, NnError, NodeId, NodeMap, Pass, Prefix,
};
use alfi::scenario::{InjectionTarget, Scenario};
use alfi::tensor::gemm::{self, KernelPath};
use alfi::tensor::Tensor;
use alfi::trace::Recorder;
use alfi_rng::Rng;
use std::sync::Mutex;

/// Serializes the tests: each pins the process-global kernel path.
static KERNEL_PATH: Mutex<()> = Mutex::new(());

/// The corrupted values every case cycles through: an exponent flip,
/// then outright zero, NaN and ±Inf (the zero-skip rule and `0 · Inf`).
const VALUES: [FaultValue; 5] = [
    FaultValue::BitFlip(30),
    FaultValue::Replace(0.0),
    FaultValue::Replace(f32::NAN),
    FaultValue::Replace(f32::INFINITY),
    FaultValue::Replace(f32::NEG_INFINITY),
];

fn mcfg() -> ModelConfig {
    ModelConfig { input_hw: 32, width_mult: 0.0625, seed: 5, ..ModelConfig::default() }
}

/// A seeded input batch of two.
fn input(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::rand_uniform(&mut rng, dims, -1.0, 1.0)
}

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (t.dims().to_vec(), t.data().iter().map(|v| v.to_bits()).collect())
}

fn resolve(net: &Network, dims: &[usize]) -> Vec<LayerTarget> {
    resolve_targets(&[net], &Scenario::default(), &[Some(dims.to_vec())]).unwrap()
}

/// A weight fault on target `layer` at the element with row-major
/// offset `flat` (taken modulo the weight's size).
fn fault(targets: &[LayerTarget], layer: usize, flat: usize, value: FaultValue) -> FaultRecord {
    let dims = &targets[layer].weight_dims;
    let mut rest = flat % dims.iter().product::<usize>();
    let mut coords = vec![0; dims.len()];
    for (c, d) in coords.iter_mut().zip(dims).rev() {
        *c = rest % d;
        rest /= d;
    }
    let (channel, channel_in, depth, height, width) = match coords[..] {
        [c, w] => (c, 0, None, 0, w),
        [c, ci, h, w] => (c, ci, None, h, w),
        [c, ci, d, h, w] => (c, ci, Some(d), h, w),
        _ => panic!("weight rank {}", dims.len()),
    };
    FaultRecord { batch: 0, layer, channel, channel_in, depth, height, width, value }
}

/// The fault sets of one model: one fault per listed layer, each value
/// in turn; then several faults on one row and two on one element of
/// the first listed layer.
fn fault_sets(targets: &[LayerTarget], layers: &[usize]) -> Vec<Vec<FaultRecord>> {
    let mut sets: Vec<Vec<FaultRecord>> = Vec::new();
    for (i, &layer) in layers.iter().enumerate() {
        for (j, value) in VALUES.into_iter().enumerate() {
            sets.push(vec![fault(targets, layer, 7 * i + 13 * j, value)]);
        }
    }
    let layer = layers[0];
    let row = targets[layer].weight_dims[1..].iter().product::<usize>();
    let flat = row + row / 2; // inside row 1
    sets.push(vec![
        fault(targets, layer, flat, FaultValue::BitFlip(30)),
        fault(targets, layer, flat - flat % row, FaultValue::Replace(f32::INFINITY)),
        fault(targets, layer, flat, FaultValue::BitFlip(23)),
        fault(targets, layer, flat, FaultValue::Replace(f32::NAN)),
        fault(targets, layer + 1, 3, FaultValue::Replace(0.0)),
    ]);
    sets
}

/// Every node's activation, up to the output, of `plan`'s pass over
/// `net` from `start`: the prefix's before `start`, observed from it on.
fn plan_nodes(
    plan: &FaultPlan,
    net: &Network,
    x: &Tensor,
    start: NodeId,
    prefix: &dyn Prefix,
) -> Vec<Tensor> {
    let out = net.output_node().expect("output node");
    let lent = |id| if id < start { prefix.activation(id).cloned() } else { None };
    let mut nodes: Vec<Option<Tensor>> = (0..=out).map(lent).collect();
    let off = Recorder::disabled();
    let mut observe = |id: NodeId, t: &Tensor| nodes[id] = Some(t.clone());
    let (logits, _) = plan.forward(net, x, (start, prefix), &off, &mut observe).unwrap();
    let nodes: Vec<Tensor> = nodes
        .into_iter()
        .enumerate()
        .map(|(id, t)| t.unwrap_or_else(|| panic!("node {id} neither lent nor evaluated")))
        .collect();
    assert_eq!(bits(&logits), bits(&nodes[out]), "the output is the last observed node");
    nodes
}

/// `net` armed with `faults` on a clone: every node's activation, up to
/// the output.
fn armed_nodes(
    net: &Network,
    targets: &[LayerTarget],
    faults: &[FaultRecord],
    x: &Tensor,
) -> Vec<Tensor> {
    let mut armed = net.clone();
    arm_faults(&mut [&mut armed], targets, faults, InjectionTarget::Weights).unwrap();
    let mut nodes = armed.forward_all(x).unwrap();
    nodes.truncate(net.output_node().unwrap() + 1);
    nodes
}

fn assert_nodes(what: &str, got: &[Tensor], expect: &[Tensor]) {
    assert_eq!(got.len(), expect.len(), "{what}: node count");
    for (id, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(bits(g) == bits(e), "{what}: node {id} differs from the armed clone");
    }
}

/// Checks one fault set on `net` (and its hardened `twin`): the faulty
/// pass against an armed clone of `net`, the hardened pass against an
/// armed clone of `twin`, each from node 0 and from its resume point.
fn check(
    what: &str,
    net: &Network,
    twin: Option<&Network>,
    dims: &[usize],
    x: &Tensor,
    faults: &[FaultRecord],
) {
    let targets = resolve(net, dims);
    let golden = net.evaluate(x, Pass::new()).unwrap();
    let expect = armed_nodes(net, &targets, faults, x);
    let plan = FaultPlan::new(&[net], &targets, faults, InjectionTarget::Weights).unwrap();
    let first = plan.first_node(0).expect("a weight plan faults a node");
    // A zero or an exponent flip may meet only zero inputs, but a NaN
    // or Inf weight always reaches its node: the check is not vacuous.
    let non_finite =
        faults.iter().any(|f| matches!(f.value, FaultValue::Replace(v) if !v.is_finite()));
    let changed = (0..expect.len()).any(|id| bits(golden.get(id).unwrap()) != bits(&expect[id]));
    assert!(changed || !non_finite, "{what}: the faults change no activation");
    for start in [0, first] {
        let got = plan_nodes(&plan, net, x, start, &golden);
        assert_nodes(&format!("{what}: faulty pass from node {start}"), &got, &expect);
    }
    let Some(twin) = twin else { return };
    let twin_targets = resolve(twin, dims);
    let expect = armed_nodes(twin, &twin_targets, faults, x);
    let plan = FaultPlan::new(&[twin], &twin_targets, faults, InjectionTarget::Weights).unwrap();
    let map = NodeMap::new(twin, net);
    let view = map.view(&golden);
    let resume = map.resume_point(plan.first_node(0).unwrap(), &golden);
    for start in [0, resume] {
        let got = plan_nodes(&plan, twin, x, start, &view);
        assert_nodes(&format!("{what}: hardened pass from node {start}"), &got, &expect);
    }
}

/// Runs `f` on both kernel paths, serialized with the other tests.
fn on_both_paths(f: impl Fn(KernelPath)) {
    let _serial = KERNEL_PATH.lock().unwrap_or_else(|e| e.into_inner());
    let prev = gemm::kernel_override();
    for path in [KernelPath::Blocked, KernelPath::Reference] {
        gemm::set_kernel_override(Some(path));
        f(path);
    }
    gemm::set_kernel_override(prev);
}

/// The injectable layers of `targets` of `kind`, as target indices.
fn layers_of(targets: &[LayerTarget], kind: LayerKind) -> Vec<usize> {
    (0..targets.len()).filter(|&i| targets[i].kind == kind).collect()
}

#[test]
fn conv_weight_faults_match_the_armed_clone_node_by_node() {
    let cfg = mcfg();
    let dims = cfg.input_dims(2);
    let x = input(&dims, 11);
    for net in [alexnet(&cfg), vgg16(&cfg), resnet50(&cfg)] {
        let targets = resolve(&net, &dims);
        let convs = layers_of(&targets, LayerKind::Conv2d);
        // The stem (padded, and strided on alexnet), a middle conv and
        // the last one.
        let layers = [convs[0], convs[convs.len() / 2], convs[convs.len() - 2]];
        on_both_paths(|path| {
            for faults in fault_sets(&targets, &layers) {
                let what = format!("{} on {path}, {faults:?}", net.name());
                check(&what, &net, None, &dims, &x, &faults);
            }
        });
    }
}

#[test]
fn linear_weight_faults_match_on_batches_and_token_tensors() {
    let cfg = mcfg();
    let dims = cfg.input_dims(2);
    let x = input(&dims, 12);
    // vgg16's classifier sees rank-2 batches; vit_tiny's linears see
    // rank-3 token tensors (and its patch embedding is a conv).
    for net in [vgg16(&cfg), vit_tiny(&cfg)] {
        let targets = resolve(&net, &dims);
        let linears = layers_of(&targets, LayerKind::Linear);
        let layers = [linears[0], linears[linears.len() / 2], linears[linears.len() - 2]];
        on_both_paths(|path| {
            for faults in fault_sets(&targets, &layers) {
                let what = format!("{} on {path}, {faults:?}", net.name());
                check(&what, &net, None, &dims, &x, &faults);
            }
        });
    }
}

/// A per-feature scale `[f, 1]` that registers as `Linear` but is a
/// custom layer: no row kernel may touch it.
#[derive(Debug, Clone)]
struct ChannelScale {
    weight: Tensor,
}

impl CustomLayer for ChannelScale {
    fn type_name(&self) -> &str {
        "channel_scale"
    }

    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let f = self.weight.dims()[0];
        let mut out = input.clone();
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            *v *= self.weight.data()[i % f];
        }
        Ok(out)
    }

    fn clone_box(&self) -> Box<dyn CustomLayer> {
        Box::new(self.clone())
    }

    fn injection_kind(&self) -> Option<LayerKind> {
        Some(LayerKind::Linear)
    }

    fn weight(&self) -> Option<&Tensor> {
        Some(&self.weight)
    }

    fn weight_mut(&mut self) -> Option<&mut Tensor> {
        Some(&mut self.weight)
    }
}

/// scale (custom) → fc1 → relu → scale2 (custom) → fc2.
fn custom_net() -> Network {
    let mut rng = Rng::from_seed(21);
    let mut net = Network::new("custom");
    let scale = |rng: &mut Rng, f: usize| {
        let weight = Tensor::rand_uniform(rng, &[f, 1], -2.0, 2.0);
        Layer::Custom(Box::new(ChannelScale { weight }))
    };
    let linear = |rng: &mut Rng, o: usize, i: usize| {
        Layer::Linear(Linear {
            weight: Tensor::rand_uniform(rng, &[o, i], -1.0, 1.0),
            bias: Some(Tensor::rand_uniform(rng, &[o], -1.0, 1.0)),
        })
    };
    net.push_seq("scale", scale(&mut rng, 6)).unwrap();
    net.push_seq("fc1", linear(&mut rng, 9, 6)).unwrap();
    net.push_seq("relu", Layer::Relu).unwrap();
    net.push_seq("scale2", scale(&mut rng, 9)).unwrap();
    let out = net.push_seq("fc2", linear(&mut rng, 4, 9)).unwrap();
    net.set_output(out).unwrap();
    net
}

#[test]
fn conv3d_and_custom_layers_match_through_per_call_copies() {
    let cfg = C3dConfig { width_mult: 0.125, seed: 2, ..C3dConfig::default() };
    let dims = cfg.input_dims(2);
    let x = input(&dims, 13);
    let net = c3d(&cfg);
    let targets = resolve(&net, &dims);
    let conv3d = layers_of(&targets, LayerKind::Conv3d);
    on_both_paths(|path| {
        for faults in fault_sets(&targets, &[conv3d[0], conv3d[conv3d.len() - 1]]) {
            check(&format!("c3d on {path}, {faults:?}"), &net, None, &dims, &x, &faults);
        }
    });
    let net = custom_net();
    let dims = [2, 6];
    let x = input(&dims, 14);
    let targets = resolve(&net, &dims);
    assert!(matches!(net.layer(targets[0].node_id).unwrap(), Layer::Custom(_)));
    assert_eq!(targets[0].kind, LayerKind::Linear, "the custom layer registers as linear");
    on_both_paths(|path| {
        // Both custom layers and fc1, from the network's first node on.
        for faults in fault_sets(&targets, &[0, 2, 1]) {
            check(&format!("custom on {path}, {faults:?}"), &net, None, &dims, &x, &faults);
        }
    });
}

/// Spliced and fused Ranger/Clipper twins profiled at margin 0 on other
/// images, so their guards trip on this input, with faults on node 0:
/// a guard node's plain activation is its own only inside its bounds.
#[test]
fn hardened_twins_at_margin_zero_match_with_faults_on_node_zero() {
    let cfg = mcfg();
    let dims = cfg.input_dims(2);
    let x = input(&dims, 15);
    for net in [vgg16(&cfg), resnet50(&cfg)] {
        let calib: Vec<Tensor> = (0..2).map(|i| input(&cfg.input_dims(1), 100 + i)).collect();
        let bounds = profile_bounds(&net, calib.iter()).unwrap();
        let targets = resolve(&net, &dims);
        assert_eq!(targets[0].node_id, 0, "{}: layer 0 is node 0", net.name());
        let later = layers_of(&targets, LayerKind::Linear)[0];
        let on_node_0 = |(j, v): (usize, FaultValue)| vec![fault(&targets, 0, 5 + 11 * j, v)];
        let mut sets: Vec<Vec<FaultRecord>> = VALUES.into_iter().enumerate().map(on_node_0).collect();
        sets.push(vec![
            fault(&targets, 0, 2, FaultValue::BitFlip(30)),
            fault(&targets, later, 9, FaultValue::Replace(f32::NAN)),
        ]);
        for protection in [Protection::Ranger, Protection::Clipper] {
            let twins = [
                harden(&net, &bounds, protection, 0.0).unwrap(),
                harden_fused(&net, &bounds, protection, 0.0).unwrap(),
            ];
            for (form, twin) in ["spliced", "fused"].iter().zip(&twins) {
                on_both_paths(|path| {
                    for faults in &sets {
                        let name = net.name();
                        let what = format!("{name} {form} {protection:?} on {path}, {faults:?}");
                        check(&what, &net, Some(twin), &dims, &x, faults);
                    }
                });
            }
        }
    }
}
