//! Differential suite for the classification campaign's per-scope path.
//!
//! The campaign runs one golden forward per scope and resumes the faulty
//! and hardened forwards from its activations, with per-call patched
//! layers instead of armed model clones. This suite rebuilds every scope
//! as a reference from the public clone-and-arm API only —
//! `Network::clone`, `attach_monitor`, `arm_faults`, `Network::forward` —
//! and requires the rows (all three CSV variants) and the encoded
//! `trace.bin` to match byte for byte.
//!
//! Each case runs on both kernel paths, in place at one thread and in
//! pooled rounds at 2, 4 and 7 threads, whatever its injection policy.
//! The cases cover weight and
//! neuron faults; `per_image`, `per_batch` and `per_epoch`; one and
//! three faults per scope, several on one node, and neuron batch
//! coordinates outside the scope; Ranger and Clipper hardened models
//! and a magnitude-pruned hardened model; a model carrying a
//! mutating hook; a network that overflows to Inf before the faulted
//! layers; a margin-0 hardened model whose guards trip on some images;
//! and the ViT campaign.

use alfi::core::campaign::{
    ClassificationCampaignResult, ClassificationRow, CsvVariant, ImgClassCampaign, RunConfig,
    SlotCursor, VitCampaign,
};
use alfi::core::persist::{RunTrace, TraceEntry};
use alfi::core::{
    arm_faults, attach_monitor, resolve_targets, FaultMatrix, LayerTarget, NanInfMonitor,
};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::models::{alexnet, vit_tiny, ModelConfig, VIT_TINY_DEPTH, VIT_TINY_HEADS};
use alfi::nn::prune::magnitude_prune;
use alfi::nn::{Conv2d, Layer, LayerCtx, Linear, Network, NodeMap, Pass};
use alfi::scenario::{FaultCount, FaultMode, InjectionPolicy, InjectionTarget, Scenario};
use alfi::tensor::conv::ConvConfig;
use alfi::tensor::gemm::{self, KernelPath};
use alfi::tensor::Tensor;
use std::sync::{Arc, Mutex};

const HW: usize = 16;
const CLASSES: usize = 10;

fn mcfg() -> ModelConfig {
    ModelConfig {
        input_hw: HW,
        width_mult: 0.0625,
        seed: 3,
        num_classes: CLASSES,
        ..ModelConfig::default()
    }
}

fn dataset(n: usize) -> ClassificationDataset {
    ClassificationDataset::new(n, CLASSES, 3, HW, 17)
}

fn scenario(target: InjectionTarget, policy: InjectionPolicy, faults: usize) -> Scenario {
    Scenario {
        dataset_size: 6,
        batch_size: 4,
        injection_target: target,
        injection_policy: policy,
        faults_per_image: FaultCount::Fixed(faults),
        fault_mode: FaultMode::exponent_bit_flip(),
        seed: 0xD1FF,
        ..Scenario::default()
    }
}

/// How a case builds its hardened model from the plain one.
#[derive(Debug, Clone, Copy)]
enum Resil {
    None,
    Hardened(Protection, f32),
    Pruned,
}

/// A campaign under test. Models are rebuilt per run, because a clone
/// would drop the hooks a case registers.
#[derive(Clone)]
struct Case {
    name: &'static str,
    scenario: Scenario,
    model: fn() -> Network,
    resil: Resil,
    vit: bool,
}

impl Case {
    fn new(name: &'static str, scenario: Scenario, resil: Resil) -> Self {
        Case { name, scenario, model: || alexnet(&mcfg()), resil, vit: false }
    }

    fn loader(&self) -> ClassificationLoader {
        ClassificationLoader::new(dataset(self.scenario.dataset_size), self.scenario.batch_size)
    }

    fn models(&self) -> (Network, Option<Network>) {
        let model = (self.model)();
        let ds = dataset(self.scenario.dataset_size);
        let calib: Vec<Tensor> =
            (0..2).map(|i| Tensor::stack(&[ds.get(i).image]).unwrap()).collect();
        let bounds = || profile_bounds(&model, calib.iter()).unwrap();
        let resil = match self.resil {
            Resil::None => None,
            Resil::Hardened(p, margin) => Some(harden(&model, &bounds(), p, margin).unwrap()),
            Resil::Pruned => Some(magnitude_prune(&model, 0.5).unwrap()),
        };
        (model, resil)
    }

    fn run(&self, cfg: &RunConfig) -> ClassificationCampaignResult {
        let (model, resil) = self.models();
        let result = if self.vit {
            let (depth, heads) = (VIT_TINY_DEPTH, VIT_TINY_HEADS);
            let mut c = VitCampaign::new(model, depth, heads, self.scenario.clone(), self.loader());
            if let Some(r) = resil {
                c = c.with_resil_model(r);
            }
            c.run_with(cfg)
        } else {
            let mut c = ImgClassCampaign::new(model, self.scenario.clone(), self.loader());
            if let Some(r) = resil {
                c = c.with_resil_model(r);
            }
            c.run_with(cfg)
        };
        result.unwrap_or_else(|e| panic!("{}: campaign failed: {e}", self.name))
    }
}

/// The reference per-scope path: golden forward (hooks run), then an
/// armed, monitored clone and an armed hardened clone.
#[allow(clippy::too_many_arguments)]
fn reference_scope(
    model: &Network,
    resil: Option<(&Network, &[LayerTarget])>,
    targets: &[LayerTarget],
    kind: InjectionTarget,
    faults: &[alfi::core::FaultRecord],
    images: &Tensor,
    scope: &[(alfi::datasets::ImageRecord, usize)],
    rows: &mut Vec<ClassificationRow>,
    trace: &mut RunTrace,
) {
    let top5 = |logits: &Tensor, i: usize| {
        logits.softmax_lastdim().unwrap().batch_item(i).unwrap().topk(5)
    };
    let orig = model.forward(images).unwrap();
    let mut corrupted = model.clone();
    let monitor = Arc::new(NanInfMonitor::new());
    attach_monitor(&mut corrupted, Arc::<NanInfMonitor>::clone(&monitor) as _).unwrap();
    let armed = arm_faults(&mut [&mut corrupted], targets, faults, kind).unwrap();
    let corr = corrupted.forward(images).unwrap();
    let applied = armed.collect_applied();
    let totals = monitor.totals();
    let hardened = resil.map(|(r, rt)| {
        let mut h = r.clone();
        let _armed = arm_faults(&mut [&mut h], rt, faults, kind).unwrap();
        h.forward(images).unwrap()
    });
    for a in &applied {
        let img = match kind {
            InjectionTarget::Neurons => a.record.batch.min(scope.len() - 1),
            _ => 0,
        };
        trace.entries.push(TraceEntry {
            image_id: scope[img].0.image_id,
            applied: *a,
            output_nan_count: totals.nan as u32,
            output_inf_count: totals.inf as u32,
        });
    }
    for (i, (record, label)) in scope.iter().enumerate() {
        rows.push(ClassificationRow {
            image_id: record.image_id,
            file_name: record.file_name.clone(),
            label: *label,
            orig_top5: top5(&orig, i),
            corr_top5: top5(&corr, i),
            resil_top5: hardened.as_ref().map(|h| top5(h, i)),
            faults: applied.clone(),
            corr_nan: totals.nan,
            corr_inf: totals.inf,
        });
    }
}

/// Replays `matrix` through the reference path, scope by scope, with
/// the engine's public slot assignment.
fn reference(case: &Case, matrix: &FaultMatrix) -> ClassificationCampaignResult {
    let s = &case.scenario;
    let (model, resil) = case.models();
    let dims = [Some(vec![1, 3, HW, HW])];
    let targets = resolve_targets(&[&model], s, &dims).unwrap();
    let resil_targets = resil.as_ref().map(|r| resolve_targets(&[r], s, &dims).unwrap());
    let resil = resil.as_ref().zip(resil_targets.as_deref());
    let loader = case.loader();
    let per_image = s.injection_policy == InjectionPolicy::PerImage;
    let mut cursor = SlotCursor::new(matrix, s.injection_policy);
    let (mut rows, mut trace) = (Vec::new(), RunTrace::default());
    'run: for epoch in 0..s.num_runs as u64 {
        cursor.begin_epoch();
        for batch in loader.iter_epoch(epoch) {
            let items: Vec<_> = batch.records.into_iter().zip(batch.labels).collect();
            let scopes: Vec<(Tensor, Vec<_>, bool)> = if per_image {
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, item)| {
                        let image = Tensor::stack(&[batch.images.batch_item(i).unwrap()]).unwrap();
                        (image, vec![item], i == 0)
                    })
                    .collect()
            } else {
                vec![(batch.images, items, true)]
            };
            for (images, scope, first) in scopes {
                let Some(faults) = cursor.arm(first) else { break 'run };
                let kind = s.injection_target;
                reference_scope(
                    &model, resil, &targets, kind, faults, &images, &scope, &mut rows, &mut trace,
                );
            }
        }
    }
    ClassificationCampaignResult { rows, scenario: s.clone(), fault_matrix: matrix.clone(), trace }
}

fn artifacts(r: &ClassificationCampaignResult) -> [String; 3] {
    [CsvVariant::Original, CsvVariant::Corrupted, CsvVariant::Resilient].map(|v| r.to_csv(v))
}

/// Serializes [`check`]: it pins each run's path with the process-global
/// kernel override, so concurrent tests would run on each other's path.
static KERNEL_PATH: Mutex<()> = Mutex::new(());

/// Runs `case` on every driver and kernel path and checks each run
/// against the reference, computed on the ambient kernel path; returns
/// the reference for case-specific checks.
fn check(case: &Case) -> ClassificationCampaignResult {
    let _serial = KERNEL_PATH.lock().unwrap_or_else(|e| e.into_inner());
    let run = |threads, path| {
        let prev = gemm::kernel_override();
        gemm::set_kernel_override(Some(path));
        let result = case.run(&RunConfig::new().threads(threads));
        gemm::set_kernel_override(prev);
        result
    };
    let mut runs = vec![(1, KernelPath::Blocked, run(1, KernelPath::Blocked))];
    let expect = reference(case, &runs[0].2.fault_matrix);
    assert!(!expect.rows.is_empty(), "{}: no rows", case.name);
    for threads in [1, 2, 4, 7] {
        for path in [KernelPath::Blocked, KernelPath::Reference] {
            if (threads, path) != (1, KernelPath::Blocked) {
                runs.push((threads, path, run(threads, path)));
            }
        }
    }
    for (threads, path, got) in runs {
        let context = format!("{} at {threads} threads on {path:?}", case.name);
        assert_eq!(got.fault_matrix, expect.fault_matrix, "{context}: fault matrix");
        for (g, e) in artifacts(&got).iter().zip(artifacts(&expect).iter()) {
            assert_eq!(g, e, "{context}: rows differ");
        }
        assert!(got.trace.encode() == expect.trace.encode(), "{context}: trace.bin differs");
    }
    expect
}

#[test]
fn weight_faults_match_the_clone_and_arm_path() {
    use InjectionPolicy::*;
    use Protection::*;
    let w = InjectionTarget::Weights;
    let mut epochs = scenario(w, PerEpoch, 3);
    epochs.num_runs = 2;
    let mut one_layer = scenario(w, PerBatch, 3);
    one_layer.layer_range = Some((3, 3));
    for case in [
        Case::new(
            "weights/per_image/ranger",
            scenario(w, PerImage, 1),
            Resil::Hardened(Ranger, 0.1),
        ),
        Case::new(
            "weights/per_image/clipper",
            scenario(w, PerImage, 3),
            Resil::Hardened(Clipper, 0.1),
        ),
        Case::new("weights/per_batch/one-layer/ranger", one_layer, Resil::Hardened(Ranger, 0.1)),
        Case::new("weights/per_epoch/pruned", epochs, Resil::Pruned),
    ] {
        check(&case);
    }
}

#[test]
fn neuron_faults_match_the_clone_and_arm_path() {
    use InjectionPolicy::*;
    use Protection::*;
    let n = InjectionTarget::Neurons;
    let mut epochs = scenario(n, PerEpoch, 1);
    epochs.num_runs = 2;
    let mut one_layer = scenario(n, PerBatch, 3);
    one_layer.layer_range = Some((1, 1));
    let mut many = scenario(n, PerImage, 3);
    many.dataset_size = 12;
    let cases = [
        Case::new("neurons/per_image/clipper", many, Resil::Hardened(Clipper, 0.1)),
        Case::new("neurons/per_batch/one-layer/ranger", one_layer, Resil::Hardened(Ranger, 0.1)),
        Case::new("neurons/per_batch/clipper", scenario(n, PerBatch, 3), Resil::Hardened(Clipper, 0.1)),
        Case::new("neurons/per_epoch/pruned", epochs, Resil::Pruned),
    ];
    for case in &cases {
        let r = check(case);
        if case.scenario.injection_policy == PerImage {
            // Batch coordinates run to batch_size - 1 = 3, beyond a
            // single-image scope.
            assert!(r.fault_matrix.records.iter().any(|f| f.batch > 0), "{}", case.name);
        }
    }
}

/// A small conv net with constant weights: two 3×3 stride-2
/// convolutions (`w1`, `w2`), average pooling and a linear head.
fn conv_net(w1: f32, w2: f32) -> Network {
    let mut net = Network::new("convnet");
    let conv = |w: f32, c_in: usize| {
        Layer::Conv2d(Conv2d {
            weight: Tensor::full(&[2, c_in, 3, 3], w),
            bias: None,
            cfg: ConvConfig { stride: 2, padding: 1, dilation: 1 },
        })
    };
    let a = net.push("conv1", conv(w1, 3), &[]).unwrap();
    let b = net.push("conv2", conv(w2, 2), &[a]).unwrap();
    let p = net.push("pool", Layer::AdaptiveAvgPool2d(1), &[b]).unwrap();
    let f = net.push("flatten", Layer::Flatten, &[p]).unwrap();
    let w = Tensor::from_vec((0..2 * CLASSES).map(|i| i as f32 - 9.5).collect(), &[CLASSES, 2])
        .unwrap();
    let l = net.push("fc", Layer::Linear(Linear { weight: w, bias: None }), &[f]).unwrap();
    net.set_output(l).unwrap();
    net
}

#[test]
fn neuron_faults_count_nan_and_inf_before_the_fault() {
    // conv2 outputs mostly lie in [1, 2), where flipping bit 30 gives
    // NaN or Inf, so the faulted node's own count depends on the
    // monitor running before the fault. Three faults on conv2 and fc
    // put several on one node.
    let mut s = scenario(InjectionTarget::Neurons, InjectionPolicy::PerImage, 3);
    s.fault_mode = FaultMode::BitFlip { bit_range: (30, 30) };
    s.batch_size = 1;
    s.layer_range = Some((1, 2));
    let case = Case { model: || conv_net(0.1, 0.06), ..Case::new("loud/neurons", s, Resil::None) };
    let r = check(&case);
    let nonfinite = r.rows.iter().filter(|row| row.corr_nan + row.corr_inf > 0).count();
    assert!(nonfinite > 0, "no neuron fault produced a NaN or Inf");
    let shared = r
        .fault_matrix
        .records
        .chunks(3)
        .any(|slot| slot.iter().filter(|f| f.layer == slot[0].layer).count() > 1);
    assert!(shared, "no scope put two faults on one node");
}

#[test]
fn a_model_with_a_mutating_hook_runs_it_in_the_golden_pass_only() {
    fn hooked() -> Network {
        let mut net = alexnet(&mcfg());
        let relu = net.nodes().iter().position(|n| matches!(n.layer, Layer::Relu)).unwrap();
        let hook = move |_: &LayerCtx, t: &mut Tensor| t.map_inplace(|v| v * 0.5 + 0.25);
        net.register_hook(relu, Arc::new(hook)).unwrap();
        net
    }
    use InjectionPolicy::*;
    for (name, target, policy) in [
        ("hooked/weights/per_image", InjectionTarget::Weights, PerImage),
        ("hooked/neurons/per_batch", InjectionTarget::Neurons, PerBatch),
    ] {
        let case = Case {
            model: hooked,
            ..Case::new(name, scenario(target, policy, 1), Resil::Hardened(Protection::Ranger, 0.1))
        };
        check(&case);
    }
    let x = Tensor::stack(&[dataset(1).get(0).image]).unwrap();
    let plain = alexnet(&mcfg()).forward(&x).unwrap();
    assert_ne!(hooked().forward(&x).unwrap(), plain, "the hook must change the golden pass");
}

#[test]
fn prefix_nan_and_inf_count_from_the_golden_pass() {
    // conv1 overflows to Inf (or NaN) on the golden pass; the faults
    // only hit conv2 and fc, so every faulty pass resumes after conv1
    // and must still count its non-finite values.
    fn overflowing() -> Network {
        conv_net(1.0e38, 0.25)
    }
    for (name, target) in [
        ("overflow/weights", InjectionTarget::Weights),
        ("overflow/neurons", InjectionTarget::Neurons),
    ] {
        let mut s = scenario(target, InjectionPolicy::PerImage, 1);
        s.layer_range = Some((1, 2));
        let case = Case { model: overflowing, ..Case::new(name, s, Resil::None) };
        let r = check(&case);
        let overflowed = r.rows.iter().all(|row| row.corr_nan + row.corr_inf > 0);
        assert!(overflowed, "{name}: conv1 did not overflow");
    }
}

#[test]
fn a_margin_zero_hardened_model_resumes_only_before_tripped_guards() {
    use InjectionPolicy::*;
    let case = |name, target| {
        let mut s = scenario(target, PerImage, 1);
        s.dataset_size = 8;
        Case::new(name, s, Resil::Hardened(Protection::Ranger, 0.0))
    };
    for case in [
        case("margin0/weights", InjectionTarget::Weights),
        case("margin0/neurons", InjectionTarget::Neurons),
    ] {
        check(&case);
        // Bounds come from the first two images, so later images trip a
        // guard on their golden activations while those two do not.
        let (model, resil) = case.models();
        let resil = resil.unwrap();
        let map = NodeMap::new(&resil, &model);
        assert_eq!(map.len(), resil.num_nodes());
        let ds = dataset(case.scenario.dataset_size);
        let tripped = (0..ds.len())
            .filter(|&i| {
                let x = Tensor::stack(&[ds.get(i).image]).unwrap();
                let golden = model.evaluate(&x, Pass::new()).unwrap();
                map.resume_point(usize::MAX, &golden) < map.len()
            })
            .count();
        assert!(tripped > 0 && tripped < ds.len(), "{}: {tripped} images trip a guard", case.name);
    }
}

#[test]
fn the_vit_campaign_shares_the_path() {
    let mut s = scenario(InjectionTarget::Neurons, InjectionPolicy::PerImage, 1);
    s.fault_mode = FaultMode::any_bit_flip();
    let case =
        Case { model: || vit_tiny(&mcfg()), vit: true, ..Case::new("vit/neurons", s, Resil::None) };
    check(&case);
    let mut s = scenario(InjectionTarget::Weights, InjectionPolicy::PerBatch, 3);
    s.fault_mode = FaultMode::any_bit_flip();
    let ranger = Resil::Hardened(Protection::Ranger, 0.1);
    check(&Case {
        model: || vit_tiny(&mcfg()),
        vit: true,
        ..Case::new("vit/weights/ranger", s, ranger)
    });
}
