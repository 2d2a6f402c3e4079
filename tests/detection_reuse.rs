//! Golden reuse in the detection campaign's faulty pass.
//!
//! The campaign keeps every network call of its golden detection. The
//! faulty pass then returns the golden activations for a network its
//! faults leave untouched, and resumes the first touched network at its
//! first faulted node. This suite covers what `tests/detection_plan.rs`
//! does not:
//!
//! - a detector whose golden pass holds Inf before every faulted node,
//!   once in a network the faults leave untouched and once in the
//!   prefix of a resumed one, so the borrowed nodes' NaN/Inf counts
//!   show in every row;
//! - a detector whose mutating hook changes the golden pass, so its
//!   golden activations must not be reused.
//!
//! Both compare every row and `trace.bin` with a clone-and-arm
//! reference (`clone_boxed`, `attach_monitor`, `arm_faults`, `detect`),
//! at 1, 2 and 7 driver threads. A traced two-stage campaign then pins
//! how often each layer is evaluated, which shows what the reuse skips.

use alfi::core::campaign::{
    DetectionCampaignResult, DetectionRow, ObjDetCampaign, RunConfig, SlotCursor,
};
use alfi::core::persist::{RunTrace, TraceEntry};
use alfi::core::{
    arm_faults, attach_monitor, resolve_targets, FaultMatrix, LayerTarget, NanInfMonitor,
};
use alfi::datasets::{DetectionDataset, DetectionLoader};
use alfi::nn::detection::{Detection, Detector, DetectorConfig, FrcnnTwoStage, RunNetwork};
use alfi::nn::{Conv2d, CustomLayer, Layer, LayerCtx, Network, NnError};
use alfi::scenario::{FaultCount, FaultMode, InjectionTarget, Scenario};
use alfi::tensor::conv::ConvConfig;
use alfi::tensor::Tensor;
use alfi::trace::Recorder;
use std::sync::Arc;

const HW: usize = 32;
const IMAGES: usize = 6;

fn dcfg() -> DetectorConfig {
    // Low score threshold so the compared rows hold actual boxes.
    DetectorConfig { input_hw: HW, width_mult: 0.25, score_thresh: 0.1, ..DetectorConfig::default() }
}

fn loader() -> DetectionLoader {
    DetectionLoader::new(DetectionDataset::new(IMAGES, dcfg().num_classes, 3, HW, 31), 2)
}

fn scenario(target: InjectionTarget, layers: (usize, usize)) -> Scenario {
    Scenario {
        dataset_size: IMAGES,
        batch_size: 2,
        injection_target: target,
        faults_per_image: FaultCount::Fixed(2),
        fault_mode: FaultMode::BitFlip { bit_range: (30, 30) },
        layer_range: Some(layers),
        seed: 0x5EED,
        ..Scenario::default()
    }
}

/// A 1×1 convolution with the given `[c_out, c_in]` weights.
fn conv1x1(c_out: usize, c_in: usize, w: impl Fn(usize, usize) -> f32) -> Layer {
    let data = (0..c_out * c_in).map(|i| w(i / c_in, i % c_in)).collect();
    Layer::Conv2d(Conv2d {
        weight: Tensor::from_vec(data, &[c_out, c_in, 1, 1]).unwrap(),
        bias: None,
        cfg: ConvConfig { stride: 1, padding: 0, dilation: 1 },
    })
}

/// Clips every value to `[-4, 4]` (NaN to -4) as a node of its own, so
/// the node before it keeps its overflowed activation.
#[derive(Debug, Clone)]
struct Clip4;

impl CustomLayer for Clip4 {
    fn type_name(&self) -> &str {
        "clip4"
    }
    fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        Ok(input.map(|v| if v.is_nan() { -4.0 } else { v.clamp(-4.0, 4.0) }))
    }
    fn clone_box(&self) -> Box<dyn CustomLayer> {
        Box::new(self.clone())
    }
}

/// A two-stage detector behind a preprocessing network (network 0)
/// whose first node overflows to Inf on every object pixel. Channels
/// 0–2 of `pre.overflow` copy the image; channel 3 sums it with
/// weights of `f32::MAX`. `pre.clip` clamps that to 4, and `pre.mix`
/// drops it again, so the two-stage detector sees the image itself.
#[derive(Clone)]
struct Overflowing {
    pre: Network,
    inner: FrcnnTwoStage,
}

impl Overflowing {
    fn new() -> Self {
        let eye = |o: usize, i: usize| if o == i { 1.0 } else { 0.0 };
        let mut pre = Network::new("pre");
        let sum = conv1x1(4, 3, |o, i| if o == 3 { f32::MAX } else { eye(o, i) });
        let a = pre.push("pre.overflow", sum, &[]).unwrap();
        let c = pre.push("pre.clip", Layer::Custom(Box::new(Clip4)), &[a]).unwrap();
        let m = pre.push("pre.mix", conv1x1(3, 4, eye), &[c]).unwrap();
        pre.set_output(m).unwrap();
        Overflowing { pre, inner: FrcnnTwoStage::new(&dcfg()) }
    }
}

impl Detector for Overflowing {
    fn name(&self) -> &str {
        "overflowing_frcnn"
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn networks(&self) -> Vec<&Network> {
        let mut nets = vec![&self.pre];
        nets.extend(self.inner.networks());
        nets
    }
    fn networks_mut(&mut self) -> Vec<&mut Network> {
        let mut nets = vec![&mut self.pre];
        nets.extend(self.inner.networks_mut());
        nets
    }
    fn detect_with(
        &self,
        images: &Tensor,
        run: &mut RunNetwork<'_>,
    ) -> Result<Vec<Vec<Detection>>, NnError> {
        let acts = run(0, &self.pre, images)?;
        let x = &acts[self.pre.output_node().unwrap()];
        self.inner.detect_with(x, &mut |i, net, t| run(i + 1, net, t))
    }
    fn clone_boxed(&self) -> Option<Box<dyn Detector>> {
        Some(Box::new(self.clone()))
    }
}

/// A two-stage detector whose `backbone.relu1` hook rescales every
/// activation, in the golden pass only.
fn hooked() -> FrcnnTwoStage {
    let mut det = FrcnnTwoStage::new(&dcfg());
    let backbone = &mut det.networks_mut()[0];
    let relu1 = backbone.node_by_name("backbone.relu1").unwrap();
    let hook = |_: &LayerCtx, t: &mut Tensor| t.map_inplace(|v| v * 0.5 + 0.25);
    backbone.register_hook(relu1, Arc::new(hook)).unwrap();
    det
}

/// The injectable targets of `det`, numbered as the campaign numbers
/// them.
fn targets_of(det: &dyn Detector, s: &Scenario) -> Vec<LayerTarget> {
    let nets = det.networks();
    let mut dims = vec![None; nets.len()];
    dims[0] = Some(vec![1, 3, HW, HW]);
    resolve_targets(&nets, s, &dims).unwrap()
}

/// Replays `matrix` image by image through the reference path: the
/// golden `detect` on `det` itself (hooks run), then a monitored clone
/// armed with the image's faults.
fn reference(det: &dyn Detector, s: &Scenario, matrix: &FaultMatrix) -> (Vec<DetectionRow>, RunTrace) {
    let targets = targets_of(det, s);
    let mut cursor = SlotCursor::new(matrix, s.injection_policy);
    let (mut rows, mut trace) = (Vec::new(), RunTrace::default());
    cursor.begin_epoch();
    for batch in loader().iter_epoch(0) {
        for (i, record) in batch.records.iter().enumerate() {
            let faults = cursor.arm(i == 0).unwrap();
            let image = Tensor::stack(&[batch.images.batch_item(i).unwrap()]).unwrap();
            let orig = det.detect(&image).unwrap().remove(0);
            let mut corrupted = det.clone_boxed().unwrap();
            let monitor = Arc::new(NanInfMonitor::new());
            let mut nets = corrupted.networks_mut();
            for net in nets.iter_mut() {
                attach_monitor(net, Arc::<NanInfMonitor>::clone(&monitor) as _).unwrap();
            }
            let armed = arm_faults(&mut nets, &targets, faults, s.injection_target).unwrap();
            drop(nets);
            let corr = corrupted.detect(&image).unwrap().remove(0);
            let applied = armed.collect_applied();
            let totals = monitor.totals();
            for a in &applied {
                trace.entries.push(TraceEntry {
                    image_id: record.image_id,
                    applied: *a,
                    output_nan_count: totals.nan as u32,
                    output_inf_count: totals.inf as u32,
                });
            }
            rows.push(DetectionRow {
                image_id: record.image_id,
                ground_truth: batch.objects[i].clone(),
                orig,
                corr,
                resil: None,
                faults: applied,
                corr_nan: totals.nan,
                corr_inf: totals.inf,
            });
        }
    }
    (rows, trace)
}

fn run(det: &dyn Detector, s: &Scenario, cfg: &RunConfig) -> DetectionCampaignResult {
    ObjDetCampaign::new(det, s.clone(), loader()).run_with(cfg).unwrap()
}

/// Detections with every f32 as its bit pattern.
fn det_bits(dets: &[Detection]) -> Vec<([u32; 5], usize)> {
    let bits = |d: &Detection| [d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2, d.score].map(f32::to_bits);
    dets.iter().map(|d| (bits(d), d.class_id)).collect()
}

/// Runs the campaign over `det` at 1, 2 and 7 driver threads and
/// requires every row and `trace.bin` to match the reference; returns
/// the reference rows.
fn check(name: &str, det: &dyn Detector, s: &Scenario) -> Vec<DetectionRow> {
    let first = run(det, s, &RunConfig::new());
    let (rows, trace) = reference(det, s, &first.fault_matrix);
    assert_eq!(rows.len(), IMAGES, "{name}: rows");
    for threads in [1, 2, 7] {
        let got = run(det, s, &RunConfig::new().threads(threads));
        let context = format!("{name} at {threads} threads");
        assert_eq!(got.rows.len(), rows.len(), "{context}: row count");
        for (g, e) in got.rows.iter().zip(&rows) {
            let at = format!("{context}, image {}", e.image_id);
            assert_eq!(det_bits(&g.orig), det_bits(&e.orig), "{at}: orig");
            assert_eq!(det_bits(&g.corr), det_bits(&e.corr), "{at}: corr");
            assert_eq!(format!("{:?}", g.faults), format!("{:?}", e.faults), "{at}: faults");
            assert_eq!((g.corr_nan, g.corr_inf), (e.corr_nan, e.corr_inf), "{at}: NaN/Inf");
        }
        assert!(got.trace.encode() == trace.encode(), "{context}: trace.bin differs");
    }
    rows
}

#[test]
fn borrowed_golden_nodes_count_their_nan_and_inf() {
    // Layer 1 is `pre.mix`: the faulty pass resumes network 0 there,
    // after the overflowing node. Layers 2–9 lie in the two-stage
    // detector, so network 0 comes back whole from the golden pass.
    let det = Overflowing::new();
    for (layers, case) in [((1, 1), "resumed prefix"), ((2, 9), "untouched network")] {
        for target in [InjectionTarget::Weights, InjectionTarget::Neurons] {
            let name = format!("{case}/{target:?}");
            let rows = check(&name, &det, &scenario(target, layers));
            assert!(rows.iter().all(|r| r.corr_inf > 0), "{name}: pre.overflow did not overflow");
        }
    }
}

#[test]
fn a_mutating_hook_keeps_its_golden_activations_out_of_the_faulty_pass() {
    // Faults from `rpn.conv` on, all after the hooked node.
    let det = hooked();
    for target in [InjectionTarget::Weights, InjectionTarget::Neurons] {
        check(&format!("hooked/{target:?}"), &det, &scenario(target, (3, 7)));
    }
    let plain = FrcnnTwoStage::new(&dcfg());
    let changed = (0..IMAGES).any(|i| {
        let image = Tensor::stack(&[loader().dataset().get(i).image]).unwrap();
        det.detect(&image).unwrap() != plain.detect(&image).unwrap()
    });
    assert!(changed, "the hook must change the golden detections");
}

/// How often a traced campaign evaluated each layer: the count of every
/// node name `names` lists.
fn layer_counts(rec: &Recorder, names: &[String]) -> Vec<(String, u64)> {
    let summary = rec.summary();
    names
        .iter()
        .map(|n| (n.clone(), summary.layer_forward.get(n).map_or(0, |t| t.count)))
        .collect()
}

#[test]
fn a_traced_campaign_evaluates_only_the_layers_a_fault_reaches() {
    let det = FrcnnTwoStage::new(&dcfg());
    let nets = det.networks();
    let names = |net: &Network| net.nodes().iter().map(|n| n.name.clone()).collect::<Vec<_>>();
    let (backbone, head) = (names(nets[0]), names(nets[1]));
    let rpn_conv = backbone.iter().position(|n| n == "rpn.conv").unwrap();
    let images = IMAGES as u64;
    // Layer 6 is `head.fc1`, the head's first node; layer 3 is
    // `rpn.conv`. Low mantissa flips keep the faulty proposals, so the
    // faulty pass reaches the head on every image.
    for (layers, before) in [((6, 6), backbone.len()), ((3, 3), rpn_conv)] {
        let mut s = scenario(InjectionTarget::Weights, layers);
        s.fault_mode = FaultMode::BitFlip { bit_range: (0, 3) };
        for threads in [1, 2] {
            let rec = Recorder::new();
            run(&det, &s, &RunConfig::new().threads(threads).recorder(rec.clone()));
            let mut expect = Vec::new();
            for (id, name) in backbone.iter().enumerate() {
                expect.push((name.clone(), if id < before { images } else { 2 * images }));
            }
            for name in &head {
                expect.push((name.clone(), 2 * images));
            }
            let all: Vec<String> = backbone.iter().chain(&head).cloned().collect();
            assert_eq!(layer_counts(&rec, &all), expect, "layers {layers:?} at {threads} threads");
        }
    }
}
