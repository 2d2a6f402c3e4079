//! Differential suite for the detection campaign's per-scope path.
//!
//! The campaign shares one detector across its workers: every scope
//! runs a golden `detect`, then the faulty and hardened passes through
//! per-call fault plans (`FaultPlan::detect`) that never change the
//! detector. This suite rebuilds every scope as a reference from the
//! public clone-and-arm API only — `Detector::clone_boxed`,
//! `attach_monitor` on every network, `arm_faults`, `detect`,
//! `collect_applied`, `disarm` — and requires every row (`orig`, `corr`,
//! `resil`, `faults`, bit for bit, and the NaN/Inf counts) and the
//! encoded `trace.bin` to match.
//!
//! The cases cover the grid, anchor/FPN and two-stage detectors; weight
//! and neuron faults flipping exponent bit 30, two per image,
//! so NaN and Inf run through decode; neuron faults in the two-stage
//! RoI head; `per_image` and `per_batch` slots; and runs with and
//! without a Ranger-hardened twin — each at 1, 2, 4 and 7 driver
//! threads. A last test pins that a hook on a detector network runs in
//! the golden pass only, in place and in pooled rounds.

use alfi::core::campaign::{
    DetectionCampaignResult, DetectionRow, ObjDetCampaign, RunConfig, SlotCursor,
};
use alfi::core::persist::{RunTrace, TraceEntry};
use alfi::core::{
    arm_faults, attach_monitor, resolve_targets, AppliedFault, FaultMatrix, FaultRecord,
    LayerTarget, NanInfMonitor,
};
use alfi::datasets::{DetectionDataset, DetectionLoader, GroundTruthBox, ImageRecord};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::detection::{
    Detection, Detector, DetectorConfig, FrcnnTwoStage, RetinaAnchor, YoloGrid,
};
use alfi::nn::LayerCtx;
use alfi::scenario::{FaultCount, FaultMode, InjectionPolicy, InjectionTarget, Scenario};
use alfi::tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const HW: usize = 32;
const IMAGES: usize = 8;

fn dcfg() -> DetectorConfig {
    // Low score threshold so the compared rows hold actual boxes.
    DetectorConfig { input_hw: HW, width_mult: 0.25, score_thresh: 0.1, ..DetectorConfig::default() }
}

fn dataset() -> DetectionDataset {
    DetectionDataset::new(IMAGES, dcfg().num_classes, 3, HW, 23)
}

fn scenario(target: InjectionTarget, policy: InjectionPolicy, faults: usize) -> Scenario {
    Scenario {
        dataset_size: IMAGES,
        batch_size: 2,
        injection_target: target,
        injection_policy: policy,
        faults_per_image: FaultCount::Fixed(faults),
        fault_mode: FaultMode::BitFlip { bit_range: (30, 30) },
        // Seeds under which some rows see NaN or Inf.
        seed: match target {
            InjectionTarget::Weights => 0xF7C5,
            InjectionTarget::Neurons => 0xF7D4,
        },
        ..Scenario::default()
    }
}

/// A detector family under test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    Yolo,
    Retina,
    Frcnn,
}

impl Family {
    fn build(self) -> Box<dyn Detector> {
        match self {
            Family::Yolo => Box::new(YoloGrid::new(&dcfg())),
            Family::Retina => Box::new(RetinaAnchor::new(&dcfg())),
            Family::Frcnn => Box::new(FrcnnTwoStage::new(&dcfg())),
        }
    }
}

/// A Ranger-hardened twin of `det`: every network gets range guards
/// profiled on the inputs `det` feeds it for two images.
fn hardened(det: &dyn Detector) -> Box<dyn Detector> {
    let ds = dataset();
    let mut seen: Vec<Vec<Tensor>> = vec![Vec::new(); det.networks().len()];
    for i in 0..2 {
        let image = Tensor::stack(&[ds.get(i).image]).unwrap();
        det.detect_with(&image, &mut |n, net, x| {
            seen[n].push(x.clone());
            net.forward_all(x)
        })
        .unwrap();
    }
    let mut twin = det.clone_boxed().unwrap();
    for (net, inputs) in twin.networks_mut().into_iter().zip(&seen) {
        let bounds = profile_bounds(net, inputs.iter()).unwrap();
        *net = harden(net, &bounds, Protection::Ranger, 0.1).unwrap();
    }
    twin
}

/// A campaign under test.
struct Case {
    name: String,
    family: Family,
    scenario: Scenario,
    resil: bool,
}

impl Case {
    fn loader(&self) -> DetectionLoader {
        DetectionLoader::new(dataset(), self.scenario.batch_size)
    }

    fn detectors(&self) -> (Box<dyn Detector>, Option<Box<dyn Detector>>) {
        let det = self.family.build();
        let resil = self.resil.then(|| hardened(det.as_ref()));
        (det, resil)
    }

    fn run(&self, threads: usize) -> DetectionCampaignResult {
        let (det, resil) = self.detectors();
        let mut c = ObjDetCampaign::new(det.as_ref(), self.scenario.clone(), self.loader());
        if let Some(r) = &resil {
            c = c.with_resil_detector(r.as_ref());
        }
        c.run_with(&RunConfig::new().threads(threads))
            .unwrap_or_else(|e| panic!("{}: campaign failed: {e}", self.name))
    }
}

/// The reference per-scope path: golden `detect` on the detector
/// itself, then a monitored, armed clone and an armed hardened clone.
#[allow(clippy::too_many_arguments)]
fn reference_scope(
    det: &dyn Detector,
    resil: Option<(&dyn Detector, &[LayerTarget])>,
    targets: &[LayerTarget],
    kind: InjectionTarget,
    faults: &[FaultRecord],
    image: &Tensor,
    (record, ground_truth): (&ImageRecord, &[GroundTruthBox]),
    rows: &mut Vec<DetectionRow>,
    trace: &mut RunTrace,
) {
    let orig = det.detect(image).unwrap().remove(0);
    let mut corrupted = det.clone_boxed().unwrap();
    let monitor = Arc::new(NanInfMonitor::new());
    let mut nets = corrupted.networks_mut();
    for net in nets.iter_mut() {
        attach_monitor(net, Arc::<NanInfMonitor>::clone(&monitor) as _).unwrap();
    }
    let armed = arm_faults(&mut nets, targets, faults, kind).unwrap();
    drop(nets);
    let corr = corrupted.detect(image).unwrap().remove(0);
    let applied = armed.collect_applied();
    armed.disarm(&mut corrupted.networks_mut());
    let totals = monitor.totals();
    let resil = resil.map(|(r, rt)| {
        let mut h = r.clone_boxed().unwrap();
        let armed = arm_faults(&mut h.networks_mut(), rt, faults, kind).unwrap();
        let out = h.detect(image).unwrap().remove(0);
        armed.disarm(&mut h.networks_mut());
        out
    });
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
        ground_truth: ground_truth.to_vec(),
        orig,
        corr,
        resil,
        faults: applied,
        corr_nan: totals.nan,
        corr_inf: totals.inf,
    });
}

/// The injectable targets of `det`, numbered as the campaign numbers
/// them.
fn targets_of(det: &dyn Detector, s: &Scenario) -> Vec<LayerTarget> {
    let nets = det.networks();
    let mut dims = vec![None; nets.len()];
    dims[0] = Some(vec![1, 3, HW, HW]);
    resolve_targets(&nets, s, &dims).unwrap()
}

/// Replays `matrix` through the reference path, image by image, with
/// the engine's public slot assignment.
fn reference(case: &Case, matrix: &FaultMatrix) -> DetectionCampaignResult {
    let s = &case.scenario;
    let (det, resil) = case.detectors();
    let targets = targets_of(det.as_ref(), s);
    let resil_targets = resil.as_ref().map(|r| targets_of(r.as_ref(), s));
    let resil = resil.as_deref().zip(resil_targets.as_deref());
    let mut cursor = SlotCursor::new(matrix, s.injection_policy);
    let (mut rows, mut trace) = (Vec::new(), RunTrace::default());
    'run: for epoch in 0..s.num_runs as u64 {
        cursor.begin_epoch();
        for batch in case.loader().iter_epoch(epoch) {
            for (i, record) in batch.records.iter().enumerate() {
                let Some(faults) = cursor.arm(i == 0) else { break 'run };
                let image = Tensor::stack(&[batch.images.batch_item(i).unwrap()]).unwrap();
                let scope = (record, batch.objects[i].as_slice());
                let kind = s.injection_target;
                reference_scope(
                    det.as_ref(),
                    resil,
                    &targets,
                    kind,
                    faults,
                    &image,
                    scope,
                    &mut rows,
                    &mut trace,
                );
            }
        }
    }
    DetectionCampaignResult {
        rows,
        scenario: s.clone(),
        fault_matrix: matrix.clone(),
        trace,
        model_name: det.name().to_string(),
    }
}

/// Detections with every f32 as its bit pattern.
fn det_bits(dets: &[Detection]) -> Vec<([u32; 5], usize)> {
    let bits = |d: &Detection| [d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2, d.score].map(f32::to_bits);
    dets.iter().map(|d| (bits(d), d.class_id)).collect()
}

/// Applied faults with every f32 as its bit pattern.
fn fault_bits(faults: &[AppliedFault]) -> Vec<(String, u32, u32)> {
    let key = |a: &AppliedFault| format!("{:?} {:?}", a.record, a.direction);
    faults.iter().map(|a| (key(a), a.original.to_bits(), a.corrupted.to_bits())).collect()
}

/// Runs `case` on every driver width and checks each run against the
/// reference; returns the reference for case-specific checks.
fn check(case: &Case) -> DetectionCampaignResult {
    let first = case.run(1);
    let expect = reference(case, &first.fault_matrix);
    assert_eq!(expect.rows.len(), IMAGES, "{}: rows", case.name);
    let runs = std::iter::once((1, first)).chain([2, 4, 7].map(|t| (t, case.run(t))));
    for (threads, got) in runs {
        let context = format!("{} at {threads} threads", case.name);
        assert_eq!(got.fault_matrix, expect.fault_matrix, "{context}: fault matrix");
        assert_eq!(got.rows.len(), expect.rows.len(), "{context}: row count");
        for (g, e) in got.rows.iter().zip(&expect.rows) {
            let at = format!("{context}, image {}", e.image_id);
            assert_eq!(g.image_id, e.image_id, "{at}: image id");
            assert_eq!(det_bits(&g.orig), det_bits(&e.orig), "{at}: orig");
            assert_eq!(det_bits(&g.corr), det_bits(&e.corr), "{at}: corr");
            let resil = |r: &DetectionRow| r.resil.as_deref().map(det_bits);
            assert_eq!(resil(g), resil(e), "{at}: resil");
            assert_eq!(fault_bits(&g.faults), fault_bits(&e.faults), "{at}: faults");
            assert_eq!((g.corr_nan, g.corr_inf), (e.corr_nan, e.corr_inf), "{at}: NaN/Inf");
        }
        assert!(got.trace.encode() == expect.trace.encode(), "{context}: trace.bin differs");
    }
    expect
}

/// Whether some row saw a NaN or Inf in the corrupted networks.
fn nonfinite(r: &DetectionCampaignResult) -> bool {
    r.rows.iter().any(|row| row.corr_nan + row.corr_inf > 0)
}

/// Whether some row carries applied faults in both networks of a
/// two-network detector.
fn faults_in_both_networks(case: &Case, r: &DetectionCampaignResult) -> bool {
    let targets = targets_of(case.family.build().as_ref(), &case.scenario);
    r.rows.iter().any(|row| {
        let on = |net: usize| row.faults.iter().any(|a| targets[a.record.layer].net_idx == net);
        on(0) && on(1)
    })
}

fn cases(target: InjectionTarget, faults: usize) -> Vec<Case> {
    let mut out = Vec::new();
    for family in [Family::Yolo, Family::Retina, Family::Frcnn] {
        for resil in [false, true] {
            let policy = InjectionPolicy::PerImage;
            let name = format!("{family:?}/{target:?}/resil={resil}");
            out.push(Case { name, family, scenario: scenario(target, policy, faults), resil });
        }
    }
    let name = format!("Frcnn/{target:?}/per_batch/resil=true");
    let s = scenario(target, InjectionPolicy::PerBatch, faults);
    out.push(Case { name, family: Family::Frcnn, scenario: s, resil: true });
    // `rpn.deltas`, `head.fc1` and `head.out`: the last backbone layer
    // and the RoI head, whose few neurons Eq. 1 rarely picks otherwise.
    let name = format!("Frcnn/{target:?}/rpn+head/resil=true");
    let mut s = scenario(target, InjectionPolicy::PerImage, faults);
    s.layer_range = Some((5, 7));
    out.push(Case { name, family: Family::Frcnn, scenario: s, resil: true });
    out
}

#[test]
fn weight_faults_match_the_armed_clone_path() {
    let (mut both, mut loud) = (false, false);
    for case in cases(InjectionTarget::Weights, 2) {
        let r = check(&case);
        loud |= nonfinite(&r);
        if case.family == Family::Frcnn {
            both |= faults_in_both_networks(&case, &r);
        }
    }
    assert!(both, "no two-stage row carries weight faults in both networks");
    assert!(loud, "no weight-fault row saw a NaN or Inf");
}

#[test]
fn neuron_faults_match_the_armed_clone_path() {
    let (mut head, mut loud) = (false, false);
    for case in cases(InjectionTarget::Neurons, 2) {
        let r = check(&case);
        loud |= nonfinite(&r);
        if case.family == Family::Frcnn {
            let targets = targets_of(case.family.build().as_ref(), &case.scenario);
            head |= r.rows.iter().flat_map(|row| &row.faults).any(|a| {
                targets[a.record.layer].net_idx == 1
            });
        }
    }
    assert!(head, "no neuron fault landed in the two-stage RoI head");
    assert!(loud, "no neuron-fault row saw a NaN or Inf");
}

#[test]
fn detector_hooks_run_in_the_golden_pass_only_on_both_drivers() {
    // One call per image from the golden `detect`, plus the shape
    // inference `resolve_targets` runs on the backbone.
    const IMAGES: usize = 4;
    for threads in [1, 3] {
        let mut det = FrcnnTwoStage::new(&dcfg());
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let hook = move |_: &LayerCtx, _: &mut Tensor| {
            counter.fetch_add(1, Ordering::Relaxed);
        };
        det.networks_mut()[0].register_hook(0, Arc::new(hook)).unwrap();
        let mut s = scenario(InjectionTarget::Weights, InjectionPolicy::PerImage, 2);
        s.dataset_size = IMAGES;
        let loader = DetectionLoader::new(DetectionDataset::new(IMAGES, 8, 3, HW, 23), 2);
        let result = ObjDetCampaign::new(&det, s, loader)
            .run_with(&RunConfig::new().threads(threads))
            .unwrap();
        assert_eq!(result.rows.len(), IMAGES);
        let calls = calls.load(Ordering::Relaxed);
        assert_eq!(calls, IMAGES + 1, "hook calls at {threads} threads");
    }
}
