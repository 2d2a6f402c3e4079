//! Hardened detector twins: `harden` on every network of a detector
//! keeps the detector working.
//!
//! The retina and two-stage detectors decode from activations they look
//! up by node id, so a hardened network must keep every node id. Bounds
//! come from the inputs each network sees for 4 images; at margin 1e6
//! no guard binds, so the twin must detect exactly what the plain
//! detector detects, bit for bit, on 6 images.

use alfi::datasets::DetectionDataset;
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::detection::{
    Detection, Detector, DetectorConfig, FrcnnTwoStage, RetinaAnchor, YoloGrid,
};
use alfi::tensor::Tensor;

const HW: usize = 32;
const IMAGES: usize = 6;

fn dcfg() -> DetectorConfig {
    // Low score threshold so the compared lists hold actual boxes.
    DetectorConfig { input_hw: HW, width_mult: 0.25, score_thresh: 0.1, ..DetectorConfig::default() }
}

/// The image tensors of a seeded detection dataset, one per call.
fn images() -> Vec<Tensor> {
    let ds = DetectionDataset::new(IMAGES, dcfg().num_classes, 3, HW, 23);
    (0..IMAGES).map(|i| Tensor::stack(&[ds.get(i).image]).unwrap()).collect()
}

/// A twin of `det` whose every network is hardened with `protection`
/// at `margin`, its bounds profiled on the inputs `det` feeds that
/// network for `calib`.
fn hardened(det: &dyn Detector, calib: &[Tensor], protection: Protection, margin: f32) -> Box<dyn Detector> {
    let mut seen: Vec<Vec<Tensor>> = vec![Vec::new(); det.networks().len()];
    for image in calib {
        det.detect_with(image, &mut |n, net, x| {
            seen[n].push(x.clone());
            net.forward_all(x)
        })
        .unwrap();
    }
    let mut twin = det.clone_boxed().unwrap();
    for (net, inputs) in twin.networks_mut().into_iter().zip(&seen) {
        let bounds = profile_bounds(net, inputs.iter()).unwrap();
        let nodes = net.num_nodes();
        *net = harden(net, &bounds, protection, margin).unwrap();
        assert_eq!(net.num_nodes(), nodes, "{}: harden keeps every node", net.name());
        assert!(net.num_guards() > 0, "{}: harden guards the network", net.name());
    }
    twin
}

fn bits(dets: &[Vec<Detection>]) -> Vec<Vec<([u32; 5], usize)>> {
    dets.iter()
        .map(|image| {
            image
                .iter()
                .map(|d| {
                    let b = d.bbox;
                    ([b.x1, b.y1, b.x2, b.y2, d.score].map(f32::to_bits), d.class_id)
                })
                .collect()
        })
        .collect()
}

#[test]
fn hardened_detector_twins_detect_what_the_plain_detectors_detect() {
    let detectors: [Box<dyn Detector>; 3] = [
        Box::new(YoloGrid::new(&dcfg())),
        Box::new(RetinaAnchor::new(&dcfg())),
        Box::new(FrcnnTwoStage::new(&dcfg())),
    ];
    let images = images();
    for det in &detectors {
        for protection in [Protection::Ranger, Protection::Clipper] {
            let twin = hardened(det.as_ref(), &images[..4], protection, 1.0e6);
            let mut boxes = 0;
            for (i, image) in images.iter().enumerate() {
                let plain = det.detect(image).unwrap();
                boxes += plain.iter().map(Vec::len).sum::<usize>();
                let what = format!("{} {protection:?}, image {i}", det.name());
                let guarded = twin.detect(image).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(bits(&guarded), bits(&plain), "{what}");
            }
            assert!(boxes > 0, "{}: the plain detector detects nothing", det.name());
        }
    }
}
