//! Detection campaigns never clone their detectors.
//!
//! A detector wrapper counts its `clone_boxed` calls. A 64-image
//! campaign with a hardened twin, at 1, 2 and 4 driver threads, must
//! clone neither detector — every worker shares the borrowed ones and
//! injects through per-call fault plans — and its rows, `rows.alfic`
//! and `trace.bin` must equal the sequential run's.

use alfi::core::campaign::{DetectionCampaignResult, ObjDetCampaign, RunConfig};
use alfi::datasets::{DetectionDataset, DetectionLoader};
use alfi::nn::detection::{Detection, Detector, DetectorConfig, FrcnnTwoStage, RunNetwork};
use alfi::nn::graph::Network;
use alfi::nn::NnError;
use alfi::scenario::{ArtifactFormat, FaultMode, InjectionTarget, Scenario};
use alfi::tensor::Tensor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const IMAGES: usize = 64;

/// A two-stage detector that counts how often it is cloned.
struct Counted {
    inner: FrcnnTwoStage,
    clones: Arc<AtomicUsize>,
}

impl Detector for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn networks(&self) -> Vec<&Network> {
        self.inner.networks()
    }

    fn networks_mut(&mut self) -> Vec<&mut Network> {
        self.inner.networks_mut()
    }

    fn detect_with(
        &self,
        images: &Tensor,
        run: &mut RunNetwork<'_>,
    ) -> Result<Vec<Vec<Detection>>, NnError> {
        self.inner.detect_with(images, run)
    }

    fn clone_boxed(&self) -> Option<Box<dyn Detector>> {
        self.clones.fetch_add(1, Ordering::Relaxed);
        Some(Box::new(Counted { inner: self.inner.clone(), clones: Arc::clone(&self.clones) }))
    }
}

fn counted() -> (Counted, Arc<AtomicUsize>) {
    let cfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
    let clones = Arc::new(AtomicUsize::new(0));
    (Counted { inner: FrcnnTwoStage::new(&cfg), clones: Arc::clone(&clones) }, clones)
}

/// Runs the campaign at `threads` and returns the result, the run
/// directory and the primary / hardened clone counts.
fn run(threads: usize) -> (DetectionCampaignResult, PathBuf, usize, usize) {
    let (det, det_clones) = counted();
    let (resil, resil_clones) = counted();
    let mut s = Scenario::default();
    s.dataset_size = IMAGES;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 0xC10E;
    let ds = DetectionDataset::new(IMAGES, det.num_classes(), 3, 32, 29);
    let loader = DetectionLoader::new(ds, 4);
    let dir = std::env::temp_dir().join(format!("alfi_it_det_clones_{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunConfig::new().threads(threads).save_dir(&dir).format(ArtifactFormat::Binary);
    let result = ObjDetCampaign::new(&det, s, loader)
        .with_resil_detector(&resil)
        .run_with(&cfg)
        .unwrap();
    let counts = (det_clones.load(Ordering::Relaxed), resil_clones.load(Ordering::Relaxed));
    (result, dir, counts.0, counts.1)
}

#[test]
fn parallel_detection_never_clones() {
    let (seq, seq_dir, seq_clones, seq_resil_clones) = run(1);
    assert_eq!(seq.rows.len(), IMAGES);
    assert_eq!((seq_clones, seq_resil_clones), (0, 0), "clones at 1 thread");
    for threads in [2usize, 4] {
        let (par, dir, det_clones, resil_clones) = run(threads);
        assert_eq!((det_clones, resil_clones), (0, 0), "clones at {threads} threads");
        assert_eq!(par.rows.len(), seq.rows.len());
        for (a, b) in seq.rows.iter().zip(&par.rows) {
            assert_eq!(a.image_id, b.image_id);
            assert_eq!(a.orig, b.orig, "image {} at {threads} threads", a.image_id);
            assert_eq!(a.corr, b.corr, "image {} at {threads} threads", a.image_id);
            assert_eq!(a.resil, b.resil, "image {} at {threads} threads", a.image_id);
            assert_eq!(a.faults, b.faults);
            assert_eq!((a.corr_nan, a.corr_inf), (b.corr_nan, b.corr_inf));
        }
        for file in ["rows.alfic", "trace.bin"] {
            let want = std::fs::read(seq_dir.join(file)).unwrap();
            let got = std::fs::read(dir.join(file)).unwrap();
            assert!(want == got, "{file} at {threads} threads differs from the sequential run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&seq_dir);
}
