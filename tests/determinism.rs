//! End-to-end determinism: the hermetic stack (alfi-rng sampling,
//! in-tree persistence, campaign drivers) must make every run a pure
//! function of the scenario seed. Two campaigns built independently
//! from the same scenario have to produce byte-identical fault files
//! and byte-identical result CSVs — the property the paper's fault
//! re-use workflow ("the identical set of faults can be utilized
//! across various experiments", §IV-B) depends on.

use alfi::core::campaign::{CsvVariant, ImgClassCampaign, ObjDetCampaign, RunConfig};
use alfi::core::encode_fault_matrix;
use alfi::datasets::{ClassificationDataset, ClassificationLoader, DetectionDataset, DetectionLoader};
use alfi::eval::write_detection_outputs;
use alfi::nn::detection::{DetectorConfig, YoloGrid};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{FaultMode, InjectionPolicy, InjectionTarget, Scenario};

fn model_cfg() -> ModelConfig {
    ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 7, ..ModelConfig::default() }
}

fn scenario(target: InjectionTarget) -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = 6;
    s.injection_target = target;
    s.injection_policy = InjectionPolicy::PerImage;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 0xDE7E_2019;
    s
}

fn run_once(target: InjectionTarget) -> (Vec<u8>, String, String) {
    let mcfg = model_cfg();
    let ds = ClassificationDataset::new(6, mcfg.num_classes, 3, 16, 11);
    let loader = ClassificationLoader::new(ds, 2);
    let result =
        ImgClassCampaign::new(alexnet(&mcfg), scenario(target), loader).run_with(&RunConfig::default()).unwrap();
    (
        encode_fault_matrix(&result.fault_matrix),
        result.to_csv(CsvVariant::Original),
        result.to_csv(CsvVariant::Corrupted),
    )
}

/// Weight-fault campaigns are byte-reproducible from the seed alone.
#[test]
fn weight_campaign_is_byte_reproducible() {
    let (bytes_a, orig_a, corr_a) = run_once(InjectionTarget::Weights);
    let (bytes_b, orig_b, corr_b) = run_once(InjectionTarget::Weights);
    assert_eq!(bytes_a, bytes_b, "fault-matrix bytes must be identical");
    assert_eq!(orig_a, orig_b, "fault-free CSV must be identical");
    assert_eq!(corr_a, corr_b, "corrupted CSV must be identical");
}

/// Neuron-fault campaigns are byte-reproducible too (separate sampling
/// path: output coordinates instead of weight coordinates).
#[test]
fn neuron_campaign_is_byte_reproducible() {
    let (bytes_a, orig_a, corr_a) = run_once(InjectionTarget::Neurons);
    let (bytes_b, orig_b, corr_b) = run_once(InjectionTarget::Neurons);
    assert_eq!(bytes_a, bytes_b);
    assert_eq!(orig_a, orig_b);
    assert_eq!(corr_a, corr_b);
}

/// The std::thread::scope parallel driver produces the same CSV bytes
/// as the sequential driver, for any worker count.
#[test]
fn parallel_campaign_matches_sequential_bytes() {
    let mcfg = model_cfg();
    let ds = ClassificationDataset::new(6, mcfg.num_classes, 3, 16, 11);

    let seq = ImgClassCampaign::new(
        alexnet(&mcfg),
        scenario(InjectionTarget::Weights),
        ClassificationLoader::new(ds.clone(), 2),
    )
    .run_with(&RunConfig::default())
    .unwrap();
    for threads in [1, 3] {
        let par = ImgClassCampaign::new(
            alexnet(&mcfg),
            scenario(InjectionTarget::Weights),
            ClassificationLoader::new(ds.clone(), 2),
        )
        .run_with(&RunConfig::new().threads(threads))
        .unwrap();
        assert_eq!(
            encode_fault_matrix(&seq.fault_matrix),
            encode_fault_matrix(&par.fault_matrix)
        );
        assert_eq!(
            seq.to_csv(CsvVariant::Corrupted),
            par.to_csv(CsvVariant::Corrupted),
            "{threads}-thread run must match sequential"
        );
    }
}

/// A multi-resolution (per-layer rate map) scenario is just as
/// thread-count-independent as the flat one: the resolved layer plans
/// feed the same slot-cursor sampling, so a CNN campaign with rate,
/// mode and channel overrides produces identical fault-matrix bytes
/// and CSVs at 1/2/4/7 threads.
#[test]
fn rate_map_campaign_matches_sequential_bytes_at_all_thread_counts() {
    use alfi::scenario::LayerOverride;
    let mcfg = model_cfg();
    let ds = ClassificationDataset::new(6, mcfg.num_classes, 3, 16, 11);
    let scenario = || {
        let mut s = scenario(InjectionTarget::Weights);
        s.layer_overrides = std::collections::BTreeMap::from([
            ("0".to_string(), LayerOverride { rate: Some(0.4), ..Default::default() }),
            (
                "2-3".to_string(),
                LayerOverride {
                    mode: Some(FaultMode::QuantStep { bits: 8, amax: 4.0, bit_range: (0, 7) }),
                    ..Default::default()
                },
            ),
            ("5".to_string(), LayerOverride { channel_range: Some((0, 0)), ..Default::default() }),
        ]);
        s
    };

    let seq = ImgClassCampaign::new(
        alexnet(&mcfg),
        scenario(),
        ClassificationLoader::new(ds.clone(), 2),
    )
    .run_with(&RunConfig::default())
    .unwrap();
    for threads in [1usize, 2, 4, 7] {
        let par = ImgClassCampaign::new(
            alexnet(&mcfg),
            scenario(),
            ClassificationLoader::new(ds.clone(), 2),
        )
        .run_with(&RunConfig::new().threads(threads))
        .unwrap();
        assert_eq!(
            encode_fault_matrix(&seq.fault_matrix),
            encode_fault_matrix(&par.fault_matrix),
            "{threads}-thread rate-map fault matrix must match sequential"
        );
        assert_eq!(
            seq.to_csv(CsvVariant::Original),
            par.to_csv(CsvVariant::Original),
            "{threads}-thread rate-map fault-free CSV must match sequential"
        );
        assert_eq!(
            seq.to_csv(CsvVariant::Corrupted),
            par.to_csv(CsvVariant::Corrupted),
            "{threads}-thread rate-map corrupted CSV must match sequential"
        );
    }
}

/// The pool-backed parallel detection campaign writes artifacts that
/// are byte-identical to the sequential driver's at 1, 2 and 7
/// threads — fault file, trace, detection JSONs and IVMOD metrics.
#[test]
fn parallel_detection_artifacts_match_sequential_bytes() {
    const FILES: [&str; 7] = [
        "faults.bin",
        "trace.bin",
        "ground_truth.json",
        "detections_orig.json",
        "detections_corr.json",
        "metrics.json",
        "scenario.yml",
    ];
    let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
    let mut s = scenario(InjectionTarget::Weights);
    s.dataset_size = 5;

    let write = |threads: Option<usize>, tag: &str| {
        let det = YoloGrid::new(&dcfg);
        let ds = DetectionDataset::new(5, dcfg.num_classes, 3, 32, 9);
        let gt = ds.coco_ground_truth();
        let loader = DetectionLoader::new(ds, 1);
        let mut campaign = ObjDetCampaign::new(&det, s.clone(), loader);
        let dir = std::env::temp_dir().join(format!("alfi_it_det_parallel_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let result = match threads {
            None => campaign.run_with(&RunConfig::new().save_dir(&dir)).unwrap(),
            Some(t) => campaign.run_with(&RunConfig::new().threads(t).save_dir(&dir)).unwrap(),
        };
        write_detection_outputs(&result, &gt, dcfg.num_classes, 0.5, &dir).unwrap();
        dir
    };

    let seq_dir = write(None, "seq");
    for threads in [1usize, 2, 7] {
        let par_dir = write(Some(threads), &threads.to_string());
        for file in FILES {
            let a = std::fs::read(seq_dir.join(file)).unwrap();
            let b = std::fs::read(par_dir.join(file)).unwrap();
            assert_eq!(a, b, "{file} differs between sequential and {threads}-thread runs");
        }
        let _ = std::fs::remove_dir_all(&par_dir);
    }
    let _ = std::fs::remove_dir_all(&seq_dir);
}

/// On-disk artifacts written twice from the same seed are identical at
/// the byte level — faults.bin, trace.bin and both CSVs.
#[test]
fn written_artifacts_are_byte_identical_across_runs() {
    let run = |tag: &str| {
        let mcfg = model_cfg();
        let ds = ClassificationDataset::new(6, mcfg.num_classes, 3, 16, 11);
        let loader = ClassificationLoader::new(ds, 2);
        let dir = std::env::temp_dir().join(format!("alfi_it_determinism_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        ImgClassCampaign::new(alexnet(&mcfg), scenario(InjectionTarget::Weights), loader)
            .run_with(&RunConfig::new().save_dir(&dir))
            .unwrap();
        dir
    };
    let a = run("a");
    let b = run("b");
    for file in ["faults.bin", "trace.bin", "results_orig.csv", "results_corr.csv", "scenario.yml"]
    {
        let fa = std::fs::read(a.join(file)).unwrap();
        let fb = std::fs::read(b.join(file)).unwrap();
        assert_eq!(fa, fb, "{file} differs between identical-seed runs");
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}
