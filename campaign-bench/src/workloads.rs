//! The three seeded workloads and the public `alfi` calls each one
//! makes: set-up, the campaign, the report step a user runs next, and
//! the replay of one sampled row for the traced run. Every call is
//! wrapped in a [`Tracer`] span named after the layer it enters.

use crate::spans::Tracer;
use alfi::core::campaign::{
    ClassificationCampaignResult, DetectionCampaignResult, ImgClassCampaign, ObjDetCampaign,
    RunConfig, VitCampaign,
};
use alfi::core::{
    arm_faults, attach_monitor, load_fault_matrix, resolve_targets, save_fault_matrix, FaultMatrix,
    LayerTarget, NanInfMonitor,
};
use alfi::datasets::{
    ClassificationDataset, ClassificationLoader, CocoGroundTruth, DetectionDataset, DetectionLoader,
};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::detection::{Detector, DetectorConfig, FrcnnTwoStage};
use alfi::nn::models::{vgg16, vit_tiny, ModelConfig, VIT_TINY_DEPTH, VIT_TINY_HEADS};
use alfi::nn::Network;
use alfi::scenario::{
    ArtifactFormat, CiMethod, FaultMode, InjectionPolicy, InjectionTarget, Scenario, StopPolicy,
    StopScope,
};
use alfi::store::{StoreReader, StoreWriter};
use alfi::tensor::Tensor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The shipped transformer scenario; the `vit-neurons` workload starts
/// from it and changes only what its description says.
const VIT_SCENARIO: &str = include_str!("../../scenarios/vit.yml");

/// Side length of the generated images, for every workload.
const INPUT_HW: usize = 32;

/// IoU threshold of the detection report step, as `alfi detect` uses it.
const IOU: f32 = 0.5;

pub type Res<T> = Result<T, String>;

/// `map_err` adapter naming the call that failed.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CnnWeights,
    VitNeurons,
    DetectFrcnn,
}

/// One workload: what it runs, on how many threads, and how large.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `ALFI_POOL_THREADS` for the process: the global pool is sized
    /// once per process, so the benchmark pins it before first use.
    pub pool_threads: usize,
    /// `RunConfig::threads`: 1 is the sequential driver, 2 the pooled
    /// parallel driver.
    pub driver_threads: usize,
    pub format: ArtifactFormat,
    /// Images in the dataset, which is the planned number of fault
    /// scopes (one `per_image` scope per image, one epoch).
    pub images: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cnn-weights",
        kind: Kind::CnnWeights,
        pool_threads: 2,
        driver_threads: 1,
        format: ArtifactFormat::Csv,
        images: 160,
    },
    Workload {
        name: "vit-neurons",
        kind: Kind::VitNeurons,
        pool_threads: 1,
        driver_threads: 1,
        format: ArtifactFormat::Binary,
        images: 2000,
    },
    Workload {
        name: "detect-frcnn",
        kind: Kind::DetectFrcnn,
        pool_threads: 2,
        driver_threads: 2,
        format: ArtifactFormat::Binary,
        images: 600,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: derives independent sub-seeds (weights, dataset,
/// scenario, row sample) from the one workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a campaign runs on: the model(s) or detector and the data.
pub enum Subject {
    Class {
        model: Network,
        /// The Ranger-hardened copy run in lock-step (`cnn-weights`).
        hardened: Option<Network>,
        loader: ClassificationLoader,
    },
    Det {
        det: FrcnnTwoStage,
        loader: DetectionLoader,
        ground_truth: CocoGroundTruth,
        num_classes: usize,
    },
}

/// Everything set-up produces: the campaign is ready to inject.
pub struct Prep {
    pub scenario: Scenario,
    pub subject: Subject,
    pub targets: Vec<LayerTarget>,
    pub matrix: FaultMatrix,
    /// The matrix read back from `faults.bin` (traced runs only; the
    /// untraced run reloads it outside the timed set-up).
    pub reloaded: Option<FaultMatrix>,
}

impl Prep {
    /// The image of fault slot `slot` as a one-image batch.
    fn image(&self, slot: usize) -> Res<Tensor> {
        let image = match &self.subject {
            Subject::Class { loader, .. } => loader.dataset().get(slot).image,
            Subject::Det { loader, .. } => loader.dataset().get(slot).image,
        };
        Tensor::stack(&[image]).map_err(err("stack"))
    }

    /// One fault-free `Network::forward` or `Detector::detect`.
    fn golden(&self, input: &Tensor) -> Res<()> {
        match &self.subject {
            Subject::Class { model, .. } => model.forward(input).map(drop).map_err(err("forward")),
            Subject::Det { det, .. } => det.detect(input).map(drop).map_err(err("detect")),
        }
    }

    /// One golden forward on slot 0's image, outside any span; the
    /// traced run counts its FLOPs.
    pub fn golden_forward(&self) -> Res<()> {
        self.golden(&self.image(0)?)
    }

    /// Weight bytes one clone of the model carries, in MiB.
    pub fn clone_mib(&self) -> f64 {
        let weights: usize = match &self.subject {
            Subject::Class { model, .. } => model.num_weights(),
            Subject::Det { det, .. } => det.networks().iter().map(|n| n.num_weights()).sum(),
        };
        (weights * 4) as f64 / (1u64 << 20) as f64
    }
}

impl Workload {
    fn scenario(&self, seed: u64) -> Res<Scenario> {
        let mut s = match self.kind {
            Kind::VitNeurons => {
                let mut s =
                    Scenario::from_yaml_str(VIT_SCENARIO).map_err(err("scenarios/vit.yml"))?;
                s.injection_target = InjectionTarget::Neurons;
                s.fault_mode = FaultMode::any_bit_flip();
                s.stop_policy = Some(StopPolicy {
                    half_width: 0.02,
                    confidence: 0.95,
                    min_samples: 30,
                    check_every: 16,
                    scope: StopScope::PerLayer,
                    method: CiMethod::Wilson,
                });
                s
            }
            Kind::CnnWeights | Kind::DetectFrcnn => Scenario {
                injection_target: InjectionTarget::Weights,
                fault_mode: FaultMode::exponent_bit_flip(),
                weighted_layer_selection: true,
                ..Scenario::default()
            },
        };
        s.dataset_size = self.images;
        s.num_runs = 1;
        s.batch_size = 1;
        s.injection_policy = InjectionPolicy::PerImage;
        s.seed = mix(seed, 3);
        Ok(s)
    }

    /// Builds the campaign from the seed up to a written `faults.bin`
    /// in `dir`: the span `setup` and its children. A tracing tracer
    /// also reads `faults.bin` back inside the `core.faults_bin` span.
    pub fn setup(&self, seed: u64, dir: &Path, t: &mut Tracer) -> Res<Prep> {
        t.span("setup", |t| {
            let scenario = self.scenario(seed)?;
            let subject = match self.kind {
                Kind::CnnWeights | Kind::VitNeurons => {
                    let mcfg = ModelConfig {
                        input_hw: INPUT_HW,
                        width_mult: 0.125,
                        seed: mix(seed, 1),
                        ..ModelConfig::default()
                    };
                    let model = t.span("nn.build", |_| match self.kind {
                        Kind::CnnWeights => vgg16(&mcfg),
                        _ => vit_tiny(&mcfg),
                    });
                    let ds = t.span("datasets.build", |_| {
                        ClassificationDataset::new(
                            self.images,
                            mcfg.num_classes,
                            mcfg.in_channels,
                            mcfg.input_hw,
                            mix(seed, 2),
                        )
                    });
                    let hardened = if self.kind == Kind::CnnWeights {
                        let bounds = t.span("mitigation.profile", |_| {
                            let calib: Vec<Tensor> = (0..4)
                                .map(|i| Tensor::stack(&[ds.get(i).image]))
                                .collect::<Result<_, _>>()
                                .map_err(err("calibration batch"))?;
                            profile_bounds(&model, calib.iter()).map_err(err("profile_bounds"))
                        })?;
                        Some(
                            t.span("mitigation.harden", |_| {
                                harden(&model, &bounds, Protection::Ranger, 0.1)
                            })
                            .map_err(err("harden"))?,
                        )
                    } else {
                        None
                    };
                    let loader = ClassificationLoader::new(ds, scenario.batch_size);
                    Subject::Class {
                        model,
                        hardened,
                        loader,
                    }
                }
                Kind::DetectFrcnn => {
                    let dcfg = DetectorConfig {
                        input_hw: INPUT_HW,
                        width_mult: 0.25,
                        seed: mix(seed, 1),
                        ..DetectorConfig::default()
                    };
                    let det = t.span("nn.build", |_| FrcnnTwoStage::new(&dcfg));
                    let (loader, ground_truth) = t.span("datasets.build", |_| {
                        let ds = DetectionDataset::new(
                            self.images,
                            dcfg.num_classes,
                            dcfg.in_channels,
                            dcfg.input_hw,
                            mix(seed, 2),
                        );
                        let gt = ds.coco_ground_truth();
                        (DetectionLoader::new(ds, scenario.batch_size), gt)
                    });
                    Subject::Det {
                        det,
                        loader,
                        ground_truth,
                        num_classes: dcfg.num_classes,
                    }
                }
            };
            let targets = t.span("core.resolve_targets", |_| {
                let nets: Vec<&Network> = match &subject {
                    Subject::Class { model, .. } => vec![model],
                    Subject::Det { det, .. } => det.networks(),
                };
                // Only the first network sees the image; later ones (the
                // RoI head) have run-time input shapes.
                let mut dims = vec![None; nets.len()];
                dims[0] = Some(vec![1, 3, INPUT_HW, INPUT_HW]);
                resolve_targets(&nets, &scenario, &dims).map_err(err("resolve_targets"))
            })?;
            let matrix = t
                .span("core.matrix_generate", |_| {
                    FaultMatrix::generate(&scenario, &targets)
                })
                .map_err(err("FaultMatrix::generate"))?;
            let path = dir.join("faults.bin");
            let reloaded = t.span("core.faults_bin", |t| {
                save_fault_matrix(&matrix, &path).map_err(err("save_fault_matrix"))?;
                t.is_enabled()
                    .then(|| load_fault_matrix(&path).map_err(err("load_fault_matrix")))
                    .transpose()
            })?;
            Ok(Prep {
                scenario,
                subject,
                targets,
                matrix,
                reloaded,
            })
        })
    }
}

/// The result of one campaign pass.
pub enum Outcome {
    Class(ClassificationCampaignResult),
    Det(DetectionCampaignResult),
}

impl Outcome {
    pub fn rows(&self) -> usize {
        match self {
            Outcome::Class(r) => r.rows.len(),
            Outcome::Det(r) => r.rows.len(),
        }
    }
}

/// Runs one campaign pass into `cfg`'s directory and returns it with
/// the wall time of the `run_with` call alone. The campaign is built
/// from clones of the prepared state outside the timed call.
pub fn campaign(wl: &Workload, prep: &Prep, cfg: &RunConfig) -> Res<(Outcome, f64)> {
    let cfg = cfg.clone().threads(wl.driver_threads).format(wl.format);
    let sc = prep.scenario.clone();
    let matrix = prep.matrix.clone();
    let timed = |f: &mut dyn FnMut() -> Res<Outcome>| {
        let t0 = Instant::now();
        let out = f()?;
        Ok((out, t0.elapsed().as_secs_f64()))
    };
    match &prep.subject {
        Subject::Class {
            model,
            hardened: None,
            loader,
        } if wl.kind == Kind::VitNeurons => {
            let mut c = VitCampaign::new(
                model.clone(),
                VIT_TINY_DEPTH,
                VIT_TINY_HEADS,
                sc,
                loader.clone(),
            )
            .with_fault_matrix(matrix);
            timed(&mut || {
                c.run_with(&cfg)
                    .map(Outcome::Class)
                    .map_err(err("VitCampaign::run_with"))
            })
        }
        Subject::Class {
            model,
            hardened,
            loader,
        } => {
            let mut c =
                ImgClassCampaign::new(model.clone(), sc, loader.clone()).with_fault_matrix(matrix);
            if let Some(h) = hardened {
                c = c.with_resil_model(h.clone());
            }
            timed(&mut || {
                c.run_with(&cfg)
                    .map(Outcome::Class)
                    .map_err(err("ImgClassCampaign::run_with"))
            })
        }
        Subject::Det { det, loader, .. } => {
            let mut det = det.clone();
            let mut c = ObjDetCampaign::new(&mut det, sc, loader.clone()).with_fault_matrix(matrix);
            timed(&mut || {
                c.run_with(&cfg)
                    .map(Outcome::Det)
                    .map_err(err("ObjDetCampaign::run_with"))
            })
        }
    }
}

/// The post-run step a user runs next, on the run directory `dir`:
/// `analyze_dir` + `write_report_files` for classification,
/// `write_detection_outputs` for detection. Returns the number of rows
/// the report accounts for, which the caller checks against the row
/// count. A tracing tracer also times the KPI computation on its own and
/// the store scan and re-encode (`tmp` receives the re-encoded copy).
pub fn report(prep: &Prep, out: &Outcome, dir: &Path, tmp: &Path, t: &mut Tracer) -> Res<u64> {
    t.span("report", |t| {
        let rows = match (out, &prep.subject) {
            (Outcome::Class(_), _) => {
                let rep = t
                    .span("analyze.report", |_| {
                        alfi::analyze::report::analyze_dir(dir)
                    })
                    .map_err(err("analyze_dir"))?;
                t.span("analyze.render", |_| {
                    alfi::analyze::report::write_report_files(&rep, dir)
                })
                .map_err(err("write_report_files"))?;
                let o = rep.overall;
                if o.masked + o.sdc + o.due != rep.rows || o.samples != rep.rows {
                    return Err(format!(
                        "report overall {o:?} does not add up to {} rows",
                        rep.rows
                    ));
                }
                rep.rows
            }
            (
                Outcome::Det(result),
                Subject::Det {
                    ground_truth,
                    num_classes,
                    ..
                },
            ) => {
                if t.is_enabled() {
                    t.span("eval.kpi", |_| {
                        let gts: Vec<_> =
                            result.rows.iter().map(|r| r.ground_truth.clone()).collect();
                        let orig: Vec<_> = result.rows.iter().map(|r| r.orig.clone()).collect();
                        let corr: Vec<_> = result.rows.iter().map(|r| r.corr.clone()).collect();
                        let k = alfi::eval::ivmod_kpis(&result.rows, IOU);
                        let a = alfi::eval::coco_metrics(&orig, &gts, *num_classes);
                        let b = alfi::eval::coco_metrics(&corr, &gts, *num_classes);
                        std::hint::black_box((k, a, b));
                    });
                }
                let summary = t
                    .span("eval.write", |_| {
                        alfi::eval::write_detection_outputs(
                            result,
                            ground_truth,
                            *num_classes,
                            IOU,
                            dir,
                        )
                    })
                    .map_err(err("write_detection_outputs"))?;
                let (sde, due) = (&summary.ivmod.ivmod_sde, &summary.ivmod.ivmod_due);
                if sde.total != due.total {
                    return Err(format!(
                        "IVMOD totals disagree: SDE over {}, DUE over {}",
                        sde.total, due.total
                    ));
                }
                sde.total as u64
            }
            (Outcome::Det(_), Subject::Class { .. }) => {
                return Err("detection outcome of a classification subject".into())
            }
        };
        if t.is_enabled() && dir.join("rows.alfic").is_file() {
            store_roundtrip(dir, tmp, t)?;
        }
        Ok(rows)
    })
}

/// Scans `rows.alfic` (span `store.scan`) and re-encodes the scanned
/// rows under the run's own schema and block size (span `store.write`).
fn store_roundtrip(dir: &Path, tmp: &Path, t: &mut Tracer) -> Res<()> {
    let (rows, schema, block_rows) = t.span("store.scan", |_| {
        let mut r = StoreReader::open(dir.join("rows.alfic")).map_err(err("StoreReader::open"))?;
        let mut rows = Vec::with_capacity(r.total_rows() as usize);
        r.for_each_row(|k, v| {
            rows.push((*k, v.to_vec()));
            Ok(())
        })
        .map_err(err("for_each_row"))?;
        Ok::<_, String>((rows, r.schema().clone(), r.block_rows()))
    })?;
    t.span("store.write", |_| {
        let mut w = StoreWriter::create(tmp.join("rows.alfic"), schema, block_rows)
            .map_err(err("StoreWriter::create"))?;
        for (k, v) in &rows {
            w.append(*k, v).map_err(err("StoreWriter::append"))?;
        }
        w.finish().map_err(err("StoreWriter::finish")).map(|_| ())
    })
}

/// Rows in the binary store, counted by scanning every block.
pub fn store_rows(dir: &Path) -> Res<u64> {
    let mut r = StoreReader::open(dir.join("rows.alfic")).map_err(err("StoreReader::open"))?;
    let mut n = 0u64;
    r.for_each_row(|_, _| {
        n += 1;
        Ok(())
    })
    .map_err(err("for_each_row"))?;
    if n != r.total_rows() {
        return Err(format!(
            "store index claims {} rows, scan found {n}",
            r.total_rows()
        ));
    }
    Ok(n)
}

/// State the row replay reuses across rows: the hardened model's own
/// targets and a monitored, fault-free copy for the monitor probe.
pub struct Replay {
    hardened_targets: Option<Vec<LayerTarget>>,
    monitored: Probe,
}

enum Probe {
    Net(Network),
    Det(Box<dyn Detector>),
}

impl Replay {
    pub fn new(prep: &Prep) -> Res<Replay> {
        let monitor = || Arc::new(NanInfMonitor::new());
        Ok(match &prep.subject {
            Subject::Class {
                model, hardened, ..
            } => {
                let dims = [Some(vec![1, 3, INPUT_HW, INPUT_HW])];
                let hardened_targets = hardened
                    .as_ref()
                    .map(|h| resolve_targets(&[h], &prep.scenario, &dims))
                    .transpose()
                    .map_err(err("resolve_targets (hardened)"))?;
                let mut monitored = model.clone();
                attach_monitor(&mut monitored, monitor()).map_err(err("attach_monitor"))?;
                Replay {
                    hardened_targets,
                    monitored: Probe::Net(monitored),
                }
            }
            Subject::Det { det, .. } => {
                let mut monitored = det.clone_boxed().ok_or("frcnn detector is not cloneable")?;
                for net in monitored.networks_mut() {
                    attach_monitor(net, monitor()).map_err(err("attach_monitor"))?;
                }
                Replay {
                    hardened_targets: None,
                    monitored: Probe::Det(monitored),
                }
            }
        })
    }

    /// Replays fault slot `slot` as a `row` span with the per-row layer
    /// calls of the campaign as children, then times one forward of the
    /// monitored fault-free copy (span `nn.monitored_forward`).
    pub fn row(&self, prep: &Prep, slot: usize, t: &mut Tracer) -> Res<()> {
        let faults = prep.matrix.faults_for_slot(slot);
        let target = prep.scenario.injection_target;
        let monitor = || Arc::new(NanInfMonitor::new());
        let input = t.row_span("row", slot as u64, |t| {
            let input = t.span("datasets.image", |_| prep.image(slot))?;
            match &prep.subject {
                Subject::Class {
                    model, hardened, ..
                } => {
                    t.span("nn.forward", |_| prep.golden(&input))?;
                    let mut corrupted = t.span("nn.clone", |_| model.clone());
                    let armed = t.span("core.arm", |_| {
                        attach_monitor(&mut corrupted, monitor()).map_err(err("attach_monitor"))?;
                        arm_faults(&mut [&mut corrupted], &prep.targets, faults, target)
                            .map_err(err("arm_faults"))
                    })?;
                    t.span("nn.faulty_forward", |_| corrupted.forward(&input))
                        .map_err(err("faulty forward"))?;
                    t.span("core.disarm", |_| armed.disarm(&mut [&mut corrupted]));
                    if let (Some(h), Some(ht)) = (hardened, &self.hardened_targets) {
                        let mut hc = t.span("nn.clone", |_| h.clone());
                        let armed = t
                            .span("core.arm", |_| {
                                arm_faults(&mut [&mut hc], ht, faults, target)
                            })
                            .map_err(err("arm_faults (hardened)"))?;
                        t.span("nn.hardened_forward", |_| hc.forward(&input))
                            .map_err(err("hardened forward"))?;
                        t.span("core.disarm", |_| armed.disarm(&mut [&mut hc]));
                    }
                }
                Subject::Det { det, .. } => {
                    // The parallel driver clones the detector per work
                    // item, then detects, arms, detects and disarms.
                    let mut d = t
                        .span("nn.clone", |_| det.clone_boxed())
                        .ok_or("frcnn detector is not cloneable")?;
                    t.span("nn.forward", |_| d.detect(&input))
                        .map_err(err("detect"))?;
                    let (armed, hooks) = t.span("core.arm", |_| {
                        let mut nets = d.networks_mut();
                        let mut hooks = Vec::new();
                        for net in nets.iter_mut() {
                            hooks.push(
                                attach_monitor(net, monitor()).map_err(err("attach_monitor"))?,
                            );
                        }
                        let armed = arm_faults(&mut nets, &prep.targets, faults, target)
                            .map_err(err("arm_faults"))?;
                        Ok::<_, String>((armed, hooks))
                    })?;
                    t.span("nn.faulty_forward", |_| d.detect(&input))
                        .map_err(err("faulty detect"))?;
                    t.span("core.disarm", |_| {
                        let mut nets = d.networks_mut();
                        armed.disarm(&mut nets);
                        for (net, handles) in nets.iter_mut().zip(hooks) {
                            for h in handles {
                                net.remove_hook(h);
                            }
                        }
                    });
                }
            }
            Ok::<_, String>(input)
        })?;
        t.span("nn.monitored_forward", |_| match &self.monitored {
            Probe::Net(n) => n.forward(&input).map(drop),
            Probe::Det(d) => d.detect(&input).map(drop),
        })
        .map_err(err("monitored forward"))
    }
}

/// A seeded sample of `n` distinct fault slots out of `planned`,
/// ascending.
pub fn sample_slots(seed: u64, planned: usize, n: usize) -> Vec<usize> {
    let mut slots: Vec<usize> = (0..planned).collect();
    let n = n.min(planned);
    for i in 0..n {
        let j = i + (mix(seed, 100 + i as u64) % (planned - i) as u64) as usize;
        slots.swap(i, j);
    }
    slots.truncate(n);
    slots.sort_unstable();
    slots
}
