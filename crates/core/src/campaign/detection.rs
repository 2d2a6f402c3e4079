//! High-level object-detection campaign — the
//! `test_error_models_objdet.py` equivalent.
//!
//! Runs fault-free and faulty detection passes in lock-step over a
//! detection dataset (§V-B, §V-F-2). Faults may land in any of the
//! detector's networks (backbone, heads, second stage); the fault
//! record's layer index spans the combined injectable-layer list.
//!
//! The campaign is a thin [`CampaignTask`] adapter: policy iteration,
//! fault-slot assignment, replay validation, tracing, pool fan-out and
//! persistence all live in the shared campaign [`Engine`]. Batches are
//! streamed from the loader one at a time (never collected up front),
//! so memory stays bounded on large scenarios.

use crate::artifact::{ArtifactSink, Artifacts, ColumnarSink};
use crate::campaign::classification::fault_columns;
use crate::campaign::config::RunConfig;
use crate::campaign::engine::{CampaignTask, Engine, ScopeCtx, ScopeSink};
use crate::error::CoreError;
use crate::fault::AppliedFault;
use crate::injector::FaultPlan;
use crate::matrix::{FaultMatrix, LayerTarget};
use crate::persist::{RunTrace, TraceEntry};
use alfi_datasets::loader::DetectionLoader;
use alfi_datasets::GroundTruthBox;
use alfi_nn::detection::{Detection, Detector};
use alfi_nn::{NodeId, Pass};
use alfi_scenario::{ArtifactFormat, Scenario};
use alfi_serde::to_compact;
use alfi_store::{ColumnSpec, ColumnType, Encoding, Schema, Value};
use alfi_tensor::Tensor;
use alfi_trace::{EffectClass, Phase, Recorder};
use std::ops::ControlFlow;

/// Per-image detection campaign row.
#[derive(Debug, Clone)]
pub struct DetectionRow {
    /// Dataset image id.
    pub image_id: u64,
    /// Ground-truth objects for the image.
    pub ground_truth: Vec<GroundTruthBox>,
    /// Fault-free detections.
    pub orig: Vec<Detection>,
    /// Fault-injected detections.
    pub corr: Vec<Detection>,
    /// Hardened (mitigation) detector output under the same faults,
    /// when a resil detector was given.
    pub resil: Option<Vec<Detection>>,
    /// Faults applied while this image was processed.
    pub faults: Vec<AppliedFault>,
    /// NaN elements observed in the corrupted detector's networks.
    pub corr_nan: usize,
    /// Infinite elements observed in the corrupted detector's networks.
    pub corr_inf: usize,
}

/// Full detection campaign output.
#[derive(Debug, Clone)]
pub struct DetectionCampaignResult {
    /// One row per processed image.
    pub rows: Vec<DetectionRow>,
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The pre-generated fault matrix.
    pub fault_matrix: FaultMatrix,
    /// Applied-fault trace.
    pub trace: RunTrace,
    /// Detector model name.
    pub model_name: String,
}

/// One detection fault scope: a single `[1, c, h, w]` image with its
/// dataset record and ground-truth boxes. Detection scopes are always
/// per-image — multi-image batches still run one detect pass per
/// image, whatever the injection policy.
#[derive(Debug)]
pub struct DetectionScope {
    image: Tensor,
    record: alfi_datasets::ImageRecord,
    ground_truth: Vec<GroundTruthBox>,
}

/// The high-level object-detection campaign runner.
///
/// Like [`ImgClassCampaign`](crate::campaign::ImgClassCampaign), the
/// campaign never changes its models: it *borrows* its detector(s) and
/// runs every fault through a per-call [`FaultPlan`], so one shared
/// detector serves the golden, faulty and hardened passes of every
/// worker. Each scope runs one golden detection, with the detector's
/// registered hooks, and keeps every network call's activations. The
/// faulty pass runs [`FaultPlan::detect`] from them: a call on a
/// network the faults leave untouched returns the golden activations,
/// and the first touched call resumes at its first faulted node. A
/// detector carrying hooks keeps no golden activations, since the
/// faulty pass skips hooks, so its faulty pass starts every network at
/// node 0. So does the hardened pass, whose networks differ from the
/// golden ones.
#[derive(Debug)]
pub struct ObjDetCampaign<'a, D: Detector + ?Sized> {
    detector: &'a D,
    resil_detector: Option<&'a D>,
    scenario: Scenario,
    loader: DetectionLoader,
    fault_matrix: Option<FaultMatrix>,
}

impl<'a, D: Detector + ?Sized> ObjDetCampaign<'a, D> {
    /// Creates a campaign over `detector` with the given scenario and
    /// data.
    pub fn new(detector: &'a D, scenario: Scenario, loader: DetectionLoader) -> Self {
        ObjDetCampaign { detector, resil_detector: None, scenario, loader, fault_matrix: None }
    }

    /// Replays a previously persisted fault matrix instead of generating
    /// a new one (the paper's `fault_file` parameter of
    /// `test_rand_ObjDet_SBFs_inj`).
    pub fn with_fault_matrix(mut self, matrix: FaultMatrix) -> Self {
        self.fault_matrix = Some(matrix);
        self
    }

    /// Adds a hardened detector to run in lock-step under the *same*
    /// faults. It must expose the same injectable-layer list as the
    /// primary one. Like the primary it is only borrowed, and its hooks
    /// never run.
    pub fn with_resil_detector(mut self, resil: &'a D) -> Self {
        self.resil_detector = Some(resil);
        self
    }

    /// Runs the campaign with the given [`RunConfig`] — the single
    /// entry point for every driver and thread count, delegating to the
    /// shared campaign [`Engine`] (see its docs for dispatch, tracing
    /// and persistence semantics).
    ///
    /// # Errors
    ///
    /// Resolution/injection errors, [`CoreError::WorkerPanic`] for
    /// panicking pool workers.
    pub fn run_with(&mut self, cfg: &RunConfig) -> Result<DetectionCampaignResult, CoreError> {
        Engine::new(cfg).run(&*self)
    }
}

impl<D: Detector + ?Sized> CampaignTask for ObjDetCampaign<'_, D> {
    type Scope = DetectionScope;
    type Row = DetectionRow;
    type Result = DetectionCampaignResult;

    fn kind(&self) -> &'static str {
        "detection"
    }

    fn model_name(&self) -> String {
        self.detector.name().to_string()
    }

    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn hardened_noun(&self) -> &'static str {
        "detector"
    }

    fn replay_matrix(&self) -> Option<&FaultMatrix> {
        self.fault_matrix.as_ref()
    }

    fn resolve_targets(&self) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError> {
        // Reference shapes: the first (primary) network sees the image;
        // further networks (e.g. RoI heads) have run-time-dependent
        // inputs, so their neuron coordinates fall back to channel
        // bounds.
        let input_dims = {
            let ds = self.loader.dataset();
            vec![1usize, ds.channels(), ds.image_hw(), ds.image_hw()]
        };
        let resolve = |det: &D| {
            let nets = det.networks();
            let mut dims: Vec<Option<Vec<usize>>> = vec![None; nets.len()];
            if let Some(first) = dims.first_mut() {
                *first = Some(input_dims.clone());
            }
            crate::matrix::resolve_targets(&nets, &self.scenario, &dims)
        };
        let targets = resolve(self.detector)?;
        let resil_targets = self.resil_detector.map(resolve).transpose()?;
        Ok((targets, resil_targets))
    }

    fn stream_scopes(
        &self,
        epoch: u64,
        sink: &mut ScopeSink<'_, DetectionScope>,
    ) -> Result<ControlFlow<()>, CoreError> {
        for batch in self.loader.iter_epoch(epoch) {
            for i in 0..batch.records.len() {
                let image = batch.images.batch_item(i).map_err(alfi_nn::NnError::from)?;
                let image = Tensor::stack(&[image]).map_err(alfi_nn::NnError::from)?;
                let scope = DetectionScope {
                    image,
                    record: batch.records[i].clone(),
                    ground_truth: batch.objects[i].clone(),
                };
                if sink(i == 0, scope)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Runs the fault-free / faulty (/ hardened) detection passes for
    /// one image. The faulty pass's NaN/Inf counts cover every node of
    /// every network call it makes: golden activations it reuses, then
    /// each evaluated node after its layer and before its neuron faults.
    fn process_scope(
        &self,
        ctx: &ScopeCtx<'_>,
        scope: &DetectionScope,
        rec: &Recorder,
        rows: &mut Vec<DetectionRow>,
        trace: &mut RunTrace,
    ) -> Result<(), CoreError> {
        let worker = alfi_pool::worker_index();
        let image = &scope.image;
        let kind = ctx.scenario.injection_target;
        // Hooks run in the golden pass only, so hooked golden
        // activations are not the ones the hook-free faulty pass
        // computes: keep none of them then.
        let keep = self.detector.networks().iter().all(|net| net.num_hooks() == 0);
        let mut golden = Vec::new();
        let orig = {
            let _span = rec.span_on(Phase::Forward, worker);
            self.detector
                .detect_with(image, &mut |i, net, x| {
                    let acts = net.evaluate(x, Pass::new().all_nodes().traced(rec))?.into_nodes()?;
                    if keep {
                        golden.push((i, acts.clone()));
                    }
                    Ok(acts)
                })?
                .remove(0)
        };

        let plan = {
            let _span = rec.span_on(Phase::Inject, worker);
            FaultPlan::new(&self.detector.networks(), ctx.targets, ctx.faults, kind)?
        };
        let (mut nan, mut inf) = (0usize, 0usize);
        let mut observe = |_: NodeId, t: &Tensor| {
            if t.has_non_finite() {
                nan += t.count_nan();
                inf += t.count_inf();
            }
        };
        let (mut corr, applied) = {
            let _span = rec.span_on(Phase::Forward, worker);
            plan.detect(self.detector, image, &golden, rec, &mut observe)?
        };

        let resil = match (self.resil_detector, ctx.resil_targets) {
            (Some(rdet), Some(rt)) => {
                let plan = {
                    let _span = rec.span_on(Phase::Inject, worker);
                    FaultPlan::new(&rdet.networks(), rt, ctx.faults, kind)?
                };
                let _span = rec.span_on(Phase::Forward, worker);
                Some(plan.detect(rdet, image, &[], rec, &mut |_, _| {})?.0.remove(0))
            }
            _ => None,
        };

        let _eval = rec.span_on(Phase::Eval, worker);
        for a in &applied {
            trace.entries.push(TraceEntry {
                image_id: scope.record.image_id,
                applied: *a,
                output_nan_count: nan as u32,
                output_inf_count: inf as u32,
            });
        }
        rows.push(DetectionRow {
            image_id: scope.record.image_id,
            ground_truth: scope.ground_truth.clone(),
            orig,
            corr: corr.remove(0),
            resil,
            faults: applied,
            corr_nan: nan,
            corr_inf: inf,
        });
        Ok(())
    }

    fn classify(row: &DetectionRow) -> EffectClass {
        classify_detection_row(row)
    }

    fn row_nonfinite(row: &DetectionRow) -> (u64, u64) {
        (row.corr_nan as u64, row.corr_inf as u64)
    }

    fn finalize(
        &self,
        rows: Vec<DetectionRow>,
        matrix: FaultMatrix,
        trace: RunTrace,
    ) -> DetectionCampaignResult {
        DetectionCampaignResult {
            rows,
            scenario: self.scenario.clone(),
            fault_matrix: matrix,
            trace,
            model_name: self.detector.name().to_string(),
        }
    }

    fn make_row_sink(
        &self,
        format: ArtifactFormat,
        artifacts: &Artifacts,
    ) -> Result<Option<Box<dyn ArtifactSink<DetectionRow>>>, CoreError> {
        match format {
            // CSV-format detection runs keep their JSON result writers
            // in `alfi-eval` (COCO ground truth, detections, KPIs); the
            // engine writes only the replay set.
            ArtifactFormat::Csv => Ok(None),
            ArtifactFormat::Binary => {
                let resil = self.resil_detector.is_some();
                Ok(Some(Box::new(ColumnarSink::create(
                    artifacts.rows_store(),
                    det_store_schema(resil),
                    move |row: &DetectionRow| det_store_values(row, resil),
                )?)))
            }
        }
    }
}

/// Columnar store schema for detection rows: numeric image id, the
/// ground-truth / per-variant detection lists as compact JSON text,
/// the six fault columns and the NaN/Inf counts.
fn det_store_schema(resil: bool) -> Schema {
    let mut cols = vec![
        ColumnSpec::new("image_id", ColumnType::U64, Encoding::Delta),
        ColumnSpec::new("ground_truth", ColumnType::Str, Encoding::Plain),
        ColumnSpec::new("orig", ColumnType::Str, Encoding::Plain),
        ColumnSpec::new("corr", ColumnType::Str, Encoding::Plain),
    ];
    if resil {
        cols.push(ColumnSpec::new("resil", ColumnType::Str, Encoding::Plain));
    }
    for name in
        ["fault_layers", "fault_channels", "fault_depths", "fault_heights", "fault_widths", "fault_bits"]
    {
        cols.push(ColumnSpec::new(name, ColumnType::Str, Encoding::Plain));
    }
    cols.push(ColumnSpec::new("nan_count", ColumnType::U32, Encoding::Plain));
    cols.push(ColumnSpec::new("inf_count", ColumnType::U32, Encoding::Plain));
    Schema::new(cols).with_meta("kind", "detection").with_meta("resil", if resil { "1" } else { "0" })
}

/// Projects one row onto the [`det_store_schema`] column order.
fn det_store_values(row: &DetectionRow, resil: bool) -> Vec<Value> {
    let mut values = vec![
        Value::U64(row.image_id),
        Value::Str(to_compact(&row.ground_truth)),
        Value::Str(to_compact(&row.orig)),
        Value::Str(to_compact(&row.corr)),
    ];
    if resil {
        values.push(Value::Str(to_compact(row.resil.as_deref().unwrap_or_default())));
    }
    for col in fault_columns(&row.faults) {
        values.push(Value::Str(col));
    }
    values.push(Value::U32(row.corr_nan as u32));
    values.push(Value::U32(row.corr_inf as u32));
    values
}

/// Renders one decoded store row as a JSON object line for
/// `rows.jsonl`. The detection cells already hold JSON text, so they
/// embed verbatim; the fault columns contain only `[0-9;sv-]`
/// characters and need no escaping.
pub(crate) fn store_row_to_json_line(values: &[Value], resil: bool) -> Result<String, CoreError> {
    use crate::artifact::{cell_str, cell_u64};
    let image_id = cell_u64(values, 0)?;
    let gt = cell_str(values, 1)?;
    let orig = cell_str(values, 2)?;
    let corr = cell_str(values, 3)?;
    let mut line = format!(
        "{{\"image_id\":{image_id},\"ground_truth\":{gt},\"orig\":{orig},\"corr\":{corr}"
    );
    let mut idx = 4;
    if resil {
        let r = cell_str(values, idx)?;
        line.push_str(&format!(",\"resil\":{r}"));
        idx += 1;
    }
    for name in
        ["fault_layers", "fault_channels", "fault_depths", "fault_heights", "fault_widths", "fault_bits"]
    {
        let v = cell_str(values, idx)?;
        line.push_str(&format!(",\"{name}\":\"{v}\""));
        idx += 1;
    }
    let nan = cell_u64(values, idx)?;
    let inf = cell_u64(values, idx + 1)?;
    line.push_str(&format!(",\"nan_count\":{nan},\"inf_count\":{inf}}}\n"));
    Ok(line)
}

/// Trace-level fault-effect classification of one detection row: DUE
/// when non-finite values surfaced in the corrupted networks, SDC when
/// the detection set silently changed, masked otherwise.
fn classify_detection_row(row: &DetectionRow) -> EffectClass {
    if row.corr_nan + row.corr_inf > 0 {
        EffectClass::Due
    } else if row.corr != row.orig {
        EffectClass::Sdc
    } else {
        EffectClass::Masked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_datasets::detection::DetectionDataset;
    use alfi_nn::detection::{DetectorConfig, RunNetwork, YoloGrid};
    use alfi_nn::graph::Network;
    use alfi_scenario::{FaultMode, InjectionTarget};
    use alfi_tensor::Tensor;

    fn run_campaign(scenario: Scenario) -> DetectionCampaignResult {
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let det = YoloGrid::new(&dcfg);
        let ds = DetectionDataset::new(scenario.dataset_size, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, scenario.batch_size);
        ObjDetCampaign::new(&det, scenario, loader)
            .run_with(&RunConfig::default())
            .unwrap()
    }

    #[test]
    fn detection_campaign_produces_rows_and_traces() {
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let result = run_campaign(s);
        assert_eq!(result.rows.len(), 4);
        assert_eq!(result.model_name, "yolo_grid");
        for row in &result.rows {
            assert!(!row.ground_truth.is_empty());
            assert_eq!(row.faults.len(), 1);
            assert!(row.resil.is_none());
        }
        assert_eq!(result.trace.entries.len(), 4);
    }

    #[test]
    fn detector_is_pristine_after_campaign() {
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let det = YoloGrid::new(&dcfg);
        let reference = YoloGrid::new(&dcfg);
        let probe = Tensor::ones(&[1, 3, 32, 32]);
        let before = reference.detect(&probe).unwrap();

        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Weights;
        let ds = DetectionDataset::new(3, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, 1);
        ObjDetCampaign::new(&det, s, loader).run_with(&RunConfig::default()).unwrap();

        let after = det.detect(&probe).unwrap();
        assert_eq!(before, after, "weights must be reverted and hooks removed");
        assert_eq!(det.networks()[0].num_hooks(), 0);
    }

    #[test]
    fn resil_detector_runs_in_lockstep_and_stays_pristine() {
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let det = YoloGrid::new(&dcfg);
        let resil = YoloGrid::new(&dcfg);
        let reference = YoloGrid::new(&dcfg);
        let probe = Tensor::ones(&[1, 3, 32, 32]);
        let before = reference.detect(&probe).unwrap();

        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let ds = DetectionDataset::new(3, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, 1);
        let result = ObjDetCampaign::new(&det, s, loader)
            .with_resil_detector(&resil)
            .run_with(&RunConfig::default())
            .unwrap();
        for row in &result.rows {
            // identical model + identical faults => identical output
            assert_eq!(row.resil.as_ref(), Some(&row.corr));
        }
        assert_eq!(resil.detect(&probe).unwrap(), before, "hardened detector left pristine");
    }

    #[test]
    fn parallel_resil_matches_sequential() {
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let run = |threads: usize| {
            let det = YoloGrid::new(&dcfg);
            let resil = YoloGrid::new(&dcfg);
            let ds = DetectionDataset::new(4, dcfg.num_classes, 3, 32, 3);
            let loader = DetectionLoader::new(ds, 1);
            ObjDetCampaign::new(&det, s.clone(), loader)
                .with_resil_detector(&resil)
                .run_with(&RunConfig::new().threads(threads))
                .unwrap()
        };
        let seq = run(1);
        let par = run(3);
        for (a, b) in seq.rows.iter().zip(par.rows.iter()) {
            assert_eq!(a.resil, b.resil);
            assert_eq!(a.corr, b.corr);
        }
    }

    #[test]
    fn neuron_faults_into_detector_apply() {
        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Neurons;
        s.fault_mode = FaultMode::RandomValue { min: 100.0, max: 100.1 };
        let result = run_campaign(s);
        let applied: usize = result.rows.iter().map(|r| r.faults.len()).sum();
        assert!(applied >= 2, "most neuron faults should land (batch 1), got {applied}");
    }

    /// Target resolution infers shapes on the dataset's own channel
    /// count, so a grayscale detector's weight and neuron campaigns run.
    #[test]
    fn a_one_channel_detector_runs_on_one_channel_images() {
        let dcfg = DetectorConfig {
            input_hw: 32,
            in_channels: 1,
            width_mult: 0.125,
            ..DetectorConfig::default()
        };
        let det = YoloGrid::new(&dcfg);
        for target in [InjectionTarget::Weights, InjectionTarget::Neurons] {
            let s = Scenario { dataset_size: 3, injection_target: target, ..Scenario::default() };
            let ds = DetectionDataset::new(3, dcfg.num_classes, 1, 32, 3);
            let result = ObjDetCampaign::new(&det, s, DetectionLoader::new(ds, 1))
                .run_with(&RunConfig::default())
                .unwrap_or_else(|e| panic!("{target:?}: {e:?}"));
            assert_eq!(result.rows.len(), 3, "{target:?}");
        }
    }

    #[test]
    fn detection_campaign_is_deterministic() {
        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Weights;
        let a = run_campaign(s.clone());
        let b = run_campaign(s);
        for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(ra.orig, rb.orig);
            assert_eq!(ra.corr, rb.corr);
        }
    }

    fn run_campaign_parallel(scenario: Scenario, threads: usize) -> DetectionCampaignResult {
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let det = YoloGrid::new(&dcfg);
        let ds = DetectionDataset::new(scenario.dataset_size, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, scenario.batch_size);
        ObjDetCampaign::new(&det, scenario, loader)
            .run_with(&RunConfig::new().threads(threads))
            .unwrap()
    }

    #[test]
    fn parallel_detection_matches_sequential_bit_exactly() {
        let mut s = Scenario::default();
        s.dataset_size = 5;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let seq = run_campaign(s.clone());
        for threads in [1, 2, 4] {
            let par = run_campaign_parallel(s.clone(), threads);
            assert_eq!(par.rows.len(), seq.rows.len());
            for (rs, rp) in seq.rows.iter().zip(par.rows.iter()) {
                assert_eq!(rs.image_id, rp.image_id);
                assert_eq!(rs.orig, rp.orig, "orig differs at {threads} threads");
                assert_eq!(rs.corr, rp.corr, "corr differs at {threads} threads");
                assert_eq!(rs.faults, rp.faults);
                assert_eq!((rs.corr_nan, rs.corr_inf), (rp.corr_nan, rp.corr_inf));
            }
            assert_eq!(seq.trace.entries, par.trace.entries);
        }
    }

    #[test]
    fn parallel_detection_neuron_faults_match_sequential() {
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Neurons;
        s.fault_mode = FaultMode::RandomValue { min: 100.0, max: 100.1 };
        let seq = run_campaign(s.clone());
        let par = run_campaign_parallel(s, 3);
        for (rs, rp) in seq.rows.iter().zip(par.rows.iter()) {
            assert_eq!(rs.corr, rp.corr);
            assert_eq!(rs.faults, rp.faults);
        }
    }

    /// Pooled rounds share the one borrowed detector across their
    /// workers, so a detector without `clone_boxed` runs there too.
    #[test]
    fn parallel_detection_needs_no_clone_boxed() {
        struct NoClone(YoloGrid);
        impl Detector for NoClone {
            fn name(&self) -> &str {
                "no_clone"
            }
            fn num_classes(&self) -> usize {
                self.0.num_classes()
            }
            fn networks(&self) -> Vec<&Network> {
                self.0.networks()
            }
            fn networks_mut(&mut self) -> Vec<&mut Network> {
                self.0.networks_mut()
            }
            fn detect_with(
                &self,
                images: &Tensor,
                run: &mut RunNetwork<'_>,
            ) -> Result<Vec<Vec<Detection>>, alfi_nn::NnError> {
                self.0.detect_with(images, run)
            }
        }
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let det = NoClone(YoloGrid::new(&dcfg));
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let run = |threads: usize| {
            let ds = DetectionDataset::new(4, dcfg.num_classes, 3, 32, 3);
            let loader = DetectionLoader::new(ds, 1);
            ObjDetCampaign::new(&det, s.clone(), loader)
                .run_with(&RunConfig::new().threads(threads))
                .unwrap()
        };
        let (seq, par) = (run(1), run(2));
        assert_eq!(par.rows.len(), 4);
        for (a, b) in seq.rows.iter().zip(&par.rows) {
            assert_eq!(a.image_id, b.image_id);
            assert_eq!((&a.orig, &a.corr, &a.faults), (&b.orig, &b.corr, &b.faults));
            assert_eq!((a.corr_nan, a.corr_inf), (b.corr_nan, b.corr_inf));
        }
        assert_eq!(seq.trace.entries, par.trace.entries);
    }

    #[test]
    fn a_detector_without_networks_is_an_error_not_a_panic() {
        struct Empty;
        impl Detector for Empty {
            fn name(&self) -> &str {
                "empty"
            }
            fn num_classes(&self) -> usize {
                1
            }
            fn networks(&self) -> Vec<&Network> {
                Vec::new()
            }
            fn networks_mut(&mut self) -> Vec<&mut Network> {
                Vec::new()
            }
            fn detect_with(
                &self,
                images: &Tensor,
                _: &mut RunNetwork<'_>,
            ) -> Result<Vec<Vec<Detection>>, alfi_nn::NnError> {
                Ok(vec![Vec::new(); images.dims()[0]])
            }
        }
        let mut s = Scenario::default();
        s.dataset_size = 2;
        let loader = DetectionLoader::new(DetectionDataset::new(2, 1, 3, 32, 3), 1);
        for threads in [1, 2] {
            let err = ObjDetCampaign::new(&Empty, s.clone(), loader.clone())
                .run_with(&RunConfig::new().threads(threads))
                .unwrap_err();
            assert!(matches!(err, CoreError::NoInjectableLayers), "got {err:?}");
        }
    }

    #[test]
    fn save_dir_writes_the_replay_set_and_event_log() {
        let mut s = Scenario::default();
        s.dataset_size = 2;
        s.injection_target = InjectionTarget::Weights;
        let dir = std::env::temp_dir().join("alfi_det_replay_set");
        let _ = std::fs::remove_dir_all(&dir);
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let det = YoloGrid::new(&dcfg);
        let ds = DetectionDataset::new(2, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, 1);
        let result = ObjDetCampaign::new(&det, s, loader)
            .run_with(
                &RunConfig::new()
                    .recorder(alfi_trace::Recorder::new())
                    .save_dir(&dir),
            )
            .unwrap();
        for f in ["scenario.yml", "faults.bin", "trace.bin", "events.jsonl"] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        let m = crate::persist::load_fault_matrix(dir.join("faults.bin")).unwrap();
        assert_eq!(m, result.fault_matrix);
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert!(events.contains("\"campaign\":\"detection\""));
        assert!(events.contains("\"event\":\"summary\""));
    }
}
