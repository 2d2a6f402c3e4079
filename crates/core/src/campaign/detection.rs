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
use crate::injector::arm_faults;
use crate::matrix::{FaultMatrix, LayerTarget};
use crate::monitor::{attach_monitor, NanInfMonitor};
use crate::persist::{save_fault_matrix, RunTrace, TraceEntry};
use alfi_datasets::loader::DetectionLoader;
use alfi_datasets::GroundTruthBox;
use alfi_nn::detection::{Detection, Detector};
use alfi_scenario::{ArtifactFormat, Scenario};
use alfi_serde::ToJson;
use alfi_store::{ColumnSpec, ColumnType, Encoding, Schema, Value};
use alfi_tensor::Tensor;
use alfi_trace::{EffectClass, Phase, Recorder};
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::{Arc, Mutex};

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

impl DetectionCampaignResult {
    /// Writes the replay set into `dir`: `scenario.yml`, `faults.bin`
    /// and `trace.bin`. The detection-specific result files (COCO
    /// ground truth, intermediate detections, mAP/IVMOD metrics) are
    /// written by `alfi-eval`'s `write_detection_outputs`, which sits
    /// above this crate in the dependency graph.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failures.
    pub fn save_outputs(&self, dir: impl AsRef<Path>) -> Result<(), CoreError> {
        let a = Artifacts::new(dir);
        std::fs::create_dir_all(a.dir())?;
        self.scenario.save(a.scenario()).map_err(|e| CoreError::Io(e.to_string()))?;
        save_fault_matrix(&self.fault_matrix, a.faults())?;
        self.trace.save(a.trace())?;
        Ok(())
    }
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
/// Unlike [`ImgClassCampaign`](crate::campaign::ImgClassCampaign),
/// which owns its models, the campaign *borrows* its detector(s)
/// mutably, arms faults in place and disarms them after each scope,
/// returning every detector pristine (see DESIGN.md).
#[derive(Debug)]
pub struct ObjDetCampaign<'a, D: Detector + ?Sized> {
    detector: &'a mut D,
    resil_detector: Option<&'a mut D>,
    scenario: Scenario,
    loader: DetectionLoader,
    fault_matrix: Option<FaultMatrix>,
}

impl<'a, D: Detector + ?Sized> ObjDetCampaign<'a, D> {
    /// Creates a campaign over `detector` with the given scenario and
    /// data.
    pub fn new(detector: &'a mut D, scenario: Scenario, loader: DetectionLoader) -> Self {
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
    /// primary one; like the primary it is borrowed, armed in place
    /// and returned pristine.
    pub fn with_resil_detector(mut self, resil: &'a mut D) -> Self {
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
    /// Resolution/injection errors, rejection of non-`per_image`
    /// policies when parallel, [`CoreError::Unsupported`] for
    /// uncloneable detectors when parallel, [`CoreError::WorkerPanic`]
    /// for panicking workers.
    pub fn run_with(&mut self, cfg: &RunConfig) -> Result<DetectionCampaignResult, CoreError> {
        Engine::new(cfg).run(&self.as_task())
    }

    /// Borrows the campaign's fields into the engine-facing task
    /// adapter. The detectors go behind [`RefCell`]s so the task can
    /// stream scopes and arm faults from `&self` — the sequential
    /// driver is single-threaded, so the borrows never conflict.
    fn as_task(&mut self) -> DetTask<'_, D> {
        let ObjDetCampaign { detector, resil_detector, scenario, loader, fault_matrix } = self;
        DetTask {
            detector: RefCell::new(&mut **detector),
            resil_detector: resil_detector.as_mut().map(|r| RefCell::new(&mut **r)),
            scenario,
            loader,
            replay: fault_matrix.as_ref(),
        }
    }
}

/// Engine-facing adapter over a borrowed [`ObjDetCampaign`].
struct DetTask<'t, D: Detector + ?Sized> {
    detector: RefCell<&'t mut D>,
    resil_detector: Option<RefCell<&'t mut D>>,
    scenario: &'t Scenario,
    loader: &'t DetectionLoader,
    replay: Option<&'t FaultMatrix>,
}

/// A private detector clone and, when the campaign is hardened, its
/// hardened twin.
type ClonePair = (Box<dyn Detector>, Option<Box<dyn Detector>>);

/// Parallel worker context: one pristine [`ClonePair`] per worker, lent
/// to one work item at a time. The pool never runs more work items at
/// once than it has workers, so an idle pair is always there to take;
/// every scope disarms its detectors before the pair goes back, so the
/// pair a work item gets behaves exactly like a fresh clone. Memory
/// therefore scales with the worker count, not the campaign length.
struct DetParCtx {
    idle: Mutex<Vec<ClonePair>>,
}

impl<'t, D: Detector + ?Sized> CampaignTask for DetTask<'t, D> {
    type Scope = DetectionScope;
    type Row = DetectionRow;
    type Result = DetectionCampaignResult;
    type ParCtx<'s>
        = DetParCtx
    where
        Self: 's;

    fn kind(&self) -> &'static str {
        "detection"
    }

    fn model_name(&self) -> String {
        self.detector.borrow().name().to_string()
    }

    fn scenario(&self) -> &Scenario {
        self.scenario
    }

    fn hardened_noun(&self) -> &'static str {
        "detector"
    }

    fn replay_matrix(&self) -> Option<&FaultMatrix> {
        self.replay
    }

    fn resolve_targets(&self) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError> {
        // Reference shapes: the first (primary) network sees the image;
        // further networks (e.g. RoI heads) have run-time-dependent
        // inputs, so their neuron coordinates fall back to channel
        // bounds.
        let input_dims = {
            let ds = self.loader.dataset();
            vec![1usize, 3, ds.image_hw(), ds.image_hw()]
        };
        let targets = {
            let det = self.detector.borrow();
            let nets = det.networks();
            let mut dims: Vec<Option<Vec<usize>>> = vec![None; nets.len()];
            dims[0] = Some(input_dims.clone());
            crate::matrix::resolve_targets(&nets, self.scenario, &dims)?
        };
        let resil_targets = match &self.resil_detector {
            Some(r) => {
                let rdet = r.borrow();
                let rnets = rdet.networks();
                let mut rdims: Vec<Option<Vec<usize>>> = vec![None; rnets.len()];
                if !rdims.is_empty() {
                    rdims[0] = Some(input_dims);
                }
                Some(crate::matrix::resolve_targets(&rnets, self.scenario, &rdims)?)
            }
            None => None,
        };
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

    fn process_scope(
        &self,
        ctx: &ScopeCtx<'_>,
        scope: &DetectionScope,
        rec: &Recorder,
        rows: &mut Vec<DetectionRow>,
        trace: &mut RunTrace,
    ) -> Result<(), CoreError> {
        let mut det = self.detector.borrow_mut();
        let mut resil_guard = self.resil_detector.as_ref().map(|r| r.borrow_mut());
        let resil: Option<&mut D> = resil_guard.as_mut().map(|g| &mut ***g);
        process_one(&mut **det, resil, ctx, scope, rec, rows, trace)
    }

    fn prepare_parallel(&self, workers: usize) -> Result<DetParCtx, CoreError> {
        let clone_of = |d: &D, role: &str| {
            d.clone_boxed().ok_or_else(|| CoreError::Unsupported {
                reason: format!(
                    "{role} detector `{}` does not implement clone_boxed, required by parallel runs",
                    d.name()
                ),
            })
        };
        let det = self.detector.borrow();
        let mut idle: Vec<ClonePair> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let resil = match &self.resil_detector {
                Some(r) => Some(clone_of(&r.borrow(), "hardened")?),
                None => None,
            };
            idle.push((clone_of(&det, "primary")?, resil));
        }
        Ok(DetParCtx { idle: Mutex::new(idle) })
    }

    fn process_parallel(
        ctx: &DetParCtx,
        scope_ctx: &ScopeCtx<'_>,
        _idx: usize,
        scope: &DetectionScope,
        rec: &Recorder,
    ) -> Result<(Vec<DetectionRow>, Vec<TraceEntry>), CoreError> {
        let lock = || ctx.idle.lock().expect("idle detector clone list poisoned");
        let (mut det, mut resil) =
            lock().pop().expect("the pool runs at most one work item per worker clone");
        let mut rows = Vec::with_capacity(1);
        let mut trace = RunTrace::default();
        let out =
            process_one(&mut *det, resil.as_deref_mut(), scope_ctx, scope, rec, &mut rows, &mut trace);
        // Returned even on error: a failed scope fails the whole run, so
        // a pair it left armed is never used for a row that is kept.
        lock().push((det, resil));
        out.map(|()| (rows, trace.entries))
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
            model_name: self.detector.borrow().name().to_string(),
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
        Value::Str(row.ground_truth.to_json().compact()),
        Value::Str(row.orig.to_json().compact()),
        Value::Str(row.corr.to_json().compact()),
    ];
    if resil {
        let empty: Vec<Detection> = Vec::new();
        values.push(Value::Str(row.resil.as_ref().unwrap_or(&empty).to_json().compact()));
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

/// Runs the fault-free / faulty (/ hardened) detection passes for one
/// image — the one scope body shared by the sequential driver (on the
/// campaign's borrowed detectors) and the parallel driver (on private
/// clones). Every detector comes back pristine.
fn process_one<D: Detector + ?Sized>(
    det: &mut D,
    resil: Option<&mut D>,
    ctx: &ScopeCtx<'_>,
    scope: &DetectionScope,
    rec: &Recorder,
    rows: &mut Vec<DetectionRow>,
    trace: &mut RunTrace,
) -> Result<(), CoreError> {
    let worker = alfi_pool::worker_index();
    let image = &scope.image;

    // Fault-free pass.
    let orig = {
        let _span = rec.span_on(Phase::Forward, worker);
        det.detect(image)?.remove(0)
    };

    // Arm faults + monitors in place, detect, disarm.
    let monitor = Arc::new(NanInfMonitor::new());
    let (applied, totals, corr) = {
        let mut nets = det.networks_mut();
        let mut monitor_handles = Vec::new();
        for net in nets.iter_mut() {
            monitor_handles.push(attach_monitor(
                net,
                Arc::<NanInfMonitor>::clone(&monitor) as _,
            )?);
        }
        let armed = {
            let _span = rec.span_on(Phase::Inject, worker);
            arm_faults(&mut nets, ctx.targets, ctx.faults, ctx.scenario.injection_target)?
        };
        drop(nets);
        let corr = {
            let _span = rec.span_on(Phase::Forward, worker);
            det.detect(image)?.remove(0)
        };
        let applied = armed.collect_applied();
        rec.record_applied(applied.len() as u64);
        let totals = monitor.totals();
        let mut nets = det.networks_mut();
        armed.disarm(&mut nets);
        for (net, handles) in nets.iter_mut().zip(monitor_handles) {
            for h in handles {
                net.remove_hook(h);
            }
        }
        (applied, totals, corr)
    };
    monitor.report_to(rec);

    // Hardened pass under identical faults, detector returned pristine
    // like the primary one.
    let resil_out = match (resil, ctx.resil_targets) {
        (Some(rdet), Some(rt)) => {
            let armed_r = {
                let _span = rec.span_on(Phase::Inject, worker);
                let mut nets = rdet.networks_mut();
                arm_faults(&mut nets, rt, ctx.faults, ctx.scenario.injection_target)?
            };
            let out = {
                let _span = rec.span_on(Phase::Forward, worker);
                rdet.detect(image)?.remove(0)
            };
            let mut nets = rdet.networks_mut();
            armed_r.disarm(&mut nets);
            Some(out)
        }
        _ => None,
    };

    let _eval = rec.span_on(Phase::Eval, worker);
    for a in &applied {
        trace.entries.push(TraceEntry {
            image_id: scope.record.image_id,
            applied: *a,
            output_nan_count: totals.nan as u32,
            output_inf_count: totals.inf as u32,
        });
    }
    rows.push(DetectionRow {
        image_id: scope.record.image_id,
        ground_truth: scope.ground_truth.clone(),
        orig,
        corr,
        resil: resil_out,
        faults: applied,
        corr_nan: totals.nan,
        corr_inf: totals.inf,
    });
    rec.item_finished();
    Ok(())
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
    use alfi_nn::detection::{DetectorConfig, YoloGrid};
    use alfi_scenario::{FaultMode, InjectionPolicy, InjectionTarget};
    use alfi_tensor::Tensor;

    fn run_campaign(scenario: Scenario) -> DetectionCampaignResult {
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let mut det = YoloGrid::new(&dcfg);
        let ds = DetectionDataset::new(scenario.dataset_size, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, scenario.batch_size);
        ObjDetCampaign::new(&mut det, scenario, loader)
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
        let mut det = YoloGrid::new(&dcfg);
        let reference = YoloGrid::new(&dcfg);
        let probe = Tensor::ones(&[1, 3, 32, 32]);
        let before = reference.detect(&probe).unwrap();

        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Weights;
        let ds = DetectionDataset::new(3, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, 1);
        ObjDetCampaign::new(&mut det, s, loader).run_with(&RunConfig::default()).unwrap();

        let after = det.detect(&probe).unwrap();
        assert_eq!(before, after, "weights must be reverted and hooks removed");
        assert_eq!(det.networks()[0].num_hooks(), 0);
    }

    #[test]
    fn resil_detector_runs_in_lockstep_and_stays_pristine() {
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let mut det = YoloGrid::new(&dcfg);
        let mut resil = YoloGrid::new(&dcfg);
        let reference = YoloGrid::new(&dcfg);
        let probe = Tensor::ones(&[1, 3, 32, 32]);
        let before = reference.detect(&probe).unwrap();

        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let ds = DetectionDataset::new(3, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, 1);
        let result = ObjDetCampaign::new(&mut det, s, loader)
            .with_resil_detector(&mut resil)
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
            let mut det = YoloGrid::new(&dcfg);
            let mut resil = YoloGrid::new(&dcfg);
            let ds = DetectionDataset::new(4, dcfg.num_classes, 3, 32, 3);
            let loader = DetectionLoader::new(ds, 1);
            ObjDetCampaign::new(&mut det, s.clone(), loader)
                .with_resil_detector(&mut resil)
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
        let mut det = YoloGrid::new(&dcfg);
        let ds = DetectionDataset::new(scenario.dataset_size, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, scenario.batch_size);
        ObjDetCampaign::new(&mut det, scenario, loader)
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

    #[test]
    fn parallel_detection_rejects_non_per_image_policy() {
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let mut det = YoloGrid::new(&dcfg);
        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_policy = InjectionPolicy::PerEpoch;
        s.injection_target = InjectionTarget::Weights;
        let ds = DetectionDataset::new(3, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, 1);
        assert!(ObjDetCampaign::new(&mut det, s, loader)
            .run_with(&RunConfig::new().threads(2))
            .is_err());
    }

    #[test]
    fn parallel_detection_requires_cloneable_detector() {
        struct NoClone(YoloGrid);
        impl Detector for NoClone {
            fn name(&self) -> &str {
                "no_clone"
            }
            fn num_classes(&self) -> usize {
                self.0.num_classes()
            }
            fn networks(&self) -> Vec<&alfi_nn::graph::Network> {
                self.0.networks()
            }
            fn networks_mut(&mut self) -> Vec<&mut alfi_nn::graph::Network> {
                self.0.networks_mut()
            }
            fn detect(
                &self,
                images: &Tensor,
            ) -> Result<Vec<Vec<Detection>>, alfi_nn::NnError> {
                self.0.detect(images)
            }
        }
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let mut det = NoClone(YoloGrid::new(&dcfg));
        let mut s = Scenario::default();
        s.dataset_size = 2;
        s.injection_target = InjectionTarget::Weights;
        let ds = DetectionDataset::new(2, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, 1);
        let err = ObjDetCampaign::new(&mut det, s, loader)
            .run_with(&RunConfig::new().threads(2))
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }), "got {err:?}");
    }

    #[test]
    fn save_outputs_writes_the_replay_set() {
        let mut s = Scenario::default();
        s.dataset_size = 2;
        s.injection_target = InjectionTarget::Weights;
        let dir = std::env::temp_dir().join("alfi_det_replay_set");
        let _ = std::fs::remove_dir_all(&dir);
        let dcfg = DetectorConfig { input_hw: 32, width_mult: 0.125, ..DetectorConfig::default() };
        let mut det = YoloGrid::new(&dcfg);
        let ds = DetectionDataset::new(2, dcfg.num_classes, 3, 32, 3);
        let loader = DetectionLoader::new(ds, 1);
        let result = ObjDetCampaign::new(&mut det, s, loader)
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
