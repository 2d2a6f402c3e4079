//! High-level image-classification campaign — the
//! `test_error_models_imgclass.py` equivalent.
//!
//! Runs fault-free, faulty and (optionally) hardened model instances in
//! lock-step over a dataset, producing per-image top-5 rows, the applied
//! fault trace and CSV/YAML/binary output files (§V-B, §V-F-1).
//!
//! The campaign is a thin [`CampaignTask`] adapter: policy iteration,
//! fault-slot assignment, replay validation, tracing, pool fan-out and
//! persistence all live in the shared campaign [`Engine`].

use crate::artifact::{ArtifactSink, Artifacts, ColumnarSink, SinkStats};
use crate::campaign::config::RunConfig;
use crate::campaign::engine::{CampaignTask, Engine, ScopeCtx, ScopeSink};
use crate::error::CoreError;
use crate::fault::AppliedFault;
use crate::injector::FaultPlan;
use crate::matrix::{FaultMatrix, LayerTarget};
use crate::persist::{RunTrace, TraceEntry};
use alfi_datasets::loader::ClassificationLoader;
use alfi_nn::{Network, NodeId, NodeMap, Pass, Prefix};
use alfi_scenario::{ArtifactFormat, InjectionPolicy, Scenario};
use alfi_store::{ColumnSpec, ColumnType, Encoding, RowKey, Schema, Value};
use alfi_tensor::Tensor;
use alfi_trace::{EffectClass, Phase, Recorder};
use std::fs::File;
use std::io::{self, Write};
use std::ops::ControlFlow;
use std::path::PathBuf;

/// Top-K classes with probabilities for one model output.
pub type TopK = Vec<(usize, f32)>;

/// Per-image campaign result row.
#[derive(Debug, Clone)]
pub struct ClassificationRow {
    /// Dataset image id.
    pub image_id: u64,
    /// Virtual file path from the dataset record.
    pub file_name: String,
    /// Ground-truth label.
    pub label: usize,
    /// Fault-free model top-5 `(class, probability)`.
    pub orig_top5: TopK,
    /// Fault-injected model top-5.
    pub corr_top5: TopK,
    /// Hardened (mitigation) model top-5, when a resil model was given.
    pub resil_top5: Option<TopK>,
    /// Faults applied while this image was processed.
    pub faults: Vec<AppliedFault>,
    /// NaN elements observed anywhere in the corrupted model.
    pub corr_nan: usize,
    /// Infinite elements observed anywhere in the corrupted model.
    pub corr_inf: usize,
}

impl ClassificationRow {
    /// The top-5 that one of the three model instances produced; `None` for
    /// [`CsvVariant::Resilient`] in a campaign without a hardened model.
    pub fn topk(&self, variant: CsvVariant) -> Option<&TopK> {
        match variant {
            CsvVariant::Original => Some(&self.orig_top5),
            CsvVariant::Corrupted => Some(&self.corr_top5),
            CsvVariant::Resilient => self.resil_top5.as_ref(),
        }
    }
}

/// Full campaign output: rows plus everything needed for exact replay.
#[derive(Debug, Clone)]
pub struct ClassificationCampaignResult {
    /// One row per processed image.
    pub rows: Vec<ClassificationRow>,
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The pre-generated fault matrix (reusable across experiments).
    pub fault_matrix: FaultMatrix,
    /// Applied-fault trace with per-inference NaN/Inf counts.
    pub trace: RunTrace,
}

impl ClassificationCampaignResult {
    /// Renders one of the CSV result files. Columns: image identity,
    /// label, top-5 classes and probabilities, fault positions (layer,
    /// channel, depth, height, width, bit) and NaN/Inf counts. The
    /// bytes equal the file a CSV-format [`RunConfig::save_dir`] run
    /// writes: both render through one line formatter.
    pub fn to_csv(&self, variant: CsvVariant) -> String {
        let mut out = String::from(CSV_HEADER);
        for row in &self.rows {
            let Some(topk) = row.topk(variant) else { continue };
            out.push_str(&csv_line(
                row.image_id,
                &row.file_name,
                row.label as u64,
                &padded_topk(topk),
                &fault_columns(&row.faults),
                row.corr_nan as u64,
                row.corr_inf as u64,
            ));
        }
        out
    }
}

/// Header line shared by [`ClassificationCampaignResult::to_csv`],
/// the streaming CSV sink and the store→CSV converter.
pub(crate) const CSV_HEADER: &str = "image_id,file_name,label,\
     top1,top1_p,top2,top2_p,top3,top3_p,top4,top4_p,top5,top5_p,\
     fault_layers,fault_channels,fault_depths,fault_heights,fault_widths,fault_bits,\
     nan_count,inf_count\n";

/// Sentinel class marking an absent top-k entry in the fixed-width
/// representation; renders as the empty CSV cells and pads the
/// columnar store's class columns.
pub const TOPK_PAD_CLASS: u32 = u32::MAX;

/// Pads a top-k list to exactly five `(class, probability)` pairs.
pub(crate) fn padded_topk(topk: &TopK) -> [(u32, f32); 5] {
    let mut out = [(TOPK_PAD_CLASS, 0.0f32); 5];
    for (slot, &(c, p)) in out.iter_mut().zip(topk.iter()) {
        *slot = (c as u32, p);
    }
    out
}

/// The six `;`-joined fault-position columns (layer, channel, depth,
/// height, width, bit), shared by every row renderer.
pub(crate) fn fault_columns(faults: &[AppliedFault]) -> [String; 6] {
    let join =
        |f: &dyn Fn(&AppliedFault) -> String| faults.iter().map(f).collect::<Vec<_>>().join(";");
    [
        join(&|a| a.record.layer.to_string()),
        join(&|a| a.record.channel.to_string()),
        join(&|a| a.record.depth.map_or("-".into(), |d| d.to_string())),
        join(&|a| a.record.height.to_string()),
        join(&|a| a.record.width.to_string()),
        join(&|a| match a.record.value {
            crate::fault::FaultValue::BitFlip(p) => p.to_string(),
            crate::fault::FaultValue::StuckAt { pos, .. } => format!("s{pos}"),
            crate::fault::FaultValue::Replace(_) => "v".into(),
            crate::fault::FaultValue::QuantStep { bit, .. } => format!("q{bit}"),
        }),
    ]
}

/// Renders one CSV data line from plain cells — the single formatting
/// point shared by the batch writer, the streaming sink and the
/// store→CSV converter, so all three produce identical bytes by
/// construction.
pub(crate) fn csv_line(
    image_id: u64,
    file_name: &str,
    label: u64,
    topk: &[(u32, f32); 5],
    faults: &[String; 6],
    nan: u64,
    inf: u64,
) -> String {
    let mut out = format!("{image_id},{file_name},{label}");
    for &(c, p) in topk {
        if c == TOPK_PAD_CLASS {
            out.push_str(",,");
        } else {
            out.push_str(&format!(",{c},{p}"));
        }
    }
    out.push_str(&format!(
        ",{},{},{},{},{},{}",
        faults[0], faults[1], faults[2], faults[3], faults[4], faults[5]
    ));
    out.push_str(&format!(",{nan},{inf}\n"));
    out
}

/// Which of the three synchronized model instances a CSV file reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvVariant {
    /// The fault-free model.
    Original,
    /// The fault-injected model.
    Corrupted,
    /// The hardened (mitigation) model under the same faults.
    Resilient,
}

/// One classification fault scope: a stacked `[n, c, h, w]` image
/// tensor with the matching dataset records and labels — a single
/// image under `per_image`, a whole batch under
/// `per_batch`/`per_epoch`.
#[derive(Debug)]
pub struct ClassificationScope {
    images: Tensor,
    records: Vec<alfi_datasets::ImageRecord>,
    labels: Vec<usize>,
}

/// The high-level classification campaign runner.
///
/// Each fault scope runs one golden forward of the model, with the
/// model's registered hooks. The faulty and hardened forwards resume
/// from the golden activations at their earliest faulted node (see
/// [`FaultPlan`] and [`NodeMap`]), never clone a model and skip
/// registered hooks, as forwards of hook-free clones would. A model
/// that carries hooks therefore makes both of them start at node 0.
///
/// A ViT campaign ([`VitCampaign`](crate::campaign::VitCampaign)) is
/// this campaign over a transformer that records its architecture: the
/// trace header then reads `campaign: "vit"` and `model:
/// "<name>(d<depth>,h<heads>)"`, and a binary store's meta gains
/// `campaign`, `vit_depth` and `vit_heads`.
#[derive(Debug)]
pub struct ImgClassCampaign {
    model: Network,
    resil_model: Option<Hardened>,
    scenario: Scenario,
    loader: ClassificationLoader,
    fault_matrix: Option<FaultMatrix>,
    /// Transformer `(depth, heads)`, recorded as run metadata.
    pub(super) vit: Option<(usize, usize)>,
}

/// The hardened model and its node map onto the campaign's model,
/// computed once per campaign.
#[derive(Debug)]
struct Hardened {
    net: Network,
    map: NodeMap,
}

impl ImgClassCampaign {
    /// Creates a campaign over `model` with the given scenario and data.
    pub fn new(model: Network, scenario: Scenario, loader: ClassificationLoader) -> Self {
        ImgClassCampaign {
            model,
            resil_model: None,
            scenario,
            loader,
            fault_matrix: None,
            vit: None,
        }
    }

    /// Replays a previously persisted fault matrix instead of generating
    /// a new one — the paper's `fault_file` parameter, letting "the
    /// identical set of faults be utilized across various experiments".
    pub fn with_fault_matrix(mut self, matrix: FaultMatrix) -> Self {
        self.fault_matrix = Some(matrix);
        self
    }

    /// Adds a hardened model to run in lock-step under the *same* faults
    /// — the paper's "tight integration of fault-free, faulty, and
    /// enhanced models". It must expose the same injectable-layer list.
    ///
    /// Its hooks never run: the hardened forward skips registered hooks
    /// (hooks on the campaign's models run in the golden pass only). It
    /// shares the golden prefix of the campaign's model up to the
    /// earliest of its first faulted node, the first node that differs
    /// from the model (name, layer bits, fused clamp or inputs, see
    /// [`NodeMap`]) and the first Ranger/Clipper guard the scope's
    /// golden activations trip. A `harden` / `harden_fused` copy thus
    /// shares everything up to its faults on most inputs; a
    /// magnitude-pruned copy shares nothing and runs in full.
    pub fn with_resil_model(mut self, resil: Network) -> Self {
        let map = NodeMap::new(&resil, &self.model);
        self.resil_model = Some(Hardened { net: resil, map });
        self
    }

    /// Runs the campaign with the given [`RunConfig`] — the single
    /// entry point for every driver and thread count, delegating to the
    /// shared campaign [`Engine`] (see its docs for dispatch, tracing
    /// and persistence semantics). Every thread count produces the same
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns resolution/injection errors; an exhausted fault matrix
    /// ends the run gracefully instead. A panicking pool worker
    /// surfaces as [`CoreError::WorkerPanic`].
    pub fn run_with(&mut self, cfg: &RunConfig) -> Result<ClassificationCampaignResult, CoreError> {
        Engine::new(cfg).run(&*self)
    }
}

impl CampaignTask for ImgClassCampaign {
    type Scope = ClassificationScope;
    type Row = ClassificationRow;
    type Result = ClassificationCampaignResult;

    fn kind(&self) -> &'static str {
        if self.vit.is_some() {
            "vit"
        } else {
            "classification"
        }
    }

    fn model_name(&self) -> String {
        match self.vit {
            Some((depth, heads)) => format!("{}(d{depth},h{heads})", self.model.name()),
            None => self.model.name().to_string(),
        }
    }

    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn replay_matrix(&self) -> Option<&FaultMatrix> {
        self.fault_matrix.as_ref()
    }

    fn resolve_targets(&self) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError> {
        let input_dims = {
            let ds = self.loader.dataset();
            vec![1, ds.channels(), ds.image_hw(), ds.image_hw()]
        };
        let targets =
            crate::matrix::resolve_targets(&[&self.model], &self.scenario, &[Some(input_dims.clone())])?;
        let resil_targets = match &self.resil_model {
            Some(r) => Some(crate::matrix::resolve_targets(
                &[&r.net],
                &self.scenario,
                &[Some(input_dims)],
            )?),
            None => None,
        };
        Ok((targets, resil_targets))
    }

    fn stream_scopes(
        &self,
        epoch: u64,
        sink: &mut ScopeSink<'_, ClassificationScope>,
    ) -> Result<ControlFlow<()>, CoreError> {
        let per_image = self.scenario.injection_policy == InjectionPolicy::PerImage;
        for batch in self.loader.iter_epoch(epoch) {
            if per_image {
                // One single-image scope per image: fault batch
                // coordinates are always 0.
                for i in 0..batch.labels.len() {
                    let image = batch.images.batch_item(i).map_err(alfi_nn::NnError::from)?;
                    let images = Tensor::stack(&[image]).map_err(alfi_nn::NnError::from)?;
                    let scope = ClassificationScope {
                        images,
                        records: vec![batch.records[i].clone()],
                        labels: vec![batch.labels[i]],
                    };
                    if sink(i == 0, scope)?.is_break() {
                        return Ok(ControlFlow::Break(()));
                    }
                }
            } else {
                // One whole-batch scope per batch: a single forward
                // pass, so neuron faults may target any batch
                // coordinate, exactly as in the paper.
                let scope = ClassificationScope {
                    images: batch.images,
                    records: batch.records,
                    labels: batch.labels,
                };
                if sink(true, scope)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Runs the fault-free / faulty / hardened triple for one fault
    /// scope (a single image or a whole batch) and appends one row per
    /// contained image. Trace entries attribute each applied fault to
    /// the image its batch coordinate addressed (weight faults and
    /// out-of-range coordinates attribute to the scope's first image).
    ///
    /// One golden forward per scope; the faulty and hardened forwards
    /// resume from its activations (see [`ImgClassCampaign`]). The
    /// faulty pass's NaN/Inf counts cover every node up to the output:
    /// the golden activations before its start node, then each
    /// evaluated node after its layer and before its neuron faults.
    fn process_scope(
        &self,
        ctx: &ScopeCtx<'_>,
        scope: &ClassificationScope,
        rec: &Recorder,
        rows: &mut Vec<ClassificationRow>,
        trace: &mut RunTrace,
    ) -> Result<(), CoreError> {
        let worker = alfi_pool::worker_index();
        let images = &scope.images;
        let n = scope.records.len();
        let kind = self.scenario.injection_target;
        let golden = {
            let _span = rec.span_on(Phase::Forward, worker);
            self.model.evaluate(images, Pass::new().traced(rec))?
        };
        // Hooks run in the golden pass only, so hooked golden
        // activations are not the ones the hook-free passes compute:
        // then both passes start at node 0 and borrow nothing.
        let reuse = self.model.num_hooks() == 0;
        let nothing: Vec<Tensor> = Vec::new();

        let plan = {
            let _span = rec.span_on(Phase::Inject, worker);
            FaultPlan::new(&[&self.model], ctx.targets, ctx.faults, kind)?
        };
        let start = if reuse { plan.first_node(0).unwrap_or(self.model.num_nodes()) } else { 0 };
        let (mut nan, mut inf) = (0usize, 0usize);
        let mut observe = |_: NodeId, t: &Tensor| {
            if t.has_non_finite() {
                nan += t.count_nan();
                inf += t.count_inf();
            }
        };
        // Nodes before `start` are the golden ones: count them as the
        // faulty pass would have seen them, up to its output node.
        let evaluated = self.model.output_node().map_or(0, |out| out + 1);
        for id in 0..start.min(evaluated) {
            if let Some(t) = golden.get(id) {
                observe(id, t);
            }
        }
        let (corr_logits, applied) = {
            let _span = rec.span_on(Phase::Forward, worker);
            let prefix: &dyn Prefix = if reuse { &golden } else { &nothing };
            plan.forward(&self.model, images, (start, prefix), rec, &mut observe)?
        };

        let resil_logits = match (&self.resil_model, ctx.resil_targets) {
            (Some(resil), Some(rt)) => {
                let plan = {
                    let _span = rec.span_on(Phase::Inject, worker);
                    FaultPlan::new(&[&resil.net], rt, ctx.faults, kind)?
                };
                let limit = plan.first_node(0).unwrap_or(resil.net.num_nodes());
                let start = if reuse { resil.map.resume_point(limit, &golden) } else { 0 };
                let _span = rec.span_on(Phase::Forward, worker);
                let view = resil.map.view(&golden);
                let prefix: &dyn Prefix = if reuse { &view } else { &nothing };
                Some(plan.forward(&resil.net, images, (start, prefix), rec, &mut |_, _| {})?.0)
            }
            _ => None,
        };

        let _eval = rec.span_on(Phase::Eval, worker);
        let orig_probs = softmax(golden.output()?)?;
        let corr_probs = softmax(&corr_logits)?;
        let resil_probs = resil_logits.as_ref().map(softmax).transpose()?;
        for a in &applied {
            let img_idx = match kind {
                alfi_scenario::InjectionTarget::Neurons => a.record.batch.min(n - 1),
                _ => 0,
            };
            trace.entries.push(TraceEntry {
                image_id: scope.records[img_idx].image_id,
                applied: *a,
                output_nan_count: nan as u32,
                output_inf_count: inf as u32,
            });
        }
        for i in 0..n {
            // Faults are listed on every row of the scope; per-image
            // attribution lives in the trace entries above.
            rows.push(ClassificationRow {
                image_id: scope.records[i].image_id,
                file_name: scope.records[i].file_name.clone(),
                label: scope.labels[i],
                orig_top5: topk_row(&orig_probs, i, 5)?,
                corr_top5: topk_row(&corr_probs, i, 5)?,
                resil_top5: resil_probs.as_ref().map(|p| topk_row(p, i, 5)).transpose()?,
                faults: applied.clone(),
                corr_nan: nan,
                corr_inf: inf,
            });
        }
        Ok(())
    }

    fn classify(row: &ClassificationRow) -> EffectClass {
        classify_row(row)
    }

    fn row_nonfinite(row: &ClassificationRow) -> (u64, u64) {
        (row.corr_nan as u64, row.corr_inf as u64)
    }

    fn finalize(
        &self,
        rows: Vec<ClassificationRow>,
        matrix: FaultMatrix,
        trace: RunTrace,
    ) -> ClassificationCampaignResult {
        ClassificationCampaignResult {
            rows,
            scenario: self.scenario.clone(),
            fault_matrix: matrix,
            trace,
        }
    }

    /// Binary stores keep `kind: classification` for ViT runs too, so
    /// the store→CSV converter applies unchanged; the transformer's
    /// architecture precedes any per-layer override keys in the meta.
    fn make_row_sink(
        &self,
        format: ArtifactFormat,
        artifacts: &Artifacts,
    ) -> Result<Option<Box<dyn ArtifactSink<ClassificationRow>>>, CoreError> {
        match format {
            ArtifactFormat::Csv => Ok(Some(Box::new(ClassificationCsvSink::create(artifacts)?))),
            ArtifactFormat::Binary => {
                let resil = self.resil_model.is_some();
                let mut schema = store_schema(resil);
                if let Some((depth, heads)) = self.vit {
                    schema = schema
                        .with_meta("campaign", "vit")
                        .with_meta("vit_depth", depth.to_string())
                        .with_meta("vit_heads", heads.to_string());
                }
                let schema = with_layer_override_meta(schema, &self.scenario);
                Ok(Some(Box::new(ColumnarSink::create(
                    artifacts.rows_store(),
                    schema,
                    move |row: &ClassificationRow| store_values(row, resil),
                )?)))
            }
        }
    }
}

/// Streaming CSV sink: the historical `results_orig.csv` /
/// `results_corr.csv` (/`results_resil.csv`) files written row by row
/// as the engine produces them. The resil file is created lazily on
/// the first hardened row, so runs without a resil model keep the
/// two-file layout.
struct ClassificationCsvSink {
    orig: io::BufWriter<File>,
    corr: io::BufWriter<File>,
    resil: Option<io::BufWriter<File>>,
    resil_path: PathBuf,
    rows: u64,
    bytes: u64,
}

impl ClassificationCsvSink {
    fn create(artifacts: &Artifacts) -> Result<Self, CoreError> {
        let mut bytes = 0u64;
        let mut open = |path: PathBuf| -> Result<io::BufWriter<File>, CoreError> {
            let mut w = io::BufWriter::new(File::create(path)?);
            w.write_all(CSV_HEADER.as_bytes())?;
            bytes += CSV_HEADER.len() as u64;
            Ok(w)
        };
        let orig = open(artifacts.rows_orig())?;
        let corr = open(artifacts.rows_corr())?;
        Ok(ClassificationCsvSink {
            orig,
            corr,
            resil: None,
            resil_path: artifacts.rows_resil(),
            rows: 0,
            bytes,
        })
    }
}

impl ArtifactSink<ClassificationRow> for ClassificationCsvSink {
    fn append(&mut self, _key: RowKey, row: &ClassificationRow) -> Result<(), CoreError> {
        let faults = fault_columns(&row.faults);
        let line = |topk: &TopK| {
            csv_line(
                row.image_id,
                &row.file_name,
                row.label as u64,
                &padded_topk(topk),
                &faults,
                row.corr_nan as u64,
                row.corr_inf as u64,
            )
        };
        let orig_line = line(&row.orig_top5);
        self.orig.write_all(orig_line.as_bytes())?;
        self.bytes += orig_line.len() as u64;
        let corr_line = line(&row.corr_top5);
        self.corr.write_all(corr_line.as_bytes())?;
        self.bytes += corr_line.len() as u64;
        if let Some(topk) = &row.resil_top5 {
            if self.resil.is_none() {
                let mut w = io::BufWriter::new(File::create(&self.resil_path)?);
                w.write_all(CSV_HEADER.as_bytes())?;
                self.bytes += CSV_HEADER.len() as u64;
                self.resil = Some(w);
            }
            if let Some(w) = self.resil.as_mut() {
                let resil_line = line(topk);
                w.write_all(resil_line.as_bytes())?;
                self.bytes += resil_line.len() as u64;
            }
        }
        self.rows += 1;
        Ok(())
    }

    fn finalize(&mut self) -> Result<SinkStats, CoreError> {
        self.orig.flush()?;
        self.corr.flush()?;
        if let Some(w) = self.resil.as_mut() {
            w.flush()?;
        }
        Ok(SinkStats { rows: self.rows, bytes: self.bytes })
    }
}

/// Columnar store schema for classification rows: the fixed
/// `image_id, file_name, label` prefix, five `(class, p)` pairs per
/// model variant, the six fault columns and the NaN/Inf counts.
/// Probabilities are stored as raw f32 bits, so re-rendering them
/// reproduces the CSV text exactly.
fn store_schema(resil: bool) -> Schema {
    let mut cols = vec![
        ColumnSpec::new("image_id", ColumnType::U64, Encoding::Delta),
        ColumnSpec::new("file_name", ColumnType::Str, Encoding::Prefix),
        ColumnSpec::new("label", ColumnType::U32, Encoding::Plain),
    ];
    let variants: &[&str] = if resil { &["orig", "corr", "resil"] } else { &["orig", "corr"] };
    for v in variants {
        for k in 1..=5 {
            cols.push(ColumnSpec::new(format!("{v}_class{k}"), ColumnType::U32, Encoding::Plain));
            cols.push(ColumnSpec::new(format!("{v}_p{k}"), ColumnType::F32, Encoding::Plain));
        }
    }
    for name in
        ["fault_layers", "fault_channels", "fault_depths", "fault_heights", "fault_widths", "fault_bits"]
    {
        cols.push(ColumnSpec::new(name, ColumnType::Str, Encoding::Plain));
    }
    cols.push(ColumnSpec::new("nan_count", ColumnType::U32, Encoding::Plain));
    cols.push(ColumnSpec::new("inf_count", ColumnType::U32, Encoding::Plain));
    Schema::new(cols)
        .with_meta("kind", "classification")
        .with_meta("resil", if resil { "1" } else { "0" })
}

/// Appends one `layer.<pattern>` meta key per scenario `layers:`
/// override, making binary stores self-describing about the
/// multi-resolution fault model that produced their rows (`alfi store
/// info` prints them as a dedicated section). Scenarios without
/// overrides add nothing, so historical store bytes are unchanged.
fn with_layer_override_meta(mut schema: Schema, scenario: &Scenario) -> Schema {
    for (pattern, o) in &scenario.layer_overrides {
        let mut parts = Vec::new();
        if let Some(r) = o.rate {
            parts.push(format!("rate={r}"));
        }
        if let Some(m) = &o.mode {
            let name = match m {
                alfi_scenario::FaultMode::BitFlip { .. } => "bit_flip",
                alfi_scenario::FaultMode::StuckAt { .. } => "stuck_at",
                alfi_scenario::FaultMode::RandomValue { .. } => "random_value",
                alfi_scenario::FaultMode::QuantStep { .. } => "quant_step",
            };
            parts.push(format!("mode={name}"));
        }
        if let Some((lo, hi)) = o.channel_range {
            parts.push(format!("channels={lo}-{hi}"));
        }
        schema = schema.with_meta(format!("layer.{pattern}"), parts.join(","));
    }
    schema
}

/// Projects one row onto the [`store_schema`] column order.
fn store_values(row: &ClassificationRow, resil: bool) -> Vec<Value> {
    let mut values = vec![
        Value::U64(row.image_id),
        Value::Str(row.file_name.clone()),
        Value::U32(row.label as u32),
    ];
    fn push_topk(values: &mut Vec<Value>, topk: &TopK) {
        for (c, p) in padded_topk(topk) {
            values.push(Value::U32(c));
            values.push(Value::F32(p));
        }
    }
    push_topk(&mut values, &row.orig_top5);
    push_topk(&mut values, &row.corr_top5);
    if resil {
        // Schema arity is fixed per store; a campaign with a resil
        // model produces a resil top-5 for every row, so the empty
        // fallback only pads degenerate rows.
        let empty = TopK::new();
        push_topk(&mut values, row.resil_top5.as_ref().unwrap_or(&empty));
    }
    for col in fault_columns(&row.faults) {
        values.push(Value::Str(col));
    }
    values.push(Value::U32(row.corr_nan as u32));
    values.push(Value::U32(row.corr_inf as u32));
    values
}

/// Rebuilds the CSV artifact set from decoded store rows —
/// byte-identical to what a CSV-format run writes, because it renders
/// through the same [`csv_line`] as the live sinks.
pub(crate) fn store_rows_to_csvs(
    rows: &[alfi_store::Row],
    resil: bool,
) -> Result<Vec<(String, String)>, CoreError> {
    use crate::artifact::{cell_f32, cell_str, cell_u64};
    let mut orig = String::from(CSV_HEADER);
    let mut corr = String::from(CSV_HEADER);
    let mut resil_csv = String::from(CSV_HEADER);
    for (_, values) in rows {
        let image_id = cell_u64(values, 0)?;
        let file_name = cell_str(values, 1)?;
        let label = cell_u64(values, 2)?;
        let topk_at = |base: usize| -> Result<[(u32, f32); 5], CoreError> {
            let mut out = [(TOPK_PAD_CLASS, 0.0f32); 5];
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = (
                    cell_u64(values, base + 2 * k)? as u32,
                    cell_f32(values, base + 2 * k + 1)?,
                );
            }
            Ok(out)
        };
        let variants = if resil { 3 } else { 2 };
        let tail = 3 + variants * 10;
        let mut faults: [String; 6] = Default::default();
        for (i, f) in faults.iter_mut().enumerate() {
            *f = cell_str(values, tail + i)?.to_string();
        }
        let nan = cell_u64(values, tail + 6)?;
        let inf = cell_u64(values, tail + 7)?;
        orig.push_str(&csv_line(image_id, file_name, label, &topk_at(3)?, &faults, nan, inf));
        corr.push_str(&csv_line(image_id, file_name, label, &topk_at(13)?, &faults, nan, inf));
        if resil {
            resil_csv
                .push_str(&csv_line(image_id, file_name, label, &topk_at(23)?, &faults, nan, inf));
        }
    }
    let mut out = vec![
        (Artifacts::ROWS_ORIG.to_string(), orig),
        (Artifacts::ROWS_CORR.to_string(), corr),
    ];
    if resil && !rows.is_empty() {
        out.push((Artifacts::ROWS_RESIL.to_string(), resil_csv));
    }
    Ok(out)
}

/// The classification SDC/DUE/masked rule, applied to one row: the
/// engine's outcome tallies, the event log and every `alfi-analyze`
/// aggregate classify through it (see [`classify_top1`]).
pub fn classify_row(row: &ClassificationRow) -> EffectClass {
    classify_top1(
        row.orig_top5.first().map(|&(c, _)| c as u64),
        row.corr_top5.first().map(|&(c, p)| (c as u64, p)),
        (row.corr_nan + row.corr_inf) as u64,
    )
}

/// The SDC/DUE/masked rule on the cells it reads: the fault-free top-1
/// class, the corrupted top-1 `(class, probability)` (`None` for an
/// empty top-k) and the corrupted inference's NaN+Inf element count.
///
/// DUE when non-finite values surfaced or the corrupted top-1
/// probability is non-finite, SDC when the top-1 class silently
/// changed, masked otherwise. Softmax rows are all finite or all NaN,
/// so checking top-1 alone catches every non-finite top-k.
pub fn classify_top1(orig: Option<u64>, corr: Option<(u64, f32)>, nonfinite: u64) -> EffectClass {
    if nonfinite > 0 || corr.is_some_and(|(_, p)| !p.is_finite()) {
        EffectClass::Due
    } else if orig != corr.map(|(c, _)| c) {
        EffectClass::Sdc
    } else {
        EffectClass::Masked
    }
}

/// Softmax over batch logits `[n, classes]`, once per logits tensor.
fn softmax(logits: &Tensor) -> Result<Tensor, CoreError> {
    Ok(logits.softmax_lastdim().map_err(alfi_nn::NnError::from)?)
}

/// Top-k extraction of row `i` of batch probabilities `[n, classes]`.
fn topk_row(probs: &Tensor, i: usize, k: usize) -> Result<TopK, CoreError> {
    let row = probs.batch_item(i).map_err(alfi_nn::NnError::from)?;
    Ok(row.topk(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::attach_monitor;
    use alfi_datasets::classification::ClassificationDataset;
    use alfi_nn::models::{alexnet, ModelConfig};
    use alfi_scenario::{FaultCount, FaultMode, InjectionTarget};

    fn campaign(scenario: Scenario) -> ImgClassCampaign {
        let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, ..ModelConfig::default() };
        let model = alexnet(&mcfg);
        let ds = ClassificationDataset::new(scenario.dataset_size, mcfg.num_classes, 3, 16, 5);
        let loader = ClassificationLoader::new(ds, scenario.batch_size);
        ImgClassCampaign::new(model, scenario, loader)
    }

    fn scored(classes: &[usize]) -> TopK {
        classes.iter().enumerate().map(|(i, &c)| (c, 1.0 - i as f32 * 0.1)).collect()
    }

    fn row(orig: &[usize], corr: &[usize], nan: usize) -> ClassificationRow {
        ClassificationRow {
            image_id: 0,
            file_name: "x".into(),
            label: orig.first().copied().unwrap_or(0),
            orig_top5: scored(orig),
            corr_top5: scored(corr),
            resil_top5: None,
            faults: vec![],
            corr_nan: nan,
            corr_inf: 0,
        }
    }

    #[test]
    fn unchanged_prediction_is_masked() {
        assert_eq!(classify_row(&row(&[3, 1, 2], &[3, 2, 1], 0)), EffectClass::Masked);
    }

    #[test]
    fn changed_top1_is_sde() {
        assert_eq!(classify_row(&row(&[3, 1, 2], &[1, 3, 2], 0)), EffectClass::Sdc);
    }

    #[test]
    fn nan_detection_is_due_even_if_prediction_matches() {
        assert_eq!(classify_row(&row(&[3, 1], &[3, 1], 2)), EffectClass::Due);
        let mut inf = row(&[3, 1], &[3, 1], 0);
        inf.corr_inf = 1;
        assert_eq!(classify_row(&inf), EffectClass::Due);
    }

    #[test]
    fn non_finite_probability_is_due() {
        let mut r = row(&[3, 1], &[3, 1], 0);
        r.corr_top5[0].1 = f32::NAN;
        assert_eq!(classify_row(&r), EffectClass::Due);
        r.corr_top5[0].1 = f32::NEG_INFINITY;
        assert_eq!(classify_row(&r), EffectClass::Due);
    }

    #[test]
    fn empty_topk_on_both_sides_is_masked() {
        assert_eq!(classify_row(&row(&[], &[], 0)), EffectClass::Masked);
        // An empty top-k on one side only is a silent prediction change.
        assert_eq!(classify_row(&row(&[3], &[], 0)), EffectClass::Sdc);
        assert_eq!(classify_top1(None, Some((3, 0.9)), 0), EffectClass::Sdc);
    }

    #[test]
    fn per_image_campaign_produces_one_row_per_image() {
        let mut s = Scenario::default();
        s.dataset_size = 6;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        assert_eq!(result.rows.len(), 6);
        for row in &result.rows {
            assert_eq!(row.orig_top5.len(), 5);
            assert_eq!(row.corr_top5.len(), 5);
            assert_eq!(row.faults.len(), 1);
            assert!(row.resil_top5.is_none());
        }
        assert_eq!(result.trace.entries.len(), 6);
    }

    #[test]
    fn per_epoch_policy_reuses_one_slot() {
        let mut s = Scenario::default();
        s.dataset_size = 5;
        s.injection_policy = InjectionPolicy::PerEpoch;
        s.injection_target = InjectionTarget::Weights;
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        assert_eq!(result.rows.len(), 5);
        // every image saw the identical fault record
        let first = result.rows[0].faults[0].record;
        for row in &result.rows {
            assert_eq!(row.faults[0].record, first);
        }
    }

    #[test]
    fn per_batch_policy_advances_per_batch() {
        let mut s = Scenario::default();
        s.dataset_size = 6;
        s.batch_size = 3;
        s.injection_policy = InjectionPolicy::PerBatch;
        s.injection_target = InjectionTarget::Weights;
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        let r = &result.rows;
        assert_eq!(r[0].faults[0].record, r[1].faults[0].record);
        assert_eq!(r[0].faults[0].record, r[2].faults[0].record);
        assert_ne!(r[2].faults[0].record, r[3].faults[0].record);
    }

    #[test]
    fn neuron_campaign_logs_applications() {
        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Neurons;
        s.faults_per_image = FaultCount::Fixed(2);
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        for row in &result.rows {
            assert_eq!(row.faults.len(), 2, "both neuron faults applied");
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut s = Scenario::default();
        s.dataset_size = 2;
        s.injection_target = InjectionTarget::Weights;
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        let csv = result.to_csv(CsvVariant::Corrupted);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("image_id,file_name,label,top1"));
        assert!(lines[1].contains("synthetic/class/"));
    }

    #[test]
    fn outputs_are_saved_and_replayable() {
        let mut s = Scenario::default();
        s.dataset_size = 2;
        s.injection_target = InjectionTarget::Weights;
        let dir = std::env::temp_dir().join("alfi_campaign_out");
        let _ = std::fs::remove_dir_all(&dir);
        let result = campaign(s).run_with(&RunConfig::new().save_dir(&dir)).unwrap();
        for f in ["scenario.yml", "faults.bin", "trace.bin", "results_orig.csv", "results_corr.csv"] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        // fault file round-trips
        let m = crate::persist::load_fault_matrix(dir.join("faults.bin")).unwrap();
        assert_eq!(m, result.fault_matrix);
        let t = RunTrace::load(dir.join("trace.bin")).unwrap();
        assert_eq!(t, result.trace);
        // scenario replays
        let s2 = Scenario::load(dir.join("scenario.yml")).unwrap();
        assert_eq!(s2, result.scenario);
    }

    #[test]
    fn per_batch_neuron_faults_can_hit_any_batch_coordinate() {
        // With batch_size 4 and per-batch policy the whole batch goes
        // through one forward pass, so neuron faults targeting batch
        // index > 0 land instead of being skipped.
        let mut s = Scenario::default();
        s.dataset_size = 8;
        s.batch_size = 4;
        s.injection_policy = InjectionPolicy::PerBatch;
        s.injection_target = InjectionTarget::Neurons;
        s.fault_mode = FaultMode::RandomValue { min: 7.0, max: 7.1 };
        s.seed = 3; // seed chosen so at least one fault has batch > 0
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        assert_eq!(result.rows.len(), 8);
        let applied: Vec<_> = result.trace.entries.iter().map(|e| e.applied).collect();
        assert_eq!(applied.len(), 2, "one neuron fault per batch, two batches");
        assert!(
            applied.iter().any(|a| a.record.batch > 0),
            "expected a fault with batch > 0 to be applied: {applied:?}"
        );
        // trace attribution points at the image the coordinate addressed
        for e in &result.trace.entries {
            let expect_row = e.applied.record.batch;
            let batch_start = result
                .rows
                .iter()
                .position(|r| r.image_id == e.image_id)
                .unwrap();
            assert_eq!(batch_start % 4, expect_row);
        }
    }

    #[test]
    fn replayed_fault_matrix_reproduces_identical_rows() {
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Weights;
        let first = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        let replay = campaign(s)
            .with_fault_matrix(first.fault_matrix.clone())
            .run_with(&RunConfig::default())
            .unwrap();
        assert_eq!(first.trace, replay.trace);
        for (a, b) in first.rows.iter().zip(replay.rows.iter()) {
            assert_eq!(a.corr_top5, b.corr_top5);
        }
    }

    #[test]
    fn replayed_matrix_with_wrong_target_is_rejected() {
        let mut s = Scenario::default();
        s.dataset_size = 2;
        s.injection_target = InjectionTarget::Weights;
        let first = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        s.injection_target = InjectionTarget::Neurons;
        let err = campaign(s).with_fault_matrix(first.fault_matrix).run_with(&RunConfig::default()).unwrap_err();
        assert!(matches!(err, crate::CoreError::CorruptFile { .. }));
    }

    #[test]
    fn parallel_run_matches_sequential_bit_exactly() {
        let mut s = Scenario::default();
        s.dataset_size = 8;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let sequential = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        let parallel = campaign(s).run_with(&RunConfig::new().threads(4)).unwrap();
        assert_eq!(sequential.rows.len(), parallel.rows.len());
        for (a, b) in sequential.rows.iter().zip(parallel.rows.iter()) {
            assert_eq!(a.image_id, b.image_id);
            assert_eq!(a.orig_top5, b.orig_top5);
            assert_eq!(a.corr_top5, b.corr_top5);
            assert_eq!(a.faults, b.faults);
        }
        assert_eq!(sequential.trace, parallel.trace);
        assert_eq!(sequential.fault_matrix, parallel.fault_matrix);
    }

    #[test]
    fn parallel_run_surfaces_worker_panic_as_error() {
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Weights;
        let mut c = campaign(s);
        // A monitor that blows up mid-forward inside a pool task: the
        // pool must contain the panic and the campaign must report it as
        // an error instead of unwinding through (or poisoning) campaign
        // state. The `in_parallel_task` guard keeps the caller-side
        // shape-inference forward in `resolve_targets` alive.
        let bomb: std::sync::Arc<dyn alfi_nn::graph::ForwardHook> =
            std::sync::Arc::new(|_: &alfi_nn::graph::LayerCtx, _: &mut Tensor| {
                if alfi_pool::in_parallel_task() {
                    panic!("monitor exploded");
                }
            });
        attach_monitor(&mut c.model, bomb).unwrap();
        for threads in [2, 3] {
            let err = c.run_with(&RunConfig::new().threads(threads)).unwrap_err();
            match err {
                CoreError::WorkerPanic { message } => {
                    assert!(message.contains("monitor exploded"), "message: {message}")
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn recorder_collects_counters_and_identical_outputs() {
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let plain = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        let rec = alfi_trace::Recorder::new();
        let traced = campaign(s)
            .run_with(&RunConfig::new().recorder(rec.clone()))
            .unwrap();
        for (a, b) in plain.rows.iter().zip(traced.rows.iter()) {
            assert_eq!(a.corr_top5, b.corr_top5, "tracing must not change results");
        }
        let summary = rec.summary();
        assert_eq!(summary.counts.items, 4);
        assert_eq!(summary.counts.injections, 4);
        assert_eq!(summary.counts.outcomes.total(), 4);
        assert_eq!(summary.meta.as_ref().unwrap().campaign, "classification");
        assert!(summary.phases.contains_key("forward"));
        assert!(!summary.layer_forward.is_empty(), "per-layer forward timings recorded");
    }

    #[test]
    fn campaign_is_deterministic() {
        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Weights;
        let a = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        let b = campaign(s).run_with(&RunConfig::default()).unwrap();
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(ra.corr_top5, rb.corr_top5);
            assert_eq!(ra.faults, rb.faults);
        }
    }
}
