//! ViT-style transformer classification campaign — the third
//! [`CampaignTask`] next to image classification and object detection.
//!
//! Transformer fault-injection studies perturb the GEMM-backed
//! projections (patch embedding, q/k/v, attention output, MLP, head)
//! while treating softmax, layer norm and token plumbing as control
//! structure. The seeded [`alfi_nn::models::vit`] model family
//! encodes exactly that substitution rule, so the campaign itself is a
//! thin adapter: it owns the transformer architecture parameters and
//! delegates every row-producing step to the shared classification
//! pipeline — same [`ClassificationRow`] shape, same CSV files, same
//! columnar store layout (`kind: classification`, so `alfi store
//! convert` keeps working), plus transformer meta (`campaign=vit`,
//! `vit_depth`, `vit_heads`) and the per-layer `layers:` override keys
//! on the binary schema.

use crate::artifact::{ArtifactSink, Artifacts, ColumnarSink};
use crate::campaign::classification::{
    store_schema, store_values, with_layer_override_meta, ClassificationCampaignResult,
    ClassificationCsvSink, ClassificationRow, ClassificationScope, ImgClassCampaign,
};
use crate::campaign::config::RunConfig;
use crate::campaign::engine::{CampaignTask, Engine, ScopeCtx, ScopeSink};
use crate::error::CoreError;
use crate::matrix::{FaultMatrix, LayerTarget};
use crate::persist::RunTrace;
use alfi_datasets::loader::ClassificationLoader;
use alfi_nn::models::{vit, ModelConfig, VIT_TINY_DEPTH, VIT_TINY_HEADS};
use alfi_nn::Network;
use alfi_scenario::{ArtifactFormat, Scenario};
use alfi_trace::{EffectClass, Recorder};
use std::ops::ControlFlow;

/// The transformer classification campaign runner.
///
/// Wraps the classification pipeline around a ViT-family model and
/// records the architecture (depth, heads) in the trace header and the
/// binary store meta.
#[derive(Debug)]
pub struct VitCampaign {
    inner: ImgClassCampaign,
    depth: usize,
    heads: usize,
}

impl VitCampaign {
    /// Creates a campaign over an explicit ViT-family `model` built
    /// with the given transformer `depth` and `heads` (recorded as
    /// run metadata, not re-derived from the graph).
    pub fn new(
        model: Network,
        depth: usize,
        heads: usize,
        scenario: Scenario,
        loader: ClassificationLoader,
    ) -> Self {
        VitCampaign { inner: ImgClassCampaign::new(model, scenario, loader), depth, heads }
    }

    /// Creates a campaign over the ViT-Tiny configuration
    /// ([`alfi_nn::models::vit_tiny`]): the fast default registered in
    /// the CLI as `--model vit`.
    pub fn tiny(mcfg: &ModelConfig, scenario: Scenario, loader: ClassificationLoader) -> Self {
        Self::new(
            vit(mcfg, VIT_TINY_DEPTH, VIT_TINY_HEADS),
            VIT_TINY_DEPTH,
            VIT_TINY_HEADS,
            scenario,
            loader,
        )
    }

    /// Replays a previously persisted fault matrix instead of
    /// generating a new one.
    pub fn with_fault_matrix(mut self, matrix: FaultMatrix) -> Self {
        self.inner = self.inner.with_fault_matrix(matrix);
        self
    }

    /// Adds a hardened model to run in lock-step under the same faults.
    /// It must expose the same injectable-layer list as the primary
    /// transformer. Its hooks never run, and its forward shares the
    /// golden prefix as [`ImgClassCampaign::with_resil_model`]
    /// describes.
    pub fn with_resil_model(mut self, resil: Network) -> Self {
        self.inner = self.inner.with_resil_model(resil);
        self
    }

    /// Transformer depth (number of attention + MLP blocks).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Attention heads per block.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Runs the campaign with the given [`RunConfig`] — identical
    /// engine semantics to the classification campaign (see
    /// [`ImgClassCampaign::run_with`]).
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

impl CampaignTask for VitCampaign {
    type Scope = ClassificationScope;
    type Row = ClassificationRow;
    type Result = ClassificationCampaignResult;

    fn kind(&self) -> &'static str {
        "vit"
    }

    fn model_name(&self) -> String {
        format!("{}(d{},h{})", self.inner.model_name(), self.depth, self.heads)
    }

    fn scenario(&self) -> &Scenario {
        self.inner.scenario()
    }

    fn replay_matrix(&self) -> Option<&FaultMatrix> {
        self.inner.replay_matrix()
    }

    fn resolve_targets(&self) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError> {
        self.inner.resolve_targets()
    }

    fn stream_scopes(
        &self,
        epoch: u64,
        sink: &mut ScopeSink<'_, ClassificationScope>,
    ) -> Result<ControlFlow<()>, CoreError> {
        self.inner.stream_scopes(epoch, sink)
    }

    fn process_scope(
        &self,
        ctx: &ScopeCtx<'_>,
        scope: &ClassificationScope,
        rec: &Recorder,
        rows: &mut Vec<ClassificationRow>,
        trace: &mut RunTrace,
    ) -> Result<(), CoreError> {
        self.inner.process_scope(ctx, scope, rec, rows, trace)
    }

    fn classify(row: &ClassificationRow) -> EffectClass {
        ImgClassCampaign::classify(row)
    }

    fn row_nonfinite(row: &ClassificationRow) -> (u64, u64) {
        ImgClassCampaign::row_nonfinite(row)
    }

    fn finalize(
        &self,
        rows: Vec<ClassificationRow>,
        matrix: FaultMatrix,
        trace: RunTrace,
    ) -> ClassificationCampaignResult {
        self.inner.finalize(rows, matrix, trace)
    }

    /// CSV runs reuse the classification file set verbatim; binary runs
    /// keep the classification store layout (`kind: classification`, so
    /// the store→CSV converter applies unchanged) and stamp the
    /// transformer architecture plus any per-layer overrides into the
    /// schema meta.
    fn make_row_sink(
        &self,
        format: ArtifactFormat,
        artifacts: &Artifacts,
    ) -> Result<Option<Box<dyn ArtifactSink<ClassificationRow>>>, CoreError> {
        match format {
            ArtifactFormat::Csv => Ok(Some(Box::new(ClassificationCsvSink::create(artifacts)?))),
            ArtifactFormat::Binary => {
                let resil = self.inner.has_resil();
                let schema = store_schema(resil)
                    .with_meta("campaign", "vit")
                    .with_meta("vit_depth", self.depth.to_string())
                    .with_meta("vit_heads", self.heads.to_string());
                let schema = with_layer_override_meta(schema, self.scenario());
                Ok(Some(Box::new(ColumnarSink::create(
                    artifacts.rows_store(),
                    schema,
                    move |row: &ClassificationRow| store_values(row, resil),
                )?)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CsvVariant;
    use alfi_datasets::classification::ClassificationDataset;
    use alfi_scenario::{FaultMode, InjectionTarget, LayerOverride};
    use std::collections::BTreeMap;

    fn campaign(scenario: Scenario) -> VitCampaign {
        let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, ..ModelConfig::default() };
        let ds = ClassificationDataset::new(scenario.dataset_size, mcfg.num_classes, 3, 16, 5);
        let loader = ClassificationLoader::new(ds, scenario.batch_size);
        VitCampaign::tiny(&mcfg, scenario, loader)
    }

    fn scenario(n: usize) -> Scenario {
        let mut s = Scenario::default();
        s.dataset_size = n;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        s
    }

    #[test]
    fn vit_campaign_produces_classification_rows() {
        let result = campaign(scenario(4)).run_with(&RunConfig::default()).unwrap();
        assert_eq!(result.rows.len(), 4);
        for row in &result.rows {
            assert_eq!(row.orig_top5.len(), 5);
            assert_eq!(row.corr_top5.len(), 5);
            assert_eq!(row.faults.len(), 1);
        }
        // Faults land across the transformer's 14 injectable layers.
        assert!(result.fault_matrix.records.iter().all(|r| r.layer < 14));
        let csv = result.to_csv(CsvVariant::Corrupted);
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn vit_campaign_is_deterministic_and_parallel_exact() {
        let sequential = campaign(scenario(6)).run_with(&RunConfig::default()).unwrap();
        let parallel = campaign(scenario(6)).run_with(&RunConfig::new().threads(4)).unwrap();
        assert_eq!(sequential.rows.len(), parallel.rows.len());
        for (a, b) in sequential.rows.iter().zip(parallel.rows.iter()) {
            assert_eq!(a.orig_top5, b.orig_top5);
            assert_eq!(a.corr_top5, b.corr_top5);
            assert_eq!(a.faults, b.faults);
        }
        assert_eq!(sequential.trace, parallel.trace);
        assert_eq!(sequential.fault_matrix, parallel.fault_matrix);
    }

    #[test]
    fn vit_trace_header_names_the_transformer() {
        let rec = Recorder::new();
        campaign(scenario(2)).run_with(&RunConfig::new().recorder(rec.clone())).unwrap();
        let meta = rec.summary().meta.unwrap();
        assert_eq!(meta.campaign, "vit");
        assert_eq!(meta.model, "vit(d2,h3)");
    }

    #[test]
    fn vit_binary_store_carries_architecture_and_layer_meta() {
        let mut s = scenario(3);
        s.layer_overrides = BTreeMap::from([(
            "blocks.0*".to_string(),
            LayerOverride { rate: Some(0.5), channel_range: Some((0, 0)), ..Default::default() },
        )]);
        let dir = std::env::temp_dir().join("alfi_vit_store_meta");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig::new()
            .save_dir(dir.to_str().unwrap())
            .format(ArtifactFormat::Binary);
        campaign(s).run_with(&cfg).unwrap();
        let reader = crate::artifact::ReplayReader::open(dir.join("rows.alfic")).unwrap();
        let r = reader.reader();
        assert_eq!(r.meta("kind"), Some("classification"));
        assert_eq!(r.meta("campaign"), Some("vit"));
        assert_eq!(r.meta("vit_depth"), Some("2"));
        assert_eq!(r.meta("vit_heads"), Some("3"));
        assert_eq!(r.meta("layer.blocks.0*"), Some("rate=0.5,channels=0-0"));
    }

    #[test]
    fn vit_binary_store_converts_to_identical_csvs() {
        let dir_bin = std::env::temp_dir().join("alfi_vit_convert_bin");
        let dir_csv = std::env::temp_dir().join("alfi_vit_convert_csv");
        for d in [&dir_bin, &dir_csv] {
            let _ = std::fs::remove_dir_all(d);
        }
        campaign(scenario(3))
            .run_with(
                &RunConfig::new()
                    .save_dir(dir_bin.to_str().unwrap())
                    .format(ArtifactFormat::Binary),
            )
            .unwrap();
        campaign(scenario(3))
            .run_with(&RunConfig::new().save_dir(dir_csv.to_str().unwrap()))
            .unwrap();
        let converted = crate::artifact::store_to_texts(&dir_bin.join("rows.alfic")).unwrap();
        for (name, text) in converted {
            let direct = std::fs::read_to_string(dir_csv.join(&name)).unwrap();
            assert_eq!(text, direct, "{name} differs between formats");
        }
    }

    #[test]
    fn vit_replayed_matrix_reproduces_rows() {
        let first = campaign(scenario(3)).run_with(&RunConfig::default()).unwrap();
        let replay = campaign(scenario(3))
            .with_fault_matrix(first.fault_matrix.clone())
            .run_with(&RunConfig::default())
            .unwrap();
        assert_eq!(first.trace, replay.trace);
        for (a, b) in first.rows.iter().zip(replay.rows.iter()) {
            assert_eq!(a.corr_top5, b.corr_top5);
        }
    }
}
