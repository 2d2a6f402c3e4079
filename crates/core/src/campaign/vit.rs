//! ViT-style transformer classification campaign.
//!
//! Transformer fault-injection studies perturb the GEMM-backed
//! projections (patch embedding, q/k/v, attention output, MLP, head)
//! while treating softmax, layer norm and token plumbing as control
//! structure. The seeded [`alfi_nn::models::vit`] model family encodes
//! exactly that substitution rule, so a ViT campaign is an
//! [`ImgClassCampaign`] that records the transformer's architecture:
//! same [`ClassificationRow`](crate::campaign::ClassificationRow) shape,
//! same CSV files, same columnar store layout (`kind: classification`,
//! so `alfi store convert` keeps working), plus transformer meta
//! (`campaign=vit`, `vit_depth`, `vit_heads`) in the trace header and
//! the binary store.

use crate::campaign::classification::{ClassificationCampaignResult, ImgClassCampaign};
use crate::campaign::config::RunConfig;
use crate::error::CoreError;
use crate::matrix::FaultMatrix;
use alfi_datasets::loader::ClassificationLoader;
use alfi_nn::models::{vit, ModelConfig, VIT_TINY_DEPTH, VIT_TINY_HEADS};
use alfi_nn::Network;
use alfi_scenario::Scenario;

/// The transformer classification campaign runner: an
/// [`ImgClassCampaign`] that records the architecture (depth, heads) in
/// the trace header and the binary store meta.
#[derive(Debug)]
pub struct VitCampaign(ImgClassCampaign);

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
        let mut campaign = ImgClassCampaign::new(model, scenario, loader);
        campaign.vit = Some((depth, heads));
        VitCampaign(campaign)
    }

    /// Creates a campaign over the ViT-Tiny configuration
    /// ([`alfi_nn::models::vit_tiny`]): the fast default registered in
    /// the CLI as `--model vit`.
    pub fn tiny(mcfg: &ModelConfig, scenario: Scenario, loader: ClassificationLoader) -> Self {
        let model = vit(mcfg, VIT_TINY_DEPTH, VIT_TINY_HEADS);
        Self::new(model, VIT_TINY_DEPTH, VIT_TINY_HEADS, scenario, loader)
    }

    /// See [`ImgClassCampaign::with_fault_matrix`].
    pub fn with_fault_matrix(self, matrix: FaultMatrix) -> Self {
        VitCampaign(self.0.with_fault_matrix(matrix))
    }

    /// See [`ImgClassCampaign::with_resil_model`].
    pub fn with_resil_model(self, resil: Network) -> Self {
        VitCampaign(self.0.with_resil_model(resil))
    }

    /// See [`ImgClassCampaign::run_with`].
    ///
    /// # Errors
    ///
    /// As [`ImgClassCampaign::run_with`].
    pub fn run_with(&mut self, cfg: &RunConfig) -> Result<ClassificationCampaignResult, CoreError> {
        self.0.run_with(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CsvVariant;
    use alfi_datasets::classification::ClassificationDataset;
    use alfi_scenario::{ArtifactFormat, FaultMode, InjectionTarget, LayerOverride};
    use alfi_trace::Recorder;
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
