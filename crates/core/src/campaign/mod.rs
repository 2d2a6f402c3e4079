//! High-level campaign runners: the `TestErrorModels_*` equivalents that
//! tightly couple fault-free, faulty and hardened models over a dataset
//! and produce the paper's three output sets.
//!
//! All campaigns are thin [`CampaignTask`] adapters over the shared
//! [`Engine`] in [`engine`], which owns policy iteration, fault-slot
//! assignment, replay validation, tracing, pool fan-out and
//! persistence for every campaign type and thread count.

pub mod classification;
pub mod config;
pub mod detection;
pub mod engine;
pub(crate) mod stop;
pub mod vit;

pub use alfi_scenario::{ArtifactFormat, CiMethod, StopPolicy, StopScope};
pub use classification::{
    classify_row, classify_top1, ClassificationCampaignResult, ClassificationRow, CsvVariant,
    ImgClassCampaign, TopK, TOPK_PAD_CLASS,
};
pub use config::RunConfig;
pub use detection::{DetectionCampaignResult, DetectionRow, ObjDetCampaign};
pub use engine::{CampaignTask, Engine, ScopeCtx, ScopeSink, SlotCursor};
pub use vit::VitCampaign;
