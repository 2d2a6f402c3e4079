#![warn(missing_docs)]
//! # alfi — Application-Level Fault Injection for neural networks
//!
//! A from-scratch Rust reproduction of **PyTorchALFI** (Gräfe, Qutub,
//! Geissler, Paulitsch — *"Large-Scale Application of Fault Injection
//! into PyTorch Models"*, DSN-W 2023), including the complete substrate
//! the original delegates to PyTorch.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`tensor`] | `alfi-tensor` | dense tensors + bit-level fault primitives |
//! | [`nn`] | `alfi-nn` | layers, hooked network graphs, model zoo, detectors |
//! | [`scenario`] | `alfi-scenario` | `default.yml`-style campaign configuration |
//! | [`core`] | `alfi-core` | fault matrices, injection engine, persistence, campaigns, the SDC/DUE/masked rule and [`core::stats::Rate`] |
//! | [`core::monitor`] | `alfi-core` | NaN/Inf monitor ([`core::attach_monitor`]) |
//! | [`trace`] | `alfi-trace` | campaign observability: [`trace::Recorder`] (spans, events, health), the run's one counter set [`trace::CampaignCounters`] on a [`metrics::Registry`], JSONL event log, [`trace::TraceSummary`] |
//! | [`datasets`] | `alfi-datasets` | synthetic datasets + COCO-style wrappers |
//! | [`mitigation`] | `alfi-mitigation` | Ranger/Clipper activation-range hardening |
//! | [`eval`] | `alfi-eval` | detection KPIs: IVMOD, COCO AP, detection result writers |
//! | [`analyze`] | `alfi-analyze` | classification reports (from a run directory or an in-memory result), row KPIs, run diffing, trace export |
//!
//! # Quickstart (paper Listing 1)
//!
//! ```
//! use alfi::core::Ptfiwrap;
//! use alfi::nn::models::{alexnet, ModelConfig};
//! use alfi::scenario::{FaultMode, InjectionTarget, Scenario};
//! use alfi::tensor::Tensor;
//!
//! // Initiate the wrapper with the trained baseline model.
//! let cfg = ModelConfig { input_hw: 32, width_mult: 0.0625, ..ModelConfig::default() };
//! let orig_model = alexnet(&cfg);
//! let mut scenario = Scenario::default();
//! scenario.dataset_size = 3;
//! scenario.injection_target = InjectionTarget::Weights;
//! scenario.fault_mode = FaultMode::exponent_bit_flip();
//! let mut wrapper = Ptfiwrap::new(&orig_model, scenario, &cfg.input_dims(1))?;
//!
//! // Get an iterator over faulty models and compare outputs.
//! let input = Tensor::ones(&cfg.input_dims(1));
//! for corrupted_model in wrapper.fimodel_iter() {
//!     let orig_output = orig_model.forward(&input)?;
//!     let corrupted_output = corrupted_model.forward(&input)?;
//!     assert_eq!(orig_output.dims(), corrupted_output.dims());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Running a campaign with `run_with` + tracing
//!
//! Campaigns run through a single entry point, [`prelude::RunConfig`]:
//! thread count, an optional [`trace::Recorder`] for observability and
//! an optional output directory in one builder. The default
//! configuration reproduces the old sequential `run()` byte-for-byte.
//!
//! ```
//! use alfi::prelude::*;
//! use alfi::datasets::{ClassificationDataset, ClassificationLoader};
//! use alfi::nn::models::{alexnet, ModelConfig};
//!
//! let cfg = ModelConfig { input_hw: 16, width_mult: 0.0625, ..ModelConfig::default() };
//! let mut scenario = Scenario::default();
//! scenario.dataset_size = 4;
//! scenario.injection_target = InjectionTarget::Weights;
//! let ds = ClassificationDataset::new(4, cfg.num_classes, 3, 16, 1);
//! let loader = ClassificationLoader::new(ds, scenario.batch_size);
//!
//! let recorder = Recorder::new();
//! let result = ImgClassCampaign::new(alexnet(&cfg), scenario, loader)
//!     .run_with(&RunConfig::new().threads(1).recorder(recorder.clone()))?;
//!
//! let counts = recorder.summary().counts;
//! assert_eq!(counts.items as usize, result.rows.len());
//! assert_eq!(counts.injections, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use alfi_analyze as analyze;
pub use alfi_core as core;
pub use alfi_datasets as datasets;
pub use alfi_eval as eval;
pub use alfi_metrics as metrics;
pub use alfi_mitigation as mitigation;
pub use alfi_nn as nn;
pub use alfi_scenario as scenario;
pub use alfi_serde as serde;
pub use alfi_store as store;
pub use alfi_tensor as tensor;
pub use alfi_trace as trace;

/// One-stop imports for writing a campaign: `use alfi::prelude::*;`.
pub mod prelude {
    pub use crate::core::campaign::{
        CampaignTask, ClassificationCampaignResult, DetectionCampaignResult, Engine,
        ImgClassCampaign, ObjDetCampaign, RunConfig,
    };
    pub use crate::core::{attach_monitor, Artifacts, NanInfMonitor};
    pub use crate::scenario::{
        ArtifactFormat, CiMethod, FaultMode, InjectionPolicy, InjectionTarget, Scenario,
        StopPolicy, StopScope,
    };
    pub use crate::metrics::{HealthEvent, HealthPolicy, Registry};
    pub use crate::trace::{Recorder, StopEvent, StopOutcome, StopVerdict, TraceSummary};
}
