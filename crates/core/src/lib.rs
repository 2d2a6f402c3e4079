#![warn(missing_docs)]
//! # alfi-core
//!
//! The fault-injection core of ALFI — a Rust reproduction of
//! PyTorchALFI's `alficore` (Gräfe et al., DSN 2023).
//!
//! Pipeline:
//!
//! 1. A [`Scenario`](alfi_scenario::Scenario) (from `default.yml`)
//!    describes the campaign: neuron vs weight faults, fault model, layer
//!    filters, counts and policies.
//! 2. [`matrix`] resolves the model's injectable layers, weights them by
//!    relative size (paper Eq. 1) and pre-generates the full fault matrix
//!    (`n = dataset_size · num_runs · faults_per_image`).
//! 3. [`injector`] injects faults per call through a [`FaultPlan`]:
//!    weight faults on corrupted copies of the faulted weight rows,
//!    neuron faults on a node's output after its layer, the networks
//!    left untouched. [`Ptfiwrap`] is the paper's Listing-1 wrapper
//!    with `fimodel_iter()`; [`arm_faults`] is the clone-and-arm
//!    reference (in-place weight writes with bit-exact revert, neuron
//!    faults as forward hooks) the plans are tested against and the
//!    baseline injects with.
//! 4. [`monitor`] observes NaN/Inf occurrences (DUE).
//! 5. [`persist`] stores the fault matrix and the applied-fault trace as
//!    versioned, checksummed binary files for exact replay.
//! 6. [`campaign`] runs the high-level `TestErrorModels_*` flows over
//!    classification and detection models.
//! 7. [`artifact`] catalogs the output-file set ([`Artifacts`]) and
//!    streams per-image rows through an [`ArtifactSink`] — CSV or the
//!    columnar `alfi-store` binary, selected per run.
//! 8. [`baseline`] reimplements plain PyTorchFI-style ad-hoc injection as
//!    the efficiency comparator: the matrix's fault distribution, drawn
//!    per inference instead of up front.
//!
//! # Example
//!
//! ```
//! use alfi_core::Ptfiwrap;
//! use alfi_nn::models::{vgg16, ModelConfig};
//! use alfi_scenario::{FaultMode, InjectionTarget, Scenario};
//! use alfi_tensor::Tensor;
//!
//! let cfg = ModelConfig { input_hw: 32, width_mult: 0.0625, ..ModelConfig::default() };
//! let model = vgg16(&cfg);
//! let mut scenario = Scenario::default();
//! scenario.dataset_size = 2;
//! scenario.injection_target = InjectionTarget::Weights;
//! scenario.fault_mode = FaultMode::exponent_bit_flip();
//!
//! let mut wrapper = Ptfiwrap::new(&model, scenario, &cfg.input_dims(1))?;
//! let x = Tensor::ones(&cfg.input_dims(1));
//! for faulty in wrapper.fimodel_iter() {
//!     let orig = model.forward(&x)?;
//!     let corr = faulty.forward(&x)?;
//!     assert_eq!(orig.dims(), corr.dims());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod artifact;
pub mod baseline;
pub mod campaign;
pub mod error;
pub mod fault;
pub mod fault_model;
pub mod injector;
pub mod matrix;
pub mod monitor;
pub mod persist;
pub mod stats;
pub mod sweep;

pub use artifact::{
    store_to_files, store_to_texts, text_to_store, ArtifactSink, Artifacts, ColumnarSink,
    ReplayReader, SinkStats,
};
pub use error::CoreError;
pub use fault::{AppliedFault, FaultRecord, FaultValue};
pub use fault_model::{pattern_matches, FaultModel, LayerPlan};
pub use campaign::RunConfig;
pub use injector::{
    arm_faults, corrupt_value, injection_event, ArmedFaults, FaultPlan, FaultyModel, FimodelIter,
    Ptfiwrap,
};
pub use matrix::{layer_weights, resolve_targets, FaultMatrix, LayerTarget};
pub use monitor::{attach_monitor, NanInfCounts, NanInfMonitor};
pub use sweep::ScenarioSweep;
pub use persist::{
    crc32, decode_fault_matrix, encode_fault_matrix, load_fault_matrix, save_events,
    save_fault_matrix, RunTrace, TraceEntry,
};
