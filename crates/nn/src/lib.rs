#![warn(missing_docs)]
//! # alfi-nn
//!
//! Neural-network inference substrate for the ALFI fault-injection
//! framework — the role PyTorch plays for PyTorchALFI (Gräfe et al.,
//! DSN 2023).
//!
//! The crate provides:
//!
//! * [`Network`] — a topologically-ordered DAG of [`Layer`]s with
//!   **forward hooks** that can mutate layer outputs in place, the exact
//!   interception mechanism PyTorchFI uses for neuron fault injection,
//!   evaluated by one loop ([`Network::evaluate`]) that can also resume
//!   from an earlier pass's activations;
//! * [`Clamp`] — a Ranger/Clipper range guard, node state a forward
//!   applies after the node's hooks ([`Network::set_guard`]);
//! * [`NodeMap`] — which nodes of a hardened copy reuse the plain
//!   model's activations, so its forward can resume from them too;
//! * [`models`] — width-scalable reproductions of AlexNet, VGG-16 and
//!   ResNet-50 (the classifiers of the paper's Fig. 2a), built with
//!   deterministic seeded weights;
//! * [`detection`] — YOLO-style, RetinaNet-style and Faster-RCNN-style
//!   detectors (the models of Fig. 2b) plus box geometry and NMS;
//! * [`init`] — seeded deterministic initializers, the replayability
//!   anchor for the whole framework.
//!
//! # Example
//!
//! ```
//! use alfi_nn::models::{alexnet, ModelConfig};
//! use alfi_tensor::Tensor;
//!
//! let cfg = ModelConfig { input_hw: 32, width_mult: 0.0625, ..ModelConfig::default() };
//! let model = alexnet(&cfg);
//! let logits = model.forward(&Tensor::zeros(&cfg.input_dims(1)))?;
//! assert_eq!(logits.dims(), &[1, cfg.num_classes]);
//! # Ok::<(), alfi_nn::NnError>(())
//! ```

pub mod detection;
pub mod error;
pub mod graph;
pub mod init;
pub mod layer;
pub mod models;
pub mod prune;
pub mod resume;
pub mod train;
pub mod weights;

pub use error::NnError;
pub use graph::{
    Activations, Clamp, ClampMode, ForwardHook, HookHandle, InjectableLayer, LayerCtx, Network,
    Node, NodeId, Pass, Prefix, RowPatch,
};
pub use layer::{BatchNorm2d, Conv2d, Conv3d, CustomLayer, Layer, LayerKind, Linear};
pub use resume::NodeMap;
