#![warn(missing_docs)]
//! # alfi-mitigation
//!
//! Activation-range supervision — the Ranger/Clipper hardening of
//! Geissler et al. (paper reference \[6\]) that PyTorchALFI's "enhanced
//! model" slot compares against.
//!
//! Workflow:
//!
//! 1. [`profile_bounds`] runs fault-free inference over calibration
//!    inputs and records each layer's healthy `(min, max)` activation
//!    range.
//! 2. [`harden`] clones the model and splices a
//!    [`Layer::RangeRestrict`] node after every protected layer.
//!    Out-of-range values — the signature of exponent-bit corruptions —
//!    are clipped to the bound (**Ranger**) or zeroed (**Clipper**),
//!    while in-range activations pass through untouched.
//!
//! Because protection nodes are non-injectable, a hardened model exposes
//! exactly the same injectable-layer list as the original, so identical
//! fault records can be armed on both — the precondition for the paper's
//! tightly-coupled three-model comparison.
//!
//! # Example
//!
//! ```
//! use alfi_mitigation::{harden, profile_bounds, Protection};
//! use alfi_nn::models::{alexnet, ModelConfig};
//! use alfi_tensor::Tensor;
//!
//! let cfg = ModelConfig { input_hw: 32, width_mult: 0.0625, ..ModelConfig::default() };
//! let model = alexnet(&cfg);
//! let calib = [Tensor::ones(&cfg.input_dims(1))];
//! let bounds = profile_bounds(&model, calib.iter())?;
//! let hardened = harden(&model, &bounds, Protection::Ranger, 0.1)?;
//! assert!(hardened.num_nodes() > model.num_nodes());
//! # Ok::<(), alfi_nn::NnError>(())
//! ```

use alfi_nn::{Layer, Network, NnError, NodeId, RestrictMode};
use alfi_tensor::{gemm, Tensor};
use std::collections::BTreeMap;

/// Which range-supervision strategy to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Clip out-of-range activations to the profiled bound.
    Ranger,
    /// Zero out-of-range activations.
    Clipper,
}

impl Protection {
    fn restrict_mode(self) -> RestrictMode {
        match self {
            Protection::Ranger => RestrictMode::Clip,
            Protection::Clipper => RestrictMode::Zero,
        }
    }

    /// The equivalent clamp mode for the kernel-epilogue form of this
    /// protection ([`harden_fused`]).
    pub fn clamp_mode(self) -> gemm::ClampMode {
        self.restrict_mode().into()
    }
}

/// Widens a profiled bound by the relative `margin` — shared by both
/// hardening forms so spliced and fused clamps use bit-identical
/// bounds.
fn widen(lo: f32, hi: f32, margin: f32) -> (f32, f32) {
    let span = (hi - lo).max(f32::MIN_POSITIVE);
    (lo - margin * span, hi + margin * span)
}

/// Per-node healthy activation bounds observed during profiling.
pub type Bounds = BTreeMap<NodeId, (f32, f32)>;

/// Profiles the healthy activation range of every node by running the
/// model over fault-free calibration inputs.
///
/// # Errors
///
/// Propagates forward-pass errors from the model.
pub fn profile_bounds<'a>(
    model: &Network,
    inputs: impl Iterator<Item = &'a Tensor>,
) -> Result<Bounds, NnError> {
    let mut bounds: Bounds = BTreeMap::new();
    for input in inputs {
        let acts = model.forward_all(input)?;
        for (id, act) in acts.iter().enumerate() {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in act.data() {
                if v.is_finite() {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            if lo <= hi {
                let e = bounds.entry(id).or_insert((lo, hi));
                e.0 = e.0.min(lo);
                e.1 = e.1.max(hi);
            }
        }
    }
    Ok(bounds)
}

/// Returns the node ids [`harden`] protects: the outputs of all
/// injectable (conv/linear) layers and all ReLU-family activations —
/// the interception points the Ranger paper instruments.
pub fn protected_nodes(model: &Network) -> Vec<NodeId> {
    model
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            n.layer.kind().is_injectable() || matches!(n.layer, Layer::Relu | Layer::LeakyRelu(_))
        })
        .map(|(id, _)| id)
        .collect()
}

/// Builds a hardened clone of `model`: a [`Layer::RangeRestrict`] node is
/// spliced after every protected node, using the profiled bound widened
/// by `margin` (relative, e.g. `0.1` = ±10 % head-room so borderline
/// healthy activations are never touched).
///
/// # Errors
///
/// Propagates graph-surgery errors (duplicate names cannot occur because
/// protection nodes get fresh `__protect_*` names).
pub fn harden(
    model: &Network,
    bounds: &Bounds,
    protection: Protection,
    margin: f32,
) -> Result<Network, NnError> {
    let mut hardened = model.clone();
    // Insert from the highest node id down so earlier insertions don't
    // shift the ids we still have to process.
    let mut targets = protected_nodes(model);
    targets.sort_unstable_by(|a, b| b.cmp(a));
    for node_id in targets {
        let Some(&(lo, hi)) = bounds.get(&node_id) else {
            continue; // never observed (e.g. dead branch): leave unprotected
        };
        let (lo, hi) = widen(lo, hi, margin);
        let name = format!("__protect_{node_id}");
        hardened.insert_after(
            node_id,
            name,
            Layer::RangeRestrict { lo, hi, mode: protection.restrict_mode() },
        )?;
    }
    Ok(hardened)
}

/// Builds a hardened clone of `model` with the range clamp **fused
/// into the compute-kernel epilogue** of every protected node instead
/// of spliced in as a separate [`Layer::RangeRestrict`] pass — the
/// hardened forward stops paying a second full pass over activations.
///
/// Bounds, margin widening and clamp semantics are bit-identical to
/// [`harden`]; on a hook-free model the two hardened forms produce
/// bit-identical outputs. They differ observably only when forward
/// hooks are registered on protected nodes: the fused clamp runs
/// *before* a node's hooks (it is part of the kernel), while a spliced
/// protection node runs after them. Campaigns that inject through
/// hooks on protected layers should use [`harden`]; fault-free or
/// weight-fault evaluation can use the fused form for speed. The graph
/// is unchanged (`num_nodes` stays identical), so layer names, node
/// ids and the injectable-layer list are trivially preserved.
///
/// # Errors
///
/// Propagates [`NnError::NoSuchNode`] if `bounds` references a node
/// outside the model (cannot occur for bounds from [`profile_bounds`]).
pub fn harden_fused(
    model: &Network,
    bounds: &Bounds,
    protection: Protection,
    margin: f32,
) -> Result<Network, NnError> {
    let mut hardened = model.clone();
    for node_id in protected_nodes(model) {
        let Some(&(lo, hi)) = bounds.get(&node_id) else {
            continue; // never observed (e.g. dead branch): leave unprotected
        };
        let (lo, hi) = widen(lo, hi, margin);
        hardened.set_fused_clamp(
            node_id,
            gemm::Clamp { lo, hi, mode: protection.clamp_mode() },
        )?;
    }
    Ok(hardened)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_nn::models::{alexnet, ModelConfig};
    use alfi_nn::{Conv2d, Linear};
    use alfi_tensor::conv::ConvConfig;
    use alfi_rng::Rng;

    fn tiny_cfg() -> ModelConfig {
        ModelConfig { input_hw: 16, width_mult: 0.0625, ..ModelConfig::default() }
    }

    fn calib(cfg: &ModelConfig, n: usize) -> Vec<Tensor> {
        let mut rng = Rng::from_seed(11);
        (0..n).map(|_| Tensor::rand_uniform(&mut rng, &cfg.input_dims(1), 0.0, 1.0)).collect()
    }

    #[test]
    fn profiled_bounds_cover_observed_activations() {
        let cfg = tiny_cfg();
        let model = alexnet(&cfg);
        let inputs = calib(&cfg, 3);
        let bounds = profile_bounds(&model, inputs.iter()).unwrap();
        assert_eq!(bounds.len(), model.num_nodes());
        let acts = model.forward_all(&inputs[0]).unwrap();
        for (id, act) in acts.iter().enumerate() {
            let (lo, hi) = bounds[&id];
            assert!(act.min() >= lo - 1e-6 && act.max() <= hi + 1e-6, "node {id}");
        }
    }

    #[test]
    fn profile_bounds_take_min_max_across_inputs() {
        let mut net = Network::new("range");
        let a = net.push("id", Layer::Identity, &[]).unwrap();
        net.set_output(a).unwrap();
        let inputs =
            [vec![-1.0, 2.0], vec![-5.0, 0.5]].map(|v| Tensor::from_vec(v, &[1, 2]).unwrap());
        assert_eq!(profile_bounds(&net, inputs.iter()).unwrap()[&a], (-5.0, 2.0));
    }

    #[test]
    fn profile_bounds_ignore_non_finite_values() {
        let mut net = Network::new("range");
        let a = net.push("id", Layer::Identity, &[]).unwrap();
        net.set_output(a).unwrap();
        let x = Tensor::from_vec(vec![f32::INFINITY, 1.0, f32::NAN], &[1, 3]).unwrap();
        assert_eq!(profile_bounds(&net, std::iter::once(&x)).unwrap()[&a], (1.0, 1.0));
        // A node that never shows a finite value gets no bound at all.
        let x = Tensor::from_vec(vec![f32::NEG_INFINITY, f32::NAN], &[1, 2]).unwrap();
        assert!(profile_bounds(&net, std::iter::once(&x)).unwrap().is_empty());
    }

    #[test]
    fn hardened_model_is_transparent_on_healthy_inputs() {
        let cfg = tiny_cfg();
        let model = alexnet(&cfg);
        let inputs = calib(&cfg, 4);
        let bounds = profile_bounds(&model, inputs.iter()).unwrap();
        for protection in [Protection::Ranger, Protection::Clipper] {
            let hardened = harden(&model, &bounds, protection, 0.05).unwrap();
            for x in &inputs {
                let a = model.forward(x).unwrap();
                let b = hardened.forward(x).unwrap();
                assert!(
                    a.max_abs_diff(&b).unwrap() < 1e-5,
                    "{protection:?} altered healthy activations"
                );
            }
        }
    }

    #[test]
    fn hardened_model_suppresses_huge_corruptions() {
        // A 1-conv model: corrupt its weight by an exponent flip and
        // verify the protected output stays within profiled bounds.
        let mut net = Network::new("one_conv");
        let conv = Layer::Conv2d(Conv2d {
            weight: Tensor::full(&[1, 1, 1, 1], 0.5),
            bias: None,
            cfg: ConvConfig::default(),
        });
        let c = net.push("conv", conv, &[]).unwrap();
        let r = net.push("relu", Layer::Relu, &[c]).unwrap();
        net.set_output(r).unwrap();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let bounds = profile_bounds(&net, std::iter::once(&x)).unwrap();

        let mut corrupted = net.clone();
        let w = corrupted.layer_mut(c).unwrap().weight_mut().unwrap();
        w.set(&[0, 0, 0, 0], alfi_tensor::bits::flip_bit(0.5, 30)); // huge value
        let bad = corrupted.forward(&x).unwrap();
        assert!(bad.max() > 1.0e10);

        let hardened_corrupt = harden(&corrupted, &bounds, Protection::Ranger, 0.1).unwrap();
        let fixed = hardened_corrupt.forward(&x).unwrap();
        let (_, hi) = bounds[&c];
        assert!(fixed.max() <= hi * 1.2 + 1e-6, "ranger must clamp the explosion");

        let clipper = harden(&corrupted, &bounds, Protection::Clipper, 0.1).unwrap();
        assert_eq!(clipper.forward(&x).unwrap().max(), 0.0, "clipper zeroes the corruption");
    }

    #[test]
    fn hardening_preserves_injectable_layer_list() {
        let cfg = tiny_cfg();
        let model = alexnet(&cfg);
        let bounds = profile_bounds(&model, calib(&cfg, 1).iter()).unwrap();
        let hardened = harden(&model, &bounds, Protection::Ranger, 0.1).unwrap();
        let a: Vec<String> = model
            .injectable_layers(None, None)
            .unwrap()
            .into_iter()
            .map(|l| l.name)
            .collect();
        let b: Vec<String> = hardened
            .injectable_layers(None, None)
            .unwrap()
            .into_iter()
            .map(|l| l.name)
            .collect();
        assert_eq!(a, b);
        assert!(hardened.num_nodes() > model.num_nodes());
    }

    #[test]
    fn protected_nodes_cover_convs_linears_and_relus() {
        let cfg = tiny_cfg();
        let model = alexnet(&cfg);
        let prot = protected_nodes(&model);
        // alexnet: 5 convs + 3 linears + 7 relus
        assert_eq!(prot.len(), 15);
    }

    #[test]
    fn missing_bounds_leave_nodes_unprotected() {
        let mut net = Network::new("n");
        let a = net.push("relu", Layer::Relu, &[]).unwrap();
        net.set_output(a).unwrap();
        let hardened = harden(&net, &Bounds::new(), Protection::Ranger, 0.1).unwrap();
        assert_eq!(hardened.num_nodes(), net.num_nodes());
    }

    /// Hardening a model whose forwards already filled its linear
    /// weight packs computes what hardening a never-run copy computes:
    /// spliced guards keep every pack on its node.
    #[test]
    fn hardening_keeps_weight_packs_on_their_nodes() {
        let cfg = tiny_cfg();
        let inputs = calib(&cfg, 3);
        let model = alexnet(&cfg);
        // Profiling runs every node, filling the packs.
        let bounds = profile_bounds(&model, inputs.iter()).unwrap();
        let never_run = alexnet(&cfg);
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for protection in [Protection::Ranger, Protection::Clipper] {
            for fused in [false, true] {
                let harden = if fused { harden_fused } else { harden };
                let a = harden(&model, &bounds, protection, 0.0).unwrap();
                let b = harden(&never_run, &bounds, protection, 0.0).unwrap();
                for x in &inputs {
                    let what = format!("{protection:?}, fused {fused}");
                    assert_eq!(bits(a.forward(x).unwrap()), bits(b.forward(x).unwrap()), "{what}");
                }
            }
        }
    }

    #[test]
    fn fused_hardening_is_bit_identical_to_spliced() {
        let cfg = tiny_cfg();
        let model = alexnet(&cfg);
        let inputs = calib(&cfg, 3);
        let bounds = profile_bounds(&model, inputs.iter()).unwrap();
        for protection in [Protection::Ranger, Protection::Clipper] {
            let spliced = harden(&model, &bounds, protection, 0.1).unwrap();
            let fused = harden_fused(&model, &bounds, protection, 0.1).unwrap();
            assert_eq!(fused.num_nodes(), model.num_nodes(), "fused adds no graph nodes");
            assert!(fused.num_fused() > 0);
            for x in &inputs {
                let a = spliced.forward(x).unwrap();
                let b = fused.forward(x).unwrap();
                assert_eq!(a.dims(), b.dims());
                let bits_equal = a
                    .data()
                    .iter()
                    .zip(b.data().iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(bits_equal, "{protection:?}: fused clamp drifted from spliced clamp");
            }
        }
    }

    #[test]
    fn fused_hardening_suppresses_weight_corruption() {
        let mut net = Network::new("one_conv");
        let conv = Layer::Conv2d(Conv2d {
            weight: Tensor::full(&[1, 1, 1, 1], 0.5),
            bias: None,
            cfg: ConvConfig::default(),
        });
        let c = net.push("conv", conv, &[]).unwrap();
        let r = net.push("relu", Layer::Relu, &[c]).unwrap();
        net.set_output(r).unwrap();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let bounds = profile_bounds(&net, std::iter::once(&x)).unwrap();

        let mut corrupted = net.clone();
        let w = corrupted.layer_mut(c).unwrap().weight_mut().unwrap();
        w.set(&[0, 0, 0, 0], alfi_tensor::bits::flip_bit(0.5, 30));
        assert!(corrupted.forward(&x).unwrap().max() > 1.0e10);

        let fused = harden_fused(&corrupted, &bounds, Protection::Ranger, 0.1).unwrap();
        let (_, hi) = bounds[&c];
        assert!(fused.forward(&x).unwrap().max() <= hi * 1.2 + 1e-6);
        let clipper = harden_fused(&corrupted, &bounds, Protection::Clipper, 0.1).unwrap();
        assert_eq!(clipper.forward(&x).unwrap().max(), 0.0);
    }

    #[test]
    fn nan_corruption_is_neutralized() {
        let mut net = Network::new("n");
        let a = net
            .push("lin", Layer::Linear(Linear { weight: Tensor::ones(&[2, 2]), bias: None }), &[])
            .unwrap();
        net.set_output(a).unwrap();
        let x = Tensor::ones(&[1, 2]);
        let bounds = profile_bounds(&net, std::iter::once(&x)).unwrap();
        let mut corrupted = net.clone();
        corrupted.layer_mut(a).unwrap().weight_mut().unwrap().set(&[0, 0], f32::NAN);
        assert!(corrupted.forward(&x).unwrap().has_non_finite());
        let hardened = harden(&corrupted, &bounds, Protection::Clipper, 0.0).unwrap();
        assert!(!hardened.forward(&x).unwrap().has_non_finite());
    }
}
