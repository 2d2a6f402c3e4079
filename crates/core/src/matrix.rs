//! Fault-matrix generation.
//!
//! "All faults are generated as a matrix before the inference run to
//! enhance the explainability of faults" (§IV-B). This module resolves a
//! model's injectable layers against a [`Scenario`], computes the Eq. (1)
//! layer-size weighting, and pre-generates the full set of
//! `dataset_size · num_runs · faults_per_image` fault records.

use crate::error::CoreError;
use crate::fault::{FaultRecord, FaultValue};
use crate::fault_model::{FaultModel, LayerPlan};
use alfi_nn::{LayerKind, Network, NodeId};
use alfi_scenario::{FaultMode, InjectionTarget, LayerType, Scenario};
use alfi_rng::Rng;

/// A fully resolved injection target: one injectable layer of one
/// network, with its weight geometry and (when shape inference ran) its
/// output geometry.
#[derive(Debug, Clone)]
pub struct LayerTarget {
    /// Which network (0 for single-network models; the Faster-RCNN-style
    /// detector exposes backbone = 0, head = 1).
    pub net_idx: usize,
    /// Node id within that network.
    pub node_id: NodeId,
    /// Layer name.
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Weight tensor dims.
    pub weight_dims: Vec<usize>,
    /// Output tensor dims for the reference input (batch included), when
    /// known.
    pub output_dims: Option<Vec<usize>>,
}

impl LayerTarget {
    /// Element count relevant for Eq. (1): weight elements for weight
    /// faults, per-image output elements for neuron faults.
    pub fn element_count(&self, target: InjectionTarget) -> usize {
        match target {
            InjectionTarget::Weights => self.weight_dims.iter().product(),
            InjectionTarget::Neurons => self
                .output_dims
                .as_ref()
                .map_or(self.weight_dims[0], |d| d[1..].iter().product()),
        }
    }
}

fn kind_matches(kind: LayerKind, types: &[LayerType]) -> bool {
    types.iter().any(|t| {
        matches!(
            (t, kind),
            (LayerType::Conv2d, LayerKind::Conv2d)
                | (LayerType::Conv3d, LayerKind::Conv3d)
                | (LayerType::Linear, LayerKind::Linear)
        )
    })
}

/// Resolves the scenario's layer filter against one or more networks.
///
/// `input_dims` gives, per network, the reference input shape used to
/// infer output geometries (pass `None` for networks whose input shape is
/// only known at run time, e.g. a second-stage RoI head — neuron faults
/// there fall back to output-channel bounds).
///
/// The scenario's `layer_range` restricts by *position in the combined
/// injectable-layer list*, matching the paper's "limited to specific
/// layer numbers or a range of layer numbers".
///
/// # Errors
///
/// Returns [`CoreError::NoInjectableLayers`] if nothing survives the
/// filter, or shape-inference errors from the networks.
pub fn resolve_targets(
    networks: &[&Network],
    scenario: &Scenario,
    input_dims: &[Option<Vec<usize>>],
) -> Result<Vec<LayerTarget>, CoreError> {
    let mut all = Vec::new();
    for (net_idx, net) in networks.iter().enumerate() {
        let dims = input_dims.get(net_idx).and_then(|d| d.as_deref());
        let layers = net.injectable_layers(None, dims)?;
        for l in layers {
            all.push(LayerTarget {
                net_idx,
                node_id: l.node_id,
                name: l.name,
                kind: l.kind,
                weight_dims: l.weight_shape.dims().to_vec(),
                output_dims: l.output_shape.map(|s| s.dims().to_vec()),
            });
        }
    }
    // Positional filtering happens on the full list so layer indices in
    // fault records stay stable regardless of the type filter.
    let filtered: Vec<LayerTarget> = all
        .into_iter()
        .enumerate()
        .filter(|(pos, t)| {
            let in_range = scenario.layer_range.is_none_or(|(lo, hi)| *pos >= lo && *pos <= hi);
            in_range && kind_matches(t.kind, &scenario.layer_types)
        })
        .map(|(_, t)| t)
        .collect();
    if filtered.is_empty() {
        return Err(CoreError::NoInjectableLayers);
    }
    Ok(filtered)
}

/// Eq. (1): relative size weight per layer,
/// `F_i = prod(d_ij) / sum_i prod(d_ij)`.
pub fn layer_weights(targets: &[LayerTarget], target: InjectionTarget) -> Vec<f64> {
    let counts: Vec<f64> = targets.iter().map(|t| t.element_count(target) as f64).collect();
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / targets.len() as f64; targets.len()];
    }
    counts.into_iter().map(|c| c / total).collect()
}

/// The pre-generated fault matrix: every fault for a whole campaign, in
/// order, plus the generation parameters needed to interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMatrix {
    /// One record per fault (a "column" of the paper's matrix).
    pub records: Vec<FaultRecord>,
    /// Whether these are neuron or weight faults.
    pub target: InjectionTarget,
    /// Simultaneous faults per image used at generation time.
    pub faults_per_image: usize,
}

impl FaultMatrix {
    /// Generates the full fault matrix for a scenario against resolved
    /// layer targets.
    ///
    /// The scenario is first resolved into a [`FaultModel`] — one
    /// [`LayerPlan`] per target — and materialization then follows the
    /// plan; this is where the `layers:` multi-resolution overrides take
    /// effect. Generation is entirely determined by `scenario.seed`, so
    /// equal scenarios over equal models yield bit-identical matrices —
    /// the reusability guarantee that lets "the identical set of faults
    /// be utilized across various experiments" (§IV-B).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoInjectableLayers`] for an empty target
    /// list, or the [`FaultModel::resolve`] validation errors for bad
    /// `layers:` overrides.
    pub fn generate(scenario: &Scenario, targets: &[LayerTarget]) -> Result<FaultMatrix, CoreError> {
        let model = FaultModel::resolve(scenario, targets)?;
        Self::generate_with_model(scenario, targets, &model)
    }

    /// Materializes faults for an already resolved [`FaultModel`].
    ///
    /// With a model whose plans carry the base weights and campaign-wide
    /// mode (no overrides) the RNG draw sequence is identical to the
    /// historical flat loop, keeping legacy artifacts byte-stable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoInjectableLayers`] for an empty target list.
    pub fn generate_with_model(
        scenario: &Scenario,
        targets: &[LayerTarget],
        model: &FaultModel,
    ) -> Result<FaultMatrix, CoreError> {
        if targets.is_empty() {
            return Err(CoreError::NoInjectableLayers);
        }
        let total_elements: usize =
            targets.iter().map(|t| t.element_count(scenario.injection_target)).sum();
        let per_image = scenario.faults_per_image.resolve(total_elements);
        let n = scenario.dataset_size * scenario.num_runs * per_image;
        let mut rng = Rng::from_seed(scenario.seed);
        let records = (0..n).map(|_| draw_fault(scenario, targets, model, &mut rng)).collect();
        Ok(FaultMatrix { records, target: scenario.injection_target, faults_per_image: per_image })
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The consecutive chunk of faults for image-slot `i` (each slot gets
    /// `faults_per_image` columns). Returns an empty slice past the end.
    pub fn faults_for_slot(&self, i: usize) -> &[FaultRecord] {
        let k = self.faults_per_image.max(1);
        let start = (i * k).min(self.records.len());
        let end = ((i + 1) * k).min(self.records.len());
        &self.records[start..end]
    }

    /// Number of complete fault slots.
    pub fn num_slots(&self) -> usize {
        self.records.len().checked_div(self.faults_per_image).unwrap_or(0)
    }

    /// Validates a replayed matrix against the scenario it is about to
    /// drive — the paper's `fault_file` reuse is only meaningful when
    /// the injection target (neurons vs weights) still matches.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptFile`] on a target mismatch.
    pub fn validate_replay(&self, scenario: &Scenario) -> Result<(), CoreError> {
        if self.target != scenario.injection_target {
            return Err(CoreError::CorruptFile {
                kind: "fault",
                reason: format!(
                    "replayed matrix target {:?} disagrees with scenario target {:?}",
                    self.target, scenario.injection_target
                ),
            });
        }
        Ok(())
    }
}

/// Draws one fault record from a resolved [`FaultModel`] over `targets`:
/// a layer from the plans' cumulative weights, then the batch
/// coordinate, the plan's fault value and coordinates within the plan's
/// channel scope. The matrix and the ad-hoc baseline both draw through
/// it, so an RNG seeded with `scenario.seed` yields the matrix's records
/// in order.
#[inline]
pub(crate) fn draw_fault(
    scenario: &Scenario,
    targets: &[LayerTarget],
    model: &FaultModel,
    rng: &mut Rng,
) -> FaultRecord {
    let u: f64 = rng.gen_range(0.0..1.0);
    let mut cdf = 0.0f64;
    let li = model
        .plans()
        .iter()
        .position(|p| {
            cdf += p.weight;
            u < cdf
        })
        .unwrap_or(targets.len() - 1);
    let t = &targets[li];
    let plan = &model.plans()[li];
    let batch = rng.gen_range(0..scenario.batch_size.max(1));
    let value = sample_value(&plan.mode, rng);
    match scenario.injection_target {
        InjectionTarget::Weights => sample_weight_coords(t, plan, li, batch, value, rng),
        InjectionTarget::Neurons => sample_neuron_coords(t, plan, li, batch, value, rng),
    }
}

fn sample_value(mode: &FaultMode, rng: &mut Rng) -> FaultValue {
    match mode {
        FaultMode::BitFlip { bit_range } => {
            FaultValue::BitFlip(rng.gen_range(bit_range.0..=bit_range.1))
        }
        FaultMode::StuckAt { bit_range, stuck_high } => FaultValue::StuckAt {
            pos: rng.gen_range(bit_range.0..=bit_range.1),
            high: *stuck_high,
        },
        FaultMode::RandomValue { min, max } => {
            if min == max {
                FaultValue::Replace(*min)
            } else {
                FaultValue::Replace(rng.gen_range(*min..*max))
            }
        }
        FaultMode::QuantStep { bits, amax, bit_range } => FaultValue::QuantStep {
            bit: rng.gen_range(bit_range.0..=bit_range.1),
            bits: *bits,
            amax: *amax,
        },
    }
}

/// Draws an output-channel coordinate, restricted to the plan's scope
/// when one was set. The unrestricted draw is the historical
/// `gen_range(0..cap)` call, byte-for-byte.
fn sample_channel(cap: usize, plan: &LayerPlan, rng: &mut Rng) -> usize {
    match plan.channel_range {
        Some((lo, hi)) => rng.gen_range(lo..=hi.min(cap.saturating_sub(1))),
        None => rng.gen_range(0..cap),
    }
}

fn sample_weight_coords(
    t: &LayerTarget,
    plan: &LayerPlan,
    layer: usize,
    batch: usize,
    value: FaultValue,
    rng: &mut Rng,
) -> FaultRecord {
    let d = &t.weight_dims;
    match d.len() {
        2 => FaultRecord {
            batch,
            layer,
            channel: sample_channel(d[0], plan, rng),
            channel_in: 0,
            depth: None,
            height: 0,
            width: rng.gen_range(0..d[1]),
            value,
        },
        4 => FaultRecord {
            batch,
            layer,
            channel: sample_channel(d[0], plan, rng),
            channel_in: rng.gen_range(0..d[1]),
            depth: None,
            height: rng.gen_range(0..d[2]),
            width: rng.gen_range(0..d[3]),
            value,
        },
        5 => FaultRecord {
            batch,
            layer,
            channel: sample_channel(d[0], plan, rng),
            channel_in: rng.gen_range(0..d[1]),
            depth: Some(rng.gen_range(0..d[2])),
            height: rng.gen_range(0..d[3]),
            width: rng.gen_range(0..d[4]),
            value,
        },
        _ => unreachable!("injectable layers have rank-2/4/5 weights"),
    }
}

fn sample_neuron_coords(
    t: &LayerTarget,
    plan: &LayerPlan,
    layer: usize,
    batch: usize,
    value: FaultValue,
    rng: &mut Rng,
) -> FaultRecord {
    match &t.output_dims {
        Some(d) => match d.len() {
            2 => FaultRecord {
                batch,
                layer,
                channel: 0,
                channel_in: 0,
                depth: None,
                height: 0,
                width: rng.gen_range(0..d[1]),
                value,
            },
            // Rank-3 token tensors `[batch, token, feature]` (the
            // transformer path): height addresses the token, width the
            // feature; there is no channel coordinate.
            3 => FaultRecord {
                batch,
                layer,
                channel: 0,
                channel_in: 0,
                depth: None,
                height: rng.gen_range(0..d[1]),
                width: rng.gen_range(0..d[2]),
                value,
            },
            4 => FaultRecord {
                batch,
                layer,
                channel: sample_channel(d[1], plan, rng),
                channel_in: 0,
                depth: None,
                height: rng.gen_range(0..d[2]),
                width: rng.gen_range(0..d[3]),
                value,
            },
            5 => FaultRecord {
                batch,
                layer,
                channel: sample_channel(d[1], plan, rng),
                channel_in: 0,
                depth: Some(rng.gen_range(0..d[2])),
                height: rng.gen_range(0..d[3]),
                width: rng.gen_range(0..d[4]),
                value,
            },
            _ => unreachable!("layer outputs have rank 2/3/4/5"),
        },
        // Shape unknown at generation time: bound by output channels;
        // spatial coordinates 0 (the hook validates at run time).
        None => FaultRecord {
            batch,
            layer,
            channel: sample_channel(t.weight_dims[0], plan, rng),
            channel_in: 0,
            depth: None,
            height: 0,
            width: 0,
            value,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_nn::models::{alexnet, ModelConfig};
    use alfi_scenario::FaultCount;

    fn model_cfg() -> ModelConfig {
        ModelConfig { input_hw: 32, width_mult: 0.0625, ..ModelConfig::default() }
    }

    fn targets(scenario: &Scenario) -> Vec<LayerTarget> {
        let net = alexnet(&model_cfg());
        resolve_targets(&[&net], scenario, &[Some(model_cfg().input_dims(scenario.batch_size))])
            .unwrap()
    }

    #[test]
    fn resolve_targets_honours_type_filter_and_range() {
        let mut s = Scenario::default();
        let all = targets(&s);
        assert_eq!(all.len(), 8); // 5 convs + 3 linears

        s.layer_types = vec![LayerType::Conv2d];
        let convs = targets(&s);
        assert_eq!(convs.len(), 5);
        assert!(convs.iter().all(|t| t.kind == LayerKind::Conv2d));

        s.layer_types = vec![LayerType::Conv2d, LayerType::Linear];
        s.layer_range = Some((6, 7));
        let tail = targets(&s);
        assert_eq!(tail.len(), 2);
        assert!(tail.iter().all(|t| t.kind == LayerKind::Linear));
    }

    #[test]
    fn resolve_targets_errors_when_filter_excludes_all() {
        let mut s = Scenario::default();
        s.layer_types = vec![LayerType::Conv3d]; // alexnet has none
        let net = alexnet(&model_cfg());
        let err = resolve_targets(&[&net], &s, &[None]).unwrap_err();
        assert_eq!(err, CoreError::NoInjectableLayers);
    }

    #[test]
    fn layer_weights_implement_eq1() {
        let s = Scenario::default();
        let ts = targets(&s);
        let w = layer_weights(&ts, InjectionTarget::Weights);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // weights proportional to element counts
        let c0 = ts[0].element_count(InjectionTarget::Weights) as f64;
        let c1 = ts[1].element_count(InjectionTarget::Weights) as f64;
        assert!((w[0] / w[1] - c0 / c1).abs() < 1e-9);
    }

    #[test]
    fn matrix_size_is_a_times_b_times_c() {
        let mut s = Scenario::default();
        s.dataset_size = 7;
        s.num_runs = 2;
        s.faults_per_image = FaultCount::Fixed(3);
        let m = FaultMatrix::generate(&s, &targets(&s)).unwrap();
        assert_eq!(m.len(), 42);
        assert_eq!(m.faults_per_image, 3);
        assert_eq!(m.num_slots(), 14);
        assert_eq!(m.faults_for_slot(0).len(), 3);
        assert_eq!(m.faults_for_slot(13).len(), 3);
        assert!(m.faults_for_slot(14).is_empty());
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let mut s = Scenario::default();
        s.dataset_size = 20;
        let a = FaultMatrix::generate(&s, &targets(&s)).unwrap();
        let b = FaultMatrix::generate(&s, &targets(&s)).unwrap();
        assert_eq!(a, b);
        s.seed = 1;
        let c = FaultMatrix::generate(&s, &targets(&s)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn weight_fault_coords_are_within_weight_dims() {
        let mut s = Scenario::default();
        s.injection_target = InjectionTarget::Weights;
        s.dataset_size = 200;
        let ts = targets(&s);
        let m = FaultMatrix::generate(&s, &ts).unwrap();
        for r in &m.records {
            let d = &ts[r.layer].weight_dims;
            assert!(r.channel < d[0]);
            match d.len() {
                2 => assert!(r.width < d[1] && r.height == 0 && r.channel_in == 0),
                4 => {
                    assert!(r.channel_in < d[1] && r.height < d[2] && r.width < d[3]);
                    assert!(r.depth.is_none());
                }
                _ => panic!("unexpected weight rank"),
            }
        }
    }

    #[test]
    fn neuron_fault_coords_are_within_output_dims() {
        let mut s = Scenario::default();
        s.injection_target = InjectionTarget::Neurons;
        s.dataset_size = 200;
        s.batch_size = 4;
        let ts = targets(&s);
        let m = FaultMatrix::generate(&s, &ts).unwrap();
        for r in &m.records {
            assert!(r.batch < 4);
            let d = ts[r.layer].output_dims.as_ref().unwrap();
            match d.len() {
                2 => assert!(r.width < d[1]),
                4 => assert!(r.channel < d[1] && r.height < d[2] && r.width < d[3]),
                _ => panic!("unexpected output rank"),
            }
        }
    }

    #[test]
    fn bit_positions_respect_scenario_range() {
        let mut s = Scenario::default();
        s.fault_mode = FaultMode::exponent_bit_flip();
        s.dataset_size = 300;
        let m = FaultMatrix::generate(&s, &targets(&s)).unwrap();
        for r in &m.records {
            match r.value {
                FaultValue::BitFlip(p) => assert!((23..=30).contains(&p)),
                _ => panic!("expected bit flips"),
            }
        }
    }

    #[test]
    fn weighted_selection_tracks_eq1_frequencies() {
        let mut s = Scenario::default();
        s.injection_target = InjectionTarget::Weights;
        s.dataset_size = 5000;
        s.weighted_layer_selection = true;
        let ts = targets(&s);
        let w = layer_weights(&ts, InjectionTarget::Weights);
        let m = FaultMatrix::generate(&s, &ts).unwrap();
        let mut counts = vec![0usize; ts.len()];
        for r in &m.records {
            counts[r.layer] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / m.len() as f64;
            assert!(
                (freq - w[i]).abs() < 0.02,
                "layer {i}: freq {freq:.4} vs weight {:.4}",
                w[i]
            );
        }
    }

    #[test]
    fn uniform_selection_is_roughly_flat() {
        let mut s = Scenario::default();
        s.weighted_layer_selection = false;
        s.dataset_size = 4000;
        let ts = targets(&s);
        let m = FaultMatrix::generate(&s, &ts).unwrap();
        let mut counts = vec![0usize; ts.len()];
        for r in &m.records {
            counts[r.layer] += 1;
        }
        let expect = m.len() as f64 / ts.len() as f64;
        for &c in &counts {
            assert!((c as f64 - expect).abs() < expect * 0.35, "count {c} vs {expect}");
        }
    }

    #[test]
    fn base_model_reproduces_flat_loop_exactly() {
        // The refactored plan-driven loop must be draw-for-draw
        // identical to the historical flat sampler when no overrides
        // are present.
        let mut s = Scenario::default();
        s.dataset_size = 50;
        let ts = targets(&s);
        let model = FaultModel::resolve(&s, &ts).unwrap();
        assert!(!model.is_multi_resolution());
        let via_model = FaultMatrix::generate_with_model(&s, &ts, &model).unwrap();
        let direct = FaultMatrix::generate(&s, &ts).unwrap();
        assert_eq!(via_model, direct);
    }

    #[test]
    fn channel_scope_restricts_weight_fault_channels() {
        use alfi_scenario::LayerOverride;
        let mut s = Scenario::default();
        s.injection_target = InjectionTarget::Weights;
        s.dataset_size = 400;
        s.layer_overrides = std::collections::BTreeMap::from([(
            "0-7".to_string(),
            LayerOverride { channel_range: Some((0, 0)), ..Default::default() },
        )]);
        let m = FaultMatrix::generate(&s, &targets(&s)).unwrap();
        assert!(m.records.iter().all(|r| r.channel == 0));
    }

    #[test]
    fn per_layer_mode_yields_mixed_fault_values() {
        use alfi_scenario::LayerOverride;
        let mut s = Scenario::default();
        s.injection_target = InjectionTarget::Weights;
        s.dataset_size = 600;
        s.layer_overrides = std::collections::BTreeMap::from([(
            "0".to_string(),
            LayerOverride {
                rate: Some(0.5),
                mode: Some(FaultMode::QuantStep { bits: 8, amax: 2.0, bit_range: (0, 7) }),
                channel_range: None,
            },
        )]);
        let m = FaultMatrix::generate(&s, &targets(&s)).unwrap();
        let mut quant = 0usize;
        let mut flips = 0usize;
        for r in &m.records {
            match r.value {
                FaultValue::QuantStep { bit, bits, amax } => {
                    assert_eq!(r.layer, 0);
                    assert!(bit < 8);
                    assert_eq!((bits, amax), (8, 2.0));
                    quant += 1;
                }
                FaultValue::BitFlip(_) => {
                    assert_ne!(r.layer, 0);
                    flips += 1;
                }
                _ => panic!("unexpected fault value"),
            }
        }
        assert!(quant > 0 && flips > 0, "quant {quant} flips {flips}");
    }

    #[test]
    fn bad_layer_override_surfaces_as_generate_error() {
        use alfi_scenario::LayerOverride;
        let mut s = Scenario::default();
        s.layer_overrides = std::collections::BTreeMap::from([(
            "no.such.layer".to_string(),
            LayerOverride { rate: Some(0.5), ..Default::default() },
        )]);
        assert!(FaultMatrix::generate(&s, &targets(&s)).is_err());
    }

    #[test]
    fn random_value_mode_samples_within_bounds() {
        let mut s = Scenario::default();
        s.fault_mode = FaultMode::RandomValue { min: -2.0, max: 3.0 };
        s.dataset_size = 100;
        let m = FaultMatrix::generate(&s, &targets(&s)).unwrap();
        for r in &m.records {
            match r.value {
                FaultValue::Replace(v) => assert!((-2.0..3.0).contains(&v)),
                _ => panic!("expected replace faults"),
            }
        }
    }
}
