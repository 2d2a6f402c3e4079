//! PyTorchFI-style ad-hoc fault injection — the baseline ALFI's
//! efficiency claims are measured against.
//!
//! Plain PyTorchFI samples fault locations on the fly, per call, with no
//! pre-generated reusable fault matrix, no persistence and no applied-
//! fault logging. This module reimplements that workflow so the
//! `efficiency_alfi_vs_baseline` benchmark can compare:
//!
//! * fault preparation cost (ALFI pays once up front, the baseline pays
//!   per inference),
//! * replayability (the baseline cannot replay an identical campaign
//!   without re-seeding and re-running everything in the same order),
//! * logging (the baseline reports nothing about what it hit).

use crate::error::CoreError;
use crate::fault::FaultRecord;
use crate::fault_model::FaultModel;
use crate::injector::arm_faults;
use crate::matrix::{draw_fault, LayerTarget};
use alfi_nn::{ForwardHook, LayerCtx, Network};
use alfi_rng::Rng;
use alfi_scenario::Scenario;
use alfi_tensor::Tensor;
use std::sync::Mutex;

/// Ad-hoc injector: every call samples fresh fault locations directly
/// against the model, applies them for a single forward pass, and
/// forgets them.
///
/// It draws from the scenario's own fault distribution through the
/// matrix's sampler (Eq. 1 or uniform layer choice, `layers:`
/// overrides, batch and coordinates), so its first `n` draws are the
/// first `n` records [`FaultMatrix::generate`](crate::FaultMatrix::generate)
/// pre-generates for the same scenario. It arms them the way PyTorchFI
/// does, on a corrupted copy of the model ([`arm_faults`]).
#[derive(Debug)]
pub struct AdHocInjector {
    targets: Vec<LayerTarget>,
    scenario: Scenario,
    model: FaultModel,
    rng: Rng,
}

impl AdHocInjector {
    /// Creates an injector for a model. Unlike [`crate::Ptfiwrap`], no
    /// fault matrix is generated.
    ///
    /// # Errors
    ///
    /// Returns layer-resolution errors and the [`FaultModel::resolve`]
    /// errors for bad `layers:` overrides.
    pub fn new(model: &Network, scenario: Scenario, input_dims: &[usize]) -> Result<Self, CoreError> {
        let targets =
            crate::matrix::resolve_targets(&[model], &scenario, &[Some(input_dims.to_vec())])?;
        let model = FaultModel::resolve(&scenario, &targets)?;
        let rng = Rng::from_seed(scenario.seed);
        Ok(AdHocInjector { targets, scenario, model, rng })
    }

    /// Samples the next fault on the fly.
    pub fn sample_fault(&mut self) -> FaultRecord {
        draw_fault(&self.scenario, &self.targets, &self.model, &mut self.rng)
    }

    /// Runs one fault-injected inference: samples `k` fresh faults, arms
    /// them on a clone of `model` and forwards it. Nothing is logged or
    /// persisted.
    ///
    /// # Errors
    ///
    /// Propagates [`arm_faults`] and network errors.
    pub fn run_once(&mut self, model: &Network, input: &Tensor, k: usize) -> Result<Tensor, CoreError> {
        let faults: Vec<FaultRecord> = (0..k).map(|_| self.sample_fault()).collect();
        let mut net = model.clone();
        arm_faults(&mut [&mut net], &self.targets, &faults, self.scenario.injection_target)?;
        Ok(net.forward(input)?)
    }
}

/// A trivially countable hook used by overhead benchmarks: does nothing
/// but bump a counter, measuring pure hook-dispatch cost.
#[derive(Debug, Default)]
pub struct CountingHook {
    count: Mutex<u64>,
}

impl CountingHook {
    /// Creates a zeroed counter hook.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of invocations so far.
    pub fn count(&self) -> u64 {
        *self.count.lock().unwrap()
    }
}

impl ForwardHook for CountingHook {
    fn on_output(&self, _ctx: &LayerCtx, _output: &mut Tensor) {
        *self.count.lock().unwrap() += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_nn::models::{alexnet, ModelConfig};
    use alfi_scenario::{FaultMode, InjectionTarget};

    fn model_cfg() -> ModelConfig {
        ModelConfig { input_hw: 32, width_mult: 0.0625, ..ModelConfig::default() }
    }

    #[test]
    fn adhoc_runs_and_leaves_model_untouched() {
        let model = alexnet(&model_cfg());
        let mut s = Scenario::default();
        s.injection_target = InjectionTarget::Weights;
        let x = Tensor::ones(&model_cfg().input_dims(1));
        let clean = model.forward(&x).unwrap();
        let mut inj = AdHocInjector::new(&model, s, &model_cfg().input_dims(1)).unwrap();
        let out = inj.run_once(&model, &x, 3).unwrap();
        assert_eq!(out.dims(), clean.dims());
        assert_eq!(model.forward(&x).unwrap().data(), clean.data());
    }

    #[test]
    fn adhoc_neuron_mode_also_runs() {
        let model = alexnet(&model_cfg());
        let mut s = Scenario::default();
        s.injection_target = InjectionTarget::Neurons;
        s.fault_mode = FaultMode::RandomValue { min: 500.0, max: 500.1 };
        let x = Tensor::ones(&model_cfg().input_dims(1));
        let mut inj = AdHocInjector::new(&model, s, &model_cfg().input_dims(1)).unwrap();
        let out = inj.run_once(&model, &x, 2).unwrap();
        assert_eq!(out.dims()[0], 1);
    }

    #[test]
    fn adhoc_successive_calls_sample_different_faults() {
        let model = alexnet(&model_cfg());
        let s = Scenario::default();
        let mut inj = AdHocInjector::new(&model, s, &model_cfg().input_dims(1)).unwrap();
        let a = inj.sample_fault();
        let b = inj.sample_fault();
        assert_ne!(a, b);
    }

    #[test]
    fn counting_hook_counts() {
        let h = CountingHook::new();
        assert_eq!(h.count(), 0);
        let ctx = LayerCtx { node_id: 0, name: "x".into(), kind: alfi_nn::LayerKind::Other };
        let mut t = Tensor::zeros(&[1]);
        h.on_output(&ctx, &mut t);
        h.on_output(&ctx, &mut t);
        assert_eq!(h.count(), 2);
    }
}
