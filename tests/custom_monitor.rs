//! Integration test: custom monitoring (§V-G — "new signals at
//! intermediate layers can also be efficiently monitored by including
//! their respective monitoring functions").
//!
//! Implements a user-defined activation-magnitude monitor, runs it on
//! every node of a faulty model through `FaultyModel::forward_observed`,
//! and checks that it observes the corruption; attached to the clean
//! model as an ordinary forward hook, it stays quiet.

use alfi::core::{attach_monitor, Ptfiwrap};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::nn::{ForwardHook, LayerCtx};
use alfi::scenario::{FaultMode, InjectionTarget, Scenario};
use alfi::tensor::Tensor;
use std::sync::Mutex;
use std::sync::Arc;

/// Counts, per layer name, how many forward passes produced an
/// activation whose maximum magnitude exceeds a threshold — a cheap
/// user-defined anomaly signal.
#[derive(Debug, Default)]
struct MagnitudeAlarm {
    threshold: f32,
    alarms: Mutex<Vec<String>>,
}

impl MagnitudeAlarm {
    fn check(&self, name: &str, output: &Tensor) {
        let peak = output.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if peak > self.threshold || !peak.is_finite() {
            self.alarms.lock().unwrap().push(name.to_string());
        }
    }
}

impl ForwardHook for MagnitudeAlarm {
    fn on_output(&self, ctx: &LayerCtx, output: &mut Tensor) {
        self.check(&ctx.name, output);
    }
}

#[test]
fn custom_monitor_observes_injected_corruption() {
    let cfg = ModelConfig { input_hw: 16, width_mult: 0.125, seed: 5, ..ModelConfig::default() };
    let model = alexnet(&cfg);
    let input = Tensor::ones(&cfg.input_dims(1));

    // Calibrate the alarm threshold from the clean activation peaks.
    let clean_peak = model
        .forward_all(&input)
        .unwrap()
        .iter()
        .map(|t| t.data().iter().fold(0.0f32, |m, v| m.max(v.abs())))
        .fold(0.0f32, f32::max);
    let threshold = clean_peak * 100.0;

    // Campaign with guaranteed-catastrophic faults: replace a weight by a
    // huge value (bit 30+29-style magnitude) so the alarm must trip.
    let mut s = Scenario::default();
    s.dataset_size = 3;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::RandomValue { min: 1.0e20, max: 1.0e20 };
    s.layer_range = Some((0, 0)); // stem conv: feeds everything downstream
    let mut wrapper = Ptfiwrap::new(&model, s, &cfg.input_dims(1)).unwrap();

    let faulty = wrapper.next_faulty_model().unwrap();
    let alarm = MagnitudeAlarm { threshold, alarms: Mutex::new(Vec::new()) };
    let nodes = faulty.model().nodes();
    faulty.forward_observed(&input, &mut |id, t| alarm.check(&nodes[id].name, t)).unwrap();

    let alarms = alarm.alarms.lock().unwrap().clone();
    assert!(
        !alarms.is_empty(),
        "a 1e20 weight in the stem must trip the magnitude alarm somewhere"
    );
    // the corrupted conv itself (or something downstream of it) fires
    assert!(
        alarms.iter().any(|n| n.starts_with("features.")),
        "alarm should localize into the feature stack: {alarms:?}"
    );

    // Clean model never trips the calibrated alarm.
    let mut clean = model.clone();
    let quiet = Arc::new(MagnitudeAlarm { threshold, alarms: Mutex::new(Vec::new()) });
    attach_monitor(&mut clean, Arc::<MagnitudeAlarm>::clone(&quiet) as _).unwrap();
    clean.forward(&input).unwrap();
    assert!(quiet.alarms.lock().unwrap().is_empty());
}
