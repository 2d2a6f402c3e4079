//! Property-based tests for the fault-injection core invariants,
//! running on the in-tree `alfi-check` harness.

use alfi_check::{assume, check_with, gen};
use alfi_core::baseline::AdHocInjector;
use alfi_core::persist::crc32;
use alfi_core::AppliedFault;
use alfi_core::{
    arm_faults, corrupt_value, decode_fault_matrix, encode_fault_matrix, resolve_targets,
    CoreError, FaultMatrix, FaultModel, FaultRecord, FaultValue, Ptfiwrap, RunTrace, TraceEntry,
};
use alfi_nn::models::{alexnet, c3d, vit_tiny, C3dConfig, ModelConfig};
use alfi_rng::Rng;
use alfi_scenario::{
    FaultCount, FaultDuration, FaultMode, InjectionPolicy, InjectionTarget, LayerOverride,
    LayerType, Scenario,
};
use alfi_store::frame;
use alfi_tensor::bits::FlipDirection;
use std::collections::BTreeMap;

const CASES: usize = 24;

fn model_cfg() -> ModelConfig {
    ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 1, ..ModelConfig::default() }
}

fn arb_fault_value(rng: &mut Rng) -> FaultValue {
    match rng.gen_range(0u8..4) {
        0 => FaultValue::BitFlip(rng.gen_range(0u8..32)),
        1 => FaultValue::StuckAt { pos: rng.gen_range(0u8..32), high: gen::any_bool(rng) },
        2 => {
            let bits: u8 = rng.gen_range(2u8..17);
            FaultValue::QuantStep {
                bit: rng.gen_range(0u8..bits),
                bits,
                amax: rng.gen_range(0.01f32..1000.0),
            }
        }
        _ => FaultValue::Replace(rng.gen_range(-1.0e6f32..1.0e6)),
    }
}

fn arb_record(rng: &mut Rng) -> FaultRecord {
    FaultRecord {
        batch: rng.gen_range(0usize..16),
        layer: rng.gen_range(0usize..64),
        channel: rng.gen_range(0usize..512),
        channel_in: rng.gen_range(0usize..512),
        depth: if gen::any_bool(rng) { Some(rng.gen_range(0usize..16)) } else { None },
        height: rng.gen_range(0usize..64),
        width: rng.gen_range(0usize..64),
        value: arb_fault_value(rng),
    }
}

fn arb_scenario(rng: &mut Rng) -> Scenario {
    Scenario {
        dataset_size: rng.gen_range(1usize..20),
        num_runs: rng.gen_range(1usize..3),
        faults_per_image: FaultCount::Fixed(rng.gen_range(1usize..4)),
        batch_size: rng.gen_range(1usize..4),
        injection_target: if gen::any_bool(rng) {
            InjectionTarget::Neurons
        } else {
            InjectionTarget::Weights
        },
        injection_policy: match rng.gen_range(0usize..3) {
            0 => InjectionPolicy::PerImage,
            1 => InjectionPolicy::PerBatch,
            _ => InjectionPolicy::PerEpoch,
        },
        fault_duration: if gen::any_bool(rng) {
            FaultDuration::Transient
        } else {
            FaultDuration::Permanent
        },
        fault_mode: FaultMode::BitFlip { bit_range: (rng.gen_range(0u8..32), 31) },
        layer_types: Scenario::default().layer_types,
        layer_range: None,
        weighted_layer_selection: gen::any_bool(rng),
        seed: gen::any_u64(rng),
        stop_policy: None,
        artifact_format: None,
        report: None,
        layer_overrides: BTreeMap::new(),
    }
}

/// The fault matrix always has exactly a·b·c records and every record
/// stays within the bounds of its target tensor, for arbitrary
/// scenarios.
#[test]
fn matrix_size_and_bounds_hold_for_random_scenarios() {
    check_with(CASES, "matrix_size_and_bounds_hold_for_random_scenarios", |rng| {
        let s = arb_scenario(rng);
        let model = alexnet(&model_cfg());
        let targets =
            resolve_targets(&[&model], &s, &[Some(model_cfg().input_dims(s.batch_size))]).unwrap();
        let m = FaultMatrix::generate(&s, &targets).unwrap();
        let fpi = match s.faults_per_image {
            FaultCount::Fixed(n) => n,
            _ => unreachable!(),
        };
        assert_eq!(m.len(), s.dataset_size * s.num_runs * fpi);
        for r in &m.records {
            assert!(r.layer < targets.len());
            assert!(r.batch < s.batch_size);
            let t = &targets[r.layer];
            match s.injection_target {
                InjectionTarget::Weights => {
                    let d = &t.weight_dims;
                    assert!(r.channel < d[0]);
                    if d.len() == 4 {
                        assert!(r.channel_in < d[1] && r.height < d[2] && r.width < d[3]);
                    } else {
                        assert!(r.width < d[1]);
                    }
                }
                InjectionTarget::Neurons => {
                    let d = t.output_dims.as_ref().unwrap();
                    match d.len() {
                        2 => assert!(r.width < d[1]),
                        4 => assert!(r.channel < d[1] && r.height < d[2] && r.width < d[3]),
                        _ => panic!("unexpected rank"),
                    }
                }
            }
        }
    });
}

/// Generation is a pure function of (scenario, targets).
#[test]
fn matrix_generation_is_deterministic() {
    check_with(CASES, "matrix_generation_is_deterministic", |rng| {
        let s = arb_scenario(rng);
        let model = alexnet(&model_cfg());
        let targets =
            resolve_targets(&[&model], &s, &[Some(model_cfg().input_dims(s.batch_size))]).unwrap();
        let a = FaultMatrix::generate(&s, &targets).unwrap();
        let b = FaultMatrix::generate(&s, &targets).unwrap();
        assert_eq!(a, b);
    });
}

/// The ad-hoc baseline samples the scenario's own fault distribution: its
/// first `n` draws are the `n` records `FaultMatrix::generate`
/// pre-generates, for weight and neuron faults, Eq. (1) and uniform
/// layer choice, a `layers:` override with a channel scope, batch sizes
/// above 1, and alexnet, `vit_tiny` (rank-3 token outputs) and c3d
/// (rank-5 outputs).
#[test]
fn baseline_draws_are_the_matrix_records() {
    let cnn = model_cfg();
    let video =
        C3dConfig { frames: 4, input_hw: 8, width_mult: 0.125, seed: 3, ..C3dConfig::default() };
    let models = [
        (alexnet(&cnn), cnn.input_dims(1)),
        (vit_tiny(&cnn), cnn.input_dims(1)),
        (c3d(&video), video.input_dims(1)),
    ];
    check_with(CASES, "baseline_draws_are_the_matrix_records", |rng| {
        let mut s = Scenario {
            dataset_size: rng.gen_range(1usize..20),
            num_runs: rng.gen_range(1usize..3),
            faults_per_image: FaultCount::Fixed(rng.gen_range(1usize..4)),
            batch_size: rng.gen_range(1usize..5),
            injection_target: if gen::any_bool(rng) {
                InjectionTarget::Neurons
            } else {
                InjectionTarget::Weights
            },
            fault_mode: FaultMode::BitFlip { bit_range: (rng.gen_range(0u8..32), 31) },
            layer_types: vec![LayerType::Conv2d, LayerType::Conv3d, LayerType::Linear],
            weighted_layer_selection: gen::any_bool(rng),
            seed: gen::any_u64(rng),
            ..Scenario::default()
        };
        if gen::any_bool(rng) {
            // Target 0 is a convolution in all three models.
            let mode = gen::any_bool(rng).then_some(FaultMode::RandomValue { min: -1.0, max: 1.0 });
            let o = LayerOverride { rate: Some(0.5), mode, channel_range: Some((0, 1)) };
            s.layer_overrides = BTreeMap::from([("0".to_string(), o)]);
        }
        for (model, dims) in &models {
            let targets = resolve_targets(&[model], &s, &[Some(dims.clone())]).unwrap();
            let matrix = FaultMatrix::generate(&s, &targets).unwrap();
            let mut baseline = AdHocInjector::new(model, s.clone(), dims).unwrap();
            let drawn: Vec<FaultRecord> =
                matrix.records.iter().map(|_| baseline.sample_fault()).collect();
            assert_eq!(drawn, matrix.records, "{}", model.name());
        }
    });
}

/// Binary encode/decode round-trips arbitrary record sets exactly.
#[test]
fn fault_file_round_trips() {
    check_with(CASES, "fault_file_round_trips", |rng| {
        let records = gen::vec_of(rng, 0..60, arb_record);
        let neurons = gen::any_bool(rng);
        let fpi: usize = rng.gen_range(1usize..5);
        let m = FaultMatrix {
            records,
            target: if neurons { InjectionTarget::Neurons } else { InjectionTarget::Weights },
            faults_per_image: fpi,
        };
        let bytes = encode_fault_matrix(&m);
        assert_eq!(decode_fault_matrix(&bytes).unwrap(), m);
    });
}

/// Any single corrupted byte in the body is caught by the checksum.
#[test]
fn single_byte_corruption_is_always_detected() {
    check_with(CASES, "single_byte_corruption_is_always_detected", |rng| {
        let records = gen::vec_of(rng, 1..20, arb_record);
        let flip_byte = gen::any_u64(rng) as u8;
        let pos_seed = gen::any_u64(rng) as usize;
        assume!(flip_byte != 0);
        let m = FaultMatrix { records, target: InjectionTarget::Weights, faults_per_image: 1 };
        let mut bytes = encode_fault_matrix(&m);
        // corrupt one body byte (skip the 24-byte header so the magic /
        // length checks don't shadow the checksum)
        let body_start = 24;
        let idx = body_start + pos_seed % (bytes.len() - body_start);
        bytes[idx] ^= flip_byte;
        assert!(decode_fault_matrix(&bytes).is_err());
    });
}

fn arb_trace(rng: &mut Rng, len: std::ops::Range<usize>) -> RunTrace {
    let entries: Vec<TraceEntry> = gen::vec_of(rng, len, |rng| TraceEntry {
        image_id: gen::any_u64(rng),
        applied: AppliedFault {
            record: arb_record(rng),
            original: gen::any_f32(rng),
            corrupted: gen::any_f32(rng),
            direction: match rng.gen_range(0u8..3) {
                0 => None,
                1 => Some(FlipDirection::ZeroToOne),
                _ => Some(FlipDirection::OneToZero),
            },
        },
        output_nan_count: gen::any_u64(rng) as u32,
        output_inf_count: gen::any_u64(rng) as u32,
    });
    RunTrace { entries }
}

/// Trace files round-trip arbitrary entries.
#[test]
fn trace_round_trips() {
    check_with(CASES, "trace_round_trips", |rng| {
        let trace = arb_trace(rng, 0..40);
        let back = RunTrace::decode(&trace.encode()).unwrap();
        // NaN-containing floats break PartialEq; compare bitwise.
        assert_eq!(trace.entries.len(), back.entries.len());
        for (a, b) in trace.entries.iter().zip(back.entries.iter()) {
            assert_eq!(a.image_id, b.image_id);
            assert_eq!(a.applied.record, b.applied.record);
            assert_eq!(a.applied.original.to_bits(), b.applied.original.to_bits());
            assert_eq!(a.applied.corrupted.to_bits(), b.applied.corrupted.to_bits());
            assert_eq!(a.applied.direction, b.applied.direction);
        }
    });
}

/// corrupt_value: bit flips differ in exactly one bit; stuck-at is
/// idempotent; replace returns the replacement.
#[test]
fn corrupt_value_properties() {
    check_with(CASES, "corrupt_value_properties", |rng| {
        let v = gen::any_f32(rng);
        let fv = arb_fault_value(rng);
        let (c, dir) = corrupt_value(v, fv);
        match fv {
            FaultValue::BitFlip(_) => {
                assert_eq!((c.to_bits() ^ v.to_bits()).count_ones(), 1);
                assert!(dir.is_some());
            }
            FaultValue::StuckAt { .. } => {
                let (c2, _) = corrupt_value(c, fv);
                assert_eq!(c.to_bits(), c2.to_bits());
                assert!(dir.is_none());
            }
            FaultValue::Replace(r) => {
                assert_eq!(c.to_bits(), r.to_bits());
            }
            FaultValue::QuantStep { bits, amax, .. } => {
                // The perturbed value stays inside the (slightly
                // widened) quantization range and carries a direction.
                assert!(c.is_finite());
                let qmax = ((1i32 << (bits.clamp(2, 31) - 1)) - 1) as f32;
                let step = amax / qmax;
                assert!(c.abs() <= amax + qmax * step, "{c} vs amax {amax}");
                assert!(dir.is_some());
            }
        }
    });
}

/// Per-layer rate maps always renormalize to a unit simplex: random
/// subsets of layers overridden with random rates in [0, 1] yield
/// plan weights that sum to 1, are non-negative, and reproduce the
/// requested rates (directly when the overridden mass stays below 1,
/// proportionally once it saturates).
#[test]
fn rate_maps_renormalize_deterministically() {
    check_with(CASES, "rate_maps_renormalize_deterministically", |rng| {
        let mut s = arb_scenario(rng);
        let model = alexnet(&model_cfg());
        let targets =
            resolve_targets(&[&model], &s, &[Some(model_cfg().input_dims(s.batch_size))]).unwrap();
        let n = targets.len();
        let k: usize = rng.gen_range(1..=n);
        let mut rates: BTreeMap<usize, f64> = BTreeMap::new();
        while rates.len() < k {
            rates.insert(rng.gen_range(0..n), rng.gen_range(0.001f64..1.0));
        }
        s.layer_overrides = rates
            .iter()
            .map(|(&i, &r)| {
                (i.to_string(), LayerOverride { rate: Some(r), ..Default::default() })
            })
            .collect();
        let m = FaultModel::resolve(&s, &targets).unwrap();
        assert!(m.is_multi_resolution());
        let w = m.weights();
        assert!(w.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        let overridden_sum: f64 = rates.values().sum();
        for (&i, &r) in &rates {
            let expect = if k == n || overridden_sum >= 1.0 { r / overridden_sum } else { r };
            assert!((w[i] - expect).abs() < 1e-9, "layer {i}: {} vs {expect}", w[i]);
        }
        // Resolution is a pure function of (scenario, targets).
        assert_eq!(FaultModel::resolve(&s, &targets).unwrap(), m);
    });
}

/// Unknown layer-name patterns are always rejected, regardless of the
/// other overrides present.
#[test]
fn rate_maps_reject_unknown_layer_names() {
    check_with(CASES, "rate_maps_reject_unknown_layer_names", |rng| {
        let mut s = arb_scenario(rng);
        let model = alexnet(&model_cfg());
        let targets =
            resolve_targets(&[&model], &s, &[Some(model_cfg().input_dims(s.batch_size))]).unwrap();
        let mut overrides = BTreeMap::from([(
            format!("ghost.{}", rng.gen_range(0u64..1000)),
            LayerOverride { rate: Some(rng.gen_range(0.01f64..1.0)), ..Default::default() },
        )]);
        if gen::any_bool(rng) {
            overrides.insert(
                rng.gen_range(0..targets.len()).to_string(),
                LayerOverride { rate: Some(0.25), ..Default::default() },
            );
        }
        s.layer_overrides = overrides;
        assert!(FaultModel::resolve(&s, &targets).is_err());
    });
}

/// Arm + disarm of arbitrary weight fault sets restores the model
/// bit-exactly, even with duplicate/overlapping fault locations.
#[test]
fn arm_disarm_restores_weights() {
    check_with(CASES, "arm_disarm_restores_weights", |rng| {
        let seed = gen::any_u64(rng);
        let k: usize = rng.gen_range(1usize..12);
        let mut model = alexnet(&model_cfg());
        let before: Vec<u32> = model
            .nodes()
            .iter()
            .filter_map(|n| n.layer.weight())
            .flat_map(|w| w.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            .collect();
        let mut s = Scenario::default();
        s.dataset_size = 1;
        s.faults_per_image = FaultCount::Fixed(k);
        s.injection_target = InjectionTarget::Weights;
        s.seed = seed;
        let targets =
            resolve_targets(&[&model], &s, &[Some(model_cfg().input_dims(1))]).unwrap();
        let matrix = FaultMatrix::generate(&s, &targets).unwrap();
        let armed = {
            let mut nets = [&mut model];
            arm_faults(&mut nets, &targets, &matrix.records, InjectionTarget::Weights).unwrap()
        };
        {
            let mut nets = [&mut model];
            armed.disarm(&mut nets);
        }
        let after: Vec<u32> = model
            .nodes()
            .iter()
            .filter_map(|n| n.layer.weight())
            .flat_map(|w| w.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            .collect();
        assert_eq!(before, after);
    });
}

/// The fimodel iterator always yields exactly `num_slots` models.
#[test]
fn iterator_yields_num_slots() {
    check_with(CASES, "iterator_yields_num_slots", |rng| {
        let s = arb_scenario(rng);
        let model = alexnet(&model_cfg());
        let mut wrapper = Ptfiwrap::new(&model, s, &model_cfg().input_dims(1)).unwrap();
        let slots = wrapper.fault_matrix().num_slots();
        assert_eq!(wrapper.fimodel_iter().count(), slots);
    });
}

/// Any truncation of a trace file, and any single corrupted byte
/// (header included), is a typed `trace` error, never a panic.
#[test]
fn trace_truncation_and_byte_corruption_are_always_detected() {
    check_with(CASES, "trace_truncation_and_byte_corruption_are_always_detected", |rng| {
        let mut bytes = arb_trace(rng, 0..20).encode();
        if gen::any_bool(rng) {
            bytes.truncate(rng.gen_range(0..bytes.len()));
        } else {
            let idx = rng.gen_range(0..bytes.len());
            bytes[idx] ^= rng.gen_range(1u8..=255);
        }
        let err = RunTrace::decode(&bytes).unwrap_err();
        assert!(matches!(err, CoreError::CorruptFile { kind: "trace", .. }), "{err}");
    });
}

/// A fault matrix or trace whose body is damaged under a valid frame
/// (one byte changed, checksum recomputed) decodes or fails with a
/// typed error of its kind, never panics.
#[test]
fn body_damage_under_a_valid_frame_never_panics() {
    check_with(CASES, "body_damage_under_a_valid_frame_never_panics", |rng| {
        let matrix = FaultMatrix {
            records: gen::vec_of(rng, 0..20, arb_record),
            target: InjectionTarget::Weights,
            faults_per_image: 1,
        };
        let files = [encode_fault_matrix(&matrix), arb_trace(rng, 0..20).encode()];
        for (sealed, kind) in files.iter().zip(["fault", "trace"]) {
            let mut body = sealed[24..].to_vec();
            let idx = rng.gen_range(0..body.len());
            body[idx] ^= rng.gen_range(1u8..=255);
            let magic: &[u8; 8] = sealed[..8].try_into().unwrap();
            let damaged = frame::seal(magic, 1, &body);
            let err = match kind {
                "fault" => decode_fault_matrix(&damaged).err(),
                _ => RunTrace::decode(&damaged).err(),
            };
            if let Some(err) = err {
                assert!(matches!(err, CoreError::CorruptFile { kind: k, .. } if k == kind), "{err}");
            }
        }
    });
}

/// CRC32 differs for any single-bit difference (on small inputs).
#[test]
fn crc32_detects_single_bit_flips() {
    check_with(CASES, "crc32_detects_single_bit_flips", |rng| {
        let data = gen::vec_of(rng, 1..64, |rng| gen::any_u64(rng) as u8);
        let byte: usize = rng.gen_range(0usize..64);
        let bit: u8 = rng.gen_range(0u8..8);
        let mut mutated = data.clone();
        let idx = byte % mutated.len();
        mutated[idx] ^= 1 << bit;
        assert_ne!(crc32(&data), crc32(&mutated));
    });
}

/// Properties of the interval math and the SDC/DUE/masked rule, at the
/// case count they have always run with.
mod stats {
    use alfi_check::{check_with, gen};
    use alfi_core::campaign::classify_top1;
    use alfi_core::stats::Rate;
    use alfi_rng::Rng;
    use alfi_trace::EffectClass;

    const CASES: usize = 96;

    fn arb_topk(rng: &mut Rng) -> Vec<(usize, f32)> {
        gen::vec_of(rng, 1..6, |rng| (rng.gen_range(0usize..20), rng.gen_range(0.0f32..=1.0)))
    }

    /// Wilson interval always brackets the point estimate and stays in
    /// [0, 1]; the interval never widens with more samples at the same
    /// ratio.
    #[test]
    fn wilson_interval_invariants() {
        check_with(CASES, "wilson_interval_invariants", |rng| {
            let hits: usize = rng.gen_range(0usize..500);
            let extra: usize = rng.gen_range(0usize..500);
            let total = hits + extra;
            let r = Rate::from_counts(hits, total);
            assert!(r.ci_low >= 0.0 && r.ci_high <= 1.0);
            if total > 0 {
                assert!(r.ci_low <= r.value + 1e-12);
                assert!(r.value <= r.ci_high + 1e-12);
                let r10 = Rate::from_counts(hits * 10, total * 10);
                assert!(
                    r10.ci_high - r10.ci_low <= r.ci_high - r.ci_low + 1e-12,
                    "interval must shrink with 10x samples"
                );
            }
        });
    }

    /// Both interval families produce ordered bounds inside [0, 1] that
    /// bracket the point estimate, for arbitrary (hits, total, confidence)
    /// triples including the hits > total corruption case.
    #[test]
    fn interval_bounds_ordered_and_contain_estimate() {
        use alfi_core::stats::{clopper_pearson_interval, wilson_interval, z_for_confidence};
        check_with(CASES, "interval_bounds_ordered_and_contain_estimate", |rng| {
            let total: usize = rng.gen_range(0usize..400);
            let hits: usize = rng.gen_range(0usize..500);
            let confidence: f64 = rng.gen_range(0.5f64..0.999);
            let p = if total == 0 { 0.0 } else { hits.min(total) as f64 / total as f64 };
            for ci in [
                wilson_interval(hits, total, z_for_confidence(confidence)),
                clopper_pearson_interval(hits, total, confidence),
            ] {
                assert!(ci.low >= 0.0 && ci.high <= 1.0, "bounds in [0,1]: {ci:?}");
                assert!(ci.low <= ci.high, "bounds ordered: {ci:?}");
                if total > 0 {
                    assert!(ci.low <= p + 1e-12 && p <= ci.high + 1e-12, "{ci:?} brackets {p}");
                }
            }
        });
    }

    /// At a fixed ratio, both interval families shrink (weakly) as the
    /// sample count grows.
    #[test]
    fn interval_half_width_shrinks_with_samples() {
        use alfi_core::stats::{clopper_pearson_interval, wilson_interval, z_for_confidence};
        check_with(CASES, "interval_half_width_shrinks_with_samples", |rng| {
            let hits: usize = rng.gen_range(0usize..100);
            let extra: usize = rng.gen_range(1usize..100);
            let total = hits + extra;
            let k: usize = rng.gen_range(2usize..12);
            let confidence: f64 = rng.gen_range(0.5f64..0.999);
            let z = z_for_confidence(confidence);
            let w = wilson_interval(hits, total, z);
            let wk = wilson_interval(hits * k, total * k, z);
            assert!(wk.half_width() <= w.half_width() + 1e-12, "wilson shrinks with {k}x samples");
            let c = clopper_pearson_interval(hits, total, confidence);
            let ck = clopper_pearson_interval(hits * k, total * k, confidence);
            assert!(ck.half_width() <= c.half_width() + 1e-9, "cp shrinks with {k}x samples");
        });
    }

    /// Clopper-Pearson's defining guarantee, which Wilson only
    /// approximates: its *exact coverage probability* — the chance over
    /// binomial draws that the interval contains the true rate — is at
    /// least the nominal confidence, for every (n, p, confidence). This is
    /// the sense in which CP "covers" Wilson; pointwise containment of one
    /// interval by the other is false in general (either can be tighter on
    /// one side at extreme rates), so that is deliberately not asserted.
    #[test]
    fn clopper_pearson_coverage_is_conservative() {
        use alfi_core::stats::clopper_pearson_interval;
        check_with(CASES, "clopper_pearson_coverage_is_conservative", |rng| {
            let n: usize = rng.gen_range(2usize..60);
            let p: f64 = rng.gen_range(0.01f64..0.99);
            let confidence: f64 = rng.gen_range(0.5f64..0.99);
            let mut ln_fact = vec![0.0f64; n + 1];
            for i in 1..=n {
                ln_fact[i] = ln_fact[i - 1] + (i as f64).ln();
            }
            let mut coverage = 0.0;
            for h in 0..=n {
                let ci = clopper_pearson_interval(h, n, confidence);
                if ci.low <= p && p <= ci.high {
                    let ln_pmf = ln_fact[n] - ln_fact[h] - ln_fact[n - h]
                        + h as f64 * p.ln()
                        + (n - h) as f64 * (1.0 - p).ln();
                    coverage += ln_pmf.exp();
                }
            }
            assert!(
                coverage >= confidence - 1e-9,
                "CP coverage {coverage} < nominal {confidence} at n={n}, p={p}"
            );
        });
    }

    /// Outcome classification is exhaustive and consistent: an
    /// unchanged top-1 with a finite probability is masked, any NaN/Inf
    /// count or non-finite top-1 probability is DUE, and a changed
    /// top-1 is SDC.
    #[test]
    fn outcome_classification_invariants() {
        check_with(CASES, "outcome_classification_invariants", |rng| {
            let orig = arb_topk(rng);
            let top1 = orig.first().map(|&(c, p)| (c as u64, p));
            let class = top1.map(|(c, _)| c);
            let nonfinite: u64 = if gen::any_bool(rng) { rng.gen_range(1u64..100) } else { 0 };
            assert_eq!(classify_top1(class, top1, 0), EffectClass::Masked);
            let flagged = classify_top1(class, top1, nonfinite);
            assert_eq!(flagged, if nonfinite > 0 { EffectClass::Due } else { EffectClass::Masked });
            let (c, _) = top1.unwrap();
            assert_eq!(classify_top1(class, Some((c, f32::NAN)), 0), EffectClass::Due);
            assert_eq!(classify_top1(class, Some((c, f32::INFINITY)), 0), EffectClass::Due);
            let changed = classify_top1(class, Some((c + 1, 0.5)), nonfinite);
            assert_eq!(changed, if nonfinite > 0 { EffectClass::Due } else { EffectClass::Sdc });
        });
    }
}
