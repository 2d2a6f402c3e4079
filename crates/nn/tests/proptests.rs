//! Property-based tests for network graph and detection-geometry
//! invariants, running on the in-tree `alfi-check` harness.

use alfi_check::{check_with, gen};
use alfi_nn::detection::{match_detections, nms, BBox, Detection};
use alfi_nn::models::{alexnet, ModelConfig};
use alfi_nn::weights::{decode_weights_into, encode_weights};
use alfi_nn::{Clamp, ClampMode, Layer, LayerCtx, NnError};
use alfi_rng::Rng;
use alfi_store::frame;
use alfi_tensor::Tensor;
use std::cell::RefCell;
use std::sync::Arc;

const CASES: usize = 64;

fn arb_bbox(rng: &mut Rng) -> BBox {
    let x: f32 = rng.gen_range(0.0f32..100.0);
    let y: f32 = rng.gen_range(0.0f32..100.0);
    let w: f32 = rng.gen_range(0.1f32..50.0);
    let h: f32 = rng.gen_range(0.1f32..50.0);
    BBox::new(x, y, x + w, y + h)
}

fn arb_detection(rng: &mut Rng) -> Detection {
    let bbox = arb_bbox(rng);
    let score: f32 = rng.gen_range(0.0f32..=1.0);
    let class_id: usize = rng.gen_range(0usize..5);
    Detection { bbox, score, class_id }
}

/// IoU is symmetric, bounded in [0, 1], and 1 only for identical boxes.
#[test]
fn iou_properties() {
    check_with(CASES, "iou_properties", |rng| {
        let a = arb_bbox(rng);
        let b = arb_bbox(rng);
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        assert!((ab - ba).abs() < 1e-6);
        assert!((0.0..=1.0).contains(&ab));
        assert!((a.iou(&a) - 1.0).abs() < 1e-6);
    });
}

/// NMS output is a subset of its input, sorted by descending score,
/// and contains no same-class pair above the IoU threshold.
#[test]
fn nms_invariants() {
    check_with(CASES, "nms_invariants", |rng| {
        let dets = gen::vec_of(rng, 0..25, arb_detection);
        let thr: f32 = rng.gen_range(0.1f32..0.9);
        let kept = nms(dets.clone(), thr);
        assert!(kept.len() <= dets.len());
        for k in &kept {
            assert!(dets.iter().any(|d| d == k));
        }
        for w in kept.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for (i, a) in kept.iter().enumerate() {
            for b in kept.iter().skip(i + 1) {
                if a.class_id == b.class_id {
                    assert!(a.bbox.iou(&b.bbox) <= thr + 1e-6);
                }
            }
        }
    });
}

/// Matching is one-to-one, class-consistent and respects the IoU
/// threshold.
#[test]
fn matching_invariants() {
    check_with(CASES, "matching_invariants", |rng| {
        let a = gen::vec_of(rng, 0..12, arb_detection);
        let b = gen::vec_of(rng, 0..12, arb_detection);
        let thr: f32 = rng.gen_range(0.1f32..0.9);
        let pairs = match_detections(&a, &b, thr);
        let mut used_a = std::collections::HashSet::new();
        let mut used_b = std::collections::HashSet::new();
        for (i, j) in pairs {
            assert!(used_a.insert(i));
            assert!(used_b.insert(j));
            assert_eq!(a[i].class_id, b[j].class_id);
            assert!(a[i].bbox.iou(&b[j].bbox) >= thr - 1e-6);
        }
    });
}

/// Forward passes are deterministic functions of (weights, input).
#[test]
fn forward_is_deterministic() {
    check_with(CASES, "forward_is_deterministic", |rng| {
        let seed = gen::any_u64(rng);
        let cfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed, ..ModelConfig::default() };
        let net = alexnet(&cfg);
        let mut data_rng = Rng::from_seed(seed);
        let x = Tensor::rand_uniform(&mut data_rng, &cfg.input_dims(1), 0.0, 1.0);
        let a = net.forward(&x).unwrap();
        let b = net.forward(&x).unwrap();
        assert_eq!(a.data(), b.data());
    });
}

/// A wide-open guard on any node never changes the output.
#[test]
fn a_wide_open_guard_preserves_output() {
    check_with(CASES, "a_wide_open_guard_preserves_output", |rng| {
        let node_seed = gen::any_u64(rng) as usize;
        let cfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 5, ..ModelConfig::default() };
        let net = alexnet(&cfg);
        let x = Tensor::ones(&cfg.input_dims(1));
        let before = net.forward(&x).unwrap();
        let mut patched = net.clone();
        let target = node_seed % patched.num_nodes();
        let open = Clamp { lo: f32::NEG_INFINITY, hi: f32::INFINITY, mode: ClampMode::Clip };
        patched.set_guard(target, open).unwrap();
        let after = patched.forward(&x).unwrap();
        assert_eq!(before.data(), after.data());
    });
}

/// Hooks observe exactly the value the next layer consumes: doubling
/// a node's output via a hook equals doubling it via an inserted
/// scaling computation.
#[test]
fn hook_mutation_equals_graph_mutation() {
    check_with(CASES, "hook_mutation_equals_graph_mutation", |rng| {
        let scale: f32 = rng.gen_range(0.25f32..4.0);
        let cfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 9, ..ModelConfig::default() };
        let base = alexnet(&cfg);
        let x = Tensor::ones(&cfg.input_dims(1));
        let node = base.node_by_name("features.conv1").unwrap();

        let mut hooked = base.clone();
        hooked
            .register_hook(
                node,
                Arc::new(move |_: &LayerCtx, out: &mut Tensor| out.map_inplace(|v| v * scale)),
            )
            .unwrap();
        let via_hook = hooked.forward(&x).unwrap();

        let mut scaled = base.clone();
        let w = scaled.layer_mut(node).unwrap();
        if let Layer::Conv2d(c) = w {
            c.weight.map_inplace(|v| v * scale);
            if let Some(b) = &mut c.bias {
                b.map_inplace(|v| v * scale);
            }
        }
        let via_weights = scaled.forward(&x).unwrap();
        assert!(via_hook.max_abs_diff(&via_weights).unwrap() < 2e-2 * scale.max(1.0));
    });
}

/// Any truncation of a checkpoint, and any single corrupted byte
/// (header included), is a typed error, never a panic, and leaves the
/// target network's parameters as they were.
#[test]
fn checkpoint_truncation_and_byte_corruption_are_rejected_without_mutation() {
    let cfg = |seed| ModelConfig { input_hw: 16, width_mult: 0.0625, seed, ..ModelConfig::default() };
    let saved = encode_weights(&alexnet(&cfg(1)));
    let target = RefCell::new(alexnet(&cfg(2)));
    let before = encode_weights(&target.borrow());
    let name = "checkpoint_truncation_and_byte_corruption_are_rejected_without_mutation";
    check_with(CASES, name, |rng| {
        let mut bytes = saved.clone();
        if gen::any_bool(rng) {
            bytes.truncate(rng.gen_range(0..bytes.len()));
        } else {
            let idx = rng.gen_range(0..bytes.len());
            bytes[idx] ^= rng.gen_range(1u8..=255);
        }
        let mut net = target.borrow_mut();
        let err = decode_weights_into(&mut net, &bytes).unwrap_err();
        assert!(matches!(err, NnError::InvalidGraph(_)), "{err}");
        assert!(encode_weights(&net) == before, "a failed load changed the network");
    });
}

/// A checkpoint whose body is damaged under a valid frame (one byte
/// changed, checksum recomputed) loads or fails with a typed error,
/// never panics; a failed load leaves the network unchanged.
#[test]
fn checkpoint_body_damage_under_a_valid_frame_never_panics() {
    let cfg = |seed| ModelConfig { input_hw: 16, width_mult: 0.0625, seed, ..ModelConfig::default() };
    let saved = encode_weights(&alexnet(&cfg(1)));
    let body = &saved[24..];
    let target = alexnet(&cfg(2));
    let before = encode_weights(&target);
    check_with(CASES, "checkpoint_body_damage_under_a_valid_frame_never_panics", |rng| {
        // Half the cases hit the first entry's name and dims.
        let reach = if gen::any_bool(rng) { 256 } else { body.len() };
        let mut damaged = body.to_vec();
        damaged[rng.gen_range(0..reach)] ^= rng.gen_range(1u8..=255);
        let mut net = target.clone();
        if decode_weights_into(&mut net, &frame::seal(b"ALFIWGT1", 1, &damaged)).is_err() {
            assert!(encode_weights(&net) == before, "a failed load changed the network");
        }
    });
}
