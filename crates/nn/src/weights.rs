//! Weight persistence: save and load a network's parameters.
//!
//! Enables the paper's workflow split — train (or otherwise obtain) a
//! model once, persist its parameters, and reload them for any number of
//! fault-injection campaigns. A checkpoint is a sealed frame
//! ([`alfi_store::frame`]: magic, version, body length, CRC32) like the
//! fault-matrix and trace files, and loading validates that the target
//! network's layer names and shapes match before touching any
//! parameter, so a checkpoint can never be silently loaded into the
//! wrong architecture.
//!
//! Saved per injectable/parameterized layer: node name, weight tensor,
//! optional bias, plus every `BatchNorm2d`'s affine+statistics tensors.

use crate::error::NnError;
use crate::graph::Network;
use crate::layer::Layer;
use alfi_store::{frame, Cur, StoreError};
use alfi_tensor::Tensor;
use std::path::Path;

const MAGIC: &[u8; 8] = b"ALFIWGT1";
const VERSION: u32 = 1;

/// Appends rank (u32) · dims (u64 each) · elements (f32 each).
fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend_from_slice(&(t.rank() as u32).to_le_bytes());
    for &d in t.dims() {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(cur: &mut Cur<'_>) -> Result<String, StoreError> {
    let len = cur.get_u32_le()? as usize;
    String::from_utf8(cur.take(len)?.to_vec())
        .map_err(|_| StoreError::corrupt("invalid utf-8 layer name"))
}

fn get_tensor(cur: &mut Cur<'_>) -> Result<Tensor, StoreError> {
    let rank = cur.get_u32_le()? as usize;
    if rank > 8 {
        return Err(StoreError::corrupt(format!("implausible tensor rank {rank}")));
    }
    let dims: Vec<usize> =
        (0..rank).map(|_| cur.get_u64_le().map(|d| d as usize)).collect::<Result<_, _>>()?;
    let n = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .filter(|&n| n <= 1 << 28)
        .ok_or_else(|| StoreError::corrupt("implausible tensor size"))?;
    let mut data = Vec::with_capacity(n.min(cur.remaining() / 4));
    for _ in 0..n {
        data.push(cur.get_f32_le()?);
    }
    Tensor::from_vec(data, &dims).map_err(|e| StoreError::corrupt(e.to_string()))
}

/// The parameter tensors of one node in a checkpoint.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    tensors: Vec<Tensor>,
}

fn node_tensors(layer: &Layer) -> Option<Vec<Tensor>> {
    match layer {
        Layer::Conv2d(c) => {
            let mut v = vec![c.weight.clone()];
            v.extend(c.bias.clone());
            Some(v)
        }
        Layer::Conv3d(c) => {
            let mut v = vec![c.weight.clone()];
            v.extend(c.bias.clone());
            Some(v)
        }
        Layer::Linear(l) => {
            let mut v = vec![l.weight.clone()];
            v.extend(l.bias.clone());
            Some(v)
        }
        Layer::BatchNorm2d(bn) => Some(vec![
            bn.gamma.clone(),
            bn.beta.clone(),
            bn.running_mean.clone(),
            bn.running_var.clone(),
        ]),
        _ => None,
    }
}

fn apply_tensors(layer: &mut Layer, tensors: &[Tensor], name: &str) -> Result<(), NnError> {
    let mismatch = |why: &str| NnError::InvalidGraph(format!("checkpoint mismatch at `{name}`: {why}"));
    match layer {
        Layer::Conv2d(c) => {
            let expect = 1 + usize::from(c.bias.is_some());
            if tensors.len() != expect {
                return Err(mismatch("tensor count"));
            }
            if tensors[0].dims() != c.weight.dims() {
                return Err(mismatch("weight shape"));
            }
            c.weight = tensors[0].clone();
            if let Some(b) = &mut c.bias {
                if tensors[1].dims() != b.dims() {
                    return Err(mismatch("bias shape"));
                }
                *b = tensors[1].clone();
            }
        }
        Layer::Conv3d(c) => {
            let expect = 1 + usize::from(c.bias.is_some());
            if tensors.len() != expect || tensors[0].dims() != c.weight.dims() {
                return Err(mismatch("weight shape"));
            }
            c.weight = tensors[0].clone();
            if let Some(b) = &mut c.bias {
                if tensors[1].dims() != b.dims() {
                    return Err(mismatch("bias shape"));
                }
                *b = tensors[1].clone();
            }
        }
        Layer::Linear(l) => {
            let expect = 1 + usize::from(l.bias.is_some());
            if tensors.len() != expect || tensors[0].dims() != l.weight.dims() {
                return Err(mismatch("weight shape"));
            }
            l.weight = tensors[0].clone();
            if let Some(b) = &mut l.bias {
                if tensors[1].dims() != b.dims() {
                    return Err(mismatch("bias shape"));
                }
                *b = tensors[1].clone();
            }
        }
        Layer::BatchNorm2d(bn) => {
            let own = [&bn.gamma, &bn.beta, &bn.running_mean, &bn.running_var];
            if tensors.len() != 4 || tensors.iter().zip(own).any(|(t, o)| t.dims() != o.dims()) {
                return Err(mismatch("batchnorm shape"));
            }
            bn.gamma = tensors[0].clone();
            bn.beta = tensors[1].clone();
            bn.running_mean = tensors[2].clone();
            bn.running_var = tensors[3].clone();
        }
        _ => return Err(mismatch("layer has no parameters")),
    }
    Ok(())
}

/// Serializes all parameters of a network to the checkpoint wire
/// format: a sealed frame ([`alfi_store::frame`]) around the model
/// name · entry count (u32) and, per parameterized node, its name ·
/// tensor count (u32) · tensors. Strings are a u32 length and UTF-8.
pub fn encode_weights(net: &Network) -> Vec<u8> {
    let entries: Vec<Entry> = net
        .nodes()
        .iter()
        .filter_map(|n| {
            node_tensors(&n.layer).map(|tensors| Entry { name: n.name.clone(), tensors })
        })
        .collect();
    let mut body = Vec::new();
    put_str(&mut body, net.name());
    body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in &entries {
        put_str(&mut body, &e.name);
        body.extend_from_slice(&(e.tensors.len() as u32).to_le_bytes());
        for t in &e.tensors {
            put_tensor(&mut body, t);
        }
    }
    frame::seal(MAGIC, VERSION, &body)
}

fn read_entries(data: &[u8]) -> Result<Vec<Entry>, StoreError> {
    let mut cur = Cur::new(frame::open(data, MAGIC, VERSION)?);
    let _model_name = get_str(&mut cur)?;
    let n_entries = cur.get_u32_le()? as usize;
    let mut entries = Vec::with_capacity(n_entries.min(1 << 16));
    for _ in 0..n_entries {
        let name = get_str(&mut cur)?;
        let n_tensors = cur.get_u32_le()? as usize;
        if n_tensors > 8 {
            return Err(StoreError::corrupt("implausible tensor count"));
        }
        let tensors = (0..n_tensors).map(|_| get_tensor(&mut cur)).collect::<Result<_, _>>()?;
        entries.push(Entry { name, tensors });
    }
    cur.done("weight file")?;
    Ok(entries)
}

/// Loads checkpoint bytes into a network whose architecture must match
/// (same parameterized node names, in order, same tensor shapes).
///
/// # Errors
///
/// Returns [`NnError::InvalidGraph`] for corrupt files or any
/// architecture mismatch. On error the network is left unmodified.
pub fn decode_weights_into(net: &mut Network, data: &[u8]) -> Result<(), NnError> {
    let entries = read_entries(data)
        .map_err(|e| NnError::InvalidGraph(format!("corrupt weight file: {}", e.reason())))?;

    // Validate the full mapping before mutating anything.
    let param_nodes: Vec<usize> = net
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| node_tensors(&n.layer).is_some())
        .map(|(id, _)| id)
        .collect();
    if param_nodes.len() != entries.len() {
        return Err(NnError::InvalidGraph(format!(
            "checkpoint has {} parameterized layers, model has {}",
            entries.len(),
            param_nodes.len()
        )));
    }
    for (&id, e) in param_nodes.iter().zip(entries.iter()) {
        if net.nodes()[id].name != e.name {
            return Err(NnError::InvalidGraph(format!(
                "checkpoint layer `{}` does not match model layer `{}`",
                e.name,
                net.nodes()[id].name
            )));
        }
        // dry-run shape validation on a clone of the layer
        let mut probe = net.nodes()[id].layer.clone();
        apply_tensors(&mut probe, &e.tensors, &e.name)?;
    }
    for (&id, e) in param_nodes.iter().zip(entries.iter()) {
        let layer = net.layer_mut(id)?;
        apply_tensors(layer, &e.tensors, &e.name)?;
    }
    Ok(())
}

/// Saves a network's parameters to a file.
///
/// # Errors
///
/// Returns [`NnError::InvalidGraph`] wrapping the OS error message on
/// I/O failure.
pub fn save_weights(net: &Network, path: impl AsRef<Path>) -> Result<(), NnError> {
    std::fs::write(path.as_ref(), encode_weights(net))
        .map_err(|e| NnError::InvalidGraph(format!("cannot write weight file: {e}")))
}

/// Loads parameters from a file into a matching network.
///
/// # Errors
///
/// Returns [`NnError::InvalidGraph`] for I/O failures, corrupt files or
/// architecture mismatches.
pub fn load_weights(net: &mut Network, path: impl AsRef<Path>) -> Result<(), NnError> {
    let data = std::fs::read(path.as_ref())
        .map_err(|e| NnError::InvalidGraph(format!("cannot read weight file: {e}")))?;
    decode_weights_into(net, &data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::BatchNorm2d;
    use crate::models::{alexnet, resnet50, ModelConfig};

    fn cfg(seed: u64) -> ModelConfig {
        ModelConfig { input_hw: 16, width_mult: 0.0625, seed, ..ModelConfig::default() }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let source = alexnet(&cfg(1));
        let mut target = alexnet(&cfg(2)); // different weights, same arch
        let x = Tensor::ones(&cfg(1).input_dims(1));
        assert_ne!(source.forward(&x).unwrap().data(), target.forward(&x).unwrap().data());

        let bytes = encode_weights(&source);
        decode_weights_into(&mut target, &bytes).unwrap();
        let a = source.forward(&x).unwrap();
        let b = target.forward(&x).unwrap();
        let ab: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb);
    }

    #[test]
    fn checkpoint_includes_batchnorm_state() {
        let mut source = resnet50(&cfg(3));
        // poke a batchnorm running stat so the checkpoint must carry it
        let bn_id = source.node_by_name("stem.bn").unwrap();
        if let Layer::BatchNorm2d(bn) = source.layer_mut(bn_id).unwrap() {
            bn.running_mean.set(&[0], 0.5);
        }
        let mut target = resnet50(&cfg(3));
        decode_weights_into(&mut target, &encode_weights(&source)).unwrap();
        if let Layer::BatchNorm2d(bn) = target.layer(bn_id).unwrap() {
            assert_eq!(bn.running_mean.get(&[0]), 0.5);
        } else {
            panic!("expected batchnorm");
        }
    }

    #[test]
    fn misshaped_batchnorm_tensors_are_rejected_without_mutation() {
        let bn_id = resnet50(&cfg(3)).node_by_name("stem.bn").unwrap();
        let misshape: [fn(&mut BatchNorm2d) -> &mut Tensor; 3] =
            [|bn| &mut bn.beta, |bn| &mut bn.running_mean, |bn| &mut bn.running_var];
        for (k, field) in misshape.into_iter().enumerate() {
            let mut source = resnet50(&cfg(3));
            if let Layer::BatchNorm2d(bn) = source.layer_mut(bn_id).unwrap() {
                let t = field(bn);
                *t = Tensor::ones(&[t.num_elements() + 5]);
            } else {
                panic!("expected batchnorm");
            }
            let mut target = resnet50(&cfg(4));
            let before = encode_weights(&target);
            let err = decode_weights_into(&mut target, &encode_weights(&source)).unwrap_err();
            assert!(
                matches!(&err, NnError::InvalidGraph(m) if m.contains("batchnorm shape")),
                "tensor {k}: {err}"
            );
            assert_eq!(encode_weights(&target), before, "tensor {k}: the target changed");
        }
    }

    #[test]
    fn wrong_architecture_is_rejected_without_mutation() {
        let source = alexnet(&cfg(1));
        let mut target = resnet50(&cfg(1));
        let before: Vec<f32> = target.layer(0).unwrap().weight().unwrap().data().to_vec();
        let err = decode_weights_into(&mut target, &encode_weights(&source)).unwrap_err();
        assert!(err.to_string().contains("parameterized layers") || err.to_string().contains("does not match"));
        assert_eq!(target.layer(0).unwrap().weight().unwrap().data(), &before[..]);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let source = alexnet(&cfg(1));
        let mut bytes = encode_weights(&source);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let mut target = alexnet(&cfg(1));
        let err = decode_weights_into(&mut target, &bytes).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // truncation
        let bytes = encode_weights(&source);
        assert!(decode_weights_into(&mut target, &bytes[..bytes.len() / 2]).is_err());
        // wrong magic
        let mut bytes = encode_weights(&source);
        bytes[0] = b'X';
        assert!(decode_weights_into(&mut target, &bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("alfi_weights_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.alfiw");
        let source = alexnet(&cfg(5));
        save_weights(&source, &path).unwrap();
        let mut target = alexnet(&cfg(6));
        load_weights(&mut target, &path).unwrap();
        let x = Tensor::ones(&cfg(5).input_dims(1));
        assert_eq!(source.forward(&x).unwrap().data(), target.forward(&x).unwrap().data());
        assert!(load_weights(&mut target, dir.join("missing.alfiw")).is_err());
    }
}
