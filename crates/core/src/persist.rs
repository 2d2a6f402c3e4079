//! Binary persistence of fault matrices and run traces.
//!
//! PyTorchALFI stores two binary files per campaign (§IV-B): the
//! pre-generated fault matrix ("the identical set of faults can be
//! utilized across various experiments") and a post-run trace with the
//! original/altered values, bit-flip directions and NaN/Inf monitor
//! counts for every applied fault. This module defines both body
//! layouts; each file wraps its body in a sealed frame
//! ([`alfi_store::frame`]: magic, version, body length, CRC32) so that
//! corrupted or truncated files are rejected instead of silently
//! replaying wrong faults.

use crate::error::CoreError;
use crate::fault::{AppliedFault, FaultRecord, FaultValue};
use crate::matrix::FaultMatrix;
use alfi_scenario::InjectionTarget;
use alfi_store::{frame, Cur, StoreError};
use alfi_tensor::bits::FlipDirection;
use std::path::Path;

const FAULT_MAGIC: &[u8; 8] = b"ALFIFLT1";
const TRACE_MAGIC: &[u8; 8] = b"ALFITRC1";
const FORMAT_VERSION: u32 = 1;
/// Encoded size of one fault record.
const RECORD_LEN: usize = 36;

pub use alfi_store::crc32;

/// Reports a frame or body decoding error as a corrupt `kind` file.
fn corrupt(kind: &'static str) -> impl Fn(StoreError) -> CoreError {
    move |e| CoreError::CorruptFile { kind, reason: e.reason().to_string() }
}

fn put_u32s(out: &mut Vec<u8>, values: &[usize]) {
    for &v in values {
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
}

/// Appends one fault record: batch · layer · channel ·
/// channel_in (u32 each) · depth flag (u8) + depth (u32) · height ·
/// width (u32) · value tag · pos · high/bits (u8 each) · f32 operand.
fn put_record(out: &mut Vec<u8>, r: &FaultRecord) {
    put_u32s(out, &[r.batch, r.layer, r.channel, r.channel_in]);
    out.push(u8::from(r.depth.is_some()));
    put_u32s(out, &[r.depth.unwrap_or(0), r.height, r.width]);
    let (tag, pos, high, operand) = match r.value {
        FaultValue::BitFlip(p) => (0, p, 0, 0.0),
        FaultValue::StuckAt { pos, high } => (1, pos, u8::from(high), 0.0),
        FaultValue::Replace(v) => (2, 0, 0, v),
        FaultValue::QuantStep { bit, bits, amax } => (3, bit, bits, amax),
    };
    out.extend_from_slice(&[tag, pos, high]);
    out.extend_from_slice(&f32::to_le_bytes(operand));
}

fn get_record(cur: &mut Cur<'_>) -> Result<FaultRecord, StoreError> {
    let (batch, layer) = (cur.get_u32_le()? as usize, cur.get_u32_le()? as usize);
    let (channel, channel_in) = (cur.get_u32_le()? as usize, cur.get_u32_le()? as usize);
    let has_depth = cur.get_u8()? != 0;
    let depth = cur.get_u32_le()? as usize;
    let (height, width) = (cur.get_u32_le()? as usize, cur.get_u32_le()? as usize);
    let (tag, pos, high) = (cur.get_u8()?, cur.get_u8()?, cur.get_u8()?);
    let operand = cur.get_f32_le()?;
    let value = match tag {
        0 => FaultValue::BitFlip(pos),
        1 => FaultValue::StuckAt { pos, high: high != 0 },
        2 => FaultValue::Replace(operand),
        3 => FaultValue::QuantStep { bit: pos, bits: high, amax: operand },
        t => return Err(StoreError::corrupt(format!("unknown value tag {t}"))),
    };
    let depth = has_depth.then_some(depth);
    Ok(FaultRecord { batch, layer, channel, channel_in, depth, height, width, value })
}

/// Serializes a fault matrix to its binary wire form: a sealed frame
/// ([`alfi_store::frame`]) around target (u8) · faults per image (u32)
/// · record count (u64) · records.
pub fn encode_fault_matrix(m: &FaultMatrix) -> Vec<u8> {
    let mut body = Vec::new();
    body.push(match m.target {
        InjectionTarget::Neurons => 0,
        InjectionTarget::Weights => 1,
    });
    put_u32s(&mut body, &[m.faults_per_image]);
    body.extend_from_slice(&(m.records.len() as u64).to_le_bytes());
    for r in &m.records {
        put_record(&mut body, r);
    }
    frame::seal(FAULT_MAGIC, FORMAT_VERSION, &body)
}

/// Parses a binary fault matrix, validating magic, version, length and
/// checksum.
///
/// # Errors
///
/// Returns [`CoreError::CorruptFile`] for any structural damage.
pub fn decode_fault_matrix(data: &[u8]) -> Result<FaultMatrix, CoreError> {
    let read = || {
        let mut cur = Cur::new(frame::open(data, FAULT_MAGIC, FORMAT_VERSION)?);
        let target = match cur.get_u8()? {
            0 => InjectionTarget::Neurons,
            1 => InjectionTarget::Weights,
            t => return Err(StoreError::corrupt(format!("unknown target tag {t}"))),
        };
        let faults_per_image = cur.get_u32_le()? as usize;
        let n = cur.get_u64_le()? as usize;
        let mut records = Vec::with_capacity(n.min(cur.remaining() / RECORD_LEN));
        for _ in 0..n {
            records.push(get_record(&mut cur)?);
        }
        cur.done("fault matrix")?;
        Ok(FaultMatrix { records, target, faults_per_image })
    };
    read().map_err(corrupt("fault"))
}

/// Writes a fault matrix to a file.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure.
pub fn save_fault_matrix(m: &FaultMatrix, path: impl AsRef<Path>) -> Result<(), CoreError> {
    std::fs::write(path.as_ref(), encode_fault_matrix(m))?;
    Ok(())
}

/// Reads and validates a fault matrix from a file.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure or
/// [`CoreError::CorruptFile`] on validation failure.
pub fn load_fault_matrix(path: impl AsRef<Path>) -> Result<FaultMatrix, CoreError> {
    let data = std::fs::read(path.as_ref())?;
    decode_fault_matrix(&data)
}

/// Writes a recorder's JSONL event log as `events.jsonl` into `dir` —
/// the observability companion of the paper's three output sets. No-op
/// (and no file) for a disabled recorder.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure.
pub fn save_events(recorder: &alfi_trace::Recorder, dir: impl AsRef<Path>) -> Result<(), CoreError> {
    if !recorder.is_enabled() {
        return Ok(());
    }
    std::fs::create_dir_all(dir.as_ref())?;
    recorder.write_events(dir.as_ref().join(alfi_trace::EVENTS_FILE))?;
    Ok(())
}

/// Writes a Prometheus-text snapshot of a metrics registry as
/// `metrics.prom` into `dir` — the file form of the live `/metrics`
/// endpoint, so a run's final counters survive the process. No-op (and
/// no file) when no registry was attached to the run.
///
/// # Errors
///
/// Returns [`CoreError::Io`] on filesystem failure.
pub fn save_metrics(
    registry: Option<&alfi_metrics::Registry>,
    dir: impl AsRef<Path>,
) -> Result<(), CoreError> {
    if let Some(registry) = registry {
        alfi_metrics::write_snapshot(registry, dir.as_ref())?;
    }
    Ok(())
}

/// One trace entry: what actually happened when a fault was applied
/// during inference, plus the per-inference NaN/Inf monitor counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Image id (from the dataset record) the fault was active for.
    pub image_id: u64,
    /// The application outcome (location, original/corrupted values,
    /// flip direction).
    pub applied: AppliedFault,
    /// NaN values observed in the model output for this inference.
    pub output_nan_count: u32,
    /// Infinite values observed in the model output for this inference.
    pub output_inf_count: u32,
}

/// A full run trace — the paper's "second binary file ... generated after
/// the fault injection experiment".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// All applied-fault entries in application order.
    pub entries: Vec<TraceEntry>,
}

impl RunTrace {
    /// Serializes the trace to its binary wire form: a sealed frame
    /// ([`alfi_store::frame`]) around the entry count (u64) and, per
    /// entry, image id (u64) · fault record (as in a fault matrix) ·
    /// original · corrupted (f32) · flip direction (u8) · output NaN
    /// and Inf counts (u32).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            body.extend_from_slice(&e.image_id.to_le_bytes());
            put_record(&mut body, &e.applied.record);
            body.extend_from_slice(&e.applied.original.to_le_bytes());
            body.extend_from_slice(&e.applied.corrupted.to_le_bytes());
            body.push(match e.applied.direction {
                None => 0,
                Some(FlipDirection::ZeroToOne) => 1,
                Some(FlipDirection::OneToZero) => 2,
            });
            body.extend_from_slice(&e.output_nan_count.to_le_bytes());
            body.extend_from_slice(&e.output_inf_count.to_le_bytes());
        }
        frame::seal(TRACE_MAGIC, FORMAT_VERSION, &body)
    }

    /// Parses and validates a binary trace.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptFile`] for any structural damage.
    pub fn decode(data: &[u8]) -> Result<RunTrace, CoreError> {
        let read = || {
            let mut cur = Cur::new(frame::open(data, TRACE_MAGIC, FORMAT_VERSION)?);
            let n = cur.get_u64_le()? as usize;
            let mut entries = Vec::with_capacity(n.min(cur.remaining() / RECORD_LEN));
            for _ in 0..n {
                let image_id = cur.get_u64_le()?;
                let record = get_record(&mut cur)?;
                let (original, corrupted) = (cur.get_f32_le()?, cur.get_f32_le()?);
                let direction = match cur.get_u8()? {
                    0 => None,
                    1 => Some(FlipDirection::ZeroToOne),
                    2 => Some(FlipDirection::OneToZero),
                    t => return Err(StoreError::corrupt(format!("unknown direction tag {t}"))),
                };
                entries.push(TraceEntry {
                    image_id,
                    applied: AppliedFault { record, original, corrupted, direction },
                    output_nan_count: cur.get_u32_le()?,
                    output_inf_count: cur.get_u32_le()?,
                });
            }
            cur.done("trace")?;
            Ok(RunTrace { entries })
        };
        read().map_err(corrupt("trace"))
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        std::fs::write(path.as_ref(), self.encode())?;
        Ok(())
    }

    /// Reads and validates a trace from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] or [`CoreError::CorruptFile`].
    pub fn load(path: impl AsRef<Path>) -> Result<RunTrace, CoreError> {
        let data = std::fs::read(path.as_ref())?;
        RunTrace::decode(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> FaultMatrix {
        FaultMatrix {
            records: vec![
                FaultRecord {
                    batch: 0,
                    layer: 3,
                    channel: 5,
                    channel_in: 2,
                    depth: None,
                    height: 1,
                    width: 2,
                    value: FaultValue::BitFlip(30),
                },
                FaultRecord {
                    batch: 1,
                    layer: 0,
                    channel: 0,
                    channel_in: 0,
                    depth: Some(4),
                    height: 0,
                    width: 7,
                    value: FaultValue::StuckAt { pos: 23, high: false },
                },
                FaultRecord {
                    batch: 2,
                    layer: 7,
                    channel: 9,
                    channel_in: 0,
                    depth: None,
                    height: 0,
                    width: 0,
                    value: FaultValue::Replace(-123.5),
                },
                FaultRecord {
                    batch: 3,
                    layer: 2,
                    channel: 1,
                    channel_in: 4,
                    depth: None,
                    height: 2,
                    width: 6,
                    value: FaultValue::QuantStep { bit: 6, bits: 8, amax: 4.0 },
                },
            ],
            target: InjectionTarget::Weights,
            faults_per_image: 3,
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn fault_matrix_round_trips() {
        let m = sample_matrix();
        let bytes = encode_fault_matrix(&m);
        let back = decode_fault_matrix(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn bitflip_in_file_is_detected() {
        let m = sample_matrix();
        let mut bytes = encode_fault_matrix(&m);
        // corrupt one body byte
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = decode_fault_matrix(&bytes).unwrap_err();
        assert!(matches!(err, CoreError::CorruptFile { kind: "fault", .. }));
    }

    #[test]
    fn truncation_is_detected() {
        let m = sample_matrix();
        let bytes = encode_fault_matrix(&m);
        for cut in [0, 10, bytes.len() - 5] {
            assert!(decode_fault_matrix(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let m = sample_matrix();
        let mut bytes = encode_fault_matrix(&m);
        bytes[0] = b'X';
        assert!(decode_fault_matrix(&bytes).is_err());
        let mut bytes = encode_fault_matrix(&m);
        bytes[8] = 99; // version
        assert!(decode_fault_matrix(&bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("alfi_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faults.bin");
        let m = sample_matrix();
        save_fault_matrix(&m, &path).unwrap();
        assert_eq!(load_fault_matrix(&path).unwrap(), m);
        assert!(load_fault_matrix(dir.join("missing.bin")).is_err());
    }

    #[test]
    fn trace_round_trips_with_all_directions() {
        let m = sample_matrix();
        let trace = RunTrace {
            entries: vec![
                TraceEntry {
                    image_id: 42,
                    applied: AppliedFault {
                        record: m.records[0],
                        original: 1.5,
                        corrupted: 3.0e38,
                        direction: Some(FlipDirection::ZeroToOne),
                    },
                    output_nan_count: 0,
                    output_inf_count: 2,
                },
                TraceEntry {
                    image_id: 43,
                    applied: AppliedFault {
                        record: m.records[2],
                        original: -0.25,
                        corrupted: -123.5,
                        direction: None,
                    },
                    output_nan_count: 1,
                    output_inf_count: 0,
                },
            ],
        };
        let back = RunTrace::decode(&trace.encode()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn trace_corruption_is_detected() {
        let trace = RunTrace { entries: vec![] };
        let mut bytes = trace.encode();
        bytes[9] ^= 1; // version field
        assert!(RunTrace::decode(&bytes).is_err());
        // fault magic is not trace magic
        let m = sample_matrix();
        assert!(RunTrace::decode(&encode_fault_matrix(&m)).is_err());
    }

    #[test]
    fn empty_matrix_and_trace_round_trip() {
        let m = FaultMatrix {
            records: vec![],
            target: InjectionTarget::Neurons,
            faults_per_image: 1,
        };
        assert_eq!(decode_fault_matrix(&encode_fault_matrix(&m)).unwrap(), m);
        let t = RunTrace::default();
        assert_eq!(RunTrace::decode(&t.encode()).unwrap(), t);
    }
}
