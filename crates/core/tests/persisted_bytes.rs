//! Byte pins for the binary files a campaign persists: the fault
//! matrix (`faults.bin`), the run trace (`trace.bin`) and a weight
//! checkpoint. Round-trip tests cannot see a layout change that the
//! encoder and decoder share; these tests compare the exact bytes.

use alfi_core::{crc32, encode_fault_matrix, AppliedFault, FaultMatrix, FaultRecord, FaultValue};
use alfi_core::{RunTrace, TraceEntry};
use alfi_nn::models::{alexnet, ModelConfig};
use alfi_nn::weights::encode_weights;
use alfi_scenario::InjectionTarget;
use alfi_tensor::bits::FlipDirection;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn record(layer: usize, depth: Option<usize>, value: FaultValue) -> FaultRecord {
    FaultRecord { batch: 1, layer, channel: 5, channel_in: 2, depth, height: 3, width: 4, value }
}

/// One record per `FaultValue` kind, with and without a depth.
fn matrix() -> FaultMatrix {
    FaultMatrix {
        records: vec![
            record(0, None, FaultValue::BitFlip(30)),
            record(1, Some(4), FaultValue::StuckAt { pos: 23, high: true }),
            record(2, None, FaultValue::Replace(-123.5)),
            record(3, Some(0), FaultValue::QuantStep { bit: 6, bits: 8, amax: 4.0 }),
        ],
        target: InjectionTarget::Weights,
        faults_per_image: 2,
    }
}

#[test]
fn fault_matrix_bytes_are_pinned() {
    let expected = concat!(
        // magic "ALFIFLT1" · version 1 · body length 157 · CRC32
        "414c4649464c5431", "01000000", "9d00000000000000", "0acbdfed",
        // target Weights · 2 faults per image · 4 records
        "01", "02000000", "0400000000000000",
        // batch · layer · channel · channel_in · depth flag + value ·
        // height · width · value tag · pos · high/bits · f32
        "01000000", "00000000", "05000000", "02000000", "00", "00000000",
        "03000000", "04000000", "00", "1e", "00", "00000000",
        "01000000", "01000000", "05000000", "02000000", "01", "04000000",
        "03000000", "04000000", "01", "17", "01", "00000000",
        "01000000", "02000000", "05000000", "02000000", "00", "00000000",
        "03000000", "04000000", "02", "00", "00", "0000f7c2",
        "01000000", "03000000", "05000000", "02000000", "01", "00000000",
        "03000000", "04000000", "03", "06", "08", "00008040",
    );
    assert_eq!(hex(&encode_fault_matrix(&matrix())), expected);

    let empty =
        FaultMatrix { records: vec![], target: InjectionTarget::Neurons, faults_per_image: 1 };
    let expected = concat!(
        "414c4649464c5431", "01000000", "0d00000000000000", "ed0ad194",
        "00", "01000000", "0000000000000000",
    );
    assert_eq!(hex(&encode_fault_matrix(&empty)), expected);
}

/// One entry per flip direction (an Inf corruption among them).
#[test]
fn run_trace_bytes_are_pinned() {
    let m = matrix();
    let entry = |image_id, record, original: f32, corrupted: f32, direction, nan, inf| TraceEntry {
        image_id,
        applied: AppliedFault { record, original, corrupted, direction },
        output_nan_count: nan,
        output_inf_count: inf,
    };
    let trace = RunTrace {
        entries: vec![
            entry(7, m.records[0], 1.0, f32::INFINITY, Some(FlipDirection::ZeroToOne), 0, 9),
            entry(1 << 40, m.records[1], 2.0, 0.0, Some(FlipDirection::OneToZero), 3, 0),
            entry(9, m.records[2], -0.25, -123.5, None, 0, 0),
        ],
    };
    let expected = concat!(
        // magic "ALFITRC1" · version 1 · body length 191 · CRC32
        "414c464954524331", "01000000", "bf00000000000000", "8a934d78",
        // 3 entries
        "0300000000000000",
        // image id · fault record (as in faults.bin) · original ·
        // corrupted · direction · output NaN count · output Inf count
        "0700000000000000",
        "01000000", "00000000", "05000000", "02000000", "00", "00000000",
        "03000000", "04000000", "00", "1e", "00", "00000000",
        "0000803f", "0000807f", "01", "00000000", "09000000",
        "0000000000010000",
        "01000000", "01000000", "05000000", "02000000", "01", "04000000",
        "03000000", "04000000", "01", "17", "01", "00000000",
        "00000040", "00000000", "02", "03000000", "00000000",
        "0900000000000000",
        "01000000", "02000000", "05000000", "02000000", "00", "00000000",
        "03000000", "04000000", "02", "00", "00", "0000f7c2",
        "000080be", "0000f7c2", "00", "00000000", "00000000",
    );
    assert_eq!(hex(&trace.encode()), expected);
}

#[test]
fn weight_checkpoint_length_and_checksum_are_pinned() {
    let cfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 1, ..ModelConfig::default() };
    let bytes = encode_weights(&alexnet(&cfg));
    // magic "ALFIWGT1" · version 1
    assert_eq!(hex(&bytes[..12]), "414c46495747543101000000");
    assert_eq!((bytes.len(), crc32(&bytes)), (384_863, 0x88e8_a881));
}
