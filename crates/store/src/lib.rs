#![warn(missing_docs)]
//! # alfi-store
//!
//! Append-only **columnar binary result store** for ALFI campaigns —
//! the in-tree (std-only, like `alfi-serde`) persistence format behind
//! `--format binary`. CSV and JSON rows do not survive million-fault
//! campaigns; this format does, while keeping the paper's marquee
//! replay feature: any single image's outcome row is retrievable by
//! its `(epoch, batch, fault_id)` key reading **one block plus the
//! index**, never the whole artifact.
//!
//! ## File layout (format version 1)
//!
//! ```text
//! header   magic "ALFISTO1" · version · block_rows · meta pairs ·
//!          column directory (name, type, encoding) · header crc32
//! blocks*  [u32 payload_len | payload | u32 crc32(payload)]
//!          payload = row_count · 3 implicit key columns
//!          (epoch, batch, fault_id — delta varints) · each user
//!          column (length-prefixed cells + min/max footer)
//! index    one 48-byte entry per block: offset, len, rows,
//!          first/last key — binary-searchable on fault_id
//! trailer  32 bytes: index offset/len/crc · total rows · "ALFIEND1"
//! ```
//!
//! Column encodings: [`Encoding::Plain`] (raw `u8`/LE `f32` bits,
//! LEB128 varints for integers, length-prefixed strings),
//! [`Encoding::Delta`] (zigzag varint deltas for monotone integer
//! columns like image ids) and [`Encoding::Prefix`] (front coding for
//! string columns sharing long prefixes). `f32` cells round-trip
//! bit-exactly, NaN payloads included — campaign outcomes containing
//! NaN/Inf corruptions reproduce byte-identically after conversion
//! back to CSV.
//!
//! The crate also defines the [sealed frame](frame) that the
//! workspace's single-body binary files — fault matrices, run traces,
//! weight checkpoints — share, and exports [`Cur`], the fallible cursor
//! their bodies are read with.
//!
//! ## Example
//!
//! ```
//! use alfi_store::{
//!     ColumnSpec, ColumnType, Encoding, RowKey, Schema, StoreReader, StoreWriter, Value,
//! };
//!
//! let path = std::env::temp_dir().join("alfi_store_doc.alfic");
//! let schema = Schema::new(vec![
//!     ColumnSpec::new("image_id", ColumnType::U64, Encoding::Delta),
//!     ColumnSpec::new("score", ColumnType::F32, Encoding::Plain),
//! ])
//! .with_meta("kind", "doc");
//! let mut w = StoreWriter::create(&path, schema, 256).unwrap();
//! w.append(RowKey::new(0, 0, 0), &[Value::U64(7), Value::F32(0.5)]).unwrap();
//! w.append(RowKey::new(0, 0, 1), &[Value::U64(8), Value::F32(f32::NAN)]).unwrap();
//! let stats = w.finish().unwrap();
//! assert_eq!(stats.rows, 2);
//!
//! let mut r = StoreReader::open(&path).unwrap();
//! let hits = r.lookup_fault(1).unwrap();
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].1[0], Value::U64(8));
//! ```

mod codec;
mod error;
pub mod frame;
mod reader;
mod schema;
mod writer;

pub use codec::{ColumnStats, Cur};
pub use error::StoreError;
pub use reader::{Row, StoreReader};
pub use schema::{ColumnSpec, ColumnType, Encoding, RowKey, Schema, Value};
pub use writer::{StoreStats, StoreWriter, DEFAULT_BLOCK_ROWS};

/// Lookup tables for [`crc32`]'s slice-by-8 loop: `CRC_TABLES[0][b]`
/// is the CRC register after shifting byte `b` through it, and
/// `CRC_TABLES[k][b]` after shifting `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC32 (IEEE 802.3 polynomial, reflected) of a byte
/// slice.
///
/// Implemented locally — no checksum crate ships with the offline
/// toolchain. This is the workspace's single CRC implementation: the
/// store's header, blocks and index and every [sealed frame](frame)
/// (fault matrices, run traces, weight checkpoints) are checksummed
/// with it. It folds eight bytes per step through eight lookup tables
/// (slice-by-8) and the tail one byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("alfi_store_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_schema() -> Schema {
        Schema::new(vec![
            ColumnSpec::new("image_id", ColumnType::U64, Encoding::Delta),
            ColumnSpec::new("file_name", ColumnType::Str, Encoding::Prefix),
            ColumnSpec::new("label", ColumnType::U32, Encoding::Plain),
            ColumnSpec::new("p", ColumnType::F32, Encoding::Plain),
            ColumnSpec::new("flag", ColumnType::U8, Encoding::Plain),
        ])
        .with_meta("kind", "unit")
    }

    fn sample_row(i: u64) -> (RowKey, Vec<Value>) {
        (
            RowKey::new((i / 8) as u32, ((i / 4) % 2) as u32, i),
            vec![
                Value::U64(1000 + i),
                Value::Str(format!("img_{i:04}.png")),
                Value::U32((i % 10) as u32),
                Value::F32(if i.is_multiple_of(7) { f32::NAN } else { i as f32 * 0.25 }),
                Value::U8((i % 3) as u8),
            ],
        )
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn write_scan_round_trips_across_blocks() {
        let path = temp_path("roundtrip.alfic");
        let mut w = StoreWriter::create(&path, sample_schema(), 8).unwrap();
        let rows: Vec<_> = (0..37).map(sample_row).collect();
        for (k, v) in &rows {
            w.append(*k, v).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.rows, 37);
        assert_eq!(stats.blocks, 5); // 4 full blocks of 8 + one of 5
        let mut r = StoreReader::open(&path).unwrap();
        assert_eq!(r.total_rows(), 37);
        assert_eq!(r.block_count(), 5);
        assert_eq!(r.meta("kind"), Some("unit"));
        assert_eq!(r.schema(), &sample_schema());
        assert_eq!(r.scan().unwrap(), rows);
    }

    #[test]
    fn empty_store_round_trips() {
        let path = temp_path("empty.alfic");
        let w = StoreWriter::create(&path, sample_schema(), 8).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!((stats.rows, stats.blocks), (0, 0));
        let mut r = StoreReader::open(&path).unwrap();
        assert_eq!(r.total_rows(), 0);
        assert!(r.scan().unwrap().is_empty());
        assert!(r.lookup_fault(0).unwrap().is_empty());
    }

    #[test]
    fn lookup_matches_scan_filter() {
        let path = temp_path("lookup.alfic");
        let mut w = StoreWriter::create(&path, sample_schema(), 4).unwrap();
        for i in 0..29 {
            let (k, v) = sample_row(i);
            w.append(k, v.as_slice()).unwrap();
        }
        w.finish().unwrap();
        let mut r = StoreReader::open(&path).unwrap();
        let all = r.scan().unwrap();
        for id in [0u64, 3, 15, 28, 999] {
            let expect: Vec<_> =
                all.iter().filter(|(k, _)| k.fault_id == id).cloned().collect();
            assert_eq!(r.lookup_fault(id).unwrap(), expect, "fault {id}");
        }
    }

    #[test]
    fn lookup_reads_one_block() {
        let path = temp_path("meter.alfic");
        let mut w = StoreWriter::create(&path, sample_schema(), 8).unwrap();
        for i in 0..64 {
            let (k, v) = sample_row(i);
            w.append(k, v.as_slice()).unwrap();
        }
        w.finish().unwrap();
        let mut r = StoreReader::open(&path).unwrap();
        let opened = r.bytes_read();
        let hits = r.lookup_fault(42).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(r.blocks_read(), 1, "one covering block, 8 total");
        // The single fetched block is far smaller than the file body.
        assert!(r.bytes_read() - opened < (r.total_rows() / 4) * 40);
    }

    #[test]
    fn writer_rejects_bad_rows() {
        let path = temp_path("reject.alfic");
        let mut w = StoreWriter::create(&path, sample_schema(), 8).unwrap();
        // wrong arity
        assert!(matches!(
            w.append(RowKey::default(), &[Value::U64(1)]),
            Err(StoreError::Schema { .. })
        ));
        // wrong type
        let (_, mut v) = sample_row(0);
        v[0] = Value::U32(1);
        assert!(matches!(
            w.append(RowKey::default(), &v),
            Err(StoreError::Schema { .. })
        ));
        // decreasing fault id
        let (_, v) = sample_row(0);
        w.append(RowKey::new(0, 0, 5), &v).unwrap();
        assert!(matches!(
            w.append(RowKey::new(0, 0, 4), &v),
            Err(StoreError::Schema { .. })
        ));
    }

    #[test]
    fn schema_validation_rejects_bad_encodings() {
        let dup = Schema::new(vec![
            ColumnSpec::new("a", ColumnType::U8, Encoding::Plain),
            ColumnSpec::new("a", ColumnType::U8, Encoding::Plain),
        ]);
        assert!(dup.validate().is_err());
        let delta_str = Schema::new(vec![ColumnSpec::new("s", ColumnType::Str, Encoding::Delta)]);
        assert!(delta_str.validate().is_err());
        let prefix_int = Schema::new(vec![ColumnSpec::new("i", ColumnType::U32, Encoding::Prefix)]);
        assert!(prefix_int.validate().is_err());
    }

    #[test]
    fn corruption_and_truncation_are_detected() {
        let path = temp_path("corrupt.alfic");
        let mut w = StoreWriter::create(&path, sample_schema(), 8).unwrap();
        for i in 0..20 {
            let (k, v) = sample_row(i);
            w.append(k, v.as_slice()).unwrap();
        }
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncation loses the end magic.
        let cut = temp_path("cut.alfic");
        std::fs::write(&cut, &good[..good.len() - 10]).unwrap();
        assert!(matches!(StoreReader::open(&cut), Err(StoreError::Corrupt { .. })));

        // A flipped bit in a block body fails that block's checksum.
        let mut bad = good.clone();
        bad[200] ^= 0x10;
        let badp = temp_path("bad.alfic");
        std::fs::write(&badp, &bad).unwrap();
        match StoreReader::open(&badp) {
            Err(StoreError::Corrupt { .. }) => {}
            Ok(mut r) => {
                assert!(matches!(r.scan(), Err(StoreError::Corrupt { .. })));
            }
            Err(e) => panic!("unexpected error {e}"),
        }

        // Missing file is an I/O error, not a panic.
        assert!(matches!(
            StoreReader::open(temp_path("missing.alfic")),
            Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn block_footers_expose_min_max() {
        let path = temp_path("footer.alfic");
        let mut w = StoreWriter::create(&path, sample_schema(), 8).unwrap();
        for i in 1..=8 {
            let (k, v) = sample_row(i);
            w.append(k, v.as_slice()).unwrap();
        }
        w.finish().unwrap();
        let mut r = StoreReader::open(&path).unwrap();
        let stats = r.block_column_stats(0).unwrap();
        // image_id column: 1001..=1008
        assert_eq!((stats[0].present, stats[0].min_bits, stats[0].max_bits), (true, 1001, 1008));
        // file_name column: strings carry no stats
        assert!(!stats[1].present);
        // p column skips the NaN at i == 7
        assert!(stats[3].present);
        assert_eq!(f32::from_bits(stats[3].min_bits as u32), 0.25);
        assert_eq!(f32::from_bits(stats[3].max_bits as u32), 2.0);
        assert!(r.block_column_stats(9).is_err());
    }
}
