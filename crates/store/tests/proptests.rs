//! Property-based tests for the columnar codec and the replay index,
//! running on the in-tree `alfi-check` harness.
//!
//! The two headline properties from the store contract:
//!
//! 1. **Round-trip**: any schema-conforming row set — including `f32`
//!    cells drawn from raw random bit patterns, so NaN payloads and
//!    infinities are common — decodes back cell-for-cell identical
//!    (`F32` equality is bit-pattern equality).
//! 2. **Index lookup == full scan**: for any fault id,
//!    `lookup_fault(id)` returns exactly the rows a full `scan`
//!    filtered by that id would.
//!
//! A third pins the table-driven `crc32` to the bitwise loop its tables
//! are built from.

use alfi_check::{check_with, gen};
use alfi_rng::Rng;
use alfi_store::{
    crc32, ColumnSpec, ColumnType, Encoding, RowKey, Schema, StoreReader, StoreWriter, Value,
};

const CASES: usize = 64;

fn temp_path(name: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("alfi_store_proptests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{case}.alfic"))
}

fn arb_column(rng: &mut Rng, idx: usize) -> ColumnSpec {
    let (ty, encoding) = match rng.gen_range(0u8..7) {
        0 => (ColumnType::U8, Encoding::Plain),
        1 => (ColumnType::U32, Encoding::Plain),
        2 => (ColumnType::U32, Encoding::Delta),
        3 => (ColumnType::U64, Encoding::Plain),
        4 => (ColumnType::U64, Encoding::Delta),
        5 => (ColumnType::F32, Encoding::Plain),
        _ => {
            if gen::any_bool(rng) {
                (ColumnType::Str, Encoding::Plain)
            } else {
                (ColumnType::Str, Encoding::Prefix)
            }
        }
    };
    ColumnSpec::new(format!("col{idx}"), ty, encoding)
}

fn arb_cell(rng: &mut Rng, ty: ColumnType) -> Value {
    match ty {
        ColumnType::U8 => Value::U8(rng.gen_range(0u32..256) as u8),
        ColumnType::U32 => Value::U32(gen::any_u64(rng) as u32),
        ColumnType::U64 => Value::U64(gen::any_u64(rng)),
        // Raw bit patterns: ~0.4% NaNs and infinities arise naturally,
        // plus we force them in explicitly every few cells.
        ColumnType::F32 => Value::F32(match rng.gen_range(0u8..8) {
            0 => f32::NAN,
            1 => f32::from_bits(0x7FC0_0000 | (gen::any_u64(rng) as u32 & 0x003F_FFFF)),
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            _ => f32::from_bits(gen::any_u64(rng) as u32),
        }),
        ColumnType::Str => {
            Value::Str(gen::string_from(rng, &['a', 'b', '/', '\u{e9}', '0'], 0..12))
        }
    }
}

/// Non-decreasing fault ids with duplicates, random epoch/batch.
fn arb_keys(rng: &mut Rng, rows: usize) -> Vec<RowKey> {
    let mut fault = 0u64;
    (0..rows)
        .map(|_| {
            fault += rng.gen_range(0u64..3);
            RowKey::new(rng.gen_range(0u32..4), rng.gen_range(0u32..8), fault)
        })
        .collect()
}

#[test]
fn codec_round_trips_any_rows() {
    let case = std::cell::Cell::new(0u64);
    check_with(CASES, "store_codec_round_trip", |rng| {
        case.set(case.get() + 1);
        let cols: Vec<_> = (0..rng.gen_range(1usize..6)).map(|i| arb_column(rng, i)).collect();
        let schema = Schema::new(cols.clone()).with_meta("kind", "prop");
        let rows_n = rng.gen_range(0usize..70);
        let block_rows = rng.gen_range(1u32..20);
        let keys = arb_keys(rng, rows_n);
        let rows: Vec<Vec<Value>> =
            (0..rows_n).map(|_| cols.iter().map(|c| arb_cell(rng, c.ty)).collect()).collect();

        let path = temp_path("roundtrip", case.get());
        let mut w = StoreWriter::create(&path, schema.clone(), block_rows).unwrap();
        for (k, v) in keys.iter().zip(&rows) {
            w.append(*k, v).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.rows, rows_n as u64);

        let mut r = StoreReader::open(&path).unwrap();
        assert_eq!(r.schema(), &schema);
        assert_eq!(r.total_rows(), rows_n as u64);
        let back = r.scan().unwrap();
        assert_eq!(back.len(), rows_n);
        for (i, (k, v)) in back.iter().enumerate() {
            assert_eq!(*k, keys[i], "key {i}");
            assert_eq!(*v, rows[i], "row {i}");
        }
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn index_lookup_equals_full_scan() {
    let case = std::cell::Cell::new(0u64);
    check_with(CASES, "store_lookup_equals_scan", |rng| {
        case.set(case.get() + 1);
        let cols =
            vec![ColumnSpec::new("payload", ColumnType::U64, Encoding::Plain)];
        let schema = Schema::new(cols);
        let rows_n = rng.gen_range(1usize..120);
        let block_rows = rng.gen_range(1u32..16);
        let keys = arb_keys(rng, rows_n);

        let path = temp_path("lookup", case.get());
        let mut w = StoreWriter::create(&path, schema, block_rows).unwrap();
        for (i, k) in keys.iter().enumerate() {
            w.append(*k, &[Value::U64(i as u64)]).unwrap();
        }
        w.finish().unwrap();

        let mut r = StoreReader::open(&path).unwrap();
        let all = r.scan().unwrap();
        let max_id = keys.last().unwrap().fault_id;
        for _ in 0..8 {
            let id = rng.gen_range(0u64..max_id + 2);
            let expect: Vec<_> =
                all.iter().filter(|(k, _)| k.fault_id == id).cloned().collect();
            assert_eq!(r.lookup_fault(id).unwrap(), expect, "fault {id}");
        }
        std::fs::remove_file(&path).ok();
    });
}

/// The CRC32 as one polynomial step per bit: the definition the
/// lookup tables of `crc32` are built from.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The table-driven `crc32` equals the bitwise loop on random bytes of
/// length 0–4 096 starting at offsets 0–7, so every tail length and
/// start alignment of the eight-byte steps is covered.
#[test]
fn crc32_equals_the_bitwise_loop() {
    check_with(CASES, "crc32_equals_the_bitwise_loop", |rng| {
        let offset = rng.gen_range(0usize..8);
        // Half the cases stay short, where the tail loop does all or most
        // of the work.
        let len = if gen::any_bool(rng) {
            rng.gen_range(0usize..64)
        } else {
            rng.gen_range(0usize..=4096)
        };
        let buf: Vec<u8> = (0..offset + len).map(|_| rng.next_u32() as u8).collect();
        let data = &buf[offset..];
        assert_eq!(crc32(data), crc32_bitwise(data), "length {len} at offset {offset}");
    });
}
