//! Wire-level primitives: varints, zigzag deltas, prefix coding, the
//! header/index/block-payload layouts and their fallible decoders.

use crate::error::StoreError;
use crate::schema::{ColumnSpec, ColumnType, Encoding, RowKey, Schema, Value};
use crate::crc32;

/// File magic opening every store file.
pub(crate) const MAGIC: &[u8; 8] = b"ALFISTO1";
/// Magic closing the fixed trailer — a cheap truncation detector.
pub(crate) const END_MAGIC: &[u8; 8] = b"ALFIEND1";
/// Current format version.
pub(crate) const VERSION: u32 = 1;
/// Fixed trailer length: index offset (8) + index len (4) + index crc
/// (4) + total rows (8) + end magic (8).
pub(crate) const TRAILER_LEN: u64 = 32;
/// Serialized size of one [`IndexEntry`].
pub(crate) const INDEX_ENTRY_LEN: usize = 48;

/// Fallible little-endian cursor over a byte slice: every accessor
/// returns a typed [`StoreError::Corrupt`] on truncation, never
/// panics. The store's codec and the bodies of
/// [sealed frames](crate::frame) are read with it.
pub struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cur { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::corrupt(format!(
                "truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let chunk = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(chunk)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] at the end of the data.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when fewer than 4 bytes remain.
    pub fn get_u32_le(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap_or([0; 4])))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when fewer than 8 bytes remain.
    pub fn get_u64_le(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap_or([0; 8])))
    }

    /// Consumes a little-endian `f32`, bit-exactly (NaN payloads
    /// included).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when fewer than 4 bytes remain.
    pub fn get_f32_le(&mut self) -> Result<f32, StoreError> {
        self.get_u32_le().map(f32::from_bits)
    }

    pub(crate) fn get_uvarint(&mut self) -> Result<u64, StoreError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.get_u8()?;
            if shift == 63 && b > 1 {
                return Err(StoreError::corrupt("varint overflows u64"));
            }
            out |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(StoreError::corrupt("varint longer than 10 bytes"));
            }
        }
    }

    /// Checks that the cursor consumed everything.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] naming `what` when bytes remain.
    pub fn done(&self, what: &str) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::corrupt(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Appends an LEB128 varint.
pub(crate) fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Zigzag-maps a signed delta onto an unsigned varint-friendly value.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Delta-encodes integers: first value verbatim, then zigzag varint
/// wrapping differences (so non-monotone inputs still round-trip).
pub(crate) fn encode_delta_u64(vals: impl Iterator<Item = u64>, out: &mut Vec<u8>) {
    let mut prev = 0u64;
    for (i, v) in vals.enumerate() {
        if i == 0 {
            put_uvarint(out, v);
        } else {
            put_uvarint(out, zigzag(v.wrapping_sub(prev) as i64));
        }
        prev = v;
    }
}

/// Inverse of [`encode_delta_u64`] for a known row count.
pub(crate) fn decode_delta_u64(cur: &mut Cur<'_>, rows: usize) -> Result<Vec<u64>, StoreError> {
    let mut out = Vec::with_capacity(rows);
    let mut prev = 0u64;
    for i in 0..rows {
        let v = if i == 0 {
            cur.get_uvarint()?
        } else {
            prev.wrapping_add(unzigzag(cur.get_uvarint()?) as u64)
        };
        out.push(v);
        prev = v;
    }
    Ok(out)
}

fn put_str32(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str32(cur: &mut Cur<'_>) -> Result<String, StoreError> {
    let len = cur.get_u32_le()? as usize;
    let bytes = cur.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::corrupt("invalid UTF-8 string"))
}

/// Serializes the file header (magic through column directory plus the
/// trailing header CRC).
pub(crate) fn encode_header(schema: &Schema, block_rows: u32) -> Vec<u8> {
    let mut h = Vec::new();
    h.extend_from_slice(MAGIC);
    h.extend_from_slice(&VERSION.to_le_bytes());
    h.extend_from_slice(&block_rows.to_le_bytes());
    h.extend_from_slice(&(schema.meta.len() as u32).to_le_bytes());
    for (k, v) in &schema.meta {
        put_str32(&mut h, k);
        put_str32(&mut h, v);
    }
    h.extend_from_slice(&(schema.columns.len() as u32).to_le_bytes());
    for c in &schema.columns {
        put_str32(&mut h, &c.name);
        h.push(c.ty.tag());
        h.push(c.encoding.tag());
    }
    let crc = crc32(&h);
    h.extend_from_slice(&crc.to_le_bytes());
    h
}

/// Parses a header from a byte slice that starts at file offset 0.
/// Returns the schema, block rows and total header length.
pub(crate) fn decode_header(data: &[u8]) -> Result<(Schema, u32, usize), StoreError> {
    let mut cur = Cur::new(data);
    let magic = cur.take(8)?;
    if magic != MAGIC {
        return Err(StoreError::corrupt("bad magic"));
    }
    let version = cur.get_u32_le()?;
    if version != VERSION {
        return Err(StoreError::corrupt(format!("unsupported version {version}")));
    }
    let block_rows = cur.get_u32_le()?;
    if block_rows == 0 {
        return Err(StoreError::corrupt("zero block_rows"));
    }
    let meta_count = cur.get_u32_le()? as usize;
    let mut meta = std::collections::BTreeMap::new();
    for _ in 0..meta_count {
        let k = get_str32(&mut cur)?;
        let v = get_str32(&mut cur)?;
        meta.insert(k, v);
    }
    let col_count = cur.get_u32_le()? as usize;
    let mut columns = Vec::with_capacity(col_count.min(1 << 16));
    for _ in 0..col_count {
        let name = get_str32(&mut cur)?;
        let ty = ColumnType::from_tag(cur.get_u8()?)?;
        let encoding = Encoding::from_tag(cur.get_u8()?)?;
        columns.push(ColumnSpec { name, ty, encoding });
    }
    let body_len = data.len() - cur.remaining();
    let stored_crc = cur.get_u32_le()?;
    if crc32(&data[..body_len]) != stored_crc {
        return Err(StoreError::corrupt("header checksum mismatch"));
    }
    let schema = Schema { columns, meta };
    schema.validate()?;
    Ok((schema, block_rows, body_len + 4))
}

/// One entry of the trailing block index: where the block record lives,
/// how many rows it holds, and the key range it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexEntry {
    pub(crate) offset: u64,
    pub(crate) len: u32,
    pub(crate) rows: u32,
    pub(crate) first: RowKey,
    pub(crate) last: RowKey,
}

/// Serializes the block index.
pub(crate) fn encode_index(entries: &[IndexEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * INDEX_ENTRY_LEN);
    for e in entries {
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.rows.to_le_bytes());
        for k in [e.first, e.last] {
            out.extend_from_slice(&k.epoch.to_le_bytes());
            out.extend_from_slice(&k.batch.to_le_bytes());
            out.extend_from_slice(&k.fault_id.to_le_bytes());
        }
    }
    out
}

/// Inverse of [`encode_index`].
pub(crate) fn decode_index(data: &[u8]) -> Result<Vec<IndexEntry>, StoreError> {
    if !data.len().is_multiple_of(INDEX_ENTRY_LEN) {
        return Err(StoreError::corrupt("index length not a multiple of entry size"));
    }
    let mut cur = Cur::new(data);
    let mut out = Vec::with_capacity(data.len() / INDEX_ENTRY_LEN);
    while cur.remaining() > 0 {
        let offset = cur.get_u64_le()?;
        let len = cur.get_u32_le()?;
        let rows = cur.get_u32_le()?;
        let mut keys = [RowKey::default(); 2];
        for k in &mut keys {
            k.epoch = cur.get_u32_le()?;
            k.batch = cur.get_u32_le()?;
            k.fault_id = cur.get_u64_le()?;
        }
        out.push(IndexEntry { offset, len, rows, first: keys[0], last: keys[1] });
    }
    Ok(out)
}

/// Per-block, per-column min/max footer. For integer columns the bits
/// are the values themselves; for `F32` they are `f32::to_bits` of the
/// smallest/largest non-NaN cell. `present == false` for string
/// columns, empty blocks and all-NaN float columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnStats {
    /// Whether the min/max fields are meaningful.
    pub present: bool,
    /// Bit pattern of the smallest cell.
    pub min_bits: u64,
    /// Bit pattern of the largest cell.
    pub max_bits: u64,
}

/// Computes the footer stats for one column of cells.
pub(crate) fn column_stats(ty: ColumnType, vals: &[Value]) -> ColumnStats {
    match ty {
        ColumnType::Str => ColumnStats::default(),
        ColumnType::F32 => {
            let mut min = f32::INFINITY;
            let mut max = f32::NEG_INFINITY;
            let mut present = false;
            for v in vals {
                let f = v.as_f32().unwrap_or(f32::NAN);
                if f.is_nan() {
                    continue;
                }
                present = true;
                if f < min {
                    min = f;
                }
                if f > max {
                    max = f;
                }
            }
            if present {
                ColumnStats {
                    present,
                    min_bits: u64::from(min.to_bits()),
                    max_bits: u64::from(max.to_bits()),
                }
            } else {
                ColumnStats::default()
            }
        }
        _ => {
            let mut it = vals.iter().filter_map(Value::as_u64);
            match it.next() {
                None => ColumnStats::default(),
                Some(first) => {
                    let (mut min, mut max) = (first, first);
                    for v in it {
                        min = min.min(v);
                        max = max.max(v);
                    }
                    ColumnStats { present: true, min_bits: min, max_bits: max }
                }
            }
        }
    }
}

/// Encodes one column of cells under its declared encoding.
pub(crate) fn encode_column(ty: ColumnType, enc: Encoding, vals: &[Value], out: &mut Vec<u8>) {
    match (enc, ty) {
        (Encoding::Plain, ColumnType::U8) => {
            for v in vals {
                out.push(v.as_u64().unwrap_or(0) as u8);
            }
        }
        (Encoding::Plain, ColumnType::U32 | ColumnType::U64) => {
            for v in vals {
                put_uvarint(out, v.as_u64().unwrap_or(0));
            }
        }
        (Encoding::Plain, ColumnType::F32) => {
            for v in vals {
                out.extend_from_slice(&v.as_f32().unwrap_or(0.0).to_le_bytes());
            }
        }
        (Encoding::Plain, ColumnType::Str) => {
            for v in vals {
                let s = v.as_str().unwrap_or("");
                put_uvarint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
        }
        (Encoding::Delta, _) => {
            encode_delta_u64(vals.iter().map(|v| v.as_u64().unwrap_or(0)), out);
        }
        (Encoding::Prefix, _) => {
            let mut prev = "";
            for v in vals {
                let s = v.as_str().unwrap_or("");
                let shared = prev
                    .as_bytes()
                    .iter()
                    .zip(s.as_bytes())
                    .take_while(|(a, b)| a == b)
                    .count();
                // Never split a UTF-8 sequence: back off to a char edge.
                let shared = (0..=shared).rev().find(|&n| s.is_char_boundary(n)).unwrap_or(0);
                put_uvarint(out, shared as u64);
                put_uvarint(out, (s.len() - shared) as u64);
                out.extend_from_slice(&s.as_bytes()[shared..]);
                prev = s;
            }
        }
    }
}

/// Decodes one column of `rows` cells; the slice must be consumed
/// exactly.
pub(crate) fn decode_column(
    ty: ColumnType,
    enc: Encoding,
    rows: usize,
    data: &[u8],
) -> Result<Vec<Value>, StoreError> {
    let mut cur = Cur::new(data);
    let mut out = Vec::with_capacity(rows);
    match (enc, ty) {
        (Encoding::Plain, ColumnType::U8) => {
            for _ in 0..rows {
                out.push(Value::U8(cur.get_u8()?));
            }
        }
        (Encoding::Plain, ColumnType::U32) => {
            for _ in 0..rows {
                let v = cur.get_uvarint()?;
                let v = u32::try_from(v)
                    .map_err(|_| StoreError::corrupt("u32 column value overflows"))?;
                out.push(Value::U32(v));
            }
        }
        (Encoding::Plain, ColumnType::U64) => {
            for _ in 0..rows {
                out.push(Value::U64(cur.get_uvarint()?));
            }
        }
        (Encoding::Plain, ColumnType::F32) => {
            for _ in 0..rows {
                out.push(Value::F32(cur.get_f32_le()?));
            }
        }
        (Encoding::Plain, ColumnType::Str) => {
            for _ in 0..rows {
                let len = cur.get_uvarint()? as usize;
                let bytes = cur.take(len)?;
                let s = String::from_utf8(bytes.to_vec())
                    .map_err(|_| StoreError::corrupt("invalid UTF-8 in string column"))?;
                out.push(Value::Str(s));
            }
        }
        (Encoding::Delta, ColumnType::U32) => {
            for v in decode_delta_u64(&mut cur, rows)? {
                let v = u32::try_from(v)
                    .map_err(|_| StoreError::corrupt("u32 delta column value overflows"))?;
                out.push(Value::U32(v));
            }
        }
        (Encoding::Delta, _) => {
            for v in decode_delta_u64(&mut cur, rows)? {
                out.push(Value::U64(v));
            }
        }
        (Encoding::Prefix, _) => {
            let mut prev = String::new();
            for _ in 0..rows {
                let shared = cur.get_uvarint()? as usize;
                let suffix_len = cur.get_uvarint()? as usize;
                if shared > prev.len() || !prev.is_char_boundary(shared) {
                    return Err(StoreError::corrupt("prefix length exceeds previous value"));
                }
                let suffix = cur.take(suffix_len)?;
                let mut s = String::with_capacity(shared + suffix_len);
                s.push_str(&prev[..shared]);
                s.push_str(
                    std::str::from_utf8(suffix)
                        .map_err(|_| StoreError::corrupt("invalid UTF-8 in prefix column"))?,
                );
                out.push(Value::Str(s.clone()));
                prev = s;
            }
        }
    }
    cur.done("column")?;
    Ok(out)
}

/// A decoded block: row keys, user columns (column-major) and the
/// per-column footer stats.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BlockData {
    pub(crate) keys: Vec<RowKey>,
    pub(crate) columns: Vec<Vec<Value>>,
    pub(crate) stats: Vec<ColumnStats>,
}

/// Encodes a block payload (row count, implicit key columns, then each
/// user column with its footer). The record framing
/// (`len | payload | crc`) is applied by the writer.
pub(crate) fn encode_block_payload(schema: &Schema, keys: &[RowKey], rows: &[Vec<Value>]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    let mut scratch = Vec::new();
    for key_col in 0..3 {
        scratch.clear();
        encode_delta_u64(
            keys.iter().map(|k| match key_col {
                0 => u64::from(k.epoch),
                1 => u64::from(k.batch),
                _ => k.fault_id,
            }),
            &mut scratch,
        );
        payload.extend_from_slice(&(scratch.len() as u32).to_le_bytes());
        payload.extend_from_slice(&scratch);
    }
    let mut col_vals = Vec::with_capacity(keys.len());
    for (ci, spec) in schema.columns.iter().enumerate() {
        col_vals.clear();
        for row in rows {
            col_vals.push(row[ci].clone());
        }
        scratch.clear();
        encode_column(spec.ty, spec.encoding, &col_vals, &mut scratch);
        payload.extend_from_slice(&(scratch.len() as u32).to_le_bytes());
        payload.extend_from_slice(&scratch);
        let stats = column_stats(spec.ty, &col_vals);
        payload.push(u8::from(stats.present));
        payload.extend_from_slice(&stats.min_bits.to_le_bytes());
        payload.extend_from_slice(&stats.max_bits.to_le_bytes());
    }
    payload
}

/// Inverse of [`encode_block_payload`].
pub(crate) fn decode_block_payload(schema: &Schema, payload: &[u8]) -> Result<BlockData, StoreError> {
    let mut cur = Cur::new(payload);
    let rows = cur.get_u32_le()? as usize;
    let mut key_cols = Vec::with_capacity(3);
    for _ in 0..3 {
        let len = cur.get_u32_le()? as usize;
        let bytes = cur.take(len)?;
        let mut kcur = Cur::new(bytes);
        let vals = decode_delta_u64(&mut kcur, rows)?;
        kcur.done("key column")?;
        key_cols.push(vals);
    }
    let keys = (0..rows)
        .map(|i| {
            Ok(RowKey {
                epoch: u32::try_from(key_cols[0][i])
                    .map_err(|_| StoreError::corrupt("epoch overflows u32"))?,
                batch: u32::try_from(key_cols[1][i])
                    .map_err(|_| StoreError::corrupt("batch overflows u32"))?,
                fault_id: key_cols[2][i],
            })
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    let mut columns = Vec::with_capacity(schema.columns.len());
    let mut stats = Vec::with_capacity(schema.columns.len());
    for spec in &schema.columns {
        let len = cur.get_u32_le()? as usize;
        let bytes = cur.take(len)?;
        columns.push(decode_column(spec.ty, spec.encoding, rows, bytes)?);
        let present = cur.get_u8()? != 0;
        let min_bits = cur.get_u64_le()?;
        let max_bits = cur.get_u64_le()?;
        stats.push(ColumnStats { present, min_bits, max_bits });
    }
    cur.done("block payload")?;
    Ok(BlockData { keys, columns, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            buf.clear();
            put_uvarint(&mut buf, v);
            let mut cur = Cur::new(&buf);
            assert_eq!(cur.get_uvarint().unwrap(), v);
            cur.done("varint").unwrap();
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        let buf = [0xFFu8; 11];
        assert!(Cur::new(&buf).get_uvarint().is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn delta_round_trips_non_monotone() {
        let vals = [5u64, 3, 3, 100, 0, u64::MAX, 1];
        let mut buf = Vec::new();
        encode_delta_u64(vals.iter().copied(), &mut buf);
        let mut cur = Cur::new(&buf);
        assert_eq!(decode_delta_u64(&mut cur, vals.len()).unwrap(), vals);
        cur.done("delta").unwrap();
    }

    #[test]
    fn prefix_coding_round_trips() {
        let vals: Vec<Value> = ["img_000.png", "img_001.png", "img_010.png", "", "zzz", "zzz"]
            .iter()
            .map(|s| Value::Str((*s).into()))
            .collect();
        let mut buf = Vec::new();
        encode_column(ColumnType::Str, Encoding::Prefix, &vals, &mut buf);
        let back = decode_column(ColumnType::Str, Encoding::Prefix, vals.len(), &buf).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn prefix_coding_respects_char_boundaries() {
        let vals: Vec<Value> =
            ["caf\u{e9}_a", "caf\u{e8}_b"].iter().map(|s| Value::Str((*s).into())).collect();
        let mut buf = Vec::new();
        encode_column(ColumnType::Str, Encoding::Prefix, &vals, &mut buf);
        let back = decode_column(ColumnType::Str, Encoding::Prefix, vals.len(), &buf).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn f32_columns_preserve_nan_payloads() {
        let weird = f32::from_bits(0x7FC0_1234);
        let vals = vec![
            Value::F32(1.5),
            Value::F32(weird),
            Value::F32(f32::INFINITY),
            Value::F32(f32::NEG_INFINITY),
            Value::F32(-0.0),
        ];
        let mut buf = Vec::new();
        encode_column(ColumnType::F32, Encoding::Plain, &vals, &mut buf);
        let back = decode_column(ColumnType::F32, Encoding::Plain, vals.len(), &buf).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn float_stats_skip_nan() {
        let vals = vec![Value::F32(f32::NAN), Value::F32(2.0), Value::F32(-1.0)];
        let s = column_stats(ColumnType::F32, &vals);
        assert!(s.present);
        assert_eq!(f32::from_bits(s.min_bits as u32), -1.0);
        assert_eq!(f32::from_bits(s.max_bits as u32), 2.0);
        let all_nan = vec![Value::F32(f32::NAN)];
        assert!(!column_stats(ColumnType::F32, &all_nan).present);
    }

    #[test]
    fn int_stats_cover_range() {
        let vals = vec![Value::U32(7), Value::U32(3), Value::U32(9)];
        let s = column_stats(ColumnType::U32, &vals);
        assert_eq!((s.present, s.min_bits, s.max_bits), (true, 3, 9));
    }

    #[test]
    fn header_round_trips_and_detects_corruption() {
        let schema = Schema::new(vec![
            ColumnSpec::new("id", ColumnType::U64, Encoding::Delta),
            ColumnSpec::new("name", ColumnType::Str, Encoding::Prefix),
        ])
        .with_meta("kind", "classification");
        let bytes = encode_header(&schema, 256);
        let (back, block_rows, len) = decode_header(&bytes).unwrap();
        assert_eq!(back, schema);
        assert_eq!(block_rows, 256);
        assert_eq!(len, bytes.len());
        let mut bad = bytes.clone();
        bad[10] ^= 1;
        assert!(decode_header(&bad).is_err());
    }

    #[test]
    fn index_round_trips() {
        let entries = vec![IndexEntry {
            offset: 64,
            len: 1000,
            rows: 256,
            first: RowKey::new(0, 0, 0),
            last: RowKey::new(0, 3, 255),
        }];
        let bytes = encode_index(&entries);
        assert_eq!(bytes.len(), INDEX_ENTRY_LEN);
        assert_eq!(decode_index(&bytes).unwrap(), entries);
        assert!(decode_index(&bytes[..40]).is_err());
    }
}
