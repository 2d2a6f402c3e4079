//! Metered store reader with O(1) replay lookup.

use crate::codec::{
    decode_block_payload, decode_header, decode_index, ColumnStats, IndexEntry, END_MAGIC,
    TRAILER_LEN,
};
use crate::crc32;
use crate::error::StoreError;
use crate::schema::{RowKey, Schema, Value};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// One decoded row: its replay key plus the user cells in schema
/// column order.
pub type Row = (RowKey, Vec<Value>);

/// Reads a columnar store file. `open` parses only the header, trailer
/// and block index; block payloads are fetched on demand, so a
/// [`lookup_fault`] touches exactly the blocks whose key range covers
/// the requested fault id. Every byte fetched from the file is counted
/// in [`bytes_read`] — the read-bytes meter test pins the O(1) lookup
/// guarantee on that counter.
///
/// [`lookup_fault`]: StoreReader::lookup_fault
/// [`bytes_read`]: StoreReader::bytes_read
pub struct StoreReader {
    file: File,
    schema: Schema,
    block_rows: u32,
    index: Vec<IndexEntry>,
    total_rows: u64,
    bytes_read: u64,
    blocks_read: u64,
}

impl StoreReader {
    /// Opens a store file, validating header, trailer and index
    /// checksums.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure and
    /// [`StoreError::Corrupt`] on structural damage.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mut file = File::open(path.as_ref())?;
        let file_len = file.metadata()?.len();
        let mut bytes_read = 0u64;
        if file_len < TRAILER_LEN {
            return Err(StoreError::corrupt("file shorter than trailer"));
        }
        // Header: read the fixed prelude, then extend until the parser
        // stops asking for more bytes. Headers are tiny (tens of
        // columns), so doubling reads converge immediately.
        let mut header = vec![0u8; 24.min(file_len as usize)];
        file.read_exact(&mut header)?;
        bytes_read += header.len() as u64;
        let (schema, block_rows, _header_len) = loop {
            match decode_header(&header) {
                Ok(parts) => break parts,
                Err(_) if (header.len() as u64) < file_len => {
                    let grow = header.len().clamp(64, 4096);
                    let new_len = (header.len() + grow).min(file_len as usize);
                    let old_len = header.len();
                    header.resize(new_len, 0);
                    file.read_exact(&mut header[old_len..])?;
                    bytes_read += (new_len - old_len) as u64;
                }
                Err(e) => return Err(e),
            }
        };
        // Trailer.
        file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact(&mut trailer)?;
        bytes_read += TRAILER_LEN;
        if &trailer[24..32] != END_MAGIC {
            return Err(StoreError::corrupt("bad end magic (truncated file?)"));
        }
        let index_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap_or([0; 8]));
        let index_len = u32::from_le_bytes(trailer[8..12].try_into().unwrap_or([0; 4])) as u64;
        let index_crc = u32::from_le_bytes(trailer[12..16].try_into().unwrap_or([0; 4]));
        let total_rows = u64::from_le_bytes(trailer[16..24].try_into().unwrap_or([0; 8]));
        if index_offset + index_len + TRAILER_LEN != file_len {
            return Err(StoreError::corrupt("index span does not reach the trailer"));
        }
        // Index.
        file.seek(SeekFrom::Start(index_offset))?;
        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_exact(&mut index_bytes)?;
        bytes_read += index_len;
        if crc32(&index_bytes) != index_crc {
            return Err(StoreError::corrupt("index checksum mismatch"));
        }
        let index = decode_index(&index_bytes)?;
        let indexed_rows: u64 = index.iter().map(|e| u64::from(e.rows)).sum();
        if indexed_rows != total_rows {
            return Err(StoreError::corrupt("index row count disagrees with trailer"));
        }
        Ok(StoreReader {
            file,
            schema,
            block_rows,
            index,
            total_rows,
            bytes_read,
            blocks_read: 0,
        })
    }

    /// The file's column directory and metadata.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A header metadata value, if present.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.schema.meta.get(key).map(String::as_str)
    }

    /// Rows per full block, as declared in the header.
    pub fn block_rows(&self) -> u32 {
        self.block_rows
    }

    /// Total rows in the file (from the trailer).
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Number of blocks in the file.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Cumulative bytes fetched from the file so far (header, trailer,
    /// index and every block payload read).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Number of block payloads fetched so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    fn read_block(&mut self, idx: usize) -> Result<crate::codec::BlockData, StoreError> {
        let entry = self.index[idx];
        self.file.seek(SeekFrom::Start(entry.offset))?;
        let mut record = vec![0u8; entry.len as usize];
        self.file.read_exact(&mut record)?;
        self.bytes_read += u64::from(entry.len);
        self.blocks_read += 1;
        if record.len() < 8 {
            return Err(StoreError::corrupt("block record shorter than framing"));
        }
        let payload_len = u32::from_le_bytes(record[0..4].try_into().unwrap_or([0; 4])) as usize;
        if payload_len + 8 != record.len() {
            return Err(StoreError::corrupt("block length disagrees with index"));
        }
        let payload = &record[4..4 + payload_len];
        let stored_crc =
            u32::from_le_bytes(record[4 + payload_len..].try_into().unwrap_or([0; 4]));
        if crc32(payload) != stored_crc {
            return Err(StoreError::corrupt("block checksum mismatch"));
        }
        let block = decode_block_payload(&self.schema, payload)?;
        if block.keys.len() != entry.rows as usize {
            return Err(StoreError::corrupt("block row count disagrees with index"));
        }
        Ok(block)
    }

    /// Each column's values, to be moved out one row at a time: every
    /// column of a decoded block holds one value per key.
    fn column_iters(columns: Vec<Vec<Value>>) -> Vec<std::vec::IntoIter<Value>> {
        columns.into_iter().map(Vec::into_iter).collect()
    }

    fn block_to_rows(block: crate::codec::BlockData) -> Vec<Row> {
        let mut cols = Self::column_iters(block.columns);
        block
            .keys
            .into_iter()
            .map(|key| (key, cols.iter_mut().filter_map(Iterator::next).collect()))
            .collect()
    }

    /// Decodes every row in file order.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] or [`StoreError::Corrupt`].
    pub fn scan(&mut self) -> Result<Vec<Row>, StoreError> {
        let mut out = Vec::with_capacity(self.total_rows as usize);
        for idx in 0..self.index.len() {
            out.extend(Self::block_to_rows(self.read_block(idx)?));
        }
        Ok(out)
    }

    /// Streams every row in file order through `f` without ever
    /// materializing more than one decoded block — the scan primitive
    /// for aggregation passes (e.g. `alfi-analyze` report generation)
    /// over stores too large to hold as a `Vec<Row>`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] or [`StoreError::Corrupt`], or the
    /// first error `f` returns (which aborts the scan).
    pub fn for_each_row<F>(&mut self, mut f: F) -> Result<(), StoreError>
    where
        F: FnMut(&RowKey, &[Value]) -> Result<(), StoreError>,
    {
        let mut row = Vec::new();
        for idx in 0..self.index.len() {
            let block = self.read_block(idx)?;
            let mut cols = Self::column_iters(block.columns);
            for key in &block.keys {
                row.clear();
                row.extend(cols.iter_mut().filter_map(Iterator::next));
                f(key, &row)?;
            }
        }
        Ok(())
    }

    /// Replay lookup: every row whose key's `fault_id` equals the
    /// argument. Binary-searches the block index, then reads only the
    /// covering block(s) — for a fault that lives in one block this is
    /// exactly one block fetch regardless of file size.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] or [`StoreError::Corrupt`].
    pub fn lookup_fault(&mut self, fault_id: u64) -> Result<Vec<Row>, StoreError> {
        // First block whose key range might contain the id.
        let start = self.index.partition_point(|e| e.last.fault_id < fault_id);
        let mut out = Vec::new();
        for idx in start..self.index.len() {
            if self.index[idx].first.fault_id > fault_id {
                break;
            }
            let block = self.read_block(idx)?;
            out.extend(
                Self::block_to_rows(block).into_iter().filter(|(k, _)| k.fault_id == fault_id),
            );
        }
        Ok(out)
    }

    /// The per-column min/max footer of one block (by block index).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] for an out-of-range block, or
    /// any block read failure.
    pub fn block_column_stats(&mut self, block_idx: usize) -> Result<Vec<ColumnStats>, StoreError> {
        if block_idx >= self.index.len() {
            return Err(StoreError::corrupt(format!("block {block_idx} out of range")));
        }
        Ok(self.read_block(block_idx)?.stats)
    }
}
