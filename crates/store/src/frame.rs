//! The sealed frame every single-body ALFI file shares — the fault
//! matrix (`faults.bin`), the run trace (`trace.bin`) and weight
//! checkpoints:
//!
//! ```text
//! 8-byte magic · u32 version · u64 body length · u32 CRC32(body) · body
//! ```
//!
//! All integers are little-endian. A file's owner picks the magic and
//! version and lays out the body; [`seal`] writes the frame around it
//! and [`open`] checks the frame and hands the body back, so a
//! truncated, padded or corrupted file is rejected before its body is
//! read.
//!
//! ```
//! use alfi_store::frame;
//!
//! let sealed = frame::seal(b"EXAMPLE1", 1, b"body");
//! assert_eq!(frame::open(&sealed, b"EXAMPLE1", 1).unwrap(), b"body");
//! let mut damaged = sealed.clone();
//! damaged[25] ^= 1;
//! assert!(frame::open(&damaged, b"EXAMPLE1", 1).is_err());
//! ```

use crate::codec::Cur;
use crate::{crc32, StoreError};

/// Bytes in front of the body: magic, version, body length, CRC32.
const HEADER_LEN: usize = 24;

/// Frames `body` under `magic` and `version`.
pub fn seal(magic: &[u8; 8], version: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Checks a sealed frame's magic, version, body length and checksum,
/// and returns its body.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] whose reason is `bad magic`,
/// `unsupported version …`, `body length mismatch …`, `checksum
/// mismatch` or `truncated …`.
pub fn open<'a>(data: &'a [u8], magic: &[u8; 8], version: u32) -> Result<&'a [u8], StoreError> {
    let mut cur = Cur::new(data);
    if cur.take(8)? != magic {
        return Err(StoreError::corrupt("bad magic"));
    }
    let found = cur.get_u32_le()?;
    if found != version {
        return Err(StoreError::corrupt(format!("unsupported version {found}")));
    }
    let body_len = cur.get_u64_le()?;
    let checksum = cur.get_u32_le()?;
    let body = cur.take(cur.remaining())?;
    if body.len() as u64 != body_len {
        return Err(StoreError::corrupt(format!(
            "body length mismatch: header says {body_len}, got {}",
            body.len()
        )));
    }
    if crc32(body) != checksum {
        return Err(StoreError::corrupt("checksum mismatch"));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_damage_has_its_reason() {
        let sealed = seal(b"TESTFRM1", 3, b"payload");
        assert_eq!(sealed.len(), HEADER_LEN + 7);
        assert_eq!(open(&sealed, b"TESTFRM1", 3).unwrap(), b"payload");
        let reason = |data: &[u8]| open(data, b"TESTFRM1", 3).unwrap_err().reason().to_string();
        assert_eq!(reason(&seal(b"OTHERFM1", 3, b"payload")), "bad magic");
        assert_eq!(reason(&seal(b"TESTFRM1", 4, b"payload")), "unsupported version 4");
        let (short, long) = (&sealed[..sealed.len() - 1], [&sealed[..], b"!"].concat());
        assert_eq!(reason(short), "body length mismatch: header says 7, got 6");
        assert_eq!(reason(&long), "body length mismatch: header says 7, got 8");
        let mut flipped = sealed.clone();
        flipped[HEADER_LEN] ^= 0x20;
        assert_eq!(reason(&flipped), "checksum mismatch");
        assert!(reason(&sealed[..10]).starts_with("truncated"));
    }
}
