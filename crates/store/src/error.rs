//! Typed errors for the columnar store.

use std::fmt;

/// Everything that can go wrong reading or writing a columnar store
/// file.
///
/// `Clone + PartialEq` like the other ALFI error enums so campaign
/// results that embed one stay comparable in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (open/read/write/seek). Carries the rendered
    /// `std::io::Error` so the enum stays `Clone`.
    Io(String),
    /// Structural damage: bad magic, checksum mismatch, truncation,
    /// unknown tags, out-of-order keys.
    Corrupt {
        /// Human-readable description of the damage.
        reason: String,
    },
    /// Schema misuse: duplicate columns, an encoding that does not fit
    /// the column type, or an appended row that does not match the
    /// declared schema.
    Schema {
        /// Human-readable description of the mismatch.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { reason } => write!(f, "corrupt store file: {reason}"),
            StoreError::Schema { reason } => write!(f, "store schema error: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl StoreError {
    /// Shorthand for a [`StoreError::Corrupt`] with a formatted reason.
    pub fn corrupt(reason: impl Into<String>) -> Self {
        StoreError::Corrupt { reason: reason.into() }
    }

    /// Shorthand for a [`StoreError::Schema`] with a formatted reason.
    pub fn schema(reason: impl Into<String>) -> Self {
        StoreError::Schema { reason: reason.into() }
    }

    /// The message without the `store` prefix [`Display`](fmt::Display)
    /// adds — for owners of other formats that read with
    /// [`Cur`](crate::Cur) or [`frame::open`](crate::frame::open) and
    /// report under their own error type.
    pub fn reason(&self) -> &str {
        match self {
            StoreError::Io(reason)
            | StoreError::Corrupt { reason }
            | StoreError::Schema { reason } => reason,
        }
    }
}
