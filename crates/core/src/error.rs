//! Error type for the fault-injection core.

use alfi_nn::NnError;
use alfi_scenario::ScenarioError;
use alfi_store::StoreError;
use alfi_tensor::gemm::KernelEnvError;
use std::fmt;

/// Error produced by fault generation, injection or persistence.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An underlying network operation failed.
    Nn(NnError),
    /// The scenario was malformed or inconsistent with the model.
    Scenario(ScenarioError),
    /// The scenario selects no injectable layers for this model
    /// (type filter and layer range exclude everything).
    NoInjectableLayers,
    /// A fault record references coordinates outside the target tensor.
    FaultOutOfBounds {
        /// Description of the offending record.
        detail: String,
    },
    /// A persisted fault or trace file failed validation.
    CorruptFile {
        /// Which file kind failed (`fault` / `trace`).
        kind: &'static str,
        /// Description of the problem.
        reason: String,
    },
    /// File I/O failed.
    Io(String),
    /// The columnar result store reported an error (I/O, corruption or
    /// a row that does not match the campaign's schema).
    Store(StoreError),
    /// The fault matrix is exhausted (more models requested than faults
    /// pre-generated).
    MatrixExhausted,
    /// A parallel campaign worker panicked; the panic was contained by
    /// the thread pool and surfaced as an error instead of unwinding
    /// through (or double-panicking in) the campaign driver.
    WorkerPanic {
        /// The captured panic message.
        message: String,
    },
    /// `ALFI_KERNEL` or `ALFI_KERNEL_PORTABLE` holds a value it does
    /// not accept.
    KernelEnv(KernelEnvError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Nn(e) => write!(f, "network error: {e}"),
            CoreError::Scenario(e) => write!(f, "{e}"),
            CoreError::NoInjectableLayers => {
                f.write_str("scenario selects no injectable layers in this model")
            }
            CoreError::FaultOutOfBounds { detail } => {
                write!(f, "fault location out of bounds: {detail}")
            }
            CoreError::CorruptFile { kind, reason } => {
                write!(f, "corrupt {kind} file: {reason}")
            }
            CoreError::Io(msg) => write!(f, "i/o error: {msg}"),
            CoreError::Store(e) => write!(f, "result store error: {e}"),
            CoreError::MatrixExhausted => {
                f.write_str("fault matrix exhausted: no pre-generated faults remain")
            }
            CoreError::WorkerPanic { message } => {
                write!(f, "campaign worker panicked: {message}")
            }
            CoreError::KernelEnv(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Nn(e) => Some(e),
            CoreError::Scenario(e) => Some(e),
            CoreError::Store(e) => Some(e),
            CoreError::KernelEnv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<ScenarioError> for CoreError {
    fn from(e: ScenarioError) -> Self {
        CoreError::Scenario(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e.to_string())
    }
}

impl From<StoreError> for CoreError {
    fn from(e: StoreError) -> Self {
        CoreError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CoreError::MatrixExhausted.to_string().contains("exhausted"));
        assert!(CoreError::NoInjectableLayers.to_string().contains("injectable"));
        let e = CoreError::CorruptFile { kind: "fault", reason: "bad checksum".into() };
        assert!(e.to_string().contains("fault") && e.to_string().contains("checksum"));
    }

    #[test]
    fn sources_are_chained() {
        let e = CoreError::from(NnError::NoSuchNode(1));
        assert!(std::error::Error::source(&e).is_some());
    }
}
