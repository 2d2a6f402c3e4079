#![warn(missing_docs)]
//! # alfi-analyze
//!
//! Post-run campaign analysis for the ALFI workspace. A fault-injection
//! campaign is only as useful as the questions its artifacts can answer
//! afterwards (PAPER.md §IV pitches validation *efficiency*, which
//! presumes the output of a large campaign is interpretable without
//! re-running it). This crate reads the finished-run artifact set —
//! `rows.alfic` / `results_*.csv`, `events.jsonl`, `scenario.yml` — and
//! produces three deterministic views:
//!
//! * [`report::analyze_dir`] — a per-layer × per-bit-position ×
//!   per-fault-mode vulnerability report (SDC/DUE/masked rates with
//!   Wilson confidence intervals), rendered as `report.json` and
//!   `report.md`; [`report::analyze_result`] builds it from an
//!   in-memory result, and [`kpi`] adds the row KPIs it lacks;
//! * [`diff::diff_reports`] — a CI-aware comparison of two runs whose
//!   per-layer rate deltas are flagged significant only when the
//!   intervals separate;
//! * [`trace_export::chrome_trace`] — the `events.jsonl` log converted
//!   to Chrome-trace/Perfetto JSON with deterministic, replay-ordinal
//!   timestamps (never wall clock) plus a flame-style self-time
//!   attribution table.
//!
//! # Determinism contract
//!
//! Everything this crate emits is a pure function of the deterministic
//! artifacts: reports are byte-identical whether the run used 1, 2, 4
//! or 7 pool threads, and identical whether the rows came from the CSV
//! artifacts or the columnar binary store. To that end the report
//! deliberately excludes the event header's `threads` field and all
//! wall-clock timing (span durations live in the in-memory
//! [`TraceSummary`](alfi_trace::TraceSummary), not in the artifacts).
//!
//! `alfi classify --report` (or a scenario's `report: true` key) runs
//! [`report::analyze_dir`] and [`report::write_report_files`] over the
//! finished run's directory, as `alfi analyze report` does.
//!
//! # Example
//!
//! ```no_run
//! let report = alfi_analyze::report::analyze_dir("runs/campaign")?;
//! println!("{}", report.to_markdown());
//! # Ok::<(), alfi_analyze::AnalyzeError>(())
//! ```

pub mod diff;
pub mod kpi;
pub mod report;
mod rows;
pub mod trace_export;

pub use report::{CampaignReport, RateBlock, StopReport, REPORT_JSON, REPORT_MD};
pub use rows::FaultKey;

use std::fmt;

/// An analysis failure: missing or malformed artifacts, or I/O.
#[derive(Debug)]
pub enum AnalyzeError {
    /// The run directory holds no artifact the analyzer understands.
    Missing(String),
    /// An artifact existed but could not be parsed.
    Parse(String),
    /// Filesystem failure.
    Io(String),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Missing(m) => write!(f, "missing artifact: {m}"),
            AnalyzeError::Parse(m) => write!(f, "malformed artifact: {m}"),
            AnalyzeError::Io(m) => write!(f, "io: {m}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<std::io::Error> for AnalyzeError {
    fn from(e: std::io::Error) -> Self {
        AnalyzeError::Io(e.to_string())
    }
}

impl From<alfi_store::StoreError> for AnalyzeError {
    fn from(e: alfi_store::StoreError) -> Self {
        AnalyzeError::Parse(format!("store: {e}"))
    }
}

impl From<alfi_trace::EventLogError> for AnalyzeError {
    fn from(e: alfi_trace::EventLogError) -> Self {
        AnalyzeError::Parse(format!("event log: {e}"))
    }
}
