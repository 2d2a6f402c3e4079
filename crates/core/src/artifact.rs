//! Campaign artifact layout and the row-persistence API.
//!
//! Everything a campaign writes under `RunConfig::save_dir` goes
//! through this module:
//!
//! * [`Artifacts`] is the single source of truth for the file names in
//!   a campaign output directory (previously scattered as string
//!   literals across the campaign runners).
//! * [`ArtifactSink`] is the streaming persistence interface the
//!   campaign [`Engine`](crate::campaign::Engine) drives at scope
//!   boundaries: one [`append`](ArtifactSink::append) per result row
//!   as it is produced, one [`finalize`](ArtifactSink::finalize) at
//!   the end of the run. Campaign tasks construct their sink through
//!   `CampaignTask::make_row_sink`, choosing between the historical
//!   CSV files and the columnar binary store by
//!   [`ArtifactFormat`](alfi_scenario::ArtifactFormat).
//! * [`ColumnarSink`] adapts any row type to an `alfi-store` columnar
//!   file via a row-to-values projection.
//! * [`text_to_store`] / [`store_to_texts`] convert between the
//!   columnar format and the text artifacts byte-exactly (the
//!   `alfi store convert` CLI command).
//!
//! Rows carry an explicit [`RowKey`] `(epoch, batch, fault_id)`
//! assigned by the engine identically for the sequential and parallel
//! drivers, so binary artifacts are byte-identical at every thread
//! count, exactly like the CSVs they replace.

use crate::error::CoreError;
use alfi_store::{
    ColumnSpec, ColumnType, Encoding, RowKey, Schema, StoreReader, StoreStats, StoreWriter,
    Value, DEFAULT_BLOCK_ROWS,
};
use std::path::{Path, PathBuf};

/// Documented file layout of a campaign output directory.
///
/// ```
/// use alfi_core::artifact::Artifacts;
///
/// let a = Artifacts::new("/tmp/run");
/// assert!(a.faults().ends_with("faults.bin"));
/// assert!(a.rows_store().ends_with("rows.alfic"));
/// ```
#[derive(Debug, Clone)]
pub struct Artifacts {
    dir: PathBuf,
}

impl Artifacts {
    /// Replayable scenario parameters (YAML).
    pub const SCENARIO: &'static str = "scenario.yml";
    /// Pre-generated fault matrix (versioned, checksummed binary).
    pub const FAULTS: &'static str = "faults.bin";
    /// Applied-fault trace with NaN/Inf counts (binary).
    pub const TRACE: &'static str = "trace.bin";
    /// Fault-free model rows (CSV format).
    pub const ROWS_ORIG: &'static str = "results_orig.csv";
    /// Fault-injected model rows (CSV format).
    pub const ROWS_CORR: &'static str = "results_corr.csv";
    /// Hardened model rows, present only when a resil model ran
    /// (CSV format).
    pub const ROWS_RESIL: &'static str = "results_resil.csv";
    /// All result rows in one columnar store (binary format).
    pub const ROWS_STORE: &'static str = "rows.alfic";
    /// Detection rows as JSON lines (produced by `store convert`).
    pub const ROWS_JSONL: &'static str = "rows.jsonl";
    /// JSONL event log (with an enabled recorder).
    pub const EVENTS: &'static str = alfi_trace::EVENTS_FILE;
    /// Prometheus metrics snapshot (with metrics attached).
    pub const METRICS: &'static str = alfi_metrics::SNAPSHOT_FILE;

    /// Names the artifact set rooted at `dir`.
    pub fn new(dir: impl AsRef<Path>) -> Self {
        Artifacts { dir: dir.as_ref().to_path_buf() }
    }

    /// The output directory itself.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of [`Artifacts::SCENARIO`].
    pub fn scenario(&self) -> PathBuf {
        self.dir.join(Self::SCENARIO)
    }

    /// Path of [`Artifacts::FAULTS`].
    pub fn faults(&self) -> PathBuf {
        self.dir.join(Self::FAULTS)
    }

    /// Path of [`Artifacts::TRACE`].
    pub fn trace(&self) -> PathBuf {
        self.dir.join(Self::TRACE)
    }

    /// Path of [`Artifacts::ROWS_ORIG`].
    pub fn rows_orig(&self) -> PathBuf {
        self.dir.join(Self::ROWS_ORIG)
    }

    /// Path of [`Artifacts::ROWS_CORR`].
    pub fn rows_corr(&self) -> PathBuf {
        self.dir.join(Self::ROWS_CORR)
    }

    /// Path of [`Artifacts::ROWS_RESIL`].
    pub fn rows_resil(&self) -> PathBuf {
        self.dir.join(Self::ROWS_RESIL)
    }

    /// Path of [`Artifacts::ROWS_STORE`].
    pub fn rows_store(&self) -> PathBuf {
        self.dir.join(Self::ROWS_STORE)
    }
}

/// What an [`ArtifactSink`] persisted over the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkStats {
    /// Result rows appended.
    pub rows: u64,
    /// Bytes written across all row artifacts.
    pub bytes: u64,
}

impl From<StoreStats> for SinkStats {
    fn from(s: StoreStats) -> Self {
        SinkStats { rows: s.rows, bytes: s.bytes }
    }
}

/// Streaming row persistence driven by the campaign engine.
///
/// The engine calls [`append`](ArtifactSink::append) once per result
/// row, in deterministic row order with a deterministic [`RowKey`],
/// and [`finalize`](ArtifactSink::finalize) exactly once after the
/// drivers return (under the `persist` trace phase). Implementations
/// must make the on-disk bytes a pure function of the appended
/// sequence so artifacts stay byte-identical at every thread count.
pub trait ArtifactSink<R> {
    /// Appends one result row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] / [`CoreError::Store`] on write
    /// failures.
    fn append(&mut self, key: RowKey, row: &R) -> Result<(), CoreError>;

    /// Flushes and closes every artifact, returning write totals.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] / [`CoreError::Store`] on write
    /// failures, and [`CoreError::Io`] if called twice.
    fn finalize(&mut self) -> Result<SinkStats, CoreError>;
}

/// Projection from one campaign row to its store column values.
type RowProjection<R> = Box<dyn Fn(&R) -> Vec<Value>>;

/// [`ArtifactSink`] writing rows into one `alfi-store` columnar file
/// through a row-to-values projection.
pub struct ColumnarSink<R> {
    writer: Option<StoreWriter>,
    to_values: RowProjection<R>,
}

impl<R> std::fmt::Debug for ColumnarSink<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarSink").field("open", &self.writer.is_some()).finish()
    }
}

impl<R> ColumnarSink<R> {
    /// Creates the store file at `path` with the given schema; each
    /// appended row is projected to column values by `to_values`
    /// (which must match the schema's arity and types).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Store`] for an invalid schema or on I/O
    /// failure.
    pub fn create(
        path: impl AsRef<Path>,
        schema: Schema,
        to_values: impl Fn(&R) -> Vec<Value> + 'static,
    ) -> Result<Self, CoreError> {
        let writer = StoreWriter::create(path, schema, DEFAULT_BLOCK_ROWS)?;
        Ok(ColumnarSink { writer: Some(writer), to_values: Box::new(to_values) })
    }
}

impl<R> ArtifactSink<R> for ColumnarSink<R> {
    fn append(&mut self, key: RowKey, row: &R) -> Result<(), CoreError> {
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| CoreError::Io("columnar sink already finalized".into()))?;
        writer.append(key, &(self.to_values)(row))?;
        Ok(())
    }

    fn finalize(&mut self) -> Result<SinkStats, CoreError> {
        let writer = self
            .writer
            .take()
            .ok_or_else(|| CoreError::Io("columnar sink already finalized".into()))?;
        Ok(writer.finish()?.into())
    }
}

fn cell(values: &[Value], idx: usize) -> Result<&Value, CoreError> {
    values.get(idx).ok_or(CoreError::CorruptFile {
        kind: "store",
        reason: format!("row is missing column {idx}"),
    })
}

pub(crate) fn cell_u64(values: &[Value], idx: usize) -> Result<u64, CoreError> {
    cell(values, idx)?.as_u64().ok_or(CoreError::CorruptFile {
        kind: "store",
        reason: format!("column {idx} is not an integer"),
    })
}

pub(crate) fn cell_f32(values: &[Value], idx: usize) -> Result<f32, CoreError> {
    cell(values, idx)?.as_f32().ok_or(CoreError::CorruptFile {
        kind: "store",
        reason: format!("column {idx} is not an f32"),
    })
}

pub(crate) fn cell_str(values: &[Value], idx: usize) -> Result<&str, CoreError> {
    cell(values, idx)?.as_str().ok_or(CoreError::CorruptFile {
        kind: "store",
        reason: format!("column {idx} is not a string"),
    })
}

/// Splits `text` into lines, reporting whether a trailing newline was
/// present so the exact bytes can be reconstructed.
fn split_lines(text: &str) -> (Vec<&str>, bool) {
    match text.strip_suffix('\n') {
        Some(body) => {
            if body.is_empty() {
                (vec![""], true)
            } else {
                (body.split('\n').collect(), true)
            }
        }
        None if text.is_empty() => (Vec::new(), false),
        None => (text.split('\n').collect(), false),
    }
}

/// Converts a text artifact into a columnar store at `out`,
/// preserving the exact bytes: a `*.csv` `source_name` becomes one
/// string column per header field (`kind: csv`), anything else one
/// `line` column per line (`kind: lines`). [`store_to_texts`] inverts
/// the conversion byte-identically.
///
/// # Errors
///
/// Returns [`CoreError::Store`] on I/O failure, for a CSV header with
/// duplicate or empty field names, and [`CoreError::CorruptFile`] for
/// a CSV row whose field count differs from the header's.
pub fn text_to_store(text: &str, source_name: &str, out: &Path) -> Result<StoreStats, CoreError> {
    let (lines, trailing) = split_lines(text);
    let trailing = if trailing { "1" } else { "0" };
    if source_name.ends_with(".csv") && !lines.is_empty() {
        let header = lines[0];
        let fields: Vec<&str> = header.split(',').collect();
        let schema = Schema::new(
            fields
                .iter()
                .map(|f| ColumnSpec::new(*f, ColumnType::Str, Encoding::Prefix))
                .collect(),
        )
        .with_meta("kind", "csv")
        .with_meta("source", source_name)
        .with_meta("trailing_newline", trailing);
        let mut writer = StoreWriter::create(out, schema, DEFAULT_BLOCK_ROWS)?;
        for (i, line) in lines[1..].iter().enumerate() {
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != fields.len() {
                return Err(CoreError::CorruptFile {
                    kind: "store",
                    reason: format!(
                        "csv row {i} has {} fields, header has {}",
                        cells.len(),
                        fields.len()
                    ),
                });
            }
            let values: Vec<Value> = cells.into_iter().map(|c| Value::Str(c.into())).collect();
            writer.append(RowKey::new(0, 0, i as u64), &values)?;
        }
        Ok(writer.finish()?)
    } else {
        let schema =
            Schema::new(vec![ColumnSpec::new("line", ColumnType::Str, Encoding::Prefix)])
                .with_meta("kind", "lines")
                .with_meta("source", source_name)
                .with_meta("trailing_newline", trailing);
        let mut writer = StoreWriter::create(out, schema, DEFAULT_BLOCK_ROWS)?;
        for (i, line) in lines.iter().enumerate() {
            writer.append(RowKey::new(0, 0, i as u64), &[Value::Str((*line).into())])?;
        }
        Ok(writer.finish()?)
    }
}

/// Converts a columnar store back into its text artifacts, dispatching
/// on the store's `kind` metadata:
///
/// * `classification` → `results_orig.csv` / `results_corr.csv`
///   (/`results_resil.csv`), byte-identical to what a CSV-format run
///   writes;
/// * `detection` → `rows.jsonl`, one JSON object per row;
/// * `csv` / `lines` (from [`text_to_store`]) → the original file,
///   byte-identical.
///
/// Returns `(file_name, contents)` pairs; [`store_to_files`] writes
/// them to a directory.
///
/// # Errors
///
/// Returns [`CoreError::Store`] on I/O failure or corruption and
/// [`CoreError::CorruptFile`] for an unknown `kind` or rows that do
/// not match it.
pub fn store_to_texts(path: &Path) -> Result<Vec<(String, String)>, CoreError> {
    let mut reader = StoreReader::open(path)?;
    let kind = reader.meta("kind").unwrap_or("").to_string();
    match kind.as_str() {
        "classification" => {
            let resil = reader.meta("resil") == Some("1");
            let rows = reader.scan()?;
            crate::campaign::classification::store_rows_to_csvs(&rows, resil)
        }
        "detection" => {
            let resil = reader.meta("resil") == Some("1");
            let rows = reader.scan()?;
            let mut out = String::new();
            for (_, values) in &rows {
                out.push_str(&crate::campaign::detection::store_row_to_json_line(values, resil)?);
            }
            Ok(vec![(Artifacts::ROWS_JSONL.to_string(), out)])
        }
        "csv" => {
            let source = reader.meta("source").unwrap_or("converted.csv").to_string();
            let trailing = reader.meta("trailing_newline") != Some("0");
            let header: Vec<String> =
                reader.schema().columns.iter().map(|c| c.name.clone()).collect();
            let rows = reader.scan()?;
            let mut lines = vec![header.join(",")];
            for (_, values) in &rows {
                let cells: Result<Vec<&str>, CoreError> =
                    (0..values.len()).map(|i| cell_str(values, i)).collect();
                lines.push(cells?.join(","));
            }
            let mut text = lines.join("\n");
            if trailing {
                text.push('\n');
            }
            Ok(vec![(source, text)])
        }
        "lines" => {
            let source = reader.meta("source").unwrap_or("converted.txt").to_string();
            let trailing = reader.meta("trailing_newline") != Some("0");
            let rows = reader.scan()?;
            let mut lines = Vec::with_capacity(rows.len());
            for (_, values) in &rows {
                lines.push(cell_str(values, 0)?.to_string());
            }
            let mut text = lines.join("\n");
            if trailing {
                text.push('\n');
            }
            Ok(vec![(source, text)])
        }
        other => Err(CoreError::CorruptFile {
            kind: "store",
            reason: format!("unknown store kind `{other}`"),
        }),
    }
}

/// [`store_to_texts`], written into `out_dir` (created if needed).
/// Returns the paths written.
///
/// # Errors
///
/// As [`store_to_texts`], plus [`CoreError::Io`] on write failure.
pub fn store_to_files(store: &Path, out_dir: &Path) -> Result<Vec<PathBuf>, CoreError> {
    let texts = store_to_texts(store)?;
    std::fs::create_dir_all(out_dir)?;
    let mut written = Vec::with_capacity(texts.len());
    for (name, contents) in texts {
        let path = out_dir.join(name);
        std::fs::write(&path, contents)?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_are_centralized() {
        let a = Artifacts::new("/tmp/x");
        assert_eq!(a.scenario().file_name().unwrap(), Artifacts::SCENARIO);
        assert_eq!(a.rows_store().file_name().unwrap(), Artifacts::ROWS_STORE);
        assert_eq!(Artifacts::EVENTS, "events.jsonl");
        assert_eq!(Artifacts::METRICS, "metrics.prom");
    }

    #[test]
    fn csv_text_round_trips_byte_identically() {
        let dir = std::env::temp_dir().join("alfi_artifact_csv_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let text = "a,b,c\n1,two,3.5\n4,,-\n";
        let store = dir.join("t.alfic");
        let stats = text_to_store(text, "sample.csv", &store).unwrap();
        assert_eq!(stats.rows, 2);
        let back = store_to_texts(&store).unwrap();
        assert_eq!(back, vec![("sample.csv".to_string(), text.to_string())]);
    }

    #[test]
    fn lines_text_round_trips_without_trailing_newline() {
        let dir = std::env::temp_dir().join("alfi_artifact_lines_rt");
        std::fs::create_dir_all(&dir).unwrap();
        for text in ["{\"x\":1}\n{\"y\":2}", "{\"x\":1}\n{\"y\":2}\n", "", "one"] {
            let store = dir.join("t.alfic");
            text_to_store(text, "sample.json", &store).unwrap();
            let back = store_to_texts(&store).unwrap();
            assert_eq!(back[0].1, text, "round-trip of {text:?}");
        }
    }

    #[test]
    fn finalize_twice_is_an_error() {
        let dir = std::env::temp_dir().join("alfi_artifact_fin");
        std::fs::create_dir_all(&dir).unwrap();
        let schema = Schema::new(vec![ColumnSpec::new("v", ColumnType::U32, Encoding::Plain)])
            .with_meta("kind", "lines");
        let mut sink: ColumnarSink<u32> =
            ColumnarSink::create(dir.join("f.alfic"), schema, |v| vec![Value::U32(*v)]).unwrap();
        sink.append(RowKey::new(0, 0, 0), &7).unwrap();
        sink.finalize().unwrap();
        assert!(sink.finalize().is_err());
        assert!(sink.append(RowKey::new(0, 0, 1), &8).is_err());
    }
}
