//! Streaming row sources: normalize the two row-artifact formats (the
//! `results_*.csv` pair and the columnar `rows.alfic` store) into one
//! per-row fact record, so every downstream aggregate is identical
//! whichever format the campaign wrote, and equal to the in-memory
//! rows' facts.
//!
//! Both sources classify through `alfi-core`'s [`classify_top1`], the
//! rule the engine tallies outcomes with. A malformed cell is an
//! [`AnalyzeError::Parse`] naming the file and the line (or store row),
//! never a default.

use crate::AnalyzeError;
use alfi_core::campaign::{classify_top1, TOPK_PAD_CLASS};
use alfi_core::FaultValue;
use alfi_store::{StoreError, StoreReader, Value};
use alfi_trace::EffectClass;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// One fault coordinate a row's outcome is attributed to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultKey {
    /// Index into the model's injectable-layer list.
    pub layer: usize,
    /// Bit position; `-1` for faults that are not bit-addressed
    /// (value replacement).
    pub bit: i64,
    /// Stable fault-mode name (`bitflip`, `quant`, `replace`,
    /// `stuck_at`).
    pub mode: &'static str,
}

impl FaultKey {
    /// The key of one fault: the layer, bit and mode its
    /// `fault_layers` / `fault_bits` cells parse back to.
    pub(crate) fn of(layer: usize, value: FaultValue) -> FaultKey {
        let (bit, mode) = match value {
            FaultValue::BitFlip(bit) => (i64::from(bit), "bitflip"),
            FaultValue::StuckAt { pos, .. } => (i64::from(pos), "stuck_at"),
            FaultValue::Replace(_) => (-1, "replace"),
            FaultValue::QuantStep { bit, .. } => (i64::from(bit), "quant"),
        };
        FaultKey { layer, bit, mode }
    }
}

/// The per-row facts every aggregate is built from.
#[derive(Debug, Clone)]
pub(crate) struct RowFacts {
    pub outcome: EffectClass,
    pub faults: Vec<FaultKey>,
}

/// Parses one `fault_bits` cell (`30`, `s31`, `v`, `q5`) into its bit
/// position and mode name.
fn parse_bit_cell(cell: &str) -> Result<(i64, &'static str), String> {
    let (digits, mode) = if cell == "v" {
        return Ok((-1, "replace"));
    } else if let Some(pos) = cell.strip_prefix('s') {
        (pos, "stuck_at")
    } else if let Some(bit) = cell.strip_prefix('q') {
        (bit, "quant")
    } else {
        (cell, "bitflip")
    };
    digits
        .parse::<u8>()
        .map(|b| (i64::from(b), mode))
        .map_err(|_| format!("bad fault bit `{cell}`"))
}

/// Zips a row's `;`-joined `fault_layers` and `fault_bits` cells into
/// fault keys; the two lists must have the same length.
fn fault_keys(layers_cell: &str, bits_cell: &str) -> Result<Vec<FaultKey>, String> {
    if layers_cell.is_empty() && bits_cell.is_empty() {
        return Ok(Vec::new());
    }
    let mut bits = bits_cell.split(';');
    let keys = layers_cell
        .split(';')
        .map(|l| {
            let layer = l.parse().map_err(|_| format!("bad fault layer `{l}`"))?;
            let (bit, mode) = parse_bit_cell(bits.next().ok_or("fewer fault bits than layers")?)?;
            Ok(FaultKey { layer, bit, mode })
        })
        .collect::<Result<Vec<_>, String>>()?;
    match bits.next() {
        Some(_) => Err("more fault bits than layers".into()),
        None => Ok(keys),
    }
}

/// Column positions resolved from a CSV header line.
struct CsvCols {
    width: usize,
    image_id: usize,
    topk: [(usize, usize); 5],
    fault_layers: usize,
    fault_bits: usize,
    nan: usize,
    inf: usize,
}

fn csv_cols(header: &str, file: &str) -> Result<CsvCols, AnalyzeError> {
    let names: Vec<&str> = header.trim_end().split(',').collect();
    let find = |name: &str| {
        names
            .iter()
            .position(|n| *n == name)
            .ok_or_else(|| AnalyzeError::Parse(format!("{file}: header lacks a `{name}` column")))
    };
    let mut topk = [(0, 0); 5];
    for (k, pair) in topk.iter_mut().enumerate() {
        *pair = (find(&format!("top{}", k + 1))?, find(&format!("top{}_p", k + 1))?);
    }
    Ok(CsvCols {
        width: names.len(),
        image_id: find("image_id")?,
        topk,
        fault_layers: find("fault_layers")?,
        fault_bits: find("fault_bits")?,
        nan: find("nan_count")?,
        inf: find("inf_count")?,
    })
}

/// One CSV data line split into cells, with its `image_id` and top-1
/// parsed.
struct CsvLine<'l> {
    cells: Vec<&'l str>,
    image_id: u64,
    top1: Option<(u64, f32)>,
}

/// Parses a count cell (`image_id`, `nan_count`, `inf_count`).
fn count(cell: &str) -> Result<u64, String> {
    cell.parse().map_err(|_| format!("bad count `{cell}`"))
}

/// Splits one CSV data line, checking its column count, its `image_id`
/// and every top-k class and probability cell.
fn parse_csv_line<'l>(line: &'l str, cols: &CsvCols) -> Result<CsvLine<'l>, String> {
    let cells: Vec<&str> = line.trim_end().split(',').collect();
    if cells.len() != cols.width {
        return Err(format!("expected {} columns, got {}", cols.width, cells.len()));
    }
    let mut top1 = None;
    for (k, &(class, p)) in cols.topk.iter().enumerate() {
        let entry = match (cells[class], cells[p]) {
            ("", "") => None,
            (class, p) => Some((
                class.parse::<u64>().map_err(|_| format!("bad top-k class `{class}`"))?,
                p.parse::<f32>().map_err(|_| format!("bad top-k probability `{p}`"))?,
            )),
        };
        if k == 0 {
            top1 = entry;
        }
    }
    Ok(CsvLine { image_id: count(cells[cols.image_id])?, top1, cells })
}

/// The facts of a corrupted-output line, classified against the
/// fault-free top-1 class: its NaN/Inf counts and fault cells are the
/// ones the analyzer reads.
fn corr_facts(corr: &CsvLine, cols: &CsvCols, orig_top1: Option<u64>) -> Result<RowFacts, String> {
    let nonfinite = count(corr.cells[cols.nan])?.saturating_add(count(corr.cells[cols.inf])?);
    Ok(RowFacts {
        outcome: classify_top1(orig_top1, corr.top1, nonfinite),
        faults: fault_keys(corr.cells[cols.fault_layers], corr.cells[cols.fault_bits])?,
    })
}

/// Streams the CSV artifact pair line-by-line (never materialized),
/// feeding one [`RowFacts`] per aligned row pair into `f`. Returns
/// `false`, reading no rows, when `results_orig.csv` lacks the
/// classification header (detection rows have a different shape and
/// contribute only their event log to a report).
pub(crate) fn stream_csv_rows(
    orig_path: &Path,
    corr_path: &Path,
    mut f: impl FnMut(RowFacts),
) -> Result<bool, AnalyzeError> {
    let mut orig = BufReader::new(std::fs::File::open(orig_path)?);
    let mut corr = BufReader::new(std::fs::File::open(corr_path)?);
    let (mut o, mut c) = (String::new(), String::new());
    orig.read_line(&mut o)?;
    let Ok(ocols) = csv_cols(&o, "results_orig.csv") else { return Ok(false) };
    corr.read_line(&mut c)?;
    let ccols = csv_cols(&c, "results_corr.csv")?;
    for line in 2u64.. {
        let at =
            |path: &Path, e: String| AnalyzeError::Parse(format!("{}:{line}: {e}", path.display()));
        o.clear();
        c.clear();
        match (orig.read_line(&mut o)?, corr.read_line(&mut c)?) {
            (0, 0) => break,
            (0, _) | (_, 0) => {
                return Err(at(
                    corr_path,
                    "results_orig.csv / results_corr.csv row counts differ".into(),
                ))
            }
            _ => {}
        }
        if o.trim().is_empty() && c.trim().is_empty() {
            continue;
        }
        let ol = parse_csv_line(&o, &ocols).map_err(|e| at(orig_path, e))?;
        let cl = parse_csv_line(&c, &ccols).map_err(|e| at(corr_path, e))?;
        if ol.image_id != cl.image_id {
            return Err(at(
                corr_path,
                format!(
                    "image_id {} does not match results_orig.csv image_id {}",
                    cl.image_id, ol.image_id
                ),
            ));
        }
        let orig_top1 = ol.top1.map(|(class, _)| class);
        f(corr_facts(&cl, &ccols, orig_top1).map_err(|e| at(corr_path, e))?);
    }
    Ok(true)
}

/// Column positions resolved from a store schema.
struct StoreCols {
    orig_class1: usize,
    corr_class1: usize,
    corr_p1: usize,
    fault_layers: usize,
    fault_bits: usize,
    nan: usize,
    inf: usize,
}

fn store_cols(reader: &StoreReader) -> Result<StoreCols, AnalyzeError> {
    let find = |name: &str| {
        reader.schema().columns.iter().position(|c| c.name == name).ok_or_else(|| {
            AnalyzeError::Parse(format!("rows.alfic: schema lacks a `{name}` column"))
        })
    };
    Ok(StoreCols {
        orig_class1: find("orig_class1")?,
        corr_class1: find("corr_class1")?,
        corr_p1: find("corr_p1")?,
        fault_layers: find("fault_layers")?,
        fault_bits: find("fault_bits")?,
        nan: find("nan_count")?,
        inf: find("inf_count")?,
    })
}

/// Builds one store row's facts; top-k classes equal to
/// [`TOPK_PAD_CLASS`] are absent entries.
fn store_facts(values: &[Value], cols: &StoreCols) -> Result<RowFacts, String> {
    let cell = |idx: usize| values.get(idx).ok_or_else(|| format!("row lacks column {idx}"));
    let int =
        |idx: usize| cell(idx)?.as_u64().ok_or_else(|| format!("column {idx} is not an integer"));
    let text =
        |idx: usize| cell(idx)?.as_str().ok_or_else(|| format!("column {idx} is not a string"));
    let class = |idx: usize| int(idx).map(|c| Some(c).filter(|&c| c != u64::from(TOPK_PAD_CLASS)));
    let corr = match class(cols.corr_class1)? {
        Some(c) => {
            let p = cell(cols.corr_p1)?.as_f32();
            Some((c, p.ok_or_else(|| format!("column {} is not an f32", cols.corr_p1))?))
        }
        None => None,
    };
    Ok(RowFacts {
        outcome: classify_top1(
            class(cols.orig_class1)?,
            corr,
            int(cols.nan)?.saturating_add(int(cols.inf)?),
        ),
        faults: fault_keys(text(cols.fault_layers)?, text(cols.fault_bits)?)?,
    })
}

/// Streams the columnar store block-by-block through
/// [`StoreReader::for_each_row`] (never fully materialized), feeding
/// one [`RowFacts`] per row into `f`. Returns `false`, reading no rows,
/// when the store lacks the classification schema.
pub(crate) fn stream_store_rows(
    store_path: &Path,
    mut f: impl FnMut(RowFacts),
) -> Result<bool, AnalyzeError> {
    let mut reader = StoreReader::open(store_path)?;
    let Ok(cols) = store_cols(&reader) else { return Ok(false) };
    let mut rows = 0u64;
    let mut bad = None;
    let scan = reader.for_each_row(|_key, values| {
        rows += 1;
        match store_facts(values, &cols) {
            Ok(facts) => {
                f(facts);
                Ok(())
            }
            Err(e) => {
                bad = Some(format!("{}: row {rows}: {e}", store_path.display()));
                Err(StoreError::Corrupt { reason: e })
            }
        }
    });
    if let Some(e) = bad {
        return Err(AnalyzeError::Parse(e));
    }
    scan?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_cells_cover_every_fault_value_syntax() {
        assert_eq!(parse_bit_cell("30"), Ok((30, "bitflip")));
        assert_eq!(parse_bit_cell("s31"), Ok((31, "stuck_at")));
        assert_eq!(parse_bit_cell("v"), Ok((-1, "replace")));
        assert_eq!(parse_bit_cell("q5"), Ok((5, "quant")));
        for junk in ["junk", "", "3x", "s", "q-1", "-1", "300"] {
            assert!(parse_bit_cell(junk).is_err(), "`{junk}` must not parse");
        }
    }

    #[test]
    fn fault_keys_zip_layers_with_bit_cells() {
        let keys = fault_keys("3;6", "30;s2").unwrap();
        assert_eq!(
            keys,
            vec![
                FaultKey { layer: 3, bit: 30, mode: "bitflip" },
                FaultKey { layer: 6, bit: 2, mode: "stuck_at" },
            ]
        );
        assert!(fault_keys("", "").unwrap().is_empty());
        assert!(fault_keys("six", "3").is_err());
        assert!(fault_keys("3;6", "30").is_err());
        assert!(fault_keys("3", "30;2").is_err());
        assert!(fault_keys("", "30").is_err());
    }

    #[test]
    fn fault_keys_of_values_match_their_csv_cells() {
        let values = [
            FaultValue::BitFlip(30),
            FaultValue::StuckAt { pos: 2, high: true },
            FaultValue::Replace(7.5),
            FaultValue::QuantStep { bit: 5, bits: 8, amax: 1.0 },
        ];
        let cells = ["30", "s2", "v", "q5"];
        for (value, cell) in values.into_iter().zip(cells) {
            let (bit, mode) = parse_bit_cell(cell).unwrap();
            assert_eq!(FaultKey::of(4, value), FaultKey { layer: 4, bit, mode }, "{cell}");
        }
    }
}
