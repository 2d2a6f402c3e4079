//! Cross-campaign vulnerability reports over a finished run directory.
//!
//! [`analyze_dir`] streams the row artifacts (the columnar store when
//! present, the CSV pair otherwise — both normalize to identical
//! facts), folds in the deterministic records of `events.jsonl` and the
//! saved `scenario.yml`, and produces a [`CampaignReport`] rendered as
//! `report.json` ([`CampaignReport::to_json`]) and `report.md`
//! ([`CampaignReport::to_markdown`]).
//!
//! # Section ordering
//!
//! Reports are golden-pinned, so section ordering is part of the
//! format: layer sections are sorted by resolved injectable-target
//! index (ascending), bit positions ascending with non-bit-addressed
//! faults (`-`) first, fault modes lexicographically, and the full
//! layer × bit × mode cell table by that composite key. The ordering
//! audit test in this module locks the contract.

use crate::rows::{stream_csv_rows, stream_store_rows, FaultKey, RowFacts};
use crate::AnalyzeError;
use alfi_core::campaign::{classify_row, ClassificationCampaignResult};
use alfi_core::stats::{interval, z_for_confidence, Rate};
use alfi_scenario::Scenario;
use alfi_serde::Json;
use alfi_trace::{EventLog, OutcomeTallies, StopVerdict};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::Path;

/// File name of the JSON report written next to the run artifacts.
pub const REPORT_JSON: &str = "report.json";

/// File name of the Markdown report written next to the run artifacts.
pub const REPORT_MD: &str = "report.md";

/// Format version stamped into `report.json`.
pub const REPORT_FORMAT_VERSION: u32 = 1;

/// Confidence level used when the run has no stop policy to inherit
/// one from.
pub const DEFAULT_CONFIDENCE: f64 = 0.95;

/// Outcome tallies and rates of one sample population (the whole
/// campaign, one layer, one bit position, one fault mode, or one
/// layer × bit × mode cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateBlock {
    /// Classified inferences in this population.
    pub samples: u64,
    /// Rows whose prediction was unchanged.
    pub masked: u64,
    /// Rows whose prediction silently changed.
    pub sdc: u64,
    /// Rows that surfaced NaN/Inf.
    pub due: u64,
    /// Masked fraction (no interval; it is `1 - sdc - due`).
    pub masked_rate: f64,
    /// SDC rate with its Wilson interval.
    pub sdc_rate: Rate,
    /// DUE rate with its Wilson interval.
    pub due_rate: Rate,
}

impl RateBlock {
    /// A population's rates from its outcome tallies, with Wilson
    /// intervals at z-score `z`.
    pub(crate) fn of(t: &OutcomeTallies, z: f64) -> RateBlock {
        let samples = t.total();
        let rate = |hits: u64| Rate::with_confidence(hits as usize, samples as usize, z);
        RateBlock {
            samples,
            masked: t.masked,
            sdc: t.sdc,
            due: t.due,
            masked_rate: if samples == 0 { 0.0 } else { t.masked as f64 / samples as f64 },
            sdc_rate: rate(t.sdc),
            due_rate: rate(t.due),
        }
    }

    /// The all-zero population (used by run diffing for a layer one
    /// side never injected). Its intervals are the vacuous `[0, 1]`,
    /// so it can never be part of a significant delta.
    pub fn empty() -> RateBlock {
        RateBlock::of(&OutcomeTallies::default(), z_for_confidence(DEFAULT_CONFIDENCE))
    }

    pub(crate) fn to_json_fields(self) -> Vec<(String, Json)> {
        let ci = |r: Rate| Json::Arr(vec![Json::Float(r.ci_low), Json::Float(r.ci_high)]);
        vec![
            ("samples".into(), Json::Int(self.samples as i128)),
            ("masked".into(), Json::Int(self.masked as i128)),
            ("sdc".into(), Json::Int(self.sdc as i128)),
            ("due".into(), Json::Int(self.due as i128)),
            ("masked_rate".into(), Json::Float(self.masked_rate)),
            ("sdc_rate".into(), Json::Float(self.sdc_rate.value)),
            ("sdc_ci".into(), ci(self.sdc_rate)),
            ("due_rate".into(), Json::Float(self.due_rate.value)),
            ("due_ci".into(), ci(self.due_rate)),
        ]
    }
}

/// Achieved-vs-requested precision of a (possibly early-stopped)
/// campaign, reconstructed from `scenario.yml` and the stop records of
/// `events.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct StopReport {
    /// The policy's target CI half-width.
    pub requested_half_width: f64,
    /// The policy's confidence level.
    pub confidence: f64,
    /// Interval construction the policy used (`wilson` /
    /// `clopper-pearson`).
    pub method: String,
    /// Campaign-level SDC half-width achieved over all classified rows,
    /// computed with the policy's method and confidence.
    pub achieved_sdc_half_width: f64,
    /// Campaign-level DUE half-width achieved.
    pub achieved_due_half_width: f64,
    /// Stop decisions recorded in the event log.
    pub decisions: u64,
    /// Layer strata retired before exhaustion, in retirement order.
    pub retired_strata: Vec<usize>,
    /// Whether a whole-campaign stop verdict fired.
    pub stopped_early: bool,
}

/// The deterministic cross-campaign vulnerability report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Confidence level of every interval in the report.
    pub confidence: f64,
    /// Replay identity from the event-log header (`campaign`, `model`,
    /// `scenario_hash`, `seed`) — deliberately excluding the header's
    /// `threads` field, the one field allowed to differ between
    /// otherwise-identical runs. Empty when the run kept no event log.
    pub run: Vec<(String, String)>,
    /// Scenario fingerprint (FNV-1a of the saved YAML) and headline
    /// scenario numbers, when `scenario.yml` was present.
    pub scenario: Option<(String, u64, u64)>,
    /// Result rows scanned.
    pub rows: u64,
    /// Whole-campaign rates.
    pub overall: RateBlock,
    /// Per-layer rates, sorted by resolved injectable-target index.
    pub layers: Vec<(usize, RateBlock)>,
    /// Per-bit-position rates, ascending; `-1` (rendered `-`) collects
    /// faults that are not bit-addressed.
    pub bits: Vec<(i64, RateBlock)>,
    /// Per-fault-mode rates, modes sorted lexicographically.
    pub modes: Vec<(String, RateBlock)>,
    /// The full layer × bit × mode breakdown, sorted by that composite
    /// key. Only populated cells appear.
    pub cells: Vec<(FaultKey, RateBlock)>,
    /// Deterministic event-log roll-up (items, injections, NaN/Inf
    /// elements), when the run kept an event log.
    pub events: Option<(u64, u64, u64, u64)>,
    /// Early-stop precision summary, when the run had a stop policy.
    pub stop: Option<StopReport>,
}

/// Streaming aggregate state: one tally per population, bounded by the
/// number of distinct keys (never by row count).
#[derive(Default)]
struct Acc {
    rows: u64,
    overall: OutcomeTallies,
    layers: BTreeMap<usize, OutcomeTallies>,
    bits: BTreeMap<i64, OutcomeTallies>,
    modes: BTreeMap<&'static str, OutcomeTallies>,
    cells: BTreeMap<FaultKey, OutcomeTallies>,
}

impl Acc {
    fn add(&mut self, facts: RowFacts) {
        self.rows += 1;
        self.overall.add(facts.outcome);
        for key in facts.faults {
            self.layers.entry(key.layer).or_default().add(facts.outcome);
            self.bits.entry(key.bit).or_default().add(facts.outcome);
            self.modes.entry(key.mode).or_default().add(facts.outcome);
            self.cells.entry(key).or_default().add(facts.outcome);
        }
    }

    /// The row and rate sections at `confidence`; the run, scenario,
    /// event and stop sections are left empty for the caller.
    fn into_report(self, confidence: f64) -> CampaignReport {
        let z = z_for_confidence(confidence);
        CampaignReport {
            confidence,
            run: Vec::new(),
            scenario: None,
            rows: self.rows,
            overall: RateBlock::of(&self.overall, z),
            layers: self.layers.iter().map(|(k, t)| (*k, RateBlock::of(t, z))).collect(),
            bits: self.bits.iter().map(|(k, t)| (*k, RateBlock::of(t, z))).collect(),
            modes: self.modes.iter().map(|(k, t)| (k.to_string(), RateBlock::of(t, z))).collect(),
            cells: self.cells.into_iter().map(|(k, t)| (k, RateBlock::of(&t, z))).collect(),
            events: None,
            stop: None,
        }
    }
}

/// The report confidence: the scenario's stop-policy level, else
/// [`DEFAULT_CONFIDENCE`].
fn confidence_of(scenario: Option<&Scenario>) -> f64 {
    scenario.and_then(|s| s.stop_policy.as_ref()).map_or(DEFAULT_CONFIDENCE, |p| p.confidence)
}

/// The report's scenario section: the FNV-1a hash of the scenario's
/// YAML, its seed and its dataset size.
fn scenario_section(scenario: &Scenario, yaml: &str) -> (String, u64, u64) {
    (alfi_trace::hash_hex(yaml.as_bytes()), scenario.seed, scenario.dataset_size as u64)
}

fn stop_report(
    scenario: Option<&Scenario>,
    log: Option<&EventLog>,
    overall: &OutcomeTallies,
) -> Option<StopReport> {
    let policy = scenario.and_then(|s| s.stop_policy.as_ref())?;
    let samples = overall.total();
    let ci = |hits: u64| interval(policy.method, hits as usize, samples as usize, policy.confidence);
    let (sdc, due) = (ci(overall.sdc), ci(overall.due));
    let stops = log.map(|l| l.stops.as_slice()).unwrap_or(&[]);
    Some(StopReport {
        requested_half_width: policy.half_width,
        confidence: policy.confidence,
        method: policy.method.to_string(),
        achieved_sdc_half_width: sdc.half_width(),
        achieved_due_half_width: due.half_width(),
        decisions: stops.len() as u64,
        retired_strata: stops
            .iter()
            .filter(|e| e.verdict == StopVerdict::RetireStratum)
            .filter_map(|e| e.stratum)
            .collect(),
        stopped_early: stops.iter().any(|e| e.verdict == StopVerdict::StopCampaign),
    })
}

/// Analyzes a finished run directory into a [`CampaignReport`].
///
/// Row facts come from `rows.alfic` when present (streamed
/// block-by-block), otherwise from the `results_orig.csv` /
/// `results_corr.csv` pair (streamed line-by-line); both sources
/// produce bit-identical reports by construction. `events.jsonl` and
/// `scenario.yml` contribute their deterministic records when present.
/// Directories with an event log but no classification-shaped row
/// artifacts (a pinned trace golden, a detection run) still produce a
/// report with empty rate sections.
///
/// # Errors
///
/// [`AnalyzeError::Missing`] when the directory holds neither row
/// artifacts nor an event log, [`AnalyzeError::Parse`] on malformed
/// artifacts.
pub fn analyze_dir(dir: impl AsRef<Path>) -> Result<CampaignReport, AnalyzeError> {
    let dir = dir.as_ref();
    let store = dir.join("rows.alfic");
    let orig = dir.join("results_orig.csv");
    let corr = dir.join("results_corr.csv");
    let events_path = dir.join(alfi_trace::EVENTS_FILE);
    let scenario_path = dir.join("scenario.yml");

    let mut acc = Acc::default();
    let mut add = |facts| acc.add(facts);
    let has_rows = (store.is_file() && stream_store_rows(&store, &mut add)?)
        || (orig.is_file() && corr.is_file() && stream_csv_rows(&orig, &corr, &mut add)?);
    if !has_rows && !events_path.is_file() {
        return Err(AnalyzeError::Missing(format!(
            "{}: no classification row artifacts or events.jsonl",
            dir.display()
        )));
    }

    let log = if events_path.is_file() { Some(EventLog::load(&events_path)?) } else { None };
    let scenario = if scenario_path.is_file() {
        let yaml = std::fs::read_to_string(&scenario_path)?;
        let parsed = Scenario::from_yaml_str(&yaml)
            .map_err(|e| AnalyzeError::Parse(format!("scenario.yml: {e}")))?;
        Some((parsed, yaml))
    } else {
        None
    };

    let mut run = Vec::new();
    if let Some(meta) = log.as_ref().and_then(|l| l.header.meta.as_ref()) {
        run.push(("campaign".to_string(), meta.campaign.clone()));
        run.push(("model".to_string(), meta.model.clone()));
        run.push(("scenario_hash".to_string(), meta.scenario_hash.clone()));
        run.push(("seed".to_string(), meta.seed.to_string()));
    }

    let parsed = scenario.as_ref().map(|(s, _)| s);
    let stop = stop_report(parsed, log.as_ref(), &acc.overall);
    let events = log.as_ref().and_then(|l| l.summary.as_ref()).map(|s| {
        (s.items, s.injections, s.nan, s.inf)
    });

    Ok(CampaignReport {
        run,
        scenario: scenario.as_ref().map(|(s, yaml)| scenario_section(s, yaml)),
        events,
        stop,
        ..acc.into_report(confidence_of(parsed))
    })
}

/// Analyzes an in-memory campaign result into the report
/// [`analyze_dir`] builds from the run's saved directory: the same
/// row, rate, breakdown and scenario sections, at the confidence of the
/// scenario's stop policy. A result carries no event log, so the `run`,
/// `events` and `stop` sections stay empty.
pub fn analyze_result(result: &ClassificationCampaignResult) -> CampaignReport {
    let mut acc = Acc::default();
    for row in &result.rows {
        let faults = row.faults.iter().map(|f| FaultKey::of(f.record.layer, f.record.value));
        acc.add(RowFacts { outcome: classify_row(row), faults: faults.collect() });
    }
    let yaml = result.scenario.to_yaml_string();
    CampaignReport {
        scenario: Some(scenario_section(&result.scenario, &yaml)),
        ..acc.into_report(confidence_of(Some(&result.scenario)))
    }
}

/// A bit position as the markdown tables label it: `-` for value
/// faults, which have none.
struct BitLabel(i64);

impl fmt::Display for BitLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 0 {
            f.write_str("-")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Appends one markdown table row of a [`RateBlock`]: the samples, then
/// the masked rate and the SDC and DUE rates with their intervals, as
/// percentages with two decimals.
fn push_row(out: &mut String, label: fmt::Arguments<'_>, b: &RateBlock) {
    let pct = |r: f64| r * 100.0;
    let (s, d) = (&b.sdc_rate, &b.due_rate);
    let _ = writeln!(
        out,
        "| {label} | {} | {:.2}% | {:.2}% [{:.2}%, {:.2}%] | {:.2}% [{:.2}%, {:.2}%] |",
        b.samples,
        pct(b.masked_rate),
        pct(s.value),
        pct(s.ci_low),
        pct(s.ci_high),
        pct(d.value),
        pct(d.ci_low),
        pct(d.ci_high)
    );
}

impl CampaignReport {
    /// Renders the report as a JSON document with a stable key and
    /// section order.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("alfi_report_version".into(), Json::Int(REPORT_FORMAT_VERSION as i128)),
            ("confidence".into(), Json::Float(self.confidence)),
        ];
        if !self.run.is_empty() {
            obj.push((
                "run".into(),
                Json::Obj(self.run.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect()),
            ));
        }
        if let Some((hash, seed, dataset_size)) = &self.scenario {
            obj.push((
                "scenario".into(),
                Json::Obj(vec![
                    ("hash".into(), Json::Str(hash.clone())),
                    ("seed".into(), Json::Int(*seed as i128)),
                    ("dataset_size".into(), Json::Int(*dataset_size as i128)),
                ]),
            ));
        }
        obj.push(("rows".into(), Json::Int(self.rows as i128)));
        obj.push(("overall".into(), Json::Obj(self.overall.to_json_fields())));
        obj.push((
            "layers".into(),
            Json::Arr(
                self.layers
                    .iter()
                    .map(|(layer, b)| {
                        let mut fields = vec![("layer".into(), Json::Int(*layer as i128))];
                        fields.extend(b.to_json_fields());
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ));
        obj.push((
            "bits".into(),
            Json::Arr(
                self.bits
                    .iter()
                    .map(|(bit, b)| {
                        let bit_json =
                            if *bit < 0 { Json::Null } else { Json::Int(*bit as i128) };
                        let mut fields = vec![("bit".into(), bit_json)];
                        fields.extend(b.to_json_fields());
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ));
        obj.push((
            "modes".into(),
            Json::Arr(
                self.modes
                    .iter()
                    .map(|(mode, b)| {
                        let mut fields = vec![("mode".into(), Json::Str(mode.clone()))];
                        fields.extend(b.to_json_fields());
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ));
        obj.push((
            "cells".into(),
            Json::Arr(
                self.cells
                    .iter()
                    .map(|(key, b)| {
                        let bit_json =
                            if key.bit < 0 { Json::Null } else { Json::Int(key.bit as i128) };
                        let mut fields = vec![
                            ("layer".into(), Json::Int(key.layer as i128)),
                            ("bit".into(), bit_json),
                            ("mode".into(), Json::Str(key.mode.to_string())),
                        ];
                        fields.extend(b.to_json_fields());
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ));
        if let Some((items, injections, nan, inf)) = self.events {
            obj.push((
                "events".into(),
                Json::Obj(vec![
                    ("items".into(), Json::Int(items as i128)),
                    ("injections".into(), Json::Int(injections as i128)),
                    ("nan".into(), Json::Int(nan as i128)),
                    ("inf".into(), Json::Int(inf as i128)),
                ]),
            ));
        }
        if let Some(stop) = &self.stop {
            obj.push((
                "stop".into(),
                Json::Obj(vec![
                    ("requested_half_width".into(), Json::Float(stop.requested_half_width)),
                    ("confidence".into(), Json::Float(stop.confidence)),
                    ("method".into(), Json::Str(stop.method.clone())),
                    (
                        "achieved_sdc_half_width".into(),
                        Json::Float(stop.achieved_sdc_half_width),
                    ),
                    (
                        "achieved_due_half_width".into(),
                        Json::Float(stop.achieved_due_half_width),
                    ),
                    ("decisions".into(), Json::Int(stop.decisions as i128)),
                    (
                        "retired_strata".into(),
                        Json::Arr(
                            stop.retired_strata.iter().map(|s| Json::Int(*s as i128)).collect(),
                        ),
                    ),
                    ("stopped_early".into(), Json::Bool(stop.stopped_early)),
                ]),
            ));
        }
        Json::Obj(obj)
    }

    /// Renders the JSON report as the exact `report.json` file bytes.
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().pretty();
        s.push('\n');
        s
    }

    /// Renders the report as a human-readable Markdown document with
    /// the same deterministic section ordering as the JSON view.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# ALFI campaign report\n\n");
        for (k, v) in &self.run {
            let _ = writeln!(out, "- {k}: `{v}`");
        }
        if let Some((hash, seed, dataset_size)) = &self.scenario {
            let _ = writeln!(out, "- scenario: `{hash}` (seed {seed}, dataset_size {dataset_size})");
        }
        let _ = write!(out, "- rows: {} | confidence: {:.0}%\n\n", self.rows, self.confidence * 100.0);

        let table_header = "| | samples | masked | sdc [ci] | due [ci] |\n|---|---|---|---|---|\n";

        out.push_str("## Overall\n\n");
        out.push_str(table_header);
        push_row(&mut out, format_args!("campaign"), &self.overall);

        if !self.layers.is_empty() {
            out.push_str("\n## Per layer\n\n");
            out.push_str(table_header);
            for (layer, b) in &self.layers {
                push_row(&mut out, format_args!("layer {layer}"), b);
            }
        }
        if !self.bits.is_empty() {
            out.push_str("\n## Per bit position\n\n");
            out.push_str(table_header);
            for (bit, b) in &self.bits {
                push_row(&mut out, format_args!("bit {}", BitLabel(*bit)), b);
            }
        }
        if !self.modes.is_empty() {
            out.push_str("\n## Per fault mode\n\n");
            out.push_str(table_header);
            for (mode, b) in &self.modes {
                push_row(&mut out, format_args!("{mode}"), b);
            }
        }
        if !self.cells.is_empty() {
            out.push_str("\n## Layer × bit × mode\n\n");
            out.push_str(table_header);
            for (key, b) in &self.cells {
                let (layer, bit, mode) = (key.layer, BitLabel(key.bit), &key.mode);
                push_row(&mut out, format_args!("layer {layer} bit {bit} {mode}"), b);
            }
        }
        if let Some((items, injections, nan, inf)) = self.events {
            out.push_str("\n## Event log\n\n");
            let _ = writeln!(out, "- items: {items} | injections: {injections} | nan: {nan} | inf: {inf}");
        }
        if let Some(stop) = &self.stop {
            out.push_str("\n## Early-stop precision\n\n");
            let _ = write!(
                out,
                "- requested ±{:.4} @{:.0}% ({})\n- achieved sdc ±{:.4} due ±{:.4}\n- decisions: {} | retired strata: {:?} | {}\n",
                stop.requested_half_width,
                stop.confidence * 100.0,
                stop.method,
                stop.achieved_sdc_half_width,
                stop.achieved_due_half_width,
                stop.decisions,
                stop.retired_strata,
                if stop.stopped_early { "stopped early" } else { "ran to completion" }
            );
        }
        out
    }
}

/// Writes `report.json` and `report.md` into `dir`.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_report_files(report: &CampaignReport, dir: impl AsRef<Path>) -> Result<(), AnalyzeError> {
    let dir = dir.as_ref();
    std::fs::write(dir.join(REPORT_JSON), report.to_json_string())?;
    std::fs::write(dir.join(REPORT_MD), report.to_markdown())?;
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rows::RowFacts;
    use alfi_core::campaign::ClassificationRow;
    use alfi_core::{AppliedFault, FaultMatrix, FaultRecord, FaultValue, RunTrace};
    use alfi_scenario::InjectionTarget;
    use alfi_tensor::bits::FlipDirection;
    use alfi_trace::EffectClass;

    /// An applied fault at `layer`; bit flips carry `dir`.
    pub(crate) fn fault(layer: usize, value: FaultValue, dir: FlipDirection) -> AppliedFault {
        AppliedFault {
            record: FaultRecord {
                batch: 0,
                layer,
                channel: 0,
                channel_in: 0,
                depth: None,
                height: 0,
                width: 0,
                value,
            },
            original: 1.0,
            corrupted: 2.0,
            direction: matches!(value, FaultValue::BitFlip(_)).then_some(dir),
        }
    }

    /// A row whose fault-free top-1 is `orig` (also its label) and whose
    /// corrupted top-1 is `corr`, with `nan` NaN elements.
    pub(crate) fn row(orig: usize, corr: usize, nan: usize, faults: Vec<AppliedFault>) -> ClassificationRow {
        ClassificationRow {
            image_id: 0,
            file_name: "x".into(),
            label: orig,
            orig_top5: vec![(orig, 0.9)],
            corr_top5: vec![(corr, 0.9)],
            resil_top5: None,
            faults,
            corr_nan: nan,
            corr_inf: 0,
        }
    }

    fn result(rows: Vec<ClassificationRow>) -> ClassificationCampaignResult {
        ClassificationCampaignResult {
            rows,
            scenario: Scenario::default(),
            fault_matrix: FaultMatrix {
                records: Vec::new(),
                target: InjectionTarget::Weights,
                faults_per_image: 1,
            },
            trace: RunTrace::default(),
        }
    }

    fn flip(layer: usize, bit: u8) -> AppliedFault {
        fault(layer, FaultValue::BitFlip(bit), FlipDirection::ZeroToOne)
    }

    fn samples<K: PartialEq>(section: &[(K, RateBlock)], key: K) -> (u64, u64, u64) {
        let b = section.iter().find(|(k, _)| *k == key).map(|(_, b)| *b).unwrap();
        (b.masked, b.sdc, b.due)
    }

    #[test]
    fn analyze_result_attributes_outcomes_to_fault_layers() {
        let r = analyze_result(&result(vec![
            row(1, 1, 0, vec![flip(0, 30)]), // masked @ layer 0
            row(1, 2, 0, vec![flip(0, 30)]), // sdc @ layer 0
            row(1, 1, 1, vec![flip(3, 23)]), // due @ layer 3
        ]));
        assert_eq!(samples(&r.layers, 0), (1, 1, 0));
        assert_eq!(samples(&r.layers, 3), (0, 0, 1));
        assert!((r.layers[0].1.sdc_rate.value - 0.5).abs() < 1e-9);
        assert_eq!(r.confidence, DEFAULT_CONFIDENCE);
    }

    #[test]
    fn analyze_result_counts_multi_fault_rows_once_per_fault() {
        let r = analyze_result(&result(vec![row(1, 2, 0, vec![flip(0, 30), flip(5, 24)])]));
        assert_eq!(r.rows, 1);
        assert_eq!(r.overall.samples, 1);
        assert_eq!(samples(&r.layers, 0), (0, 1, 0));
        assert_eq!(samples(&r.layers, 5), (0, 1, 0));
    }

    #[test]
    fn analyze_result_groups_bit_positions_and_modes() {
        let dir = FlipDirection::OneToZero;
        let r = analyze_result(&result(vec![
            row(1, 2, 0, vec![flip(0, 30)]), // exponent sdc
            row(1, 1, 0, vec![flip(0, 2)]),  // mantissa masked
            row(1, 2, 0, vec![flip(0, 31)]), // sign sdc
            row(1, 1, 0, vec![fault(0, FaultValue::StuckAt { pos: 2, high: true }, dir)]),
            row(1, 1, 0, vec![fault(0, FaultValue::Replace(9.0), dir)]),
        ]));
        assert_eq!(samples(&r.bits, 30), (0, 1, 0));
        assert_eq!(samples(&r.bits, 2), (2, 0, 0), "bit flip and stuck-at share bit 2");
        assert_eq!(samples(&r.bits, -1), (1, 0, 0), "replacement is not bit-addressed");
        let modes: Vec<&str> = r.modes.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(modes, vec!["bitflip", "replace", "stuck_at"]);
        assert_eq!(samples(&r.modes, "bitflip".to_string()), (1, 2, 0));
    }

    #[test]
    fn analyze_result_partitions_rows() {
        let r = analyze_result(&result(vec![
            row(1, 1, 0, vec![]), // masked
            row(1, 2, 0, vec![]), // sdc
            row(1, 1, 1, vec![]), // due
            row(2, 2, 0, vec![]), // masked
        ]));
        let o = r.overall;
        assert_eq!((o.masked, o.sdc, o.due, o.samples), (2, 1, 1, 4));
        assert_eq!((o.sdc_rate.hits, o.sdc_rate.total), (1, 4));
        assert!(r.layers.is_empty() && r.cells.is_empty());
        let yaml = Scenario::default().to_yaml_string();
        assert_eq!(r.scenario, Some((alfi_trace::hash_hex(yaml.as_bytes()), 0, 100)));
        assert!(r.run.is_empty() && r.events.is_none() && r.stop.is_none());
    }

    fn facts(outcome: EffectClass, layer: usize, bit: i64, mode: &'static str) -> RowFacts {
        RowFacts { outcome, faults: vec![FaultKey { layer, bit, mode }] }
    }

    fn sample_report() -> CampaignReport {
        let mut acc = Acc::default();
        // Deliberately out-of-order arrivals: the report must sort.
        acc.add(facts(EffectClass::Sdc, 6, 30, "bitflip"));
        acc.add(facts(EffectClass::Masked, 3, -1, "replace"));
        acc.add(facts(EffectClass::Due, 6, 2, "stuck_at"));
        acc.add(facts(EffectClass::Masked, 3, 30, "bitflip"));
        acc.add(facts(EffectClass::Masked, 0, 5, "quant"));
        acc.into_report(DEFAULT_CONFIDENCE)
    }

    /// Ordering audit: layers ascending by resolved target index, bit
    /// positions ascending with unaddressed faults first, modes
    /// lexicographic, cells by the composite key — independent of
    /// arrival order, so goldens never churn.
    #[test]
    fn report_sections_are_deterministically_ordered() {
        let r = sample_report();
        let layer_order: Vec<usize> = r.layers.iter().map(|(l, _)| *l).collect();
        assert_eq!(layer_order, vec![0, 3, 6]);
        let bit_order: Vec<i64> = r.bits.iter().map(|(b, _)| *b).collect();
        assert_eq!(bit_order, vec![-1, 2, 5, 30]);
        let mode_order: Vec<&str> = r.modes.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(mode_order, vec!["bitflip", "quant", "replace", "stuck_at"]);
        let mut sorted_cells = r.cells.clone();
        sorted_cells.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(r.cells, sorted_cells, "cell table must arrive pre-sorted");
        // And the rendered views list them in the same order.
        let md = r.to_markdown();
        let l0 = md.find("layer 0").unwrap();
        let l3 = md.find("layer 3").unwrap();
        let l6 = md.find("layer 6").unwrap();
        assert!(l0 < l3 && l3 < l6, "{md}");
    }

    #[test]
    fn json_and_markdown_are_pure_functions_of_the_report() {
        let r = sample_report();
        assert_eq!(r.to_json_string(), r.to_json_string());
        assert_eq!(r.to_markdown(), r.to_markdown());
        let parsed = Json::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed.get("rows").and_then(Json::as_int), Some(5));
        assert_eq!(
            parsed.get("overall").and_then(|o| o.get("sdc")).and_then(Json::as_int),
            Some(1)
        );
    }

    #[test]
    fn rate_blocks_use_wilson_bounds() {
        let b = RateBlock::of(&OutcomeTallies { masked: 90, sdc: 10, due: 0 }, z_for_confidence(0.95));
        assert_eq!(b.samples, 100);
        assert!((b.sdc_rate.value - 0.10).abs() < 1e-12);
        assert!((b.sdc_rate.ci_low - 0.0552).abs() < 0.002);
        assert!((b.sdc_rate.ci_high - 0.1744).abs() < 0.002);
        assert_eq!(b.due_rate.ci_low, 0.0);
        let empty = RateBlock::empty();
        assert_eq!(empty.samples, 0);
        assert_eq!((empty.sdc_rate.ci_low, empty.sdc_rate.ci_high), (0.0, 1.0));
    }
}
