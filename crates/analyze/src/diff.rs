//! CI-aware comparison of two campaign reports.
//!
//! [`diff_reports`] lines up two [`CampaignReport`]s (hardened vs
//! unhardened, two kernel paths, two ViT depths, two thread counts…)
//! and computes per-layer and whole-campaign SDC/DUE rate deltas. A
//! delta is flagged **significant** only when the two confidence
//! intervals separate (are disjoint) — overlapping intervals mean the
//! observed difference is within sampling noise at the reports'
//! confidence level, which is precisely the trap naive rate
//! subtraction falls into on small campaigns.

use crate::report::{CampaignReport, RateBlock};
use alfi_serde::Json;
use std::collections::BTreeSet;

/// One compared population: both sides' blocks plus the deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Rates of run A.
    pub a: RateBlock,
    /// Rates of run B.
    pub b: RateBlock,
    /// `b.sdc_rate - a.sdc_rate`.
    pub sdc_delta: f64,
    /// Whether the SDC intervals separate.
    pub sdc_significant: bool,
    /// `b.due_rate - a.due_rate`.
    pub due_delta: f64,
    /// Whether the DUE intervals separate.
    pub due_significant: bool,
}

impl DeltaRow {
    fn new(a: RateBlock, b: RateBlock) -> DeltaRow {
        DeltaRow {
            a,
            b,
            sdc_delta: b.sdc_rate.value - a.sdc_rate.value,
            sdc_significant: a.sdc_rate.significantly_differs_from(&b.sdc_rate),
            due_delta: b.due_rate.value - a.due_rate.value,
            due_significant: a.due_rate.significantly_differs_from(&b.due_rate),
        }
    }

    fn to_json_fields(&self) -> Vec<(String, Json)> {
        vec![
            ("a".into(), Json::Obj(self.a.to_json_fields())),
            ("b".into(), Json::Obj(self.b.to_json_fields())),
            ("sdc_delta".into(), Json::Float(self.sdc_delta)),
            ("sdc_significant".into(), Json::Bool(self.sdc_significant)),
            ("due_delta".into(), Json::Float(self.due_delta)),
            ("due_significant".into(), Json::Bool(self.due_significant)),
        ]
    }
}

/// The comparison of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// Replay identity of run A (from its report's `run` section).
    pub a_run: Vec<(String, String)>,
    /// Replay identity of run B.
    pub b_run: Vec<(String, String)>,
    /// Whole-campaign comparison.
    pub overall: DeltaRow,
    /// Per-layer comparison over the union of both runs' layers,
    /// sorted by layer index. A layer one run never injected
    /// contributes an empty block (vacuous `[0, 1]` interval), so it
    /// can never be significant.
    pub layers: Vec<(usize, DeltaRow)>,
}

/// Diffs two reports. Pure and deterministic: the output depends only
/// on the two inputs.
pub fn diff_reports(a: &CampaignReport, b: &CampaignReport) -> ReportDiff {
    let layer_block = |r: &CampaignReport, layer: usize| {
        r.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, b)| *b)
            .unwrap_or_else(RateBlock::empty)
    };
    let layers: BTreeSet<usize> = a
        .layers
        .iter()
        .map(|(l, _)| *l)
        .chain(b.layers.iter().map(|(l, _)| *l))
        .collect();
    ReportDiff {
        a_run: a.run.clone(),
        b_run: b.run.clone(),
        overall: DeltaRow::new(a.overall, b.overall),
        layers: layers
            .into_iter()
            .map(|l| (l, DeltaRow::new(layer_block(a, l), layer_block(b, l))))
            .collect(),
    }
}

impl ReportDiff {
    /// Renders the diff as a JSON document with stable ordering.
    pub fn to_json(&self) -> Json {
        let run_obj = |run: &[(String, String)]| {
            Json::Obj(run.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect())
        };
        Json::Obj(vec![
            ("a".into(), run_obj(&self.a_run)),
            ("b".into(), run_obj(&self.b_run)),
            ("overall".into(), Json::Obj(self.overall.to_json_fields())),
            (
                "layers".into(),
                Json::Arr(
                    self.layers
                        .iter()
                        .map(|(layer, d)| {
                            let mut fields = vec![("layer".into(), Json::Int(*layer as i128))];
                            fields.extend(d.to_json_fields());
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the diff as the exact JSON file bytes.
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().pretty();
        s.push('\n');
        s
    }

    /// Renders the diff as a Markdown document.
    pub fn to_markdown(&self) -> String {
        let pct = |r: f64| format!("{:+.2}pp", r * 100.0);
        let mut out = String::from("# ALFI run diff\n\n");
        let name = |run: &[(String, String)], fallback: &str| {
            run.iter()
                .find(|(k, _)| k == "model")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| fallback.to_string())
        };
        out.push_str(&format!(
            "- A: {} | B: {}\n\n",
            name(&self.a_run, "run A"),
            name(&self.b_run, "run B")
        ));
        out.push_str(
            "| | sdc A | sdc B | Δsdc | sig | due A | due B | Δdue | sig |\n|---|---|---|---|---|---|---|---|---|\n",
        );
        let fmt = |label: &str, d: &DeltaRow| {
            format!(
                "| {label} | {:.4} | {:.4} | {} | {} | {:.4} | {:.4} | {} | {} |\n",
                d.a.sdc_rate.value,
                d.b.sdc_rate.value,
                pct(d.sdc_delta),
                if d.sdc_significant { "**yes**" } else { "no" },
                d.a.due_rate.value,
                d.b.due_rate.value,
                pct(d.due_delta),
                if d.due_significant { "**yes**" } else { "no" },
            )
        };
        out.push_str(&fmt("overall", &self.overall));
        for (layer, d) in &self.layers {
            out.push_str(&fmt(&format!("layer {layer}"), d));
        }
        out.push_str(
            "\nSignificance = the two runs' confidence intervals are disjoint at the reports' confidence level.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::analyze_dir;
    use alfi_trace::OutcomeTallies;

    fn block(masked: u64, sdc: u64, due: u64) -> RateBlock {
        let z = alfi_core::stats::z_for_confidence(0.95);
        RateBlock::of(&OutcomeTallies { masked, sdc, due }, z)
    }

    fn report_with_layers(layers: Vec<(usize, RateBlock)>, overall: RateBlock) -> CampaignReport {
        CampaignReport {
            confidence: 0.95,
            run: Vec::new(),
            scenario: None,
            rows: overall.samples,
            overall,
            layers,
            bits: Vec::new(),
            modes: Vec::new(),
            cells: Vec::new(),
            events: None,
            stop: None,
        }
    }

    #[test]
    fn separated_intervals_flag_significance_and_overlap_does_not() {
        // 5/500 vs 200/500 SDC: intervals far apart -> significant.
        let a = report_with_layers(vec![(0, block(495, 5, 0))], block(495, 5, 0));
        let b = report_with_layers(vec![(0, block(300, 200, 0))], block(300, 200, 0));
        let d = diff_reports(&a, &b);
        assert!(d.overall.sdc_significant);
        assert!(d.overall.sdc_delta > 0.35);
        assert!(!d.overall.due_significant, "0 vs 0 DUE must not be significant");
        // 10/100 vs 13/100: overlapping intervals -> noise.
        let c = report_with_layers(vec![(0, block(90, 10, 0))], block(90, 10, 0));
        let e = report_with_layers(vec![(0, block(87, 13, 0))], block(87, 13, 0));
        assert!(!diff_reports(&c, &e).overall.sdc_significant);
    }

    #[test]
    fn layer_union_includes_one_sided_layers_without_significance() {
        let a = report_with_layers(vec![(2, block(10, 30, 0))], block(10, 30, 0));
        let b = report_with_layers(vec![(7, block(40, 0, 0))], block(40, 0, 0));
        let d = diff_reports(&a, &b);
        let layers: Vec<usize> = d.layers.iter().map(|(l, _)| *l).collect();
        assert_eq!(layers, vec![2, 7]);
        let l2 = &d.layers[0].1;
        assert_eq!(l2.b.samples, 0);
        assert!(!l2.sdc_significant, "a vacuous [0,1] interval can never separate");
    }

    #[test]
    fn self_diff_is_all_zero_and_insignificant() {
        let a = report_with_layers(vec![(0, block(90, 8, 2))], block(90, 8, 2));
        let d = diff_reports(&a, &a);
        assert_eq!(d.overall.sdc_delta, 0.0);
        assert!(!d.overall.sdc_significant && !d.overall.due_significant);
        // Renderers are deterministic.
        assert_eq!(d.to_json_string(), d.to_json_string());
        assert!(d.to_markdown().contains("overall"));
    }

    #[test]
    fn diff_is_usable_on_missing_dirs_error() {
        let err = analyze_dir(std::env::temp_dir().join("alfi_analyze_nonexistent_dir"));
        assert!(err.is_err());
    }
}
