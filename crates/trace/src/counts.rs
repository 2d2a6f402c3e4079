//! The run's one counter set. Every fact a campaign counts — scopes,
//! result rows, injections (in total and per layer), outcome classes,
//! NaN/Inf elements, stop decisions, skipped scopes and the sink's rows
//! and bytes — is a counter on a metrics [`Registry`], registered in
//! this module and nowhere else. A [`Recorder`](crate::Recorder) keeps
//! no counts of its own: the engine hands it the run's
//! [`CampaignCounters`], and its summary, event log and progress line
//! read them, so trace and metrics cannot disagree.

use crate::{OutcomeTallies, StopVerdict};
use alfi_metrics::{names, Class, Counter, Histogram, Registry};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The deterministic counts of a run: the event log's closing `summary`
/// record, and [`TraceSummary::counts`](crate::TraceSummary::counts).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunCounts {
    /// Work items (result rows) finished.
    pub items: u64,
    /// Total applied faults.
    pub injections: u64,
    /// Applied faults per injectable-layer index.
    pub per_layer: BTreeMap<usize, u64>,
    /// Applied faults per bit position (value-replacement faults are
    /// not bit-addressed and are excluded).
    pub per_bit: BTreeMap<u8, u64>,
    /// Fault-effect tallies.
    pub outcomes: OutcomeTallies,
    /// NaN elements observed in corrupted outputs.
    pub nan: u64,
    /// Inf elements observed in corrupted outputs.
    pub inf: u64,
}

alfi_serde::json_struct!(RunCounts {
    items,
    injections,
    per_layer,
    per_bit,
    outcomes,
    nan,
    inf
});

/// The run's counter set: pre-resolved handles on a [`Registry`],
/// registered once per run. Cloning shares the handles.
///
/// The campaign engine writes it once per merged scope, in work order,
/// and bumps the scope count and latency where a scope finishes (the
/// watchdog's stall signal), so a metrics endpoint or health watchdog
/// sees injection and outcome data *while* the campaign runs. Every
/// counter is [`Class::Deterministic`] — its final value depends only
/// on the scenario, never on thread count or timing — except the
/// scope-latency histogram, which is wall-clock and stays out of
/// deterministic renders (histograms are always runtime-class). The
/// per-layer, stop, skipped-scope and sink series are registered on
/// first use, so a run that never counts one leaves no zero-valued
/// series behind.
#[derive(Debug, Clone)]
pub struct CampaignCounters {
    registry: Registry,
    scopes: Counter,
    items: Counter,
    injections: Counter,
    masked: Counter,
    sdc: Counter,
    due: Counter,
    nan: Counter,
    inf: Counter,
    scope_seconds: Histogram,
    /// Per-layer injection counters, keyed by injectable-layer index.
    layers: Arc<Mutex<BTreeMap<usize, Counter>>>,
}

impl CampaignCounters {
    /// Registers the run's counters on `registry`.
    pub fn new(registry: Registry) -> Self {
        let outcome = |value: &str| {
            registry.counter_with(
                names::CAMPAIGN_OUTCOMES,
                "Classified fault effects by outcome class",
                Class::Deterministic,
                "outcome",
                value,
            )
        };
        let nonfinite = |value: &str| {
            registry.counter_with(
                names::CAMPAIGN_NONFINITE,
                "Non-finite elements observed in corrupted outputs",
                Class::Deterministic,
                "kind",
                value,
            )
        };
        CampaignCounters {
            scopes: registry.counter(
                names::ENGINE_SCOPES,
                "Fault scopes processed by the campaign engine",
                Class::Deterministic,
            ),
            items: registry.counter(
                names::ENGINE_ITEMS,
                "Per-image result rows produced by the campaign engine",
                Class::Deterministic,
            ),
            injections: registry.counter(
                names::CAMPAIGN_INJECTIONS,
                "Faults applied across the campaign",
                Class::Deterministic,
            ),
            masked: outcome("masked"),
            sdc: outcome("sdc"),
            due: outcome("due"),
            nan: nonfinite("nan"),
            inf: nonfinite("inf"),
            scope_seconds: registry.histogram(
                names::ENGINE_SCOPE_SECONDS,
                "Wall-clock latency of one fault scope",
            ),
            layers: Arc::default(),
            registry,
        }
    }

    /// Records that one scope finished processing (liveness only).
    pub fn scope_finished(&self, started: Instant) {
        self.scopes.inc();
        self.scope_seconds.observe(started.elapsed().as_secs_f64());
    }

    /// Counts one applied fault on injectable layer `layer`.
    pub fn injection(&self, layer: usize) {
        self.injections.inc();
        let mut layers = self.layers.lock().unwrap_or_else(|p| p.into_inner());
        layers
            .entry(layer)
            .or_insert_with(|| {
                self.registry.counter_with(
                    names::CAMPAIGN_LAYER_INJECTIONS,
                    "Faults applied per injectable-layer index",
                    Class::Deterministic,
                    "layer",
                    &layer.to_string(),
                )
            })
            .inc();
    }

    /// Counts one merged scope: its result rows, their outcomes and the
    /// scope's NaN/Inf elements.
    pub fn scope_merged(&self, rows: u64, outcomes: OutcomeTallies, (nan, inf): (u64, u64)) {
        self.items.add(rows);
        self.masked.add(outcomes.masked);
        self.sdc.add(outcomes.sdc);
        self.due.add(outcomes.due);
        self.nan.add(nan);
        self.inf.add(inf);
    }

    /// Counts one statistical stop decision.
    pub fn stop_decision(&self, verdict: StopVerdict) {
        self.registry
            .counter_with(
                names::CAMPAIGN_STOP_DECISIONS,
                "Statistical stop decisions by verdict",
                Class::Deterministic,
                "verdict",
                verdict.name(),
            )
            .inc();
    }

    /// Counts the scopes a stop policy skipped; registers nothing when
    /// none was.
    pub fn skipped_scopes(&self, skipped: u64) {
        if skipped > 0 {
            self.registry
                .counter(
                    names::ENGINE_SCOPES_SKIPPED,
                    "Fault scopes skipped after stratum retirement",
                    Class::Deterministic,
                )
                .add(skipped);
        }
    }

    /// Counts the rows and bytes the run's artifact sink persisted.
    pub fn sink_written(&self, rows: u64, bytes: u64) {
        self.registry
            .counter(
                names::STORE_ROWS_WRITTEN,
                "Result rows persisted by the artifact sink",
                Class::Deterministic,
            )
            .add(rows);
        self.registry
            .counter(
                names::STORE_BYTES_WRITTEN,
                "Bytes persisted by the artifact sink",
                Class::Deterministic,
            )
            .add(bytes);
    }

    /// Result rows counted so far.
    pub(crate) fn items(&self) -> u64 {
        self.items.value()
    }

    /// Outcome classes counted so far.
    pub(crate) fn outcomes(&self) -> OutcomeTallies {
        OutcomeTallies {
            masked: self.masked.value(),
            sdc: self.sdc.value(),
            due: self.due.value(),
        }
    }

    /// NaN and Inf elements counted so far.
    pub(crate) fn nonfinite(&self) -> (u64, u64) {
        (self.nan.value(), self.inf.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_on_the_registry_under_the_campaign_series() {
        let registry = Registry::new();
        let counters = CampaignCounters::new(registry.clone());
        counters.injection(3);
        counters.injection(3);
        counters.injection(1);
        counters.scope_merged(
            2,
            OutcomeTallies {
                masked: 1,
                sdc: 1,
                due: 0,
            },
            (7, 2),
        );
        counters.stop_decision(StopVerdict::RetireStratum);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::CAMPAIGN_INJECTIONS), 3);
        assert_eq!(
            snap.counter_labeled(names::CAMPAIGN_LAYER_INJECTIONS, "3"),
            Some(2)
        );
        assert_eq!(
            snap.counter_labeled(names::CAMPAIGN_LAYER_INJECTIONS, "1"),
            Some(1)
        );
        assert_eq!(snap.counter(names::ENGINE_ITEMS), 2);
        assert_eq!(
            snap.counter_labeled(names::CAMPAIGN_OUTCOMES, "sdc"),
            Some(1)
        );
        assert_eq!(
            snap.counter_labeled(names::CAMPAIGN_NONFINITE, "inf"),
            Some(2)
        );
        assert_eq!(
            snap.counter_labeled(names::CAMPAIGN_STOP_DECISIONS, "retire"),
            Some(1)
        );
        assert_eq!((counters.items(), counters.nonfinite()), (2, (7, 2)));
        assert_eq!(
            counters.outcomes(),
            OutcomeTallies {
                masked: 1,
                sdc: 1,
                due: 0
            }
        );
    }

    #[test]
    fn lazy_series_stay_absent_until_counted() {
        let registry = Registry::new();
        let counters = CampaignCounters::new(registry.clone());
        counters.skipped_scopes(0);
        let text = registry.snapshot().render();
        for name in [
            names::CAMPAIGN_LAYER_INJECTIONS,
            names::CAMPAIGN_STOP_DECISIONS,
            names::ENGINE_SCOPES_SKIPPED,
            names::STORE_ROWS_WRITTEN,
        ] {
            assert!(
                !text.contains(name),
                "{name} registered before use:\n{text}"
            );
        }
        counters.skipped_scopes(5);
        counters.sink_written(4, 96);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::ENGINE_SCOPES_SKIPPED), 5);
        assert_eq!(
            (
                snap.counter(names::STORE_ROWS_WRITTEN),
                snap.counter(names::STORE_BYTES_WRITTEN)
            ),
            (4, 96)
        );
    }
}
