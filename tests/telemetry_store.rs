//! One telemetry store: a run's counts live only in its metrics
//! registry, and the recorder reads them.
//!
//! The engine counts every campaign fact once per merged scope, on the
//! run's [`Registry`] — the `RunConfig`'s, or a private one when only a
//! recorder reads counts. The trace summary, the saved `events.jsonl`
//! summary record and the registry therefore agree on every run, at
//! every thread count, with or without an explicit registry; a change
//! to one store shows in the other; and a traced run without a registry
//! renders no metrics.

use alfi::core::campaign::{ImgClassCampaign, RunConfig};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::metrics::{names, Class, Registry, Snapshot};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{
    CiMethod, FaultMode, InjectionPolicy, InjectionTarget, Scenario, StopPolicy, StopScope,
};
use alfi::trace::{EventLog, Recorder, RunCounts, StopVerdict, EVENTS_FILE};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One campaign of the matrix: its scenario, model seed and stop
/// policy.
struct Case {
    name: &'static str,
    scenario: Scenario,
    model_seed: u64,
    stop: Option<StopPolicy>,
}

impl Case {
    fn campaign(&self) -> ImgClassCampaign {
        let s = &self.scenario;
        let mcfg = ModelConfig {
            input_hw: 16,
            width_mult: 0.0625,
            seed: self.model_seed,
            ..ModelConfig::default()
        };
        let ds = ClassificationDataset::new(s.dataset_size, mcfg.num_classes, 3, 16, 11);
        let loader = ClassificationLoader::new(ds, s.batch_size);
        ImgClassCampaign::new(alexnet(&mcfg), s.clone(), loader)
    }

    fn config(&self, threads: usize, rec: &Recorder, dir: &Path) -> RunConfig {
        let cfg = RunConfig::new()
            .threads(threads)
            .recorder(rec.clone())
            .save_dir(dir);
        match self.stop {
            Some(policy) => cfg.stop_policy(policy),
            None => cfg,
        }
    }
}

fn scenario(images: usize, target: InjectionTarget, fault_mode: FaultMode, seed: u64) -> Scenario {
    Scenario {
        dataset_size: images,
        injection_target: target,
        fault_mode,
        seed,
        ..Scenario::default()
    }
}

/// A per-image weight run, a per-batch neuron run whose near-`f32::MAX`
/// values overflow into NaN and Inf, a per-layer stop-policy run that
/// retires strata and skips their scopes, and a campaign-scope
/// stop-policy run that ends early without skipping any.
fn cases() -> Vec<Case> {
    let weights = scenario(
        8,
        InjectionTarget::Weights,
        FaultMode::exponent_bit_flip(),
        0x7124CE,
    );
    let mut nonfinite = scenario(
        16,
        InjectionTarget::Neurons,
        FaultMode::RandomValue {
            min: 3.0e38,
            max: 3.4e38,
        },
        3,
    );
    nonfinite.injection_policy = InjectionPolicy::PerBatch;
    nonfinite.batch_size = 4;
    let per_layer = StopPolicy {
        half_width: 0.35,
        confidence: 0.9,
        min_samples: 4,
        check_every: 8,
        scope: StopScope::PerLayer,
        method: CiMethod::ClopperPearson,
    };
    let campaign_wide = StopPolicy {
        half_width: 0.25,
        confidence: 0.95,
        min_samples: 16,
        check_every: 8,
        scope: StopScope::Campaign,
        method: CiMethod::Wilson,
    };
    let stop_scenario = |images| {
        scenario(
            images,
            InjectionTarget::Weights,
            FaultMode::exponent_bit_flip(),
            0x57A7,
        )
    };
    vec![
        Case {
            name: "per_image weights",
            scenario: weights,
            model_seed: 7,
            stop: None,
        },
        Case {
            name: "per_batch nan/inf",
            scenario: nonfinite,
            model_seed: 3,
            stop: None,
        },
        Case {
            name: "per_layer stop",
            scenario: stop_scenario(160),
            model_seed: 7,
            stop: Some(per_layer),
        },
        Case {
            name: "campaign stop",
            scenario: stop_scenario(64),
            model_seed: 7,
            stop: Some(campaign_wide),
        },
    ]
}

fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alfi_it_telemetry_store_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The summary record of a saved run's event log.
fn saved_counts(dir: &Path) -> RunCounts {
    EventLog::load(dir.join(EVENTS_FILE))
        .unwrap()
        .summary
        .expect("the log closes with a summary")
}

/// Checks that a registry snapshot holds `counts`: items, injections
/// (in total and per layer, with no other layer), outcomes and NaN/Inf.
fn assert_registry_holds(snap: &Snapshot, counts: &RunCounts, context: &str) {
    let outcome = |class| snap.counter_labeled(names::CAMPAIGN_OUTCOMES, class);
    let nonfinite = |kind| snap.counter_labeled(names::CAMPAIGN_NONFINITE, kind);
    assert_eq!(
        snap.counter(names::ENGINE_ITEMS),
        counts.items,
        "items, {context}"
    );
    assert_eq!(
        snap.counter(names::CAMPAIGN_INJECTIONS),
        counts.injections,
        "injections, {context}"
    );
    assert_eq!(
        (outcome("masked"), outcome("sdc"), outcome("due")),
        (
            Some(counts.outcomes.masked),
            Some(counts.outcomes.sdc),
            Some(counts.outcomes.due)
        ),
        "outcomes, {context}"
    );
    assert_eq!(
        (nonfinite("nan"), nonfinite("inf")),
        (Some(counts.nan), Some(counts.inf)),
        "NaN/Inf, {context}"
    );
    for (layer, n) in &counts.per_layer {
        let got = snap.counter_labeled(names::CAMPAIGN_LAYER_INJECTIONS, &layer.to_string());
        assert_eq!(got, Some(*n), "layer {layer} injections, {context}");
    }
    assert_eq!(
        snap.counter_sum(names::CAMPAIGN_LAYER_INJECTIONS),
        counts.injections,
        "per-layer series beyond the counted layers, {context}"
    );
}

#[test]
fn summary_event_log_and_registry_agree_with_and_without_a_registry() {
    let mut seen = BTreeSet::new();
    for case in cases() {
        let mut reference: Option<RunCounts> = None;
        for threads in [1, 2, 7] {
            let context = format!("{} at {threads} threads", case.name);

            let (registry, rec) = (Registry::new(), Recorder::new());
            let dir = run_dir(&format!("registry_{threads}"));
            case.campaign()
                .run_with(&case.config(threads, &rec, &dir).metrics(registry.clone()))
                .unwrap();
            let counts = rec.summary().counts;
            assert_eq!(
                saved_counts(&dir),
                counts,
                "event log vs summary, {context}"
            );
            let snap = registry.snapshot();
            assert_registry_holds(&snap, &counts, &context);

            let stops = EventLog::load(dir.join(EVENTS_FILE)).unwrap().stops;
            for verdict in [StopVerdict::StopCampaign, StopVerdict::RetireStratum] {
                let n = stops.iter().filter(|e| e.verdict == verdict).count() as u64;
                let series = snap.counter_labeled(names::CAMPAIGN_STOP_DECISIONS, verdict.name());
                assert_eq!(
                    series,
                    (n > 0).then_some(n),
                    "{} decisions, {context}",
                    verdict.name()
                );
                if n > 0 {
                    seen.insert(verdict.name());
                }
            }
            let stop = rec.summary().stop;
            let skipped = stop.map_or(0, |o| o.skipped_scopes);
            assert_eq!(
                snap.counter(names::ENGINE_SCOPES_SKIPPED),
                skipped,
                "skipped scopes, {context}"
            );
            assert_eq!(
                snap.render().contains(names::ENGINE_SCOPES_SKIPPED),
                skipped > 0,
                "the skipped-scope series exists only when a scope was skipped, {context}"
            );
            if counts.nan > 0 && counts.inf > 0 {
                seen.insert("NaN and Inf");
            }
            if stop.is_some() {
                seen.insert(if skipped > 0 {
                    "skipped scopes"
                } else {
                    "a stop without skipped scopes"
                });
            }
            let _ = std::fs::remove_dir_all(&dir);

            let alone = Recorder::new();
            let dir = run_dir(&format!("alone_{threads}"));
            case.campaign()
                .run_with(&case.config(threads, &alone, &dir))
                .unwrap();
            let alone_counts = alone.summary().counts;
            assert_eq!(
                saved_counts(&dir),
                alone_counts,
                "event log vs summary, recorder alone, {context}"
            );
            assert_registry_holds(&snap, &alone_counts, &format!("recorder alone, {context}"));
            assert_eq!(
                alone.stop_events(),
                rec.stop_events(),
                "stop decisions, {context}"
            );
            let _ = std::fs::remove_dir_all(&dir);

            assert_eq!(
                reference.get_or_insert(counts.clone()),
                &counts,
                "counts, {context}"
            );
        }
    }
    let want = [
        "NaN and Inf",
        "a stop without skipped scopes",
        "retire",
        "skipped scopes",
        "stop",
    ];
    assert_eq!(seen, BTreeSet::from(want), "what the matrix covers");
}

#[test]
fn the_recorder_reads_the_registry_it_counted_in() {
    let case = cases().swap_remove(0);
    let (registry, rec) = (Registry::new(), Recorder::new());
    let dir = run_dir("shared");
    case.campaign()
        .run_with(&case.config(1, &rec, &dir).metrics(registry.clone()))
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let before = rec.summary().counts.outcomes;
    registry
        .counter_with(
            names::CAMPAIGN_OUTCOMES,
            "Classified fault effects by outcome class",
            Class::Deterministic,
            "outcome",
            "sdc",
        )
        .inc();
    let after = rec.summary().counts.outcomes;
    assert_eq!(
        (after.sdc, after.masked, after.due),
        (before.sdc + 1, before.masked, before.due)
    );
}

#[test]
fn a_traced_run_without_a_registry_writes_no_metrics() {
    let case = cases().swap_remove(0);
    let rec = Recorder::new();
    let dir = run_dir("no_metrics");
    case.campaign()
        .run_with(&case.config(2, &rec, &dir))
        .unwrap();
    let (events, metrics) = (
        dir.join(EVENTS_FILE).is_file(),
        dir.join("metrics.prom").exists(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(events, "the traced run saved its event log");
    assert!(!metrics, "a run without a registry rendered metrics.prom");
    assert!(
        rec.summary().counts.items > 0,
        "the recorder still reads the run's counts"
    );
    // The private counter set is not the process-global registry (no
    // test in this binary publishes campaign counts there).
    let global = alfi::metrics::global().snapshot();
    assert_eq!(
        global.counter_labeled(names::CAMPAIGN_OUTCOMES, "masked"),
        None
    );
    assert_eq!(global.counter(names::ENGINE_ITEMS), 0);
}
