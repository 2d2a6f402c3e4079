//! The engine's one driver: bounded rounds and merge-time telemetry.
//!
//! Scopes stream from the task into ordered rounds — one scope in place
//! at one thread, up to 64 scopes per thread on the pool — so a run
//! holds at most one round of scopes in memory, whatever its length.
//! Each merged scope's telemetry is counted once, in work order:
//! outcomes reach the recorder before the row counts as finished, a
//! batched scope adds its NaN/Inf once, and the event log a traced run
//! writes reads back even when a fault produced a non-finite value.

use alfi::analyze::report::analyze_dir;
use alfi::core::campaign::classification::ClassificationScope;
use alfi::core::campaign::{
    CampaignTask, ClassificationCampaignResult, ClassificationRow, Engine, ImgClassCampaign,
    RunConfig, ScopeCtx, ScopeSink,
};
use alfi::core::persist::RunTrace;
use alfi::core::{ArtifactSink, Artifacts, CoreError, FaultMatrix, LayerTarget};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::metrics::{names, Registry};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::nn::LayerCtx;
use alfi::scenario::{ArtifactFormat, FaultMode, InjectionPolicy, InjectionTarget, Scenario};
use alfi::tensor::Tensor;
use alfi::trace::{EffectClass, Recorder};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const HW: usize = 16;

fn mcfg() -> ModelConfig {
    ModelConfig { input_hw: HW, width_mult: 0.0625, seed: 3, ..ModelConfig::default() }
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

fn campaign(s: Scenario) -> ImgClassCampaign {
    let ds = ClassificationDataset::new(s.dataset_size, mcfg().num_classes, 3, HW, 11);
    let loader = ClassificationLoader::new(ds, s.batch_size);
    ImgClassCampaign::new(alexnet(&mcfg()), s, loader)
}

/// Live and peak counts of [`Resident`] scopes.
#[derive(Debug, Default)]
struct Residency {
    live: AtomicUsize,
    peak: AtomicUsize,
}

/// A scope that counts itself live from creation to drop.
struct Resident {
    scope: ClassificationScope,
    residency: Arc<Residency>,
}

impl Resident {
    fn new(scope: ClassificationScope, residency: &Arc<Residency>) -> Self {
        let live = residency.live.fetch_add(1, Ordering::SeqCst) + 1;
        residency.peak.fetch_max(live, Ordering::SeqCst);
        Resident { scope, residency: Arc::clone(residency) }
    }
}

impl Drop for Resident {
    fn drop(&mut self) {
        self.residency.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The classification campaign with its scopes wrapped in [`Resident`].
struct Counting {
    inner: ImgClassCampaign,
    residency: Arc<Residency>,
}

impl CampaignTask for Counting {
    type Scope = Resident;
    type Row = ClassificationRow;
    type Result = ClassificationCampaignResult;

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn model_name(&self) -> String {
        self.inner.model_name()
    }

    fn scenario(&self) -> &Scenario {
        self.inner.scenario()
    }

    fn replay_matrix(&self) -> Option<&FaultMatrix> {
        self.inner.replay_matrix()
    }

    fn resolve_targets(&self) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError> {
        self.inner.resolve_targets()
    }

    fn stream_scopes(
        &self,
        epoch: u64,
        sink: &mut ScopeSink<'_, Resident>,
    ) -> Result<ControlFlow<()>, CoreError> {
        self.inner.stream_scopes(epoch, &mut |first, scope| {
            sink(first, Resident::new(scope, &self.residency))
        })
    }

    fn process_scope(
        &self,
        ctx: &ScopeCtx<'_>,
        scope: &Resident,
        rec: &Recorder,
        rows: &mut Vec<ClassificationRow>,
        trace: &mut RunTrace,
    ) -> Result<(), CoreError> {
        self.inner.process_scope(ctx, &scope.scope, rec, rows, trace)
    }

    fn classify(row: &ClassificationRow) -> EffectClass {
        <ImgClassCampaign as CampaignTask>::classify(row)
    }

    fn row_nonfinite(row: &ClassificationRow) -> (u64, u64) {
        <ImgClassCampaign as CampaignTask>::row_nonfinite(row)
    }

    fn finalize(
        &self,
        rows: Vec<ClassificationRow>,
        matrix: FaultMatrix,
        trace: RunTrace,
    ) -> ClassificationCampaignResult {
        self.inner.finalize(rows, matrix, trace)
    }

    fn make_row_sink(
        &self,
        format: ArtifactFormat,
        artifacts: &Artifacts,
    ) -> Result<Option<Box<dyn ArtifactSink<ClassificationRow>>>, CoreError> {
        self.inner.make_row_sink(format, artifacts)
    }
}

#[test]
fn a_run_keeps_at_most_one_round_of_scopes_resident() {
    const IMAGES: usize = 200;
    let mut reference = None;
    for threads in [1, 2] {
        let s = scenario(IMAGES, InjectionTarget::Weights, FaultMode::exponent_bit_flip(), 5);
        let task = Counting { inner: campaign(s), residency: Arc::default() };
        let result = Engine::new(&RunConfig::new().threads(threads)).run(&task).unwrap();
        assert_eq!(result.rows.len(), IMAGES);
        assert_eq!(task.residency.live.load(Ordering::SeqCst), 0, "every scope dropped");
        let peak = task.residency.peak.load(Ordering::SeqCst);
        if threads == 1 {
            assert_eq!(peak, 1, "the in-place path holds one scope at a time");
        } else {
            assert!(peak > 1, "{threads} threads ran one scope at a time");
            let context = format!("{peak} of {IMAGES} scopes resident at {threads} threads");
            assert!(peak <= 64 * threads, "{context}");
        }
        let csv = result.to_csv(alfi::core::campaign::CsvVariant::Corrupted);
        assert_eq!(reference.get_or_insert(csv.clone()), &csv, "rows at {threads} threads");
    }
}

#[test]
fn a_batched_scope_counts_its_nan_and_inf_once() {
    // Near-`f32::MAX` neuron values overflow the following layers, so
    // the faulty passes see NaN and Inf. Each of the four rows of a
    // batch scope carries the scope's counts.
    let mut s = scenario(
        16,
        InjectionTarget::Neurons,
        FaultMode::RandomValue { min: 3.0e38, max: 3.4e38 },
        3,
    );
    s.injection_policy = InjectionPolicy::PerBatch;
    s.batch_size = 4;
    for threads in [1, 2] {
        let (registry, rec) = (Registry::new(), Recorder::new());
        let cfg = RunConfig::new().threads(threads).metrics(registry.clone()).recorder(rec.clone());
        let result = campaign(s.clone()).run_with(&cfg).unwrap();
        let per_scope = |count: fn(&ClassificationRow) -> usize| -> u64 {
            result.rows.chunks(4).map(|scope| count(&scope[0]) as u64).sum()
        };
        let (nan, inf) = (per_scope(|r| r.corr_nan), per_scope(|r| r.corr_inf));
        assert!(nan > 0 && inf > 0, "no scope saw both NaN and Inf");
        let summary = rec.summary().counts;
        assert_eq!((summary.nan, summary.inf), (nan, inf), "event summary at {threads} threads");
        let snap = registry.snapshot();
        let metric = |kind| snap.counter_labeled(names::CAMPAIGN_NONFINITE, kind).unwrap();
        assert_eq!((metric("nan"), metric("inf")), (nan, inf), "metric at {threads} threads");
    }
}

#[test]
fn outcomes_reach_the_recorder_before_the_next_scope_starts() {
    const IMAGES: usize = 8;
    let rec = Recorder::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut model = alexnet(&mcfg());
    let (probe, log) = (rec.clone(), Arc::clone(&seen));
    // A hook runs in each scope's golden pass, before its faulty pass.
    let hook = move |_: &LayerCtx, _: &mut Tensor| {
        let summary = probe.summary().counts;
        log.lock().unwrap().push((summary.outcomes.total(), summary.items));
    };
    model.register_hook(0, Arc::new(hook)).unwrap();
    let s = scenario(IMAGES, InjectionTarget::Weights, FaultMode::exponent_bit_flip(), 9);
    let ds = ClassificationDataset::new(IMAGES, mcfg().num_classes, 3, HW, 11);
    let mut c = ImgClassCampaign::new(model, s, ClassificationLoader::new(ds, 1));
    c.run_with(&RunConfig::new().recorder(rec.clone())).unwrap();
    let seen = seen.lock().unwrap();
    for &(outcomes, items) in seen.iter() {
        assert_eq!(outcomes, items, "outcomes lag the finished items: {seen:?}");
    }
    assert_eq!(seen.last().map(|&(_, items)| items), Some(IMAGES as u64 - 1), "{seen:?}");
    let summary = rec.summary().counts;
    assert_eq!((summary.outcomes.total(), summary.items), (IMAGES as u64, IMAGES as u64));
}

#[test]
fn a_traced_run_with_non_finite_injections_analyzes() {
    let s = scenario(24, InjectionTarget::Neurons, FaultMode::BitFlip { bit_range: (30, 30) }, 2);
    let dir = std::env::temp_dir().join("alfi_it_engine_rounds_null");
    let _ = std::fs::remove_dir_all(&dir);
    campaign(s).run_with(&RunConfig::new().recorder(Recorder::new()).save_dir(&dir)).unwrap();
    let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let null = |key: &str| events.contains(&format!("\"{key}\":null"));
    assert!(null("original") || null("corrupted"), "no injected value was non-finite");
    let report = analyze_dir(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    report.unwrap();
}
