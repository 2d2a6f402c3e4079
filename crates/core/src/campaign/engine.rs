//! The generic campaign engine — one driver for every campaign type,
//! injection policy and thread count.
//!
//! The paper's harness couples fault-free, faulty and hardened model
//! instances behind a single scenario-driven loop (§III). This module
//! is that loop, extracted once: a campaign implements [`CampaignTask`]
//! (how to resolve injectable targets, stream fault scopes, process one
//! scope into rows and finalize a result) and the [`Engine`] owns
//! everything the campaigns used to duplicate:
//!
//! - epoch/batch/slot iteration for all three
//!   [`InjectionPolicy`] variants (via [`SlotCursor`]),
//! - replay validation of a pre-generated [`FaultMatrix`],
//! - hardened-model injectable-layer cross-checking,
//! - [`Recorder`] meta / span / outcome / event wiring,
//! - the [`alfi_pool`] fan-out with ordered merge and
//!   [`CoreError::WorkerPanic`] propagation,
//! - `save_dir` persistence: the replay set ([`Artifacts`]) plus a
//!   streaming row sink ([`ArtifactSink`]) fed one row at a time at
//!   scope boundaries, in CSV or columnar binary format
//!   ([`ArtifactFormat`]).
//!
//! Every persisted row carries a deterministic
//! [`RowKey`] `(epoch, batch, fault_id)`: `fault_id` is the fault
//! matrix slot that was armed while the row's scope ran, `batch` the
//! ordinal of its loader batch within the epoch. Both drivers assign
//! keys identically, so row artifacts are byte-identical at every
//! thread count — and the columnar store's fault-id index answers
//! "what did fault *n* do?" without a full scan.
//!
//! Scopes are *streamed* from the task (one batch materialized at a
//! time), so memory stays bounded on large scenarios. The engine is
//! deterministic by construction: the sequential and parallel drivers
//! assign fault slots in the same order, and the pool merges worker
//! results in work order, so outputs are bit-identical for any thread
//! count.

use crate::artifact::{ArtifactSink, Artifacts};
use crate::campaign::config::RunConfig;
use crate::campaign::stop::{ScopeDecision, StopReport, StopState};
use crate::error::CoreError;
use crate::fault::FaultRecord;
use crate::injector::injection_event;
use crate::matrix::{FaultMatrix, LayerTarget};
use crate::persist::{save_events, save_fault_matrix, save_metrics, RunTrace, TraceEntry};
use alfi_metrics::{names, Class, Counter, HealthSink, Histogram, Registry, Watchdog};
use alfi_scenario::{ArtifactFormat, InjectionPolicy, Scenario, StopPolicy};
use alfi_store::RowKey;
use alfi_tensor::gemm::{self, KernelPath};
use alfi_trace::{EffectClass, OutcomeTallies, Phase, Recorder, RunMeta};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Read-only context handed to scope processing: the scenario, the
/// resolved injectable-layer targets (primary and hardened) and the
/// fault set armed for the current scope.
#[derive(Debug, Clone, Copy)]
pub struct ScopeCtx<'r> {
    /// The scenario driving the run.
    pub scenario: &'r Scenario,
    /// Injectable-layer targets of the primary model.
    pub targets: &'r [LayerTarget],
    /// Aligned targets of the hardened model, when one was attached.
    pub resil_targets: Option<&'r [LayerTarget]>,
    /// Faults to arm while processing this scope.
    pub faults: &'r [FaultRecord],
}

/// Streaming sink for [`CampaignTask::stream_scopes`]. Called once per
/// scope with `(first_in_batch, scope)`; returns `Break` when the
/// engine wants the stream to stop (exhausted fault matrix).
pub type ScopeSink<'a, S> = dyn FnMut(bool, S) -> Result<ControlFlow<()>, CoreError> + 'a;

/// A campaign workload the [`Engine`] can drive.
///
/// Implementations own the *what* (model forwards, per-call fault
/// plans, row shapes); the engine owns the *how* (policy iteration,
/// slot assignment, replay validation, tracing, pooling, persistence).
/// [`ImgClassCampaign`](crate::campaign::ImgClassCampaign),
/// [`VitCampaign`](crate::campaign::VitCampaign) and
/// [`ObjDetCampaign`](crate::campaign::ObjDetCampaign) are the in-tree
/// implementations. A task is [`Sync`]: the parallel driver shares it
/// across pool workers, which call
/// [`process_scope`](Self::process_scope) concurrently, so scope
/// processing must not mutate the task's models.
pub trait CampaignTask: Sync {
    /// Unit of work armed with one fault set — a single image or a
    /// whole batch, at the task's discretion.
    type Scope: Send + Sync;
    /// Per-image output row.
    type Row: Send;
    /// Finalized campaign output.
    type Result;

    /// Campaign kind recorded in the trace header (`"classification"`,
    /// `"detection"`).
    fn kind(&self) -> &'static str;

    /// Model name recorded in the trace header.
    fn model_name(&self) -> String;

    /// The scenario driving the run.
    fn scenario(&self) -> &Scenario;

    /// Noun used in the hardened-model cross-check error message
    /// (`"model"` or `"detector"`).
    fn hardened_noun(&self) -> &'static str {
        "model"
    }

    /// A replayed fault matrix, when one was attached. The engine
    /// validates it against the scenario before use.
    fn replay_matrix(&self) -> Option<&FaultMatrix>;

    /// Resolves injectable-layer targets for the primary model and,
    /// when a hardened model is attached, aligned targets for it. The
    /// engine cross-checks that both lists have the same length.
    #[allow(clippy::type_complexity)]
    fn resolve_targets(&self) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError>;

    /// Streams the fault scopes of `epoch` into `sink` in dataset
    /// order, one batch materialized at a time. `first_in_batch` must
    /// be `true` exactly for each batch's first scope (it drives
    /// `per_batch` slot advancement). Returns `Break` when the sink
    /// stopped the stream.
    fn stream_scopes(
        &self,
        epoch: u64,
        sink: &mut ScopeSink<'_, Self::Scope>,
    ) -> Result<ControlFlow<()>, CoreError>;

    /// Runs the fault-free / faulty (/ hardened) passes for one scope,
    /// appending one row per contained image and the applied-fault
    /// trace entries. Both drivers call it: the sequential driver in
    /// place, the parallel driver from pool workers into per-item
    /// vectors that it merges in work order.
    fn process_scope(
        &self,
        ctx: &ScopeCtx<'_>,
        scope: &Self::Scope,
        rec: &Recorder,
        rows: &mut Vec<Self::Row>,
        trace: &mut RunTrace,
    ) -> Result<(), CoreError>;

    /// Trace-level fault-effect classification of one row
    /// (masked / SDC / DUE), recorded as an outcome tally. A pure
    /// function of the row, so both drivers can classify rows as they
    /// are produced.
    fn classify(row: &Self::Row) -> EffectClass;

    /// NaN / Inf element counts observed in a row's corrupted output,
    /// feeding the live `alfi_campaign_nonfinite_total` counters (the
    /// watchdog's NaN-storm signal). The default reports none.
    fn row_nonfinite(_row: &Self::Row) -> (u64, u64) {
        (0, 0)
    }

    /// Assembles the campaign result from the collected rows, the
    /// fault matrix that drove the run and the applied-fault trace.
    fn finalize(&self, rows: Vec<Self::Row>, matrix: FaultMatrix, trace: RunTrace) -> Self::Result;

    /// Builds the streaming row sink for `save_dir` persistence in the
    /// given format, or `None` when this campaign has no per-row
    /// artifact under `format` (detection keeps its JSON writers in
    /// `alfi-eval` for the CSV format). Called once before the driver
    /// starts; the engine appends every produced row in deterministic
    /// order with its [`RowKey`] and finalizes the sink under the
    /// `persist` trace phase. The replay set (scenario, fault matrix,
    /// trace, events, metrics) is written by the engine itself.
    fn make_row_sink(
        &self,
        format: ArtifactFormat,
        artifacts: &Artifacts,
    ) -> Result<Option<Box<dyn ArtifactSink<Self::Row>>>, CoreError>;
}

/// Fault-slot bookkeeping for the sequential driver: decides, per
/// scope, whether to advance to a fresh matrix slot or reuse the last
/// armed one, for all three [`InjectionPolicy`] variants.
///
/// The run stops (`arm` returns `None`) as soon as the matrix has no
/// slot left to hand out — checked before *every* scope, so even a
/// non-advancing `per_batch`/`per_epoch` scope ends the run once the
/// matrix is exhausted (reuse requires a live matrix). This matches
/// the paper's semantics of a pre-sized fault matrix bounding the run.
#[derive(Debug)]
pub struct SlotCursor<'m> {
    matrix: &'m FaultMatrix,
    policy: InjectionPolicy,
    slot: usize,
    epoch_armed: bool,
}

impl<'m> SlotCursor<'m> {
    /// Creates a cursor at slot 0.
    pub fn new(matrix: &'m FaultMatrix, policy: InjectionPolicy) -> Self {
        SlotCursor { matrix, policy, slot: 0, epoch_armed: false }
    }

    /// Marks the start of a new epoch (`per_epoch` re-arms once per
    /// epoch).
    pub fn begin_epoch(&mut self) {
        self.epoch_armed = false;
    }

    /// Returns the fault set for the next scope, or `None` when the
    /// matrix is exhausted and the run should end gracefully.
    ///
    /// Advancement: `per_image` takes a fresh slot for every scope,
    /// `per_batch` for each batch's first scope, `per_epoch` once per
    /// epoch; non-advancing scopes reuse the last armed slot.
    pub fn arm(&mut self, first_in_batch: bool) -> Option<&'m [FaultRecord]> {
        if self.slot >= self.matrix.num_slots() {
            return None;
        }
        let advance = match self.policy {
            InjectionPolicy::PerImage => true,
            InjectionPolicy::PerBatch => first_in_batch,
            InjectionPolicy::PerEpoch => !self.epoch_armed,
        };
        // The first scope of a run always advances (nothing is armed
        // yet), whatever the policy flags claim.
        if advance || self.slot == 0 {
            self.epoch_armed = true;
            self.slot += 1;
        }
        Some(self.matrix.faults_for_slot(self.slot - 1))
    }

    /// The next fresh slot index (also the number of slots consumed).
    pub fn position(&self) -> usize {
        self.slot
    }
}

/// Collected raw output of a driver, before task finalization.
struct Parts<T: CampaignTask + ?Sized> {
    rows: Vec<T::Row>,
    matrix: FaultMatrix,
    trace: RunTrace,
    /// Early-stop decisions and achieved precision, when a
    /// [`StopPolicy`] governed the run.
    stop: Option<StopReport>,
}

/// Pre-resolved counter handles for the engine's live instrumentation.
///
/// Registered once per run; both drivers bump these as scopes finish,
/// so a metrics endpoint or health watchdog sees throughput, injection
/// and outcome data *while* the campaign runs instead of after it. All
/// counters are [`Class::Deterministic`] — their final values depend
/// only on the scenario, never on thread count or timing — except the
/// scope-latency histogram, which is wall-clock and stays out of
/// deterministic renders by construction (histograms are always
/// runtime-class).
pub(crate) struct EngineMetrics {
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
    /// Lazily-registered per-layer injection counters, keyed by
    /// injectable-layer index.
    layers: Mutex<BTreeMap<usize, Counter>>,
}

impl EngineMetrics {
    fn new(registry: Registry) -> Self {
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
        EngineMetrics {
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
            scope_seconds: registry
                .histogram(names::ENGINE_SCOPE_SECONDS, "Wall-clock latency of one fault scope"),
            layers: Mutex::new(BTreeMap::new()),
            registry,
        }
    }

    /// Records one finished scope: its rows (classified live) and the
    /// applied-fault trace entries it produced.
    fn scope_done<T: CampaignTask + ?Sized>(
        &self,
        rows: &[T::Row],
        entries: &[TraceEntry],
        started: Instant,
    ) {
        self.scopes.inc();
        self.items.add(rows.len() as u64);
        self.scope_seconds.observe(started.elapsed().as_secs_f64());
        for row in rows {
            match T::classify(row) {
                EffectClass::Masked => self.masked.inc(),
                EffectClass::Sdc => self.sdc.inc(),
                EffectClass::Due => self.due.inc(),
            }
            let (nan, inf) = T::row_nonfinite(row);
            if nan > 0 {
                self.nan.add(nan);
            }
            if inf > 0 {
                self.inf.add(inf);
            }
        }
        for entry in entries {
            self.injections.inc();
            self.layer_counter(entry.applied.record.layer).inc();
        }
    }

    /// Publishes a run's stop decisions into the registry. Registered
    /// lazily — runs without a stop policy (or with one that never
    /// fired) leave no zero-valued series behind, so deterministic
    /// renders of policy-free runs are unchanged.
    fn stop_report(&self, report: &StopReport) {
        for event in &report.events {
            self.registry
                .counter_with(
                    names::CAMPAIGN_STOP_DECISIONS,
                    "Statistical stop decisions by verdict",
                    Class::Deterministic,
                    "verdict",
                    event.verdict.name(),
                )
                .inc();
        }
        if report.outcome.skipped_scopes > 0 {
            self.registry
                .counter(
                    names::ENGINE_SCOPES_SKIPPED,
                    "Fault scopes skipped after stratum retirement",
                    Class::Deterministic,
                )
                .add(report.outcome.skipped_scopes);
        }
    }

    fn layer_counter(&self, layer: usize) -> Counter {
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
            .clone()
    }
}

/// Scoped process-wide kernel-path override: installs the
/// [`RunConfig::kernel`] selection for the duration of a campaign run
/// and restores whatever was in effect before (another override or the
/// `ALFI_KERNEL` environment default) when the run ends — including on
/// error paths, via `Drop`. The override is process-global so pool
/// workers resolve the same path as the driver thread.
struct KernelGuard {
    prev: Option<KernelPath>,
}

impl KernelGuard {
    fn install(path: KernelPath) -> Self {
        let prev = gemm::kernel_override();
        gemm::set_kernel_override(Some(path));
        KernelGuard { prev }
    }
}

impl Drop for KernelGuard {
    fn drop(&mut self) {
        gemm::set_kernel_override(self.prev);
    }
}

/// The one campaign driver: runs any [`CampaignTask`] under a
/// [`RunConfig`], sequentially or fanned out on the shared
/// [`alfi_pool`] pool, with identical outputs either way.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'c> {
    cfg: &'c RunConfig,
}

impl<'c> Engine<'c> {
    /// Creates an engine over a run configuration.
    pub fn new(cfg: &'c RunConfig) -> Self {
        Engine { cfg }
    }

    /// Runs the task end to end: trace header + item count, driver
    /// dispatch (`threads` ≤ 1 sequential, otherwise pooled),
    /// outcome/injection event recording in deterministic row order,
    /// task finalization and optional `save_dir` persistence.
    ///
    /// # Errors
    ///
    /// Returns resolution/injection errors; an exhausted fault matrix
    /// ends the run gracefully instead. With `threads > 1` a
    /// non-`per_image` policy is rejected (those fault scopes are
    /// inherently sequential) and a panicking worker surfaces as
    /// [`CoreError::WorkerPanic`].
    pub fn run<T: CampaignTask>(&self, task: &T) -> Result<T::Result, CoreError> {
        let cfg = self.cfg;
        let _kernel = cfg.kernel.map(KernelGuard::install);
        let rec = cfg.recorder.clone();
        let scenario = task.scenario();
        if rec.is_enabled() {
            rec.set_meta(RunMeta {
                campaign: task.kind().into(),
                model: task.model_name(),
                scenario_hash: alfi_trace::hash_hex(scenario.to_yaml_string().as_bytes()),
                seed: scenario.seed,
                threads: cfg.threads,
            });
            rec.begin_items((scenario.dataset_size * scenario.num_runs) as u64);
        }
        let registry = cfg.resolve_metrics();
        if registry.is_some() {
            // Light up the background pool/tensor instrumentation too —
            // those publish into the process-global registry.
            alfi_metrics::set_global_enabled(true);
        }
        if let (Some(addr), Some(reg)) = (&cfg.metrics_addr, &registry) {
            alfi_metrics::serve_once(addr, reg)
                .map_err(|e| CoreError::Io(format!("binding metrics endpoint on {addr}: {e}")))?;
        }
        let metrics = registry.clone().map(EngineMetrics::new);
        let watchdog = match (&cfg.health, &registry) {
            (Some(policy), Some(reg)) => {
                let sink: Option<HealthSink> = rec.is_enabled().then(|| {
                    let rec = rec.clone();
                    Arc::new(move |e: &alfi_metrics::HealthEvent| rec.record_health(e.to_string()))
                        as HealthSink
                });
                Some(Watchdog::spawn(policy.clone(), reg.clone(), sink))
            }
            _ => None,
        };
        let per_image = scenario.injection_policy == InjectionPolicy::PerImage;
        let stop_policy = cfg.resolve_stop(scenario);
        let artifacts = cfg.save_dir.as_ref().map(Artifacts::new);
        let mut sink = match &artifacts {
            Some(a) => {
                std::fs::create_dir_all(a.dir())?;
                task.make_row_sink(cfg.resolve_format(scenario), a)?
            }
            None => None,
        };
        let parts = match cfg.resolve_threads(per_image) {
            0 | 1 => sequential_parts(task, &rec, metrics.as_ref(), stop_policy, &mut sink),
            threads => {
                parallel_parts(task, threads, &rec, metrics.as_ref(), stop_policy, &mut sink)
            }
        };
        if let Some(watchdog) = watchdog {
            // Final registry sample happens inside stop(), so an
            // end-of-run threshold breach is still raised (and already
            // delivered to the recorder via the sink).
            watchdog.stop();
        }
        let parts = parts?;
        if rec.is_enabled() {
            // Outcome tallies and structured injection events in
            // deterministic row/trace order — the same order for any
            // thread count, which keeps the event log byte-reproducible.
            for row in &parts.rows {
                rec.record_outcome(T::classify(row));
            }
            for entry in &parts.trace.entries {
                rec.record_injection(injection_event(entry.image_id, &entry.applied));
            }
        }
        if let Some(report) = &parts.stop {
            if rec.is_enabled() {
                // Decisions in decision order — deterministic, so the
                // event log stays byte-reproducible across thread
                // counts even for stopped runs.
                for event in &report.events {
                    rec.record_stop(*event);
                }
                rec.set_stop_outcome(report.outcome);
            }
            if let Some(m) = metrics.as_ref() {
                m.stop_report(report);
            }
        }
        if let Some(a) = &artifacts {
            let _span = rec.span(Phase::Persist);
            scenario.save(a.scenario()).map_err(|e| CoreError::Io(e.to_string()))?;
            save_fault_matrix(&parts.matrix, a.faults())?;
            parts.trace.save(a.trace())?;
            if let Some(s) = sink.as_mut() {
                let stats = s.finalize()?;
                if let Some(reg) = &registry {
                    reg.counter(
                        names::STORE_ROWS_WRITTEN,
                        "Result rows persisted by the artifact sink",
                        Class::Deterministic,
                    )
                    .add(stats.rows);
                    reg.counter(
                        names::STORE_BYTES_WRITTEN,
                        "Bytes persisted by the artifact sink",
                        Class::Deterministic,
                    )
                    .add(stats.bytes);
                }
            }
            save_events(&rec, a.dir())?;
            save_metrics(registry.as_ref(), a.dir())?;
            if cfg.resolve_report(scenario) {
                // Last, so the hook sees the complete artifact set.
                super::report::run_report_hook(a.dir())
                    .map_err(|e| CoreError::Io(format!("report generation: {e}")))?;
            }
        }
        Ok(task.finalize(parts.rows, parts.matrix, parts.trace))
    }

    /// Bare pooled run with tracing and persistence disabled. Unlike
    /// [`run`](Self::run) with `threads: 1`, `threads == 1` here still
    /// uses the parallel driver (pool task guards stay active), which
    /// makes it the hook for tests that must exercise pooled fan-out
    /// regardless of configuration.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run); non-`per_image` policies are rejected.
    pub fn forced_parallel<T: CampaignTask>(
        task: &T,
        threads: usize,
    ) -> Result<T::Result, CoreError> {
        let parts = parallel_parts(task, threads, &Recorder::disabled(), None, None, &mut None)?;
        Ok(task.finalize(parts.rows, parts.matrix, parts.trace))
    }
}

/// Resolves targets and cross-checks the hardened model's list: a
/// mitigation wrapper must expose the same injectable layers as the
/// model it hardens, or slot-aligned fault replay would be meaningless.
#[allow(clippy::type_complexity)]
fn resolve_checked<T: CampaignTask + ?Sized>(
    task: &T,
) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError> {
    let (targets, resil_targets) = task.resolve_targets()?;
    if let Some(rt) = &resil_targets {
        if rt.len() != targets.len() {
            return Err(CoreError::FaultOutOfBounds {
                detail: format!(
                    "hardened {} exposes {} injectable layers, original {}",
                    task.hardened_noun(),
                    rt.len(),
                    targets.len()
                ),
            });
        }
    }
    Ok((targets, resil_targets))
}

/// Resolves the fault matrix: a replayed one (validated against the
/// scenario) or a freshly generated one.
fn take_or_generate<T: CampaignTask + ?Sized>(
    task: &T,
    targets: &[LayerTarget],
) -> Result<FaultMatrix, CoreError> {
    match task.replay_matrix() {
        Some(m) => {
            m.validate_replay(task.scenario())?;
            Ok(m.clone())
        }
        None => FaultMatrix::generate(task.scenario(), targets),
    }
}

/// Outcome tallies of freshly produced rows, for stop-policy
/// observation. Classification is pure, so recounting here costs one
/// extra pass over the scope's rows and nothing else.
fn classify_delta<T: CampaignTask + ?Sized>(rows: &[T::Row]) -> OutcomeTallies {
    let mut tallies = OutcomeTallies::default();
    for row in rows {
        tallies.add(T::classify(row));
    }
    tallies
}

/// Sequential driver: streams scopes epoch by epoch, arming fault
/// slots through a [`SlotCursor`] (all three policies) and processing
/// each scope in place. With a [`StopPolicy`], every scope advances the
/// stop state's boundary clock and the stream breaks as soon as a
/// campaign-stop decision fires. Rows stream into `sink` (when
/// persistence is on) as each scope completes, keyed by
/// `(epoch, batch, armed slot)`.
fn sequential_parts<T: CampaignTask + ?Sized>(
    task: &T,
    rec: &Recorder,
    metrics: Option<&EngineMetrics>,
    policy: Option<StopPolicy>,
    sink: &mut Option<Box<dyn ArtifactSink<T::Row>>>,
) -> Result<Parts<T>, CoreError> {
    let (targets, resil_targets) = resolve_checked(task)?;
    let matrix = take_or_generate(task, &targets)?;
    let scenario = task.scenario();
    let mut rows = Vec::new();
    let mut trace = RunTrace::default();
    let mut stop = policy.map(|p| StopState::new(p, &matrix));
    let mut cursor = SlotCursor::new(&matrix, scenario.injection_policy);
    for epoch in 0..scenario.num_runs as u64 {
        cursor.begin_epoch();
        // Loader-batch ordinal within the epoch; −1 until the first
        // scope so a stream that never flags `first_in_batch` still
        // lands in batch 0.
        let mut batch_no: i64 = -1;
        let flow = task.stream_scopes(epoch, &mut |first_in_batch, scope| {
            if stop.as_ref().is_some_and(StopState::stopped) {
                return Ok(ControlFlow::Break(()));
            }
            if first_in_batch || batch_no < 0 {
                batch_no += 1;
            }
            let Some(faults) = cursor.arm(first_in_batch) else {
                return Ok(ControlFlow::Break(()));
            };
            if let Some(state) = stop.as_mut() {
                if state.begin_scope(faults) == ScopeDecision::Skip {
                    state.boundary_check();
                    return Ok(ControlFlow::Continue(()));
                }
            }
            let ctx = ScopeCtx {
                scenario,
                targets: &targets,
                resil_targets: resil_targets.as_deref(),
                faults,
            };
            let started = Instant::now();
            let (row_mark, entry_mark) = (rows.len(), trace.entries.len());
            task.process_scope(&ctx, &scope, rec, &mut rows, &mut trace)?;
            if let Some(m) = metrics {
                m.scope_done::<T>(&rows[row_mark..], &trace.entries[entry_mark..], started);
            }
            if let Some(s) = sink.as_mut() {
                let key =
                    RowKey::new(epoch as u32, batch_no as u32, (cursor.position() - 1) as u64);
                for row in &rows[row_mark..] {
                    s.append(key, row)?;
                }
            }
            if let Some(state) = stop.as_mut() {
                state.observe(faults, classify_delta::<T>(&rows[row_mark..]));
                state.boundary_check();
            }
            Ok(ControlFlow::Continue(()))
        })?;
        if flow.is_break() {
            break;
        }
    }
    Ok(Parts { rows, matrix, trace, stop: stop.map(StopState::finish) })
}

/// Parallel driver (`per_image` only — the other policies couple
/// scopes through shared slots): materializes the scope list (slot ==
/// work index) and fans [`CampaignTask::process_scope`] out on the
/// shared pool. `try_run_indexed` merges results in work order, so
/// row order, fault assignment and all outputs are bit-identical to
/// the sequential driver for any thread count (clamped by
/// `ALFI_POOL_THREADS`), and a worker panic is converted into an
/// error instead of unwinding through campaign state.
fn parallel_parts<T: CampaignTask>(
    task: &T,
    threads: usize,
    rec: &Recorder,
    metrics: Option<&EngineMetrics>,
    policy: Option<StopPolicy>,
    sink: &mut Option<Box<dyn ArtifactSink<T::Row>>>,
) -> Result<Parts<T>, CoreError> {
    if task.scenario().injection_policy != InjectionPolicy::PerImage {
        return Err(CoreError::Scenario(alfi_scenario::ScenarioError::InvalidField {
            field: "injection_policy",
            reason: "parallel runs require per_image".into(),
        }));
    }
    let threads = threads.max(1);
    let (targets, resil_targets) = resolve_checked(task)?;
    let matrix = take_or_generate(task, &targets)?;

    // Materialize scopes with their row keys: slot == work index under
    // `per_image`, and the batch ordinal is counted exactly as the
    // sequential driver counts it, so both drivers key rows
    // identically.
    let mut work: Vec<T::Scope> = Vec::new();
    let mut keys: Vec<RowKey> = Vec::new();
    for epoch in 0..task.scenario().num_runs as u64 {
        let mut batch_no: i64 = -1;
        let flow = task.stream_scopes(epoch, &mut |first_in_batch, scope| {
            if work.len() >= matrix.num_slots() {
                return Ok(ControlFlow::Break(()));
            }
            if first_in_batch || batch_no < 0 {
                batch_no += 1;
            }
            keys.push(RowKey::new(epoch as u32, batch_no as u32, work.len() as u64));
            work.push(scope);
            Ok(ControlFlow::Continue(()))
        })?;
        if flow.is_break() {
            break;
        }
    }

    let scenario = task.scenario();
    let targets_ref: &[LayerTarget] = &targets;
    let resil_ref = resil_targets.as_deref();
    let matrix_ref = &matrix;
    let work_ref = &work;
    let process = |idx: usize| {
        let scope_ctx = ScopeCtx {
            scenario,
            targets: targets_ref,
            resil_targets: resil_ref,
            faults: matrix_ref.faults_for_slot(idx),
        };
        let started = Instant::now();
        let (mut rows, mut trace) = (Vec::with_capacity(1), RunTrace::default());
        let out = task
            .process_scope(&scope_ctx, &work_ref[idx], rec, &mut rows, &mut trace)
            .map(|()| (rows, trace.entries));
        if let (Some(m), Ok((rows, entries))) = (metrics, &out) {
            // Counter bumps commute, so live publication from
            // workers in completion order still snapshots to the
            // same final values as the sequential driver.
            m.scope_done::<T>(rows, entries, started);
        }
        out
    };

    let Some(stop_policy) = policy else {
        // No stop policy: one fan-out over the whole work list.
        let outcomes = alfi_pool::global()
            .try_run_indexed(threads, work.len(), process)
            .map_err(|p| CoreError::WorkerPanic { message: p.message() })?;
        let mut rows = Vec::with_capacity(work.len());
        let mut trace = RunTrace::default();
        for (idx, outcome) in outcomes.into_iter().enumerate() {
            let (r, entries) = outcome?;
            if let Some(s) = sink.as_mut() {
                for row in &r {
                    s.append(keys[idx], row)?;
                }
            }
            rows.extend(r);
            trace.entries.extend(entries);
        }
        return Ok(Parts { rows, matrix, trace, stop: None });
    };

    // Stop-policy runs fan out in rounds of `check_every` scopes with
    // an ordered merge: all of a round's scopes are armed (or skipped)
    // before any work is dispatched, and the boundary is evaluated only
    // after the whole round has been merged — exactly the state the
    // sequential driver sees at the same boundary, so decisions,
    // executed scope sets and row order are bit-identical for any
    // thread count.
    let mut state = StopState::new(stop_policy, &matrix);
    let mut rows = Vec::new();
    let mut trace = RunTrace::default();
    let mut next = 0usize;
    while next < work.len() && !state.stopped() {
        let round_end = (next + stop_policy.check_every).min(work.len());
        let mut round: Vec<usize> = Vec::with_capacity(round_end - next);
        for idx in next..round_end {
            if state.begin_scope(matrix.faults_for_slot(idx)) == ScopeDecision::Execute {
                round.push(idx);
            }
        }
        next = round_end;
        let round_ref = &round;
        let outcomes = alfi_pool::global()
            .try_run_indexed(threads, round.len(), |i| process(round_ref[i]))
            .map_err(|p| CoreError::WorkerPanic { message: p.message() })?;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let (r, entries) = outcome?;
            state.observe(matrix.faults_for_slot(round[i]), classify_delta::<T>(&r));
            if let Some(s) = sink.as_mut() {
                for row in &r {
                    s.append(keys[round[i]], row)?;
                }
            }
            rows.extend(r);
            trace.entries.extend(entries);
        }
        state.boundary_check();
    }
    Ok(Parts { rows, matrix, trace, stop: Some(state.finish()) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultValue;
    use alfi_scenario::InjectionTarget;

    /// A matrix with `slots` single-fault slots; slot `i`'s record has
    /// `layer == i`, so tests can read back which slot armed a scope.
    fn matrix(slots: usize) -> FaultMatrix {
        let records = (0..slots)
            .map(|i| FaultRecord {
                batch: 0,
                layer: i,
                channel: 0,
                channel_in: 0,
                depth: None,
                height: 0,
                width: 0,
                value: FaultValue::BitFlip(0),
            })
            .collect();
        FaultMatrix { records, target: InjectionTarget::Weights, faults_per_image: 1 }
    }

    /// Drives `epochs × batches × images` scopes through a cursor and
    /// returns the armed slot (its `layer`) per scope, `None` marking
    /// where the run ended.
    fn drive(
        cursor: &mut SlotCursor<'_>,
        epochs: usize,
        batches: usize,
        images: usize,
    ) -> Vec<Option<usize>> {
        let mut armed = Vec::new();
        'run: for _ in 0..epochs {
            cursor.begin_epoch();
            for _ in 0..batches {
                for i in 0..images {
                    match cursor.arm(i == 0) {
                        Some(f) => armed.push(Some(f[0].layer)),
                        None => {
                            armed.push(None);
                            break 'run;
                        }
                    }
                }
            }
        }
        armed
    }

    #[test]
    fn per_image_advances_every_scope() {
        let m = matrix(12);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerImage);
        let armed = drive(&mut c, 2, 2, 3);
        let want: Vec<Option<usize>> = (0..12).map(Some).collect();
        assert_eq!(armed, want);
        assert_eq!(c.position(), 12);
    }

    #[test]
    fn per_batch_advances_on_batch_starts_only() {
        let m = matrix(5);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerBatch);
        // 2 epochs × 2 batches × 3 images: one slot per batch.
        let armed = drive(&mut c, 2, 2, 3);
        assert_eq!(
            armed,
            vec![
                Some(0), Some(0), Some(0),
                Some(1), Some(1), Some(1),
                Some(2), Some(2), Some(2),
                Some(3), Some(3), Some(3),
            ]
        );
        assert_eq!(c.position(), 4);
    }

    #[test]
    fn per_epoch_advances_once_per_epoch() {
        let m = matrix(4);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerEpoch);
        let armed = drive(&mut c, 3, 2, 2);
        assert_eq!(
            armed,
            vec![
                Some(0), Some(0), Some(0), Some(0),
                Some(1), Some(1), Some(1), Some(1),
                Some(2), Some(2), Some(2), Some(2),
            ]
        );
    }

    #[test]
    fn truncated_matrix_ends_per_image_run_mid_batch() {
        let m = matrix(4);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerImage);
        let armed = drive(&mut c, 1, 2, 3);
        assert_eq!(armed, vec![Some(0), Some(1), Some(2), Some(3), None]);
    }

    #[test]
    fn truncated_matrix_stops_non_advancing_scopes_too() {
        // Reuse requires a live matrix: once the slots are gone, even a
        // per_batch scope that would only reuse slot 0 ends the run —
        // the pre-sized matrix bounds the campaign.
        let m = matrix(1);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerBatch);
        let armed = drive(&mut c, 1, 2, 3);
        assert_eq!(armed, vec![Some(0), None]);
    }

    #[test]
    fn per_epoch_truncated_matrix_stops_at_epoch_boundary() {
        // The last slot arms the final epoch's first scope; the next
        // scope finds the matrix exhausted and ends the run (matching
        // the drivers' historical break-on-exhausted-slot check).
        let m = matrix(2);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerEpoch);
        let armed = drive(&mut c, 3, 1, 2);
        assert_eq!(armed, vec![Some(0), Some(0), Some(1), None]);
    }

    #[test]
    fn empty_matrix_arms_nothing() {
        let m = matrix(0);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerImage);
        assert!(c.arm(true).is_none());
        assert_eq!(c.position(), 0);
    }

    #[test]
    fn first_scope_always_arms_a_fresh_slot() {
        // Defensive: even if a task's stream never flags a batch start,
        // the first scope arms slot 0 instead of underflowing.
        let m = matrix(2);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerBatch);
        assert_eq!(c.arm(false).unwrap()[0].layer, 0);
        assert_eq!(c.arm(false).unwrap()[0].layer, 0);
        assert_eq!(c.position(), 1);
    }
}
