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
//! - [`Recorder`] meta / span / event wiring and the run's one counter
//!   set ([`CampaignCounters`]),
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
//! ordinal of its loader batch within the epoch. The columnar store's
//! fault-id index answers "what did fault *n* do?" without a full scan.
//!
//! Scopes are *streamed* from the task (one batch materialized at a
//! time) and processed in ordered rounds: one scope in place with one
//! thread, up to 64 scopes per thread on the pool otherwise, so the
//! scopes held in memory are bounded by the round, not the campaign
//! length. Each round is merged in work order, and the merge is the one
//! place a row's telemetry is counted (outcomes, injections, NaN/Inf,
//! progress, stop tallies, sink rows), so every output is bit-identical
//! for any thread count.

use crate::artifact::{ArtifactSink, Artifacts};
use crate::campaign::config::RunConfig;
use crate::campaign::stop::{ScopeDecision, StopState};
use crate::error::CoreError;
use crate::fault::FaultRecord;
use crate::injector::injection_event;
use crate::matrix::{FaultMatrix, LayerTarget};
use crate::persist::{save_events, save_fault_matrix, save_metrics, RunTrace};
use alfi_metrics::{HealthSink, Registry, Watchdog};
use alfi_scenario::{
    ArtifactFormat, FaultDuration, InjectionPolicy, Scenario, ScenarioError, StopPolicy,
};
use alfi_store::RowKey;
use alfi_tensor::gemm;
use alfi_trace::{CampaignCounters, EffectClass, OutcomeTallies, Phase, Recorder, RunMeta, StopOutcome};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// Scopes per pool thread in one round. A round's scopes stay resident
/// until its ordered merge, so this bounds a pooled run's memory. Each
/// round ends at a barrier where finished workers wait for the slowest
/// scope; 64 scopes per worker amortize that wait, where 16 cost a
/// two-stage detection campaign a few percent of its throughput.
const ROUND_SCOPES_PER_THREAD: usize = 64;

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
/// [`ImgClassCampaign`](crate::campaign::ImgClassCampaign) (which also
/// runs ViT campaigns, see [`VitCampaign`](crate::campaign::VitCampaign))
/// and [`ObjDetCampaign`](crate::campaign::ObjDetCampaign) are the two
/// in-tree implementations. A task is [`Sync`]: the engine shares it across
/// pool workers, which call [`process_scope`](Self::process_scope)
/// concurrently, so scope processing must not mutate the task's models.
pub trait CampaignTask: Sync {
    /// Unit of work armed with one fault set — a single image or a
    /// whole batch, at the task's discretion.
    type Scope: Send + Sync;
    /// Per-image output row.
    type Row: Send;
    /// Finalized campaign output.
    type Result;

    /// Campaign kind recorded in the trace header (`"classification"`,
    /// `"vit"`, `"detection"`).
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
    /// trace entries. The engine calls it in place with one thread and
    /// from pool workers otherwise, and counts the produced rows'
    /// telemetry itself when it merges them, so an implementation
    /// records only its span timings on `rec`.
    fn process_scope(
        &self,
        ctx: &ScopeCtx<'_>,
        scope: &Self::Scope,
        rec: &Recorder,
        rows: &mut Vec<Self::Row>,
        trace: &mut RunTrace,
    ) -> Result<(), CoreError>;

    /// Trace-level fault-effect classification of one row
    /// (masked / SDC / DUE). A pure function of the row; the engine
    /// calls it at most once per row, when it merges the row and a
    /// recorder, a metrics registry or a stop policy reads the outcome.
    fn classify(row: &Self::Row) -> EffectClass;

    /// NaN / Inf element counts observed in a row's corrupted output,
    /// feeding the run's `alfi_campaign_nonfinite_total` counters (the
    /// watchdog's NaN-storm signal, and the recorder's NaN/Inf). Every
    /// row of a scope carries the scope's counts, so the engine reads
    /// them from the scope's first row only. The default reports none.
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

/// Fault-slot bookkeeping for the engine: decides, per scope, whether
/// to advance to a fresh matrix slot or reuse the last armed one, for
/// all three [`InjectionPolicy`] variants.
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

/// Collected raw output of the driver, before task finalization.
struct Parts<T: CampaignTask> {
    rows: Vec<T::Row>,
    matrix: FaultMatrix,
    trace: RunTrace,
    /// Achieved precision, when a [`StopPolicy`] governed the run.
    stop: Option<StopOutcome>,
}

/// The one campaign driver: runs any [`CampaignTask`] under a
/// [`RunConfig`], in place or fanned out on the shared [`alfi_pool`]
/// pool, with identical outputs either way.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'c> {
    cfg: &'c RunConfig,
}

impl<'c> Engine<'c> {
    /// Creates an engine over a run configuration.
    pub fn new(cfg: &'c RunConfig) -> Self {
        Engine { cfg }
    }

    /// Runs the task end to end: trace header + item count, the
    /// streamed rounds (one scope in place with `threads` ≤ 1, pooled
    /// rounds otherwise, for every injection policy) with their
    /// telemetry counted at the ordered merge, task finalization and
    /// optional `save_dir` persistence.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Scenario`] for `fault_duration: permanent`
    /// before anything runs or is written: every scope arms its own
    /// fault slot, so campaigns run transient faults only. Returns
    /// [`CoreError::KernelEnv`], just as early, when `ALFI_KERNEL` or
    /// `ALFI_KERNEL_PORTABLE` holds a value it does not accept. Returns
    /// resolution/injection errors; an exhausted fault matrix ends the
    /// run gracefully instead. A panicking pool worker surfaces as
    /// [`CoreError::WorkerPanic`].
    pub fn run<T: CampaignTask>(&self, task: &T) -> Result<T::Result, CoreError> {
        let cfg = self.cfg;
        let scenario = task.scenario();
        if scenario.fault_duration == FaultDuration::Permanent {
            return Err(CoreError::Scenario(ScenarioError::InvalidField {
                field: "fault_duration",
                reason: "campaigns arm each scope's own fault slot, so only `transient` runs"
                    .into(),
            }));
        }
        gemm::check_kernel_env().map_err(CoreError::KernelEnv)?;
        let rec = cfg.recorder.clone();
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
        // The run's one counter set: on its registry, or, when only the
        // recorder reads counts, on a private one that nothing renders,
        // serves or watches.
        let counters =
            registry.clone().or_else(|| rec.is_enabled().then(Registry::new)).map(CampaignCounters::new);
        if let Some(c) = &counters {
            rec.set_counters(c.clone());
        }
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
        let artifacts = cfg.save_dir.as_ref().map(Artifacts::new);
        let mut sink = match &artifacts {
            Some(a) => {
                std::fs::create_dir_all(a.dir())?;
                task.make_row_sink(cfg.resolve_format(scenario), a)?
            }
            None => None,
        };
        let stop_policy = cfg.resolve_stop(scenario);
        let threads = cfg.resolve_threads();
        let parts = drive(task, threads, &rec, counters.as_ref(), stop_policy, &mut sink);
        if let Some(watchdog) = watchdog {
            // Final registry sample happens inside stop(), so an
            // end-of-run threshold breach is still raised (and already
            // delivered to the recorder via the sink).
            watchdog.stop();
        }
        let parts = parts?;
        if let Some(outcome) = parts.stop {
            rec.set_stop_outcome(outcome);
            if let Some(c) = &counters {
                c.skipped_scopes(outcome.skipped_scopes);
            }
        }
        if let Some(a) = &artifacts {
            let _span = rec.span(Phase::Persist);
            scenario.save(a.scenario()).map_err(|e| CoreError::Io(e.to_string()))?;
            save_fault_matrix(&parts.matrix, a.faults())?;
            parts.trace.save(a.trace())?;
            if let Some(s) = sink.as_mut() {
                let stats = s.finalize()?;
                if let Some(c) = &counters {
                    c.sink_written(stats.rows, stats.bytes);
                }
            }
            save_events(&rec, a.dir())?;
            save_metrics(registry.as_ref(), a.dir())?;
        }
        Ok(task.finalize(parts.rows, parts.matrix, parts.trace))
    }
}

/// Resolves targets and cross-checks the hardened model's list: a
/// mitigation wrapper must expose the same injectable layers as the
/// model it hardens, or slot-aligned fault replay would be meaningless.
#[allow(clippy::type_complexity)]
fn resolve_checked<T: CampaignTask>(
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
fn take_or_generate<T: CampaignTask>(
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

/// An executed scope waiting in the current round: the scope, the
/// fault set it was armed with and the key its rows persist under.
type Pending<'m, S> = (S, &'m [FaultRecord], RowKey);

/// The driver: streams scopes epoch by epoch, arms each one's fault
/// slot through a [`SlotCursor`] and its row key, asks the stop policy
/// (if any) whether to execute it, and queues executed scopes on the
/// current round. A round ends when it is full (one scope with one
/// thread, [`ROUND_SCOPES_PER_THREAD`] per thread otherwise), when the
/// stop clock sits on a `check_every` boundary, or when the stream
/// ends; it is then processed and merged in work order. An exhausted
/// matrix or a campaign-stop decision ends the stream.
fn drive<T: CampaignTask>(
    task: &T,
    threads: usize,
    rec: &Recorder,
    counters: Option<&CampaignCounters>,
    policy: Option<StopPolicy>,
    sink: &mut Option<Box<dyn ArtifactSink<T::Row>>>,
) -> Result<Parts<T>, CoreError> {
    let (targets, resil_targets) = resolve_checked(task)?;
    let matrix = take_or_generate(task, &targets)?;
    let scenario = task.scenario();
    let work = Rounds {
        task,
        threads,
        rec,
        counters,
        scenario,
        targets: &targets,
        resil_targets: resil_targets.as_deref(),
    };
    let mut merge = Merge {
        rec,
        counters,
        stop: policy.map(|p| StopState::new(p, &matrix)),
        sink,
        rows: Vec::new(),
        trace: RunTrace::default(),
    };
    let capacity = if threads <= 1 { 1 } else { ROUND_SCOPES_PER_THREAD * threads };
    let mut round: Vec<Pending<'_, T::Scope>> = Vec::new();
    let mut cursor = SlotCursor::new(&matrix, scenario.injection_policy);
    for epoch in 0..scenario.num_runs as u64 {
        cursor.begin_epoch();
        // Loader-batch ordinal within the epoch; −1 until the first
        // scope so a stream that never flags `first_in_batch` still
        // lands in batch 0.
        let mut batch_no: i64 = -1;
        let flow = task.stream_scopes(epoch, &mut |first_in_batch, scope| {
            if merge.stop.as_ref().is_some_and(StopState::stopped) {
                return Ok(ControlFlow::Break(()));
            }
            if first_in_batch || batch_no < 0 {
                batch_no += 1;
            }
            let Some(faults) = cursor.arm(first_in_batch) else {
                return Ok(ControlFlow::Break(()));
            };
            if merge.stop.as_mut().is_none_or(|s| s.begin_scope(faults) == ScopeDecision::Execute) {
                let slot = (cursor.position() - 1) as u64;
                round.push((scope, faults, RowKey::new(epoch as u32, batch_no as u32, slot)));
            }
            if round.len() == capacity || merge.stop.as_ref().is_some_and(StopState::at_boundary) {
                work.run(&mut round, &mut merge)?;
            }
            Ok(ControlFlow::Continue(()))
        })?;
        if flow.is_break() {
            break;
        }
    }
    work.run(&mut round, &mut merge)?;
    let Merge { rows, trace, stop, .. } = merge;
    Ok(Parts { rows, matrix, trace, stop: stop.map(StopState::finish) })
}

/// What processing a round needs: the task, its resolved targets and
/// the run's parallelism and liveness instrumentation.
struct Rounds<'a, T: CampaignTask> {
    task: &'a T,
    threads: usize,
    rec: &'a Recorder,
    counters: Option<&'a CampaignCounters>,
    scenario: &'a Scenario,
    targets: &'a [LayerTarget],
    resil_targets: Option<&'a [LayerTarget]>,
}

impl<T: CampaignTask> Rounds<'_, T> {
    /// Processes and merges one round, emptying it, then runs the stop
    /// policy's boundary check. With one thread the round's one scope
    /// runs in place on the calling thread, whose kernels may still fan
    /// out on the pool; otherwise the scopes run as pool tasks and
    /// `try_run_indexed` returns their outputs in work order.
    fn run(
        &self,
        round: &mut Vec<Pending<'_, T::Scope>>,
        merge: &mut Merge<'_, T>,
    ) -> Result<(), CoreError> {
        if self.threads <= 1 {
            for (scope, faults, key) in round.drain(..) {
                let marks = (merge.rows.len(), merge.trace.entries.len());
                self.process(&scope, faults, &mut merge.rows, &mut merge.trace)?;
                merge.scope(faults, key, marks)?;
            }
        } else {
            let outputs = alfi_pool::global()
                .try_run_indexed(self.threads, round.len(), |i| {
                    let (scope, faults, _) = &round[i];
                    let (mut rows, mut trace) = (Vec::new(), RunTrace::default());
                    self.process(scope, faults, &mut rows, &mut trace).map(|()| (rows, trace))
                })
                .map_err(|p| CoreError::WorkerPanic { message: p.message() })?;
            for ((_, faults, key), output) in round.drain(..).zip(outputs) {
                let (rows, trace) = output?;
                let marks = (merge.rows.len(), merge.trace.entries.len());
                merge.rows.extend(rows);
                merge.trace.entries.extend(trace.entries);
                merge.scope(faults, key, marks)?;
            }
        }
        merge.boundary();
        Ok(())
    }

    fn process(
        &self,
        scope: &T::Scope,
        faults: &[FaultRecord],
        rows: &mut Vec<T::Row>,
        trace: &mut RunTrace,
    ) -> Result<(), CoreError> {
        let ctx = ScopeCtx {
            scenario: self.scenario,
            targets: self.targets,
            resil_targets: self.resil_targets,
            faults,
        };
        let started = Instant::now();
        self.task.process_scope(&ctx, scope, self.rec, rows, trace)?;
        if let Some(c) = self.counters {
            c.scope_finished(started);
        }
        Ok(())
    }
}

/// The ordered merge: the run's rows and trace, and every consumer of
/// per-row telemetry, fed once per scope in work order.
struct Merge<'a, T: CampaignTask> {
    rec: &'a Recorder,
    counters: Option<&'a CampaignCounters>,
    stop: Option<StopState>,
    sink: &'a mut Option<Box<dyn ArtifactSink<T::Row>>>,
    rows: Vec<T::Row>,
    trace: RunTrace,
}

impl<T: CampaignTask> Merge<'_, T> {
    /// Counts the merged scope whose rows and trace entries start at
    /// `marks`, once: its injections (counters and recorder events),
    /// its rows, their outcomes (each row classified at most once, and
    /// only when something reads it) and its NaN/Inf, then the progress
    /// line, the stop tallies and the sink rows.
    fn scope(
        &mut self,
        faults: &[FaultRecord],
        key: RowKey,
        (row_mark, entry_mark): (usize, usize),
    ) -> Result<(), CoreError> {
        let (rec, counters) = (self.rec, self.counters);
        for entry in &self.trace.entries[entry_mark..] {
            if let Some(c) = counters {
                c.injection(entry.applied.record.layer);
            }
            if rec.is_enabled() {
                rec.record_injection(injection_event(entry.image_id, &entry.applied));
            }
        }
        let rows = &self.rows[row_mark..];
        let mut tallies = OutcomeTallies::default();
        if counters.is_some() || self.stop.is_some() {
            for row in rows {
                tallies.add(T::classify(row));
            }
        }
        if let Some(c) = counters {
            c.scope_merged(rows.len() as u64, tallies, rows.first().map_or((0, 0), T::row_nonfinite));
        }
        rec.progress();
        if let Some(state) = self.stop.as_mut() {
            state.observe(faults, tallies);
        }
        if let Some(s) = self.sink.as_mut() {
            for row in rows {
                s.append(key, row)?;
            }
        }
        Ok(())
    }

    /// Runs the stop policy's decision procedure if the clock sits on
    /// an unevaluated boundary, and records the decisions it takes.
    fn boundary(&mut self) {
        let Some(state) = self.stop.as_mut() else { return };
        let seen = state.events().len();
        state.boundary_check();
        for event in &state.events()[seen..] {
            self.rec.record_stop(*event);
            if let Some(c) = self.counters {
                c.stop_decision(event.verdict);
            }
        }
    }
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
