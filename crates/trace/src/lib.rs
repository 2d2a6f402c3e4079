#![warn(missing_docs)]
//! # alfi-trace
//!
//! Campaign observability for the ALFI workspace. PyTorchALFI's value
//! proposition is *validation efficiency at scale* (PAPER.md §IV):
//! large fault-injection campaigns must be monitorable while they run
//! and exactly attributable afterwards. This crate provides the
//! cross-cutting instrumentation layer the campaign drivers, thread
//! pool, network graphs and benches share:
//!
//! * [`Recorder`] — a lock-cheap, clonable handle collecting span
//!   timings (monotonic clocks), per-layer forward times, the ordered
//!   injection and stop events and health messages. It holds no
//!   counts: the campaign engine hands it the run's
//!   [`CampaignCounters`], the one counter set (on the run's metrics
//!   [`Registry`](alfi_metrics::Registry)) every campaign fact is
//!   counted in. A disabled recorder ([`Recorder::disabled`]) is a
//!   no-op constant: every method returns immediately without reading a
//!   clock or touching a lock, so uninstrumented runs pay nothing.
//! * a **live progress line** for long campaigns (rate-limited to
//!   [`PROGRESS_INTERVAL_MS`], opt-in via [`Recorder::with_progress`]);
//! * a structured **JSONL event log** ([`Recorder::events_jsonl`])
//!   whose header records the scenario hash, seed and thread count so
//!   any run is attributable and replayable. Events carry **no wall
//!   clock timestamps** and are emitted in deterministic (row) order by
//!   the campaign drivers, so the log is byte-identical across thread
//!   counts (modulo the recorded thread-count header field);
//! * an end-of-run [`TraceSummary`] with per-phase timing histograms
//!   (p50/p95/max for forward, inject, eval and persist) and the run's
//!   [`RunCounts`].
//!
//! One recorder records one run. With the process-global registry
//! ([`alfi_metrics::global`]) the counts it reads are process totals,
//! as that registry's are.
//!
//! # Example
//!
//! ```
//! use alfi_metrics::Registry;
//! use alfi_trace::{CampaignCounters, InjectionEvent, OutcomeTallies, Phase, Recorder, RunMeta};
//!
//! let rec = Recorder::new();
//! rec.set_meta(RunMeta {
//!     campaign: "classification".into(),
//!     model: "alexnet".into(),
//!     scenario_hash: alfi_trace::hash_hex(b"scenario-yaml"),
//!     seed: 7,
//!     threads: 1,
//! });
//! let counters = CampaignCounters::new(Registry::new());
//! rec.set_counters(counters.clone());
//! {
//!     let _span = rec.span(Phase::Forward);
//!     // ... forward pass ...
//! }
//! rec.record_injection(InjectionEvent {
//!     image_id: 0,
//!     layer: 3,
//!     bit: Some(30),
//!     original: 1.0,
//!     corrupted: -2.0e30,
//! });
//! counters.injection(3);
//! counters.scope_merged(1, OutcomeTallies { sdc: 1, ..OutcomeTallies::default() }, (0, 0));
//! let summary = rec.summary();
//! assert_eq!(summary.counts.injections, 1);
//! assert_eq!(summary.counts.outcomes.sdc, 1);
//! let log = rec.events_jsonl();
//! assert!(log.starts_with("{\"event\":\"header\""));
//! ```

mod counts;
mod reader;

pub use counts::{CampaignCounters, RunCounts};
pub use reader::{EventHeader, EventLog, EventLogError};

use alfi_serde::{FromJson, Json, JsonError, JsonFields, JsonObject, JsonWriter, ToJson};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Version stamp written into the JSONL header record.
pub const EVENT_FORMAT_VERSION: u32 = 1;

/// Minimum milliseconds between two live progress lines.
pub const PROGRESS_INTERVAL_MS: u64 = 200;

/// Default file name campaigns write the event log under.
pub const EVENTS_FILE: &str = "events.jsonl";

/// The campaign phase a [`Span`] attributes its elapsed time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Model forward passes (fault-free, corrupted and hardened).
    Forward,
    /// Fault-matrix resolution and arming/disarming of faults.
    Inject,
    /// Output post-processing: softmax/top-k, row assembly, KPIs.
    Eval,
    /// Artifact persistence (CSV/JSON/binary/event-log writes).
    Persist,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 4] = [Phase::Forward, Phase::Inject, Phase::Eval, Phase::Persist];

    /// Stable lowercase name used in reports and summaries.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Inject => "inject",
            Phase::Eval => "eval",
            Phase::Persist => "persist",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Forward => 0,
            Phase::Inject => 1,
            Phase::Eval => 2,
            Phase::Persist => 3,
        }
    }
}

/// Coarse fault-effect classification of one inference — the trace-level
/// counterpart of the paper's SDC (silent data corruption, called SDE
/// in the classification KPIs), DUE (detected uncorrectable error, i.e.
/// NaN/Inf surfaced) and masked outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectClass {
    /// The fault was absorbed; the reference prediction is unchanged.
    Masked,
    /// The prediction silently changed (no error signature).
    Sdc,
    /// NaN/Inf surfaced during the corrupted inference.
    Due,
}

impl EffectClass {
    /// Stable lowercase name used in the event log and summaries.
    pub fn name(self) -> &'static str {
        match self {
            EffectClass::Masked => "masked",
            EffectClass::Sdc => "sdc",
            EffectClass::Due => "due",
        }
    }
}

/// The replay header written as the first JSONL record: everything
/// needed to attribute a log to the campaign that produced it and to
/// re-run that campaign exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Campaign kind (`classification` / `detection`).
    pub campaign: String,
    /// Model or detector name.
    pub model: String,
    /// Hash of the serialized scenario (see [`hash_hex`]).
    pub scenario_hash: String,
    /// The scenario's fault-generation seed.
    pub seed: u64,
    /// Thread count the run was configured with. This is the only
    /// header field allowed to differ between otherwise-identical runs.
    pub threads: usize,
}

alfi_serde::json_struct!(RunMeta { campaign, model, scenario_hash, seed, threads });

/// One applied fault, in deterministic row order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionEvent {
    /// Dataset image id the fault was attributed to.
    pub image_id: u64,
    /// Index into the model's injectable-layer list.
    pub layer: usize,
    /// Flipped/stuck bit position; `None` for value-replacement faults.
    pub bit: Option<u8>,
    /// Value before corruption.
    pub original: f32,
    /// Value after corruption.
    pub corrupted: f32,
}

alfi_serde::json_struct!(InjectionEvent { image_id, layer, bit, original, corrupted });

/// The verdict of one statistical stop decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopVerdict {
    /// The whole campaign reached its target precision and ends here.
    StopCampaign,
    /// One layer stratum reached its target precision and is retired;
    /// the rest of the campaign continues.
    RetireStratum,
}

impl StopVerdict {
    /// Stable lowercase name used in the event log and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            StopVerdict::StopCampaign => "stop",
            StopVerdict::RetireStratum => "retire",
        }
    }
}

impl ToJson for StopVerdict {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self.name());
    }
}

impl FromJson for StopVerdict {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let name = v.as_str().ok_or_else(|| JsonError::new("expected string"))?;
        [StopVerdict::StopCampaign, StopVerdict::RetireStratum]
            .into_iter()
            .find(|verdict| verdict.name() == name)
            .ok_or_else(|| JsonError::new(format!("unknown stop verdict `{name}`")))
    }
}

/// One statistical stop decision, recorded by the engine in
/// deterministic boundary order. Carries no wall-clock data: the
/// decision is a pure function of the sample counts at an armed-scope
/// boundary, so stopped runs stay byte-identical across thread counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopEvent {
    /// What was decided.
    pub verdict: StopVerdict,
    /// Injectable-layer index of the retired stratum; `None` for
    /// whole-campaign decisions.
    pub stratum: Option<usize>,
    /// Number of fault scopes armed (executed + skipped) when the
    /// decision fired — always a multiple of the policy's `check_every`.
    pub scope_index: u64,
    /// Classified inferences backing the decision.
    pub samples: u64,
    /// SDC outcomes among those samples.
    pub sdc: u64,
    /// DUE outcomes among those samples.
    pub due: u64,
    /// SDC-rate confidence interval at the decision.
    pub sdc_ci: (f64, f64),
    /// DUE-rate confidence interval at the decision.
    pub due_ci: (f64, f64),
    /// The wider of the two half-widths — what was compared against the
    /// policy target.
    pub half_width: f64,
}

alfi_serde::json_struct!(StopEvent {
    verdict,
    stratum,
    scope_index,
    samples,
    sdc,
    due,
    sdc_ci,
    due_ci,
    half_width
});

/// Achieved-vs-requested precision of an early-stop campaign, surfaced
/// in [`TraceSummary::stop`] and the final report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopOutcome {
    /// The policy's target CI half-width.
    pub requested_half_width: f64,
    /// The policy's confidence level.
    pub confidence: f64,
    /// Campaign-level SDC-rate half-width actually achieved.
    pub achieved_sdc_half_width: f64,
    /// Campaign-level DUE-rate half-width actually achieved.
    pub achieved_due_half_width: f64,
    /// Fault scopes executed.
    pub executed_scopes: u64,
    /// Fault scopes skipped because their stratum was already retired.
    pub skipped_scopes: u64,
    /// Total fault-scope budget of the full matrix.
    pub planned_scopes: u64,
    /// Stop decisions recorded (retirements plus campaign stop).
    pub decisions: u64,
    /// Whether the run ended before exhausting the matrix.
    pub stopped_early: bool,
}

/// Per-phase aggregate timing statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Number of recorded spans.
    pub count: u64,
    /// Sum of all span durations in nanoseconds.
    pub total_ns: u64,
    /// Median span duration.
    pub p50_ns: u64,
    /// 95th-percentile span duration.
    pub p95_ns: u64,
    /// Longest span duration.
    pub max_ns: u64,
}

/// Accumulated forward time of one named layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerTime {
    /// Number of recorded evaluations.
    pub count: u64,
    /// Sum of all evaluation times in nanoseconds.
    pub total_ns: u64,
}

/// Fault-effect tallies over all classified inferences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeTallies {
    /// Inferences whose prediction was unchanged.
    pub masked: u64,
    /// Inferences whose prediction silently changed.
    pub sdc: u64,
    /// Inferences that surfaced NaN/Inf.
    pub due: u64,
}

impl OutcomeTallies {
    /// Counts one classified inference.
    pub fn add(&mut self, outcome: EffectClass) {
        match outcome {
            EffectClass::Masked => self.masked += 1,
            EffectClass::Sdc => self.sdc += 1,
            EffectClass::Due => self.due += 1,
        }
    }

    /// Total classified inferences.
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.due
    }
}

alfi_serde::json_struct!(OutcomeTallies { masked, sdc, due });

impl std::ops::AddAssign for OutcomeTallies {
    fn add_assign(&mut self, other: OutcomeTallies) {
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.due += other.due;
    }
}

/// End-of-run aggregate view of everything a [`Recorder`] collected.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// The replay header, when one was set.
    pub meta: Option<RunMeta>,
    /// Per-phase timing histograms, keyed by [`Phase::name`]. Phases
    /// with no recorded spans are omitted.
    pub phases: BTreeMap<&'static str, PhaseStats>,
    /// Busy nanoseconds per deterministic worker index (0 = the
    /// submitting thread).
    pub worker_busy_ns: BTreeMap<usize, u64>,
    /// Accumulated forward time per layer name.
    pub layer_forward: BTreeMap<String, LayerTime>,
    /// The run's counts, the record the event log's `summary` line
    /// holds: items, outcomes and NaN/Inf read from the run's
    /// [`CampaignCounters`], injections and their per-layer and per-bit
    /// histograms derived from the recorded injection events.
    pub counts: RunCounts,
    /// Wall-clock nanoseconds since the recorder was created.
    pub wall_ns: u64,
    /// Health watchdog events raised during the run (rendered
    /// messages, in raise order). Empty when no watchdog ran or the
    /// campaign stayed healthy.
    pub health: Vec<String>,
    /// Achieved-vs-requested precision when the run had a stop policy;
    /// `None` for exhaustive campaigns.
    pub stop: Option<StopOutcome>,
}

impl TraceSummary {
    /// Renders a compact human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(m) = &self.meta {
            out.push_str(&format!(
                "run {} ({}) scenario {} seed {} threads {}\n",
                m.campaign, m.model, m.scenario_hash, m.seed, m.threads
            ));
        }
        let c = &self.counts;
        out.push_str(&format!(
            "items {} | injections {} | masked {} sdc {} due {} | nan {} inf {}\n",
            c.items, c.injections, c.outcomes.masked, c.outcomes.sdc, c.outcomes.due, c.nan, c.inf
        ));
        for phase in Phase::ALL {
            if let Some(s) = self.phases.get(phase.name()) {
                out.push_str(&format!(
                    "phase {:<8} n {:<6} p50 {:>10} p95 {:>10} max {:>10} total {:>10}\n",
                    phase.name(),
                    s.count,
                    fmt_ns(s.p50_ns),
                    fmt_ns(s.p95_ns),
                    fmt_ns(s.max_ns),
                    fmt_ns(s.total_ns)
                ));
            }
        }
        for msg in &self.health {
            out.push_str(&format!("health {msg}\n"));
        }
        if let Some(s) = &self.stop {
            out.push_str(&format!(
                "stop requested ±{:.4} @{:.0}% | achieved sdc ±{:.4} due ±{:.4} | scopes \
                 executed {} skipped {} of {} | decisions {} ({})\n",
                s.requested_half_width,
                s.confidence * 100.0,
                s.achieved_sdc_half_width,
                s.achieved_due_half_width,
                s.executed_scopes,
                s.skipped_scopes,
                s.planned_scopes,
                s.decisions,
                if s.stopped_early { "stopped early" } else { "ran to completion" }
            ));
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1.0e9 {
        format!("{:.3}s", ns / 1.0e9)
    } else if ns >= 1.0e6 {
        format!("{:.3}ms", ns / 1.0e6)
    } else if ns >= 1.0e3 {
        format!("{:.3}µs", ns / 1.0e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Shared mutable recorder state. Spans, maps and event lists sit
/// behind short-lived uncontended mutexes that are locked once per
/// scope/span — never per tensor element. Counts are not kept here but
/// read from the run's [`CampaignCounters`].
#[derive(Debug)]
struct Inner {
    started: Instant,
    progress: AtomicBool,
    meta: Mutex<Option<RunMeta>>,
    phase_ns: [Mutex<Vec<u64>>; 4],
    worker_busy_ns: Mutex<BTreeMap<usize, u64>>,
    layer_ns: Mutex<BTreeMap<String, LayerTime>>,
    counters: Mutex<Option<CampaignCounters>>,
    events: Mutex<Vec<InjectionEvent>>,
    stops: Mutex<Vec<StopEvent>>,
    stop_outcome: Mutex<Option<StopOutcome>>,
    health: Mutex<Vec<String>>,
    items_total: AtomicU64,
    last_progress_ms: AtomicU64,
}

impl Inner {
    fn new() -> Self {
        Inner {
            started: Instant::now(),
            progress: AtomicBool::new(false),
            meta: Mutex::default(),
            phase_ns: Default::default(),
            worker_busy_ns: Mutex::default(),
            layer_ns: Mutex::default(),
            counters: Mutex::default(),
            events: Mutex::default(),
            stops: Mutex::default(),
            stop_outcome: Mutex::default(),
            health: Mutex::default(),
            items_total: AtomicU64::new(0),
            last_progress_ms: AtomicU64::new(0),
        }
    }

    /// The run's counts: items, outcomes and NaN/Inf from the attached
    /// counters (zero when none is), injections and their per-layer and
    /// per-bit histograms from the event list.
    fn counts(&self) -> RunCounts {
        let mut counts = RunCounts::default();
        if let Some(c) = lock(&self.counters).as_ref() {
            counts.items = c.items();
            counts.outcomes = c.outcomes();
            (counts.nan, counts.inf) = c.nonfinite();
        }
        let events = lock(&self.events);
        counts.injections = events.len() as u64;
        for ev in events.iter() {
            *counts.per_layer.entry(ev.layer).or_insert(0) += 1;
            if let Some(bit) = ev.bit {
                *counts.per_bit.entry(bit).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// Locks a mutex, recovering the data if a panicking task poisoned it —
/// the recorder must stay usable while a campaign reports the panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The campaign observability handle.
///
/// Cloning is cheap (an [`Arc`] bump); all clones feed the same
/// underlying state, which is how the campaign drivers, pool workers
/// and layer timers share one recorder. A **disabled** recorder
/// (the default, or [`Recorder::disabled`]) holds no state at all:
/// every method is a branch-and-return, so instrumentation left in hot
/// paths costs nothing when tracing is off.
///
/// A recorder records one run. It keeps spans, layer times, the
/// ordered injection and stop events and health messages, but no
/// counts: [`summary`](Recorder::summary), the event log's summary
/// record and the progress line read items, outcomes and NaN/Inf from
/// the [`CampaignCounters`] the engine attaches
/// ([`set_counters`](Recorder::set_counters)) and derive injections
/// from the event list.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// Creates an enabled recorder.
    pub fn new() -> Recorder {
        Recorder { inner: Some(Arc::new(Inner::new())) }
    }

    /// The no-op recorder: collects nothing, never reads a clock.
    pub const fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this recorder collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Enables (or disables) the live progress line. No-op when the
    /// recorder is disabled.
    pub fn with_progress(self, on: bool) -> Recorder {
        if let Some(inner) = &self.inner {
            inner.progress.store(on, Ordering::Relaxed);
        }
        self
    }

    /// Sets the replay header written as the first JSONL record.
    pub fn set_meta(&self, meta: RunMeta) {
        if let Some(inner) = &self.inner {
            *lock(&inner.meta) = Some(meta);
        }
    }

    /// Attaches the run's counter set, which the summary, the event
    /// log's summary record and the progress line read their items,
    /// outcomes and NaN/Inf from. The campaign engine calls this when a
    /// run starts.
    pub fn set_counters(&self, counters: CampaignCounters) {
        if let Some(inner) = &self.inner {
            *lock(&inner.counters) = Some(counters);
        }
    }

    /// Opens a timing span for `phase` attributed to worker 0 (the
    /// submitting thread). Dropping the guard records the elapsed time.
    pub fn span(&self, phase: Phase) -> Span<'_> {
        self.span_on(phase, 0)
    }

    /// Opens a timing span for `phase` attributed to the given
    /// deterministic worker index (`alfi_pool::worker_index()` in pool
    /// tasks). Disabled recorders return a guard that never reads the
    /// clock.
    pub fn span_on(&self, phase: Phase, worker: usize) -> Span<'_> {
        match &self.inner {
            Some(inner) => Span { inner: Some(inner), phase, worker, start: Some(Instant::now()) },
            None => Span { inner: None, phase, worker, start: None },
        }
    }

    /// Accumulates forward time for one named layer.
    pub fn record_layer_ns(&self, layer: &str, ns: u64) {
        if let Some(inner) = &self.inner {
            let mut map = lock(&inner.layer_ns);
            match map.get_mut(layer) {
                Some(t) => {
                    t.count += 1;
                    t.total_ns += ns;
                }
                None => {
                    map.insert(layer.to_string(), LayerTime { count: 1, total_ns: ns });
                }
            }
        }
    }

    /// Appends one applied fault to the event list. The campaign engine
    /// calls this while the run goes, as it merges each scope in
    /// deterministic work order, so the event log is reproducible
    /// across thread counts and the progress line counts injections
    /// live.
    pub fn record_injection(&self, ev: InjectionEvent) {
        if let Some(inner) = &self.inner {
            lock(&inner.events).push(ev);
        }
    }

    /// Records one statistical stop decision. The campaign engine calls
    /// this at the boundary where the decision fires, in deterministic
    /// boundary order, so the event log stays byte-identical across
    /// thread counts.
    pub fn record_stop(&self, ev: StopEvent) {
        if let Some(inner) = &self.inner {
            lock(&inner.stops).push(ev);
        }
    }

    /// Recorded stop decisions, in boundary order.
    pub fn stop_events(&self) -> Vec<StopEvent> {
        match &self.inner {
            Some(inner) => lock(&inner.stops).clone(),
            None => Vec::new(),
        }
    }

    /// Sets the achieved-vs-requested precision summary of an
    /// early-stop run (surfaced in [`TraceSummary::stop`]).
    pub fn set_stop_outcome(&self, outcome: StopOutcome) {
        if let Some(inner) = &self.inner {
            *lock(&inner.stop_outcome) = Some(outcome);
        }
    }

    /// Appends one rendered health-watchdog event. Wall-clock-driven,
    /// so health messages surface in [`TraceSummary::health`] but stay
    /// out of the deterministic JSONL event log.
    pub fn record_health(&self, msg: impl Into<String>) {
        if let Some(inner) = &self.inner {
            lock(&inner.health).push(msg.into());
        }
    }

    /// Declares the expected number of work items (images) for progress
    /// reporting.
    pub fn begin_items(&self, total: u64) {
        if let Some(inner) = &self.inner {
            inner.items_total.store(total, Ordering::Relaxed);
        }
    }

    /// When the progress line is enabled, emits a rate-limited status
    /// line to stderr. The campaign engine calls this after each merged
    /// scope; the line reads items and outcomes from the run's
    /// counters.
    pub fn progress(&self) {
        let Some(inner) = &self.inner else { return };
        if !inner.progress.load(Ordering::Relaxed) {
            return;
        }
        let counters = lock(&inner.counters);
        let done = counters.as_ref().map_or(0, CampaignCounters::items);
        let total = inner.items_total.load(Ordering::Relaxed);
        let elapsed_ms = inner.started.elapsed().as_millis() as u64;
        let last = inner.last_progress_ms.load(Ordering::Relaxed);
        let final_item = total > 0 && done >= total;
        if !final_item && elapsed_ms.saturating_sub(last) < PROGRESS_INTERVAL_MS {
            return;
        }
        if inner
            .last_progress_ms
            .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
            && !final_item
        {
            return; // another thread just printed
        }
        let rate = if elapsed_ms > 0 { done as f64 * 1000.0 / elapsed_ms as f64 } else { 0.0 };
        let injections = lock(&inner.events).len();
        let o = counters.as_ref().map(CampaignCounters::outcomes).unwrap_or_default();
        eprintln!(
            "[alfi] {done}/{total} items | inj {injections} | masked {} sdc {} due {} | {rate:.1} items/s",
            o.masked, o.sdc, o.due,
        );
    }

    /// Builds the end-of-run summary. Disabled recorders return an
    /// empty default summary.
    pub fn summary(&self) -> TraceSummary {
        let Some(inner) = &self.inner else { return TraceSummary::default() };
        let mut phases = BTreeMap::new();
        for phase in Phase::ALL {
            let samples = lock(&inner.phase_ns[phase.index()]).clone();
            if let Some(stats) = phase_stats(&samples) {
                phases.insert(phase.name(), stats);
            }
        }
        TraceSummary {
            meta: lock(&inner.meta).clone(),
            phases,
            worker_busy_ns: lock(&inner.worker_busy_ns).clone(),
            layer_forward: lock(&inner.layer_ns).clone(),
            counts: inner.counts(),
            wall_ns: inner.started.elapsed().as_nanos() as u64,
            health: lock(&inner.health).clone(),
            stop: *lock(&inner.stop_outcome),
        }
    }

    /// Renders the structured event log: one JSON object per line —
    /// the replay header, every injection event in recorded order, the
    /// stop decisions, and a closing summary record of the run's
    /// [`RunCounts`]. Each record is an `event` tag followed by the
    /// `json_struct!` fields of its type ([`RunMeta`] after the header's
    /// `format`, [`InjectionEvent`], [`StopEvent`], [`RunCounts`]), the
    /// list [`EventLog::parse`] reads it back with. Contains no timing
    /// data, so the log is byte-identical across thread counts except
    /// for the header's `threads` field.
    ///
    /// Disabled recorders return an empty string.
    pub fn events_jsonl(&self) -> String {
        let Some(inner) = &self.inner else { return String::new() };
        let mut out = String::new();
        push_record(&mut out, "header", |obj| {
            obj.field("\"format\":", &EVENT_FORMAT_VERSION);
            if let Some(meta) = lock(&inner.meta).as_ref() {
                meta.write_fields(obj);
            }
        });
        for ev in lock(&inner.events).iter() {
            push_record(&mut out, "injection", |obj| ev.write_fields(obj));
        }
        for ev in lock(&inner.stops).iter() {
            push_record(&mut out, "stop", |obj| ev.write_fields(obj));
        }
        push_record(&mut out, "summary", |obj| inner.counts().write_fields(obj));
        out
    }

    /// Writes [`Recorder::events_jsonl`] to a file. No-op for disabled
    /// recorders.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_events(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        std::fs::write(path, self.events_jsonl())
    }
}

/// Appends one event-log line: the `event` tag, then the members
/// `fields` writes.
fn push_record(out: &mut String, event: &str, fields: impl FnOnce(&mut JsonObject<'_, '_>)) {
    let mut w = JsonWriter::compact(out);
    let mut obj = w.object();
    obj.field("\"event\":", event);
    fields(&mut obj);
    obj.end();
    out.push('\n');
}

/// RAII span guard: records the elapsed time into its phase histogram
/// (and the worker busy tally) on drop. Disabled guards do nothing.
#[must_use]
#[derive(Debug)]
pub struct Span<'a> {
    inner: Option<&'a Inner>,
    phase: Phase,
    worker: usize,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let (Some(inner), Some(start)) = (self.inner, self.start) {
            let ns = start.elapsed().as_nanos() as u64;
            lock(&inner.phase_ns[self.phase.index()]).push(ns);
            *lock(&inner.worker_busy_ns).entry(self.worker).or_insert(0) += ns;
        }
    }
}

/// Nearest-rank percentile over an unsorted sample set.
fn phase_stats(samples: &[u64]) -> Option<PhaseStats> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let pick = |q: f64| {
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    Some(PhaseStats {
        count: sorted.len() as u64,
        total_ns: sorted.iter().sum(),
        p50_ns: pick(0.50),
        p95_ns: pick(0.95),
        max_ns: *sorted.last().expect("non-empty"),
    })
}

/// FNV-1a 64-bit hash rendered as 16 hex digits — the scenario
/// fingerprint written into the replay header. Stable across platforms
/// and releases (the constant offset/prime pair is part of the event
/// format).
pub fn hash_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_metrics::Registry;

    fn meta() -> RunMeta {
        RunMeta {
            campaign: "classification".into(),
            model: "alexnet".into(),
            scenario_hash: hash_hex(b"demo"),
            seed: 42,
            threads: 4,
        }
    }

    fn injection(layer: usize, bit: Option<u8>) -> InjectionEvent {
        InjectionEvent { image_id: 9, layer, bit, original: 1.5, corrupted: -3.0 }
    }

    /// An enabled recorder reading a fresh counter set.
    fn counted() -> (Recorder, CampaignCounters) {
        let rec = Recorder::new();
        let counters = CampaignCounters::new(Registry::new());
        rec.set_counters(counters.clone());
        (rec, counters)
    }

    fn tallies(masked: u64, sdc: u64, due: u64) -> OutcomeTallies {
        OutcomeTallies { masked, sdc, due }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _s = rec.span(Phase::Forward);
        }
        let counters = CampaignCounters::new(Registry::new());
        rec.set_counters(counters.clone());
        rec.record_injection(injection(0, Some(3)));
        counters.scope_merged(1, tallies(0, 0, 1), (5, 5));
        rec.begin_items(10);
        rec.progress();
        let s = rec.summary();
        assert_eq!(s.counts, RunCounts::default());
        assert!(s.phases.is_empty());
        assert_eq!(rec.events_jsonl(), "");
    }

    #[test]
    fn default_recorder_is_disabled() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn spans_feed_phase_histograms_and_worker_tallies() {
        let rec = Recorder::new();
        for _ in 0..3 {
            let _s = rec.span(Phase::Forward);
        }
        {
            let _s = rec.span_on(Phase::Inject, 2);
        }
        let s = rec.summary();
        let f = s.phases["forward"];
        assert_eq!(f.count, 3);
        assert!(f.p50_ns <= f.p95_ns && f.p95_ns <= f.max_ns);
        let inject = s.phases["inject"];
        assert_eq!(inject.count, 1);
        assert_eq!(s.worker_busy_ns[&2], inject.total_ns, "worker 2 ran only the inject span");
        assert_eq!(s.worker_busy_ns[&0], f.total_ns, "worker 0 ran only the forward spans");
        assert!(!s.phases.contains_key("persist"));
    }

    #[test]
    fn counts_come_from_the_counters_and_the_event_list() {
        let (rec, counters) = counted();
        rec.record_injection(injection(3, Some(30)));
        rec.record_injection(injection(3, Some(24)));
        rec.record_injection(injection(1, None));
        counters.scope_merged(3, tallies(1, 1, 1), (7, 2));
        rec.record_layer_ns("conv1", 100);
        rec.record_layer_ns("conv1", 50);
        let s = rec.summary();
        assert_eq!(s.counts.injections, 3);
        assert_eq!(s.counts.per_layer, BTreeMap::from([(1, 1), (3, 2)]));
        assert_eq!(s.counts.per_bit.len(), 2);
        assert_eq!(s.counts.items, 3);
        assert_eq!(s.counts.outcomes, tallies(1, 1, 1));
        assert_eq!((s.counts.nan, s.counts.inf), (7, 2));
        assert_eq!(s.layer_forward["conv1"], LayerTime { count: 2, total_ns: 150 });
    }

    #[test]
    fn a_recorder_without_counters_reads_zero_counts() {
        let rec = Recorder::new();
        rec.record_injection(injection(2, Some(7)));
        let c = rec.summary().counts;
        assert_eq!((c.items, c.injections, c.outcomes.total(), c.nan, c.inf), (0, 1, 0, 0, 0));
    }

    #[test]
    fn jsonl_has_header_events_and_summary() {
        let (rec, counters) = counted();
        rec.set_meta(meta());
        rec.begin_items(1);
        rec.record_injection(injection(3, Some(30)));
        counters.scope_merged(1, tallies(0, 1, 0), (0, 0));
        let log = rec.events_jsonl();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"header\""));
        assert!(lines[0].contains("\"scenario_hash\""));
        assert!(lines[0].contains("\"threads\":4"));
        assert!(lines[1].contains("\"event\":\"injection\""));
        assert!(lines[1].contains("\"bit\":30"));
        assert!(lines[2].contains("\"event\":\"summary\""));
        assert!(lines[2].contains("\"sdc\":1"));
        // every line parses as standalone JSON
        for line in lines {
            Json::parse(line).unwrap();
        }
    }

    #[test]
    fn jsonl_is_reproducible_and_timestamp_free() {
        let build = || {
            let (rec, counters) = counted();
            rec.set_meta(meta());
            for i in 0..4u8 {
                let _s = rec.span(Phase::Forward); // timing must not leak into events
                rec.record_injection(injection(i as usize, Some(i)));
            }
            counters.scope_merged(4, tallies(4, 0, 0), (0, 0));
            rec.events_jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn replace_faults_have_null_bit_and_no_bit_counter() {
        let rec = Recorder::new();
        rec.record_injection(injection(0, None));
        assert!(rec.events_jsonl().contains("\"bit\":null"));
        assert!(rec.summary().counts.per_bit.is_empty());
        assert_eq!(rec.summary().counts.injections, 1);
    }

    #[test]
    fn summary_render_mentions_phases_and_tallies() {
        let (rec, counters) = counted();
        rec.set_meta(meta());
        {
            let _s = rec.span_on(Phase::Forward, 0);
        }
        counters.scope_merged(1, tallies(0, 0, 1), (0, 0));
        let text = rec.summary().render();
        assert!(text.contains("phase forward"));
        assert!(text.contains("due 1"));
        assert!(text.contains("threads 4"));
    }

    #[test]
    fn stop_events_and_outcome_surface_in_log_and_summary() {
        let rec = Recorder::new();
        rec.set_meta(meta());
        rec.record_stop(StopEvent {
            verdict: StopVerdict::StopCampaign,
            stratum: None,
            scope_index: 48,
            samples: 48,
            sdc: 12,
            due: 4,
            sdc_ci: (0.14, 0.39),
            due_ci: (0.02, 0.2),
            half_width: 0.125,
        });
        rec.set_stop_outcome(StopOutcome {
            requested_half_width: 0.15,
            confidence: 0.95,
            achieved_sdc_half_width: 0.125,
            achieved_due_half_width: 0.09,
            executed_scopes: 48,
            skipped_scopes: 0,
            planned_scopes: 400,
            decisions: 1,
            stopped_early: true,
        });
        let log = rec.events_jsonl();
        let stop_line = log.lines().find(|l| l.contains("\"event\":\"stop\"")).unwrap();
        assert!(stop_line.contains("\"verdict\":\"stop\""), "{stop_line}");
        assert!(stop_line.contains("\"stratum\":null"), "{stop_line}");
        assert!(stop_line.contains("\"sdc_ci\":[0.14,0.39]"), "{stop_line}");
        // Stop records sit between injections and the closing summary.
        let lines: Vec<&str> = log.lines().collect();
        assert!(lines[lines.len() - 1].contains("\"event\":\"summary\""));
        assert!(lines[lines.len() - 2].contains("\"event\":\"stop\""));

        let summary = rec.summary();
        let outcome = summary.stop.expect("stop outcome set");
        assert_eq!(outcome.executed_scopes, 48);
        assert_eq!(rec.stop_events().len(), 1);
        let text = summary.render();
        assert!(text.contains("stopped early"), "{text}");
        assert!(text.contains("executed 48"), "{text}");
    }

    #[test]
    fn disabled_recorder_ignores_stop_records() {
        let rec = Recorder::disabled();
        rec.record_stop(StopEvent {
            verdict: StopVerdict::RetireStratum,
            stratum: Some(1),
            scope_index: 8,
            samples: 8,
            sdc: 0,
            due: 0,
            sdc_ci: (0.0, 0.4),
            due_ci: (0.0, 0.4),
            half_width: 0.2,
        });
        assert!(rec.stop_events().is_empty());
        assert_eq!(rec.summary().stop, None);
    }

    #[test]
    fn hash_is_stable_and_input_sensitive() {
        assert_eq!(hash_hex(b""), "cbf29ce484222325");
        assert_eq!(hash_hex(b"a"), hash_hex(b"a"));
        assert_ne!(hash_hex(b"a"), hash_hex(b"b"));
        assert_eq!(hash_hex(b"scenario").len(), 16);
    }

    #[test]
    fn progress_reads_items_without_printing_when_disabled() {
        let (rec, counters) = counted(); // progress line off by default
        rec.begin_items(3);
        for _ in 0..3 {
            counters.scope_merged(1, tallies(1, 0, 0), (0, 0));
            rec.progress();
        }
        assert_eq!(rec.summary().counts.items, 3);
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.record_injection(injection(1, Some(2)));
        assert_eq!(rec.summary().counts.injections, 1);
    }

    #[test]
    fn phase_stats_percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = phase_stats(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 51); // ((100-1)*0.5).round() = 50 -> sorted[50]
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.max_ns, 100);
        assert!(phase_stats(&[]).is_none());
    }
}
