//! Live metrics for ALFI campaigns — a std-only, dependency-free
//! observability layer in three parts:
//!
//! 1. [`Registry`]: a sharded, lock-cheap registry of named
//!    [`Counter`]s, [`FloatCounter`]s, [`Gauge`]s and log₂-bucketed
//!    [`Histogram`]s. Hot-path updates are one relaxed atomic add on a
//!    per-thread shard; shards are merged only when a [`Snapshot`] is
//!    taken, so instrumented kernels never contend on a shared cache
//!    line.
//! 2. Exposition: Prometheus-text-format (0.0.4) rendering, a one-shot
//!    `metrics.prom` snapshot writer ([`write_snapshot`]) and an opt-in
//!    background TCP server on [`std::net::TcpListener`] serving
//!    `GET /metrics` ([`MetricsServer`], [`serve_once`]).
//! 3. Health: a [`Watchdog`] that samples the registry and raises
//!    structured [`HealthEvent`]s — campaign stall, DUE/SDC rate above
//!    threshold, NaN storm.
//!
//! # Determinism boundary
//!
//! Every metric carries a [`Class`]. [`Class::Deterministic`] series
//! (scope/item/injection/outcome counts) depend only on the scenario
//! seed and are byte-identical across thread counts; they are the only
//! series rendered by [`Snapshot::render_deterministic`] and the only
//! ones allowed in golden files. [`Class::Runtime`] series (timings,
//! busy fractions, FLOP throughput) are wall-clock- or
//! schedule-dependent and stay out of golden artifacts.
//!
//! Metric names follow `alfi_<subsystem>_<name>_{total,seconds}`; the
//! well-known names used across the workspace live in [`names`].

mod expose;
mod health;
mod registry;

pub use expose::{serve_once, write_snapshot, MetricsServer, SNAPSHOT_FILE};
pub use health::{
    evaluate, HealthEvent, HealthObservation, HealthPolicy, HealthSink, HealthState, Watchdog,
};
pub use registry::{
    Class, Counter, FloatCounter, Gauge, Histogram, Kind, Registry, Snapshot, HIST_BUCKETS,
    HIST_K_MAX, HIST_K_MIN,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Well-known metric names used by the instrumented crates. Following
/// the workspace convention `alfi_<subsystem>_<name>_{total,seconds}`.
/// The campaign series (`alfi_campaign_*`, `alfi_engine_*` and
/// `alfi_store_*_written_total`) are registered in one place, the run's
/// counter set `alfi_trace::CampaignCounters`.
pub mod names {
    /// Fault scopes completed by the campaign engine (deterministic).
    pub const ENGINE_SCOPES: &str = "alfi_engine_scopes_total";
    /// Per-image rows produced by the campaign engine (deterministic).
    pub const ENGINE_ITEMS: &str = "alfi_engine_items_total";
    /// Wall-clock histogram of per-scope processing time (runtime).
    pub const ENGINE_SCOPE_SECONDS: &str = "alfi_engine_scope_seconds";
    /// Faults applied across the campaign (deterministic).
    pub const CAMPAIGN_INJECTIONS: &str = "alfi_campaign_injections_total";
    /// Faults applied per layer, labelled `layer` (deterministic).
    pub const CAMPAIGN_LAYER_INJECTIONS: &str = "alfi_campaign_layer_injections_total";
    /// Fault-effect outcomes, labelled `outcome` ∈ masked/sdc/due
    /// (deterministic).
    pub const CAMPAIGN_OUTCOMES: &str = "alfi_campaign_outcomes_total";
    /// Non-finite values in corrupted outputs, labelled `kind` ∈
    /// nan/inf (deterministic).
    pub const CAMPAIGN_NONFINITE: &str = "alfi_campaign_nonfinite_total";
    /// Worker threads owned by the shared pool (runtime gauge).
    pub const POOL_THREADS: &str = "alfi_pool_threads";
    /// Fan-out jobs executed by the pool, inline runs included
    /// (runtime).
    pub const POOL_JOBS: &str = "alfi_pool_jobs_total";
    /// Individual tasks claimed by pool participants (runtime).
    pub const POOL_TASKS: &str = "alfi_pool_tasks_total";
    /// Seconds participants spent running tasks, labelled `worker`
    /// (runtime).
    pub const POOL_BUSY_SECONDS: &str = "alfi_pool_busy_seconds_total";
    /// Floating-point operations issued by the matmul kernel (runtime).
    pub const TENSOR_MATMUL_FLOPS: &str = "alfi_tensor_matmul_flops_total";
    /// Bytes touched by the matmul kernel (runtime).
    pub const TENSOR_MATMUL_BYTES: &str = "alfi_tensor_matmul_bytes_total";
    /// Floating-point operations issued by the im2col conv kernel
    /// (runtime).
    pub const TENSOR_CONV_FLOPS: &str = "alfi_tensor_conv_flops_total";
    /// Bytes touched by the im2col conv kernel (runtime).
    pub const TENSOR_CONV_BYTES: &str = "alfi_tensor_conv_bytes_total";
    /// Bytes written into packed B panels by the blocked GEMM, counted
    /// once per GEMM invocation (runtime).
    pub const TENSOR_GEMM_PACK_BYTES: &str = "alfi_tensor_gemm_pack_bytes_total";
    /// Health watchdog events raised, labelled `kind` (runtime).
    pub const HEALTH_EVENTS: &str = "alfi_health_events_total";
    /// Statistical stop decisions, labelled `verdict` ∈ stop/retire
    /// (deterministic — decisions fire only at scope boundaries).
    pub const CAMPAIGN_STOP_DECISIONS: &str = "alfi_campaign_stop_decisions_total";
    /// Fault scopes skipped because their layer stratum was already
    /// retired by the stop policy (deterministic).
    pub const ENGINE_SCOPES_SKIPPED: &str = "alfi_engine_scopes_skipped_total";
    /// Result rows appended to the campaign's artifact sink
    /// (deterministic).
    pub const STORE_ROWS_WRITTEN: &str = "alfi_store_rows_written_total";
    /// Bytes persisted by the campaign's artifact sink (deterministic —
    /// artifacts are byte-identical at every thread count).
    pub const STORE_BYTES_WRITTEN: &str = "alfi_store_bytes_written_total";
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide registry. Library crates (`alfi-pool`,
/// `alfi-tensor`) record here when [`global_enabled`] is set; the CLI
/// exposition endpoint serves it.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Whether background instrumentation (pool/tensor kernels) should
/// record into the [`global`] registry. Off by default so
/// un-instrumented runs pay a single relaxed load per kernel call.
#[inline]
pub fn global_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// Turns background instrumentation of the [`global`] registry on or
/// off. Enabled automatically by the campaign engine when a run asks
/// for any metrics surface.
pub fn set_global_enabled(on: bool) {
    GLOBAL_ENABLED.store(on, Ordering::Relaxed);
}
