//! Unified campaign run configuration.
//!
//! [`RunConfig`] is the single entry point for how a campaign runs:
//! threading, observability and persistence are configured in one
//! builder-style value and handed to
//! [`run_with`](crate::campaign::ImgClassCampaign::run_with).
//! [`save_dir`](RunConfig::save_dir) is the only way a campaign writes
//! its artifacts.
//! `RunConfig::default()` reproduces the historical `run()` behaviour
//! byte-for-byte: sequential, untraced, nothing written to disk.

use alfi_metrics::{HealthPolicy, Registry};
use alfi_scenario::{ArtifactFormat, Scenario, StopPolicy};
use alfi_trace::Recorder;
use std::path::{Path, PathBuf};

/// How a campaign run executes: thread count, observability recorder
/// and optional output directory.
///
/// ```
/// use alfi_core::campaign::RunConfig;
/// use alfi_trace::Recorder;
///
/// let cfg = RunConfig::new().threads(4).recorder(Recorder::new());
/// assert_eq!(cfg.threads, 4);
/// assert!(cfg.recorder.is_enabled());
/// assert!(cfg.save_dir.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Parallelism of the campaign driver, for every injection policy.
    /// `1` (the default) processes one scope at a time on the calling
    /// thread, whose tensor kernels may still use the shared
    /// [`alfi_pool`] pool. Values above `1` run rounds of scopes as pool
    /// tasks (clamped by `ALFI_POOL_THREADS`) and merge them in work
    /// order, so outputs are identical to `1`. `0` means "auto": the
    /// pool's default parallelism.
    pub threads: usize,
    /// Observability sink. The default [`Recorder::disabled`] collects
    /// nothing and costs nothing; pass [`Recorder::new`] to get span
    /// timings, the injection and stop events, the JSONL event log and
    /// a summary of the run's counts. The recorder keeps no counts of
    /// its own: it reads them from the run's counter set
    /// ([`alfi_trace::CampaignCounters`]), which the engine registers on
    /// [`metrics`](RunConfig::metrics) (or the registry it resolves to)
    /// and otherwise on a private registry that nothing renders, serves
    /// or watches. A recorder records one run; with the process-global
    /// registry its counts are process totals.
    pub recorder: Recorder,
    /// When set, the campaign persists its full output set (scenario,
    /// fault/trace binaries, result CSVs and — with an enabled recorder
    /// — `events.jsonl`; with metrics attached — `metrics.prom`) into
    /// this directory after the run.
    pub save_dir: Option<PathBuf>,
    /// Live metrics registry. When set, the engine registers the run's
    /// one counter set ([`alfi_trace::CampaignCounters`]: scope
    /// throughput, injection counts, outcome tallies, NaN/Inf, stop
    /// decisions, sink rows) on it and writes it as the campaign runs;
    /// the recorder reads the same counters, and a `metrics.prom`
    /// snapshot lands under [`save_dir`](RunConfig::save_dir). When
    /// `None` but [`metrics_addr`](RunConfig::metrics_addr) or
    /// [`health`](RunConfig::health) is set, the process-global
    /// registry ([`alfi_metrics::global`]) is used instead.
    pub metrics: Option<Registry>,
    /// When set, an HTTP endpoint serving Prometheus text at
    /// `GET /metrics` is bound on this address (e.g. `127.0.0.1:9184`)
    /// for the lifetime of the process. Implies metrics collection.
    pub metrics_addr: Option<String>,
    /// When set, a watchdog thread samples the metrics registry at the
    /// policy's interval and raises [`alfi_metrics::HealthEvent`]s
    /// (stall, DUE/SDC rate, NaN storm), which are surfaced on the
    /// recorder and in [`alfi_trace::TraceSummary::health`]. Implies
    /// metrics collection.
    pub health: Option<HealthPolicy>,
    /// Statistical early-stop policy. When set, the engine evaluates
    /// SDC/DUE confidence intervals at deterministic scope boundaries
    /// and ends the campaign (or retires per-layer strata) once the
    /// target half-width is reached. Overrides the scenario's
    /// `stop_policy` key; `None` falls back to the scenario, and a
    /// scenario without one runs the full matrix.
    pub stop: Option<StopPolicy>,
    /// Row-artifact encoding under [`save_dir`](RunConfig::save_dir):
    /// [`ArtifactFormat::Csv`] writes the historical `results_*.csv`
    /// files, [`ArtifactFormat::Binary`] writes one columnar
    /// `rows.alfic` store instead (convertible back to the exact CSV
    /// bytes with `alfi store convert`). Overrides the scenario's
    /// `format` key; `None` falls back to the scenario, and a scenario
    /// without one writes CSV.
    pub format: Option<ArtifactFormat>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 1,
            recorder: Recorder::disabled(),
            save_dir: None,
            metrics: None,
            metrics_addr: None,
            health: None,
            stop: None,
            format: None,
        }
    }
}

impl RunConfig {
    /// Alias for [`RunConfig::default`]: sequential, untraced, no
    /// persistence.
    pub fn new() -> Self {
        RunConfig::default()
    }

    /// Sets the driver parallelism (see [`RunConfig::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches an observability recorder (see [`RunConfig::recorder`]).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Persists campaign outputs into `dir` after the run.
    pub fn save_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.save_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Attaches a live metrics registry (see [`RunConfig::metrics`]).
    pub fn metrics(mut self, registry: Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Serves Prometheus text on `addr` (see
    /// [`RunConfig::metrics_addr`]).
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Runs a health watchdog under `policy` (see
    /// [`RunConfig::health`]).
    pub fn health(mut self, policy: HealthPolicy) -> Self {
        self.health = Some(policy);
        self
    }

    /// Enables statistical early stopping (see [`RunConfig::stop`]).
    pub fn stop_policy(mut self, policy: StopPolicy) -> Self {
        self.stop = Some(policy);
        self
    }

    /// Selects the row-artifact encoding (see [`RunConfig::format`]).
    pub fn format(mut self, format: ArtifactFormat) -> Self {
        self.format = Some(format);
        self
    }

    /// The effective stop policy for a scenario: an explicit
    /// [`stop`](RunConfig::stop) wins, else the scenario's
    /// `stop_policy` key, else none (run the full matrix).
    pub(crate) fn resolve_stop(&self, scenario: &Scenario) -> Option<StopPolicy> {
        self.stop.or(scenario.stop_policy)
    }

    /// The effective row-artifact format for a scenario: an explicit
    /// [`format`](RunConfig::format) wins, else the scenario's
    /// `format` key, else CSV.
    pub(crate) fn resolve_format(&self, scenario: &Scenario) -> ArtifactFormat {
        self.format.or(scenario.artifact_format).unwrap_or_default()
    }

    /// The registry the engine should publish into, if any: an explicit
    /// [`metrics`](RunConfig::metrics) registry wins; otherwise the
    /// process-global one when an endpoint or watchdog needs data.
    pub(crate) fn resolve_metrics(&self) -> Option<Registry> {
        self.metrics.clone().or_else(|| {
            (self.metrics_addr.is_some() || self.health.is_some())
                .then(|| alfi_metrics::global().clone())
        })
    }

    /// The driver parallelism, resolving the `0` = "auto" sentinel to
    /// the global pool's default.
    pub(crate) fn resolve_threads(&self) -> usize {
        match self.threads {
            0 => alfi_pool::global().threads(),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_untraced_and_unsaved() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.threads, 1);
        assert!(!cfg.recorder.is_enabled());
        assert!(cfg.save_dir.is_none());
    }

    #[test]
    fn builder_sets_every_field() {
        let cfg = RunConfig::new().threads(8).recorder(Recorder::new()).save_dir("/tmp/x");
        assert_eq!(cfg.threads, 8);
        assert!(cfg.recorder.is_enabled());
        assert_eq!(cfg.save_dir.as_deref(), Some(Path::new("/tmp/x")));
    }

    #[test]
    fn metrics_resolution_prefers_explicit_registry() {
        assert!(RunConfig::new().resolve_metrics().is_none(), "metrics are opt-in");

        let own = Registry::new();
        let cfg = RunConfig::new().metrics(own.clone()).metrics_addr("127.0.0.1:0");
        let resolved = cfg.resolve_metrics().expect("explicit registry resolves");
        resolved.counter("cfg_test_total", "probe", alfi_metrics::Class::Runtime).inc();
        assert_eq!(own.snapshot().counter("cfg_test_total"), 1, "same registry");

        let cfg = RunConfig::new().health(HealthPolicy::default());
        assert!(cfg.resolve_metrics().is_some(), "watchdog alone implies the global registry");
    }

    #[test]
    fn stop_policy_resolution_prefers_explicit_config() {
        let mut scenario = Scenario::default();
        assert!(RunConfig::new().resolve_stop(&scenario).is_none(), "stop is opt-in");

        let from_yaml = StopPolicy { half_width: 0.2, ..StopPolicy::default() };
        scenario.stop_policy = Some(from_yaml);
        assert_eq!(RunConfig::new().resolve_stop(&scenario), Some(from_yaml));

        let explicit = StopPolicy { half_width: 0.01, ..StopPolicy::default() };
        let cfg = RunConfig::new().stop_policy(explicit);
        assert_eq!(cfg.resolve_stop(&scenario), Some(explicit), "RunConfig wins");
    }

    #[test]
    fn format_resolution_prefers_explicit_config() {
        let mut scenario = Scenario::default();
        assert_eq!(
            RunConfig::new().resolve_format(&scenario),
            ArtifactFormat::Csv,
            "CSV is the default"
        );

        scenario.artifact_format = Some(ArtifactFormat::Binary);
        assert_eq!(RunConfig::new().resolve_format(&scenario), ArtifactFormat::Binary);

        let cfg = RunConfig::new().format(ArtifactFormat::Csv);
        assert_eq!(cfg.resolve_format(&scenario), ArtifactFormat::Csv, "RunConfig wins");
    }

    #[test]
    fn auto_threads_resolve_to_the_pool_default() {
        let pool = alfi_pool::global().threads();
        assert_eq!(RunConfig::new().threads(0).resolve_threads(), pool, "auto is the pool default");
        assert_eq!(RunConfig::new().threads(1).resolve_threads(), 1);
        assert_eq!(RunConfig::new().threads(3).resolve_threads(), 3, "explicit widths pass through");
    }
}
