//! The two measuring modes. The untraced run repeats rounds of set-ups,
//! one campaign pass and report passes for the requested time and
//! yields the five end-to-end metrics; the traced run replays the
//! same inputs with spans and the program's counters on and yields the
//! per-layer metrics. Every operation's output is checked, and each
//! error or failed check counts as one failed operation.

use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{self, err, mix, Outcome, Prep, Replay, Res, Workload};
use alfi::core::campaign::RunConfig;
use alfi::core::load_fault_matrix;
use alfi::metrics::{names, Registry};
use alfi::scenario::ArtifactFormat;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Time each round spends on set-ups and, separately, on report passes.
/// Both are timed one operation at a time and reported as the median
/// over the whole run (hundreds of samples), which a stalled write or a
/// burst of host contention cannot move the way it moves a mean.
const PHASE_SECONDS: f64 = 0.15;
/// Rounds run even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 3;
/// Rows replayed as `row` spans in the traced run; 160 samples leave ten
/// beyond the 93rd percentile.
const REPLAY_ROWS: usize = 160;
/// Sampled rows replayed per round of the traced run; rows left over
/// when the time is up are replayed after the last round.
const REPLAY_PER_ROUND: usize = 12;
/// Set-ups and report passes per round of the traced run, so their
/// child spans gather enough samples for a high percentile.
const TRACED_REPEATS: usize = 8;
const MIB: f64 = (1u64 << 20) as f64;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric. `samples` are the per-sample values the median
/// is taken over (empty for exact counts); `None` marks a layer that
/// does not run in this workload.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub samples: Vec<f64>,
}

impl Metric {
    fn timed(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: stats::median(&samples),
            samples,
        }
    }

    /// Rows per second of a step whose spans each cover all `rows`.
    fn timed_rate(name: &'static str, durations_ms: Vec<f64>, rows: f64) -> Metric {
        let samples: Vec<f64> = durations_ms.iter().map(|d| rows / (d / 1e3)).collect();
        Metric::timed(name, "rows/s", samples)
    }

    fn exact(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }
}

/// Operation accounting: every set-up, campaign pass, report pass and
/// replayed row is one attempted operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ops {
    fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Res<T>) -> Option<T> {
        self.attempted += 1;
        match f() {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 20 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }
}

pub struct Outcomes {
    pub ops: Ops,
    pub metrics: Vec<Metric>,
    /// `key=value` facts printed in the header line.
    pub facts: Vec<(String, String)>,
}

/// Scratch directories of one invocation, removed when it ends.
pub struct Dirs {
    root: PathBuf,
    setup: PathBuf,
    run: PathBuf,
    tmp: PathBuf,
}

impl Dirs {
    pub fn create(base: &Path, wl: &Workload) -> Res<Dirs> {
        let root = base.join(format!("{}-{}", wl.name, std::process::id()));
        let d = Dirs {
            setup: root.join("setup"),
            run: root.join("run"),
            tmp: root.join("tmp"),
            root,
        };
        for p in [&d.setup, &d.tmp] {
            std::fs::create_dir_all(p).map_err(err("creating scratch directory"))?;
        }
        Ok(d)
    }

    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }

    fn fresh_run(&self) -> Res<&Path> {
        if self.run.exists() {
            std::fs::remove_dir_all(&self.run).map_err(err("clearing run directory"))?;
        }
        Ok(&self.run)
    }
}

/// Runs one untimed campaign pass with a metrics registry to learn how
/// many scopes the engine executes (fewer than planned when the stop
/// policy retires layers); every later pass must match it. A registry
/// rather than a `Recorder`, so no per-event memory inflates the peak.
fn warm_up(wl: &Workload, prep: &Prep, dirs: &Dirs) -> Res<u64> {
    let registry = Registry::new();
    let cfg = RunConfig::new()
        .metrics(registry.clone())
        .save_dir(dirs.fresh_run()?);
    let pass = workloads::campaign(wl, prep, &cfg);
    alfi::metrics::set_global_enabled(false);
    let (out, _) = pass?;
    let planned = wl.images as u64;
    let executed = registry.snapshot().counter(names::ENGINE_SCOPES);
    let stops = prep.scenario.stop_policy.is_some();
    if out.rows() as u64 != executed
        || executed == 0
        || executed > planned
        || (!stops && executed != planned)
    {
        return Err(format!(
            "warm-up produced {} rows; the engine executed {executed} of {planned} scopes",
            out.rows()
        ));
    }
    Ok(executed)
}

fn check_reload(prep: &Prep, reloaded: Option<alfi::core::FaultMatrix>) -> Res<()> {
    match reloaded {
        Some(m) if m == prep.matrix => Ok(()),
        Some(_) => Err("faults.bin does not reload to the generated matrix".into()),
        None => Err("faults.bin was not reloaded".into()),
    }
}

/// Checks a finished pass: its row count, and for the binary store that
/// a scan returns every row.
fn check_pass(wl: &Workload, out: &Outcome, executed: u64, dir: &Path) -> Res<()> {
    if out.rows() as u64 != executed {
        return Err(format!("{} rows, expected {executed}", out.rows()));
    }
    if wl.format == ArtifactFormat::Binary {
        let scanned = workloads::store_rows(dir)?;
        if scanned != executed {
            return Err(format!("store scan returned {scanned} of {executed} rows"));
        }
    }
    Ok(())
}

/// Total size and a content digest (FNV-1a over names and bytes) of the
/// files in a run directory.
fn dir_digest(dir: &Path) -> Res<(u64, u64)> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(err("reading run directory"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(err("reading run directory"))?;
    names.sort();
    let (mut bytes, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for p in names {
        let data = std::fs::read(&p).map_err(err("reading artifact"))?;
        bytes += data.len() as u64;
        let name = p
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        for b in name.bytes().chain(data) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok((bytes, h))
}

/// Repeats `op` (which returns its own timed seconds) until the timed
/// total reaches [`PHASE_SECONDS`], collecting each operation's time.
/// Stops early when an operation fails.
fn repeat(samples: &mut Vec<f64>, mut op: impl FnMut() -> Option<f64>) {
    let mut total = 0.0;
    while total < PHASE_SECONDS {
        let Some(secs) = op() else { return };
        samples.push(secs);
        total += secs;
    }
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Checks that the pinned `ALFI_POOL_THREADS` took effect.
fn check_pool(wl: &Workload) -> Res<()> {
    match alfi_pool::global().threads() {
        n if n == wl.pool_threads => Ok(()),
        n => Err(format!(
            "pool runs {n} threads, workload pins {}",
            wl.pool_threads
        )),
    }
}

/// The untraced run: the five end-to-end metrics.
pub fn untraced(wl: &Workload, args: &Args, dirs: &Dirs) -> Res<Outcomes> {
    let mut ops = Ops::default();
    ops.run("pool width", || check_pool(wl));
    let mut quiet = Tracer::new(false);
    let prep = wl.setup(args.seed, &dirs.setup, &mut quiet)?;
    let executed = warm_up(wl, &prep, dirs)?;

    let (mut setup_s, mut rows_per_s, mut report_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut artifacts: Option<(u64, u64)> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        rounds += 1;
        repeat(&mut setup_s, || {
            ops.run("setup", || {
                let t0 = Instant::now();
                let p = wl.setup(args.seed, &dirs.setup, &mut quiet)?;
                let secs = t0.elapsed().as_secs_f64();
                check_reload(
                    &p,
                    Some(
                        load_fault_matrix(dirs.setup.join("faults.bin"))
                            .map_err(err("load_fault_matrix"))?,
                    ),
                )?;
                Ok(secs)
            })
        });

        let pass = ops.run("campaign", || {
            let dir = dirs.fresh_run()?;
            let (out, wall) = workloads::campaign(wl, &prep, &RunConfig::new().save_dir(dir))?;
            check_pass(wl, &out, executed, dir)?;
            Ok((out, wall))
        });
        let Some((out, wall)) = pass else { continue };
        rows_per_s.push(executed as f64 / wall);

        repeat(&mut report_s, || {
            ops.run("report", || {
                let t0 = Instant::now();
                let rows = workloads::report(&prep, &out, &dirs.run, &dirs.tmp, &mut quiet)?;
                let secs = t0.elapsed().as_secs_f64();
                if rows != executed {
                    return Err(format!(
                        "report totals cover {rows} rows, expected {executed}"
                    ));
                }
                Ok(secs)
            })
        });
        // Campaign plus report leave the same bytes on every pass.
        ops.run("artifacts", || {
            let d = dir_digest(&dirs.run)?;
            match artifacts {
                Some(first) if first != d => {
                    Err("run directory differs from the first pass".into())
                }
                _ => {
                    artifacts = Some(d);
                    Ok(())
                }
            }
        });
    }

    let metrics = vec![
        Metric::timed("setup_s", "s", setup_s),
        Metric::timed("rows_per_s", "rows/s", rows_per_s),
        Metric::exact("peak_rss_mb", "MiB", peak_rss_mib()),
        Metric::exact(
            "artifact_bytes_per_row",
            "B/row",
            artifacts.map(|(b, _)| b as f64 / executed as f64),
        ),
        Metric::timed(
            "report_rows_per_s",
            "rows/s",
            report_s.iter().map(|s| executed as f64 / s).collect(),
        ),
    ];
    let facts = vec![
        ("rows".to_string(), executed.to_string()),
        ("planned".to_string(), wl.images.to_string()),
        ("rounds".to_string(), rounds.to_string()),
    ];
    Ok(Outcomes {
        ops,
        metrics,
        facts,
    })
}

/// Counter readings of the process-global registry that the tensor
/// kernels and the pool publish into.
#[derive(Clone, Copy)]
struct Counters {
    conv_flops: u64,
    matmul_flops: u64,
    pack_bytes: u64,
    pool_tasks: u64,
    pool_busy_s: f64,
}

impl Counters {
    fn read() -> Counters {
        let s = alfi::metrics::global().snapshot();
        Counters {
            conv_flops: s.counter(names::TENSOR_CONV_FLOPS),
            matmul_flops: s.counter(names::TENSOR_MATMUL_FLOPS),
            pack_bytes: s.counter(names::TENSOR_GEMM_PACK_BYTES),
            pool_tasks: s.counter(names::POOL_TASKS),
            pool_busy_s: s.float_sum(names::POOL_BUSY_SECONDS),
        }
    }

    /// Growth since `before`; the exact counters must repeat on every
    /// traced pass (busy seconds are wall time and may not).
    fn since(self, before: Counters) -> Counters {
        Counters {
            conv_flops: self.conv_flops - before.conv_flops,
            matmul_flops: self.matmul_flops - before.matmul_flops,
            pack_bytes: self.pack_bytes - before.pack_bytes,
            pool_tasks: self.pool_tasks - before.pool_tasks,
            pool_busy_s: self.pool_busy_s - before.pool_busy_s,
        }
    }

    fn exact_part(self) -> [u64; 4] {
        [
            self.conv_flops,
            self.matmul_flops,
            self.pack_bytes,
            self.pool_tasks,
        ]
    }
}

/// The traced run: per-layer metrics from spans and counters, with the
/// spans written to `spans_path` at the end.
pub fn traced(wl: &Workload, args: &Args, dirs: &Dirs, spans_path: &Path) -> Res<Outcomes> {
    let mut ops = Ops::default();
    ops.run("pool width", || check_pool(wl));
    let mut t = Tracer::new(true);
    let prep = wl.setup(args.seed, &dirs.setup, &mut t)?;
    check_reload(&prep, prep.reloaded.clone())?;
    let executed = warm_up(wl, &prep, dirs)?;
    let replay = Replay::new(&prep)?;

    // FLOPs of one golden forward, from the kernels' own counters.
    alfi::metrics::set_global_enabled(true);
    let before = Counters::read();
    prep.golden_forward()?;
    let one = Counters::read().since(before);
    alfi::metrics::set_global_enabled(false);
    let forward_flops = (one.conv_flops + one.matmul_flops) as f64;

    // Rows are replayed a few per round, so the per-row layer calls and
    // the campaign passes they are compared with see the same host.
    let mut replay_slots =
        workloads::sample_slots(mix(args.seed, 4), wl.images, REPLAY_ROWS).into_iter();
    let (mut plain_rps, mut traced_rps, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let mut exact: Option<Counters> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        rounds += 1;
        for _ in 0..TRACED_REPEATS {
            ops.run("setup", || {
                let p = wl.setup(args.seed, &dirs.setup, &mut t)?;
                check_reload(&p, p.reloaded.clone())
            });
        }
        // Control arm for the tracing overhead: the same pass untraced.
        if let Some(wall) = ops.run("campaign", || {
            let dir = dirs.fresh_run()?;
            let (out, wall) = workloads::campaign(wl, &prep, &RunConfig::new().save_dir(dir))?;
            check_pass(wl, &out, executed, dir)?;
            Ok(wall)
        }) {
            plain_rps.push(executed as f64 / wall);
        }
        let pass = ops.run("traced campaign", || {
            let dir = dirs.fresh_run()?;
            let registry = Registry::new();
            let cfg = RunConfig::new().metrics(registry.clone()).save_dir(dir);
            let before = Counters::read();
            let pass = t.span("campaign", |_| workloads::campaign(wl, &prep, &cfg));
            let delta = Counters::read().since(before);
            // The engine switched the kernel and pool counters on; the
            // next untraced pass must run without them.
            alfi::metrics::set_global_enabled(false);
            let (out, wall) = pass?;
            check_pass(wl, &out, executed, dir)?;
            let scopes = registry.snapshot().counter(names::ENGINE_SCOPES);
            if scopes != executed {
                return Err(format!(
                    "engine counted {scopes} scopes, expected {executed}"
                ));
            }
            match exact {
                Some(first) if first.exact_part() != delta.exact_part() => {
                    return Err(
                        "exact kernel/pool counters differ from the first traced pass".into(),
                    )
                }
                _ => exact = Some(delta),
            }
            Ok((out, wall, delta))
        });
        let Some((out, wall, delta)) = pass else {
            continue;
        };
        traced_rps.push(executed as f64 / wall);
        busy.push(delta.pool_busy_s / (wall * wl.pool_threads as f64));
        for slot in replay_slots.by_ref().take(REPLAY_PER_ROUND) {
            ops.run("row replay", || replay.row(&prep, slot, &mut t));
        }
        for _ in 0..TRACED_REPEATS {
            ops.run("report", || {
                let rows = workloads::report(&prep, &out, &dirs.run, &dirs.tmp, &mut t)?;
                if rows != executed {
                    return Err(format!(
                        "report totals cover {rows} rows, expected {executed}"
                    ));
                }
                Ok(())
            });
        }
    }
    let store_bytes = std::fs::metadata(dirs.run.join("rows.alfic"))
        .ok()
        .map(|m| m.len());

    for slot in replay_slots {
        ops.run("row replay", || replay.row(&prep, slot, &mut t));
    }
    std::fs::write(
        spans_path,
        t.to_json(&[
            ("workload", wl.name.to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
        ]),
    )
    .map_err(err("writing spans"))?;

    let rows = executed as f64;
    let ms = |name: &str| t.durations_ms(name);
    let med = |name: &str| stats::median(&ms(name));
    let layer_rows: Vec<f64> = row_layer_ms(&t);
    let plain = stats::median(&plain_rps);
    let per_row = |f: fn(&Counters) -> u64, unit: f64| {
        exact.and_then(|c| stats::per_row(f(&c), executed, unit))
    };
    let metrics = vec![
        Metric::exact(
            "tensor.conv_gflop_per_row",
            "GFLOP/row",
            per_row(|c| c.conv_flops, 1e9),
        ),
        Metric::exact(
            "tensor.matmul_gflop_per_row",
            "GFLOP/row",
            per_row(|c| c.matmul_flops, 1e9),
        ),
        Metric::exact(
            "tensor.pack_mb_per_row",
            "MiB/row",
            per_row(|c| c.pack_bytes, MIB),
        ),
        Metric::exact(
            "tensor.gflop_per_s",
            "GFLOP/s",
            med("nn.forward").map(|f| forward_flops / 1e9 / (f / 1e3)),
        ),
        Metric::timed("nn.forward_ms", "ms", ms("nn.forward")),
        Metric::timed("nn.faulty_forward_ms", "ms", ms("nn.faulty_forward")),
        Metric::timed("nn.hardened_forward_ms", "ms", ms("nn.hardened_forward")),
        Metric::exact(
            "nn.monitor_ratio",
            "ratio",
            med("nn.monitored_forward")
                .zip(med("nn.forward"))
                .map(|(m, f)| m / f),
        ),
        Metric::timed("nn.clone_ms", "ms", ms("nn.clone")),
        Metric::exact("nn.clone_mb", "MiB", Some(prep.clone_mib())),
        Metric::timed("datasets.image_ms", "ms", ms("datasets.image")),
        Metric::timed("core.resolve_targets_ms", "ms", ms("core.resolve_targets")),
        Metric::timed("core.matrix_generate_ms", "ms", ms("core.matrix_generate")),
        Metric::timed("core.faults_bin_ms", "ms", ms("core.faults_bin")),
        Metric::exact(
            "core.arm_us",
            "us",
            med("core.arm")
                .zip(med("core.disarm"))
                .map(|(a, d)| (a + d) * 1e3),
        ),
        Metric::exact(
            "core.engine_residual_ms_per_row",
            "ms/row",
            plain
                .zip(stats::median(&layer_rows))
                .map(|(p, l)| 1e3 / p - l / wl.driver_threads as f64),
        ),
        Metric::exact(
            "core.stop_executed_ratio",
            "ratio",
            Some(rows / wl.images as f64),
        ),
        Metric::timed("mitigation.profile_ms", "ms", ms("mitigation.profile")),
        Metric::timed("mitigation.harden_ms", "ms", ms("mitigation.harden")),
        Metric::timed_rate("store.write_rows_per_s", ms("store.write"), rows),
        Metric::timed_rate("store.scan_rows_per_s", ms("store.scan"), rows),
        Metric::exact(
            "store.bytes_per_row",
            "B/row",
            store_bytes.map(|b| b as f64 / rows),
        ),
        Metric::timed("analyze.report_ms", "ms", ms("analyze.report")),
        Metric::timed("analyze.render_ms", "ms", ms("analyze.render")),
        Metric::timed("eval.kpi_ms", "ms", ms("eval.kpi")),
        Metric::timed("eval.write_ms", "ms", ms("eval.write")),
        Metric::timed("pool.busy_ratio", "ratio", busy),
        Metric::exact(
            "pool.tasks_per_row",
            "tasks/row",
            per_row(|c| c.pool_tasks, 1.0),
        ),
        Metric::exact(
            "trace.overhead_ratio",
            "ratio",
            stats::median(&traced_rps).zip(plain).map(|(t, p)| t / p),
        ),
    ];
    let facts = vec![
        ("rows".to_string(), executed.to_string()),
        ("planned".to_string(), wl.images.to_string()),
        ("rounds".to_string(), rounds.to_string()),
        (
            "replayed_rows".to_string(),
            t.durations_ms("row").len().to_string(),
        ),
        ("spans".to_string(), spans_path.display().to_string()),
    ];
    Ok(Outcomes {
        ops,
        metrics,
        facts,
    })
}

/// Per replayed row: the summed duration of its layer calls (the `row`
/// span's children), in milliseconds.
fn row_layer_ms(t: &Tracer) -> Vec<f64> {
    let spans = t.spans();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .filter(|s| s.name == "row")
        .map(|s| child_ns[s.id] as f64 / 1e6)
        .collect()
}
