//! Bench target: campaign-level scaling on the shared thread pool
//! (DESIGN.md experiment E1 extension). Times a full per-image
//! classification campaign sequentially (pool capped at one thread)
//! and via `run_with` at 1/2/4/N threads, then writes a speedup
//! report alongside the usual timing JSON. The determinism tests pin
//! that every configuration produces bit-identical artifacts, so the
//! only thing that may vary here is wall-clock time.

use alfi_bench::timing::{BenchResult, BenchmarkId, Harness};
use alfi_bench::{build_classifier, ExperimentScale};
use alfi_core::campaign::{ImgClassCampaign, RunConfig};
use alfi_datasets::{ClassificationDataset, ClassificationLoader};
use alfi_scenario::{ArtifactFormat, FaultMode, InjectionTarget, Scenario};
use alfi_serde::Json;
use alfi_tensor::gemm::{self, KernelPath};
use alfi_tensor::Tensor;
use std::hint::black_box;
use std::time::Duration;

const SEQUENTIAL: &str = "campaign_sequential";
const PARALLEL: &str = "campaign_parallel";
const KERNEL: &str = "forward_single_thread_kernel";
const REPORT: &str = "analyze_report";

fn thread_counts() -> Vec<usize> {
    let n_max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut counts = vec![1usize, 2, 4, n_max];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn make_campaign() -> ImgClassCampaign {
    let scale = ExperimentScale::quick();
    let (model, mcfg) = build_classifier("alexnet", scale, 3);
    let ds = ClassificationDataset::new(scale.images, mcfg.num_classes, 3, scale.input_hw, 5);
    let loader = ClassificationLoader::new(ds, 1);
    let mut s = Scenario::default();
    s.dataset_size = scale.images;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    ImgClassCampaign::new(model, s, loader)
}

fn bench_scaling(c: &mut Harness) {
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10).measurement_time(Duration::from_secs(3));

    // Baseline: the plain sequential driver with the pool pinned to one
    // thread, so the tensor kernels cannot parallelize either.
    group.bench_function(SEQUENTIAL, |b| {
        let mut campaign = make_campaign();
        b.iter(|| {
            alfi_pool::with_parallelism(1, || {
                black_box(campaign.run_with(&RunConfig::default()).expect("run"))
            })
        })
    });

    for threads in thread_counts() {
        group.bench_with_input(BenchmarkId::new(PARALLEL, threads), &threads, |b, &t| {
            let mut campaign = make_campaign();
            let cfg = RunConfig::new().threads(t);
            b.iter(|| black_box(campaign.run_with(&cfg).expect("run_with")))
        });
    }
    group.finish();
}

/// Kernel-path comparison on a conv-dominated workload: a pure batched
/// forward pass (no injection, no campaign machinery) with the pool
/// pinned to one thread, so the only variable is the GEMM kernel. The
/// conformance suite pins that both paths produce bit-identical
/// outputs; this group measures what the cache-blocked packed path
/// buys over the sequential reference.
fn bench_kernel_paths(c: &mut Harness) {
    // A conv-dominated workload: VGG's stride-1 3×3 stacks keep the
    // spatial extent (GEMM `n`) large through the whole network, so the
    // forward pass is almost entirely im2col GEMM. The blocked kernel's
    // win also scales with output-channel count (its packing cost
    // amortizes as `1/c_out`), and the paper-scale networks are far
    // wider than the quick campaign scale used above.
    // Batch 4 keeps the conv GEMMs dominant: the classifier head's
    // cost is one streaming pass over its weights per *forward* (all
    // batch rows share it), so it amortizes with batch size while the
    // conv work scales linearly.
    let scale = ExperimentScale { width_permille: 1000, ..ExperimentScale::quick() };
    let (model, mcfg) = build_classifier("vgg16", scale, 3);
    let batch = Tensor::ones(&mcfg.input_dims(4));

    let mut group = c.benchmark_group("kernel_paths");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for path in [KernelPath::Reference, KernelPath::Blocked] {
        group.bench_with_input(BenchmarkId::new(KERNEL, path), &path, |b, &p| {
            let prev = gemm::kernel_override();
            gemm::set_kernel_override(Some(p));
            b.iter(|| {
                alfi_pool::with_parallelism(1, || black_box(model.forward(&batch).expect("forward")))
            });
            gemm::set_kernel_override(prev);
        });
    }
    group.finish();
}

/// Runs one traced campaign at the highest benchmarked thread count
/// and folds the recorder's [`alfi_trace::TraceSummary`] into a JSON
/// per-phase breakdown (where the campaign wall-clock actually goes:
/// forward vs inject vs eval).
fn phase_breakdown() -> Json {
    let threads = thread_counts().pop().unwrap_or(1);
    let rec = alfi_trace::Recorder::new();
    let mut campaign = make_campaign();
    campaign
        .run_with(&RunConfig::new().threads(threads).recorder(rec.clone()))
        .expect("traced run");
    let summary = rec.summary();
    let phases = summary
        .phases
        .iter()
        .map(|(name, st)| {
            Json::Obj(vec![
                ("phase".to_string(), Json::Str((*name).to_string())),
                ("count".to_string(), Json::Int(st.count as i128)),
                ("total_ns".to_string(), Json::Int(st.total_ns as i128)),
                ("p50_ns".to_string(), Json::Int(st.p50_ns as i128)),
                ("p95_ns".to_string(), Json::Int(st.p95_ns as i128)),
                ("max_ns".to_string(), Json::Int(st.max_ns as i128)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("threads".to_string(), Json::Int(threads as i128)),
        ("items".to_string(), Json::Int(summary.counts.items as i128)),
        ("phases".to_string(), Json::Arr(phases)),
    ])
}

/// Runs one metered campaign at the highest benchmarked thread count
/// and summarizes its registry snapshot: engine scope throughput plus
/// the pool's worker-busy fraction (busy seconds across all workers
/// over `elapsed × pool threads` — how much of the theoretical
/// parallel capacity the campaign actually used).
fn metrics_snapshot() -> Json {
    let threads = thread_counts().pop().unwrap_or(1);
    let registry = alfi_metrics::Registry::new();
    let mut campaign = make_campaign();
    // Pool worker timers publish into the process-global registry, and
    // only counters that fired inside this window should count.
    let busy_before = alfi_metrics::global()
        .snapshot()
        .float_sum(alfi_metrics::names::POOL_BUSY_SECONDS);
    let t = std::time::Instant::now();
    campaign
        .run_with(&RunConfig::new().threads(threads).metrics(registry.clone()))
        .expect("metered run");
    let elapsed = t.elapsed().as_secs_f64();
    let global = alfi_metrics::global().snapshot();
    let busy_seconds = global.float_sum(alfi_metrics::names::POOL_BUSY_SECONDS) - busy_before;
    let pool_threads = alfi_pool::global().threads().max(1);
    let snap = registry.snapshot();
    let scopes = snap.counter(alfi_metrics::names::ENGINE_SCOPES);
    Json::Obj(vec![
        ("threads".to_string(), Json::Int(threads as i128)),
        ("scopes".to_string(), Json::Int(scopes as i128)),
        ("elapsed_s".to_string(), Json::Float(elapsed)),
        (
            "scopes_per_second".to_string(),
            if elapsed > 0.0 { Json::Float(scopes as f64 / elapsed) } else { Json::Null },
        ),
        ("pool_busy_seconds".to_string(), Json::Float(busy_seconds)),
        (
            "worker_busy_fraction".to_string(),
            if elapsed > 0.0 {
                Json::Float(busy_seconds / (elapsed * pool_threads as f64))
            } else {
                Json::Null
            },
        ),
    ])
}

/// Runs one early-stopped campaign at the highest benchmarked thread
/// count and reports executed-vs-total fault-scope counts — the
/// validation-efficiency headline: what fraction of the planned matrix
/// a confidence-targeted run actually needed.
fn early_stop_efficiency() -> Json {
    use alfi_scenario::{CiMethod, StopPolicy, StopScope};
    let threads = thread_counts().pop().unwrap_or(1);
    let policy = StopPolicy {
        half_width: 0.1,
        confidence: 0.95,
        min_samples: 16,
        check_every: 16,
        scope: StopScope::Campaign,
        method: CiMethod::Wilson,
    };
    // A matrix large enough that the precision target, not exhaustion,
    // ends the run (the quick benchmark scale is smaller than the
    // policy's sample floor).
    let images = 192;
    let scale = ExperimentScale::quick();
    let (model, mcfg) = build_classifier("alexnet", scale, 3);
    let ds = ClassificationDataset::new(images, mcfg.num_classes, 3, scale.input_hw, 5);
    let loader = ClassificationLoader::new(ds, 1);
    let mut s = Scenario::default();
    s.dataset_size = images;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    let rec = alfi_trace::Recorder::new();
    let mut campaign = ImgClassCampaign::new(model, s, loader);
    campaign
        .run_with(&RunConfig::new().threads(threads).recorder(rec.clone()).stop_policy(policy))
        .expect("early-stopped run");
    let Some(outcome) = rec.summary().stop else {
        return Json::Null;
    };
    let executed_fraction = if outcome.planned_scopes > 0 {
        Json::Float(outcome.executed_scopes as f64 / outcome.planned_scopes as f64)
    } else {
        Json::Null
    };
    Json::Obj(vec![
        ("threads".to_string(), Json::Int(threads as i128)),
        ("requested_half_width".to_string(), Json::Float(outcome.requested_half_width)),
        ("confidence".to_string(), Json::Float(outcome.confidence)),
        ("executed_scopes".to_string(), Json::Int(outcome.executed_scopes as i128)),
        ("skipped_scopes".to_string(), Json::Int(outcome.skipped_scopes as i128)),
        ("planned_scopes".to_string(), Json::Int(outcome.planned_scopes as i128)),
        ("executed_fraction".to_string(), executed_fraction),
        ("achieved_sdc_half_width".to_string(), Json::Float(outcome.achieved_sdc_half_width)),
        ("achieved_due_half_width".to_string(), Json::Float(outcome.achieved_due_half_width)),
        ("stopped_early".to_string(), Json::Bool(outcome.stopped_early)),
    ])
}

/// Runs the same campaign once with CSV row artifacts and once with
/// the columnar binary store, and reports the on-disk size of each —
/// the storage-efficiency headline for the `--format binary` path
/// (DESIGN.md targets a store at most 40% of the CSV pair).
fn artifact_size() -> Json {
    let run = |format: ArtifactFormat, tag: &str| {
        let dir = std::env::temp_dir().join(format!("alfi_bench_artifact_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        make_campaign()
            .run_with(&RunConfig::new().save_dir(&dir).format(format))
            .expect("artifact run");
        let a = alfi_core::Artifacts::new(&dir);
        let size = |p: std::path::PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        let bytes = size(a.rows_orig()) + size(a.rows_corr()) + size(a.rows_resil())
            + size(a.rows_store());
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    let csv_bytes = run(ArtifactFormat::Csv, "csv");
    let store_bytes = run(ArtifactFormat::Binary, "bin");
    let ratio = if csv_bytes > 0 {
        Json::Float(store_bytes as f64 / csv_bytes as f64)
    } else {
        Json::Null
    };
    Json::Obj(vec![
        ("csv_bytes".to_string(), Json::Int(csv_bytes as i128)),
        ("binary_bytes".to_string(), Json::Int(store_bytes as i128)),
        ("binary_over_csv".to_string(), ratio),
    ])
}

/// Builds one finished quick-scale campaign run directory (with a
/// trace log, so the report's event-log section is populated) for the
/// analyzer to consume.
fn make_report_run(format: ArtifactFormat, tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("alfi_bench_report_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    make_campaign()
        .run_with(
            &RunConfig::new()
                .save_dir(&dir)
                .format(format)
                .recorder(alfi_trace::Recorder::new()),
        )
        .expect("report source run");
    dir
}

/// Report generation over a finished run, for both row-artifact
/// formats. `analyze_dir` streams the rows (they are never fully
/// materialized), so this measures pure decode + rate/CI aggregation
/// throughput over the campaign's persisted artifacts.
fn bench_report_generation(c: &mut Harness) {
    let mut group = c.benchmark_group("report_generation");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for (format, tag) in [(ArtifactFormat::Csv, "csv"), (ArtifactFormat::Binary, "binary")] {
        let dir = make_report_run(format, tag);
        group.bench_with_input(BenchmarkId::new(REPORT, tag), &dir, |b, d| {
            b.iter(|| black_box(alfi_analyze::report::analyze_dir(d).expect("analyze")))
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Summarizes report-generation throughput: rows scanned per second
/// per row-artifact format, from the bench medians and the
/// (format-independent) row count of the quick campaign.
fn report_generation_summary(results: &[BenchResult]) -> Json {
    let dir = make_report_run(ArtifactFormat::Binary, "rowcount");
    let rows = alfi_analyze::report::analyze_dir(&dir).expect("analyze").rows;
    let _ = std::fs::remove_dir_all(&dir);
    let mut formats = Vec::new();
    for tag in ["csv", "binary"] {
        let median =
            results.iter().find(|r| r.name == format!("{REPORT}/{tag}")).map(|r| r.median_ns);
        let rows_per_second = match median {
            Some(ns) if ns > 0.0 => Json::Float(rows as f64 * 1e9 / ns),
            _ => Json::Null,
        };
        formats.push(Json::Obj(vec![
            ("format".to_string(), Json::Str(tag.to_string())),
            ("median_ns".to_string(), median.map(Json::Float).unwrap_or(Json::Null)),
            ("rows_per_second".to_string(), rows_per_second),
        ]));
    }
    Json::Obj(vec![
        ("rows".to_string(), Json::Int(rows as i128)),
        ("formats".to_string(), Json::Arr(formats)),
    ])
}

/// Summarizes the kernel-path comparison: reference vs blocked median
/// wall-clock on the single-thread conv-dominated forward pass, and
/// the resulting speedup multiple.
fn kernel_speedup(results: &[BenchResult]) -> Json {
    let median = |path: KernelPath| {
        results
            .iter()
            .find(|r| r.name == format!("{KERNEL}/{path}"))
            .map(|r| r.median_ns)
    };
    let reference = median(KernelPath::Reference);
    let blocked = median(KernelPath::Blocked);
    let speedup = match (reference, blocked) {
        (Some(r), Some(b)) if b > 0.0 => Json::Float(r / b),
        _ => Json::Null,
    };
    Json::Obj(vec![
        ("reference_median_ns".to_string(), reference.map(Json::Float).unwrap_or(Json::Null)),
        ("blocked_median_ns".to_string(), blocked.map(Json::Float).unwrap_or(Json::Null)),
        ("blocked_speedup_vs_reference".to_string(), speedup),
        ("simd_available".to_string(), Json::Bool(gemm::simd_available())),
    ])
}

/// Derives per-thread-count speedups from the harness results and
/// writes them to `$ALFI_BENCH_SPEEDUP_JSON` or
/// `target/alfi-bench/parallel_scaling_speedup.json`.
fn write_speedup_report(results: &[BenchResult]) {
    let baseline = results.iter().find(|r| r.name == SEQUENTIAL).map(|r| r.median_ns);
    let mut points = Vec::new();
    for r in results {
        let Some(threads) = r.name.strip_prefix(PARALLEL).and_then(|s| s.strip_prefix('/'))
        else {
            continue;
        };
        let threads: i128 = threads.parse().unwrap_or(0);
        let speedup = match baseline {
            Some(seq) if r.median_ns > 0.0 => Json::Float(seq / r.median_ns),
            _ => Json::Null,
        };
        points.push(Json::Obj(vec![
            ("threads".to_string(), Json::Int(threads)),
            ("median_ns".to_string(), Json::Float(r.median_ns)),
            ("speedup_vs_sequential".to_string(), speedup),
        ]));
    }
    let hw_threads =
        std::thread::available_parallelism().map(|n| n.get() as i128).unwrap_or(1);
    let pool_env = match std::env::var(alfi_pool::POOL_THREADS_ENV) {
        Ok(v) => Json::Str(v),
        Err(_) => Json::Null,
    };
    let report = Json::Obj(vec![
        ("bench".to_string(), Json::Str("parallel_scaling".to_string())),
        (
            "baseline_sequential_median_ns".to_string(),
            baseline.map(Json::Float).unwrap_or(Json::Null),
        ),
        ("hardware_threads".to_string(), Json::Int(hw_threads)),
        (alfi_pool::POOL_THREADS_ENV.to_string(), pool_env),
        ("points".to_string(), Json::Arr(points)),
        ("kernel_speedup".to_string(), kernel_speedup(results)),
        ("traced_phase_breakdown".to_string(), phase_breakdown()),
        ("metrics_snapshot".to_string(), metrics_snapshot()),
        ("early_stop_efficiency".to_string(), early_stop_efficiency()),
        ("artifact_size".to_string(), artifact_size()),
        ("report_generation".to_string(), report_generation_summary(results)),
    ]);

    let path = std::env::var_os("ALFI_BENCH_SPEEDUP_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::PathBuf::from("target")
                .join("alfi-bench")
                .join("parallel_scaling_speedup.json")
        });
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, report.pretty()) {
        Ok(()) => eprintln!("[bench] speedup report written to {}", path.display()),
        Err(e) => eprintln!("[bench] could not write speedup report to {}: {e}", path.display()),
    }
}

fn main() {
    let mut harness = Harness::new();
    bench_scaling(&mut harness);
    bench_kernel_paths(&mut harness);
    bench_report_generation(&mut harness);
    harness.report();
    write_speedup_report(harness.results());
}
