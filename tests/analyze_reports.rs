//! Determinism and golden lockdown of the `alfi-analyze` reports.
//!
//! The analyzer's contract is that a report is a pure function of a
//! run's deterministic artifacts: byte-identical whether the campaign
//! ran on 1, 2, 4 or 7 pool threads, and identical whether the rows
//! were persisted as CSV or as the columnar binary store. This test
//! runs real classification and ViT campaigns across that whole matrix
//! and compares the rendered `report.json` bytes, pins the report over
//! the checked-in `tests/golden/classification` run as a golden, checks
//! the Chrome-trace export against the trace-event schema, and runs the
//! `alfi` binary's report step: `classify --report` and the scenario's
//! `report` key, which `detect` rejects.
//!
//! To bless a new golden report after an intentional format change:
//!
//! ```text
//! ALFI_REGEN_GOLDEN=1 cargo test --test analyze_reports
//! ```

use alfi::analyze::diff::diff_reports;
use alfi::analyze::report::analyze_dir;
use alfi::analyze::trace_export;
use alfi::analyze::{AnalyzeError, REPORT_JSON, REPORT_MD};
use alfi::core::campaign::{ImgClassCampaign, RunConfig, VitCampaign};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::nn::models::{alexnet, ModelConfig};
use alfi::scenario::{ArtifactFormat, FaultMode, InjectionTarget, Scenario, StopPolicy};
use alfi::serde::Json;
use alfi::trace::Recorder;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn scenario(dataset_size: usize, seed: u64) -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = dataset_size;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = seed;
    s
}

fn model_config() -> ModelConfig {
    ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 7, ..ModelConfig::default() }
}

fn loader(s: &Scenario) -> ClassificationLoader {
    let mcfg = model_config();
    let ds = ClassificationDataset::new(s.dataset_size, mcfg.num_classes, 3, 16, 13);
    ClassificationLoader::new(ds, s.batch_size)
}

/// Runs a campaign into a fresh temp dir and returns the rendered
/// report bytes (JSON + Markdown). `vit` switches the model family.
fn run_and_report(
    format: ArtifactFormat,
    threads: usize,
    vit: bool,
    tag: &str,
) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("alfi_it_analyze_{tag}_{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    let s = scenario(4, 0x601D);
    let cfg = RunConfig::new()
        .threads(threads)
        .recorder(Recorder::new())
        .save_dir(&dir)
        .format(format);
    if vit {
        VitCampaign::tiny(&model_config(), s.clone(), loader(&s)).run_with(&cfg).unwrap();
    } else {
        ImgClassCampaign::new(alexnet(&model_config()), s.clone(), loader(&s))
            .run_with(&cfg)
            .unwrap();
    }
    let report = analyze_dir(&dir).unwrap();
    let out = (report.to_json_string(), report.to_markdown());
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Reports must be byte-identical across 1/2/4/7 pool threads AND
/// across the CSV and binary row formats, for both model families.
#[test]
fn reports_are_byte_identical_across_threads_and_formats() {
    for vit in [false, true] {
        let family = if vit { "vit" } else { "cls" };
        let baseline = run_and_report(ArtifactFormat::Csv, 1, vit, &format!("{family}_csv"));
        assert!(baseline.0.contains("\"rows\": 4"), "{}", baseline.0);
        for threads in [1usize, 2, 4, 7] {
            let bin =
                run_and_report(ArtifactFormat::Binary, threads, vit, &format!("{family}_bin"));
            assert_eq!(
                baseline.0, bin.0,
                "{family}: report.json from the {threads}-thread binary run diverges from the 1-thread csv run"
            );
            assert_eq!(
                baseline.1, bin.1,
                "{family}: report.md from the {threads}-thread binary run diverges"
            );
        }
    }
}

/// The report over the checked-in `tests/golden/classification` run is
/// fully input-pinned, so its JSON bytes are a golden artifact.
#[test]
fn golden_classification_report_is_pinned() {
    let report = analyze_dir(golden_dir().join("classification")).unwrap();
    let actual = report.to_json_string();
    let path = golden_dir().join("analyze").join("report.json");
    if std::env::var_os("ALFI_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("[golden] regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden report {} ({e}); run ALFI_REGEN_GOLDEN=1 cargo test --test analyze_reports",
            path.display()
        )
    });
    assert_eq!(actual, expected, "report.json over the pinned classification run changed");
}

/// The Chrome-trace export of the pinned trace golden must satisfy the
/// trace-event schema — a top-level `traceEvents` array whose records
/// all carry `name`/`ph`/`pid`/`tid`, with complete (`X`) events
/// carrying integer `ts`/`dur` — and every timestamp must be a replay
/// ordinal (multiple of the tick), never wall clock.
#[test]
fn trace_export_is_valid_ordinal_chrome_trace() {
    let (json, self_time) = trace_export::export_dir(golden_dir().join("trace")).unwrap();
    let parsed = Json::parse(&json).expect("export must be valid JSON");
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "{json}"
    );
    let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty());
    let mut injections = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("every event has ph");
        assert!(matches!(ph, "M" | "X" | "i"), "unexpected phase {ph}");
        assert!(ev.get("pid").and_then(Json::as_int).is_some(), "every event has pid");
        assert!(ev.get("tid").and_then(Json::as_int).is_some(), "every event has tid");
        assert!(ev.get("name").and_then(Json::as_str).is_some(), "every event has name");
        if ph == "X" {
            injections += 1;
            let ts = ev.get("ts").and_then(Json::as_int).expect("complete events have ts");
            assert_eq!(ts % trace_export::TICK_US, 0, "ts {ts} is not a replay ordinal");
            assert_eq!(ev.get("dur").and_then(Json::as_int), Some(trace_export::TICK_US));
        }
    }
    assert!(injections > 0, "the pinned trace has injections");
    assert!(!json.contains("threads"), "the header threads field must not leak");
    assert!(self_time.contains("lane"), "{self_time}");
    // Deterministic: exporting again yields the same bytes.
    let (again, _) = trace_export::export_dir(golden_dir().join("trace")).unwrap();
    assert_eq!(json, again);
}

/// Diffing a run against itself is all-insignificant; diffing two runs
/// with different seeds still renders, and the JSON view parses.
#[test]
fn diff_runs_end_to_end() {
    let dir_a = std::env::temp_dir().join("alfi_it_analyze_diff_a");
    let dir_b = std::env::temp_dir().join("alfi_it_analyze_diff_b");
    for (dir, seed) in [(&dir_a, 0x601Du64), (&dir_b, 0xBEEF)] {
        let _ = std::fs::remove_dir_all(dir);
        let s = scenario(4, seed);
        let cfg = RunConfig::new().save_dir(dir).format(ArtifactFormat::Binary);
        ImgClassCampaign::new(alexnet(&model_config()), s.clone(), loader(&s))
            .run_with(&cfg)
            .unwrap();
    }
    let a = analyze_dir(&dir_a).unwrap();
    let b = analyze_dir(&dir_b).unwrap();

    let self_diff = diff_reports(&a, &a);
    assert_eq!(self_diff.overall.sdc_delta, 0.0);
    assert!(!self_diff.overall.sdc_significant && !self_diff.overall.due_significant);

    let cross = diff_reports(&a, &b);
    let json = Json::parse(&cross.to_json_string()).unwrap();
    assert!(json.get("overall").is_some() && json.get("layers").is_some());
    assert!(cross.to_markdown().contains("overall"));
    // 4-image runs can never separate 95% intervals.
    assert!(!cross.overall.sdc_significant, "tiny runs must not flag significance");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Runs the `alfi` binary with `args`, failing the test if it cannot
/// start.
fn alfi(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_alfi")).args(args).output().unwrap()
}

/// A fresh temporary directory holding `scenario` as `scenario.yml`;
/// returns the directory and the scenario file's path.
fn cli_dir(tag: &str, scenario: &Scenario) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("alfi_it_analyze_cli_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.yml");
    std::fs::write(&path, scenario.to_yaml_string()).unwrap();
    (dir, path.to_str().unwrap().to_string())
}

/// `alfi classify` on a small alexnet into `out`, plus `extra` flags.
fn classify(scenario: &str, out: &Path, extra: &[&str]) -> std::process::Output {
    let out = out.to_str().unwrap();
    let base = ["classify", "--scenario", scenario, "--model", "alexnet", "--out", out];
    let small = ["--width", "0.0625", "--input", "16"];
    alfi(&[&base[..], &small, extra].concat())
}

/// `alfi classify --report` (binary store, traced, early stop) writes
/// `report.json` and `report.md` once the run has finished, byte-equal
/// to `alfi analyze report` over the same directory.
#[test]
fn classify_report_equals_analyze_report_over_the_run() {
    let mut s = scenario(4, 0x601D);
    // Exercise the stop-precision section of the report.
    s.stop_policy = Some(StopPolicy { half_width: 0.45, ..StopPolicy::default() });
    let (dir, scenario) = cli_dir("report", &s);
    let run = dir.join("run");
    let flags = ["--format", "binary", "--trace", "on", "--report"];
    let out = classify(&scenario, &run, &flags);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(run.join(REPORT_JSON)).unwrap();
    let stop = Json::parse(&written).unwrap().get("stop").is_some();
    assert!(stop, "stop-policy runs report achieved precision");

    let again = dir.join("again");
    let out = alfi(&["analyze", "report", run.to_str().unwrap(), "--out", again.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for file in [REPORT_JSON, REPORT_MD] {
        let read = |dir: &Path| std::fs::read(dir.join(file)).unwrap();
        assert!(read(&run) == read(&again), "{file} differs from `analyze report`'s");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `--parallel`, `classify` runs at the pool width and records
/// it in the `events.jsonl` header; the rows equal a `--parallel 1`
/// run's.
#[test]
fn classify_defaults_to_the_pool_width() {
    let (dir, scenario) = cli_dir("threads", &scenario(4, 0x601D));
    let run = |name: &str, extra: &[&str]| {
        let out_dir = dir.join(name);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_alfi"))
            .args(["classify", "--scenario", &scenario, "--model", "alexnet", "--width", "0.0625"])
            .args(["--input", "16", "--trace", "on", "--out", out_dir.to_str().unwrap()])
            .args(extra)
            .env("ALFI_POOL_THREADS", "3")
            .output()
            .unwrap();
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        let events = std::fs::read_to_string(out_dir.join("events.jsonl")).unwrap();
        let header = Json::parse(events.lines().next().unwrap()).unwrap();
        let threads = header.get("threads").and_then(Json::as_int);
        (threads, std::fs::read(out_dir.join("results_corr.csv")).unwrap())
    };
    let (pool, pool_rows) = run("pool", &[]);
    let (one, one_rows) = run("one", &["--parallel", "1"]);
    assert_eq!((pool, one), (Some(3), Some(1)));
    assert!(pool_rows == one_rows, "the rows depend on the thread count");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scenario's `report: true` asks `classify` for a report, and
/// `--report off` overrides it.
#[test]
fn report_opt_out_overrides_the_scenario() {
    let mut s = scenario(4, 0x601D);
    s.report = Some(true);
    let (dir, scenario) = cli_dir("optout", &s);
    for (flags, writes) in [(&[][..], true), (&["--report", "off"][..], false)] {
        let run = dir.join(format!("run_{writes}"));
        let out = classify(&scenario, &run, flags);
        assert!(out.status.success(), "{flags:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(run.join(REPORT_JSON).exists(), writes, "{flags:?}");
        assert_eq!(run.join(REPORT_MD).exists(), writes, "{flags:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reports cover classification runs only: `detect --report`, and a
/// detect scenario with `report: true`, fail before the run writes
/// anything.
#[test]
fn detect_rejects_a_report_before_the_run() {
    let mut s = scenario(2, 0x601D);
    let (dir, plain) = cli_dir("detect", &s);
    s.report = Some(true);
    let keyed = dir.join("keyed.yml");
    std::fs::write(&keyed, s.to_yaml_string()).unwrap();
    let keyed = keyed.to_str().unwrap();
    let run = dir.join("run");
    let out_dir = run.to_str().unwrap();
    let cases = [(&plain[..], &["--report"][..], "--report"), (keyed, &[][..], "`report: true`")];
    for (scenario, extra, says) in cases {
        let args = ["detect", "--scenario", scenario, "--model", "yolo", "--out", out_dir];
        let out = alfi(&[&args[..], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{says}: {stderr}");
        assert!(stderr.contains(says), "{says}: {stderr}");
        assert!(!run.exists(), "{says}: the run started");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the lines of one CSV file.
type Edit = fn(&mut Vec<String>);

/// Copies the pinned classification run's CSV pair into a fresh
/// directory, rewriting the lines of `file` with `edit`.
fn golden_copy(tag: &str, file: &str, edit: Edit) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alfi_it_analyze_malformed_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["results_orig.csv", "results_corr.csv"] {
        std::fs::copy(golden_dir().join("classification").join(name), dir.join(name)).unwrap();
    }
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    edit(&mut lines);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    dir
}

/// Replaces cell `col` of 1-based file line `line`.
fn set_cell(lines: &mut [String], line: usize, col: usize, value: &str) {
    let mut cells: Vec<&str> = lines[line - 1].split(',').collect();
    cells[col] = value;
    lines[line - 1] = cells.join(",");
}

/// A malformed cell, a short row or a misaligned orig/corr pair is a
/// parse error naming the file and its line, never a defaulted value.
/// Columns: 0 image_id, 3/4 top1/top1_p, 5 top2, 12 top5_p,
/// 13 fault_layers, 18 fault_bits, 19/20 nan/inf counts.
#[test]
fn malformed_csv_rows_are_parse_errors_naming_file_and_line() {
    let cases: [(&str, &str, usize, Edit, &str); 9] = [
        ("layer", "results_corr.csv", 2, |l| set_cell(l, 2, 13, "six"), "bad fault layer `six`"),
        ("bit", "results_corr.csv", 3, |l| set_cell(l, 3, 18, "3x"), "bad fault bit `3x`"),
        ("nan", "results_corr.csv", 4, |l| set_cell(l, 4, 19, "7e"), "bad count `7e`"),
        ("inf", "results_corr.csv", 5, |l| set_cell(l, 5, 20, ""), "bad count ``"),
        (
            "short",
            "results_corr.csv",
            5,
            |l| l[4] = l[4].split(',').take(15).collect::<Vec<_>>().join(","),
            "expected 21 columns, got 15",
        ),
        ("class", "results_orig.csv", 2, |l| set_cell(l, 2, 5, "x"), "bad top-k class `x`"),
        ("prob", "results_corr.csv", 3, |l| set_cell(l, 3, 12, "0.5.1"), "probability `0.5.1`"),
        ("top1", "results_corr.csv", 4, |l| set_cell(l, 4, 4, ""), "bad top-k probability ``"),
        ("id", "results_corr.csv", 3, |l| set_cell(l, 3, 0, "9"), "image_id 9 does not match"),
    ];
    for (tag, file, line, edit, expected) in cases {
        let dir = golden_copy(tag, file, edit);
        match analyze_dir(&dir) {
            Err(AnalyzeError::Parse(msg)) => {
                assert!(msg.contains(&format!("{file}:{line}: ")), "{tag}: {msg}");
                assert!(msg.contains(expected), "{tag}: {msg}");
            }
            other => panic!("{tag}: expected a parse error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Truncating either CSV of the pinned run at any byte, or flipping any
/// bit of it, makes `analyze_dir` return `Ok` or `Err`, never panic.
#[test]
fn damaged_golden_csv_pair_never_panics() {
    let golden = golden_dir().join("classification");
    let pair = [
        std::fs::read(golden.join("results_orig.csv")).unwrap(),
        std::fs::read(golden.join("results_corr.csv")).unwrap(),
    ];
    let dir = std::env::temp_dir().join("alfi_it_analyze_damaged");
    alfi_check::check_with(64, "damaged_golden_csv_pair_never_panics", |rng| {
        let mut files = pair.clone();
        let victim = &mut files[rng.gen_range(0usize..2)];
        let at = rng.gen_range(0..victim.len());
        if alfi_check::gen::any_bool(rng) {
            victim.truncate(at);
        } else {
            victim[at] ^= 1 << rng.gen_range(0u8..8);
        }
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("results_orig.csv"), &files[0]).unwrap();
        std::fs::write(dir.join("results_corr.csv"), &files[1]).unwrap();
        let _ = analyze_dir(&dir);
    });
    let _ = std::fs::remove_dir_all(&dir);
}
