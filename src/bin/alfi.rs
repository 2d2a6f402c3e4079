//! `alfi` — command-line front end for fault-injection campaigns.
//!
//! Mirrors how PyTorchALFI slots into a development cycle: point the tool
//! at a scenario file, pick a model, and get the three output sets
//! (scenario meta, binary fault/trace files, CSV/JSON results) plus KPIs
//! on stdout.
//!
//! ```text
//! alfi gen-scenario --out default.yml
//! alfi classify --scenario default.yml --model vgg16 --out runs/c1 [--protect ranger] [--parallel 4] [--trace on]
//! alfi classify --scenario scenarios/vit.yml --model vit --out runs/v1 [--format binary]
//! alfi detect   --scenario default.yml --model yolo  --out runs/d1 [--parallel 2] [--trace on]
//! alfi inspect-faults runs/c1/faults.bin
//! alfi store info runs/c1/rows.alfic
//! alfi store lookup runs/c1/rows.alfic 17
//! alfi store convert runs/c1/rows.alfic --out runs/c1
//! alfi analyze report runs/c1
//! alfi analyze diff runs/c1 runs/c2
//! alfi analyze export-trace runs/c1
//! ```

use alfi::analyze::kpi::hardened_corruption_rate;
use alfi::analyze::report::{analyze_dir, analyze_result, write_report_files};
use alfi::analyze::RateBlock;
use alfi::core::campaign::{ImgClassCampaign, ObjDetCampaign, RunConfig, VitCampaign};
use alfi::core::stats::Rate;
use alfi::core::{load_fault_matrix, store_to_files, text_to_store, FaultValue, ReplayReader};
use alfi::trace::Recorder;
use alfi::datasets::{ClassificationDataset, ClassificationLoader, DetectionDataset, DetectionLoader};
use alfi::eval::write_detection_outputs;
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::detection::{Detector, DetectorConfig, FrcnnTwoStage, RetinaAnchor, YoloGrid};
use alfi::nn::models::{
    alexnet, densenet_tiny, resnet50, vgg16, vit_tiny, ModelConfig, VIT_TINY_DEPTH, VIT_TINY_HEADS,
};
use alfi::nn::train::{accuracy, train_step, SgdTrainer};
use alfi::nn::weights::{load_weights, save_weights};
use alfi::nn::Network;
use alfi::scenario::{ArtifactFormat, CiMethod, Scenario, StopPolicy, StopScope};
use alfi::store::{ColumnStats, ColumnType, Value};
use alfi::tensor::Tensor;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "\
alfi — application-level fault injection for neural networks

USAGE:
  alfi gen-scenario --out <file>
  alfi train    --model <alexnet|vgg16|resnet50|densenet> --out <weights.alfiw>
                [--epochs <n>] [--images <n>] [--lr <f>]
                [--width <mult>] [--input <px>] [--seed <n>]
  alfi classify --scenario <file> --model <alexnet|vgg16|resnet50|densenet|vit> --out <dir>
                [--weights <weights.alfiw>]
                [--protect <ranger|clipper>] [--parallel <threads>]
                [--trace <on|off>] [--metrics-addr <ip:port>] [--strict-health]
                [--stop-halfwidth <f>] [--stop-confidence <f>]
                [--stop-scope <campaign|per-layer>] [--stop-method <wilson|clopper-pearson>]
                [--format <csv|binary>] [--report [on|off]]
                [--width <mult>] [--input <px>] [--seed <n>]
  alfi detect   --scenario <file> --model <yolo|retina|frcnn> --out <dir>
                [--parallel <threads>]
                [--trace <on|off>] [--metrics-addr <ip:port>] [--strict-health]
                [--stop-halfwidth <f>] [--stop-confidence <f>]
                [--stop-scope <campaign|per-layer>] [--stop-method <wilson|clopper-pearson>]
                [--format <csv|binary>]
                [--width <mult>] [--input <px>] [--seed <n>]
  alfi inspect-faults <faults.bin>
  alfi store info    <rows.alfic>
  alfi store lookup  <rows.alfic> <fault-id>
  alfi store convert <file> [--out <dir>]
  alfi analyze report       <run-dir> [--out <dir>]
  alfi analyze diff         <run-dir-a> <run-dir-b> [--out <dir>]
  alfi analyze export-trace <run-dir> [--out <dir>]

Live monitoring: --metrics-addr serves Prometheus text at GET /metrics
for the life of the process (set ALFI_METRICS_LINGER_MS to keep it up
after the run, e.g. for a scraper). --strict-health runs the campaign
health watchdog with its default policy, whose one alarm is a stall (no
fault scope finished for 30 s), and exits nonzero if it fired.

Adaptive campaigns: --stop-halfwidth ±h arms statistical early stopping
— the run ends (or, with --stop-scope per-layer, individual layer
strata retire) once the SDC/DUE rate confidence interval is tighter
than ±h at the requested confidence (default 0.95). Decisions land in
the trace summary and events.jsonl; they override any stop_policy key
in the scenario file.

Kernel paths: the ALFI_KERNEL env var (reference|blocked) selects the
GEMM and GELU kernels (blocked = cache-blocked packed SIMD GEMM and the
AVX2 fdlibm tanhf port, the default; reference = the sequential oracle
and libm). Both produce bit-identical results; ALFI_KERNEL_PORTABLE=1
disables the SIMD kernels. Any other value of either variable is an
error.

Result store: --format binary writes per-image rows to a columnar
binary store (rows.alfic) instead of CSV; `alfi store convert` turns a
store back into the exact CSV/JSON text artifacts (or any text file
into a store), `alfi store lookup` replays the rows of one fault id
reading at most one block plus the index, and `alfi store info`
prints schema, per-column encodings and block min/max footer stats.

Each command rejects a flag it does not read, with its usage lines.

Post-run analysis: `alfi analyze report` streams a finished run's row
artifacts (CSV or binary store) into a per-layer × per-bit × per-mode
vulnerability report with confidence intervals (report.json +
report.md); `alfi analyze diff` compares two runs, flagging a delta
significant only when the intervals separate; `alfi analyze
export-trace` converts events.jsonl into Chrome-trace/Perfetto JSON
with deterministic replay-ordinal timestamps. Passing --report to
classify runs `analyze report` over its output directory once the run
has finished (scenario key `report: true` does the same; --report off
overrides the key). Reports cover classification runs only: detect
rejects --report and a scenario with `report: true`.
";

/// The flags `classify` and `detect` both read.
const CAMPAIGN_FLAGS: &[&str] = &[
    "scenario",
    "model",
    "out",
    "parallel",
    "trace",
    "metrics-addr",
    "strict-health",
    "stop-halfwidth",
    "stop-confidence",
    "stop-scope",
    "stop-method",
    "format",
    "width",
    "input",
    "seed",
];

/// Minimal flag parser: `--key value` pairs plus positional arguments.
/// A flag followed by another flag (or by nothing) is a boolean switch
/// and gets the value `on` — e.g. `--strict-health`.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses the arguments of command `cmd` (e.g. `detect` or `store
    /// info`), which reads the flags in `known` and no other.
    ///
    /// # Errors
    ///
    /// A flag outside `known`, reported with `cmd`'s usage lines.
    fn parse(argv: &[String], cmd: &str, known: &[&str]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if !known.contains(&key) {
                    return Err(format!("`{cmd}` has no flag --{key}\n\nusage:\n{}", usage_of(cmd)));
                }
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                    _ => "on".to_string(),
                };
                flags.insert(key.to_string(), value);
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.flags.get(key).map(String::as_str).unwrap_or(default)
    }
}

/// The usage lines of command `cmd` in [`USAGE`]: its own line and the
/// option lines indented under it.
fn usage_of(cmd: &str) -> String {
    let head = format!("  alfi {cmd} ");
    let mut lines = USAGE.lines().skip_while(|l| !l.starts_with(&head));
    let first = lines.next().into_iter();
    let options = lines.take_while(|l| l.trim_start().starts_with('[') && l.starts_with("    "));
    first.chain(options).map(|l| format!("{l}\n")).collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if let Err(e) = alfi::tensor::gemm::check_kernel_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let result = match command.as_str() {
        "gen-scenario" => cmd_gen_scenario(&argv[1..]),
        "train" => cmd_train(&argv[1..]),
        "classify" => cmd_classify(&argv[1..]),
        "detect" => cmd_detect(&argv[1..]),
        "inspect-faults" => cmd_inspect(&argv[1..]),
        "store" => cmd_store(&argv[1..]),
        "analyze" => cmd_analyze(&argv[1..]),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the campaign recorder from `--trace <on|off>` (default off).
/// `on` enables span timings, counters, the live progress line and the
/// `events.jsonl` log in the output directory.
fn trace_recorder(args: &Args) -> Result<Recorder, String> {
    match args.get_or("trace", "off") {
        "on" => Ok(Recorder::new().with_progress(true)),
        "off" => Ok(Recorder::disabled()),
        other => Err(format!("bad --trace value `{other}` (expected on|off)")),
    }
}

/// Prints the end-of-run trace summary for an enabled recorder.
fn print_trace_summary(recorder: &Recorder) {
    if recorder.is_enabled() {
        print!("{}", recorder.summary().render());
    }
}

/// Applies the shared live-monitoring flags (`--metrics-addr`,
/// `--strict-health`) to a run configuration. `--strict-health` arms
/// the default health watchdog; its post-run exit check happens in
/// [`check_strict_health`].
fn monitoring_config(cfg: RunConfig, args: &Args) -> Result<RunConfig, String> {
    let mut cfg = cfg;
    if let Some(addr) = args.flags.get("metrics-addr") {
        cfg = cfg.metrics_addr(addr);
    }
    match args.get_or("strict-health", "off") {
        "on" => cfg = cfg.health(alfi::metrics::HealthPolicy::default()),
        "off" => {}
        other => return Err(format!("bad --strict-health value `{other}` (expected on|off)")),
    }
    Ok(cfg)
}

/// Applies the `--format <csv|binary>` flag: selects the row-artifact
/// format for the campaign. `csv` (the default) writes the classic
/// `results_*.csv` set; `binary` writes the columnar `rows.alfic`
/// store instead (convert back with `alfi store convert`). Without
/// the flag any `format:` key in the scenario file applies.
fn format_config(cfg: RunConfig, args: &Args) -> Result<RunConfig, String> {
    match args.flags.get("format") {
        None => Ok(cfg),
        Some(v) => {
            let format: ArtifactFormat = v
                .parse()
                .map_err(|_| format!("bad --format value `{v}` (expected csv|binary)"))?;
            Ok(cfg.format(format))
        }
    }
}

/// Whether `classify` writes `report.json` / `report.md` into its
/// output directory after the run: the `--report <on|off>` flag (bare
/// `--report` means `on`), else the scenario's `report:` key, else off.
fn report_requested(args: &Args, scenario: &Scenario) -> Result<bool, String> {
    match args.flags.get("report").map(String::as_str) {
        None => Ok(scenario.report.unwrap_or(false)),
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => Err(format!("bad --report value `{other}` (expected on|off)")),
    }
}

/// Applies the shared early-stop flags. `--stop-halfwidth` arms the
/// policy; the other three refine it and are rejected without it so a
/// typo can't silently run the full matrix. An armed CLI policy
/// overrides any `stop_policy` key in the scenario file.
fn stop_config(cfg: RunConfig, args: &Args) -> Result<RunConfig, String> {
    let half_width = args.flags.get("stop-halfwidth");
    let refinements = ["stop-confidence", "stop-scope", "stop-method"];
    if half_width.is_none() {
        if let Some(orphan) = refinements.iter().find(|k| args.flags.contains_key(**k)) {
            return Err(format!("--{orphan} requires --stop-halfwidth"));
        }
        return Ok(cfg);
    }
    let mut policy = StopPolicy {
        half_width: half_width
            .unwrap()
            .parse()
            .map_err(|_| "bad --stop-halfwidth value".to_string())?,
        ..StopPolicy::default()
    };
    if let Some(c) = args.flags.get("stop-confidence") {
        policy.confidence = c.parse().map_err(|_| "bad --stop-confidence value".to_string())?;
    }
    if let Some(s) = args.flags.get("stop-scope") {
        policy.scope = match s.as_str() {
            "campaign" => StopScope::Campaign,
            "per-layer" => StopScope::PerLayer,
            other => return Err(format!("bad --stop-scope `{other}` (campaign|per-layer)")),
        };
    }
    if let Some(m) = args.flags.get("stop-method") {
        policy.method = match m.as_str() {
            "wilson" => CiMethod::Wilson,
            "clopper-pearson" | "cp" => CiMethod::ClopperPearson,
            other => return Err(format!("bad --stop-method `{other}` (wilson|clopper-pearson)")),
        };
    }
    policy.validate().map_err(|e| e.to_string())?;
    println!(
        "early stop armed: ±{} @ {:.0}% confidence ({}, {})",
        policy.half_width,
        policy.confidence * 100.0,
        policy.scope,
        policy.method
    );
    Ok(cfg.stop_policy(policy))
}

/// Keeps the process (and with it a `--metrics-addr` endpoint) alive
/// for `ALFI_METRICS_LINGER_MS` milliseconds after the run, so an
/// external scraper can read the final counters.
fn linger_for_scrape(args: &Args) {
    if !args.flags.contains_key("metrics-addr") {
        return;
    }
    if let Some(ms) = std::env::var("ALFI_METRICS_LINGER_MS").ok().and_then(|v| v.parse().ok()) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// The `--strict-health` exit gate: fails the process when any health
/// alarm fired during the run (the watchdog counts every event it
/// raises under `alfi_health_events_total`).
fn check_strict_health(args: &Args) -> Result<(), String> {
    if args.get_or("strict-health", "off") != "on" {
        return Ok(());
    }
    let events = alfi::metrics::global()
        .snapshot()
        .counter_sum(alfi::metrics::names::HEALTH_EVENTS);
    if events > 0 {
        return Err(format!("--strict-health: {events} health alarm(s) raised during the run"));
    }
    Ok(())
}

fn cmd_gen_scenario(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "gen-scenario", &["out"])?;
    let out = args.required("out")?;
    let text = format!(
        "# ALFI fault-injection scenario (see `alfi_scenario::Scenario` docs)\n{}",
        Scenario::default().to_yaml_string()
    );
    std::fs::write(out, text).map_err(|e| e.to_string())?;
    println!("wrote default scenario to {out}");
    Ok(())
}

fn model_config(args: &Args) -> Result<ModelConfig, String> {
    Ok(ModelConfig {
        input_hw: args.get_or("input", "32").parse().map_err(|_| "bad --input".to_string())?,
        width_mult: args.get_or("width", "0.125").parse().map_err(|_| "bad --width".to_string())?,
        seed: args.get_or("seed", "0").parse().map_err(|_| "bad --seed".to_string())?,
        ..ModelConfig::default()
    })
}

fn build_model(name: &str, mcfg: &ModelConfig) -> Result<Network, String> {
    Ok(match name {
        "alexnet" => alexnet(mcfg),
        "vgg16" => vgg16(mcfg),
        "resnet50" => resnet50(mcfg),
        "densenet" => densenet_tiny(mcfg),
        "vit" => vit_tiny(mcfg),
        other => return Err(format!("unknown classifier `{other}`")),
    })
}

fn cmd_train(argv: &[String]) -> Result<(), String> {
    let known = ["out", "model", "epochs", "images", "lr", "width", "input", "seed"];
    let args = Args::parse(argv, "train", &known)?;
    let out = args.required("out")?.to_string();
    let mcfg = model_config(&args)?;
    let epochs: u64 = args.get_or("epochs", "6").parse().map_err(|_| "bad --epochs".to_string())?;
    let images: usize =
        args.get_or("images", "160").parse().map_err(|_| "bad --images".to_string())?;
    let lr: f32 = args.get_or("lr", "0.05").parse().map_err(|_| "bad --lr".to_string())?;
    let mut model = build_model(args.required("model")?, &mcfg)?;

    let train_ds =
        ClassificationDataset::new(images, mcfg.num_classes, mcfg.in_channels, mcfg.input_hw, 1);
    let test_ds = ClassificationDataset::new(
        (images / 4).max(8),
        mcfg.num_classes,
        mcfg.in_channels,
        mcfg.input_hw,
        2,
    );
    let loader = ClassificationLoader::new(train_ds, 16).with_shuffle(true);
    let mut trainer = SgdTrainer::new(lr, 0.9);
    for epoch in 0..epochs {
        let mut loss = 0.0f32;
        let mut batches = 0usize;
        for batch in loader.iter_epoch(epoch) {
            loss += train_step(&mut model, &mut trainer, &batch.images, &batch.labels)
                .map_err(|e| e.to_string())?;
            batches += 1;
        }
        let mut acc = 0.0f64;
        for i in 0..test_ds.len() {
            let s = test_ds.get(i);
            let x = Tensor::stack(&[s.image]).map_err(|e| e.to_string())?;
            acc += accuracy(&model, &x, &[s.label]).map_err(|e| e.to_string())?;
        }
        println!(
            "epoch {epoch}: loss {:.4}, test accuracy {:.1}%",
            loss / batches.max(1) as f32,
            100.0 * acc / test_ds.len() as f64
        );
    }
    save_weights(&model, &out).map_err(|e| e.to_string())?;
    println!("checkpoint written to {out}");
    Ok(())
}

fn cmd_classify(argv: &[String]) -> Result<(), String> {
    let known = [CAMPAIGN_FLAGS, &["weights", "protect", "report"]].concat();
    let args = Args::parse(argv, "classify", &known)?;
    let scenario = Scenario::load(args.required("scenario")?).map_err(|e| e.to_string())?;
    let write_report = report_requested(&args, &scenario)?;
    let out_dir = args.required("out")?.to_string();
    let mcfg = model_config(&args)?;
    let model_name = args.required("model")?.to_string();
    let mut model = build_model(&model_name, &mcfg)?;
    if let Some(w) = args.flags.get("weights") {
        load_weights(&mut model, w).map_err(|e| e.to_string())?;
        println!("loaded checkpoint {w}");
    }
    let model = model;
    let ds = ClassificationDataset::new(
        scenario.dataset_size,
        mcfg.num_classes,
        mcfg.in_channels,
        mcfg.input_hw,
        scenario.seed,
    );
    let loader = ClassificationLoader::new(ds.clone(), scenario.batch_size);

    let protect = args.flags.get("protect").map(|p| match p.as_str() {
        "ranger" => Ok(Protection::Ranger),
        "clipper" => Ok(Protection::Clipper),
        other => Err(format!("unknown protection `{other}`")),
    });
    let hardened = match protect {
        Some(p) => {
            let p = p?;
            let calib: Vec<Tensor> = (0..4.min(ds.len()))
                .map(|i| Tensor::stack(&[ds.get(i).image]).expect("stack"))
                .collect();
            let bounds = profile_bounds(&model, calib.iter()).map_err(|e| e.to_string())?;
            let h = harden(&model, &bounds, p, 0.1).map_err(|e| e.to_string())?;
            println!("protection: {p:?}");
            Some(h)
        }
        None => None,
    };

    let threads: usize =
        args.get_or("parallel", "1").parse().map_err(|_| "bad --parallel".to_string())?;
    let recorder = trace_recorder(&args)?;
    let cfg = monitoring_config(
        RunConfig::new().threads(threads).recorder(recorder.clone()).save_dir(&out_dir),
        &args,
    )?;
    let cfg = stop_config(cfg, &args)?;
    let cfg = format_config(cfg, &args)?;
    let result = if model_name == "vit" {
        let mut campaign =
            VitCampaign::new(model, VIT_TINY_DEPTH, VIT_TINY_HEADS, scenario, loader);
        if let Some(h) = hardened {
            campaign = campaign.with_resil_model(h);
        }
        campaign.run_with(&cfg)
    } else {
        let mut campaign = ImgClassCampaign::new(model, scenario, loader);
        if let Some(h) = hardened {
            campaign = campaign.with_resil_model(h);
        }
        campaign.run_with(&cfg)
    }
    .map_err(|e| e.to_string())?;
    if write_report {
        let report = analyze_dir(&out_dir).map_err(|e| format!("report: {e}"))?;
        write_report_files(&report, &out_dir).map_err(|e| format!("report: {e}"))?;
    }
    print_trace_summary(&recorder);

    let report = analyze_result(&result);
    let o = report.overall;
    println!("images: {}", result.rows.len());
    for (label, hits) in [("SDE:   ", o.sdc), ("DUE:   ", o.due), ("masked:", o.masked)] {
        println!("{label} {}", Rate::from_counts(hits as usize, o.samples as usize));
    }
    let resil = hardened_corruption_rate(&result.rows);
    if resil.total > 0 {
        println!("SDE (protected): {resil}");
    }
    println!("\nlayer-wise breakdown:");
    print!("{}", layer_table(&report.layers));
    println!("\noutputs written to {out_dir}");
    linger_for_scrape(&args);
    check_strict_health(&args)
}

/// Renders a report's per-layer rows as the aligned text table
/// `classify` prints. A row counts once per fault it carries.
fn layer_table(layers: &[(usize, RateBlock)]) -> String {
    let mut out = String::from("layer     n     sde     due  masked  sde_rate\n");
    for (layer, b) in layers {
        out.push_str(&format!(
            "{:<7} {:>4} {:>7} {:>7} {:>7}  {:>7.2}%\n",
            layer,
            b.samples,
            b.sdc,
            b.due,
            b.masked,
            b.sdc_rate.percent()
        ));
    }
    out
}

fn cmd_detect(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "detect", CAMPAIGN_FLAGS)?;
    let scenario = Scenario::load(args.required("scenario")?).map_err(|e| e.to_string())?;
    if scenario.report == Some(true) {
        return Err("scenario key `report: true`: reports cover classification runs only".into());
    }
    let out_dir = args.required("out")?.to_string();
    let dcfg = DetectorConfig {
        input_hw: args.get_or("input", "32").parse().map_err(|_| "bad --input".to_string())?,
        width_mult: args.get_or("width", "0.25").parse().map_err(|_| "bad --width".to_string())?,
        seed: args.get_or("seed", "0").parse().map_err(|_| "bad --seed".to_string())?,
        ..DetectorConfig::default()
    };
    let detector: Box<dyn Detector> = match args.required("model")? {
        "yolo" => Box::new(YoloGrid::new(&dcfg)),
        "retina" => Box::new(RetinaAnchor::new(&dcfg)),
        "frcnn" => Box::new(FrcnnTwoStage::new(&dcfg)),
        other => return Err(format!("unknown detector `{other}`")),
    };
    let ds = DetectionDataset::new(
        scenario.dataset_size,
        dcfg.num_classes,
        dcfg.in_channels,
        dcfg.input_hw,
        scenario.seed,
    );
    let ground_truth = ds.coco_ground_truth();
    let loader = DetectionLoader::new(ds, scenario.batch_size);
    let threads: usize =
        args.get_or("parallel", "1").parse().map_err(|_| "bad --parallel".to_string())?;
    let recorder = trace_recorder(&args)?;
    let cfg = monitoring_config(
        RunConfig::new().threads(threads).recorder(recorder.clone()).save_dir(&out_dir),
        &args,
    )?;
    let cfg = stop_config(cfg, &args)?;
    let cfg = format_config(cfg, &args)?;
    let result = ObjDetCampaign::new(detector.as_ref(), scenario, loader)
        .run_with(&cfg)
        .map_err(|e| e.to_string())?;
    print_trace_summary(&recorder);
    let summary = write_detection_outputs(&result, &ground_truth, dcfg.num_classes, 0.5, &out_dir)
        .map_err(|e| e.to_string())?;
    println!("model:      {}", summary.model);
    println!("images:     {}", result.rows.len());
    println!("IVMOD_SDE:  {}", summary.ivmod.ivmod_sde);
    println!("IVMOD_DUE:  {}", summary.ivmod.ivmod_due);
    println!("mAP@.50:    {:.4} (orig) vs {:.4} (corrupted)", summary.orig_coco.map_50, summary.corr_coco.map_50);
    println!("\noutputs written to {out_dir}");
    linger_for_scrape(&args);
    check_strict_health(&args)
}

fn cmd_inspect(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "inspect-faults", &[])?;
    let path = args.positional.first().ok_or("expected a faults.bin path")?;
    let matrix = load_fault_matrix(path).map_err(|e| e.to_string())?;
    println!(
        "fault matrix: {} faults, target {:?}, {} per image, {} slots",
        matrix.len(),
        matrix.target,
        matrix.faults_per_image,
        matrix.num_slots()
    );
    println!("\n{:<6} {:>6} {:>6} {:>8} {:>8} {:>7} {:>7} {:>10}", "#", "batch", "layer", "chan", "chan_in", "height", "width", "value");
    for (i, r) in matrix.records.iter().enumerate().take(50) {
        let value = match r.value {
            FaultValue::BitFlip(p) => format!("flip b{p}"),
            FaultValue::StuckAt { pos, high } => {
                format!("stuck{} b{pos}", if high { 1 } else { 0 })
            }
            FaultValue::Replace(v) => format!("={v:.3}"),
            FaultValue::QuantStep { bit, bits, .. } => format!("quant b{bit}/{bits}"),
        };
        println!(
            "{:<6} {:>6} {:>6} {:>8} {:>8} {:>7} {:>7} {:>10}",
            i,
            r.batch,
            r.layer,
            r.channel,
            r.channel_in,
            r.height,
            r.width,
            value
        );
        if let Some(d) = r.depth {
            println!("{:<6} depth {d}", "");
        }
    }
    if matrix.len() > 50 {
        println!("... ({} more)", matrix.len() - 50);
    }
    Ok(())
}

/// A `store` subcommand, run on its parsed arguments.
type Subcommand = fn(&Args) -> Result<(), String>;

fn cmd_store(argv: &[String]) -> Result<(), String> {
    let sub = argv
        .first()
        .map(String::as_str)
        .ok_or("expected a store subcommand (info|lookup|convert)")?;
    let (known, run): (&[&str], Subcommand) = match sub {
        "info" => (&[], store_info),
        "lookup" => (&[], store_lookup),
        "convert" => (&["out"], store_convert),
        other => return Err(format!("unknown store subcommand `{other}` (info|lookup|convert)")),
    };
    run(&Args::parse(&argv[1..], &format!("store {sub}"), known)?)
}

/// Renders one store cell the way the text artifacts would.
fn render_cell(value: &Value) -> String {
    match value {
        Value::U8(v) => format!("{v}"),
        Value::U32(v) => format!("{v}"),
        Value::U64(v) => format!("{v}"),
        Value::F32(v) => format!("{v}"),
        Value::Str(s) => s.clone(),
    }
}

/// Renders one side of a merged min/max footer stat in the column's own
/// value domain (floats from their bit pattern, integers as-is).
fn render_stat_bits(ty: ColumnType, bits: u64) -> String {
    match ty {
        ColumnType::F32 => format!("{}", f32::from_bits(bits as u32)),
        _ => format!("{bits}"),
    }
}

/// Merges the per-block min/max footers of one column across every
/// block. `None` when no block has a meaningful stat for the column
/// (string columns, all-NaN floats).
fn merge_column_stats(ty: ColumnType, per_block: &[Vec<ColumnStats>], col: usize) -> Option<(u64, u64)> {
    let cmp_key = |bits: u64| match ty {
        // Order floats by value, not bit pattern (negative floats have
        // larger bit patterns than positive ones).
        ColumnType::F32 => {
            let f = f32::from_bits(bits as u32);
            (if f < 0.0 { 0u8 } else { 1u8 }, if f < 0.0 { !bits } else { bits })
        }
        _ => (1u8, bits),
    };
    per_block
        .iter()
        .filter_map(|stats| stats.get(col))
        .filter(|s| s.present)
        .fold(None, |acc: Option<(u64, u64)>, s| {
            Some(match acc {
                None => (s.min_bits, s.max_bits),
                Some((min, max)) => (
                    if cmp_key(s.min_bits) < cmp_key(min) { s.min_bits } else { min },
                    if cmp_key(s.max_bits) > cmp_key(max) { s.max_bits } else { max },
                ),
            })
        })
}

fn store_info(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("expected a rows.alfic path")?;
    let mut replay = ReplayReader::open(path).map_err(|e| e.to_string())?;
    let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("store:      {path} ({size} bytes)");
    println!("kind:       {}", replay.reader().meta("kind").unwrap_or("?"));
    println!(
        "rows:       {} in {} block(s) of up to {} rows",
        replay.reader().total_rows(),
        replay.reader().block_count(),
        replay.reader().block_rows()
    );
    // Per-block min/max footers, merged per column across every block.
    let block_count = replay.reader().block_count();
    let mut per_block = Vec::with_capacity(block_count);
    for idx in 0..block_count {
        per_block.push(replay.reader_mut().block_column_stats(idx).map_err(|e| e.to_string())?);
    }
    let reader = replay.reader();
    println!("columns:    {} (+ epoch/batch/fault_id keys)", reader.schema().columns.len());
    for (col, c) in reader.schema().columns.iter().enumerate() {
        let range = match merge_column_stats(c.ty, &per_block, col) {
            Some((min, max)) => format!(
                "  min {} max {}",
                render_stat_bits(c.ty, min),
                render_stat_bits(c.ty, max)
            ),
            None => String::new(),
        };
        println!("  {:<12} {:?} ({:?}){range}", c.name, c.ty, c.encoding);
    }
    let meta: Vec<String> = reader
        .schema()
        .meta
        .iter()
        .filter(|(k, _)| k.as_str() != "kind" && !k.starts_with("layer."))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if !meta.is_empty() {
        println!("meta:       {}", meta.join(", "));
    }
    // Multi-resolution fault-model overrides (`layers:` in the
    // scenario) are stamped into the schema as `layer.<pattern>` keys.
    let layers: Vec<(&String, &String)> = reader
        .schema()
        .meta
        .iter()
        .filter(|(k, _)| k.starts_with("layer."))
        .collect();
    if !layers.is_empty() {
        println!("layers:     {} override pattern(s)", layers.len());
        for (k, v) in layers {
            println!("  {:<12} {}", &k["layer.".len()..], v);
        }
    }
    Ok(())
}

fn store_lookup(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("expected a rows.alfic path")?;
    let fault_id: u64 = args
        .positional
        .get(1)
        .ok_or("expected a fault id")?
        .parse()
        .map_err(|_| "bad fault id (expected an integer)".to_string())?;
    let mut replay = ReplayReader::open(path).map_err(|e| e.to_string())?;
    let rows = replay.lookup_fault(fault_id).map_err(|e| e.to_string())?;
    let names: Vec<String> =
        replay.reader().schema().columns.iter().map(|c| c.name.clone()).collect();
    println!("fault {fault_id}: {} row(s)", rows.len());
    for (key, cells) in &rows {
        println!("epoch {} batch {}:", key.epoch, key.batch);
        for (name, cell) in names.iter().zip(cells) {
            println!("  {:<12} {}", name, render_cell(cell));
        }
    }
    println!(
        "read {} byte(s) across {} block(s)",
        replay.reader().bytes_read(),
        replay.reader().blocks_read()
    );
    Ok(())
}

fn store_convert(args: &Args) -> Result<(), String> {
    let input = args.positional.first().ok_or("expected a file to convert")?;
    let path = std::path::Path::new(input);
    let parent = path.parent().map(|p| p.to_path_buf()).unwrap_or_default();
    let out_dir = args
        .flags
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or(parent);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    if path.extension().is_some_and(|e| e == "alfic") {
        let written = store_to_files(path, &out_dir).map_err(|e| e.to_string())?;
        for f in &written {
            println!("wrote {}", f.display());
        }
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or("input file needs a UTF-8 name")?;
        let out = out_dir.join(format!("{name}.alfic"));
        let stats = text_to_store(&text, name, &out).map_err(|e| e.to_string())?;
        println!("wrote {} ({} rows, {} bytes)", out.display(), stats.rows, stats.bytes);
    }
    Ok(())
}

fn cmd_analyze(argv: &[String]) -> Result<(), String> {
    let sub = argv
        .first()
        .map(String::as_str)
        .ok_or("expected an analyze subcommand (report|diff|export-trace)")?;
    let args = Args::parse(&argv[1..], &format!("analyze {sub}"), &["out"])?;
    match sub {
        "report" => analyze_report(&args),
        "diff" => analyze_diff(&args),
        "export-trace" => analyze_export_trace(&args),
        other => Err(format!("unknown analyze subcommand `{other}` (report|diff|export-trace)")),
    }
}

/// Output directory for an analyze subcommand: `--out` when given,
/// otherwise the (first) run directory itself.
fn analyze_out_dir(args: &Args, default: &str) -> Result<std::path::PathBuf, String> {
    let out = std::path::PathBuf::from(args.get_or("out", default));
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    Ok(out)
}

fn analyze_report(args: &Args) -> Result<(), String> {
    let dir = args.positional.first().ok_or("expected a run directory")?;
    let report = analyze_dir(dir).map_err(|e| e.to_string())?;
    let out = analyze_out_dir(args, dir)?;
    write_report_files(&report, &out).map_err(|e| e.to_string())?;
    print!("{}", report.to_markdown());
    println!(
        "\nwrote {} and {}",
        out.join(alfi::analyze::REPORT_JSON).display(),
        out.join(alfi::analyze::REPORT_MD).display()
    );
    Ok(())
}

fn analyze_diff(args: &Args) -> Result<(), String> {
    let a_dir = args.positional.first().ok_or("expected two run directories")?;
    let b_dir = args.positional.get(1).ok_or("expected two run directories")?;
    let a = analyze_dir(a_dir).map_err(|e| e.to_string())?;
    let b = analyze_dir(b_dir).map_err(|e| e.to_string())?;
    let diff = alfi::analyze::diff::diff_reports(&a, &b);
    print!("{}", diff.to_markdown());
    if args.flags.contains_key("out") {
        let out = analyze_out_dir(args, ".")?;
        let path = out.join("diff.json");
        std::fs::write(&path, diff.to_json_string()).map_err(|e| e.to_string())?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}

fn analyze_export_trace(args: &Args) -> Result<(), String> {
    let dir = args.positional.first().ok_or("expected a run directory")?;
    let (json, self_time) = alfi::analyze::trace_export::export_dir(dir).map_err(|e| e.to_string())?;
    let out = analyze_out_dir(args, dir)?;
    let path = out.join(alfi::analyze::trace_export::TRACE_FILE);
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    print!("{self_time}");
    println!(
        "\nwrote {} (load it in chrome://tracing or ui.perfetto.dev; timestamps are replay ordinals, not wall clock)",
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_rejected_with_its_usage() {
        let err = Args::parse(&argv("--scenario s.yml --bogus 3"), "detect", CAMPAIGN_FLAGS)
            .err()
            .unwrap();
        assert!(err.starts_with("`detect` has no flag --bogus"), "{err}");
        assert!(err.contains("  alfi detect   --scenario") && err.contains("[--parallel <threads>]"));
        assert!(!err.contains("alfi classify"), "{err}");
        let err = Args::parse(&argv("x --out d"), "store info", &[]).err().unwrap();
        assert!(err.ends_with("usage:\n  alfi store info    <rows.alfic>\n"), "{err}");
        let args = Args::parse(&argv("x --parallel 2 --strict-health"), "detect", CAMPAIGN_FLAGS)
            .unwrap();
        assert_eq!(args.get_or("parallel", "1"), "2");
        assert_eq!(args.get_or("strict-health", "off"), "on");
        assert_eq!(args.positional, ["x"]);
    }

    #[test]
    fn layer_table_renders_rows() {
        let block = RateBlock {
            samples: 4,
            masked: 1,
            sdc: 2,
            due: 1,
            masked_rate: 0.25,
            sdc_rate: Rate::from_counts(2, 4),
            due_rate: Rate::from_counts(1, 4),
        };
        let table = layer_table(&[(4, block)]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "layer     n     sde     due  masked  sde_rate");
        assert_eq!(lines[1], "4          4       2       1       1    50.00%");
        assert_eq!(lines.len(), 2);
    }
}
