//! Campaign benchmark for `alfi`: runs seeded fault-injection campaigns
//! through the public API, checks their outputs, and prints end-to-end
//! metrics (untraced) or per-layer metrics (traced). See README.md.
//!
//! ```text
//! campaign-bench --workload <cnn-weights|vit-neurons|detect-frcnn|all>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod run;
mod spans;
mod stats;
mod workloads;

use alfi::serde::Json;
use run::{Args, Metric, Outcomes};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: campaign-bench --workload <cnn-weights|vit-neurons|detect-frcnn|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";
/// Where scratch run directories and span files go, relative to the
/// working directory (the repository root).
const OUT_DIR: &str = ".bench_runs";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    // A flag given twice takes its last value, so a command line that
    // carries a default seed can still be overridden.
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120]\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(wl) = workloads::find(&args.workload) else {
        eprintln!("unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    // The global pool reads this once, on first use; nothing has used it
    // yet, and no other thread exists.
    std::env::set_var("ALFI_POOL_THREADS", wl.pool_threads.to_string());

    let base = Path::new(OUT_DIR);
    let result = run::Dirs::create(base, &wl).and_then(|dirs| {
        let spans = base.join(format!("{}-seed{}-spans.json", wl.name, args.seed));
        let out = if args.trace {
            run::traced(&wl, &args, &dirs, &spans)
        } else {
            run::untraced(&wl, &args, &dirs)
        };
        dirs.remove();
        out
    });
    match result {
        Ok(out) => {
            print!("{}", render(&wl, &args, &out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", wl.name);
            ExitCode::FAILURE
        }
    }
}

/// The human-readable table followed by the JSON result line.
fn render(wl: &workloads::Workload, args: &Args, out: &Outcomes) -> String {
    use alfi::tensor::gemm::{kernel_path, simd_available, KernelPath};
    let kernel = match kernel_path() {
        KernelPath::Reference => "reference",
        KernelPath::Blocked if simd_available() => "blocked-avx2",
        KernelPath::Blocked => "blocked-portable",
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        "# workload={} seed={} trace={} seconds={} nproc={nproc} pool_threads={} driver_threads={} kernel={kernel}",
        wl.name,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        alfi_pool::global().threads(),
        wl.driver_threads,
    );
    for (k, v) in &out.facts {
        let _ = write!(s, " {k}={v}");
    }
    s.push('\n');
    for m in &out.metrics {
        s.push_str(&metric_line(m));
    }
    for e in &out.ops.errors {
        let _ = writeln!(s, "# error: {e}");
    }
    let _ = writeln!(
        s,
        "# failed/attempted: {}/{}",
        out.ops.failed, out.ops.attempted
    );
    // Every end-to-end metric must have been measured; a per-layer
    // metric may be absent where its layer does not run.
    let measured = args.trace || out.metrics.iter().all(|m| m.value.is_some());
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            // A layer that does not run in this workload reads 0 here and
            // `n/a` in the table above.
            let value = Json::Float(m.value.unwrap_or(0.0));
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), value),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = result_json(
        out.ops.failed == 0 && measured,
        out.ops.attempted,
        out.ops.failed,
        metrics,
    );
    s + &line + "\n"
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted.into())),
        ("failed".into(), Json::Int(failed.into())),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .compact()
}

fn metric_line(m: &Metric) -> String {
    let Some(v) = m.value else {
        return format!("{:<34} n/a\n", m.name);
    };
    let mut line = format!("{:<34} {v:<22} {}", m.name, m.unit);
    if !m.samples.is_empty() {
        let _ = write!(line, "  median of n={}", m.samples.len());
        if let Some([q1, _, q3]) = stats::quartiles(&m.samples) {
            let _ = write!(line, " q1={q1:.6} q3={q3:.6}");
        }
        if let Some((p, pv)) = stats::high_percentile(&m.samples) {
            let _ = write!(line, " p{p}={pv:.6}");
        }
    }
    line.push('\n');
    line
}

/// Runs every workload, each in its own process (the pool width is fixed
/// per process), and ends with one combined result line whose metric
/// names carry the workload as a prefix.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for wl in workloads::WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", wl.name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output();
        let text = match output {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            Ok(out) => {
                eprintln!("{}: exited with {}", wl.name, out.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{}: {e}", wl.name);
                return ExitCode::FAILURE;
            }
        };
        print!("{text}");
        let result = text.lines().last().and_then(|l| Json::parse(l).ok());
        let part = |key: &str| result.as_ref().and_then(|r| r.get(key)).cloned();
        let (Some(Json::Bool(c)), Some(Json::Int(a)), Some(Json::Int(f)), Some(Json::Obj(m))) = (
            part("correct"),
            part("attempted"),
            part("failed"),
            part("metrics"),
        ) else {
            eprintln!("{}: no result line", wl.name);
            return ExitCode::FAILURE;
        };
        correct &= c;
        attempted += a as u64;
        failed += f as u64;
        metrics.extend(
            m.into_iter()
                .map(|(name, body)| (format!("{}/{name}", wl.name), body)),
        );
    }
    println!("{}", result_json(correct, attempted, failed, metrics));
    ExitCode::SUCCESS
}
