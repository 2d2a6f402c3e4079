//! Bench target: the `alfi-metrics` overhead contract. Times the same
//! per-image classification campaign with metrics fully off (the
//! `RunConfig::default()` path, global instrumentation gate cleared)
//! and with a live registry attached (engine counters, pool busy
//! timers, tensor FLOP/byte counters all firing), then checks the
//! metered cost against the documented ceiling of
//! [`OVERHEAD_CEILING_PCT`] percent and prints a PASS, FAIL or
//! UNRESOLVED verdict.
//!
//! Uses the *interleaved paired* methodology of `trace_overhead` (the
//! median over alternating rounds cancels CPU-frequency drift that
//! sequential whole-group timing cannot), with two extra defences a 2%
//! ceiling needs on shared runners:
//!
//! - Placement jitter + global-minimum verdict. Where the campaign's
//!   transient tensor buffers land in the heap swings its runtime by
//!   up to ±15% on some machines (cache-set aliasing), and the metered
//!   arm's in-run registry allocations systematically steer its
//!   buffers to *different* addresses than the unmetered arm's — a
//!   placement bias an order of magnitude above the ceiling, in either
//!   direction. Each round therefore retains a pad allocation of a
//!   different size, shifting the layout both arms see, and the
//!   verdict compares the fastest iteration of each mode across all
//!   rounds: the fastest observation is the placement- and
//!   preemption-free estimate of true cost (timing noise is additive
//!   and positive), and with both modes sampling many layouts the two
//!   minima are reached under comparably lucky placement.
//! - Single-iteration interleaving over one shared registry: both
//!   arms render the same registry every iteration (the unmetered arm
//!   simply does not attach it to the run), so the arms' allocation
//!   patterns stay as close as possible. The contract measures the
//!   cost of *metering a run*, not of constructing a registry object.
//! - A control arm. A third arm runs the *identical* unmetered code
//!   at a different position in the interleave cycle; any spread
//!   between the two unmetered arms is pure environment (placement,
//!   frequency, co-tenants) and sets the resolution floor of this
//!   machine. A spread above the ceiling means the machine cannot
//!   resolve a 2% difference: the verdict is UNRESOLVED, never PASS.
//!   Otherwise the verdict allows the ceiling *plus* that measured
//!   floor (itself at most the ceiling). The printed line reports the
//!   control spread alongside the overhead either way.

use alfi_bench::timing::Harness;
use alfi_bench::{build_classifier, ExperimentScale};
use alfi_core::campaign::{ImgClassCampaign, RunConfig};
use alfi_datasets::{ClassificationDataset, ClassificationLoader};
use alfi_metrics::Registry;
use alfi_scenario::{FaultMode, InjectionTarget, Scenario};
use std::hint::black_box;
use std::time::{Duration, Instant};

const DISABLED: &str = "campaign_metrics_disabled";
const ENABLED: &str = "campaign_metrics_enabled";

/// The documented overhead contract: live metrics may slow a campaign
/// down by at most this much (DESIGN.md, metrics section).
const OVERHEAD_CEILING_PCT: f64 = 2.0;

/// Placement-jittered paired rounds; the verdict takes each mode's
/// fastest iteration across all of them.
const ROUNDS: usize = 11;

/// Campaign runs per mode per round; each round keeps the fastest.
const ITERS_PER_ROUND: usize = 3;

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

/// One unmetered iteration. Renders the shared registry *detached*
/// from the run so both arms do identical snapshot/render work and
/// churn the allocator identically (see module docs).
fn iter_disabled(campaign: &mut ImgClassCampaign, cfg: &RunConfig, registry: &Registry) -> Duration {
    // A metered run flips the process-global instrumentation gate on
    // (and leaves it on — endpoint semantics); clear it so the
    // unmetered side really pays nothing in the pool/tensor hot paths.
    alfi_metrics::set_global_enabled(false);
    let t = Instant::now();
    black_box(campaign.run_with(cfg).expect("run"));
    black_box(registry.snapshot().render());
    t.elapsed()
}

/// One fully metered iteration: live engine/pool/tensor counters into
/// the shared registry, snapshot + render at the end. The registry is
/// shared across iterations — a real campaign registers its families
/// once per process, registration costs microseconds either way, and
/// per-iteration re-registration would make the two arms' heap
/// layouts diverge (the very artifact this bench defends against).
fn iter_enabled(campaign: &mut ImgClassCampaign, cfg: &RunConfig, registry: &Registry) -> Duration {
    let t = Instant::now();
    black_box(campaign.run_with(cfg).expect("run"));
    black_box(registry.snapshot().render());
    t.elapsed()
}

/// Per-round heap-placement jitter step (a page plus one cache line,
/// so successive rounds shift both page and set alignment).
const PAD_STEP: usize = 4096 + 64;

/// One round: [`ITERS_PER_ROUND`] interleaved unmetered / metered /
/// control triples (the lead arm rotates with the round index),
/// keeping each arm's fastest. The retained pad shifts this round's
/// heap layout (see module docs).
fn round(
    campaign: &mut ImgClassCampaign,
    disabled_cfg: &RunConfig,
    enabled_cfg: &RunConfig,
    registry: &Registry,
    rotation: usize,
    pad_units: usize,
) -> [Duration; 3] {
    let pad = vec![0u8; pad_units * PAD_STEP];
    let mut best = [Duration::MAX; 3];
    for _ in 0..ITERS_PER_ROUND {
        for k in 0..3 {
            let arm = (rotation + k) % 3;
            let t = match arm {
                1 => iter_enabled(campaign, enabled_cfg, registry),
                _ => iter_disabled(campaign, disabled_cfg, registry),
            };
            best[arm] = best[arm].min(t);
        }
    }
    black_box(&pad);
    best
}

/// Measurement result of the interleaved three-arm comparison, all
/// figures from each arm's fastest iteration across the
/// placement-jittered rounds (see module docs on noise).
struct Overhead {
    /// Fastest unmetered iteration (better of the two unmetered arms).
    disabled_ns: f64,
    /// Fastest metered iteration.
    enabled_ns: f64,
    /// Metered cost relative to the fastest unmetered arm, percent.
    overhead_pct: f64,
    /// Spread between the two identical unmetered arms, percent — the
    /// environment's measured resolution floor.
    control_spread_pct: f64,
}

fn paired_overhead() -> Overhead {
    let mut campaign = make_campaign();
    let disabled_cfg = RunConfig::default();
    let registry = Registry::new();
    let enabled_cfg = RunConfig::new().metrics(registry.clone());

    // Warmup: one round, untimed (cold caches, lazy init, family
    // registration, allocator steady state under the interleaved
    // pattern).
    black_box(round(&mut campaign, &disabled_cfg, &enabled_cfg, &registry, 0, 0));

    let mut mins = [f64::MAX; 3];
    for r in 0..ROUNDS {
        // Rotate which arm leads each triple so within-triple drift
        // does not systematically favour one arm; each round pins a
        // different pad size so every arm samples many heap layouts.
        let durs = round(&mut campaign, &disabled_cfg, &enabled_cfg, &registry, r % 3, r);
        let ns = durs.map(|d| d.as_nanos() as f64);
        if std::env::var_os("ALFI_BENCH_DEBUG").is_some() {
            eprintln!(
                "round {r:>2}: unmetered {:>9.0} ns, metered {:>9.0} ns ({:+.2}%), \
                 control {:>9.0} ns",
                ns[0],
                ns[1],
                (ns[1] / ns[0] - 1.0) * 100.0,
                ns[2]
            );
        }
        for (m, v) in mins.iter_mut().zip(ns) {
            *m = m.min(v);
        }
    }
    let disabled_ns = mins[0].min(mins[2]);
    Overhead {
        disabled_ns,
        enabled_ns: mins[1],
        overhead_pct: (mins[1] / disabled_ns - 1.0) * 100.0,
        control_spread_pct: ((mins[0] - mins[2]).abs() / disabled_ns) * 100.0,
    }
}

fn bench_absolute(c: &mut Harness) {
    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(12).measurement_time(Duration::from_secs(3));

    group.bench_function(DISABLED, |b| {
        let mut campaign = make_campaign();
        let cfg = RunConfig::default();
        alfi_metrics::set_global_enabled(false);
        b.iter(|| black_box(campaign.run_with(&cfg).expect("run")))
    });

    group.bench_function(ENABLED, |b| {
        let mut campaign = make_campaign();
        let registry = Registry::new();
        let cfg = RunConfig::new().metrics(registry.clone());
        b.iter(|| {
            let result = campaign.run_with(&cfg).expect("run");
            black_box(registry.snapshot().render());
            black_box(result)
        })
    });

    group.finish();
}

fn main() {
    // Absolute per-mode timings for the JSON report / trend tracking.
    // Not used for the verdict (see the module docs on drift).
    let mut harness = Harness::new();
    bench_absolute(&mut harness);
    harness.report();

    let o = paired_overhead();
    // The control spread is the measured difference between two
    // *identical* unmetered arms: overhead within ceiling + spread is
    // indistinguishable from environment noise, and a spread above the
    // ceiling leaves the contract unchecked (see module docs).
    let verdict = if o.control_spread_pct > OVERHEAD_CEILING_PCT {
        "UNRESOLVED"
    } else if o.overhead_pct <= OVERHEAD_CEILING_PCT + o.control_spread_pct {
        "PASS"
    } else {
        "FAIL"
    };
    println!(
        "metrics overhead (paired): unmetered {:.0} ns, metered {:.0} ns \
         => {:+.2}% (ceiling {OVERHEAD_CEILING_PCT}%, control spread {:.2}%) [{verdict}]",
        o.disabled_ns, o.enabled_ns, o.overhead_pct, o.control_spread_pct
    );
    // Leave the process-global gate as a fresh process would find it.
    alfi_metrics::set_global_enabled(false);
}
