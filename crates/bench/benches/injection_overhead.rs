//! Bench target: hook-dispatch and injection overhead at the layer
//! level (part of DESIGN.md experiment E1). Separates the cost of
//! (a) the hook mechanism itself, (b) a counting no-op hook on every
//! node, and (c) an armed neuron-fault hook, all against the clean
//! forward pass.

use alfi_bench::{build_classifier, ExperimentScale};
use alfi_core::baseline::CountingHook;
use alfi_core::monitor::{attach_monitor, NanInfMonitor};
use alfi_core::Ptfiwrap;
use alfi_scenario::{FaultMode, InjectionTarget, Scenario};
use alfi_tensor::Tensor;
use alfi_bench::timing::{BenchmarkId, Harness};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_overhead(c: &mut Harness) {
    let scale = ExperimentScale::quick();
    let (model, mcfg) = build_classifier("alexnet", scale, 3);
    let input = Tensor::ones(&mcfg.input_dims(1));

    let mut group = c.benchmark_group("injection_overhead");
    group.sample_size(30).measurement_time(Duration::from_secs(3));

    group.bench_function("forward_clean", |b| {
        b.iter(|| black_box(model.forward(&input).expect("forward")))
    });

    // No-op counting hook on every node: pure dispatch cost.
    group.bench_function("forward_counting_hooks_all_nodes", |b| {
        let mut hooked = model.clone();
        let hook = Arc::new(CountingHook::new());
        for id in 0..hooked.num_nodes() {
            hooked.register_hook(id, Arc::<CountingHook>::clone(&hook) as _).expect("register");
        }
        b.iter(|| black_box(hooked.forward(&input).expect("forward")))
    });

    // NaN/Inf monitor on every node: the DUE-observability cost.
    group.bench_function("forward_naninf_monitor_all_nodes", |b| {
        let mut hooked = model.clone();
        let monitor = Arc::new(NanInfMonitor::new());
        attach_monitor(&mut hooked, Arc::<NanInfMonitor>::clone(&monitor) as _).expect("attach");
        b.iter(|| black_box(hooked.forward(&input).expect("forward")))
    });

    // One armed neuron fault: the actual injection path.
    group.bench_function("forward_one_neuron_fault", |b| {
        let mut s = Scenario::default();
        s.dataset_size = 1;
        s.injection_target = InjectionTarget::Neurons;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let mut wrapper = Ptfiwrap::new(&model, s, &mcfg.input_dims(1)).expect("wrapper");
        let fm = wrapper.next_faulty_model().expect("slot");
        b.iter(|| black_box(fm.forward(&input).expect("forward")))
    });

    group.finish();
}

/// Range-supervision cost: the hardened model (a Ranger guard applied
/// after every protected node, a second pass over that node's
/// activations) against the plain forward.
fn bench_hardened_fusion(c: &mut Harness) {
    use alfi_mitigation::{harden, profile_bounds, Protection};

    let scale = ExperimentScale::quick();
    let (model, mcfg) = build_classifier("alexnet", scale, 3);
    let input = Tensor::ones(&mcfg.input_dims(1));
    let bounds = profile_bounds(&model, std::iter::once(&input)).expect("bounds");

    let mut group = c.benchmark_group("hardened_fusion");
    group.sample_size(30).measurement_time(Duration::from_secs(3));

    group.bench_function("forward_unhardened", |b| {
        b.iter(|| black_box(model.forward(&input).expect("forward")))
    });
    group.bench_function("forward_hardened", |b| {
        let hardened = harden(&model, &bounds, Protection::Ranger, 0.1).expect("harden");
        b.iter(|| black_box(hardened.forward(&input).expect("forward")))
    });

    group.finish();
}

/// Thread-count sweep: the clean forward pass over a batched input at
/// pool caps 1/2/4/N, driving the row-chunked matmul and per-item conv
/// kernels end to end. The results must be bit-identical at every cap
/// (the determinism tests pin that); this group measures what the caps
/// cost or buy.
fn bench_thread_sweep(c: &mut Harness) {
    let scale = ExperimentScale::quick();
    let (model, mcfg) = build_classifier("alexnet", scale, 3);
    let batch = Tensor::ones(&mcfg.input_dims(8));

    let n_max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut counts = vec![1usize, 2, 4, n_max];
    counts.sort_unstable();
    counts.dedup();

    let mut group = c.benchmark_group("forward_thread_sweep");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for &threads in &counts {
        group.bench_with_input(BenchmarkId::new("forward_batch8", threads), &threads, |b, &t| {
            b.iter(|| {
                alfi_pool::with_parallelism(t, || black_box(model.forward(&batch).expect("forward")))
            })
        });
    }
    group.finish();
}

alfi_bench::bench_main!(bench_overhead, bench_hardened_fusion, bench_thread_sweep);
