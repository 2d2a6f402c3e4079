//! Helpers shared by the tensor test binaries.

/// Pool fan-out jobs so far (`alfi_pool_jobs_total`), with the global
/// meters on so the pool counts them.
fn pool_jobs() -> u64 {
    alfi_metrics::set_global_enabled(true);
    alfi_metrics::global().snapshot().counter(alfi_metrics::names::POOL_JOBS)
}

/// Runs `f` at pool cap `threads` and checks that it fanned out on the
/// pool whenever the cap leaves more than one thread. Concurrent tests
/// can add jobs but never remove one, so a kernel that stays on the
/// calling thread can pass only while another test fans out.
pub fn fanned_out<R>(threads: usize, what: &str, f: impl FnOnce() -> R) -> R {
    alfi_pool::with_parallelism(threads, || {
        let wide = alfi_pool::current_parallelism() > 1;
        let before = pool_jobs();
        let out = f();
        assert!(!wide || pool_jobs() > before, "{what}: no pool job ran at {threads} threads");
        out
    })
}
