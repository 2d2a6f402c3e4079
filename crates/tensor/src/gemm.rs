//! Cache-blocked, panel-packed GEMM kernels with a fused epilogue.
//!
//! This module is the compute core behind [`crate::Tensor::matmul`],
//! `conv2d_im2col` and the `alfi-nn` linear layer. Two kernel paths
//! exist and are required to produce **bit-identical** results:
//!
//! * **Reference** — the historical scalar kernels (`matmul_rows`-style
//!   i-k-j loops plus separate bias/epilogue passes). These are the
//!   oracle every golden artifact was pinned against.
//! * **Blocked** — packed-B, register-tiled microkernels ([`MR`]×[`NR`]
//!   output tiles accumulated in registers over the full inner
//!   dimension). An AVX2 variant is selected at runtime on `x86_64`
//!   when available; a portable variant (written to autovectorize)
//!   runs everywhere else.
//!
//! # Kernel determinism rules
//!
//! Bit-identity between the paths holds because, per output element:
//!
//! 1. products are accumulated in strictly ascending `k` order into a
//!    single accumulator chain (register tiling vectorizes across
//!    *independent* output elements, never within one element's sum);
//! 2. every operation is an exactly-rounded IEEE-754 `f32` multiply
//!    followed by an add — never a fused multiply-add (the AVX2 path
//!    deliberately uses `mul` + `add`, not FMA intrinsics);
//! 3. the zero-skip rule (`a == 0.0` contributes nothing) is applied
//!    identically on both paths — skipping is *not* a no-op in IEEE
//!    arithmetic (`0.0 × ∞ = NaN`, `-0.0 + 0.0 = 0.0`), so it is part
//!    of the kernel contract, not an optimization detail;
//! 4. the epilogue (bias, then the optional range clamp) applies the
//!    same per-element operation sequence in the same order on both
//!    paths.
//!
//! The active path is selected by the `ALFI_KERNEL` environment
//! variable (`reference` | `blocked`, default `blocked`), overridable
//! in-process via [`set_kernel_override`] (used by tests that pin each
//! path in turn). `ALFI_KERNEL_PORTABLE=1` disables the
//! `std::arch` path so the portable fallback can be tested on AVX2
//! hardware. A value either variable does not accept is an error
//! ([`check_kernel_env`]), never a silent default. The same switch
//! selects GELU's kernel ([`crate::elementwise`]).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Rows per register tile (output rows computed simultaneously).
/// `6 × 16` uses 12 of the 16 AVX2 `ymm` registers for accumulators,
/// leaving room for the two panel loads and the broadcast — each panel
/// load is then reused across six rows, which is what lifts the kernel
/// off the load ports and onto the FP units.
pub const MR: usize = 6;
/// Columns per packed panel and register tile.
pub const NR: usize = 16;

/// Environment variable selecting the kernel path
/// (`reference` | `blocked`).
pub const KERNEL_ENV: &str = "ALFI_KERNEL";
/// Environment variable forcing the portable (no `std::arch`)
/// microkernel when set to `1`/`true`/`yes`.
pub const KERNEL_PORTABLE_ENV: &str = "ALFI_KERNEL_PORTABLE";

/// Which GEMM implementation executes tensor contractions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Historical scalar kernels — the conformance oracle.
    Reference,
    /// Packed, register-tiled microkernels (AVX2 or portable).
    Blocked,
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelPath::Reference => "reference",
            KernelPath::Blocked => "blocked",
        })
    }
}

impl std::str::FromStr for KernelPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reference" => Ok(KernelPath::Reference),
            "blocked" => Ok(KernelPath::Blocked),
            other => Err(format!("unknown kernel path `{other}` (expected reference|blocked)")),
        }
    }
}

// Process-global override: 0 = unset (fall back to the environment),
// 1 = Reference, 2 = Blocked. An atomic rather than a thread-local so
// the choice propagates into pool worker threads.
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Overrides the kernel path process-wide (`None` restores the
/// environment default); the override is visible to pool workers.
/// Callers that pin a path restore the previous [`kernel_override`]
/// afterwards.
pub fn set_kernel_override(path: Option<KernelPath>) {
    let v = match path {
        None => 0,
        Some(KernelPath::Reference) => 1,
        Some(KernelPath::Blocked) => 2,
    };
    KERNEL_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The current process-wide override, if any.
pub fn kernel_override() -> Option<KernelPath> {
    match KERNEL_OVERRIDE.load(Ordering::Relaxed) {
        1 => Some(KernelPath::Reference),
        2 => Some(KernelPath::Blocked),
        _ => None,
    }
}

/// A kernel-path environment variable holds a value it does not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelEnvError {
    /// The variable: [`KERNEL_ENV`] or [`KERNEL_PORTABLE_ENV`].
    pub var: &'static str,
    /// The value it holds.
    pub value: String,
    /// The values it accepts.
    pub accepted: &'static str,
}

impl std::fmt::Display for KernelEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?} is not one of {} (or unset)", self.var, self.value, self.accepted)
    }
}

impl std::error::Error for KernelEnvError {}

/// Parses a value of [`KERNEL_ENV`]: `reference` or `blocked`, in any
/// case; unset or empty is [`KernelPath::Blocked`].
///
/// # Errors
///
/// Returns [`KernelEnvError`] for any other value.
pub fn parse_kernel_env(value: Option<&str>) -> Result<KernelPath, KernelEnvError> {
    match value.map(str::trim) {
        None | Some("") => Ok(KernelPath::Blocked),
        Some(v) => v.parse().map_err(|_| KernelEnvError {
            var: KERNEL_ENV,
            value: v.into(),
            accepted: "reference|blocked",
        }),
    }
}

/// Parses a value of [`KERNEL_PORTABLE_ENV`]: whether it forces the
/// portable kernels. `1`, `true` or `yes` do, `0`, `false` or `no` do
/// not, in any case; unset or empty does not.
///
/// # Errors
///
/// Returns [`KernelEnvError`] for any other value.
pub fn parse_portable_env(value: Option<&str>) -> Result<bool, KernelEnvError> {
    match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        None | Some("" | "0" | "false" | "no") => Ok(false),
        Some("1" | "true" | "yes") => Ok(true),
        Some(_) => Err(KernelEnvError {
            var: KERNEL_PORTABLE_ENV,
            value: value.unwrap_or_default().trim().into(),
            accepted: "1|true|yes|0|false|no",
        }),
    }
}

/// This process's value of `var`, lossily decoded.
fn env_value(var: &str) -> Option<String> {
    std::env::var_os(var).map(|v| v.to_string_lossy().into_owned())
}

/// Checks this process's [`KERNEL_ENV`] and [`KERNEL_PORTABLE_ENV`], so
/// a caller can report a bad value before [`kernel_path`] or
/// [`simd_available`] panic on it.
///
/// # Errors
///
/// Returns [`KernelEnvError`] for the first variable holding a value it
/// does not accept.
pub fn check_kernel_env() -> Result<(), KernelEnvError> {
    parse_kernel_env(env_value(KERNEL_ENV).as_deref())?;
    parse_portable_env(env_value(KERNEL_PORTABLE_ENV).as_deref())?;
    Ok(())
}

fn env_kernel() -> KernelPath {
    static ENV: OnceLock<KernelPath> = OnceLock::new();
    *ENV.get_or_init(|| parse_kernel_env(env_value(KERNEL_ENV).as_deref()).unwrap_or_else(|e| panic!("{e}")))
}

/// Resolves the active kernel path: the process-wide override wins,
/// then `ALFI_KERNEL`, then the default ([`KernelPath::Blocked`]).
///
/// # Panics
///
/// Panics, without an override, if `ALFI_KERNEL` holds a value it does
/// not accept (see [`check_kernel_env`]).
pub fn kernel_path() -> KernelPath {
    kernel_override().unwrap_or_else(env_kernel)
}

/// Whether the blocked path may use the `std::arch` AVX2 microkernel.
/// Resolved once: requires `x86_64`, runtime AVX2 detection and
/// `ALFI_KERNEL_PORTABLE` not forcing the portable kernels.
///
/// # Panics
///
/// Panics if `ALFI_KERNEL_PORTABLE` holds a value it does not accept
/// (see [`check_kernel_env`]).
pub fn simd_available() -> bool {
    static SIMD: OnceLock<bool> = OnceLock::new();
    *SIMD.get_or_init(|| {
        let forced_portable = parse_portable_env(env_value(KERNEL_PORTABLE_ENV).as_deref())
            .unwrap_or_else(|e| panic!("{e}"));
        !forced_portable && crate::elementwise::Lanes::Avx2.is_available()
    })
}

/// Storage layout of the `B` operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BLayout {
    /// `b` is `[k, n]` row-major: `B[kk][j] = b[kk * n + j]` (matmul, conv).
    RowMajor,
    /// `b` is `[n, k]` row-major: `B[kk][j] = b[j * k + kk]` — the
    /// linear layer's `x · Wᵀ` without materializing the transpose.
    Transposed,
}

/// How the bias vector participates in the accumulation.
#[derive(Debug, Clone, Copy)]
pub enum Bias<'a> {
    /// No bias.
    None,
    /// `bias[j]` *initializes* the accumulator of column `j` before the
    /// `k` loop — the linear layer's historical operation order.
    InitPerCol(&'a [f32]),
    /// `bias[i]` is added to row `i` *after* the `k` sum — the conv
    /// kernel's historical operation order (bias pass after the GEMM).
    PostPerRow(&'a [f32]),
}

/// Full description of one GEMM: `out[m,n] = A[m,k] × B` plus bias and
/// the zero-skip rule.
#[derive(Debug, Clone, Copy)]
pub struct GemmSpec<'a> {
    /// Output rows.
    pub m: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Layout of the `B` operand.
    pub layout: BLayout,
    /// Whether `a == 0.0` entries are skipped (the historical
    /// `matmul_rows` rule; the linear layer does *not* skip).
    pub skip_zero_a: bool,
    /// Bias participation.
    pub bias: Bias<'a>,
}

// ---------------------------------------------------------------------------
// Epilogue: per-element post-ops fused into the kernel.
// ---------------------------------------------------------------------------

/// A per-element transformation applied to each output value exactly
/// once, after its `k` sum (and bias) completes. `flat` is the
/// element's row-major index in the full `[m, n]` output.
pub trait Epilogue: Sync {
    /// Transforms the finished value at `flat`.
    fn apply(&self, flat: usize, v: f32) -> f32;
    /// `true` when the epilogue is a guaranteed no-op, letting kernels
    /// skip the pass entirely.
    fn is_identity(&self) -> bool {
        false
    }
}

/// The do-nothing epilogue — monomorphizes to zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEpilogue;

impl Epilogue for NoEpilogue {
    #[inline(always)]
    fn apply(&self, _flat: usize, v: f32) -> f32 {
        v
    }

    fn is_identity(&self) -> bool {
        true
    }
}

/// Out-of-range handling for [`Clamp`] — mirrors `alfi-nn`'s
/// `RestrictMode` semantics exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClampMode {
    /// Ranger: saturate to the violated bound; NaN maps to `lo`.
    Clip,
    /// Clipper: out-of-range (or NaN) values become zero.
    Zero,
}

/// Range-supervision clamp fused into the kernel epilogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clamp {
    /// Lower bound of the healthy activation range.
    pub lo: f32,
    /// Upper bound of the healthy activation range.
    pub hi: f32,
    /// Out-of-range handling.
    pub mode: ClampMode,
}

impl Clamp {
    /// Applies the clamp to `v` (identical per-element semantics to the
    /// spliced `RangeRestrict` layer).
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self.mode {
            ClampMode::Clip => {
                if v.is_nan() {
                    self.lo
                } else {
                    v.clamp(self.lo, self.hi)
                }
            }
            ClampMode::Zero => {
                if v.is_nan() || v < self.lo || v > self.hi {
                    0.0
                } else {
                    v
                }
            }
        }
    }
}

/// The fused epilogue of a conv/linear node: its optional range clamp.
/// Per element the order is **bias → clamp**, matching a spliced
/// `RangeRestrict` node after the layer.
impl Epilogue for Option<Clamp> {
    #[inline]
    fn apply(&self, _flat: usize, v: f32) -> f32 {
        match self {
            Some(clamp) => clamp.apply(v),
            None => v,
        }
    }

    fn is_identity(&self) -> bool {
        self.is_none()
    }
}

// ---------------------------------------------------------------------------
// Driver: path dispatch and deterministic parallel fan-out.
// ---------------------------------------------------------------------------

/// Minimum multiply-accumulate count (`m * k * n`) before a GEMM fans
/// out on the pool; below this the fixed task overhead dominates.
pub(crate) const PAR_MIN_FLOPS: usize = 64 * 1024;

/// Minimum output-row count before the blocked path packs `B`: the
/// pack costs `k · n` writes against `m · k · n` multiplies, so below
/// this the blocked driver delegates to the (bit-identical) reference
/// kernel instead of paying a `≥ 1/8` packing overhead.
pub const BLOCKED_MIN_M: usize = 8;

/// Rows per parallel chunk — a pure function of the inner dimensions,
/// so chunk boundaries never depend on the thread count (part of the
/// pool's determinism contract).
pub(crate) fn rows_per_chunk(k: usize, n: usize) -> usize {
    (PAR_MIN_FLOPS / (k * n).max(1)).max(1)
}

/// Runs one GEMM with a fused epilogue on the selected kernel path,
/// fanning out over the shared pool when profitable. Both paths and
/// every thread count produce bit-identical output. Counts `2·m·k·n`
/// FLOPs on the matmul meter.
///
/// # Panics
///
/// Panics (debug assertions) if operand slice lengths disagree with the
/// spec.
pub fn gemm_with<E: Epilogue>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    spec: &GemmSpec<'_>,
    epi: &E,
    path: KernelPath,
) {
    crate::meter::matmul(spec.m, spec.k, spec.n);
    run(a, b, None, out, spec, epi, path, spec.m);
}

/// [`gemm_with`] on a ready pack: the blocked path takes `B`'s panels
/// from `cache`, packing them there on its first call, instead of
/// packing per call. The pack is a layout change only, so the output
/// is bit-identical to [`gemm_with`]'s. `cache` must only ever see this
/// `b` with this `k`, `n` and layout; whoever changes `b` drops the
/// cache (a `Network` does so in `layer_mut`).
pub fn gemm_cached<E: Epilogue>(
    a: &[f32],
    b: &[f32],
    cache: &PackCache,
    out: &mut [f32],
    spec: &GemmSpec<'_>,
    epi: &E,
    path: KernelPath,
) {
    crate::meter::matmul(spec.m, spec.k, spec.n);
    run(a, b, Some(cache), out, spec, epi, path, spec.m);
}

/// The packed `B` panels of one fixed operand, filled by the first
/// blocked [`gemm_cached`] call and read by every later one. The
/// reference path never fills it. `PackCache::default()` is empty.
#[derive(Debug, Default)]
pub struct PackCache(OnceLock<Vec<f32>>);

impl PackCache {
    fn panels(&self, b: &[f32], k: usize, n: usize, layout: BLayout) -> &[f32] {
        let packed = self.0.get_or_init(|| pack_metered(b, k, n, layout));
        assert_eq!(packed.len(), n.div_ceil(NR) * k * NR, "cached pack shape");
        packed
    }
}

/// Shared body of [`gemm_with`], [`gemm_cached`], [`gemm_rows`] and
/// [`linear_rows`], and the conv kernel's full GEMM: `floor_m` is the
/// row count the blocked path's thin-shape floor reads. It counts on no
/// meter; the conv kernel counts its convolution on the conv meter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<E: Epilogue>(
    a: &[f32],
    b: &[f32],
    cache: Option<&PackCache>,
    out: &mut [f32],
    spec: &GemmSpec<'_>,
    epi: &E,
    path: KernelPath,
    floor_m: usize,
) {
    let (m, k, n) = (spec.m, spec.k, spec.n);
    debug_assert_eq!(a.len(), m * k, "A operand length");
    debug_assert_eq!(b.len(), k * n, "B operand length");
    debug_assert_eq!(out.len(), m * n, "output length");
    if let Bias::InitPerCol(bias) = spec.bias {
        debug_assert_eq!(bias.len(), n, "per-column bias length");
    }
    if let Bias::PostPerRow(bias) = spec.bias {
        debug_assert_eq!(bias.len(), m, "per-row bias length");
    }
    if m == 0 || n == 0 {
        return;
    }

    match path {
        KernelPath::Reference => {
            let threads = alfi_pool::current_parallelism();
            if threads > 1 && m > 1 && m * k * n >= PAR_MIN_FLOPS {
                let rpc = rows_per_chunk(k, n);
                alfi_pool::global().parallel_chunks_mut(threads, out, rpc * n, |ci, chunk| {
                    reference_chunk(a, b, chunk, ci * rpc, spec, epi);
                });
            } else {
                reference_chunk(a, b, out, 0, spec, epi);
            }
        }
        KernelPath::Blocked => {
            // Thin row-major products (few output rows) can't amortize
            // the B pack — its cost relative to the multiply work is
            // `1/m`, and the row-major reference kernel already
            // vectorizes across output columns — so they run on the
            // reference kernel, which is the same function by the
            // bit-identity contract. Transposed `B` is exempt from the
            // floor: its reference kernel is a latency-bound scalar
            // dot-product chain, which the packed kernel beats at any
            // `m` (the pack is a single streaming transpose of data
            // the dot products would read anyway).
            if floor_m < BLOCKED_MIN_M && matches!(spec.layout, BLayout::RowMajor) {
                run(a, b, cache, out, spec, epi, KernelPath::Reference, floor_m);
                return;
            }
            // B is packed at most once per GEMM call into NR-wide
            // column panels (never, with a filled cache); every worker
            // reads the same shared pack.
            let per_call;
            let packed: &[f32] = match cache {
                Some(cache) => cache.panels(b, k, n, spec.layout),
                None => {
                    per_call = pack_metered(b, k, n, spec.layout);
                    &per_call
                }
            };
            let simd = simd_available();
            let threads = alfi_pool::current_parallelism();
            if threads > 1 && m > 1 && m * k * n >= PAR_MIN_FLOPS {
                // Round the chunk size up to a whole number of register
                // tiles — still a pure function of (k, n).
                let rpc = rows_per_chunk(k, n).div_ceil(MR) * MR;
                alfi_pool::global().parallel_chunks_mut(threads, out, rpc * n, |ci, chunk| {
                    blocked_chunk(a, packed, chunk, ci * rpc, spec, epi, simd);
                });
            } else {
                blocked_chunk(a, packed, out, 0, spec, epi, simd);
            }
        }
    }
}

/// [`gemm_with`] without an epilogue.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], spec: &GemmSpec<'_>, path: KernelPath) {
    gemm_with(a, b, out, spec, &NoEpilogue, path);
}

// ---------------------------------------------------------------------------
// Row recompute: some output rows of a GEMM with some operand rows
// replaced, each on the exact instruction sequence the full GEMM runs.
// ---------------------------------------------------------------------------
//
// The two kernels, and the register tiles of one kernel, agree on every
// finite value; a NaN's sign and payload can also depend on which
// instructions met it (an add of two different NaNs keeps one of them,
// and the compiler may commute an add). So a recomputed row runs on the
// kernel the full GEMM runs it on, at the same position inside the same
// kind of register tile: the recompute takes every aligned tile span
// that holds a replaced row, whole.

/// Recomputes some output rows of a row-major GEMM in place.
///
/// `out` (`[m, n]`) holds `A × B` plus the bias and `clamp` of `spec`
/// (row-major `B`, as the conv kernel runs it). Each `(i, a_i)` of
/// `rows` replaces row `i` of `A` (`k` values) and rewrites row `i` of
/// `out`; every other row keeps its value. A rewritten element is the
/// full GEMM's own chain — products in ascending `k` under the
/// zero-skip rule, then the bias, then the clamp — on the full GEMM's
/// kernel and tile position, so it equals the full GEMM over the
/// replaced rows bit for bit, NaN bits included. Returns how many rows
/// the recompute computed: the replaced rows, widened to whole `MR`
/// register tiles on the blocked kernel. Only the conv kernel calls it,
/// so it counts on no meter: `conv2d_rows` counts the recomputed rows
/// as a convolution.
///
/// # Panics
///
/// Panics if `spec` is not row-major, or a row is not `k` values long
/// or addresses a row past `m`.
pub(crate) fn gemm_rows(
    a: &[f32],
    rows: &[(usize, Vec<f32>)],
    b: &[f32],
    out: &mut [f32],
    spec: &GemmSpec<'_>,
    clamp: Option<Clamp>,
    path: KernelPath,
) -> usize {
    let (m, k, n) = (spec.m, spec.k, spec.n);
    assert!(spec.layout == BLayout::RowMajor, "gemm_rows replaces rows of a row-major GEMM");
    if rows.is_empty() || n == 0 {
        return 0;
    }
    let tiled = path == KernelPath::Blocked && m >= BLOCKED_MIN_M;
    let span = spans(rows, k, m, if tiled { MR } else { 1 });
    let a_sub = gather(&span, rows, a, k);
    let bias_rows: Vec<f32>;
    let bias = match spec.bias {
        Bias::PostPerRow(bias) => {
            bias_rows = span.iter().map(|&i| bias[i]).collect();
            Bias::PostPerRow(&bias_rows)
        }
        other => other,
    };
    let sub_spec = GemmSpec { m: span.len(), bias, ..*spec };
    let mut sub = vec![0.0f32; span.len() * n];
    run(&a_sub, b, None, &mut sub, &sub_spec, &clamp, path, m);
    for (src, i) in sub.chunks_exact(n).zip(&span) {
        if rows.iter().any(|(r, _)| r == i) {
            out[i * n..(i + 1) * n].copy_from_slice(src);
        }
    }
    span.len()
}

/// Recomputes some output features of a linear layer in place.
///
/// `out` (`[m, n]`) holds `x · Wᵀ` for `x` (`[m, k]`) and `w` (`[n, k]`)
/// plus the bias and `clamp` of `spec` (transposed `B`, no zero-skip, as
/// the linear layer runs it). Each `(j, w_j)` of `rows` replaces row `j`
/// of `W` (`k` values) and rewrites column `j` of `out`; every other
/// element keeps its value. A rewritten element is the full GEMM's own
/// chain — `bias[j]`, then the products in ascending `k`, then the
/// clamp — on the full GEMM's kernel and panel position (whole `NR`
/// panels on the blocked kernel), so it equals the full GEMM over the
/// replaced rows bit for bit, NaN bits included. Counts `2·m·k` FLOPs
/// per computed column on the matmul meter.
///
/// # Panics
///
/// Panics if `spec` is not transposed, or a row is not `k` values long
/// or addresses a column past `n`.
pub fn linear_rows(
    x: &[f32],
    w: &[f32],
    rows: &[(usize, Vec<f32>)],
    out: &mut [f32],
    spec: &GemmSpec<'_>,
    clamp: Option<Clamp>,
    path: KernelPath,
) {
    let (m, k, n) = (spec.m, spec.k, spec.n);
    assert!(spec.layout == BLayout::Transposed, "linear_rows replaces rows of a transposed B");
    if rows.is_empty() || m == 0 {
        return;
    }
    let span = spans(rows, k, n, if path == KernelPath::Blocked { NR } else { 1 });
    let w_sub = gather(&span, rows, w, k);
    let bias_cols: Vec<f32>;
    let bias = match spec.bias {
        Bias::InitPerCol(bias) => {
            bias_cols = span.iter().map(|&j| bias[j]).collect();
            Bias::InitPerCol(&bias_cols)
        }
        other => other,
    };
    let sub_spec = GemmSpec { n: span.len(), bias, ..*spec };
    let mut sub = vec![0.0f32; m * span.len()];
    crate::meter::matmul(m, k, span.len());
    run(x, &w_sub, None, &mut sub, &sub_spec, &clamp, path, m);
    for (dst, src) in out.chunks_exact_mut(n).zip(sub.chunks_exact(span.len())) {
        for (&j, &v) in span.iter().zip(src) {
            if rows.iter().any(|(r, _)| *r == j) {
                dst[j] = v;
            }
        }
    }
}

/// The indices `0..len` to recompute for the replaced `rows`: every
/// aligned span of `tile` indices that holds one, in ascending order.
fn spans(rows: &[(usize, Vec<f32>)], k: usize, len: usize, tile: usize) -> Vec<usize> {
    let mut starts: Vec<usize> = rows
        .iter()
        .map(|(i, row)| {
            assert!(*i < len && row.len() == k, "row {i} of {} values, for {len} rows of {k}", row.len());
            i / tile * tile
        })
        .collect();
    starts.sort_unstable();
    starts.dedup();
    starts.into_iter().flat_map(|s| s..(s + tile).min(len)).collect()
}

/// The operand rows `span` of the `k`-wide row-major `full`, each taken
/// from `rows` where it is replaced.
fn gather(span: &[usize], rows: &[(usize, Vec<f32>)], full: &[f32], k: usize) -> Vec<f32> {
    let mut sub = Vec::with_capacity(span.len() * k);
    for &i in span {
        match rows.iter().find(|(r, _)| *r == i) {
            Some((_, row)) => sub.extend_from_slice(row),
            None => sub.extend_from_slice(&full[i * k..(i + 1) * k]),
        }
    }
    sub
}

// ---------------------------------------------------------------------------
// Reference path: the historical scalar kernels plus separate passes.
// ---------------------------------------------------------------------------

/// Computes rows `row0..` of the output into `out_rows` using the
/// reference operation order: the GEMM sum first (i-k-j for row-major
/// `B`, i-j-k dot products for transposed `B` — per element both are
/// "init, then products in ascending `k` order"), then a separate
/// per-row bias pass, then a separate epilogue pass. This is exactly
/// the pre-blocked `matmul_rows` + conv bias-pass sequence.
fn reference_chunk<E: Epilogue>(
    a: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    spec: &GemmSpec<'_>,
    epi: &E,
) {
    let (k, n) = (spec.k, spec.n);
    let rows = out_rows.len() / n;
    match spec.layout {
        BLayout::RowMajor => {
            if let Bias::InitPerCol(bias) = spec.bias {
                for r in 0..rows {
                    out_rows[r * n..(r + 1) * n].copy_from_slice(bias);
                }
            }
            for r in 0..rows {
                let i = row0 + r;
                for kk in 0..k {
                    let av = a[i * k + kk];
                    if spec.skip_zero_a && av == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..(kk + 1) * n];
                    let dst = &mut out_rows[r * n..(r + 1) * n];
                    for (d, &bv) in dst.iter_mut().zip(brow.iter()) {
                        *d += av * bv;
                    }
                }
            }
        }
        BLayout::Transposed => {
            for r in 0..rows {
                let i = row0 + r;
                let xin = &a[i * k..(i + 1) * k];
                for (j, dst) in out_rows[r * n..(r + 1) * n].iter_mut().enumerate() {
                    let mut acc = match spec.bias {
                        Bias::InitPerCol(bias) => bias[j],
                        _ => 0.0,
                    };
                    let col = &b[j * k..(j + 1) * k];
                    for (&av, &bv) in xin.iter().zip(col.iter()) {
                        if spec.skip_zero_a && av == 0.0 {
                            continue;
                        }
                        acc += av * bv;
                    }
                    *dst = acc;
                }
            }
        }
    }
    if let Bias::PostPerRow(bias) = spec.bias {
        for r in 0..rows {
            let bv = bias[row0 + r];
            for d in &mut out_rows[r * n..(r + 1) * n] {
                *d += bv;
            }
        }
    }
    if !epi.is_identity() {
        for r in 0..rows {
            for (j, d) in out_rows[r * n..(r + 1) * n].iter_mut().enumerate() {
                *d = epi.apply((row0 + r) * n + j, *d);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked path: packed panels + register-tiled microkernels.
// ---------------------------------------------------------------------------

/// [`pack_b`], counted on the pack meter.
fn pack_metered(b: &[f32], k: usize, n: usize, layout: BLayout) -> Vec<f32> {
    let packed = pack_b(b, k, n, layout);
    crate::meter::gemm_pack(packed.len());
    packed
}

/// Packs `B` into NR-wide column panels, panel-major:
/// `packed[p][kk][j] = B[kk][p * NR + j]`, zero-padded in the last
/// panel. The packed layout makes the microkernel's inner loop a pure
/// sequential stream regardless of the original layout.
fn pack_b(b: &[f32], k: usize, n: usize, layout: BLayout) -> Vec<f32> {
    let panels = n.div_ceil(NR);
    let mut packed = vec![0.0f32; panels * k * NR];
    for (p, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let nr = NR.min(n - j0);
        match layout {
            BLayout::RowMajor => {
                for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                    let src = &b[kk * n + j0..kk * n + j0 + nr];
                    dst[..nr].copy_from_slice(src);
                }
            }
            BLayout::Transposed => {
                for j in 0..nr {
                    let col = &b[(j0 + j) * k..(j0 + j) * k + k];
                    for (kk, &v) in col.iter().enumerate() {
                        panel[kk * NR + j] = v;
                    }
                }
            }
        }
    }
    packed
}

/// Row super-block target: the `A` rows live in L2 while every packed
/// panel streams across them, so `A` is read from memory once per GEMM
/// call instead of once per panel.
const MC_L2_BYTES: usize = 256 * 1024;

/// Rows per super-block for a given inner dimension, rounded down to a
/// whole number of register tiles. Purely a cache-shaping choice: tile
/// visit order never changes any per-element accumulation chain.
fn mc_rows(k: usize) -> usize {
    (MC_L2_BYTES / (4 * k.max(1))).max(MR) / MR * MR
}

/// Computes rows `row0..` of the output from the shared packed `B`.
/// Within each row super-block, per column panel, each MR×NR register
/// tile accumulates over the full `k` range in registers, then bias and
/// epilogue apply in the fixed per-element order before the tile is
/// stored.
fn blocked_chunk<E: Epilogue>(
    a: &[f32],
    packed: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    spec: &GemmSpec<'_>,
    epi: &E,
    simd: bool,
) {
    let (k, n) = (spec.k, spec.n);
    let rows = out_rows.len() / n;
    let skip = spec.skip_zero_a;
    let apply_epi = !epi.is_identity();
    let mc = mc_rows(k);
    let mut rb0 = 0;
    while rb0 < rows {
        let rend = rows.min(rb0 + mc);
        blocked_superblock(a, packed, out_rows, row0, rb0, rend, spec, epi, simd, skip, apply_epi);
        rb0 = rend;
    }
}

/// One row super-block of [`blocked_chunk`]: rows `rb0..rend` of the
/// chunk against every column panel.
#[allow(clippy::too_many_arguments)]
fn blocked_superblock<E: Epilogue>(
    a: &[f32],
    packed: &[f32],
    out_rows: &mut [f32],
    row0: usize,
    rb0: usize,
    rend: usize,
    spec: &GemmSpec<'_>,
    epi: &E,
    simd: bool,
    skip: bool,
    apply_epi: bool,
) {
    let (k, n) = (spec.k, spec.n);
    for (p, panel) in packed.chunks_exact(k * NR).enumerate() {
        let j0 = p * NR;
        if j0 >= n {
            break;
        }
        let nr = NR.min(n - j0);
        let mut r0 = rb0;
        while r0 < rend {
            let mr = MR.min(rend - r0);
            let mut acc = [[0.0f32; NR]; MR];
            if let Bias::InitPerCol(bias) = spec.bias {
                for acc_r in acc.iter_mut().take(mr) {
                    acc_r[..nr].copy_from_slice(&bias[j0..j0 + nr]);
                }
            }
            #[cfg(target_arch = "x86_64")]
            if simd {
                // SAFETY: AVX2 availability is checked at runtime by
                // `simd_available`; slice bounds are guaranteed by the
                // spec invariants (a is [m,k], panel is [k,NR]).
                unsafe { tile_avx2(a, row0 + r0, mr, k, panel, skip, &mut acc) };
            } else {
                tile_portable(a, row0 + r0, mr, k, panel, skip, &mut acc);
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let _ = simd;
                tile_portable(a, row0 + r0, mr, k, panel, skip, &mut acc);
            }
            for (r, acc_r) in acc.iter().enumerate().take(mr) {
                let grow = row0 + r0 + r;
                let dst = &mut out_rows[(r0 + r) * n + j0..(r0 + r) * n + j0 + nr];
                dst.copy_from_slice(&acc_r[..nr]);
                if let Bias::PostPerRow(bias) = spec.bias {
                    let bv = bias[grow];
                    for d in dst.iter_mut() {
                        *d += bv;
                    }
                }
                if apply_epi {
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = epi.apply(grow * n + j0 + j, *d);
                    }
                }
            }
            r0 += mr;
        }
    }
}

/// Portable MR×NR microkernel. The fixed-size inner loop over `NR`
/// autovectorizes; per output element the adds happen in ascending `kk`
/// order with the same zero-skip rule as the reference kernel.
fn tile_portable(
    a: &[f32],
    arow0: usize,
    mr: usize,
    k: usize,
    panel: &[f32],
    skip: bool,
    acc: &mut [[f32; NR]; MR],
) {
    for (kk, brow) in panel.chunks_exact(NR).enumerate().take(k) {
        for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
            let av = a[(arow0 + r) * k + kk];
            if skip && av == 0.0 {
                continue;
            }
            for (d, &bv) in acc_r.iter_mut().zip(brow.iter()) {
                *d += av * bv;
            }
        }
    }
}

/// AVX2 mr×NR microkernel: identical operation order to
/// [`tile_portable`], executed on 8-lane vectors. Uses separate
/// multiply and add instructions — **never FMA** — so every lane
/// produces the exactly-rounded `f32` result of the scalar kernel.
/// Handles partial tiles (`mr < MR`) by simply bounding the row loop;
/// full tiles keep all `2·MR` accumulators register-resident.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `panel.len() >= k * NR` and
/// `a` covers rows `arow0..arow0 + mr` of an `[_, k]` matrix.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(
    a: &[f32],
    arow0: usize,
    mr: usize,
    k: usize,
    panel: &[f32],
    skip: bool,
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
    for (r, acc_r) in acc.iter().enumerate().take(mr) {
        c[r][0] = _mm256_loadu_ps(acc_r.as_ptr());
        c[r][1] = _mm256_loadu_ps(acc_r.as_ptr().add(8));
    }
    let ap = a.as_ptr();
    let pp = panel.as_ptr();
    for kk in 0..k {
        let b0 = _mm256_loadu_ps(pp.add(kk * NR));
        let b1 = _mm256_loadu_ps(pp.add(kk * NR + 8));
        for (r, cr) in c.iter_mut().enumerate().take(mr) {
            let av = *ap.add((arow0 + r) * k + kk);
            if skip && av == 0.0 {
                continue;
            }
            let va = _mm256_set1_ps(av);
            cr[0] = _mm256_add_ps(cr[0], _mm256_mul_ps(va, b0));
            cr[1] = _mm256_add_ps(cr[1], _mm256_mul_ps(va, b1));
        }
    }
    for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
        _mm256_storeu_ps(acc_r.as_mut_ptr(), c[r][0]);
        _mm256_storeu_ps(acc_r.as_mut_ptr().add(8), c[r][1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_rng::Rng;

    fn random(rng: &mut Rng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| {
                // Sprinkle exact zeros so the skip rule is exercised.
                let v: f32 = rng.gen_range(-2.0..2.0);
                if rng.gen_range(0.0..1.0) < 0.15 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    fn run(spec: &GemmSpec<'_>, a: &[f32], b: &[f32], path: KernelPath) -> Vec<f32> {
        let mut out = vec![0.0f32; spec.m * spec.n];
        gemm(a, b, &mut out, spec, path);
        out
    }

    #[test]
    fn blocked_matches_reference_over_shape_sweep() {
        let mut rng = Rng::from_seed(0xC0FFEE);
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 3, 37),
            (5, 1, NR),
            (MR, 7, NR + 1),
            (MR + 1, 16, NR - 1),
            (2 * MR + 3, 33, 2 * NR + 5),
            (17, 64, 9),
        ] {
            let a = random(&mut rng, m * k);
            let b = random(&mut rng, k * n);
            for layout in [BLayout::RowMajor, BLayout::Transposed] {
                for skip in [false, true] {
                    let spec =
                        GemmSpec { m, k, n, layout, skip_zero_a: skip, bias: Bias::None };
                    let r = run(&spec, &a, &b, KernelPath::Reference);
                    let bl = run(&spec, &a, &b, KernelPath::Blocked);
                    for (x, y) in r.iter().zip(bl.iter()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} {layout:?} skip={skip}");
                    }
                }
            }
        }
    }

    #[test]
    fn bias_modes_match_between_paths() {
        let mut rng = Rng::from_seed(7);
        let (m, k, n) = (9, 13, NR + 3);
        let a = random(&mut rng, m * k);
        let b = random(&mut rng, k * n);
        let row_bias = random(&mut rng, m);
        let col_bias = random(&mut rng, n);
        for bias in [Bias::PostPerRow(&row_bias), Bias::InitPerCol(&col_bias)] {
            let spec = GemmSpec { m, k, n, layout: BLayout::RowMajor, skip_zero_a: false, bias };
            let r = run(&spec, &a, &b, KernelPath::Reference);
            let bl = run(&spec, &a, &b, KernelPath::Blocked);
            assert_eq!(
                r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                bl.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn clamp_matches_range_restrict_semantics() {
        let clip = Clamp { lo: -1.0, hi: 2.0, mode: ClampMode::Clip };
        assert_eq!(clip.apply(-5.0), -1.0);
        assert_eq!(clip.apply(0.5), 0.5);
        assert_eq!(clip.apply(99.0), 2.0);
        assert_eq!(clip.apply(f32::NAN), -1.0);
        assert_eq!(clip.apply(f32::INFINITY), 2.0);
        let zero = Clamp { lo: -1.0, hi: 2.0, mode: ClampMode::Zero };
        assert_eq!(zero.apply(-5.0), 0.0);
        assert_eq!(zero.apply(0.5), 0.5);
        assert_eq!(zero.apply(f32::NAN), 0.0);
        assert_eq!(zero.apply(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn zero_skip_is_semantically_visible_with_inf_operands() {
        // With Inf in B, skipping a == 0.0 avoids 0 * Inf = NaN: both
        // paths must agree on this *semantic* (not just perf) rule.
        let a = vec![0.0f32, 1.0];
        let mut b = vec![1.0f32; 2 * NR];
        b[0] = f32::INFINITY;
        let spec = GemmSpec {
            m: 1,
            k: 2,
            n: NR,
            layout: BLayout::RowMajor,
            skip_zero_a: true,
            bias: Bias::None,
        };
        let r = run(&spec, &a, &b, KernelPath::Reference);
        let bl = run(&spec, &a, &b, KernelPath::Blocked);
        assert!(r[0].is_finite());
        assert_eq!(r[0].to_bits(), bl[0].to_bits());
        let no_skip = GemmSpec { skip_zero_a: false, ..spec };
        let r2 = run(&no_skip, &a, &b, KernelPath::Reference);
        let bl2 = run(&no_skip, &a, &b, KernelPath::Blocked);
        assert!(r2[0].is_nan());
        assert_eq!(r2[0].to_bits(), bl2[0].to_bits());
    }

    #[test]
    fn kernel_env_values_parse_or_are_rejected() {
        for (v, want) in [
            (None, KernelPath::Blocked),
            (Some(""), KernelPath::Blocked),
            (Some("reference"), KernelPath::Reference),
            (Some(" Reference "), KernelPath::Reference),
            (Some("BLOCKED"), KernelPath::Blocked),
        ] {
            assert_eq!(parse_kernel_env(v), Ok(want), "{v:?}");
        }
        for (v, want) in [(None, false), (Some(""), false), (Some("0"), false), (Some("No"), false)] {
            assert_eq!(parse_portable_env(v), Ok(want), "{v:?}");
        }
        for v in ["1", "true", " YES "] {
            assert_eq!(parse_portable_env(Some(v)), Ok(true), "{v:?}");
        }
        let err = parse_kernel_env(Some("refrence")).unwrap_err();
        assert_eq!(err.to_string(), "ALFI_KERNEL=\"refrence\" is not one of reference|blocked (or unset)");
        assert!(parse_kernel_env(Some("fast")).is_err());
        let err = parse_portable_env(Some(" on ")).unwrap_err();
        assert_eq!((err.var, err.value.as_str()), (KERNEL_PORTABLE_ENV, "on"));
        assert!(err.to_string().contains("1|true|yes|0|false|no"), "{err}");
        assert!(parse_portable_env(Some("2")).is_err());
    }

    #[test]
    fn kernel_path_parsing_and_override() {
        assert_eq!("reference".parse::<KernelPath>().unwrap(), KernelPath::Reference);
        assert_eq!("Blocked".parse::<KernelPath>().unwrap(), KernelPath::Blocked);
        assert!("fast".parse::<KernelPath>().is_err());
        let prev = kernel_override();
        set_kernel_override(Some(KernelPath::Reference));
        assert_eq!(kernel_path(), KernelPath::Reference);
        set_kernel_override(prev);
    }

    #[test]
    fn fused_epilogue_identity_detection() {
        assert!(None::<Clamp>.is_identity());
        let epi = Some(Clamp { lo: 0.0, hi: 1.0, mode: ClampMode::Clip });
        assert!(!epi.is_identity());
    }
}
