//! Kernel instrumentation into the global `alfi-metrics` registry.
//!
//! One relaxed shard add per *kernel invocation* — never per element —
//! and only while `alfi_metrics::global_enabled()`; a disabled run
//! pays a single relaxed load per kernel call. Every public GEMM entry
//! of [`crate::gemm`] counts on the matmul counters — matmul, the
//! `alfi-nn` linear layers and attention's products; the conv kernel
//! runs its GEMMs past them, and the conv counters measure the
//! convolution as a whole, so no FLOP counts twice. B-panel packing bytes
//! for the blocked GEMM are accounted once per GEMM invocation —
//! packing writes each operand element exactly once regardless of how
//! many register tiles later stream the panel.

use alfi_metrics::{names, Class, Counter};
use std::sync::OnceLock;

struct Handles {
    matmul_flops: Counter,
    matmul_bytes: Counter,
    conv_flops: Counter,
    conv_bytes: Counter,
    gemm_pack_bytes: Counter,
}

fn handles() -> &'static Handles {
    static H: OnceLock<Handles> = OnceLock::new();
    H.get_or_init(|| {
        let reg = alfi_metrics::global();
        Handles {
            matmul_flops: reg.counter(
                names::TENSOR_MATMUL_FLOPS,
                "Floating-point operations issued by the matmul kernel",
                Class::Runtime,
            ),
            matmul_bytes: reg.counter(
                names::TENSOR_MATMUL_BYTES,
                "Bytes of operand and result data touched by the matmul kernel",
                Class::Runtime,
            ),
            conv_flops: reg.counter(
                names::TENSOR_CONV_FLOPS,
                "Floating-point operations issued by the im2col conv kernel",
                Class::Runtime,
            ),
            conv_bytes: reg.counter(
                names::TENSOR_CONV_BYTES,
                "Bytes of operand and result data touched by the im2col conv kernel",
                Class::Runtime,
            ),
            gemm_pack_bytes: reg.counter(
                names::TENSOR_GEMM_PACK_BYTES,
                "Bytes written into packed B panels by the blocked GEMM (once per GEMM call)",
                Class::Runtime,
            ),
        }
    })
}

/// Counts one `[m,k] × [k,n]` GEMM (2·m·k·n FLOPs, f32 operands).
#[inline]
pub(crate) fn matmul(m: usize, k: usize, n: usize) {
    if alfi_metrics::global_enabled() {
        let h = handles();
        h.matmul_flops.add(2 * (m * k * n) as u64);
        h.matmul_bytes.add(4 * (m * k + k * n + m * n) as u64);
    }
}

/// Counts one im2col convolution over a whole batch.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the conv kernel's geometry parameters
pub(crate) fn conv2d(
    batch: usize,
    c_in: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    spatial_out: usize,
    input_elems: usize,
    weight_elems: usize,
) {
    if alfi_metrics::global_enabled() {
        let h = handles();
        let macs = batch * c_out * spatial_out * c_in * kh * kw;
        h.conv_flops.add(2 * macs as u64);
        h.conv_bytes
            .add(4 * (input_elems + weight_elems + batch * c_out * spatial_out) as u64);
    }
}

/// Counts one blocked-GEMM B-pack of `packed_elems` f32 elements.
/// Called exactly once per GEMM invocation, *not* per tile: the packed
/// buffer is written once and then shared (read-only) by every worker
/// and register tile, so charging it per tile would overstate traffic
/// by `m / MR ×`.
#[inline]
pub(crate) fn gemm_pack(packed_elems: usize) {
    if alfi_metrics::global_enabled() {
        handles().gemm_pack_bytes.add(4 * packed_elems as u64);
    }
}
