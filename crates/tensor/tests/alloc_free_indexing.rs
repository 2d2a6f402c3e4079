//! Element indexing allocates nothing, and a batch-1 blocked
//! convolution allocates only its packed operand and its output.
//!
//! `Tensor::get` / `Tensor::set` resolve their offset through
//! `Shape::flat_index`, which the detector decoders and the training
//! loop call per element; an allocation there costs more than the read
//! itself. On the blocked path `conv2d_fused` lowers the input straight
//! into the GEMM's `NR`-wide packed panels, so a batch item costs one
//! buffer of `⌈h_out·w_out / NR⌉ · NR · c_in·kh·kw` values besides the
//! output tensor: no im2col matrix is written first. This binary
//! installs a counting global allocator (it counts only the calling
//! thread's allocations and bytes, so the test harness's own threads
//! cannot disturb it) and pins that 10 000 reads and 10 000 writes
//! allocate zero times, and the conv's allocations and bytes exactly.

use alfi_tensor::conv::{conv2d_fused, ConvConfig};
use alfi_tensor::gemm::{self, KernelPath, NR, PAR_MIN_MACS};
use alfi_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    // `const` initialisation with no destructor: touching it never
    // allocates, so the allocator below can use it without recursion.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with` fails only during thread teardown, where nothing is measured.
    let _ = ALLOCATED.try_with(|c| {
        let (n, total) = c.get();
        c.set((n + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and allocated bytes on this thread so far.
fn allocated() -> (u64, u64) {
    ALLOCATED.with(Cell::get)
}

#[test]
fn the_counter_sees_allocations() {
    let before = allocated();
    black_box(vec![0u8; 16]);
    assert!(allocated().0 > before.0, "the counting allocator is not installed");
    assert!(allocated().1 >= before.1 + 16, "the counting allocator does not count bytes");
}

#[test]
fn element_get_and_set_allocate_nothing() {
    let mut t = Tensor::zeros(&[2, 3, 4, 5]);
    let before = allocated().0;
    for k in 0..10_000usize {
        let index = [k % 2, k % 3, k % 4, k % 5];
        let v = t.get(black_box(&index));
        t.set(black_box(&index), v + 1.0);
    }
    let after = allocated().0;
    assert_eq!(after - before, 0, "Tensor::get/set allocated {} times", after - before);
    assert_eq!(t.data().iter().sum::<f32>(), 10_000.0);
}

#[test]
fn a_batch_one_blocked_conv_allocates_its_pack_and_its_output() {
    // 15×15 outputs leave a ragged last panel; the GEMM stays below the
    // fan-out floor at any pool width, so no pool job allocates either.
    let (c_in, c_out, hw, k) = (8, 16, 15, 3);
    let spatial = hw * hw;
    assert!(c_out >= gemm::BLOCKED_MIN_M && c_out * c_in * k * k * spatial < PAR_MIN_MACS);
    let input = Tensor::from_vec((0..c_in * spatial).map(|i| i as f32 * 0.25).collect(), &[1, c_in, hw, hw]).unwrap();
    let weight = Tensor::ones(&[c_out, c_in, k, k]);
    let bias = Tensor::zeros(&[c_out]);
    let cfg = ConvConfig::new(1, 1).unwrap();

    let prev = gemm::kernel_override();
    gemm::set_kernel_override(Some(KernelPath::Blocked));
    // The first call resolves the kernel path and sizes the pool.
    black_box(conv2d_fused(&input, &weight, Some(&bias), cfg, None).unwrap());
    let before = allocated();
    let out = conv2d_fused(black_box(&input), &weight, Some(&bias), cfg, None).unwrap();
    let after = allocated();
    gemm::set_kernel_override(prev);

    assert_eq!(out.dims(), &[1, c_out, hw, hw]);
    let packed = spatial.div_ceil(NR) * NR * c_in * k * k;
    let output = c_out * spatial;
    let dims = 4 * std::mem::size_of::<usize>();
    assert_eq!(after.0 - before.0, 3, "the packed operand, the output data and the output dims");
    assert_eq!(after.1 - before.1, (4 * (packed + output) + dims) as u64);
}
