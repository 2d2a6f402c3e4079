//! Element indexing allocates nothing.
//!
//! `Tensor::get` / `Tensor::set` resolve their offset through
//! `Shape::flat_index`, which the detector decoders and the training
//! loop call per element; an allocation there costs more than the read
//! itself. This binary installs a counting global allocator (it counts
//! only the calling thread's allocations, so the test harness's own
//! threads cannot disturb it) and pins that 10 000 reads and 10 000
//! writes allocate zero times.

use alfi_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    // `const` initialisation with no destructor: touching it never
    // allocates, so the allocator below can use it without recursion.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with` fails only during thread teardown, where nothing is measured.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn the_counter_sees_allocations() {
    let before = allocations();
    black_box(vec![0u8; 16]);
    assert!(allocations() > before, "the counting allocator is not installed");
}

#[test]
fn element_get_and_set_allocate_nothing() {
    let mut t = Tensor::zeros(&[2, 3, 4, 5]);
    let before = allocations();
    for k in 0..10_000usize {
        let index = [k % 2, k % 3, k % 4, k % 5];
        let v = t.get(black_box(&index));
        t.set(black_box(&index), v + 1.0);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "Tensor::get/set allocated {} times", after - before);
    assert_eq!(t.data().iter().sum::<f32>(), 10_000.0);
}
