//! `coco_metrics` allocates per class, not per image or per threshold.
//!
//! A detection campaign evaluates hundreds of images of which most hold
//! ground truth but no detection (a fault-free untrained detector finds
//! nothing). This binary installs a counting global allocator (it counts
//! only the calling thread's allocations, so the test harness's own
//! threads cannot disturb it) and pins that one `coco_metrics` call over
//! 600 such images allocates no more than over the 6 images that hold
//! every detection, plus a small constant.

use alfi_datasets::GroundTruthBox;
use alfi_eval::coco_metrics;
use alfi_nn::detection::{BBox, Detection};
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

const CLASSES: usize = 8;

fn gt(i: usize) -> GroundTruthBox {
    let (x, y) = ((i % 7) as f32 * 12.0, (i % 5) as f32 * 15.0);
    GroundTruthBox { bbox: [x, y, 20.0, 16.0], category_id: i % CLASSES }
}

/// `images` images with three ground-truth boxes each; only the first
/// six hold detections (40 each, over every class, hits and misses).
fn dataset(images: usize) -> (Vec<Vec<Detection>>, Vec<Vec<GroundTruthBox>>) {
    let gts: Vec<Vec<GroundTruthBox>> =
        (0..images).map(|img| (0..3).map(|k| gt(3 * img + k)).collect()).collect();
    let dets = gts
        .iter()
        .enumerate()
        .map(|(img, boxes)| {
            if img >= 6 {
                return Vec::new();
            }
            (0..40)
                .map(|k| {
                    let g = &boxes[k % boxes.len()];
                    let shift = (k / 3) as f32 * 1.5;
                    let [x, y, w, h] = g.bbox;
                    // Every fourth detection names the wrong class.
                    let class_id = (g.category_id + usize::from(k % 4 == 3)) % CLASSES;
                    Detection {
                        bbox: BBox::new(x + shift, y, x + w + shift, y + h),
                        score: 1.0 - (k % 9) as f32 * 0.1,
                        class_id,
                    }
                })
                .collect()
        })
        .collect();
    (dets, gts)
}

fn allocations_of(dets: &[Vec<Detection>], gts: &[Vec<GroundTruthBox>]) -> u64 {
    let before = allocations();
    black_box(coco_metrics(black_box(dets), black_box(gts), CLASSES));
    allocations() - before
}

#[test]
fn the_counter_sees_allocations() {
    let before = allocations();
    black_box(vec![0u8; 16]);
    assert!(allocations() > before, "the counting allocator is not installed");
}

#[test]
fn coco_metrics_allocates_per_class_not_per_image() {
    let (few_dets, few_gts) = dataset(6);
    let (many_dets, many_gts) = dataset(600);
    let few = allocations_of(&few_dets, &few_gts);
    let many = allocations_of(&many_dets, &many_gts);
    let m = coco_metrics(&many_dets, &many_gts, CLASSES);
    assert!(m.map_50 > 0.0 && m.ar_100 > 0.0, "the detections must hit: {m:?}");
    assert!(
        many <= few + 16,
        "coco_metrics allocated {many} times over 600 images, {few} times over 6"
    );
}
