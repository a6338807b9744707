//! Heap-allocation budget of the kernel hot path.
//!
//! A one-core launch runs every kernel task on the enqueuing thread, so a
//! counting global allocator with a thread-local count sees the whole
//! evaluation: host tilize, the DRAM transfers and every tile op of the
//! reader, compute and writer kernels. Once warm, the tile ops draw their
//! storage from the per-thread tile pool, so what is left is per-launch
//! bookkeeping (the program, the CB rings, the result vectors) and the
//! few arrays that overflow the pool, which grow with the number of
//! launches and tiles, not with the number of particle pairs. Each
//! evaluation is counted after one warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::{DeviceForcePipeline, ForceEvaluator, ForceKernelKind};
use tensix::{Device, DeviceConfig};

/// Allocations allowed in one warm one-core evaluation. Without pooled
/// tile storage the elementwise case makes ~86 000 and the matrix case
/// ~16 000; with it, 98 and 439.
const BUDGET: u64 = 1_000;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as received; see the impl's comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as received; see the impl's comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as received; see the impl's comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received; see the impl's comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations on this thread during one warm one-core evaluation of
/// `n` Plummer particles with the `kind` kernel.
fn allocations_per_evaluation(kind: ForceKernelKind, n: usize) -> u64 {
    let sys = plummer(PlummerConfig { n, seed: 27, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new_with_kernel(device, n, 0.02, 1, kind).unwrap();
    let warm = pipeline.evaluate_checked(&sys).unwrap();
    let before = ALLOCS.with(Cell::get);
    let forces = pipeline.evaluate_checked(&sys).unwrap();
    let count = ALLOCS.with(Cell::get) - before;
    assert_eq!(forces.acc, warm.acc, "repeated evaluations must agree");
    count
}

#[test]
fn elementwise_evaluation_stays_within_the_allocation_budget() {
    let count = allocations_per_evaluation(ForceKernelKind::Elementwise, 2048);
    assert!(count <= BUDGET, "elementwise N = 2048: {count} allocations, budget {BUDGET}");
}

#[test]
fn matrix_evaluation_stays_within_the_allocation_budget() {
    let count = allocations_per_evaluation(ForceKernelKind::Matrix, 1024);
    assert!(count <= BUDGET, "matrix N = 1024: {count} allocations, budget {BUDGET}");
}
