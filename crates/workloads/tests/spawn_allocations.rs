//! A spawn must not heap-allocate its task: a closure that fits a task
//! descriptor's inline area is stored there. A counting global allocator
//! checks this end to end on cholesky, whose `mul_subtract` forks the
//! largest closures of the paper's workloads: on a one-worker pool (every
//! spawn pushed and joined, none stolen) the factorization may allocate
//! only a little more than on the serial executor, which spawns nothing.
//!
//! This file holds a single test, so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use workloads::cholesky::{cholesky, spd_random, QTree};
use ws_baseline::SerialExecutor;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Relaxed);
    let r = f();
    (r, ALLOCS.load(Relaxed) - before)
}

#[test]
fn cholesky_spawns_do_not_allocate() {
    let (n, nnz) = (500, 2000);
    let m = spd_random(n, nnz, 0xC0DE + n as u64);
    let size = m.size;
    let (serial_tree, pool_tree) = (QTree::clone(&m.tree), m.tree);

    let mut serial = SerialExecutor::new();
    let (want, serial_allocs) =
        allocations(|| serial.run(|c| cholesky(c, size, serial_tree)).abs_sum());

    let mut pool: wool_core::Pool = wool_core::Pool::new(1);
    let (got, pool_allocs) = allocations(|| pool.run(|h| cholesky(h, size, pool_tree)).abs_sum());
    let spawns = pool.last_report().unwrap().total.spawns;

    assert_eq!(got, want);
    assert!(spawns > 0);
    assert!(
        pool_allocs as f64 <= 1.1 * serial_allocs as f64,
        "one-worker pool allocated {pool_allocs} times for {spawns} spawns, \
         the serial executor {serial_allocs} times"
    );
}
