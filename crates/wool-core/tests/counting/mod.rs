//! A counting global allocator for the allocation tests. It counts
//! every allocation and free of the whole process, so a test binary
//! that installs it holds a single test: no other test allocates while
//! it counts, and no finishing test frees its thread's blocks inside
//! another's window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

/// Blocks allocated so far. A realloc, left to `GlobalAlloc`'s default,
/// allocates one block and frees another.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Blocks freed so far.
pub static FREES: AtomicU64 = AtomicU64::new(0);

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

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
