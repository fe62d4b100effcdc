//! The TBB-like pool's task queue: a Chase–Lev deque of task pointers.
//!
//! Single owner, many thieves. The owner pushes and pops at the bottom
//! end; any thread steals from the top end through a shared reference.
//!
//! The implementation follows Chase & Lev, *Dynamic circular work-stealing
//! deque* (SPAA 2005), with the relaxed-memory orderings of Lê, Pop,
//! Cohen & Zappa Nardelli, *Correct and efficient work-stealing for weak
//! memory models* (PPoPP 2013). The structural choice that matters for
//! the paper reproduction is the **SeqCst fence in `pop`**: the owner's
//! common-case pop pays a full fence (or equivalent atomic) to close the
//! race with thieves on the last element. The Wool direct task stack
//! avoids this by synchronizing on the task descriptor instead; the
//! difference is measured by the `deque` bench and shows up in
//! Table II/III reproductions.
//!
//! The cells are `AtomicPtr`s read and written `Relaxed` (plain `mov`s
//! on x86): a stale thief's read of a cell the owner is rewriting after
//! wrap-around is then a benign race whose value the failed CAS on
//! `top` discards, not a data race.
//!
//! # Memory reclamation
//!
//! When the deque grows, the old buffer cannot be freed immediately:
//! a concurrent thief may still be reading from it. We retire old buffers
//! into a list that is freed when the deque itself is dropped. Because
//! buffers double in size, the retired memory is at most the size of the
//! live buffer, so this simple scheme wastes a bounded amount of memory
//! and needs no epoch machinery.

use std::ptr;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::Mutex;

use crate::node::TaskHeader;
use crate::NodeQueue;

/// Initial buffer capacity (a power of two).
const MIN_CAP: usize = 64;

/// A fixed-size circular buffer of task pointers, indexed modulo its
/// capacity; `top`/`bottom` say which cells are live.
struct Buffer {
    cells: Box<[AtomicPtr<TaskHeader>]>,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
}

impl Buffer {
    fn alloc(cap: usize) -> *mut Buffer {
        debug_assert!(cap.is_power_of_two());
        let cells = (0..cap).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        Box::into_raw(Box::new(Buffer {
            cells,
            mask: cap - 1,
        }))
    }

    fn cap(&self) -> isize {
        (self.mask + 1) as isize
    }

    fn cell(&self, i: isize) -> &AtomicPtr<TaskHeader> {
        &self.cells[i as usize & self.mask]
    }
}

/// A dynamically-growing Chase–Lev deque of task pointers.
pub struct ChaseLev {
    /// Next slot the owner will push to (bottom end, grows upward).
    bottom: AtomicIsize,
    /// Oldest live element (top end, thieves take from here).
    top: AtomicIsize,
    /// Current buffer. Replaced (never mutated in place) on growth.
    buf: AtomicPtr<Buffer>,
    /// Buffers retired by `grow`, freed on drop.
    retired: Mutex<Vec<*mut Buffer>>,
}

// SAFETY: the raw pointers in `retired` are owned by the deque and only
// freed in `drop`; everything else is atomics.
unsafe impl Send for ChaseLev {}
unsafe impl Sync for ChaseLev {}

impl ChaseLev {
    fn buffer(&self, order: Ordering) -> &Buffer {
        // SAFETY: a buffer is freed only when the deque is dropped.
        unsafe { &*self.buf.load(order) }
    }

    /// Doubles the buffer, copying the live cells `[t, b)`. Owner-only.
    #[cold]
    fn grow(&self, b: isize, t: isize) -> &Buffer {
        let old = self.buf.load(Relaxed);
        // SAFETY: `old` lives until drop, and `new` is not shared yet.
        unsafe {
            let new = Buffer::alloc(2 * (*old).cap() as usize);
            for i in t..b {
                (*new).cell(i).store((*old).cell(i).load(Relaxed), Relaxed);
            }
            // Release so thieves that Acquire-load the new pointer see
            // the copied cells.
            self.buf.store(new, Release);
            self.retired.lock().unwrap().push(old);
            &*new
        }
    }
}

impl NodeQueue for ChaseLev {
    fn new() -> Self {
        ChaseLev {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buf: AtomicPtr::new(Buffer::alloc(MIN_CAP)),
            retired: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    unsafe fn push(&self, node: *mut TaskHeader) {
        let b = self.bottom.load(Relaxed);
        let t = self.top.load(Acquire);
        let mut buf = self.buffer(Relaxed);
        // `b - t` overestimates the size: `top` only grows.
        if b - t >= buf.cap() {
            buf = self.grow(b, t);
        }
        buf.cell(b).store(node, Relaxed);
        // The Release store pairs with the Acquire load of `bottom` in
        // `steal`, making the cell (and the node) visible before the
        // new size.
        self.bottom.store(b + 1, Release);
    }

    #[inline]
    unsafe fn pop(&self) -> Option<*mut TaskHeader> {
        let b = self.bottom.load(Relaxed) - 1;
        let buf = self.buffer(Relaxed);
        self.bottom.store(b, Relaxed);
        // Full fence: orders the `bottom` store before the `top` load.
        // This is the cost the direct task stack avoids; see module docs.
        fence(SeqCst);
        let t = self.top.load(Relaxed);
        if t > b {
            // Empty; restore bottom.
            self.bottom.store(b + 1, Relaxed);
            return None;
        }
        let node = buf.cell(b).load(Relaxed);
        if t < b {
            // More than one element: no thief can reach index b.
            return Some(node);
        }
        // Single element left: race with thieves via CAS on top.
        let won = self.top.compare_exchange(t, t + 1, SeqCst, Relaxed).is_ok();
        self.bottom.store(b + 1, Relaxed);
        won.then_some(node)
    }

    #[inline]
    fn steal(&self) -> Option<*mut TaskHeader> {
        let t = self.top.load(Acquire);
        // Full fence: pairs with the fence in `pop` so that a thief that
        // reads a stale `bottom` cannot also win the CAS on `top`.
        fence(SeqCst);
        let b = self.bottom.load(Acquire);
        if t >= b {
            return None;
        }
        // Read before the CAS: once `top` moves on, the owner may reuse
        // the cell. A lost CAS discards the value.
        let node = self.buffer(Acquire).cell(t).load(Relaxed);
        self.top
            .compare_exchange(t, t + 1, SeqCst, Relaxed)
            .ok()
            .map(|_| node)
    }
}

impl Drop for ChaseLev {
    fn drop(&mut self) {
        // SAFETY: exclusive access; every buffer came from `Buffer::alloc`
        // and is freed once. The task pointers belong to the pool.
        unsafe {
            drop(Box::from_raw(*self.buf.get_mut()));
            for old in self.retired.get_mut().unwrap().drain(..) {
                drop(Box::from_raw(old));
            }
        }
    }
}
