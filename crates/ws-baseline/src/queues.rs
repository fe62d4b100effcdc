//! Queue adapters plugging the deques of [`crate::chase_lev`] and
//! [`crate::locked`] into the baseline pool.

use std::cell::UnsafeCell;

use crate::chase_lev::OwnerToken;
use crate::node::TaskHeader;
use crate::{ChaseLev, LockedDeque, Steal};

/// A per-worker task queue of type-erased node pointers.
///
/// # Safety contract
/// `push`/`pop` must only be called by the worker that owns the queue
/// (the pool guarantees this: each queue is driven by exactly one
/// thread). `steal` may be called by anyone.
pub trait NodeQueue: Send + Sync + 'static {
    /// Creates an empty queue.
    fn new() -> Self;

    /// Owner: push a task pointer.
    ///
    /// # Safety
    /// Caller must be the unique owning worker thread.
    unsafe fn push(&self, node: *mut TaskHeader);

    /// Owner: pop the most recent push.
    ///
    /// # Safety
    /// Caller must be the unique owning worker thread.
    unsafe fn pop(&self) -> Option<*mut TaskHeader>;

    /// Thief: take the oldest task, if any. `None` covers both "empty"
    /// and "lost a race" — the baseline steal loops simply retry.
    fn steal(&self) -> Option<*mut TaskHeader>;
}

/// Raw pointers are not `Send`; wrap them for deque storage.
///
/// SAFETY rationale: the pointer identifies a heap node whose ownership
/// is transferred through the queue; the node protocol (see
/// `crate::node`) serializes all accesses.
struct Ptr(*mut TaskHeader);
// SAFETY: see type docs.
unsafe impl Send for Ptr {}

/// TBB-like substrate: our Chase–Lev deque (fence-synchronized pop).
pub struct ChaseLevQueue {
    deque: ChaseLev<Ptr>,
    /// Owner token for the deque's owner end; only touched by the
    /// owning worker (hence the UnsafeCell is sound).
    token: UnsafeCell<OwnerToken>,
}

// SAFETY: `token` is owner-only per the NodeQueue contract; the deque is
// already Sync for Send payloads.
unsafe impl Sync for ChaseLevQueue {}
unsafe impl Send for ChaseLevQueue {}

impl NodeQueue for ChaseLevQueue {
    fn new() -> Self {
        ChaseLevQueue {
            deque: ChaseLev::new(),
            // SAFETY: exactly one token per deque, used by one thread.
            token: UnsafeCell::new(unsafe { OwnerToken::new() }),
        }
    }

    unsafe fn push(&self, node: *mut TaskHeader) {
        self.deque.push(Ptr(node), &mut *self.token.get());
    }

    unsafe fn pop(&self) -> Option<*mut TaskHeader> {
        self.deque.pop(&mut *self.token.get()).map(|p| p.0)
    }

    fn steal(&self) -> Option<*mut TaskHeader> {
        match self.deque.steal() {
            Steal::Success(p) => Some(p.0),
            _ => None,
        }
    }
}

/// Cilk++-like substrate: a mutex-protected deque whose thieves lock
/// before they look for work.
pub struct LockedQueue {
    deque: LockedDeque<Ptr>,
}

impl NodeQueue for LockedQueue {
    fn new() -> Self {
        LockedQueue {
            deque: LockedDeque::new(),
        }
    }

    unsafe fn push(&self, node: *mut TaskHeader) {
        self.deque.push(Ptr(node));
    }

    unsafe fn pop(&self) -> Option<*mut TaskHeader> {
        self.deque.pop().map(|p| p.0)
    }

    fn steal(&self) -> Option<*mut TaskHeader> {
        self.deque.steal().success().map(|p| p.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_ptr(v: usize) -> *mut TaskHeader {
        v as *mut TaskHeader
    }

    fn exercise<Q: NodeQueue>() {
        let q = Q::new();
        // SAFETY: single-threaded test acts as the owner.
        unsafe {
            q.push(fake_ptr(8));
            q.push(fake_ptr(16));
            q.push(fake_ptr(24));
            assert_eq!(q.pop(), Some(fake_ptr(24)));
            assert_eq!(q.steal(), Some(fake_ptr(8)));
            assert_eq!(q.pop(), Some(fake_ptr(16)));
            assert_eq!(q.pop(), None);
            assert_eq!(q.steal(), None);
        }
    }

    #[test]
    fn chase_lev_queue_order() {
        exercise::<ChaseLevQueue>();
    }

    #[test]
    fn locked_queue_order() {
        exercise::<LockedQueue>();
    }
}
