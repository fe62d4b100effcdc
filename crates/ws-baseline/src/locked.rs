//! The Cilk++-like and OpenMP-like pools' task queue: a lock-synchronized
//! deque of task pointers.
//!
//! The owner pushes and pops at the back under the deque's lock, and a
//! thief takes the same lock as soon as it has picked its victim, then
//! looks for work: the *base* protocol of §IV-C of the Wool paper
//! ("per-worker locks for mutual exclusion of thieves and victim"), and
//! the heavyweight locking the paper attributes to Cilk++'s stealing
//! path. Figure 4's peek and trylock rungs are wool-core strategies, not
//! this deque.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

use crate::node::TaskHeader;
use crate::NodeQueue;

/// A deque protected by a per-worker mutex.
///
/// The owner pushes/pops at the back (LIFO), thieves steal from the
/// front (FIFO), as in all child-stealing schedulers.
pub struct LockedDeque {
    inner: Mutex<VecDeque<*mut TaskHeader>>,
}

// SAFETY: the deque only stores and hands back the pointers; the pool's
// node protocol decides which thread dereferences them.
unsafe impl Send for LockedDeque {}
unsafe impl Sync for LockedDeque {}

impl LockedDeque {
    fn locked(&self) -> MutexGuard<'_, VecDeque<*mut TaskHeader>> {
        // No deque operation runs user code under the lock.
        self.inner.lock().expect("deque lock poisoned")
    }
}

impl NodeQueue for LockedDeque {
    fn new() -> Self {
        LockedDeque {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    unsafe fn push(&self, node: *mut TaskHeader) {
        self.locked().push_back(node);
    }

    unsafe fn pop(&self) -> Option<*mut TaskHeader> {
        self.locked().pop_back()
    }

    /// Takes the lock, then the oldest task if there is one.
    fn steal(&self) -> Option<*mut TaskHeader> {
        self.locked().pop_front()
    }
}
