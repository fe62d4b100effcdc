//! A lock-synchronized work-stealing deque: the substrate of the
//! Cilk++-like and OpenMP-like baseline pools.
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

use crate::Steal;

/// A deque protected by a per-worker mutex.
///
/// The owner pushes/pops at the back (LIFO), thieves steal from the
/// front (FIFO), as in all child-stealing schedulers.
#[derive(Debug)]
pub struct LockedDeque<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> Default for LockedDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LockedDeque<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        LockedDeque {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    fn locked(&self) -> MutexGuard<'_, VecDeque<T>> {
        // No deque operation runs user code under the lock.
        self.inner.lock().expect("deque lock poisoned")
    }

    /// Owner: push a task (takes the lock).
    pub fn push(&self, v: T) {
        self.locked().push_back(v);
    }

    /// Owner: pop the most recently pushed task (takes the lock).
    pub fn pop(&self) -> Option<T> {
        self.locked().pop_back()
    }

    /// Thief: take the lock, then the oldest task if there is one.
    pub fn steal(&self) -> Steal<T> {
        match self.locked().pop_front() {
            Some(v) => Steal::Success(v),
            None => Steal::Empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let d = LockedDeque::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal().success(), Some(1));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn concurrent_exactly_once() {
        let d = Arc::new(LockedDeque::new());
        let taken = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        const N: usize = 10_000;

        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let d = Arc::clone(&d);
                let taken = Arc::clone(&taken);
                let sum = Arc::clone(&sum);
                std::thread::spawn(move || {
                    while taken.load(Ordering::Relaxed) < N {
                        if let Steal::Success(v) = d.steal() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            taken.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        for i in 1..=N {
            d.push(i);
        }
        // The owner also consumes.
        while taken.load(Ordering::Relaxed) < N {
            if let Some(v) = d.pop() {
                sum.fetch_add(v, Ordering::Relaxed);
                taken.fetch_add(1, Ordering::Relaxed);
            }
        }
        for t in thieves {
            t.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), N * (N + 1) / 2);
    }
}
