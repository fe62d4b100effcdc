//! A minimal test-and-test-and-set spinlock.
//!
//! The lock-based strategy variants of Table II and Figure 4 need a
//! per-worker lock with predictable, small cost. We use our own TATAS
//! lock rather than an OS mutex so the measured overhead is the locking
//! protocol itself, as in the paper's run-time-system experiments.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::worker::Idle;

/// A test-and-test-and-set spinlock.
#[derive(Debug, Default)]
pub struct SpinLock {
    locked: AtomicBool,
}

impl SpinLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Acquires the lock, spinning (with escalating pauses) until free.
    #[inline]
    pub fn lock(&self) {
        let mut idle = Idle::default();
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            // Test-and-test-and-set: spin on a plain load to avoid
            // hammering the cache line with RMWs.
            // Spin, then yield (uniprocessor-friendly: let the holder run).
            while self.locked.load(Ordering::Relaxed) {
                idle.snooze();
            }
        }
    }

    /// Attempts to acquire the lock without waiting.
    #[inline]
    pub fn try_lock(&self) -> bool {
        !self.locked.load(Ordering::Relaxed) && !self.locked.swap(true, Ordering::Acquire)
    }

    /// Releases the lock.
    ///
    /// Calling this without holding the lock is a logic error (it will
    /// unlock someone else's critical section) but not UB; the scheduler
    /// code pairs every `unlock` with a `lock`/`try_lock` above it.
    #[inline]
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }

    /// Runs `f` with the lock held.
    ///
    /// Unlike `std::sync::Mutex` there is no poisoning: if `f` panics
    /// the lock is released on unwind and stays usable — the scheduler's
    /// critical sections only move indices, never leave partial state.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Guard<'a>(&'a SpinLock);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.unlock();
            }
        }
        self.lock();
        let _g = Guard(self);
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock() {
        let l = SpinLock::new();
        l.lock();
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn with_runs_closure() {
        let l = SpinLock::new();
        assert_eq!(l.with(|| 42), 42);
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    #[allow(clippy::arc_with_non_send_sync)] // wrapped in a Send newtype below
    fn mutual_exclusion() {
        const THREADS: usize = 4;
        const PER: usize = 50_000;
        let lock = Arc::new(SpinLock::new());
        // Deliberately non-atomic counter protected by the lock.
        let counter = Arc::new(std::cell::UnsafeCell::new(0usize));
        struct Shared(Arc<std::cell::UnsafeCell<usize>>);
        // SAFETY: all accesses are under `lock`.
        unsafe impl Send for Shared {}

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let c = Shared(Arc::clone(&counter));
                crate::sync::thread::spawn(move || {
                    // Capture the whole wrapper (edition-2021 disjoint
                    // field capture would otherwise grab the raw Arc).
                    let c = c;
                    for _ in 0..PER {
                        lock.lock();
                        // SAFETY: protected by `lock`.
                        unsafe { *c.0.get() += 1 };
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all threads joined.
        assert_eq!(unsafe { *counter.get() }, THREADS * PER);
    }

    #[test]
    fn contended_try_lock_admits_one_holder() {
        use crate::sync::atomic::{AtomicBool, AtomicUsize};
        const THREADS: usize = 4;
        const ATTEMPTS: usize = 20_000;
        let lock = Arc::new(SpinLock::new());
        let inside = Arc::new(AtomicBool::new(false));
        let acquired = Arc::new(AtomicUsize::new(0));

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let inside = Arc::clone(&inside);
                let acquired = Arc::clone(&acquired);
                crate::sync::thread::spawn(move || {
                    for _ in 0..ATTEMPTS {
                        if lock.try_lock() {
                            assert!(
                                !inside.swap(true, Ordering::Acquire),
                                "two holders inside the critical section"
                            );
                            acquired.fetch_add(1, Ordering::Relaxed);
                            inside.store(false, Ordering::Release);
                            lock.unlock();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // At least the uncontended attempts of one thread must succeed.
        assert!(acquired.load(Ordering::Relaxed) > 0);
        assert!(lock.try_lock(), "lock left held after the storm");
        lock.unlock();
    }

    #[test]
    fn with_releases_on_panic_no_poisoning() {
        let l = SpinLock::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            l.with(|| panic!("boom in critical section"))
        }));
        assert!(r.is_err());
        // No poisoning: the unwind released the lock and it stays usable.
        assert!(l.try_lock(), "lock stayed held across the panic");
        l.unlock();
        assert_eq!(l.with(|| 7), 7);
    }

    #[test]
    // SpinLock deliberately has no Drop impl (no poison state); these
    // explicit drops are the property under test, not dead code.
    #[allow(clippy::drop_non_drop)]
    fn drop_after_panic_is_clean() {
        // Dropping a lock that saw a panicking critical section (or is
        // even still held) must not itself panic — there is no poison
        // state to trip over.
        let l = SpinLock::new();
        let _ =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| l.with(|| panic!("boom"))));
        drop(l);
        let held = SpinLock::new();
        held.lock();
        drop(held);
    }
}
