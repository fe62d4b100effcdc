//! The one heap cell of a submission, and the handle that reads it.
//!
//! A [`JobHandle`] is what [`submit`](crate::ServePool::submit) hands
//! back: a one-shot handle to the job's result. A client polls it with
//! [`is_finished`](JobHandle::is_finished) and blocks on it with
//! [`join`](JobHandle::join), which re-raises a panic raised inside the
//! job, mirroring `std::thread::JoinHandle`.
//!
//! Each submission allocates exactly one block, a reference-counted
//! [`JobCell`]: the state word, the closure until a worker takes it, and
//! the outcome after that. The queued job holds one reference and the
//! handle the other, which sees the cell's closure only as `dyn Send`,
//! so it is typed by the result alone. The job half resolves the handle
//! exactly once: with the job's outcome, or, if the job is dropped
//! unrun, with a discard panic, so no waiter hangs. A worker that
//! finishes a job before its client joins drops the second-last
//! reference, and the submitting thread frees the cell in `join`.
//!
//! The completion path is lock-free for the common case: the worker
//! writes the result and swaps one state word, PENDING → DONE. A
//! consumer that has to sleep first moves the word PENDING → WAITING
//! under the waiters lock, and only a swap that finds WAITING makes the
//! worker take that lock and wake it.
//! A blocking `join` first spins and yields as [`Idle`] does, so a job
//! finishing meanwhile costs neither side a lock or a futex call.

use crate::sync::atomic::AtomicU8;
use crate::sync::atomic::Ordering::{AcqRel, Acquire};
use crate::worker::Idle;
use std::cell::{Cell, UnsafeCell};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

const PENDING: u8 = 0;
/// A consumer sleeps on the condvar, or is about to.
const WAITING: u8 = 1;
const DONE: u8 = 2;

/// The panic payload a handle resolves to when its job is dropped unrun.
pub(super) const DISCARDED: &str = "wool-serve: job discarded without running (pool torn down)";

/// What the job produced: the result, or the panic it raised.
type Outcome<R> = std::thread::Result<R>; // lint-ok: type alias only, no thread API use

/// One job's only heap block, shared by the queued job and its
/// [`JobHandle`]. `C` is the closure slot: `Option<F>` on the job's
/// side, `dyn Send` on the handle's, which never touches it.
pub(super) struct JobCell<R, C: ?Sized> {
    /// PENDING → DONE, or PENDING → WAITING → DONE. Consumers move it to
    /// WAITING only while holding the waiters lock, which is what lets a
    /// sleeping `join` rely on the notify.
    state: AtomicU8,
    outcome: UnsafeCell<Option<Outcome<R>>>,
    /// Guards the PENDING → WAITING move and the condvar sleep.
    waiters: Mutex<()>,
    cv: Condvar,
    /// The submitted closure until the job half takes it.
    closure: Cell<C>,
}

// SAFETY: `outcome` is written exactly once by the job half before the
// Release half of its swap to DONE, and read only by the single handle
// owner after an Acquire read of DONE — a classic one-shot hand-off.
// `closure` is touched only through `take_closure`, which only the job
// half calls: one `Job` owns that half, and the injector moves it between
// threads by value, so one thread at a time reaches the slot.
unsafe impl<R: Send, C: ?Sized + Send> Send for JobCell<R, C> {}
unsafe impl<R: Send, C: ?Sized + Send> Sync for JobCell<R, C> {}

impl<R, F: Send + 'static> JobCell<R, Option<F>> {
    /// Allocates the cell of a job running `f`, and its handle.
    pub(super) fn new(f: F) -> (Arc<Self>, JobHandle<R>) {
        let cell = Arc::new(JobCell {
            state: AtomicU8::new(PENDING),
            outcome: UnsafeCell::new(None),
            waiters: Mutex::new(()),
            cv: Condvar::new(),
            closure: Cell::new(Some(f)),
        });
        let handle = JobHandle {
            cell: Arc::clone(&cell) as Arc<JobCell<R, dyn Send>>,
        };
        (cell, handle)
    }

    /// Takes the closure out: `Some` once, then `None`. Called only by the
    /// job half (see the `Sync` impl).
    pub(super) fn take_closure(&self) -> Option<F> {
        self.closure.take()
    }
}

impl<R, C: ?Sized> JobCell<R, C> {
    /// Publishes the job's outcome and wakes the consumer, if one
    /// waits. Called exactly once, by the job half.
    pub(super) fn complete(&self, outcome: Outcome<R>) {
        // SAFETY: single writer (the job half, which calls this once), and
        // no reader until the swap below.
        unsafe { *self.outcome.get() = Some(outcome) };
        if self.state.swap(DONE, AcqRel) == WAITING {
            // The consumer set WAITING under the lock and holds it until
            // it sleeps, so taking the lock here orders the notify after
            // its wait began.
            let _w = self.waiters();
            self.cv.notify_all();
        }
    }

    /// The waiters lock. It guards no data, so a poisoned lock is as
    /// good as a clean one, and `complete` never panics.
    fn waiters(&self) -> MutexGuard<'_, ()> {
        self.waiters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_done(&self) -> bool {
        self.state.load(Acquire) == DONE
    }

    /// Moves PENDING → WAITING before a consumer sleeps; false if the job
    /// is done. Call with the waiters lock held.
    fn announce_wait(&self) -> bool {
        self.state
            .compare_exchange(PENDING, WAITING, Acquire, Acquire)
            .map_or_else(|s| s == WAITING, |_| true)
    }

    /// Takes the outcome. Caller must have observed `is_done()`.
    ///
    /// # Safety
    /// Requires exclusive access to the consuming handle (guaranteed:
    /// `JobHandle` is not cloneable and `join` consumes it).
    unsafe fn take(&self) -> Outcome<R> {
        (*self.outcome.get())
            .take()
            .expect("job outcome already consumed")
    }
}

fn resolve<R>(outcome: Outcome<R>) -> R {
    match outcome {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// A handle to a submitted job: poll it with `is_finished` or block on
/// it with `join`.
///
/// Dropping the handle detaches the job (it still runs to completion;
/// the result is discarded) — the same semantics as
/// `std::thread::JoinHandle`.
pub struct JobHandle<R> {
    cell: Arc<JobCell<R, dyn Send>>,
}

impl<R: Send> JobHandle<R> {
    /// Whether the job has finished (successfully or by panicking).
    pub fn is_finished(&self) -> bool {
        self.cell.is_done()
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Panics
    /// Re-raises the job's panic, if it panicked.
    pub fn join(self) -> R {
        let mut idle = Idle::default();
        while !self.cell.is_done() && !idle.parks_next() {
            idle.snooze();
        }
        if !self.cell.is_done() {
            let mut w = self.cell.waiters();
            if self.cell.announce_wait() {
                while !self.cell.is_done() {
                    w = self.cell.cv.wait(w).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        // SAFETY: handle consumed by value — exclusive access.
        resolve(unsafe { self.cell.take() })
    }
}

impl<R> std::fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.cell.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUNDS: usize = 2_000;

    /// Races `complete(i)` on another thread, after a delay that varies
    /// with `i`, against `join` on this one, which must return `i`.
    #[test]
    fn complete_races_join() {
        for i in 0..ROUNDS {
            let (cell, handle) = JobCell::new(());
            let v = std::thread::scope(|s| {
                s.spawn(move || {
                    for _ in 0..i % 64 {
                        std::hint::spin_loop();
                    }
                    cell.complete(Ok(i));
                });
                handle.join()
            });
            assert_eq!(v, i, "round {i}");
        }
    }
}
