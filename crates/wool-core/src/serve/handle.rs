//! Job completion objects: the two halves of a submission.
//!
//! A [`JobHandle`] is what [`submit`](crate::ServePool::submit) hands
//! back: a one-shot future resolving to the job's result. It supports
//! all three consumption styles a service needs — non-blocking polls
//! ([`try_join`](JobHandle::try_join)), blocking waits
//! ([`join`](JobHandle::join)), and `std::future::Future` for async
//! runtimes — and it propagates a panic raised inside the job to
//! whichever consumer resolves it, mirroring `std::thread::JoinHandle`.
//! Its producer half, the [`Completer`], rides inside the queued job and
//! resolves the handle exactly once: with the job's outcome, or, if the
//! job is dropped unrun, with a discard panic, so no waiter hangs.
//!
//! The completion path is lock-free for the common case: the worker
//! writes the result and swaps one state word, PENDING → DONE. A
//! consumer that has to sleep (or register an async waker) first moves
//! the word PENDING → WAITING under the waiters lock, and only a swap
//! that finds WAITING makes the worker take that lock and wake anyone.
//! A blocking `join` first spins and yields as [`Idle`] does, so a job
//! finishing meanwhile costs neither side a lock or a futex call.

use crate::sync::atomic::AtomicU8;
use crate::sync::atomic::Ordering::{AcqRel, Acquire};
use crate::worker::Idle;
use std::cell::UnsafeCell;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};

const PENDING: u8 = 0;
/// A consumer sleeps on the condvar or has registered a waker.
const WAITING: u8 = 1;
const DONE: u8 = 2;

/// The panic payload a handle resolves to when its job is dropped unrun.
pub(super) const DISCARDED: &str = "wool-serve: job discarded without running (pool torn down)";

/// What the job produced: the result, or the panic it raised.
type Outcome<R> = std::thread::Result<R>; // lint-ok: type alias only, no thread API use

/// Creates the two halves of one job's completion.
pub(super) fn channel<R>() -> (Completer<R>, JobHandle<R>) {
    let core = Arc::new(JobCore {
        state: AtomicU8::new(PENDING),
        outcome: UnsafeCell::new(None),
        waker: Mutex::new(None),
        cv: Condvar::new(),
    });
    let done = Completer {
        core: Arc::clone(&core),
    };
    (done, JobHandle { core })
}

/// The producer half: resolves its [`JobHandle`] exactly once.
pub(super) struct Completer<R> {
    core: Arc<JobCore<R>>,
}

impl<R> Completer<R> {
    /// Resolves the handle with the job's outcome.
    pub(super) fn complete(self, outcome: Outcome<R>) {
        self.core.complete(outcome);
    }
}

impl<R> Drop for Completer<R> {
    /// A job dropped unrun (a pool torn down with the job still queued,
    /// or a submission turned away) resolves its handle with the
    /// [`DISCARDED`] panic.
    fn drop(&mut self) {
        // The completer is the only writer, so a pending state here means
        // `complete` never ran.
        if !self.core.is_done() {
            self.core.complete(Err(Box::new(DISCARDED)));
        }
    }
}

/// Shared completion cell between the worker that runs the job and the
/// handle that consumes it.
struct JobCore<R> {
    /// PENDING → DONE, or PENDING → WAITING → DONE. Consumers move it to
    /// WAITING only while holding the waiters lock, which is what lets a
    /// sleeping `join` rely on the notify.
    state: AtomicU8,
    outcome: UnsafeCell<Option<Outcome<R>>>,
    /// At most one async consumer (the handle is not cloneable).
    waker: Mutex<Option<Waker>>,
    cv: Condvar,
}

// SAFETY: `outcome` is written exactly once by the completing worker
// before the Release half of its swap to DONE, and read only by the
// single handle owner after an Acquire read of DONE — a classic one-shot
// hand-off.
unsafe impl<R: Send> Send for JobCore<R> {}
unsafe impl<R: Send> Sync for JobCore<R> {}

impl<R> JobCore<R> {
    /// Publishes the job's outcome and wakes the consumer, if one
    /// waits. Called exactly once, by the job's [`Completer`].
    fn complete(&self, outcome: Outcome<R>) {
        // SAFETY: single writer (the job's one `Completer`, which calls
        // this once), and no reader until the swap below.
        unsafe { *self.outcome.get() = Some(outcome) };
        if self.state.swap(DONE, AcqRel) == WAITING {
            // The consumer set WAITING under the lock and holds it until
            // it sleeps, so taking the lock here orders the notify after
            // its wait began.
            let waker = self.waiters().take();
            self.cv.notify_all();
            if let Some(w) = waker {
                w.wake();
            }
        }
    }

    /// The waiters lock, recovered if a waker's `clone` or `drop` panicked
    /// under it (the `Option` stays valid), so `complete` never panics.
    fn waiters(&self) -> MutexGuard<'_, Option<Waker>> {
        self.waker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_done(&self) -> bool {
        self.state.load(Acquire) == DONE
    }

    /// Moves PENDING → WAITING before a consumer sleeps or waits for its
    /// waker; false if the job is done. Call with the waiters lock held.
    fn announce_wait(&self) -> bool {
        self.state
            .compare_exchange(PENDING, WAITING, Acquire, Acquire)
            .map_or_else(|s| s == WAITING, |_| true)
    }

    /// Takes the outcome. Caller must have observed `is_done()`.
    ///
    /// # Safety
    /// Requires exclusive access to the consuming handle (guaranteed:
    /// `JobHandle` is not cloneable and the takers borrow it mutably or
    /// consume it).
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

/// A handle to a submitted job: poll it, block on it, or `.await` it.
///
/// Dropping the handle detaches the job (it still runs to completion;
/// the result is discarded) — the same semantics as
/// `std::thread::JoinHandle`.
pub struct JobHandle<R> {
    core: Arc<JobCore<R>>,
}

impl<R: Send> JobHandle<R> {
    /// Whether the job has finished (successfully or by panicking).
    pub fn is_finished(&self) -> bool {
        self.core.is_done()
    }

    /// Non-blocking: returns the result if the job has finished, or
    /// the handle back if it is still running.
    ///
    /// # Panics
    /// Re-raises the job's panic, if it panicked.
    pub fn try_join(self) -> Result<R, Self> {
        if self.core.is_done() {
            // SAFETY: handle consumed by value — exclusive access.
            Ok(resolve(unsafe { self.core.take() }))
        } else {
            Err(self)
        }
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Panics
    /// Re-raises the job's panic, if it panicked.
    pub fn join(self) -> R {
        let mut idle = Idle::default();
        while !self.core.is_done() && !idle.parks_next() {
            idle.snooze();
        }
        if !self.core.is_done() {
            let mut w = self.core.waiters();
            if self.core.announce_wait() {
                while !self.core.is_done() {
                    w = self.core.cv.wait(w).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        // SAFETY: handle consumed by value — exclusive access.
        resolve(unsafe { self.core.take() })
    }
}

impl<R: Send> Future for JobHandle<R> {
    type Output = R;

    /// Resolves to the job's result; re-raises the job's panic.
    ///
    /// Like `std::thread`'s scoped join handles, polling again after
    /// `Ready` panics (the result has been moved out).
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<R> {
        let this = self.get_mut();
        if this.core.is_done() {
            // SAFETY: pinned exclusive borrow of the only handle.
            return Poll::Ready(resolve(unsafe { this.core.take() }));
        }
        let mut w = this.core.waiters();
        if this.core.announce_wait() {
            *w = Some(cx.waker().clone());
            return Poll::Pending;
        }
        drop(w);
        // SAFETY: as above.
        Poll::Ready(resolve(unsafe { this.core.take() }))
    }
}

impl<R> std::fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.core.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering::SeqCst;
    use std::task::Wake;

    const ROUNDS: usize = 2_000;

    /// Races `complete(i)` on another thread, after a delay that varies
    /// with `i`, against `consume` on this one. `consume` must resolve to
    /// `i`; what else it returns goes to `settled` once the completer
    /// has finished. A consumer that retries yields between tries, so
    /// that on a host with fewer CPUs than racing threads it does not
    /// starve the completer it waits for.
    fn race<T>(
        mut consume: impl FnMut(JobHandle<usize>) -> (usize, T),
        mut settled: impl FnMut(T),
    ) {
        for i in 0..ROUNDS {
            let (done, handle) = channel();
            let (v, rest) = std::thread::scope(|s| {
                s.spawn(move || {
                    for _ in 0..i % 64 {
                        std::hint::spin_loop();
                    }
                    done.complete(Ok(i));
                });
                consume(handle)
            });
            assert_eq!(v, i, "round {i}");
            settled(rest);
        }
    }

    #[test]
    fn complete_races_join() {
        race(|h| (h.join(), ()), drop);
    }

    #[test]
    fn complete_races_try_join() {
        let spin = |mut h: JobHandle<usize>| loop {
            match h.try_join() {
                Ok(v) => return (v, ()),
                Err(back) => h = back,
            }
            std::thread::yield_now();
        };
        race(spin, drop);
    }

    /// Counts how often it was woken.
    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    /// Every poll registers a fresh waker. No waker fires twice, and the
    /// one registered by the last `Pending` poll fires exactly once (an
    /// executor sleeping on it would hang otherwise).
    #[test]
    fn complete_races_future_poll() {
        let poll_until_ready = |mut h: JobHandle<usize>| {
            let mut wakers = Vec::new();
            let mut last_pending = None;
            loop {
                let w = Arc::new(CountingWaker(AtomicUsize::new(0)));
                let waker = Waker::from(Arc::clone(&w));
                let poll = Pin::new(&mut h).poll(&mut Context::from_waker(&waker));
                wakers.push(Arc::clone(&w));
                match poll {
                    Poll::Ready(v) => return (v, (wakers, last_pending)),
                    Poll::Pending => last_pending = Some(w),
                }
                std::thread::yield_now();
            }
        };
        race(poll_until_ready, |(wakers, last_pending)| {
            for w in &wakers {
                assert!(w.0.load(SeqCst) <= 1, "a waker fired twice");
            }
            if let Some(w) = last_pending {
                assert_eq!(w.0.load(SeqCst), 1, "the last Pending poll was never woken");
            }
        });
    }
}
