//! The global injector queue: external job submission for serve pools.
//!
//! A batch [`crate::Pool`] has exactly one entry point for work — the
//! root task of `run`, launched by the owning thread. A
//! [`ServePool`](crate::ServePool) instead accepts jobs from *any*
//! thread while the pool is live. Those jobs enter through this queue: a
//! bounded, array-based MPMC ring in the style of Vyukov's bounded
//! queue. Producers and consumers synchronize on per-cell sequence
//! numbers and claim positions with a CAS on the head/tail counters; the
//! queue operations touch no lock and perform **no allocation** (the
//! cells are preallocated; a job is moved in and out by value).
//!
//! Deliberately *not* a work-stealing deque: the injector lives outside
//! the direct task stack so that the spawn/join fast path of §III-A is
//! untouched by serve mode. A serve worker polls it before it tries to
//! steal (see `crate::serve`): a queued root job is independent work,
//! while a steal attempt on a busy owner rings its trip wire and makes
//! it publish. Intra-job stealing resumes once the queue is empty.

use crate::sync::atomic::AtomicUsize;
use crate::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

use crate::pad::CachePadded;

/// One queue cell: a sequence word plus storage for a job.
struct Cell<T> {
    /// Vyukov sequencing: equals the cell index when empty and ready
    /// for the `index`-th enqueue, `index + 1` when that enqueue has
    /// completed, and grows by the capacity each lap.
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// The bounded MPMC injector queue of jobs `T`.
///
/// `push` is safe to call from any thread; `pop` from any thread. Both
/// are lock-free in the practical sense (a stalled thread can delay
/// only the cell it claimed, not the whole queue).
pub struct Injector<T> {
    buf: Box<[Cell<T>]>,
    mask: usize,
    /// Enqueue position (the next cell a producer claims) and [`CLOSED`].
    head: CachePadded<AtomicUsize>,
    /// Dequeue position (next cell a consumer will claim).
    tail: CachePadded<AtomicUsize>,
}

/// Bit of [`Injector::head`] set by [`Injector::close`], above every
/// position a queue reaches (2^63 pushes on a 64-bit target).
const CLOSED: usize = 1 << (usize::BITS - 1);

// SAFETY: cells are handed off producer→consumer through the Acquire/
// Release protocol on `seq`; a cell's payload is only touched by the
// thread that claimed its position with a successful CAS. Jobs cross
// threads by value, hence `T: Send` for both.
unsafe impl<T: Send> Send for Injector<T> {}
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Injector<T> {
    /// Creates a queue holding at most `capacity` jobs, rounded up to a
    /// power of two (minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let buf = (0..cap)
            .map(|i| Cell {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Injector {
            buf,
            mask: cap - 1,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Maximum number of queued jobs.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Enqueues a job; returns it back when the queue is full or closed.
    pub fn push(&self, job: T) -> Result<(), T> {
        // relaxed-ok: position hint only; a stale value is corrected by
        // the seq check or the CAS failure below, never acted on.
        let mut pos = self.head.load(Relaxed);
        loop {
            // A claiming CAS that lost to `close` sees its bit here.
            if pos & CLOSED != 0 {
                return Err(job);
            }
            let cell = &self.buf[pos & self.mask];
            // Acquire pairs with the consumer's Release store of
            // `pos + mask + 1`: seeing the vacancy value proves the
            // previous lap's payload read happened-before our write.
            let seq = cell.seq.load(Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // relaxed-ok: head is a ticket counter; winning the CAS
                // only claims the position. The payload hand-off
                // synchronizes through `seq`, not `head`, so neither the
                // success nor the failure ordering needs to be stronger.
                match self
                    .head
                    .compare_exchange_weak(pos, pos + 1, Relaxed, Relaxed)
                {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread exclusive
                        // ownership of the cell for this lap.
                        unsafe { (*cell.val.get()).write(job) };
                        // Release publishes the payload write above to
                        // the consumer's Acquire load of `seq`.
                        cell.seq.store(pos + 1, Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                // The cell still holds the value from one lap ago: the
                // queue is full.
                return Err(job);
            } else {
                // relaxed-ok: position hint only (see the head load at
                // the top of this function).
                pos = self.head.load(Relaxed);
            }
        }
    }

    /// Dequeues a job, if any.
    pub fn pop(&self) -> Option<T> {
        // relaxed-ok: position hint only; a stale value is corrected by
        // the seq check or the CAS failure below, never acted on.
        let mut pos = self.tail.load(Relaxed);
        loop {
            let cell = &self.buf[pos & self.mask];
            // Acquire pairs with the producer's Release store of
            // `pos + 1`: seeing the filled value makes the payload write
            // happen-before our read of the cell.
            let seq = cell.seq.load(Acquire);
            let dif = seq as isize - (pos + 1) as isize;
            if dif == 0 {
                // relaxed-ok: tail is a ticket counter; the hand-off
                // synchronizes through `seq` (see push).
                match self
                    .tail
                    .compare_exchange_weak(pos, pos + 1, Relaxed, Relaxed)
                {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread exclusive
                        // ownership of the (filled) cell for this lap.
                        let job = unsafe { (*cell.val.get()).assume_init_read() };
                        // Release publishes the payload *read* (and thus
                        // the vacancy) to the next lap's producer, which
                        // may overwrite the cell after its Acquire load.
                        cell.seq.store(pos + self.mask + 1, Release);
                        return Some(job);
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                return None;
            } else {
                // relaxed-ok: position hint only (see the tail load at
                // the top of this function).
                pos = self.tail.load(Relaxed);
            }
        }
    }

    /// Whether the queue currently appears empty. SeqCst so it can be
    /// used in park/wake protocols (paired with a SeqCst fence on the
    /// submit side). A claimed cell counts before its job is written.
    pub fn is_empty(&self) -> bool {
        self.tail.load(SeqCst) >= self.head.load(SeqCst) & !CLOSED
    }

    /// Number of successful pushes so far (each claims one position).
    pub fn pushed(&self) -> usize {
        // relaxed-ok: a statistic; a reader that synchronized with the
        // pushes some other way (e.g. by joining their jobs) sees them.
        self.head.load(Relaxed) & !CLOSED
    }

    /// Whether [`close`](Injector::close) has run.
    pub fn is_closed(&self) -> bool {
        // relaxed-ok: the bit stays set, and a later load of `head` (as
        // in `is_empty`) reads it and every claim ordered before it.
        self.head.load(Relaxed) & CLOSED != 0
    }

    /// Closes the queue: every `push` whose claim comes later returns its
    /// job; queued jobs stay. True for the one call that closed it.
    pub fn close(&self) -> bool {
        self.head.fetch_or(CLOSED, SeqCst) & CLOSED == 0
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        // Drop the jobs that never ran (a serve job's drop resolves its
        // handle).
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = Injector::with_capacity(8);
        assert!(q.is_empty());
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert!(!q.is_empty());
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i), "FIFO order");
        }
        assert!(q.pop().is_none());
        assert_eq!(q.pushed(), 5);
    }

    #[test]
    fn full_queue_returns_job() {
        let q = Injector::with_capacity(2);
        assert_eq!(q.capacity(), 2);
        q.push(0).unwrap();
        q.push(1).unwrap();
        assert_eq!(q.push(2), Err(2), "queue is full");
        // Space reappears after a pop.
        assert_eq!(q.pop(), Some(0));
        q.push(3).unwrap();
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Injector::<()>::with_capacity(0).capacity(), 2);
        assert_eq!(Injector::<()>::with_capacity(3).capacity(), 4);
        assert_eq!(Injector::<()>::with_capacity(1000).capacity(), 1024);
    }

    #[test]
    fn dropping_queue_disposes_pending_jobs() {
        let job = Arc::new(());
        let q = Injector::with_capacity(8);
        for _ in 0..6 {
            q.push(Arc::clone(&job)).unwrap();
        }
        drop(q);
        assert_eq!(Arc::strong_count(&job), 1);
    }

    #[test]
    fn close_turns_pushes_away_and_keeps_queued_jobs() {
        let q = Injector::with_capacity(4);
        q.push(1).unwrap();
        assert!(q.close(), "the first close closes");
        assert!(!q.close(), "a second close does not");
        assert_eq!(q.push(2), Err(2), "a push after the close returns its job");
        assert_eq!((q.pushed(), q.is_empty()), (1, false), "the bit is masked");
        assert_eq!(q.pop(), Some(1), "a job pushed before the close is popped");
        assert_eq!((q.pushed(), q.is_empty()), (1, true));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let q = Injector::with_capacity(64);
        let sum = AtomicU64::new(0);
        let consumed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut job = p * PER_PRODUCER + i;
                        while let Err(j) = q.push(job) {
                            job = j;
                            crate::sync::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..3 {
                let (q, sum, consumed) = (&q, &sum, &consumed);
                s.spawn(move || loop {
                    if let Some(job) = q.pop() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(job, Ordering::Relaxed);
                    } else if consumed.load(Ordering::Relaxed) == PRODUCERS * PER_PRODUCER {
                        break;
                    } else {
                        crate::sync::hint::spin_loop();
                    }
                });
            }
        });
        let n = PRODUCERS * PER_PRODUCER;
        // Every distinct value arrived exactly once: the sum matches.
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}
