//! The global injector queue: external job submission for serve pools.
//!
//! A batch [`crate::Pool`] has exactly one entry point for work — the
//! root task of `run`, launched by the owning thread. The serve layer
//! (`wool-serve`) instead accepts jobs from *any* thread while the pool
//! is live. Those jobs enter through this queue: a bounded, array-based
//! MPMC ring in the style of Vyukov's bounded queue. Producers and
//! consumers synchronize on per-cell sequence numbers and claim
//! positions with a CAS on the head/tail counters; the fast path of a
//! submission touches no lock and performs **no allocation** (the cells
//! are preallocated; a job is a 48-byte [`Runnable`] moved by value).
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
use std::mem::{ManuallyDrop, MaybeUninit};

use crate::pad::CachePadded;

/// A type-erased root job, ready to run on any worker of the pool that
/// it was built for.
///
/// The `call` function receives the erased payload pointer and a
/// `*mut ()` pointing at the executing worker's
/// [`WorkerHandle`](crate::WorkerHandle) (monomorphized over the pool's
/// strategy by the submitting side, exactly like the task wrappers of
/// the direct task stack). `drop_fn` disposes of a payload that will
/// never run — it must also resolve any completion object attached to
/// the job, so abandoned submissions do not strand their waiters.
pub struct Runnable {
    data: *mut (),
    call: unsafe fn(*mut (), *mut ()),
    drop_fn: unsafe fn(*mut ()),
    submit_ts: u64,
    tag: u32,
}

// SAFETY: a Runnable is a moved-by-value owner of its payload; the
// constructor contract requires the payload (and everything `call`
// touches through it) to be Send.
unsafe impl Send for Runnable {}

impl Runnable {
    /// Wraps a payload for injection.
    ///
    /// # Safety
    /// `data` must be an owning pointer whose payload is `Send`;
    /// `call(data, ctx)` must consume the payload exactly once, with
    /// `ctx` pointing at a `WorkerHandle` of the strategy the caller
    /// monomorphized `call` for; `drop_fn(data)` must likewise consume
    /// it exactly once. The queue guarantees exactly one of the two is
    /// invoked.
    pub unsafe fn new(
        data: *mut (),
        call: unsafe fn(*mut (), *mut ()),
        drop_fn: unsafe fn(*mut ()),
        submit_ts: u64,
        tag: u32,
    ) -> Self {
        Runnable {
            data,
            call,
            drop_fn,
            submit_ts,
            tag,
        }
    }

    /// Cycle timestamp taken by the submitter (for queue-latency
    /// tracing).
    #[inline]
    pub fn submit_ts(&self) -> u64 {
        self.submit_ts
    }

    /// Submitter-assigned job tag (trace correlation).
    #[inline]
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Executes the job on the worker behind `ctx`, consuming it.
    ///
    /// # Safety
    /// `ctx` must point at a live `WorkerHandle` of the strategy the
    /// job was monomorphized for, on the thread owning that worker.
    #[inline]
    pub unsafe fn run(self, ctx: *mut ()) {
        let this = ManuallyDrop::new(self);
        (this.call)(this.data, ctx);
    }
}

impl Drop for Runnable {
    fn drop(&mut self) {
        // SAFETY: by the `new` contract `drop_fn` consumes the payload;
        // `run` skips this Drop via ManuallyDrop, so exactly one of the
        // two ever observes `data`.
        unsafe { (self.drop_fn)(self.data) }
    }
}

/// One queue cell: a sequence word plus storage for a job.
struct Cell {
    /// Vyukov sequencing: equals the cell index when empty and ready
    /// for the `index`-th enqueue, `index + 1` when that enqueue has
    /// completed, and grows by the capacity each lap.
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<Runnable>>,
}

/// The bounded MPMC injector queue.
///
/// `push` is safe to call from any thread; `pop` from any thread. Both
/// are lock-free in the practical sense (a stalled thread can delay
/// only the cell it claimed, not the whole queue).
pub struct Injector {
    buf: Box<[Cell]>,
    mask: usize,
    /// Enqueue position (next cell a producer will claim).
    head: CachePadded<AtomicUsize>,
    /// Dequeue position (next cell a consumer will claim).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: cells are handed off producer→consumer through the Acquire/
// Release protocol on `seq`; a cell's payload is only touched by the
// thread that claimed its position with a successful CAS.
unsafe impl Send for Injector {}
unsafe impl Sync for Injector {}

impl Injector {
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

    /// Enqueues a job; returns it back when the queue is full.
    pub fn push(&self, job: Runnable) -> Result<(), Runnable> {
        // relaxed-ok: position hint only; a stale value is corrected by
        // the seq check or the CAS failure below, never acted on.
        let mut pos = self.head.load(Relaxed);
        loop {
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
    pub fn pop(&self) -> Option<Runnable> {
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
    /// submit side).
    pub fn is_empty(&self) -> bool {
        self.tail.load(SeqCst) >= self.head.load(SeqCst)
    }

    /// Number of successful pushes so far (each claims one position).
    pub fn pushed(&self) -> usize {
        // relaxed-ok: advisory statistic, like `len`.
        self.head.load(Relaxed)
    }

    /// Approximate number of queued jobs.
    pub fn len(&self) -> usize {
        // relaxed-ok: advisory statistic; the two counters are not read
        // atomically together anyway, so stronger orderings buy nothing.
        self.head
            .load(Relaxed)
            .saturating_sub(self.tail.load(Relaxed))
    }
}

impl Drop for Injector {
    fn drop(&mut self) {
        // Dispose of jobs that never ran; their `drop_fn` resolves any
        // attached completion handles.
        while let Some(job) = self.pop() {
            drop(job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A payload that counts how it left the queue.
    struct Probe {
        ran: Arc<AtomicU64>,
        dropped: Arc<AtomicU64>,
        value: u64,
    }

    unsafe fn probe_call(data: *mut (), ctx: *mut ()) {
        let p = Box::from_raw(data as *mut Probe);
        // The tests pass a counter cell as the "worker handle".
        let sum = &*(ctx as *const AtomicU64);
        sum.fetch_add(p.value, Ordering::Relaxed);
        p.ran.fetch_add(1, Ordering::Relaxed);
    }

    unsafe fn probe_drop(data: *mut ()) {
        let p = Box::from_raw(data as *mut Probe);
        p.dropped.fetch_add(1, Ordering::Relaxed);
    }

    fn probe(ran: &Arc<AtomicU64>, dropped: &Arc<AtomicU64>, value: u64) -> Runnable {
        let b = Box::new(Probe {
            ran: Arc::clone(ran),
            dropped: Arc::clone(dropped),
            value,
        });
        // SAFETY: box pointer consumed exactly once by call or drop.
        unsafe {
            Runnable::new(
                Box::into_raw(b) as *mut (),
                probe_call,
                probe_drop,
                7,
                value as u32,
            )
        }
    }

    #[test]
    fn fifo_within_capacity() {
        let ran = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let q = Injector::with_capacity(8);
        assert!(q.is_empty());
        for i in 0..5 {
            q.push(probe(&ran, &dropped, i)).ok().unwrap();
        }
        assert!(!q.is_empty());
        assert_eq!(q.len(), 5);
        let sum = AtomicU64::new(0);
        for i in 0..5 {
            let job = q.pop().expect("queued job");
            assert_eq!(job.tag(), i, "FIFO order");
            assert_eq!(job.submit_ts(), 7);
            unsafe { job.run(&sum as *const AtomicU64 as *mut ()) };
        }
        assert!(q.pop().is_none());
        assert_eq!(sum.load(Ordering::Relaxed), 10, "1+2+3+4");
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        assert_eq!(dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn full_queue_returns_job() {
        let ran = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let q = Injector::with_capacity(2);
        assert_eq!(q.capacity(), 2);
        q.push(probe(&ran, &dropped, 0)).ok().unwrap();
        q.push(probe(&ran, &dropped, 1)).ok().unwrap();
        let job = q.push(probe(&ran, &dropped, 2)).expect_err("queue is full");
        drop(job);
        assert_eq!(dropped.load(Ordering::Relaxed), 1);
        // Space reappears after a pop.
        drop(q.pop().unwrap());
        q.push(probe(&ran, &dropped, 3)).ok().unwrap();
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Injector::with_capacity(0).capacity(), 2);
        assert_eq!(Injector::with_capacity(3).capacity(), 4);
        assert_eq!(Injector::with_capacity(1000).capacity(), 1024);
    }

    #[test]
    fn dropping_queue_disposes_pending_jobs() {
        let ran = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        {
            let q = Injector::with_capacity(8);
            for i in 0..6 {
                q.push(probe(&ran, &dropped, i)).ok().unwrap();
            }
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(dropped.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let ran = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let q = Injector::with_capacity(64);
        let sum = AtomicU64::new(0);
        let consumed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                let ran = &ran;
                let dropped = &dropped;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut job = probe(ran, dropped, p * PER_PRODUCER + i);
                        loop {
                            match q.push(job) {
                                Ok(()) => break,
                                Err(j) => {
                                    job = j;
                                    crate::sync::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..3 {
                let q = &q;
                let sum = &sum;
                let consumed = &consumed;
                s.spawn(move || loop {
                    if let Some(job) = q.pop() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        unsafe { job.run(sum as *const AtomicU64 as *mut ()) };
                    } else if consumed.load(Ordering::Relaxed) == PRODUCERS * PER_PRODUCER {
                        break;
                    } else {
                        crate::sync::hint::spin_loop();
                    }
                });
            }
        });
        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(ran.load(Ordering::Relaxed), n);
        assert_eq!(dropped.load(Ordering::Relaxed), 0);
        // Every distinct value arrived exactly once: the sum matches.
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}
