//! A central-queue scheduler: the software analogue of Carbon.
//!
//! The Wool paper's related work (§I) discusses Carbon (Kumar et al.,
//! ISCA 2007), which "collect\[s\] all of the work queues in a central
//! location; the cores have to get and put tasks there". This module
//! provides the software version of that design point: **one** global
//! task pool shared by all workers, protected by a single lock. It
//! completes the repository's spectrum of task-pool organizations:
//!
//! ```text
//! wool-core   per-worker stacks, synchronization on the descriptor
//! tbb-like    per-worker Chase–Lev deques (fences)
//! cilk-like   per-worker locked deques
//! omp-like    per-worker locked deques + global steal lock
//! central     one global locked deque            <- this module
//! ```
//!
//! Without hardware support, every spawn and join crosses the global
//! lock, so this scheduler exhibits the contention Carbon's dedicated
//! hardware was designed to eliminate — which is precisely the
//! interesting measurement.
//!
//! Joins use **helping**: a worker whose awaited task is buried in (or
//! taken from) the global pool pops and executes *other* tasks until
//! its own completes, so progress is always made.

use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::thread::JoinHandle;

use wool_core::{Executor, Fork, Job, Stats};
use ws_deque::LockedDeque;

use crate::node::{
    alloc_node, is_done, take_body_and_free, take_panic_and_free, take_result_and_free,
    ClosureBody, ForEachBody, NodeBody, TaskHeader, DONE, DONE_PANIC, STOLEN_BASE,
};

/// Pointer wrapper for deque storage (ownership handled by the node
/// protocol).
struct Ptr(*mut TaskHeader);
// SAFETY: the node protocol serializes all accesses to the pointee.
unsafe impl Send for Ptr {}

/// Shared state of the central pool.
struct CentralInner {
    /// The single, global task pool (the "centralized queue").
    queue: LockedDeque<Ptr>,
    /// Total worker count (for `Fork::num_workers`).
    workers: usize,
    active: AtomicBool,
    shutdown: AtomicBool,
    spawns: AtomicU64,
    executed: AtomicU64,
    helped: AtomicU64,
}

/// A scheduler with one global task queue shared by all workers.
pub struct CentralPool {
    inner: Arc<CentralInner>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
}

impl CentralPool {
    /// Creates a pool with `workers` workers (including the `run`
    /// caller).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1);
        let inner = Arc::new(CentralInner {
            queue: LockedDeque::new(),
            workers,
            active: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            spawns: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            helped: AtomicU64::new(0),
        });
        let threads = (1..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("central-{i}"))
                    .spawn(move || background_loop(inner, i))
                    .expect("spawn worker")
            })
            .collect();
        CentralPool {
            inner,
            threads,
            workers,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` as the root of a parallel region.
    pub fn run<R, F>(&mut self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&mut CentralCtx) -> R + Send,
    {
        let inner = &*self.inner;
        inner.active.store(true, Release);
        for t in &self.threads {
            t.thread().unpark();
        }
        // SAFETY: pool outlives ctx; `&mut self` means one region at a
        // time and this thread is the unique worker 0.
        let mut ctx = unsafe { CentralCtx::new(inner, 0) };
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
        inner.active.store(false, Release);
        match r {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Cumulative statistics (spawns; executions; helped executions
    /// folded into `leap_steals` for uniform reporting).
    pub fn stats(&self) -> Stats {
        Stats {
            spawns: self.inner.spawns.load(Relaxed),
            steals: self.inner.executed.load(Relaxed),
            leap_steals: self.inner.helped.load(Relaxed),
            ..Stats::default()
        }
    }

    /// Zeroes the counters.
    pub fn reset_stats(&mut self) {
        self.inner.spawns.store(0, Relaxed);
        self.inner.executed.store(0, Relaxed);
        self.inner.helped.store(0, Relaxed);
    }
}

impl Drop for CentralPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Release);
        for t in &self.threads {
            t.thread().unpark();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Executor for CentralPool {
    fn run_job<R: Send, J: Job<R>>(&mut self, job: J) -> R {
        self.run(move |c| job.call(c))
    }
    fn workers(&self) -> usize {
        self.workers
    }
    fn name(&self) -> String {
        "central".into()
    }
}

/// Execution context of a central-pool worker.
pub struct CentralCtx {
    inner: *const CentralInner,
    idx: usize,
    _not_send: PhantomData<*mut ()>,
}

impl CentralCtx {
    /// # Safety
    /// `inner` must outlive the context; one context per worker thread.
    unsafe fn new(inner: &CentralInner, idx: usize) -> Self {
        CentralCtx {
            inner,
            idx,
            _not_send: PhantomData,
        }
    }

    #[inline(always)]
    fn inner<'a>(&self) -> &'a CentralInner {
        // SAFETY: constructor contract.
        unsafe { &*self.inner }
    }

    /// Executes an arbitrary task taken from the global pool.
    fn execute(&mut self, hdr: *mut TaskHeader, helped: bool) {
        let inner = self.inner();
        inner.executed.fetch_add(1, Relaxed);
        if helped {
            inner.helped.fetch_add(1, Relaxed);
        }
        // SAFETY: we own the node between pop/steal and DONE.
        unsafe {
            (*hdr).state.store(STOLEN_BASE + self.idx, Release);
            let ok = ((*hdr).exec)(hdr, self as *mut Self as *mut ());
            (*hdr)
                .state
                .store(if ok { DONE } else { DONE_PANIC }, Release);
        }
    }

    /// Joins `expected`, helping with other tasks while it is pending.
    ///
    /// # Safety
    /// `expected` must be a node this worker pushed and not yet joined,
    /// with body type `B`.
    unsafe fn join_node<B: NodeBody<Self>>(&mut self, expected: *mut TaskHeader) -> B::Output {
        let inner = self.inner();
        let mut idle = 0u32;
        loop {
            let s = (*expected).state.load(Acquire);
            if is_done(s) {
                if s == DONE {
                    return take_result_and_free::<B, Self>(expected);
                }
                let p = take_panic_and_free::<B, Self>(expected);
                std::panic::resume_unwind(p);
            }
            // Not done: either still queued or being executed. Help.
            match inner.queue.pop().map(|p| p.0) {
                Some(ptr) if ptr == expected => {
                    // Nobody took it: run inline.
                    let body = take_body_and_free::<B, Self>(ptr);
                    return body.run(self);
                }
                Some(ptr) => {
                    // Someone else's task: execute it (helping).
                    self.execute(ptr, true);
                    idle = 0;
                }
                None => {
                    idle += 1;
                    if idle < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }
}

impl Fork for CentralCtx {
    fn fork<RA, RB, FA, FB>(&mut self, a: FA, b: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Self) -> RA + Send,
        FB: FnOnce(&mut Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let hdr = alloc_node::<ClosureBody<FB>, Self>(ClosureBody(b));
        let inner = self.inner();
        inner.spawns.fetch_add(1, Relaxed);
        inner.queue.push(Ptr(hdr));

        let guard = CentralJoinGuard::<ClosureBody<FB>> {
            ctx: self as *mut Self,
            hdr,
            _marker: PhantomData,
        };
        let ra = a(self);
        std::mem::forget(guard);
        // SAFETY: hdr is our pending push of this body type.
        let rb = unsafe { self.join_node::<ClosureBody<FB>>(hdr) };
        (ra, rb)
    }

    fn for_each_spawn<F>(&mut self, n: usize, body: &F)
    where
        F: Fn(&mut Self, usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let inner = self.inner();
        let mut pending = Vec::with_capacity(n - 1);
        for i in 1..n {
            let hdr = alloc_node::<ForEachBody<'_, F>, Self>(ForEachBody { body, i });
            inner.spawns.fetch_add(1, Relaxed);
            inner.queue.push(Ptr(hdr));
            pending.push(hdr);
        }
        body(self, 0);
        while let Some(hdr) = pending.pop() {
            // SAFETY: our pending pushes, LIFO order, uniform body type.
            unsafe { self.join_node::<ForEachBody<'_, F>>(hdr) };
        }
    }

    fn worker_index(&self) -> usize {
        self.idx
    }

    fn num_workers(&self) -> usize {
        self.inner().workers
    }
}

/// Unwind guard: joins (discarding) the pending node.
struct CentralJoinGuard<B: NodeBody<CentralCtx>> {
    ctx: *mut CentralCtx,
    hdr: *mut TaskHeader,
    _marker: PhantomData<fn() -> B>,
}

impl<B: NodeBody<CentralCtx>> Drop for CentralJoinGuard<B> {
    fn drop(&mut self) {
        // SAFETY: ctx outlives the guard; hdr is the matching pending
        // push of body type B.
        unsafe {
            let _ = (*self.ctx).join_node::<B>(self.hdr);
        }
    }
}

/// Background worker loop: take tasks from the global pool.
fn background_loop(inner: Arc<CentralInner>, idx: usize) {
    // SAFETY: pool (via Arc) outlives the loop; unique worker idx.
    let mut ctx = unsafe { CentralCtx::new(&inner, idx) };
    let mut idle = 0u32;
    loop {
        if inner.shutdown.load(Acquire) {
            break;
        }
        if inner.active.load(Acquire) {
            // Take from the front (oldest = biggest subtrees).
            match inner.queue.steal(ws_deque::StealProtocol::Base).success() {
                Some(p) => {
                    ctx.execute(p.0, false);
                    idle = 0;
                }
                None => {
                    idle += 1;
                    if idle < 32 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        } else {
            idle += 1;
            if idle < 64 {
                std::thread::yield_now();
            } else {
                std::thread::park_timeout(std::time::Duration::from_micros(200));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fib<C: Fork>(c: &mut C, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = c.fork(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }

    #[test]
    fn fib_single_worker() {
        let mut p = CentralPool::new(1);
        assert_eq!(p.run(|c| fib(c, 18)), 2584);
    }

    #[test]
    fn fib_multi_worker() {
        let mut p = CentralPool::new(4);
        assert_eq!(p.run(|c| fib(c, 20)), 6765);
        assert!(p.stats().spawns > 5000);
    }

    #[test]
    fn for_each_covers_indices() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut p = CentralPool::new(3);
        let hits: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        p.run(|c| {
            c.for_each_spawn(50, &|_c, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panic_propagates() {
        let mut p = CentralPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.run(|c| {
                let ((), ()) = c.fork(|_| {}, |_| panic!("central boom"));
            })
        }));
        assert!(r.is_err());
        assert_eq!(p.run(|c| fib(c, 10)), 55);
    }

    #[test]
    fn repeated_regions() {
        let mut p = CentralPool::new(2);
        for _ in 0..20 {
            assert_eq!(p.run(|c| fib(c, 12)), 144);
        }
    }
}
