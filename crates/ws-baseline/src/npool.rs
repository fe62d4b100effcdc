//! The generic baseline scheduler: heap task nodes over a pluggable
//! work-stealing queue.
//!
//! Instantiated with [`crate::ChaseLev`] it stands in for **TBB** (child
//! stealing, pointer deque with fence-synchronized owner pops, heap task
//! objects); with [`crate::LockedDeque`] it stands in for **Cilk++**'s
//! heavyweight locked stealing path, and with the additional global
//! steal lock for **icc OpenMP**'s centralized behavior (see DESIGN.md
//! §3 for the substitution argument).
//!
//! The region protocol (active flag, caller-as-worker-0) matches
//! `wool_core::Pool` so that all systems see identical workloads.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::thread::JoinHandle;

use wool_core::spinlock::SpinLock;
use wool_core::{Executor, Fork, Job, Stats};

use crate::node::{
    alloc_node, is_done, take_body_and_free, take_panic_and_free, take_result_and_free,
    ClosureBody, Fate, ForEachBody, NodeBody, TaskHeader, DONE, DONE_PANIC, PENDING, STOLEN_BASE,
};

/// A per-worker task queue of type-erased node pointers.
///
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
    /// and "lost a race": the baseline steal loops simply retry.
    fn steal(&self) -> Option<*mut TaskHeader>;
}

/// Per-worker scheduler counters (atomics: written by the owning worker,
/// read by the coordinator at any time).
#[derive(Debug, Default)]
struct NodeStats {
    /// Tasks spawned.
    spawns: AtomicU64,
    /// Successful steals.
    steals: AtomicU64,
    /// Successful steals while leap-frogging.
    leap_steals: AtomicU64,
    /// Steal attempts that found nothing.
    failed_steals: AtomicU64,
    /// Joins that found their task stolen.
    stolen_joins: AtomicU64,
}

/// One baseline worker.
struct NodeWorker<Q: NodeQueue> {
    queue: Q,
    stats: NodeStats,
    /// xorshift64* state for victim selection (owner-only).
    rng: UnsafeCell<u64>,
}

// SAFETY: `rng` is only touched by the owning worker thread; everything
// else is atomics or the queue (which carries its own Sync obligations).
unsafe impl<Q: NodeQueue> Sync for NodeWorker<Q> {}
unsafe impl<Q: NodeQueue> Send for NodeWorker<Q> {}

/// Shared pool state.
struct NodePoolInner<Q: NodeQueue> {
    workers: Box<[NodeWorker<Q>]>,
    active: AtomicBool,
    shutdown: AtomicBool,
    /// Optional global lock serializing all steals (the OpenMP-like
    /// configuration).
    global_steal_lock: Option<SpinLock>,
}

/// Configuration of a baseline pool.
#[derive(Debug, Clone)]
pub struct NodePoolConfig {
    /// Total workers, including the `run` caller.
    pub workers: usize,
    /// Serialize all steals through one global lock (OpenMP-like).
    pub global_steal_lock: bool,
    /// Display name for reports.
    pub name: &'static str,
}

/// A baseline work-stealing pool over queue type `Q`.
pub struct NodePool<Q: NodeQueue> {
    inner: Arc<NodePoolInner<Q>>,
    threads: Vec<JoinHandle<()>>,
    name: &'static str,
}

impl<Q: NodeQueue> NodePool<Q> {
    /// Creates a pool with `workers` workers (>= 1).
    pub fn with_config(cfg: NodePoolConfig) -> Self {
        assert!(cfg.workers >= 1, "a pool needs at least one worker");
        let workers: Box<[NodeWorker<Q>]> = (0..cfg.workers)
            .map(|i| NodeWorker {
                queue: Q::new(),
                stats: NodeStats::default(),
                rng: UnsafeCell::new(0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1) | 1),
            })
            .collect();
        let inner = Arc::new(NodePoolInner {
            workers,
            active: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            global_steal_lock: cfg.global_steal_lock.then(SpinLock::new),
        });
        let threads = (1..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("{}-{}", cfg.name, i))
                    .spawn(move || background_loop(inner, i))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        NodePool {
            inner,
            threads,
            name: cfg.name,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// Runs `f` as the root of a parallel region; the caller becomes
    /// worker 0.
    pub fn run<R, F>(&mut self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&mut NodeCtx<Q>) -> R + Send,
    {
        let inner = &*self.inner;
        inner.active.store(true, Release);
        for t in &self.threads {
            t.thread().unpark();
        }
        // SAFETY: the pool outlives the context; this thread is the
        // unique worker 0 while `run` executes (`&mut self`).
        let mut ctx = unsafe { NodeCtx::new(inner, 0) };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
        inner.active.store(false, Release);
        match result {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Aggregated scheduler statistics since construction (or the last
    /// [`reset_stats`](NodePool::reset_stats)).
    pub fn stats(&self) -> Stats {
        let mut total = Stats::default();
        for w in self.inner.workers.iter() {
            total.spawns += w.stats.spawns.load(Relaxed);
            total.steals += w.stats.steals.load(Relaxed);
            total.leap_steals += w.stats.leap_steals.load(Relaxed);
            total.failed_steals += w.stats.failed_steals.load(Relaxed);
            total.stolen_joins += w.stats.stolen_joins.load(Relaxed);
        }
        total
    }

    /// Zeroes all statistics counters.
    pub fn reset_stats(&mut self) {
        for w in self.inner.workers.iter() {
            w.stats.spawns.store(0, Relaxed);
            w.stats.steals.store(0, Relaxed);
            w.stats.leap_steals.store(0, Relaxed);
            w.stats.failed_steals.store(0, Relaxed);
            w.stats.stolen_joins.store(0, Relaxed);
        }
    }
}

impl<Q: NodeQueue> Drop for NodePool<Q> {
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

impl<Q: NodeQueue> Executor for NodePool<Q> {
    fn run_job<R: Send, J: Job<R>>(&mut self, job: J) -> R {
        self.run(move |ctx| job.call(ctx))
    }

    fn workers(&self) -> usize {
        NodePool::workers(self)
    }

    fn name(&self) -> String {
        self.name.to_string()
    }
}

/// The fork-join context of a baseline worker.
pub struct NodeCtx<Q: NodeQueue> {
    inner: *const NodePoolInner<Q>,
    idx: usize,
    _not_send: PhantomData<*mut ()>,
}

impl<Q: NodeQueue> NodeCtx<Q> {
    /// # Safety
    /// `inner` must outlive the context; the calling thread must be the
    /// unique worker `idx` while the context exists.
    unsafe fn new(inner: &NodePoolInner<Q>, idx: usize) -> Self {
        NodeCtx {
            inner,
            idx,
            _not_send: PhantomData,
        }
    }

    #[inline(always)]
    fn inner<'a>(&self) -> &'a NodePoolInner<Q> {
        // SAFETY: constructor contract.
        unsafe { &*self.inner }
    }

    #[inline(always)]
    fn me<'a>(&self) -> &'a NodeWorker<Q> {
        &self.inner().workers[self.idx]
    }

    /// Joins the node most recently pushed by this worker.
    ///
    /// # Safety
    /// `expected` must be the header of the most recent un-joined push
    /// of this worker, of body type `B`.
    unsafe fn join_node<B: NodeBody<Self>>(&mut self, expected: *mut TaskHeader) -> B::Output {
        // SAFETY(owner-pop): this thread is the queue's unique owner.
        if let Some(ptr) = self.me().queue.pop() {
            debug_assert_eq!(ptr, expected, "LIFO discipline violated");
            let body = take_body_and_free::<B, Self>(ptr);
            return body.run(self);
        }
        // The node was (or is being) stolen.
        self.me().stats.stolen_joins.fetch_add(1, Relaxed);
        let hdr = &*expected;
        let mut idle = 0u32;
        loop {
            let s = hdr.state.load(Acquire);
            if is_done(s) {
                if s == DONE {
                    return take_result_and_free::<B, Self>(expected);
                }
                let p = take_panic_and_free::<B, Self>(expected);
                std::panic::resume_unwind(p);
            }
            if s >= STOLEN_BASE {
                // Leap-frog: steal only from our thief.
                let thief = s - STOLEN_BASE;
                if !self.try_steal_from(thief, true) {
                    idle += 1;
                    if idle < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            } else {
                // PENDING: the thief holds the pointer but has not yet
                // announced itself.
                debug_assert_eq!(s, PENDING);
                std::hint::spin_loop();
            }
        }
    }

    /// One steal attempt; on success executes the task and returns true.
    fn try_steal_from(&mut self, victim_idx: usize, leap: bool) -> bool {
        let inner = self.inner();
        let victim = &inner.workers[victim_idx];
        let stolen = if let Some(glock) = &inner.global_steal_lock {
            glock.with(|| victim.queue.steal())
        } else {
            victim.queue.steal()
        };
        match stolen {
            Some(hdr) => {
                let me = self.me();
                if leap {
                    me.stats.leap_steals.fetch_add(1, Relaxed);
                } else {
                    me.stats.steals.fetch_add(1, Relaxed);
                }
                // Announce ourselves for leap-frogging, then execute.
                // SAFETY: we own the node between steal and DONE.
                unsafe {
                    (*hdr).state.store(STOLEN_BASE + self.idx, Release);
                    let ok = ((*hdr).exec)(hdr, self as *mut Self as *mut ());
                    (*hdr)
                        .state
                        .store(if ok { DONE } else { DONE_PANIC }, Release);
                }
                true
            }
            None => {
                self.me().stats.failed_steals.fetch_add(1, Relaxed);
                false
            }
        }
    }

    /// One random-victim steal round.
    fn steal_round(&mut self) -> bool {
        let p = self.inner().workers.len();
        if p <= 1 {
            return false;
        }
        // SAFETY: rng is owner-only.
        let r = unsafe {
            let rng = &mut *self.me().rng.get();
            let mut x = *rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *rng = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let mut victim = (r % (p as u64 - 1)) as usize;
        if victim >= self.idx {
            victim += 1;
        }
        self.try_steal_from(victim, false)
    }
}

impl<Q: NodeQueue> Fork for NodeCtx<Q> {
    fn fork<RA, RB, FA, FB>(&mut self, a: FA, b: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Self) -> RA + Send,
        FB: FnOnce(&mut Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let hdr = alloc_node::<ClosureBody<FB>, Self>(ClosureBody(b));
        let me = self.me();
        me.stats.spawns.fetch_add(1, Relaxed);
        // SAFETY(owner-push): this thread is the queue's unique owner.
        unsafe { me.queue.push(hdr) };

        let guard = NodeJoinGuard::<Q, ClosureBody<FB>> {
            ctx: self as *mut Self,
            hdr,
            _marker: PhantomData,
        };
        let ra = a(self);
        std::mem::forget(guard);

        // SAFETY: `hdr` is our most recent un-joined push with this
        // body type.
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
        let mut pending: Vec<*mut TaskHeader> = Vec::with_capacity(n - 1);
        for i in 1..n {
            let hdr = alloc_node::<ForEachBody<'_, F>, Self>(ForEachBody { body, i });
            let me = self.me();
            me.stats.spawns.fetch_add(1, Relaxed);
            // SAFETY(owner-push): unique owner.
            unsafe { me.queue.push(hdr) };
            pending.push(hdr);
        }
        let guard = ForEachNodeGuard::<'_, Q, F> {
            ctx: self as *mut Self,
            pending: &mut pending,
            _marker: PhantomData,
        };
        body(unsafe { &mut *guard.ctx }, 0);
        std::mem::forget(guard);
        while let Some(hdr) = pending.pop() {
            // SAFETY: LIFO join order over our own pushes.
            unsafe { self.join_node::<ForEachBody<'_, F>>(hdr) };
        }
    }

    fn worker_index(&self) -> usize {
        self.idx
    }

    fn num_workers(&self) -> usize {
        self.inner().workers.len()
    }
}

/// Panic guard: joins (and discards) the pending node if the inline
/// branch of `fork` unwinds.
struct NodeJoinGuard<Q: NodeQueue, B: NodeBody<NodeCtx<Q>>> {
    ctx: *mut NodeCtx<Q>,
    hdr: *mut TaskHeader,
    _marker: PhantomData<fn() -> B>,
}

impl<Q: NodeQueue, B: NodeBody<NodeCtx<Q>>> Drop for NodeJoinGuard<Q, B> {
    fn drop(&mut self) {
        // SAFETY: ctx outlives the guard (same frame); hdr is the most
        // recent un-joined push with body type B.
        unsafe {
            let _ = (*self.ctx).join_node::<B>(self.hdr);
        }
    }
}

/// Panic guard for `for_each_spawn`.
struct ForEachNodeGuard<'v, Q: NodeQueue, F> {
    ctx: *mut NodeCtx<Q>,
    pending: *mut Vec<*mut TaskHeader>,
    _marker: PhantomData<&'v F>,
}

impl<'v, Q, F> Drop for ForEachNodeGuard<'v, Q, F>
where
    Q: NodeQueue,
{
    fn drop(&mut self) {
        // The guard only fires during unwind out of `body(.., 0)`; we
        // must join all pending siblings. We cannot name `F`'s bounds in
        // this Drop without them on the struct, so the struct carries F.
        // SAFETY: see NodeJoinGuard.
        unsafe {
            let pending = &mut *self.pending;
            while let Some(hdr) = pending.pop() {
                let _ = wait_discard(&mut *self.ctx, hdr);
            }
        }
    }
}

/// Joins a pending node without knowing its body type, discarding the
/// result. Used only on unwind paths: an un-executed sibling is dropped
/// without running (unlike the non-panicking path, which always runs
/// every spawned task).
///
/// # Safety
/// `hdr` must be the context's most recent un-joined push.
unsafe fn wait_discard<Q: NodeQueue>(ctx: &mut NodeCtx<Q>, hdr: *mut TaskHeader) -> bool {
    if let Some(ptr) = ctx.me().queue.pop() {
        debug_assert_eq!(ptr, hdr);
        ((*ptr).finalize)(ptr, Fate::DropUnexecuted);
        return true;
    }
    let mut idle = 0u32;
    loop {
        let s = (*hdr).state.load(Acquire);
        if is_done(s) {
            let fate = if s == DONE {
                Fate::DropResult
            } else {
                Fate::DropPanic
            };
            ((*hdr).finalize)(hdr, fate);
            return s == DONE;
        }
        if s >= STOLEN_BASE {
            let thief = s - STOLEN_BASE;
            if !ctx.try_steal_from(thief, true) {
                idle += 1;
                if idle < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Background worker loop.
fn background_loop<Q: NodeQueue>(inner: Arc<NodePoolInner<Q>>, idx: usize) {
    // SAFETY: the Arc keeps the pool alive; unique worker `idx` thread.
    let mut ctx = unsafe { NodeCtx::new(&inner, idx) };
    let mut idle = 0u32;
    loop {
        if inner.shutdown.load(Acquire) {
            break;
        }
        if inner.active.load(Acquire) {
            if ctx.steal_round() {
                idle = 0;
            } else {
                idle += 1;
                if idle < 32 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
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
