//! Spawn, join, steal: the direct task stack algorithm (§III-A/B).
//!
//! [`WorkerHandle`] is the capability through which all task code runs.
//! Its [`fork`](WorkerHandle::fork) corresponds to the paper's
//! `SPAWN f; CALL g; JOIN f` idiom: the second closure is spawned onto
//! the direct task stack (made stealable), the first is an ordinary —
//! fully inlinable — call, and the join either pops the spawned task
//! back (the overwhelmingly common case, costing a handful of cycles)
//! or enters the run-time system to resolve a steal.
//!
//! The code is generic over [`Strategy`], which monomorphizes the
//! Table II join ladder and the Figure 4 steal protocols with zero
//! runtime dispatch.
//!
//! # Safety architecture
//!
//! A `WorkerHandle` holds raw pointers to pool-owned state and is only
//! ever constructed by `Pool::run` (for worker 0), by the background
//! worker loops, and by wrappers executing stolen tasks. All of these
//! live strictly within the pool's lifetime, and a handle never escapes
//! the closure it is lent to (`&mut`, `!Send`, not constructible by
//! users). Spawned closures may borrow the caller's stack because every
//! control path out of `fork` — including panics, via [`JoinGuard`] —
//! joins the spawned task first.

use crate::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::marker::PhantomData;

use crate::cycles;
use crate::pool::PoolInner;
use crate::slot::{
    check_transition, is_done, is_stolen, spin_while_empty, stolen, thief_of, RawWrapper, TaskRepr,
    TaskSlot, DONE, DONE_PANIC, EMPTY, TASK,
};
use crate::span::combine;
use crate::strategy::{StealSync, Strategy};
use crate::timebreak::Category;
use crate::worker::{OwnerState, Worker};

/// Outcome of one steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StealOutcome {
    /// A task was stolen **and executed to completion**.
    Executed,
    /// No stealable task was observed at the victim.
    Empty,
    /// Lost a race (CAS failure, contended trylock, back-off); worth
    /// retrying soon.
    Retry,
}

/// A unit of work storable in a task descriptor.
///
/// This is the internal, nameable form of "a closure plus its result
/// type"; `fork` wraps user closures in [`ClosureTask`], while
/// `for_each_spawn` uses [`ForEachTask`] so every iteration shares one
/// concrete type (the stack discipline requires the join to know the
/// exact type of the task it pops).
pub(crate) trait TaskBody<S: Strategy>: Send + Sized {
    /// The task's result type.
    type Output: Send;
    /// Runs the task on the given worker.
    fn run(self, h: &mut WorkerHandle<S>) -> Self::Output;
}

/// Adapter: any `FnOnce(&mut WorkerHandle<S>) -> R + Send` is a task.
pub(crate) struct ClosureTask<F>(pub F);

impl<S, F, R> TaskBody<S> for ClosureTask<F>
where
    S: Strategy,
    F: FnOnce(&mut WorkerHandle<S>) -> R + Send,
    R: Send,
{
    type Output = R;
    #[inline(always)]
    fn run(self, h: &mut WorkerHandle<S>) -> R {
        (self.0)(h)
    }
}

/// One iteration of a `for_each_spawn`: a shared body plus an index.
/// 16 bytes — always stored inline in the descriptor.
pub(crate) struct ForEachTask<'a, F> {
    body: &'a F,
    i: usize,
}

impl<'a, S, F> TaskBody<S> for ForEachTask<'a, F>
where
    S: Strategy,
    F: Fn(&mut WorkerHandle<S>, usize) + Sync,
{
    type Output = ();
    #[inline(always)]
    fn run(self, h: &mut WorkerHandle<S>) {
        (self.body)(h, self.i)
    }
}

/// The task-specific wrapper (`wrap_f` in Figure 3), monomorphized per
/// task type and strategy. Executes the task in place; never touches the
/// slot's `state` (the caller publishes completion so it can order the
/// span hand-off first).
///
/// # Safety
/// `slot` must hold a task of exactly type `B`; `ctx` must point to the
/// executing worker's `WorkerHandle<S>`.
unsafe fn task_wrapper<B, S>(slot: *const TaskSlot, ctx: *mut ()) -> bool
where
    B: TaskBody<S>,
    S: Strategy,
{
    let h = &mut *(ctx as *mut WorkerHandle<S>);
    TaskRepr::<B, B::Output>::exec_in_place(&*slot, |b| b.run(h))
}

/// The execution context handed to every task closure.
///
/// Obtain one from [`crate::Pool::run`]; it cannot be constructed,
/// cloned, or sent to another thread from user code.
pub struct WorkerHandle<S: Strategy> {
    pool: *const PoolInner,
    wkr: *const Worker,
    idx: usize,
    /// Cached configuration (hot-path reads).
    trip_distance: usize,
    publish_batch: usize,
    min_grain: usize,
    _strategy: PhantomData<S>,
    _not_send: PhantomData<*mut ()>,
}

impl<S: Strategy> WorkerHandle<S> {
    /// Creates a handle for worker `idx`.
    ///
    /// # Safety
    /// `pool` must outlive every use of the handle, and the calling
    /// thread must be the unique thread acting as worker `idx` for the
    /// handle's entire lifetime.
    pub(crate) unsafe fn new(pool: &PoolInner, idx: usize) -> Self {
        WorkerHandle {
            pool,
            wkr: &pool.workers[idx],
            idx,
            trip_distance: pool.cfg.trip_distance,
            publish_batch: pool.cfg.publish_batch,
            min_grain: pool.cfg.min_grain,
            _strategy: PhantomData,
            _not_send: PhantomData,
        }
    }

    /// The pool this handle executes in.
    ///
    /// The returned reference is *not* tied to the `&self` borrow: it
    /// points into pool-owned memory that outlives the handle (see the
    /// constructor contract). This lets the scheduler hold worker/slot
    /// references across re-borrows of `self`.
    #[inline(always)]
    pub(crate) fn pool<'a>(&self) -> &'a PoolInner {
        // SAFETY: guaranteed by the constructor contract.
        unsafe { &*self.pool }
    }

    /// This worker's shared state (lifetime-decoupled, see [`pool`]).
    ///
    /// [`pool`]: WorkerHandle::pool
    #[inline(always)]
    pub(crate) fn wkr<'a>(&self) -> &'a Worker {
        // SAFETY: guaranteed by the constructor contract.
        unsafe { &*self.wkr }
    }

    /// This worker's owner-only state.
    ///
    /// # Safety
    /// The returned borrow must be short-lived: callers must not hold it
    /// across any call into user code or into another `own()` caller
    /// (standard `UnsafeCell` discipline; this thread is the only one
    /// that ever touches the cell).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub(crate) unsafe fn own<'a>(&self) -> &'a mut OwnerState {
        &mut *self.wkr().own.get()
    }

    /// Index of this worker within the pool (0 = the `run` caller).
    #[inline(always)]
    pub fn worker_index(&self) -> usize {
        self.idx
    }

    /// Number of workers in the pool.
    #[inline(always)]
    pub fn num_workers(&self) -> usize {
        self.pool().workers.len()
    }

    /// The pool's configured minimum data-parallel leaf grain
    /// ([`crate::PoolConfig::min_grain`]).
    #[inline(always)]
    pub fn min_grain(&self) -> usize {
        self.min_grain
    }

    /// Records a data-parallel split (a range of `_len` items about to
    /// be forked in half) in the worker's trace ring. A no-op without
    /// the `trace` cargo feature.
    #[inline(always)]
    pub fn note_split(&mut self, _len: usize) {
        // SAFETY: `own()` contract — owner thread, short-lived borrow
        // not held across user code.
        #[cfg(feature = "trace")]
        unsafe {
            trace_ev!(self, Split, _len.min(u32::MAX as usize));
        }
    }

    // ------------------------------------------------------------------
    // fork / join
    // ------------------------------------------------------------------

    /// Runs `a` and `b`, potentially in parallel, returning both results.
    ///
    /// `b` is spawned on the direct task stack (the paper's `SPAWN`),
    /// `a` runs as an ordinary call (`CALL`), then `b` is joined
    /// (`JOIN`): popped and run inline if nobody stole it, otherwise
    /// resolved through the run-time system with leap-frogging.
    pub fn fork<RA, RB, FA, FB>(&mut self, a: FA, b: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Self) -> RA + Send,
        FB: FnOnce(&mut Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        // SAFETY: `own` contract (owner thread, short-lived borrow).
        if unsafe { self.own().span.enabled } {
            // SAFETY: this handle is live on its owner thread.
            return cold_path(move || unsafe { self.fork_body::<true, _, _, _, _>(a, b) });
        }
        // SAFETY: this handle is live on its owner thread.
        unsafe { self.fork_body::<false, _, _, _, _>(a, b) }
    }

    /// `fork` with span instrumentation compiled in (`SPAN`) or out.
    /// Its `own` borrows are short-lived and never held across user code,
    /// and the spawned task is joined on every control path out of it
    /// (JoinGuard covers unwinding out of `a`).
    ///
    /// # Safety
    /// Must run on the thread owning this handle's worker.
    #[inline(always)]
    unsafe fn fork_body<const SPAN: bool, RA, RB, FA, FB>(&mut self, a: FA, b: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Self) -> RA + Send,
        FB: FnOnce(&mut Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if let Err(ClosureTask(b)) = self.try_push(ClosureTask(b)) {
            // Task-pool overflow: execute eagerly, in program order.
            self.own().stats.overflow_inlines += 1;
            let ra = a(self);
            let rb = b(self);
            return (ra, rb);
        }
        let frame = SPAN.then(|| self.own().span.fork_start());
        let guard = JoinGuard::<S, ClosureTask<FB>>::arm(self, 1);
        let ra = a(self);
        std::mem::forget(guard);
        let a_span = if SPAN {
            self.own().span.take_branch()
        } else {
            (0, 0)
        };
        let rb = self.join_task::<ClosureTask<FB>>();
        if let Some(frame) = frame {
            let span = &mut self.own().span;
            let b_span = span.take_branch();
            span.fork_join(frame, a_span, b_span);
        }
        (ra, rb)
    }

    /// Spawns `body(i)` for `i` in `1..n` as individual tasks, runs
    /// `body(0)` as the direct call, then joins them all in LIFO order
    /// (as the stack discipline requires).
    ///
    /// This is the paper's loop-parallelization idiom: for `mm` with 64
    /// rows, "63 tasks are spawned each of which will do one iteration
    /// of the outermost loop".
    pub fn for_each_spawn<F>(&mut self, n: usize, body: &F)
    where
        F: Fn(&mut Self, usize) + Sync,
    {
        if n == 0 {
            return;
        }
        // SAFETY: `own` contract (owner thread, short-lived borrow).
        if unsafe { self.own().span.enabled } {
            // SAFETY: this handle is live on its owner thread.
            return cold_path(move || unsafe { self.for_each_body::<true, F>(n, body) });
        }
        // SAFETY: this handle is live on its owner thread.
        unsafe { self.for_each_body::<false, F>(n, body) }
    }

    /// `for_each_spawn` (for `n >= 1`) with span instrumentation
    /// compiled in (`SPAN`) or out. As in `fork_body`, `own` borrows are
    /// short and every spawned iteration is joined before return
    /// (JoinGuard on unwind).
    ///
    /// # Safety
    /// Must run on the thread owning this handle's worker.
    #[inline(always)]
    unsafe fn for_each_body<const SPAN: bool, F>(&mut self, n: usize, body: &F)
    where
        F: Fn(&mut Self, usize) + Sync,
    {
        let frame = SPAN.then(|| self.own().span.fork_start());
        let mut guard = JoinGuard::<S, ForEachTask<'_, F>>::arm(self, 0);
        for i in 1..n {
            match self.try_push(ForEachTask { body, i }) {
                Ok(()) => guard.pending += 1,
                Err(t) => {
                    // Overflow: run eagerly.
                    self.own().stats.overflow_inlines += 1;
                    t.run(self);
                }
            }
        }
        body(self, 0);

        // Span of the direct call; each joined task folds into it as a
        // parallel sibling.
        let mut folded = if SPAN {
            self.own().span.take_branch()
        } else {
            (0, 0)
        };
        while guard.pending > 0 {
            guard.pending -= 1;
            self.join_task::<ForEachTask<'_, F>>();
            if SPAN {
                let span = &mut self.own().span;
                let s = span.take_branch();
                folded = (
                    combine(folded.0, s.0, 0),
                    combine(folded.1, s.1, span.overhead),
                );
            }
        }
        std::mem::forget(guard);
        if let Some(frame) = frame {
            self.own().span.fork_join(frame, folded, (0, 0));
        }
    }

    // ------------------------------------------------------------------
    // spawn
    // ------------------------------------------------------------------

    /// Pushes a task onto the direct task stack (`spawn_f` in Figure 3).
    /// Returns the task back on overflow.
    ///
    /// Spawns are not counted here: every pushed task is joined exactly
    /// once by its owner, so the report derives `Stats::spawns` from the
    /// join counters (see `OwnerState::finish`).
    ///
    /// # Safety
    /// The pushed task may borrow the caller's stack; the caller must
    /// join it (possibly via a guard) before those borrows expire.
    #[inline(always)]
    unsafe fn try_push<B: TaskBody<S>>(&mut self, b: B) -> Result<(), B> {
        let wkr = self.wkr();
        let own = self.own();
        let k = own.top;
        if k == wkr.capacity() {
            return Err(b);
        }
        let slot = wkr.slot(k);
        // Guard: a descriptor being (re)used for a push may be freshly
        // EMPTY, left DONE/DONE_PANIC by a joined steal, or — rarely —
        // still TASK: a stale thief's back-off can restore TASK *after*
        // the owner consumed the task through the private fast path
        // (the owner's private-path spin waits the thief out first, so
        // the restore is totally ordered before this push). What must
        // never be here is a live STOLEN marker: that descriptor is
        // executing on another worker.
        check_transition(slot, |s| !is_stolen(s), "spawn reuses slot");
        TaskRepr::<B, B::Output>::store(slot, b, task_wrapper::<B, S> as RawWrapper);
        // With private tasks the publication fence is the later Release
        // store to `n_public`; otherwise this store itself publishes the
        // task to thieves. (Either way this compiles to a plain store on
        // x86 — the paper's TSO argument for synchronization-free
        // spawns.)
        if S::PRIVATE_TASKS && !S::PUBLISH_ALL {
            // relaxed-ok: the slot is private (above `n_public`); no
            // thief may read it until the later Release store to
            // `n_public` publishes it, and that store orders this one.
            slot.state.store(TASK, Relaxed);
        } else {
            slot.state.store(TASK, Release);
        }
        own.top = k + 1;
        if S::SHARED_TOP {
            wkr.top_shared.store(k + 1, Release);
        }
        if S::PRIVATE_TASKS {
            if S::PUBLISH_ALL {
                wkr.n_public.store(k + 1, Release);
            // relaxed-ok: advisory trip-wire flag; a missed set only
            // delays publication until the next spawn or steal request.
            } else if wkr.publish_request.load(Relaxed) {
                self.publish();
            }
        }
        trace_ev!(self, Spawn, k + 1);
        Ok(())
    }

    /// §III-B: raises the public boundary in response to a thief's
    /// trip-wire notification.
    #[cold]
    unsafe fn publish(&mut self) {
        let wkr = self.wkr();
        // relaxed-ok: advisory flag reset; losing a concurrent set only
        // delays the next publication, it cannot lose tasks.
        wkr.publish_request.store(false, Relaxed);
        let own = self.own();
        // relaxed-ok: `n_public` is written only by this thread; its own
        // last store is always visible to it.
        let np = wkr.n_public.load(Relaxed);
        let top = own.top;
        if top > np {
            let new = (np + self.publish_batch).min(top);
            // Release: thieves that Acquire-read the new boundary must
            // see the TASK states and closure data written before it.
            wkr.n_public.store(new, Release);
            own.stats.publishes += 1;
            trace_ev!(self, Publish, new - np);
        }
    }

    // ------------------------------------------------------------------
    // join
    // ------------------------------------------------------------------

    /// The task-specific join (`join_f` in Figure 3): pops the youngest
    /// task; the fast path acquires it with one atomic swap (or, for a
    /// private task, with no atomic read-modify-write at all) and calls
    /// it directly.
    ///
    /// When span instrumentation is on, the joined task's span is left
    /// in the worker's span accumulators for the caller to
    /// [`take_branch`](crate::span::SpanState::take_branch).
    ///
    /// # Safety
    /// `B` must be exactly the type of the most recent un-joined push
    /// (guaranteed by `fork`/`for_each_spawn` nesting discipline).
    #[inline(always)]
    unsafe fn join_task<B: TaskBody<S>>(&mut self) -> B::Output {
        if S::SHARED_TOP {
            return self.join_task_shared_top::<B>();
        }
        let wkr = self.wkr();
        let own = self.own();
        own.top -= 1;
        let k = own.top;
        let slot = wkr.slot(k);

        // relaxed-ok: `n_public` is written only by this thread.
        if S::PRIVATE_TASKS && k >= wkr.n_public.load(Relaxed) {
            // Private fast path: no atomic RMW, no fence — the ~3-cycle
            // row of Table II.
            own.stats.inlined_private += 1;
            // relaxed-ok (both loads below): the closure data was written
            // by this thread; a transient thief writes only the state
            // word (its CAS), never the data, so there is nothing to
            // acquire — we wait for the *value* TASK only.
            if slot.state.load(Relaxed) != TASK {
                // A stale thief transiently CASed this slot; because the
                // slot is private its post-CAS validation must fail, so
                // it will restore TASK. Extremely rare.
                while slot.state.load(Relaxed) != TASK {
                    crate::sync::hint::spin_loop();
                }
            }
            // Guard: we just observed TASK, but a stale thief may CAS
            // TASK→EMPTY between that observation and this store (its
            // back-off will restore TASK; harmless either way since we
            // overwrite with EMPTY). Anything else is a protocol bug.
            check_transition(slot, |s| s == TASK || s == EMPTY, "private pop");
            // relaxed-ok: un-publishes a slot only this thread may touch
            // (transient thieves excepted, see the guard above).
            slot.state.store(EMPTY, Relaxed);
            trace_ev!(self, JoinFastPrivate, k);
            return self.call_inline::<B>(slot);
        }

        // Public fast path: one atomic exchange (§III-A).
        let s = slot.state.swap(EMPTY, AcqRel);
        if s == TASK {
            own.stats.inlined_public += 1;
            if S::PRIVATE_TASKS && !S::PUBLISH_ALL {
                // We inlined a public task — the situation private tasks
                // are designed to exploit (§III-B): privatize down to
                // the new top. Safe because the swap above acquired the
                // only descriptor between the old boundary and `top`.
                // relaxed-ok: `n_public` is written only by this thread.
                if wkr.n_public.load(Relaxed) > k {
                    wkr.n_public.store(k, Release);
                }
            }
            trace_ev!(self, JoinFastPublic, k);
            return self.call_inline::<B>(slot);
        }
        self.rts_join::<B>(slot, k, s)
    }

    /// Table II *base*: join under the per-worker lock, steal detection
    /// by comparing the shared `top` with `bot`.
    unsafe fn join_task_shared_top<B: TaskBody<S>>(&mut self) -> B::Output {
        let wkr = self.wkr();
        let own = self.own();
        own.top -= 1;
        let k = own.top;
        let slot = wkr.slot(k);

        wkr.lock.lock();
        // relaxed-ok (store and load): both words are read and written
        // under the per-worker lock in this strategy; the lock's own
        // Acquire/Release edges order them.
        wkr.top_shared.store(k, Relaxed);
        let was_stolen = wkr.bot.load(Relaxed) > k;
        wkr.lock.unlock();

        if !was_stolen {
            own.stats.inlined_public += 1;
            trace_ev!(self, JoinFastPublic, k);
            return self.call_inline::<B>(slot);
        }
        own.stats.rts_joins += 1;
        own.stats.stolen_joins += 1;
        let s = slot.state.load(Acquire);
        debug_assert!(is_stolen(s) || is_done(s));
        trace_ev!(
            self,
            JoinSlow,
            if is_stolen(s) {
                thief_of(s)
            } else {
                // The thief already completed the task; its identity is
                // gone from the state word.
                u32::MAX as usize
            }
        );
        let s = if is_stolen(s) {
            self.leap_wait(slot, thief_of(s))
        } else {
            s
        };
        // The victim takes the lock when joining with a stolen task
        // (§IV-C), protecting the `bot` decrement.
        wkr.lock.lock();
        // relaxed-ok: `bot` is lock-protected in this strategy.
        wkr.bot.store(k, Relaxed);
        // Leap-frogged executions spawn on this stack while we waited:
        // their pushes raised `top_shared` and their joins lowered it
        // only back to `k + 1` (the lowest nested slot). Left there,
        // `bot = k < top_shared` would re-expose the consumed slot `k`
        // as stealable. Re-lower it with `bot`, under the same lock.
        // relaxed-ok: `top_shared` is read under this lock in this
        // strategy; the lock's edges order the store.
        wkr.top_shared.store(k, Relaxed);
        wkr.lock.unlock();
        self.finish_stolen::<B>(slot, s)
    }

    /// The inlined call: direct (task-specific) or through the wrapper.
    #[inline(always)]
    unsafe fn call_inline<B: TaskBody<S>>(&mut self, slot: &TaskSlot) -> B::Output {
        if S::TASK_SPECIFIC_JOIN {
            // Direct call, visible to the optimizer — the paper's
            // task-specific join. Panics propagate naturally.
            TaskRepr::<B, B::Output>::take_closure(slot).run(self)
        } else {
            self.call_via_wrapper::<B>(slot)
        }
    }

    /// Generic (non-task-specific) inlined call through the wrapper
    /// function pointer; used by the `SyncOnTask` and `LockedBase` rungs
    /// and by the re-acquisition path of `RTS_join`.
    unsafe fn call_via_wrapper<B: TaskBody<S>>(&mut self, slot: &TaskSlot) -> B::Output {
        let wrapper = slot.wrapper();
        if !wrapper(slot as *const TaskSlot, self as *mut Self as *mut ()) {
            let payload = TaskRepr::<B, B::Output>::take_panic(slot);
            std::panic::resume_unwind(payload);
        }
        TaskRepr::<B, B::Output>::take_result(slot)
    }

    /// `RTS_join` (Figure 3): the join found the slot not simply
    /// poppable — a thief holds it transiently, stole it, or already
    /// completed it.
    #[cold]
    unsafe fn rts_join<B: TaskBody<S>>(
        &mut self,
        slot: &TaskSlot,
        k: usize,
        mut s: usize,
    ) -> B::Output {
        self.own().stats.rts_joins += 1;
        #[cfg(feature = "trace")]
        let mut join_thief = u32::MAX as usize;
        loop {
            if s == EMPTY {
                // Transient: a thief is between its CAS and either its
                // back-off restore or its STOLEN announcement.
                s = spin_while_empty(slot);
            }
            if s == TASK {
                // The thief backed off and restored the task; race for
                // it again with the swap.
                s = slot.state.swap(EMPTY, AcqRel);
                if s == TASK {
                    return self.call_via_wrapper::<B>(slot);
                }
                continue;
            }
            if is_stolen(s) {
                #[cfg(feature = "trace")]
                {
                    join_thief = thief_of(s);
                }
                s = self.leap_wait(slot, thief_of(s));
            }
            debug_assert!(is_done(s), "unexpected task state {s}");
            // Reached iff the task was stolen (whether or not we had to
            // wait for it); count it here so `stolen_joins` matches the
            // thieves' steal counters exactly.
            self.own().stats.stolen_joins += 1;
            trace_ev!(self, JoinSlow, join_thief);
            // Maintain `n_public <= top`: the stolen task may have been
            // the last public descriptor; everything above `k` is dead.
            {
                let wkr = self.wkr();
                // relaxed-ok: `n_public` is written only by this thread.
                if S::PRIVATE_TASKS && wkr.n_public.load(Relaxed) > k {
                    wkr.n_public.store(k, Release);
                }
            }
            // The task was stolen and is complete: the thief advanced
            // `bot` past it; having synchronized on DONE we own `bot`
            // and move it back down (the paper's trailing `bot--`).
            let wkr = self.wkr();
            if steal_uses_lock::<S>() {
                wkr.lock.lock();
                // relaxed-ok: `bot` is lock-protected in this strategy.
                wkr.bot.store(k, Relaxed);
                wkr.lock.unlock();
            } else {
                // relaxed-ok: the thief's Release store of DONE (which we
                // Acquire-loaded to get here) ordered its `bot` store
                // before our load; no thief can move `bot` past the
                // youngest public descriptor — ours.
                debug_assert_eq!(wkr.bot.load(Relaxed), k + 1);
                wkr.bot.store(k, Release);
            }
            return self.finish_stolen::<B>(slot, s);
        }
    }

    /// Reads the result (or re-raises the panic) of a completed stolen
    /// task and, when span-instrumented, adds its measured span to the
    /// accumulators (where an inlined join would have accumulated it).
    unsafe fn finish_stolen<B: TaskBody<S>>(&mut self, slot: &TaskSlot, s: usize) -> B::Output {
        let span = &mut self.own().span;
        if span.enabled {
            // In series with what the accumulators hold: nothing after a
            // fork's or for_each's `take_branch`.
            let (s0, sc) = slot.span();
            span.span0 += s0;
            span.span_c += sc;
            // Do not charge the wait to the parent's span: restart the
            // leaf mark now that the join has resolved.
            span.mark = cycles::now();
        }
        if s == DONE_PANIC {
            let payload = TaskRepr::<B, B::Output>::take_panic(slot);
            std::panic::resume_unwind(payload);
        }
        TaskRepr::<B, B::Output>::take_result(slot)
    }

    /// Leap-frogging (§I, Wagner & Calder): while our task is away,
    /// steal only from the thief that took it. Returns the final state.
    unsafe fn leap_wait(&mut self, slot: &TaskSlot, thief: usize) -> usize {
        let prev = {
            let own = self.own();
            own.tb.leap_depth += 1;
            // The joined descriptor sits at `top` (the join already
            // popped it); leap-frogged executions spawn on *this* stack,
            // so bump `top` past the awaited descriptor or the nested
            // spawns would overwrite its state word and result.
            own.top += 1;
            own.tb.switch(Category::Lf)
        };
        trace_ev!(self, Leapfrog, thief);
        let mut idle = 0u32;
        let s = loop {
            let s = slot.state.load(Acquire);
            if is_done(s) {
                break s;
            }
            let outcome = if S::LEAPFROG || idle > 100_000 {
                // Without leap-frogging, chains of blocked joins can form
                // a wait-for cycle among workers (the reason Wagner &
                // Calder's leap-frogging exists); after a long quiet wait
                // the non-leapfrog ablation falls back to stealing from
                // the thief as a progress guarantee, which keeps its
                // measured LA time near zero without risking livelock.
                self.try_steal_from(thief, true)
            } else {
                // Plain waiting (ablation): no stealing while blocked.
                StealOutcome::Empty
            };
            match outcome {
                StealOutcome::Executed => idle = 0,
                StealOutcome::Retry => {
                    idle += 1;
                    crate::sync::hint::spin_loop();
                }
                StealOutcome::Empty => {
                    idle += 1;
                    if idle < 64 {
                        crate::sync::hint::spin_loop();
                    } else {
                        // The thief may be descheduled (oversubscribed
                        // host); let it run.
                        crate::sync::thread::yield_now();
                    }
                }
            }
        };
        let own = self.own();
        own.tb.leap_depth -= 1;
        own.top -= 1;
        own.tb.switch(prev);
        s
    }

    // ------------------------------------------------------------------
    // steal
    // ------------------------------------------------------------------

    /// One steal attempt against `victim_idx`; on success the stolen
    /// task is executed to completion on this worker before returning.
    ///
    /// # Safety
    /// Must run on the thread owning this handle's worker.
    pub(crate) unsafe fn try_steal_from(&mut self, victim_idx: usize, leap: bool) -> StealOutcome {
        debug_assert_ne!(victim_idx, self.idx);
        let victim: &Worker = &self.pool().workers[victim_idx];
        trace_ev!(self, StealAttempt, victim_idx);

        let out = if S::SHARED_TOP {
            self.steal_shared_top(victim, victim_idx, leap)
        } else {
            match S::STEAL_SYNC {
                StealSync::NoLock => self.steal_nolock(victim, victim_idx, leap),
                StealSync::LockBase => {
                    self.steal_locked(victim, victim_idx, leap, LockMode::Always)
                }
                StealSync::LockPeek => self.steal_locked(victim, victim_idx, leap, LockMode::Peek),
                StealSync::LockTrylock => {
                    self.steal_locked(victim, victim_idx, leap, LockMode::Trylock)
                }
            }
        };
        if !matches!(out, StealOutcome::Executed) {
            trace_ev!(self, StealFail, victim_idx);
        }
        out
    }

    /// The direct task stack steal (`RTS_steal` in Figure 3).
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    unsafe fn steal_nolock(
        &mut self,
        victim: &Worker,
        victim_idx: usize,
        leap: bool,
    ) -> StealOutcome {
        // Acquire pairs with the previous thief's Release store of
        // `bot = b` (or the owner's restore): it orders that steal's
        // slot writes before our reads of slot `b`.
        let b = victim.bot.load(Acquire);
        if S::PRIVATE_TASKS {
            // Acquire pairs with the owner's Release publication store:
            // observing `np > b` makes the TASK state and closure data
            // of every slot below `np` visible.
            let np = victim.n_public.load(Acquire);
            if b >= np {
                // Nothing public. There may be private work; ask the
                // owner to publish at its next spawn. (Worker 0's flag
                // is armed at region start, so the root's first spawn
                // publishes without waiting for this request.)
                // relaxed-ok: advisory trip-wire flag (see try_push).
                victim.publish_request.store(true, Relaxed);
                let own = self.own();
                own.stats.failed_steals += 1;
                own.stats.publish_requests += 1;
                trace_ev!(self, PublishRequest, victim_idx);
                return StealOutcome::Empty;
            }
        }
        if b >= victim.capacity() {
            self.own().stats.failed_steals += 1;
            return StealOutcome::Empty;
        }
        let slot = victim.slot(b);
        let s1 = slot.state.load(Acquire);
        if s1 != TASK {
            self.own().stats.failed_steals += 1;
            return StealOutcome::Empty;
        }
        // relaxed-ok: the failure ordering — a failed CAS acquires
        // nothing and we immediately retry from scratch. The AcqRel
        // success edge pairs with the owner's publication store (task
        // data) and orders our later writes after the acquisition.
        if slot
            .state
            .compare_exchange(TASK, EMPTY, AcqRel, Relaxed)
            .is_err()
        {
            self.own().stats.lost_races += 1;
            return StealOutcome::Retry;
        }
        // §III-A back-off: we may be a delayed thief that acquired a
        // *reincarnation* of the descriptor; validate that `bot` still
        // points here (and, with private tasks, that the descriptor is
        // still public). Both loads are Acquire so the validation
        // observes values at least as fresh as our winning CAS.
        if victim.bot.load(Acquire) != b || (S::PRIVATE_TASKS && victim.n_public.load(Acquire) <= b)
        {
            // Guard: between our CAS and this restore we hold the slot —
            // the only concurrent write is the owner's public-path swap
            // (or private-path store) of EMPTY, which does not change
            // the value we observe.
            check_transition(slot, |s| s == EMPTY, "back-off restore");
            // "Writing back the old value of state is appropriate since
            // the transient value (EMPTY) only makes thieves abort and
            // the joining owner wait." (§III-A)
            slot.state.store(TASK, Release);
            self.own().stats.backoffs += 1;
            trace_ev!(self, Backoff, victim_idx);
            return StealOutcome::Retry;
        }
        // Guard: same exclusive-hold argument as the back-off restore.
        check_transition(slot, |s| s == EMPTY, "STOLEN announcement");
        slot.state.store(stolen(self.idx), Release);
        // Release pairs with the next thief's Acquire load of `bot`,
        // ordering our STOLEN announcement before its probe of slot b+1.
        victim.bot.store(b + 1, Release);
        if S::PRIVATE_TASKS {
            // Trip wire: stealing within `trip_distance` of the public
            // boundary asks the owner for more public tasks.
            // relaxed-ok: heuristic distance check + advisory flag; a
            // stale `n_public` can only mistime the publication request.
            let np = victim.n_public.load(Relaxed);
            if np.saturating_sub(b + 1) < self.trip_distance {
                victim.publish_request.store(true, Relaxed);
                trace_ev!(self, PublishRequest, victim_idx);
            }
        }
        trace_ev!(self, StealSuccess, victim_idx);
        self.execute_stolen(slot, leap);
        StealOutcome::Executed
    }

    /// §IV-C lock-based steal protocols (Figure 4's base/peek/trylock).
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    unsafe fn steal_locked(
        &mut self,
        victim: &Worker,
        victim_idx: usize,
        leap: bool,
        mode: LockMode,
    ) -> StealOutcome {
        if matches!(mode, LockMode::Peek | LockMode::Trylock) {
            // Peek before locking: read the descriptor `bot` points to
            // and lock only when it holds a stealable task.
            let b = victim.bot.load(Acquire);
            if b >= victim.capacity() || victim.slot(b).state.load(Acquire) != TASK {
                self.own().stats.failed_steals += 1;
                return StealOutcome::Empty;
            }
        }
        match mode {
            LockMode::Trylock => {
                if !victim.lock.try_lock() {
                    self.own().stats.lost_races += 1;
                    return StealOutcome::Retry;
                }
            }
            _ => victim.lock.lock(),
        }
        // `bot` is protected by the lock: thieves never back off (§IV-C).
        // relaxed-ok: lock-protected word.
        let b = victim.bot.load(Relaxed);
        if b >= victim.capacity() {
            victim.lock.unlock();
            self.own().stats.failed_steals += 1;
            return StealOutcome::Empty;
        }
        let slot = victim.slot(b);
        if slot.state.load(Acquire) != TASK {
            victim.lock.unlock();
            self.own().stats.failed_steals += 1;
            return StealOutcome::Empty;
        }
        // The owner's join fast path still races with us on the state
        // word (it does not take the lock), so acquire with a CAS.
        // relaxed-ok: failure ordering — a failed CAS acquires nothing.
        if slot
            .state
            .compare_exchange(TASK, EMPTY, AcqRel, Relaxed)
            .is_err()
        {
            victim.lock.unlock();
            self.own().stats.lost_races += 1;
            return StealOutcome::Retry;
        }
        // Guard: we hold the slot (winning CAS) *and* the victim lock.
        check_transition(slot, |s| s == EMPTY, "locked STOLEN announcement");
        slot.state.store(stolen(self.idx), Release);
        // relaxed-ok: lock-protected word.
        victim.bot.store(b + 1, Relaxed);
        victim.lock.unlock();
        trace_ev!(self, StealSuccess, victim_idx);
        self.execute_stolen(slot, leap);
        StealOutcome::Executed
    }

    /// Table II *base* steal: everything under the victim lock, validity
    /// decided by the `top`/`bot` comparison; the state word is only a
    /// completion signal.
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    unsafe fn steal_shared_top(
        &mut self,
        victim: &Worker,
        victim_idx: usize,
        leap: bool,
    ) -> StealOutcome {
        victim.lock.lock();
        // relaxed-ok: lock-protected word.
        let b = victim.bot.load(Relaxed);
        let t = victim.top_shared.load(Acquire);
        if b >= t {
            victim.lock.unlock();
            self.own().stats.failed_steals += 1;
            return StealOutcome::Empty;
        }
        let slot = victim.slot(b);
        // Under the lock the steal end is exclusively ours: mark and go.
        // (The owner observes `bot > k` only under the same lock, by
        // which time STOLEN below is visible.)
        // Guard: in this strategy the state word is only a completion
        // signal — a live slot below the shared `top` must read TASK
        // (every push stores it, and no join path clears it here).
        check_transition(slot, |s| s == TASK, "shared-top STOLEN mark");
        slot.state.store(stolen(self.idx), Release);
        // relaxed-ok: lock-protected word.
        victim.bot.store(b + 1, Relaxed);
        victim.lock.unlock();
        trace_ev!(self, StealSuccess, victim_idx);
        self.execute_stolen(slot, leap);
        StealOutcome::Executed
    }

    /// Runs a freshly stolen task and publishes its completion.
    unsafe fn execute_stolen(&mut self, slot: &TaskSlot, leap: bool) {
        let (prev_cat, saved_span) = {
            let own = self.own();
            if leap {
                own.stats.leap_steals += 1;
            } else {
                own.stats.steals += 1;
            }
            let prev_cat = own.tb.switch(own.tb.app_category());
            let saved_span = if own.span.enabled {
                let s = (own.span.span0, own.span.span_c);
                own.span.span0 = 0;
                own.span.span_c = 0;
                own.span.mark = cycles::now();
                Some(s)
            } else {
                None
            };
            (prev_cat, saved_span)
        };

        let wrapper: RawWrapper = slot.wrapper();
        let ok = wrapper(slot as *const TaskSlot, self as *mut Self as *mut ());

        {
            let own = self.own();
            if let Some((s0, sc)) = saved_span {
                own.span.flush();
                slot.set_span(own.span.span0, own.span.span_c);
                own.span.span0 = s0;
                own.span.span_c = sc;
                own.span.mark = cycles::now();
            }
        }
        // Guard: between our STOLEN announcement and this completion
        // store the only other writer is the joining owner's public-path
        // swap, which consumes our STOLEN marker (leaving EMPTY) and then
        // waits for this store in spin_while_empty / leap_wait. Other
        // thieves' CASes expect TASK and cannot touch the slot. (The
        // EMPTY case was found by the wool-verify slot model: the
        // original guard demanded STOLEN(me) only.)
        let me = stolen(self.idx);
        check_transition(slot, move |s| s == me || s == EMPTY, "completion publish");
        // Publish completion *after* the result and span writes.
        slot.state
            .store(if ok { DONE } else { DONE_PANIC }, Release);
        self.own().tb.switch(prev_cat);
    }

    /// One round of random-victim stealing for an idle worker; returns
    /// true if a task was stolen and executed.
    ///
    /// # Safety
    /// Must run on the thread owning this handle's worker.
    pub(crate) unsafe fn steal_round(&mut self) -> bool {
        let p = self.num_workers();
        if p <= 1 {
            return false;
        }
        let r = self.own().next_rand();
        let mut victim = (r % (p as u64 - 1)) as usize;
        if victim >= self.idx {
            victim += 1;
        }
        matches!(self.try_steal_from(victim, false), StealOutcome::Executed)
    }
}

/// Lock acquisition mode for the §IV-C protocols.
#[derive(Debug, Clone, Copy)]
enum LockMode {
    Always,
    Peek,
    Trylock,
}

/// Whether joins with stolen tasks must protect `bot` with the victim
/// lock under strategy `S`.
#[inline(always)]
fn steal_uses_lock<S: Strategy>() -> bool {
    !matches!(S::STEAL_SYNC, StealSync::NoLock)
}

/// Panic guard: joins (and discards) the `pending` spawned tasks of type
/// `B` if the code between their spawns and their joins unwinds, so the
/// spawned closures' borrows of the unwinding frame are not left live in
/// a thief.
struct JoinGuard<S: Strategy, B: TaskBody<S>> {
    h: *mut WorkerHandle<S>,
    pending: usize,
    _marker: PhantomData<fn() -> B>,
}

impl<S: Strategy, B: TaskBody<S>> JoinGuard<S, B> {
    fn arm(h: &mut WorkerHandle<S>, pending: usize) -> Self {
        JoinGuard {
            h,
            pending,
            _marker: PhantomData,
        }
    }
}

impl<S: Strategy, B: TaskBody<S>> Drop for JoinGuard<S, B> {
    fn drop(&mut self) {
        // SAFETY: the handle outlives the guard (same stack frame); the
        // pending tasks are exactly of type `B` and the youngest on the
        // stack. If a join itself panics we are already unwinding and
        // the process aborts (double panic) — documented behavior.
        unsafe {
            let h = &mut *self.h;
            while self.pending > 0 {
                self.pending -= 1;
                h.join_task::<B>();
            }
        }
    }
}

/// Runs `f` out of line. The span-instrumented fork bodies go through
/// here, so their cycle-counter reads stay off the uninstrumented path.
#[cold]
#[inline(never)]
fn cold_path<R>(f: impl FnOnce() -> R) -> R {
    f()
}
