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
    check_transition, is_done, is_stolen, is_task, spin_while_empty, stolen, thief_of, wrapper_of,
    RawWrapper, TaskRepr, TaskSlot, DONE, DONE_PANIC, EMPTY,
};
use crate::stats::Stats;
use crate::strategy::{StealSync, Strategy};
use crate::trace::{probe, TraceLevel, TraceRing};
use crate::worker::{Idle, Rng, Worker};

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
/// task type and strategy; its address is the task's `TASK(wrapper)`
/// state word. Executes the task in place; never touches the slot's
/// `state` (the caller publishes completion).
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
    // All of the worker's owner-only state lives here; the shared
    // `Worker` keeps what other threads read or write.
    pool: *const PoolInner,
    wkr: *const Worker,
    /// Next slot to spawn into: the paper's private `top`, held here so
    /// that the spawn and join fast paths reach it without going through
    /// `wkr`.
    top: usize,
    /// This worker's task stack: its first descriptor and its capacity.
    stack: *const TaskSlot,
    capacity: usize,
    /// The owner's copy of `Worker::n_public`, which only the owner
    /// writes: `set_n_public` updates both, so the private-path test
    /// reads no shared word.
    n_public: usize,
    /// Event counters of the current measurement window (`probe!`).
    pub(crate) stats: Stats,
    /// Event trace ring; between windows it waits in the mailbox.
    pub(crate) trace: TraceRing,
    rng: Rng,
    idx: usize,
    /// Cached configuration (hot-path reads).
    trip_distance: usize,
    publish_batch: usize,
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
        let wkr = &pool.workers[idx];
        WorkerHandle {
            pool,
            wkr,
            top: 0,
            // From the whole slice, so the pointer may reach every slot.
            stack: wkr.slots.as_ptr(),
            capacity: wkr.capacity(),
            // relaxed-ok: `n_public` is written only by this worker's
            // thread, which is the calling thread.
            n_public: wkr.n_public.load(Relaxed),
            stats: Stats::default(),
            trace: TraceRing::default(),
            rng: Rng::for_worker(idx),
            idx,
            trip_distance: pool.cfg.trip_distance,
            publish_batch: pool.cfg.publish_batch,
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

    /// The slot at index `k` of this worker's own stack, with no bounds
    /// check: callers pass the `top` that `try_push` checked against the
    /// capacity, or an index below `top`.
    ///
    /// # Safety
    /// `k` must be below the capacity.
    #[inline(always)]
    unsafe fn slot<'a>(&self, k: usize) -> &'a TaskSlot {
        debug_assert!(k < self.capacity);
        &*self.stack.add(k)
    }

    /// Tasks spawned on this handle and not yet joined.
    pub(crate) fn pending(&self) -> usize {
        self.top
    }

    /// Starts a measurement window (a batch region, or a serve worker's
    /// life): zeroes the counters and, when the pool traces, takes the
    /// trace ring back from the report mailbox and opens it.
    pub(crate) fn begin(&mut self) {
        self.stats = Stats::default();
        if self.pool().cfg.trace != TraceLevel::Off {
            // SAFETY: the coordinator reads the mailbox only before this
            // window could open (see `Worker`'s `Sync` safety comment).
            let parked = unsafe { &mut (*self.wkr().report.get()).trace };
            self.trace = std::mem::take(parked);
            self.trace.open(cycles::now());
        }
    }

    /// Ends the measurement window: moves its report of `epoch` and the
    /// trace ring into the mailbox, and the Release store of
    /// `report_epoch` hands both to the coordinator.
    pub(crate) fn publish_report(&mut self, epoch: u64) {
        let mut stats = self.stats;
        stats.spawns = stats.joins();
        if self.trace.is_enabled() {
            self.trace.close(cycles::now());
        }
        let wkr = self.wkr();
        // SAFETY: the mailbox is this thread's until the Release store
        // below (see `Worker`'s `Sync` safety comment).
        let mailbox = unsafe { &mut *wkr.report.get() };
        mailbox.report = stats;
        mailbox.trace = std::mem::take(&mut self.trace);
        wkr.report_epoch.store(epoch, Release);
    }

    /// Moves the public boundary to `n`, in the owner's copy and in the
    /// shared word thieves read.
    #[inline(always)]
    fn set_n_public(&mut self, n: usize) {
        self.n_public = n;
        // Release: thieves that Acquire-read a raised boundary must see
        // the task words and closure data written before it.
        self.wkr().n_public.store(n, Release);
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

    /// Records a data-parallel split (a range of `len` items about to
    /// be forked in half) in the worker's trace ring. A no-op without
    /// the `trace` cargo feature.
    #[inline(always)]
    pub fn note_split(&mut self, len: usize) {
        probe!(self, Split, len.min(u32::MAX as usize));
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
        // SAFETY: this handle is live on its owner thread, and the
        // spawned task is joined on every control path out of here
        // (JoinGuard covers unwinding out of `a`).
        unsafe {
            let k = match self.try_push(ClosureTask(b)) {
                Ok(k) => k,
                Err(ClosureTask(b)) => {
                    // Task-pool overflow: execute eagerly, in program order.
                    probe!(self, Overflow, self.capacity);
                    let ra = a(self);
                    let rb = b(self);
                    return (ra, rb);
                }
            };
            let guard = JoinGuard::<S, ClosureTask<FB>>::arm(self, 1);
            let ra = a(self);
            std::mem::forget(guard);
            // `a` joined everything it spawned, so slot `k` is the
            // youngest again: join it by the index its spawn returned.
            let rb = self.join_task::<ClosureTask<FB>>(k);
            (ra, rb)
        }
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
        // SAFETY: as in `fork`: owner thread, and every spawned
        // iteration is joined before return (JoinGuard on unwind).
        unsafe {
            let mut guard = JoinGuard::<S, ForEachTask<'_, F>>::arm(self, 0);
            for i in 1..n {
                match self.try_push(ForEachTask { body, i }) {
                    Ok(_) => guard.pending += 1,
                    Err(t) => {
                        // Overflow: run eagerly.
                        probe!(self, Overflow, self.capacity);
                        t.run(self);
                    }
                }
            }
            body(self, 0);
            while guard.pending > 0 {
                guard.pending -= 1;
                self.join_task::<ForEachTask<'_, F>>(self.top - 1);
            }
            std::mem::forget(guard);
        }
    }

    // ------------------------------------------------------------------
    // spawn
    // ------------------------------------------------------------------

    /// Pushes a task onto the direct task stack (`spawn_f` in Figure 3)
    /// and returns the index of the slot it filled, or the task back on
    /// overflow.
    ///
    /// Spawns are not counted here: every pushed task is joined exactly
    /// once by its owner, so the report derives `Stats::spawns` from the
    /// join counters (see `publish_report`).
    ///
    /// # Safety
    /// The pushed task may borrow the caller's stack; the caller must
    /// join it (possibly via a guard) before those borrows expire.
    #[inline(always)]
    unsafe fn try_push<B: TaskBody<S>>(&mut self, b: B) -> Result<usize, B> {
        let k = self.top;
        if k == self.capacity {
            return Err(b);
        }
        let slot = self.slot(k);
        // Guard: a descriptor being (re)used for a push may be freshly
        // EMPTY, left DONE/DONE_PANIC by a joined steal, or — rarely —
        // still a task word: a stale thief's back-off can restore its
        // word *after* the owner consumed the task through the private
        // fast path (its CAS landed between the owner's task-word load
        // and EMPTY store; see the back-off in `steal_nolock`). What
        // must never be here is a live STOLEN marker: that descriptor is
        // executing on another worker.
        check_transition(slot, |s| !is_stolen(s), "spawn reuses slot");
        TaskRepr::<B, B::Output>::store(slot, b);
        let task = task_wrapper::<B, S> as RawWrapper as usize;
        // With private tasks the publication fence is the later Release
        // store to `n_public`; otherwise this store itself publishes the
        // task to thieves. (Either way this compiles to a plain store on
        // x86 — the paper's TSO argument for synchronization-free
        // spawns.)
        if S::PRIVATE_TASKS && !S::PUBLISH_ALL {
            // relaxed-ok: the slot is private (above `n_public`); no
            // thief may read it until the later Release store to
            // `n_public` publishes it, and that store orders this one.
            slot.state.store(task, Relaxed);
        } else {
            slot.state.store(task, Release);
        }
        self.top = k + 1;
        if S::SHARED_TOP {
            self.wkr().top_shared.store(k + 1, Release);
        }
        if S::PRIVATE_TASKS {
            if S::PUBLISH_ALL {
                self.set_n_public(k + 1);
            // relaxed-ok: advisory trip-wire flag; a missed set only
            // delays publication until the next spawn or steal request.
            } else if self.wkr().publish_request.load(Relaxed) {
                self.publish();
            }
        }
        probe!(self, Spawn, k + 1);
        Ok(k)
    }

    /// §III-B: raises the public boundary in response to a thief's
    /// trip-wire notification.
    #[cold]
    unsafe fn publish(&mut self) {
        let wkr = self.wkr();
        // relaxed-ok: advisory flag reset; losing a concurrent set only
        // delays the next publication, it cannot lose tasks.
        wkr.publish_request.store(false, Relaxed);
        let np = self.n_public;
        // relaxed-ok: `n_public` is written only by this thread; its own
        // last store is always visible to it.
        #[cfg(any(debug_assertions, loom))]
        assert_eq!(np, wkr.n_public.load(Relaxed), "stale n_public copy");
        let top = self.top;
        if top > np {
            let new = (np + self.publish_batch).min(top);
            self.set_n_public(new);
            probe!(self, Publish, new - np);
            // Tasks are public: wake a parked worker to steal them. The
            // trip wire armed at region start makes the root's first
            // spawn land here, so a region that spawns wakes one at once.
            Idle::wake_one(&self.pool().workers);
        }
    }

    // ------------------------------------------------------------------
    // join
    // ------------------------------------------------------------------

    /// The task-specific join (`join_f` in Figure 3): pops the youngest
    /// task, in slot `k`; the fast path acquires it with one atomic swap
    /// (or, for a private task, with no atomic read-modify-write at all)
    /// and calls it directly.
    ///
    /// # Safety
    /// Slot `k` must hold the most recent un-joined push (`top == k +
    /// 1`), and `B` must be exactly its type (guaranteed by
    /// `fork`/`for_each_spawn` nesting discipline).
    #[inline(always)]
    unsafe fn join_task<B: TaskBody<S>>(&mut self, k: usize) -> B::Output {
        debug_assert_eq!(self.top, k + 1, "a join pops the youngest task");
        self.top = k;
        if S::SHARED_TOP {
            return self.join_task_shared_top::<B>(k);
        }
        let slot = self.slot(k);

        if S::PRIVATE_TASKS && k >= self.n_public {
            // Private fast path: no atomic RMW, no fence — the ~3-cycle
            // row of Table II — and nothing read or written through the
            // `Worker` pointer: the count stays in the handle until the
            // report.
            probe!(self, JoinFastPrivate, k);
            // relaxed-ok (both loads below): the closure data was written
            // by this thread; a transient thief writes only the state
            // word (its CAS), never the data, so there is nothing to
            // acquire — we wait for a task word's *value* only.
            let mut s = slot.state.load(Relaxed);
            while !is_task(s) {
                // A stale thief transiently CASed this slot; because the
                // slot is private its post-CAS validation must fail, so
                // it will restore the task word. Extremely rare.
                crate::sync::hint::spin_loop();
                s = slot.state.load(Relaxed);
            }
            // Guard: we just observed a task word, but a stale thief may
            // CAS it to EMPTY between that observation and this store
            // (its back-off restores the word only over an EMPTY;
            // harmless since we overwrite with EMPTY). Anything else is
            // a protocol bug.
            check_transition(slot, |s| is_task(s) || s == EMPTY, "private pop");
            // relaxed-ok: un-publishes a slot only this thread may touch
            // (transient thieves excepted, see the guard above).
            slot.state.store(EMPTY, Relaxed);
            return self.call_inline::<B>(slot, s);
        }

        // Public fast path: one atomic exchange (§III-A).
        let s = slot.state.swap(EMPTY, AcqRel);
        if is_task(s) {
            probe!(self, JoinFastPublic, k);
            // We inlined a public task — the situation private tasks are
            // designed to exploit (§III-B): privatize down to the new
            // top. Safe because the swap above acquired the only
            // descriptor between the old boundary and `top`.
            if S::PRIVATE_TASKS && !S::PUBLISH_ALL && self.n_public > k {
                self.set_n_public(k);
            }
            return self.call_inline::<B>(slot, s);
        }
        self.rts_join::<B>(slot, k, s)
    }

    /// Table II *base*: join under the per-worker lock, steal detection
    /// by comparing the shared `top` with `bot`.
    unsafe fn join_task_shared_top<B: TaskBody<S>>(&mut self, k: usize) -> B::Output {
        let wkr = self.wkr();
        let slot = self.slot(k);

        wkr.lock.lock();
        // relaxed-ok (store and load): both words are read and written
        // under the per-worker lock in this strategy; the lock's own
        // Acquire/Release edges order them.
        wkr.top_shared.store(k, Relaxed);
        let was_stolen = wkr.bot.load(Relaxed) > k;
        wkr.lock.unlock();

        if !was_stolen {
            probe!(self, JoinFastPublic, k);
            // relaxed-ok: the task word this thread stored at the spawn;
            // in this strategy no thief writes a slot it has not taken.
            return self.call_inline::<B>(slot, slot.state.load(Relaxed));
        }
        probe!(self, RtsJoin, k);
        let s = slot.state.load(Acquire);
        debug_assert!(is_stolen(s) || is_done(s));
        probe!(
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

    /// The inlined call of the task whose word `task` the join
    /// acquired: direct (task-specific) or through the wrapper.
    #[inline(always)]
    unsafe fn call_inline<B: TaskBody<S>>(&mut self, slot: &TaskSlot, task: usize) -> B::Output {
        if S::TASK_SPECIFIC_JOIN {
            // Direct call, visible to the optimizer — the paper's
            // task-specific join. Panics propagate naturally.
            TaskRepr::<B, B::Output>::take_closure(slot).run(self)
        } else {
            self.call_via_wrapper::<B>(slot, task)
        }
    }

    /// Generic (non-task-specific) inlined call through the wrapper
    /// decoded from the acquired task word `s`; used by the
    /// `SyncOnTask` and `LockedBase` rungs and by the re-acquisition
    /// path of `RTS_join`.
    unsafe fn call_via_wrapper<B: TaskBody<S>>(&mut self, slot: &TaskSlot, s: usize) -> B::Output {
        let wrapper = wrapper_of(s);
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
        probe!(self, RtsJoin, k);
        let mut join_thief = u32::MAX as usize;
        loop {
            if s == EMPTY {
                // Transient: a thief is between its CAS and either its
                // back-off restore or its STOLEN announcement.
                s = spin_while_empty(slot);
            }
            if is_task(s) {
                // The thief backed off and restored the task; race for
                // it again with the swap.
                s = slot.state.swap(EMPTY, AcqRel);
                if is_task(s) {
                    return self.call_via_wrapper::<B>(slot, s);
                }
                continue;
            }
            if is_stolen(s) {
                join_thief = thief_of(s);
                s = self.leap_wait(slot, join_thief);
            }
            debug_assert!(is_done(s), "unexpected task state {s}");
            // Reached iff the task was stolen (whether or not we had to
            // wait for it); count it here so `stolen_joins` matches the
            // thieves' steal counters exactly.
            probe!(self, JoinSlow, join_thief);
            // Maintain `n_public <= top`: the stolen task may have been
            // the last public descriptor; everything above `k` is dead.
            if S::PRIVATE_TASKS && self.n_public > k {
                self.set_n_public(k);
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
    /// task.
    unsafe fn finish_stolen<B: TaskBody<S>>(&mut self, slot: &TaskSlot, s: usize) -> B::Output {
        if s == DONE_PANIC {
            let payload = TaskRepr::<B, B::Output>::take_panic(slot);
            std::panic::resume_unwind(payload);
        }
        TaskRepr::<B, B::Output>::take_result(slot)
    }

    /// Leap-frogging (§I, Wagner & Calder): while our task is away,
    /// steal only from the thief that took it. Returns the final state.
    unsafe fn leap_wait(&mut self, slot: &TaskSlot, thief: usize) -> usize {
        // The joined descriptor sits at `top` (the join already popped
        // it); leap-frogged executions spawn on *this* stack, so bump
        // `top` past the awaited descriptor or the nested spawns would
        // overwrite its state word and result.
        self.top += 1;
        probe!(self, Leapfrog, thief);
        let mut idle = Idle::default();
        let s = loop {
            let s = slot.state.load(Acquire);
            if is_done(s) {
                break s;
            }
            let outcome = if S::LEAPFROG || idle.rounds > 100_000 {
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
                StealOutcome::Executed => idle.rounds = 0,
                // Spin, then yield: the thief may be descheduled
                // (oversubscribed host); let it run.
                StealOutcome::Retry | StealOutcome::Empty => idle.snooze(),
            }
        };
        self.top -= 1;
        probe!(self, Resume, 0);
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
        if S::SHARED_TOP {
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
        }
    }

    /// Ends a steal attempt on `victim_idx` that found nothing.
    #[inline(always)]
    unsafe fn found_nothing(&mut self, victim_idx: usize) -> StealOutcome {
        probe!(self, StealFail, victim_idx);
        StealOutcome::Empty
    }

    /// Ends a steal attempt on `victim_idx` that lost the race for its
    /// task.
    #[inline(always)]
    unsafe fn lost_race(&mut self, victim_idx: usize) -> StealOutcome {
        probe!(self, StealLost, victim_idx);
        StealOutcome::Retry
    }

    /// The direct task stack steal (`RTS_steal` in Figure 3).
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
            // observing `np > b` makes the task word and closure data
            // of every slot below `np` visible.
            let np = victim.n_public.load(Acquire);
            if b >= np {
                // Nothing public. There may be private work; ask the
                // owner to publish at its next spawn. (Worker 0's flag
                // is armed at region start, so the root's first spawn
                // publishes without waiting for this request.)
                // relaxed-ok: advisory trip-wire flag (see try_push).
                victim.publish_request.store(true, Relaxed);
                probe!(self, PublishRequest, victim_idx);
                return self.found_nothing(victim_idx);
            }
        }
        let task = victim.slots.get(b).map_or(EMPTY, |s| s.state.load(Acquire));
        if !is_task(task) {
            return self.found_nothing(victim_idx);
        }
        let slot = victim.slot(b);
        // relaxed-ok: the failure ordering — a failed CAS acquires
        // nothing and we immediately retry from scratch. The AcqRel
        // success edge pairs with the owner's publication store (task
        // data) and orders our later writes after the acquisition.
        if slot
            .state
            .compare_exchange(task, EMPTY, AcqRel, Relaxed)
            .is_err()
        {
            return self.lost_race(victim_idx);
        }
        // §III-A back-off: we may be a delayed thief that acquired a
        // *reincarnation* of the descriptor; validate that `bot` still
        // points here (and, with private tasks, that the descriptor is
        // still public). Both loads are Acquire so the validation
        // observes values at least as fresh as our winning CAS.
        if victim.bot.load(Acquire) != b || (S::PRIVATE_TASKS && victim.n_public.load(Acquire) <= b)
        {
            // "Writing back the old value of state is appropriate since
            // the transient value (EMPTY) only makes thieves abort and
            // the joining owner wait." (§III-A) The old value is the
            // task word our CAS acquired. Restore it only over our own
            // EMPTY, though: our CAS can land between the owner's
            // private-path task-word load and its EMPTY store, in which
            // case the owner has consumed the task and may already have
            // pushed, published or joined the next incarnation here. A
            // plain store would overwrite that incarnation's state; the
            // CAS fails instead and leaves it alone. (If the owner's
            // EMPTY is still there, the CAS leaves a dead task word
            // above its top, as `try_push` describes.)
            // relaxed-ok: failure ordering — a failed CAS publishes
            // nothing and we touch the slot no further.
            let _ = slot.state.compare_exchange(EMPTY, task, Release, Relaxed);
            probe!(self, Backoff, victim_idx);
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
                probe!(self, PublishRequest, victim_idx);
            }
        }
        self.execute_stolen(slot, task, victim_idx, leap)
    }

    /// §IV-C lock-based steal protocols (Figure 4's base/peek/trylock).
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
            if !is_task(victim.slots.get(b).map_or(EMPTY, |s| s.state.load(Acquire))) {
                return self.found_nothing(victim_idx);
            }
        }
        match mode {
            LockMode::Trylock => {
                if !victim.lock.try_lock() {
                    return self.lost_race(victim_idx);
                }
            }
            _ => victim.lock.lock(),
        }
        // `bot` is protected by the lock: thieves never back off (§IV-C).
        // relaxed-ok: lock-protected word.
        let b = victim.bot.load(Relaxed);
        let task = victim.slots.get(b).map_or(EMPTY, |s| s.state.load(Acquire));
        if !is_task(task) {
            victim.lock.unlock();
            return self.found_nothing(victim_idx);
        }
        let slot = victim.slot(b);
        // The owner's join fast path still races with us on the state
        // word (it does not take the lock), so acquire with a CAS.
        // relaxed-ok: failure ordering — a failed CAS acquires nothing.
        if slot
            .state
            .compare_exchange(task, EMPTY, AcqRel, Relaxed)
            .is_err()
        {
            victim.lock.unlock();
            return self.lost_race(victim_idx);
        }
        // Guard: we hold the slot (winning CAS) *and* the victim lock.
        check_transition(slot, |s| s == EMPTY, "locked STOLEN announcement");
        slot.state.store(stolen(self.idx), Release);
        // relaxed-ok: lock-protected word.
        victim.bot.store(b + 1, Relaxed);
        victim.lock.unlock();
        self.execute_stolen(slot, task, victim_idx, leap)
    }

    /// Table II *base* steal: everything under the victim lock, validity
    /// decided by the `top`/`bot` comparison; the state word is only a
    /// completion signal.
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
            return self.found_nothing(victim_idx);
        }
        let slot = victim.slot(b);
        // Under the lock the steal end is exclusively ours: mark and go.
        // (The owner observes `bot > k` only under the same lock, by
        // which time STOLEN below is visible.)
        // Guard: in this strategy the state word is only a completion
        // signal — a live slot below the shared `top` must hold a task
        // word (every push stores it, and no join path clears it here).
        check_transition(slot, is_task, "shared-top STOLEN mark");
        // Acquire pairs with the owner's Release store of the task word.
        let task = slot.state.load(Acquire);
        slot.state.store(stolen(self.idx), Release);
        // relaxed-ok: lock-protected word.
        victim.bot.store(b + 1, Relaxed);
        victim.lock.unlock();
        self.execute_stolen(slot, task, victim_idx, leap)
    }

    /// Runs a task just stolen from `victim_idx`, through the wrapper
    /// decoded from the task word `task` the steal acquired, and
    /// publishes its completion.
    unsafe fn execute_stolen(
        &mut self,
        slot: &TaskSlot,
        task: usize,
        victim_idx: usize,
        leap: bool,
    ) -> StealOutcome {
        // Only a blocked join's leap-frog steals with `leap`, so its
        // work is LA; a thief's top-level steal runs NA work.
        if leap {
            probe!(self, LeapSteal, victim_idx);
        } else {
            probe!(self, StealSuccess, victim_idx);
        }

        let wrapper = wrapper_of(task);
        let ok = wrapper(slot as *const TaskSlot, self as *mut Self as *mut ());
        // Guard: between our STOLEN announcement and this completion
        // store the only other writer is the joining owner's public-path
        // swap, which consumes our STOLEN marker (leaving EMPTY) and then
        // waits for this store in spin_while_empty / leap_wait. Other
        // thieves' CASes expect a task word and cannot touch the slot. (The
        // EMPTY case was found by the wool-verify slot model: the
        // original guard demanded STOLEN(me) only.)
        let me = stolen(self.idx);
        check_transition(slot, move |s| s == me || s == EMPTY, "completion publish");
        // Publish completion *after* the result write.
        slot.state
            .store(if ok { DONE } else { DONE_PANIC }, Release);
        probe!(self, Resume, 0);
        StealOutcome::Executed
    }

    /// One round of random-victim stealing for an idle worker; returns
    /// true if a task was stolen and executed.
    pub(crate) fn steal_round(&mut self) -> bool {
        let p = self.num_workers();
        if p <= 1 {
            return false;
        }
        let r = self.rng.next();
        let mut victim = (r % (p as u64 - 1)) as usize;
        if victim >= self.idx {
            victim += 1;
        }
        // SAFETY: a handle runs on the thread acting as its worker.
        matches!(
            unsafe { self.try_steal_from(victim, false) },
            StealOutcome::Executed
        )
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
///
/// The guard is dropped only on unwind (the normal paths `forget` it).
/// Its `drop` is inlined and hands both fields by value to the
/// out-of-line [`join_on_unwind`], so no caller takes the guard's
/// address and it can stay in registers: arming it costs no stores.
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
    #[inline(always)]
    fn drop(&mut self) {
        // SAFETY: the handle outlives the guard (same stack frame); the
        // pending tasks are exactly of type `B` and the youngest on the
        // stack.
        unsafe { join_on_unwind::<S, B>(self.h, self.pending) }
    }
}

/// The unwind join of a [`JoinGuard`]: pops and joins its `pending`
/// tasks. If a join itself panics we are already unwinding and the
/// process aborts (double panic) — documented behavior.
///
/// # Safety
/// `h` is live, and the `pending` youngest tasks on its stack are
/// exactly of type `B`.
#[cold]
#[inline(never)]
unsafe fn join_on_unwind<S: Strategy, B: TaskBody<S>>(h: *mut WorkerHandle<S>, pending: usize) {
    let h = &mut *h;
    for _ in 0..pending {
        h.join_task::<B>(h.top - 1);
    }
}
