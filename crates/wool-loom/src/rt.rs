//! The exploration runtime: a cooperative scheduler over real OS threads
//! that enumerates every interleaving of model operations.
//!
//! # How it works
//!
//! A model execution runs the user closure plus any threads it spawns as
//! ordinary OS threads, but only **one of them is ever runnable at a
//! time**: a token (the `cur` field) names the thread allowed to make
//! progress, everyone else blocks on a condvar. Every shared-memory
//! operation (atomic load/store/RMW, fence, spawn, park, unpark, join,
//! yield) ends with a call to [`Rt::switch`], which picks the thread that
//! performs the *next* operation. Each such scheduling decision with more
//! than one enabled thread is a branch point; the explorer re-runs the
//! closure once per path through the resulting decision tree (depth-first
//! with replay), so every interleaving of model operations is visited
//! exactly once.
//!
//! Because operations are totally ordered by the token hand-off, the
//! model checks the **sequentially consistent** semantics of the program:
//! it explores all interleavings but not weaker-memory reorderings. That
//! is the useful half of what loom proves; see `docs/VERIFICATION.md` for
//! what this does and does not cover.
//!
//! # Spin loops
//!
//! A thread that calls [`crate::hint::spin_loop`],
//! [`crate::thread::yield_now`] or [`crate::thread::sleep`] declares "I
//! re-checked shared state and cannot progress". The re-check began when
//! the thread last resumed from a spin at the *same call site*. If no
//! other thread has written since then, re-running the loop would read
//! the same values and land on the same spin — an identical global
//! state — so the scheduler parks the thread as `Spinning` and does not
//! consider it again until some thread performs a write. This prunes the
//! otherwise-infinite schedules in which a spinner re-checks an unchanged
//! condition, and it is what makes models with spin-wait loops (the slot
//! join, the spinlock) terminate.
//!
//! Two details keep the rule sound for loops whose re-check is several
//! operations long (a state load, then a steal attempt, then the spin):
//!
//! * a write that lands *during* the re-check, after the load it would
//!   have changed, keeps the spinner runnable, so it loops once more and
//!   sees it;
//! * the site key (the spin functions are `#[track_caller]`) keeps a
//!   nested spin, such as a spinlock inside the re-check, from resetting
//!   the outer loop's window.
//!
//! The first spin at a site never parks. The contract: facade users only
//! spin from condition re-check loops, which holds for every call site
//! in wool-core.
//!
//! # Failure detection
//!
//! * assertion failure in any model thread — reported with the schedule;
//! * deadlock — every live thread is parked or joining;
//! * lost wakeup — `park` with no pending unpark never returns, so a
//!   missed notification becomes a detectable deadlock (`park_timeout`
//!   is modeled as `park`: the model pretends the timeout never fires);
//! * livelock — every live thread is spinning on state no one can
//!   change, or a single execution exceeds `max_steps` operations.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe, Location};
use std::sync::{Arc, Condvar, Mutex};

/// Exploration limits. The default is exhaustive (no preemption bound).
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum number of *preemptions* (scheduling a different thread
    /// while the current one could continue) per execution. `None`
    /// explores every interleaving; small bounds (2–4) retain almost all
    /// bug-finding power (CHESS-style) while taming 3+-thread models.
    pub preemption_bound: Option<u32>,
    /// Abort an execution that exceeds this many operations (livelock
    /// backstop).
    pub max_steps: u64,
    /// Cap on threads alive at once in one execution (model sanity).
    pub max_threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: None,
            max_steps: 100_000,
            max_threads: 8,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThState {
    /// Eligible to be scheduled.
    Runnable,
    /// Declared a fruitless re-check; sleeps until any thread writes.
    Spinning,
    /// In `park` with no token; sleeps until `unpark`.
    Parked,
    /// In `JoinHandle::join` on the given thread id.
    Joining(usize),
    Finished,
}

struct Th {
    state: ThState,
    /// Pending `unpark` delivered before the matching `park`.
    unpark_token: bool,
    /// Write-class operations this thread has performed.
    own_writes: u64,
    /// Per spin call site: the count of other threads' writes when this
    /// thread last resumed from a spin there.
    spin_sites: Vec<(&'static Location<'static>, u64)>,
}

impl Th {
    fn new() -> Self {
        Th {
            state: ThState::Runnable,
            unpark_token: false,
            own_writes: 0,
            spin_sites: Vec::new(),
        }
    }
}

/// One scheduling decision: the enabled alternatives and which one this
/// execution takes. The explorer advances `idx` odometer-style.
struct PathEntry {
    alts: Vec<usize>,
    idx: usize,
}

struct Inner {
    threads: Vec<Th>,
    /// Thread id holding the token, or `usize::MAX` once all finished.
    cur: usize,
    /// Index of the next scheduling decision within `path`.
    switch_idx: usize,
    /// Monotone counter bumped by every write-class operation.
    write_epoch: u64,
    preemptions: u32,
    steps: u64,
    /// Set on failure: all threads unwind and the execution is torn down.
    aborting: bool,
    failure: Option<String>,
    /// The DFS position: persists across executions of one model.
    path: Vec<PathEntry>,
    /// OS handles of threads spawned in the current execution.
    handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Rt {
    inner: Mutex<Inner>,
    cv: Condvar,
    cfg: Config,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Rt>, usize)>> = const { RefCell::new(None) };
}

pub(crate) fn current() -> Option<(Arc<Rt>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(v: Option<(Arc<Rt>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// Sentinel payload used to unwind model threads when the execution is
/// being torn down; never reported as a failure itself.
struct AbortToken;

fn abort_unwind() -> ! {
    // resume_unwind does not run the panic hook: teardown is silent.
    std::panic::resume_unwind(Box::new(AbortToken))
}

fn panic_msg(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

enum Pick {
    /// Token granted to some thread; caller waits for its turn (unless
    /// it is finished).
    Granted,
    /// Every thread finished: the execution is complete.
    AllDone,
}

impl Rt {
    fn new(cfg: Config) -> Self {
        Rt {
            inner: Mutex::new(Inner {
                threads: Vec::new(),
                cur: 0,
                switch_idx: 0,
                write_epoch: 0,
                preemptions: 0,
                steps: 0,
                aborting: false,
                failure: None,
                path: Vec::new(),
                handles: Vec::new(),
            }),
            cv: Condvar::new(),
            cfg,
        }
    }

    fn begin_execution(&self) {
        let mut g = self.inner.lock().unwrap();
        debug_assert!(g.handles.is_empty(), "handles not drained");
        g.threads.clear();
        g.threads.push(Th::new());
        g.cur = 0;
        g.switch_idx = 0;
        g.write_epoch = 0;
        g.preemptions = 0;
        g.steps = 0;
        g.aborting = false;
    }

    /// Records a failure (first one wins) and begins teardown.
    fn fail(&self, g: &mut Inner, msg: String) {
        if g.failure.is_none() {
            let sched: Vec<usize> = g.path.iter().map(|e| e.alts[e.idx]).collect();
            g.failure = Some(format!("{msg}\n  schedule (thread ids): {sched:?}"));
        }
        g.aborting = true;
        self.cv.notify_all();
    }

    /// Chooses who runs next. Returns the decision or tears the
    /// execution down on deadlock/livelock.
    fn pick(&self, g: &mut Inner, me: usize) -> Result<Pick, ()> {
        let mut runnable: Vec<usize> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == ThState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if g.threads.iter().all(|t| t.state == ThState::Finished) {
                g.cur = usize::MAX;
                self.cv.notify_all();
                return Ok(Pick::AllDone);
            }
            let msg = if g.threads.iter().any(|t| t.state == ThState::Spinning) {
                "livelock: every live thread is spinning on a condition no other thread can change"
            } else {
                "deadlock: every live thread is parked or joining (lost wakeup?)"
            };
            self.fail(g, msg.to_string());
            return Err(());
        }
        // Put the current thread first: the first DFS branch then follows
        // sequential execution, and the preemption bound (when set) is
        // expressed as "truncate to the no-switch choice".
        if let Some(p) = runnable.iter().position(|&t| t == me) {
            runnable.remove(p);
            runnable.insert(0, me);
        }
        let me_runnable = runnable.first() == Some(&me);
        if let Some(bound) = self.cfg.preemption_bound {
            if me_runnable && g.preemptions >= bound {
                runnable.truncate(1);
            }
        }
        let k = g.switch_idx;
        g.switch_idx += 1;
        if k == g.path.len() {
            g.path.push(PathEntry {
                alts: runnable,
                idx: 0,
            });
        } else {
            assert_eq!(
                g.path[k].alts, runnable,
                "nondeterministic model: enabled-thread set diverged on replay \
                 (model closures must not branch on anything outside model state)"
            );
        }
        let e = &g.path[k];
        let chosen = e.alts[e.idx];
        if me_runnable && chosen != me {
            g.preemptions += 1;
        }
        g.cur = chosen;
        self.cv.notify_all();
        Ok(Pick::Granted)
    }

    /// The single scheduling point. Caller must hold the token.
    /// `new_state` computes the caller's next state under the lock;
    /// `wrote` marks operations that may change another thread's spin or
    /// park condition (stores, RMWs, spawn, unpark).
    fn switch(&self, me: usize, wrote: bool, new_state: impl FnOnce(&mut Inner) -> ThState) {
        let mut g = self.inner.lock().unwrap();
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        debug_assert_eq!(g.cur, me, "operation from a thread not holding the token");
        g.steps += 1;
        if g.steps > self.cfg.max_steps {
            let max = self.cfg.max_steps;
            self.fail(
                &mut g,
                format!("livelock: execution exceeded {max} operations"),
            );
            drop(g);
            abort_unwind();
        }
        if wrote {
            g.write_epoch += 1;
            g.threads[me].own_writes += 1;
        }
        let st = new_state(&mut g);
        g.threads[me].state = st;
        if wrote {
            for t in g.threads.iter_mut() {
                if t.state == ThState::Spinning {
                    t.state = ThState::Runnable;
                }
            }
        }
        match self.pick(&mut g, me) {
            Err(()) | Ok(Pick::AllDone) => {
                drop(g);
                abort_unwind();
            }
            Ok(Pick::Granted) => {}
        }
        while g.cur != me && !g.aborting {
            g = self.cv.wait(g).unwrap();
        }
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        debug_assert_eq!(g.threads[me].state, ThState::Runnable);
    }

    /// Marks `tid` finished (normal return or real panic), wakes its
    /// joiners, and hands the token onward. Safe to call during abort.
    fn retire(&self, tid: usize, panicked: Option<String>) {
        let mut g = self.inner.lock().unwrap();
        if let Some(msg) = panicked {
            self.fail(&mut g, format!("model thread {tid} panicked: {msg}"));
        }
        g.threads[tid].state = ThState::Finished;
        for t in g.threads.iter_mut() {
            if t.state == ThState::Joining(tid) {
                t.state = ThState::Runnable;
            }
        }
        if g.aborting {
            self.cv.notify_all();
            return;
        }
        // A finishing thread's completion can satisfy join conditions
        // (handled above) but also counts as progress for spinners
        // observing e.g. a flag the thread wrote earlier plus its exit.
        let _ = self.pick(&mut g, tid);
        // Granted, AllDone, or failure: in every case the retiring thread
        // just leaves; pick() already notified whoever needs to know.
    }

    fn wait_all_finished(&self) {
        let mut g = self.inner.lock().unwrap();
        while !g.aborting && !g.threads.iter().all(|t| t.state == ThState::Finished) {
            g = self.cv.wait(g).unwrap();
        }
    }

    /// Runs one model operation's side effect under the runtime lock,
    /// then takes the scheduling point. The lock around `f` serializes
    /// it against teardown operations (see [`op`]'s panicking path) —
    /// during an abort, unwinding threads run `Drop` impls that may
    /// touch model atomics concurrently with the token holder.
    fn execute_op<R>(&self, me: usize, wrote: bool, f: impl FnOnce() -> R) -> R {
        let g = self.inner.lock().unwrap();
        let r = f();
        drop(g);
        self.switch(me, wrote, |_| ThState::Runnable);
        r
    }

    /// The unwind-safe operation path: runs `f` under the lock with no
    /// scheduling point and no abort unwind (unwinding again inside a
    /// `Drop` during a panic would abort the process). Write-class
    /// operations still bump the epoch and wake spinners so that e.g. a
    /// lock released by a panicking critical section (`SpinLock::with`)
    /// is observed by contenders once the panic is caught.
    fn panicking_op<R>(&self, wrote: bool, f: impl FnOnce() -> R) -> R {
        let mut g = self.inner.lock().unwrap();
        let r = f();
        if wrote {
            g.write_epoch += 1;
            for t in g.threads.iter_mut() {
                if t.state == ThState::Spinning {
                    t.state = ThState::Runnable;
                }
            }
            self.cv.notify_all();
        }
        r
    }

    /// Odometer step over the decision tree: advance the deepest
    /// non-exhausted decision, dropping exhausted suffixes. Returns false
    /// when the whole tree has been explored.
    fn advance_path(&self) -> bool {
        let mut g = self.inner.lock().unwrap();
        while let Some(e) = g.path.last_mut() {
            if e.idx + 1 < e.alts.len() {
                e.idx += 1;
                return true;
            }
            g.path.pop();
        }
        false
    }
}

// ---------------------------------------------------------------------
// Operation layer: what the atomic types and thread shims call into.
// ---------------------------------------------------------------------

/// Runs `f` as one model operation. Outside a model the closure runs
/// directly (plain shared-memory access, single-threaded use only).
///
/// Soundness: only the token holder ever executes between switches, and
/// `f` itself runs under the runtime lock, so it has exclusive access to
/// all model state even while other threads run teardown `Drop` code;
/// the lock hand-off establishes happens-before between consecutive
/// operations of different threads.
///
/// When the calling thread is already unwinding (a caught model panic,
/// or abort teardown), the operation executes without a scheduling
/// point: unwinding again from inside a `Drop` would abort the process.
pub(crate) fn op<R>(wrote: bool, f: impl FnOnce() -> R) -> R {
    match current() {
        None => f(),
        Some((rt, me)) => {
            if std::thread::panicking() {
                rt.panicking_op(wrote, f)
            } else {
                rt.execute_op(me, wrote, f)
            }
        }
    }
}

impl Inner {
    /// Write-class operations performed by threads other than `me`.
    fn others_writes(&self, me: usize) -> u64 {
        self.write_epoch - self.threads[me].own_writes
    }
}

/// A condition-re-check yield at call site `site`: parks the thread as
/// `Spinning` when no other thread has written since it last resumed
/// from a spin at `site` (see the module docs); otherwise the re-check
/// may newly succeed and the thread stays runnable.
pub(crate) fn spin(site: &'static Location<'static>) {
    if std::thread::panicking() {
        return;
    }
    match current() {
        None => std::hint::spin_loop(),
        Some((rt, me)) => {
            rt.switch(me, false, |g| {
                let others = g.others_writes(me);
                let seen = g.threads[me].spin_sites.iter().find(|(s, _)| *s == site);
                match seen {
                    Some(&(_, w)) if w == others => ThState::Spinning,
                    _ => ThState::Runnable,
                }
            });
            // Resumed: the next re-check reads everything written so far.
            let mut g = rt.inner.lock().unwrap();
            let others = g.others_writes(me);
            let sites = &mut g.threads[me].spin_sites;
            match sites.iter_mut().find(|(s, _)| *s == site) {
                Some(entry) => entry.1 = others,
                None => sites.push((site, others)),
            }
        }
    }
}

pub(crate) fn park() {
    if std::thread::panicking() {
        // Never block an unwinding thread; teardown must finish.
        return;
    }
    match current() {
        None => std::thread::park(),
        Some((rt, me)) => rt.switch(me, false, |g| {
            let th = &mut g.threads[me];
            if th.unpark_token {
                th.unpark_token = false;
                ThState::Runnable
            } else {
                ThState::Parked
            }
        }),
    }
}

/// Unparks model thread `tid`. Must be called from within the same model
/// execution (the runtime is resolved through the caller's context).
pub(crate) fn unpark(tid: usize) {
    if let Some((rt, me)) = current() {
        if std::thread::panicking() {
            // Unwind-safe path: deliver the wakeup under the lock with no
            // scheduling point (unwinding inside a `Drop` would abort).
            let mut g = rt.inner.lock().unwrap();
            match g.threads[tid].state {
                ThState::Parked => g.threads[tid].state = ThState::Runnable,
                ThState::Finished => {}
                _ => g.threads[tid].unpark_token = true,
            }
            g.write_epoch += 1;
            for t in g.threads.iter_mut() {
                if t.state == ThState::Spinning {
                    t.state = ThState::Runnable;
                }
            }
            rt.cv.notify_all();
            return;
        }
        rt.switch(me, true, |g| {
            match g.threads[tid].state {
                ThState::Parked => g.threads[tid].state = ThState::Runnable,
                ThState::Finished => {}
                _ => g.threads[tid].unpark_token = true,
            }
            ThState::Runnable
        });
    }
}

/// Blocks until model thread `tid` finishes.
pub(crate) fn join_wait(tid: usize) {
    if std::thread::panicking() {
        // Teardown: never block an unwinding thread on another's exit.
        return;
    }
    let (rt, me) = current().expect("wool-loom: JoinHandle::join outside a model");
    loop {
        let mut done = false;
        rt.switch(me, false, |g| {
            if g.threads[tid].state == ThState::Finished {
                done = true;
                ThState::Runnable
            } else {
                ThState::Joining(tid)
            }
        });
        if done {
            return;
        }
    }
}

pub(crate) fn is_finished(tid: usize) -> bool {
    let (rt, _) = current().expect("wool-loom: thread query outside a model");
    let g = rt.inner.lock().unwrap();
    g.threads[tid].state == ThState::Finished
}

/// Registers a new model thread and hands back its id plus the runtime.
pub(crate) fn register_thread() -> (Arc<Rt>, usize) {
    let (rt, _) = current().expect("wool-loom: thread::spawn outside a model");
    let tid = {
        let mut g = rt.inner.lock().unwrap();
        let tid = g.threads.len();
        assert!(
            tid < rt.cfg.max_threads,
            "model spawned more than max_threads ({}) threads",
            rt.cfg.max_threads
        );
        g.threads.push(Th::new());
        tid
    };
    (rt, tid)
}

/// Body wrapper for a spawned model thread's OS thread.
pub(crate) fn run_spawned(rt: Arc<Rt>, tid: usize, body: impl FnOnce()) {
    set_current(Some((rt.clone(), tid)));
    // Wait to be scheduled for the first time. On abort, fall through:
    // the body's first operation (if any) unwinds via the abort check.
    {
        let mut g = rt.inner.lock().unwrap();
        while g.cur != tid && !g.aborting {
            g = rt.cv.wait(g).unwrap();
        }
    }
    let out = catch_unwind(AssertUnwindSafe(body));
    match out {
        Ok(()) => rt.retire(tid, None),
        Err(p) => {
            if p.downcast_ref::<AbortToken>().is_some() {
                rt.retire(tid, None);
            } else {
                rt.retire(tid, Some(panic_msg(&*p)));
            }
        }
    }
    set_current(None);
}

/// The spawner's side: store the OS handle and take a scheduling point
/// (the child becoming runnable is a visible event).
pub(crate) fn after_spawn(rt: &Arc<Rt>, me: usize, handle: std::thread::JoinHandle<()>) {
    rt.inner.lock().unwrap().handles.push(handle);
    rt.switch(me, true, |_| ThState::Runnable);
}

pub(crate) fn current_tid() -> Option<usize> {
    current().map(|(_, tid)| tid)
}

// ---------------------------------------------------------------------
// The explorer entry point.
// ---------------------------------------------------------------------

/// Exhaustively checks every interleaving of the model closure.
///
/// Re-runs `f` once per schedule through the decision tree; panics with
/// the failing schedule if any execution fails an assertion, deadlocks,
/// or livelocks. See the module docs for semantics and limitations.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model_config(Config::default(), f)
}

/// [`model`] with explicit exploration limits (preemption bound, step
/// cap). Prefer a small preemption bound for models with three or more
/// threads.
pub fn model_config<F>(cfg: Config, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(
        current().is_none(),
        "wool-loom: model() must not be nested inside another model"
    );
    let rt = Arc::new(Rt::new(cfg));
    let mut executions: u64 = 0;
    loop {
        executions += 1;
        rt.begin_execution();
        set_current(Some((rt.clone(), 0)));
        let out = catch_unwind(AssertUnwindSafe(&f));
        match out {
            Ok(()) => rt.retire(0, None),
            Err(p) => {
                if p.downcast_ref::<AbortToken>().is_some() {
                    rt.retire(0, None);
                } else {
                    rt.retire(0, Some(panic_msg(&*p)));
                }
            }
        }
        rt.wait_all_finished();
        set_current(None);
        let handles = std::mem::take(&mut rt.inner.lock().unwrap().handles);
        for h in handles {
            let _ = h.join();
        }
        let failure = rt.inner.lock().unwrap().failure.take();
        if let Some(msg) = failure {
            panic!("wool-loom: model failed on execution {executions}: {msg}");
        }
        if !rt.advance_path() {
            break;
        }
    }
}
