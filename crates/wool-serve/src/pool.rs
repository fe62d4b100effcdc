//! The serve pool: lifecycle, submission, graceful drain.

use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use wool_core::sync::atomic::Ordering::SeqCst;
use wool_core::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize};

use wool_core::injector::Runnable;
use wool_core::serve::{ServeEngine, ServeReport};
use wool_core::strategy::{Strategy, WoolFull};
use wool_core::{cycles, Job, PoolConfig, WorkerHandle};

use crate::handle::{JobCore, JobHandle};

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The injector queue is at capacity. Only
    /// [`try_submit`](ServePool::try_submit) returns it, and it is the way
    /// to shed load: [`submit`](ServePool::submit) never fails with `Full`
    /// but yield-spins, without a bound, until the queue has room.
    Full,
    /// [`shutdown`](ServePool::shutdown) has begun (or completed): the
    /// pool no longer accepts jobs.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "injector queue is full"),
            SubmitError::ShuttingDown => write!(f, "serve pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Submission gate: tracks in-flight jobs for the graceful drain and
/// rejects submissions once draining has begun.
struct Gate {
    /// Set by `shutdown`; checked by every submission.
    draining: AtomicBool,
    /// Jobs accepted but not yet completed (queued + running).
    pending: AtomicUsize,
    /// Sleep/wake pair for the drain wait.
    mx: Mutex<()>,
    cv: Condvar,
    /// Tag sequence for trace correlation.
    next_tag: AtomicU32,
}

impl Gate {
    /// Called on every job completion (run, or disposed at teardown).
    fn job_finished(&self) {
        if self.pending.fetch_sub(1, SeqCst) == 1 && self.draining.load(SeqCst) {
            let _g = self.mx.lock().unwrap();
            self.cv.notify_all();
        }
    }
}

/// The payload behind a [`Runnable`]: the user closure plus the wiring
/// to resolve its handle and the drain accounting.
struct Payload<S: Strategy, F, R> {
    f: F,
    core: Arc<JobCore<R>>,
    gate: Arc<Gate>,
    _strategy: PhantomData<fn(S)>,
}

/// Monomorphized job entry point; `ctx` is the executing worker's
/// `WorkerHandle<S>` (see `wool_core::injector::Runnable::new`).
unsafe fn run_payload<S, F, R>(data: *mut (), ctx: *mut ())
where
    S: Strategy,
    F: FnOnce(&mut WorkerHandle<S>) -> R + Send,
    R: Send,
{
    let Payload { f, core, gate, .. } = *Box::from_raw(data as *mut Payload<S, F, R>);
    let h = &mut *(ctx as *mut WorkerHandle<S>);
    // Contain the job's panic to the job: the worker survives, the
    // panic payload travels to whoever joins the handle.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| f(h)));
    core.complete(outcome);
    gate.job_finished();
}

/// Disposal path for a job that will never run (pool torn down with the
/// job still queued, or a failed `try_submit`): resolve the handle with
/// a panic payload so no waiter hangs, and balance the drain counter.
unsafe fn drop_payload<S, F, R>(data: *mut ())
where
    S: Strategy,
    F: FnOnce(&mut WorkerHandle<S>) -> R + Send,
    R: Send,
{
    let Payload { f, core, gate, .. } = *Box::from_raw(data as *mut Payload<S, F, R>);
    drop(f);
    core.complete(Err(Box::new(
        "wool-serve: job discarded without running (pool torn down)",
    )));
    gate.job_finished();
}

/// A persistent work-stealing pool accepting concurrent job submissions
/// from any thread.
///
/// Unlike the batch [`wool_core::Pool`], *all* workers are background
/// threads and there is no notion of a single parallel region: the pool
/// is started once, serves jobs submitted through the bounded global
/// injector for as long as it lives, and drains gracefully on
/// [`shutdown`](ServePool::shutdown). Each job runs as the root of its
/// own fork-join region — inside the job closure, `fork` /
/// `for_each_spawn` parallelism work exactly as under `Pool::run`, and
/// idle workers steal across concurrently running jobs.
///
/// ```
/// use wool_serve::ServePool;
///
/// let pool = ServePool::start(4);
/// let h = pool.submit(|h| {
///     let (a, b) = h.fork(|_| 21u64, |_| 21u64);
///     a + b
/// }).unwrap();
/// assert_eq!(h.join(), 42);
/// ```
pub struct ServePool<S: Strategy = WoolFull> {
    engine: Option<ServeEngine<S>>,
    gate: Arc<Gate>,
}

impl ServePool<WoolFull> {
    /// Starts a pool of `workers` workers with the default
    /// configuration and the full Wool strategy.
    ///
    /// # Panics
    /// Panics when `workers == 0` — a serve pool with no workers could
    /// never run a job (see [`PoolConfig::validated`]).
    pub fn start(workers: usize) -> Self {
        Self::with_config(PoolConfig::with_workers(workers))
    }
}

impl<S: Strategy> ServePool<S> {
    /// Starts a pool from an explicit configuration (any strategy).
    ///
    /// # Panics
    /// Panics when `cfg.workers == 0`.
    pub fn with_config(cfg: PoolConfig) -> Self {
        ServePool {
            engine: Some(ServeEngine::start(cfg)),
            gate: Arc::new(Gate {
                draining: AtomicBool::new(false),
                pending: AtomicUsize::new(0),
                mx: Mutex::new(()),
                cv: Condvar::new(),
                next_tag: AtomicU32::new(0),
            }),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.engine.as_ref().map_or(0, |e| e.workers())
    }

    /// Capacity of the injector queue (after power-of-two rounding).
    pub fn queue_capacity(&self) -> usize {
        self.engine.as_ref().map_or(0, |e| e.injector_capacity())
    }

    /// Jobs accepted but not yet completed (queued plus running).
    pub fn pending_jobs(&self) -> usize {
        self.gate.pending.load(SeqCst)
    }

    /// The strategy name (paper series label).
    pub fn strategy_name(&self) -> &'static str {
        S::NAME
    }

    /// Submits a job, blocking (yield-spinning) while the injector is
    /// full. Returns a [`JobHandle`] resolving to the closure's result.
    ///
    /// The wait is unbounded: while the injector stays full (for example
    /// because the workers are busy with long jobs), the caller keeps
    /// spinning and yielding, and returns only when a cell frees up or
    /// [`shutdown`](ServePool::shutdown) begins. To bound the wait or shed
    /// load, use [`try_submit`](ServePool::try_submit), which fails with
    /// [`SubmitError::Full`] instead.
    ///
    /// Safe to call from any thread, concurrently; `&self` is enough.
    pub fn submit<R, F>(&self, f: F) -> Result<JobHandle<R>, SubmitError>
    where
        F: FnOnce(&mut WorkerHandle<S>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let engine = self.engine.as_ref().ok_or(SubmitError::ShuttingDown)?;
        let (mut job, handle) = self.make_job(f)?;
        loop {
            match engine.submit(job) {
                Ok(()) => return Ok(handle),
                Err(back) => {
                    if self.gate.draining.load(SeqCst) {
                        // Dropping the runnable resolves `handle` with a
                        // teardown panic; we never give it out.
                        drop(back);
                        return Err(SubmitError::ShuttingDown);
                    }
                    job = back;
                    wool_core::sync::thread::yield_now();
                }
            }
        }
    }

    /// Submits a job without blocking: fails with
    /// [`SubmitError::Full`] when the injector is at capacity (load
    /// shedding).
    pub fn try_submit<R, F>(&self, f: F) -> Result<JobHandle<R>, SubmitError>
    where
        F: FnOnce(&mut WorkerHandle<S>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let engine = self.engine.as_ref().ok_or(SubmitError::ShuttingDown)?;
        let (job, handle) = self.make_job(f)?;
        match engine.submit(job) {
            Ok(()) => Ok(handle),
            Err(back) => {
                drop(back);
                Err(SubmitError::Full)
            }
        }
    }

    /// Submits an executor-agnostic [`Job`] (the interface the paper's
    /// workloads are written against).
    pub fn submit_job<R, J>(&self, job: J) -> Result<JobHandle<R>, SubmitError>
    where
        J: Job<R> + 'static,
        R: Send + 'static,
    {
        self.submit(move |h| job.call(h))
    }

    /// Packages a closure into an injectable runnable plus its handle,
    /// registering it with the drain gate.
    fn make_job<R, F>(&self, f: F) -> Result<(Runnable, JobHandle<R>), SubmitError>
    where
        F: FnOnce(&mut WorkerHandle<S>) -> R + Send + 'static,
        R: Send + 'static,
    {
        // Count the job *before* the drain check: `shutdown` sets
        // `draining` and then waits for `pending == 0`, so whichever
        // side wins this race, no accepted job is left behind.
        self.gate.pending.fetch_add(1, SeqCst);
        if self.gate.draining.load(SeqCst) {
            self.gate.job_finished();
            return Err(SubmitError::ShuttingDown);
        }
        let core = Arc::new(JobCore::new());
        let handle = JobHandle::new(Arc::clone(&core));
        let payload = Box::new(Payload::<S, F, R> {
            f,
            core,
            gate: Arc::clone(&self.gate),
            _strategy: PhantomData,
        });
        let tag = self.gate.next_tag.fetch_add(1, SeqCst);
        // SAFETY: the box pointer is consumed exactly once by either
        // `run_payload` (a worker of this pool, whose handle is a
        // `WorkerHandle<S>` — the type this call is monomorphized for)
        // or `drop_payload`; the payload is Send by the bounds above.
        let job = unsafe {
            Runnable::new(
                Box::into_raw(payload) as *mut (),
                run_payload::<S, F, R>,
                drop_payload::<S, F, R>,
                cycles::now(),
                tag,
            )
        };
        Ok((job, handle))
    }

    /// Graceful shutdown: stop accepting submissions, wait until every
    /// accepted job has completed, then stop the workers. Returns the
    /// session report (scheduler statistics, job count, and — when
    /// tracing was configured — the merged event trace), or `None` if
    /// the pool was already shut down.
    ///
    /// Submissions racing with shutdown either complete before the
    /// drain finishes or are rejected with
    /// [`SubmitError::ShuttingDown`]; none are silently lost.
    pub fn shutdown(&mut self) -> Option<ServeReport> {
        let engine = self.engine.take()?;
        self.gate.draining.store(true, SeqCst);
        {
            let mut g = self.gate.mx.lock().unwrap();
            while self.gate.pending.load(SeqCst) != 0 {
                // The timeout covers the completion-before-draining
                // race (a finisher that missed the notify condition).
                let (guard, _) = self
                    .gate
                    .cv
                    .wait_timeout(g, Duration::from_millis(10))
                    .unwrap();
                g = guard;
            }
        }
        Some(engine.stop())
    }
}

impl<S: Strategy> Drop for ServePool<S> {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// Submission is `&self` and internally synchronized; handing references
// across threads (e.g. `thread::scope` clients) is the intended use.
// The auto-traits would already derive this, but spell the requirement
// out against accidental regressions:
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<ServePool<WoolFull>>();
};
