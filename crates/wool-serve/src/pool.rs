//! The serve pool: lifecycle, submission, graceful drain.

use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use wool_core::sync::atomic::Ordering::{Relaxed, Release, SeqCst};
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

/// Submission gate: rejects submissions once draining has begun, and
/// counts the submissions still on their way into the injector so that
/// `shutdown` stops the engine only after every accepted push landed.
struct Gate {
    /// Set by `shutdown`; checked by every submission.
    draining: AtomicBool,
    /// Submissions in flight: past the increment, not yet pushed or
    /// backed out.
    pending: AtomicUsize,
    /// Tag sequence for trace correlation.
    next_tag: AtomicU32,
}

/// The payload behind a [`Runnable`]: the user closure plus the cell
/// that resolves its handle.
struct Payload<S: Strategy, F, R> {
    f: F,
    core: Arc<JobCore<R>>,
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
    let Payload { f, core, .. } = *Box::from_raw(data as *mut Payload<S, F, R>);
    let h = &mut *(ctx as *mut WorkerHandle<S>);
    // Contain the job's panic to the job: the worker survives, the
    // panic payload travels to whoever joins the handle.
    core.complete(std::panic::catch_unwind(AssertUnwindSafe(|| f(h))));
}

/// Disposal path for a job that will never run (pool torn down with the
/// job still queued, or a failed `try_submit`): resolve the handle with
/// a panic payload so no waiter hangs.
unsafe fn drop_payload<S, F, R>(data: *mut ())
where
    S: Strategy,
    F: FnOnce(&mut WorkerHandle<S>) -> R + Send,
    R: Send,
{
    let Payload { f, core, .. } = *Box::from_raw(data as *mut Payload<S, F, R>);
    drop(f);
    core.complete(Err(Box::new(
        "wool-serve: job discarded without running (pool torn down)",
    )));
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
/// `for_each_spawn` parallelism work exactly as under `Pool::run`. A
/// worker starts a queued job before it tries to steal, so idle workers
/// steal across running jobs only while no job waits in the injector.
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
    engine: ServeEngine<S>,
    gate: Gate,
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
            engine: ServeEngine::start(cfg),
            gate: Gate {
                draining: AtomicBool::new(false),
                pending: AtomicUsize::new(0),
                next_tag: AtomicU32::new(0),
            },
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }

    /// Capacity of the injector queue (after power-of-two rounding).
    pub fn queue_capacity(&self) -> usize {
        self.engine.injector_capacity()
    }

    /// Jobs accepted but not yet completed (queued plus running).
    pub fn pending_jobs(&self) -> usize {
        self.engine.pending_jobs()
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
        self.admit(f, |mut job| loop {
            match self.engine.submit(job) {
                Ok(()) => return Ok(()),
                // Dropping the runnable resolves its handle with a
                // teardown panic; the handle is never given out.
                Err(_) if self.gate.draining.load(SeqCst) => return Err(SubmitError::ShuttingDown),
                Err(back) => {
                    job = back;
                    wool_core::sync::thread::yield_now();
                }
            }
        })
    }

    /// Submits a job without blocking: fails with
    /// [`SubmitError::Full`] when the injector is at capacity (load
    /// shedding).
    pub fn try_submit<R, F>(&self, f: F) -> Result<JobHandle<R>, SubmitError>
    where
        F: FnOnce(&mut WorkerHandle<S>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.admit(f, |job| {
            self.engine.submit(job).map_err(|_| SubmitError::Full)
        })
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

    /// Packages a closure into an injectable runnable and hands it to
    /// `push`, as one submission in flight through the drain gate.
    fn admit<R, F>(
        &self,
        f: F,
        push: impl FnOnce(Runnable) -> Result<(), SubmitError>,
    ) -> Result<JobHandle<R>, SubmitError>
    where
        F: FnOnce(&mut WorkerHandle<S>) -> R + Send + 'static,
        R: Send + 'static,
    {
        // Count the submission *before* the drain check: `shutdown` sets
        // `draining` and then waits for `pending == 0`, so whichever
        // side wins this race, no accepted push lands after the engine
        // stops.
        self.gate.pending.fetch_add(1, SeqCst);
        let admitted = if self.gate.draining.load(SeqCst) {
            Err(SubmitError::ShuttingDown)
        } else {
            let core = Arc::new(JobCore::new());
            let handle = JobHandle::new(Arc::clone(&core));
            let payload = Box::new(Payload::<S, F, R> {
                f,
                core,
                _strategy: PhantomData,
            });
            // Relaxed: the tags only need to be distinct.
            let tag = self.gate.next_tag.fetch_add(1, Relaxed);
            // SAFETY: the box pointer is consumed exactly once by either
            // `run_payload` (a worker of this pool, whose handle is a
            // `WorkerHandle<S>` — the type this call is monomorphized
            // for) or `drop_payload`; the payload is Send by the bounds
            // above.
            let job = unsafe {
                Runnable::new(
                    Box::into_raw(payload) as *mut (),
                    run_payload::<S, F, R>,
                    drop_payload::<S, F, R>,
                    cycles::now(),
                    tag,
                )
            };
            push(job).map(|()| handle)
        };
        // Release: `shutdown` reads 0 only after the push above landed.
        self.gate.pending.fetch_sub(1, Release);
        admitted
    }

    /// Graceful shutdown: stop accepting submissions, wait for the
    /// submissions already in flight to land in the injector, then stop
    /// the engine, which runs every queued job before its workers exit.
    /// Returns the session report (scheduler statistics, job count, and
    /// — when tracing was configured — the merged event trace), or
    /// `None` if shutdown had already begun.
    ///
    /// Safe to call while other threads submit: each racing submission
    /// either is accepted and runs before the engine stops, or is
    /// rejected with [`SubmitError::ShuttingDown`]; none are silently
    /// lost.
    pub fn shutdown(&self) -> Option<ServeReport> {
        if self.gate.draining.swap(true, SeqCst) {
            return None;
        }
        while self.gate.pending.load(SeqCst) != 0 {
            wool_core::sync::thread::yield_now();
        }
        Some(self.engine.stop())
    }
}

impl<S: Strategy> Drop for ServePool<S> {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// Submission and shutdown are `&self` and internally synchronized;
// handing references across threads (e.g. `thread::scope` clients) is
// the intended use. The auto-traits would already derive this, but
// spell the requirement out against accidental regressions:
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<ServePool<WoolFull>>();
};
