//! Serve mode: a persistent worker fleet fed by the global injector.
//!
//! The batch [`Pool`](crate::Pool) is strictly fork-join: one root task
//! at a time, launched from the owning thread. A [`ServePool`] removes
//! both restrictions for service workloads: **all** workers are
//! background threads, and root jobs arrive through the bounded MPMC
//! [`Injector`] from any thread, at any time, concurrently. Jobs enter
//! outside the task stacks, so the paper's fast path — private tasks,
//! trip-wire publication, leapfrogging — is byte-for-byte the one
//! `Pool::run` uses. Each submission returns a [`JobHandle`]: poll it
//! with `is_finished` or block on it with `join`; panics inside the job
//! resurface at the join, never on the worker.
//!
//! The scheduling order per worker is deliberate:
//!
//! 1. **injector poll** — a queued root job is independent work that
//!    touches nobody's task stack, so it comes first;
//! 2. **steal sweep** — only with the injector empty (intra-job
//!    parallelism through the untouched §III-A/B fast path): a failed
//!    steal rings the victim's trip wire and makes a busy owner publish
//!    for nothing;
//! 3. **escalation** — the shared [`Idle`] spin → yield → park. Every
//!    submission wakes one parked worker, so a burst wakes as many
//!    workers as it has jobs, and a worker passes no wake on.
//!
//! The tradeoff: while roots are queued, a running job's inner
//! parallelism waits until the queue drains. Throughput does not suffer,
//! since every worker already has independent work.
//!
//! Design rationale for the injector (and why it is *not* a per-worker
//! structure) is in `DESIGN.md` §10; the `trace` feature records
//! `inject` / `dequeue` / `job_done` events at the queue boundaries
//! (see `docs/TRACING.md`).

mod handle;

use crate::sync::atomic::Ordering::{Acquire, Relaxed};
use crate::sync::atomic::{AtomicU32, AtomicU64};
use crate::sync::thread::JoinHandle;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

use crate::config::PoolConfig;
use crate::exec::WorkerHandle;
use crate::injector::Injector;
use crate::pad::CachePadded;
use crate::pool::PoolInner;
use crate::stats::Stats;
use crate::strategy::{Strategy, WoolFull};
use crate::trace::{probe, Trace, TRACE};
use crate::worker::{DeadOnUnwind, Idle};

pub use handle::JobHandle;

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

/// Everything measured over the lifetime of a serve pool, returned by
/// [`ServePool::shutdown`].
#[derive(Debug)]
pub struct ServeReport {
    /// Root jobs executed to completion.
    pub jobs: u64,
    /// Per-worker scheduler statistics for the whole serve session.
    pub per_worker: Vec<Stats>,
    /// Sum of `per_worker`.
    pub total: Stats,
    /// The merged event trace of the session, when the pool's
    /// [`trace`](PoolConfig::trace) level is not `Off`. Without the
    /// `trace` cargo feature it holds only the breakdown kinds.
    pub trace: Option<Trace>,
}

/// A queued job's half of its [`JobCell`](handle::JobCell). The trait is
/// object-safe, so the injector queues every job as one `Arc<dyn Run<S>>`,
/// whatever its closure and result.
trait Run<S: Strategy>: Send + Sync {
    /// Runs the closure on `h` and resolves the handle with its result or
    /// panic; `completed` is this worker's completed-jobs counter.
    fn run(&self, h: &mut WorkerHandle<S>, completed: &AtomicU64);
    /// Resolves the handle with the discard panic, unless the job ran.
    fn discard(&self);
}

impl<S, R, F> Run<S> for handle::JobCell<R, Option<F>>
where
    S: Strategy,
    F: FnOnce(&mut WorkerHandle<S>) -> R + Send + 'static,
    R: Send + 'static,
{
    fn run(&self, h: &mut WorkerHandle<S>, completed: &AtomicU64) {
        let Some(f) = self.take_closure() else { return };
        // Contain the job's panic to the job: the worker survives, the
        // payload travels to whoever joins the handle.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| f(h)));
        // relaxed-ok: only this worker writes its counter, and the count
        // precedes `complete`'s AcqRel swap: a joiner that reads the
        // result reads the count, so `pending_jobs` skips the job.
        completed.store(completed.load(Relaxed) + 1, Relaxed);
        self.complete(outcome);
    }

    fn discard(&self) {
        if self.take_closure().is_some() {
            self.complete(Err(Box::new(handle::DISCARDED)));
        }
    }
}

/// A queued root job: the job half of its cell. Dropping it unrun (a pool
/// torn down with the job queued, or a submission turned away) resolves
/// its handle with the discard panic.
struct Job<S: Strategy> {
    cell: Arc<dyn Run<S>>,
    /// Cycle timestamp of the submission, for the backdated Inject event
    /// (0 in an untraced build).
    submit_ts: u64,
    /// Correlates the job's Inject, Dequeue and JobDone events.
    tag: u32,
}

impl<S: Strategy> Job<S> {
    /// Allocates the one cell of a job running `f`, and its handle.
    fn new<R, F>(f: F) -> (Self, JobHandle<R>)
    where
        F: FnOnce(&mut WorkerHandle<S>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let (cell, handle) = handle::JobCell::new(f);
        let job = Job {
            cell,
            submit_ts: if TRACE { crate::cycles::now() } else { 0 },
            tag: 0,
        };
        (job, handle)
    }
}

impl<S: Strategy> Drop for Job<S> {
    fn drop(&mut self) {
        self.cell.discard();
    }
}

/// The state every worker shares with the pool.
struct Shared<S: Strategy> {
    /// The global injector queue, closed by `shutdown`.
    injector: Injector<Job<S>>,
    /// Root jobs completed by each worker; only worker `i` writes
    /// `completed[i]`.
    completed: Box<[CachePadded<AtomicU64>]>,
}

impl<S: Strategy> Shared<S> {
    /// Root jobs completed, across all workers.
    fn jobs(&self) -> u64 {
        // relaxed-ok: a statistic; joining a job (or worker) orders its count.
        self.completed.iter().map(|c| c.load(Relaxed)).sum()
    }
}

/// A persistent work-stealing pool accepting concurrent job submissions
/// from any thread.
///
/// Unlike the batch [`Pool`](crate::Pool), *all* workers are background
/// threads and there is no notion of a single parallel region: the pool
/// is started once, serves jobs submitted through the bounded global
/// injector for as long as it lives, and drains gracefully on
/// [`shutdown`](ServePool::shutdown) (or drop). Each job runs as the
/// root of its own fork-join region — inside the job closure, `fork` /
/// `for_each_spawn` parallelism work exactly as under `Pool::run`. A
/// worker starts a queued job before it tries to steal, so idle workers
/// steal across running jobs only while no job waits in the injector.
///
/// ```
/// use wool_core::ServePool;
///
/// let pool = ServePool::start(4);
///
/// // Submit from any thread; each job is a fork-join root.
/// let handles: Vec<_> = (0..8u64)
///     .map(|i| {
///         pool.submit(move |h| {
///             let (a, b) = h.fork(move |_| i * i, move |_| i);
///             a + b
///         })
///         .unwrap()
///     })
///     .collect();
///
/// let total: u64 = handles.into_iter().map(|h| h.join()).sum();
/// assert_eq!(total, (0..8).map(|i| i * i + i).sum());
/// ```
pub struct ServePool<S: Strategy = WoolFull> {
    inner: Arc<PoolInner>,
    shared: Arc<Shared<S>>,
    /// The worker threads, joined by `shutdown`.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Tag sequence for trace correlation.
    next_tag: AtomicU32,
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
        let inner = PoolInner::build(cfg.validated());
        let shared = Arc::new(Shared {
            injector: Injector::with_capacity(inner.cfg.injector_capacity),
            completed: (0..inner.cfg.workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        });
        let threads = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let shared = Arc::clone(&shared);
                crate::sync::thread::Builder::new()
                    .name(format!("wool-serve-{}-{}", S::NAME, i))
                    .spawn(move || serve_loop::<S>(inner, shared, i))
                    .expect("failed to spawn serve worker thread")
            })
            .collect();
        ServePool {
            inner,
            shared,
            threads: Mutex::new(threads),
            next_tag: AtomicU32::new(0),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// Capacity of the injector queue (after power-of-two rounding).
    pub fn queue_capacity(&self) -> usize {
        self.shared.injector.capacity()
    }

    /// Jobs accepted but not yet completed (queued plus running). A job
    /// the caller has joined is never counted; submissions and
    /// completions racing the call may or may not be.
    pub fn pending_jobs(&self) -> usize {
        let done = self.shared.jobs() as usize;
        self.shared.injector.pushed().saturating_sub(done)
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
        self.admit(f, true)
    }

    /// Submits a job without blocking: fails with
    /// [`SubmitError::Full`] when the injector is at capacity (load
    /// shedding).
    pub fn try_submit<R, F>(&self, f: F) -> Result<JobHandle<R>, SubmitError>
    where
        F: FnOnce(&mut WorkerHandle<S>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.admit(f, false)
    }

    /// Packages a closure into a queued job and pushes it. With `wait`,
    /// a full queue is retried until it has room or shutdown closes it.
    fn admit<R, F>(&self, f: F, wait: bool) -> Result<JobHandle<R>, SubmitError>
    where
        F: FnOnce(&mut WorkerHandle<S>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let (mut job, handle) = Job::new(f);
        if TRACE {
            // relaxed-ok: the tags only need to be distinct.
            job.tag = self.next_tag.fetch_add(1, Relaxed);
        }
        // A job turned away below is dropped, which resolves its handle
        // with the discard panic; the handle is never given out.
        let queue = &self.shared.injector;
        while let Err(back) = queue.push(job) {
            if queue.is_closed() {
                return Err(SubmitError::ShuttingDown);
            } else if !wait {
                return Err(SubmitError::Full);
            }
            job = back;
            crate::sync::thread::yield_now();
        }
        // The job is queued: wake a parked worker (the handshake of
        // `Idle`, whose re-check in serve_loop reads the queue).
        Idle::wake_one(&self.inner.workers);
        Ok(handle)
    }

    /// Graceful shutdown: close the injector to new submissions, then
    /// stop the workers, which run every queued job before they exit,
    /// including a job whose push claimed its cell before the close.
    /// Returns the session report (scheduler statistics, job count, and
    /// — when tracing was configured — the merged event trace), or
    /// `None` if shutdown had already begun.
    ///
    /// Safe to call while other threads submit: each racing submission
    /// either is accepted and runs before the workers stop, or is
    /// rejected with [`SubmitError::ShuttingDown`]; none are silently
    /// lost.
    pub fn shutdown(&self) -> Option<ServeReport> {
        if !self.shared.injector.close() {
            return None;
        }
        // A worker exits once it reads the queue closed and empty, and a
        // push that beat the close counts as queued from its claim on.
        Idle::wake_all(&self.inner.workers);
        for t in std::mem::take(&mut *self.threads.lock().unwrap()) {
            let _ = t.join();
        }
        // A worker whose thread a job unwound is marked dead and
        // contributes an empty report.
        let w = &self.inner.workers;
        let mut per_worker = Vec::with_capacity(w.len());
        let trace =
            self.inner
                .collect_reports(u64::MAX, |i| !w[i].dead.load(Acquire), &mut per_worker);
        Some(ServeReport {
            jobs: self.shared.jobs(),
            total: per_worker.iter().copied().sum(),
            per_worker,
            trace,
        })
    }
}

impl<S: Strategy> Drop for ServePool<S> {
    /// Drains and stops the pool, as [`shutdown`](ServePool::shutdown).
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Main loop of a serve worker.
fn serve_loop<S: Strategy>(inner: Arc<PoolInner>, shared: Arc<Shared<S>>, idx: usize) {
    // SAFETY: the pool (via Arc) outlives the loop; this thread is the
    // unique owner of worker `idx`.
    let mut handle = unsafe { WorkerHandle::<S>::new(&inner, idx) };
    let _dead_on_unwind = DeadOnUnwind(&inner.workers[idx]);
    handle.begin();

    let queue = &shared.injector;
    let mut idle = Idle::default();
    loop {
        // 1. A queued root job comes first.
        if let Some(job) = queue.pop() {
            let tag = job.tag;
            // The Inject event is backdated to the submitter's timestamp
            // so queueing latency is visible on the timeline.
            probe!(handle, Inject, tag, at = job.submit_ts);
            probe!(handle, Dequeue, tag);
            job.cell.run(&mut handle, &shared.completed[idx]);
            probe!(handle, JobDone, tag);
            idle.rounds = 0;
            continue;
        }

        // 2. Injector empty: help an in-flight job.
        if handle.steal_round() {
            idle.rounds = 0;
            continue;
        }

        if queue.is_closed() && queue.is_empty() {
            break;
        }

        // 3. Nothing anywhere: escalate spin → yield → park. Submitters
        // wake a parked worker, so the park re-checks the queue (and its
        // closed bit); a steal target that appears with no submission
        // waits for a publication's wake or the park timeout.
        if idle.rounds == 0 {
            probe!(handle, Idle, 0);
        }
        idle.wait(&mut handle, || !queue.is_empty() || queue.is_closed());
    }

    // Publish this worker's statistics for the pool to collect after
    // joining the thread, which also synchronizes with everything this
    // thread ever wrote.
    handle.publish_report(u64::MAX);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    /// Asserts that joining `handle` re-raises the discard panic.
    fn assert_discarded(handle: JobHandle<u32>) {
        let err = catch_unwind(AssertUnwindSafe(|| handle.join()))
            .expect_err("a dropped job must resolve its handle with a panic");
        assert_eq!(err.downcast_ref::<&str>(), Some(&handle::DISCARDED));
    }

    #[test]
    fn dropped_job_resolves_its_handle() {
        let (job, handle) = Job::<WoolFull>::new(|_| 1u32);
        assert!(!handle.is_finished());
        drop(job);
        assert_discarded(handle);

        let injector = Injector::with_capacity(2);
        let (job, handle) = Job::<WoolFull>::new(|_| 2u32);
        assert!(injector.push(job).is_ok());
        drop(injector);
        assert_discarded(handle);
    }

    #[test]
    fn stop_reports_after_a_job_unwinds_its_worker() {
        let pool = ServePool::start(2);
        struct Unwinds;
        impl Run<WoolFull> for Unwinds {
            fn run(&self, _: &mut WorkerHandle<WoolFull>, _: &AtomicU64) {
                panic!("job unwinds its worker")
            }
            fn discard(&self) {}
        }
        let job = Job {
            cell: Arc::new(Unwinds),
            submit_ts: 0,
            tag: 0,
        };
        assert!(pool.shared.injector.push(job).is_ok());
        // The workers run the queued job before they exit, so one of
        // them dies without publishing its report.
        let report = pool.shutdown().expect("first shutdown");
        assert_eq!((report.per_worker.len(), report.jobs), (2, 0));
    }

    /// `park` and `unpark` bracket a real park: workers that idled into
    /// a park, and then got a job, show each `park` followed by an
    /// `unpark` before anything else they record.
    #[cfg(feature = "trace")]
    #[test]
    fn trace_pairs_every_park_with_an_unpark() {
        use crate::trace::EventKind::{Park, Unpark};
        use crate::trace::TraceLevel;
        use std::time::{Duration, Instant};

        let cfg = PoolConfig::with_workers(2)
            .trace(TraceLevel::All)
            .trace_capacity(1 << 14);
        let pool: ServePool = ServePool::with_config(cfg);
        let t0 = Instant::now();
        while !pool.inner.workers.iter().any(|w| w.parked.load(Relaxed)) {
            assert!(t0.elapsed() < Duration::from_secs(10), "no worker parked");
            std::thread::yield_now();
        }
        // The flag is set before the worker's last check for work: wait
        // until that check has passed, so this submission cannot beat it.
        std::thread::sleep(Idle::PARK_TIMEOUT * 2);
        assert_eq!(
            pool.submit(|h| h.fork(|_| 1, |_| 2)).unwrap().join(),
            (1, 2)
        );
        let trace = pool.shutdown().unwrap().trace.expect("trace configured");
        assert!(trace.count(Park) > 0, "no worker parked");
        for w in &trace.workers {
            assert_eq!(w.dropped, 0);
            let mut parked = false;
            for e in &w.events {
                let ok = match e.kind {
                    Park => !std::mem::replace(&mut parked, true),
                    Unpark => std::mem::replace(&mut parked, false),
                    _ => !parked,
                };
                assert!(ok, "worker {}: {:?} out of order", w.worker, e.kind);
            }
            assert!(!parked, "worker {}: park without unpark", w.worker);
        }
    }
}
