//! Serve mode: a persistent worker fleet fed by the global injector.
//!
//! The batch [`Pool`](crate::Pool) is strictly fork-join: one root task
//! at a time, launched from the owning thread. The engine here removes
//! both restrictions for service workloads: **all** workers are
//! background threads, and root jobs arrive through the bounded MPMC
//! [`Injector`] from any thread, at any time, concurrently.
//!
//! The scheduling order per worker is deliberate:
//!
//! 1. **injector poll** — a queued root job is independent work that
//!    touches nobody's task stack, so it comes first;
//! 2. **steal sweep** — only with the injector empty (intra-job
//!    parallelism through the untouched §III-A/B fast path): a failed
//!    steal rings the victim's trip wire and makes a busy owner publish
//!    for nothing;
//! 3. **escalation** — spin → yield → park, with an injector-aware
//!    wakeup: submitters unpark a sleeping worker eagerly instead of
//!    relying on the park timeout.
//!
//! The tradeoff: while roots are queued, a running job's inner
//! parallelism waits until the queue drains. Throughput does not suffer,
//! since every worker already has independent work.
//!
//! This module is the engine only — type-erased jobs in, completed jobs
//! out. The user-facing API (`ServePool`, `JobHandle` futures, graceful
//! drain, panic propagation) lives in the `wool-serve` crate, which
//! monomorphizes submissions down to [`Runnable`]s.

use crate::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use crate::sync::atomic::{fence, AtomicBool, AtomicU64};
use crate::sync::thread::{JoinHandle, Thread};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use crate::config::PoolConfig;
use crate::exec::WorkerHandle;
use crate::injector::{Injector, Runnable};
use crate::pad::CachePadded;
use crate::pool::PoolInner;
use crate::stats::Stats;
use crate::strategy::{Strategy, WoolFull};
use crate::timebreak::Category;
use crate::worker::WorkerReport;

/// Submission-side coordination state, shared with every worker.
pub(crate) struct ServeShared {
    /// The global injector queue.
    pub injector: Injector,
    /// Per-worker "I am parked (or about to park)" flags; SeqCst against
    /// the queue state, see the wakeup protocol below.
    parked: Box<[CachePadded<AtomicBool>]>,
    /// Worker thread handles for unparking, registered by each worker
    /// before its first park. Only touched on the (cold) wake path.
    threads: Box<[Mutex<Option<Thread>>]>,
    /// Root jobs completed, across all workers.
    jobs: AtomicU64,
}

impl ServeShared {
    fn new(workers: usize, injector_capacity: usize) -> Self {
        ServeShared {
            injector: Injector::with_capacity(injector_capacity),
            parked: (0..workers)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            threads: (0..workers).map(|_| Mutex::new(None)).collect(),
            jobs: AtomicU64::new(0),
        }
    }

    /// Wakes one parked worker, if any. Claiming the flag with a swap
    /// means concurrent submitters wake *different* workers.
    fn wake_one(&self) {
        for (i, p) in self.parked.iter().enumerate() {
            if p.load(Relaxed) && p.swap(false, SeqCst) {
                if let Some(t) = self.threads[i].lock().unwrap().as_ref() {
                    t.unpark();
                }
                return;
            }
        }
    }

    /// Wakes every worker (shutdown).
    fn wake_all(&self) {
        for (i, p) in self.parked.iter().enumerate() {
            p.store(false, SeqCst);
            if let Some(t) = self.threads[i].lock().unwrap().as_ref() {
                t.unpark();
            }
        }
    }
}

/// Everything measured over the lifetime of a serve engine, returned by
/// [`ServeEngine::stop`].
#[derive(Debug)]
pub struct ServeReport {
    /// Number of workers the engine ran.
    pub workers: usize,
    /// Root jobs executed to completion.
    pub jobs: u64,
    /// Per-worker scheduler statistics for the whole serve session.
    pub per_worker: Vec<Stats>,
    /// Sum of `per_worker`.
    pub total: Stats,
    /// The merged event trace of the session, when the engine was
    /// configured with `instrument_trace`.
    #[cfg(feature = "trace")]
    pub trace: Option<wool_trace::Trace>,
}

/// The serve-mode execution engine: `cfg.workers` persistent background
/// workers, a global injector, and nothing else. See the module docs.
pub struct ServeEngine<S: Strategy = WoolFull> {
    inner: Arc<PoolInner>,
    shared: Arc<ServeShared>,
    /// Taken by the first `stop`.
    threads: Mutex<Vec<JoinHandle<()>>>,
    _strategy: PhantomData<S>,
}

impl<S: Strategy> ServeEngine<S> {
    /// Starts the engine.
    ///
    /// # Panics
    /// Panics when `cfg.workers == 0` (see [`PoolConfig::validated`]).
    pub fn start(cfg: PoolConfig) -> Self {
        // Spans and the time breakdown describe one fork-join region;
        // a serve session has none, so it measures neither.
        let inner = PoolInner::build(PoolConfig {
            instrument_span: false,
            instrument_time: false,
            ..cfg.validated()
        });
        let p = inner.cfg.workers;
        let shared = Arc::new(ServeShared::new(p, inner.cfg.injector_capacity));
        let threads = (0..p)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let shared = Arc::clone(&shared);
                crate::sync::thread::Builder::new()
                    .name(format!("wool-serve-{}-{}", S::NAME, i))
                    .spawn(move || serve_loop::<S>(inner, shared, i))
                    .expect("failed to spawn serve worker thread")
            })
            .collect();
        ServeEngine {
            inner,
            shared,
            threads: Mutex::new(threads),
            _strategy: PhantomData,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// Capacity of the injector queue (after power-of-two rounding).
    pub fn injector_capacity(&self) -> usize {
        self.shared.injector.capacity()
    }

    /// Jobs currently waiting in the injector (approximate).
    pub fn queued(&self) -> usize {
        self.shared.injector.len()
    }

    /// Jobs accepted but not yet completed (queued plus running,
    /// approximate): the injector's push count minus the jobs run.
    pub fn pending_jobs(&self) -> usize {
        let done = self.shared.jobs.load(Relaxed) as usize;
        self.shared.injector.pushed().saturating_sub(done)
    }

    /// The strategy name (paper series label).
    pub fn strategy_name(&self) -> &'static str {
        S::NAME
    }

    /// Enqueues a type-erased job and wakes a parked worker. Returns
    /// the job back when the injector is full (the caller decides
    /// whether to back off and retry or shed load).
    ///
    /// Safe to call from any thread, concurrently.
    pub fn submit(&self, job: Runnable) -> Result<(), Runnable> {
        self.shared.injector.push(job)?;
        // Wakeup protocol (pairs with the park sequence in serve_loop):
        // the push above is Release on the cell; the fence orders it
        // before the `parked` reads in wake_one, so either the parking
        // worker's final is_empty() check sees our job, or we see its
        // parked flag and unpark it.
        fence(SeqCst);
        self.shared.wake_one();
        Ok(())
    }

    /// Stops the engine: workers finish their current job, drain the
    /// injector, and exit; their statistics (and trace, if configured)
    /// are collected into the returned report. A later call returns the
    /// same report.
    ///
    /// Jobs still queued at this point are *executed*, not dropped —
    /// graceful-drain policy (reject-then-drain) is the caller's job.
    /// A job submitted after `stop` never runs; dropping the engine
    /// disposes of it.
    pub fn stop(&self) -> ServeReport {
        // Joining under the lock makes a second caller's report reads
        // happen after every worker exited.
        let mut threads = self.threads.lock().expect("an earlier stop panicked");
        self.inner.shutdown.store(true, SeqCst);
        self.shared.wake_all();
        for t in threads.drain(..) {
            let _ = t.join();
        }
        let p = self.inner.workers.len();
        let mut per_worker = Vec::with_capacity(p);
        #[cfg(feature = "trace")]
        let mut trace_snaps = Vec::new();
        for (i, w) in self.inner.workers.iter().enumerate() {
            // SAFETY: every worker thread has been joined, and no thread
            // writes the report and owner cells any more.
            let report: WorkerReport = unsafe { *w.report.get() };
            per_worker.push(report.stats);
            #[cfg(feature = "trace")]
            if self.inner.cfg.instrument_trace {
                trace_snaps.push(unsafe { (*w.own.get()).trace.snapshot(i) });
            }
            let _ = i;
        }
        let total: Stats = per_worker.iter().copied().sum();
        ServeReport {
            workers: p,
            jobs: self.shared.jobs.load(Relaxed),
            per_worker,
            total,
            #[cfg(feature = "trace")]
            trace: self
                .inner
                .cfg
                .instrument_trace
                .then(|| wool_trace::Trace::new(trace_snaps, crate::cycles::ticks_per_ns())),
        }
    }
}

impl<S: Strategy> Drop for ServeEngine<S> {
    fn drop(&mut self) {
        if self.threads.get_mut().is_ok_and(|t| !t.is_empty()) {
            let _ = self.stop();
        }
    }
}

/// Main loop of a serve worker.
fn serve_loop<S: Strategy>(inner: Arc<PoolInner>, shared: Arc<ServeShared>, idx: usize) {
    // SAFETY: the engine (via Arc) outlives the loop; this thread is
    // the unique owner of worker `idx`.
    let mut handle = unsafe { WorkerHandle::<S>::new(&inner, idx) };
    let cfg = &inner.cfg;
    let wkr = &inner.workers[idx];

    // Register for injector-aware wakeups before the first park.
    *shared.threads[idx].lock().unwrap() = Some(crate::sync::thread::current());

    // SAFETY: owner-only state, this is the owning thread.
    unsafe { handle.own().begin(cfg, Category::St) };

    let mut idle = 0u32;
    loop {
        // 1. A queued root job comes first.
        if let Some(job) = shared.injector.pop() {
            // More queued work behind this one? Pass the wakeup on so
            // one submission burst does not drain through one worker.
            if !shared.injector.is_empty() {
                shared.wake_one();
            }
            #[cfg(feature = "trace")]
            let tag = job.tag();
            #[cfg(feature = "trace")]
            if cfg.instrument_trace {
                // SAFETY: this thread owns worker `idx`. The Inject
                // event is backdated to the submitter's timestamp so
                // queueing latency is visible on the timeline.
                unsafe {
                    let own = handle.own();
                    if own.trace.is_enabled() {
                        let submit_ts = job.submit_ts();
                        own.trace
                            .record(wool_trace::EventKind::Inject, submit_ts, tag);
                        own.trace
                            .record(wool_trace::EventKind::Dequeue, crate::cycles::now(), tag);
                    }
                }
            }
            // SAFETY: the submitting side (wool-serve) monomorphized
            // this job for strategy `S`; `handle` is a live worker of
            // that pool on its owning thread.
            unsafe { job.run(&mut handle as *mut WorkerHandle<S> as *mut ()) };
            shared.jobs.fetch_add(1, Relaxed);
            #[cfg(feature = "trace")]
            {
                // SAFETY: this thread owns worker `idx`.
                unsafe { trace_ev!(handle, JobDone, tag) }
            }
            idle = 0;
            continue;
        }

        // 2. Injector empty: help an in-flight job.
        // SAFETY: this thread owns worker `idx`.
        if unsafe { handle.steal_round() } {
            idle = 0;
            continue;
        }

        if inner.shutdown.load(Acquire) && shared.injector.is_empty() {
            break;
        }

        // 3. Nothing anywhere: escalate spin → yield → park.
        #[cfg(feature = "trace")]
        if idle == 0 {
            // SAFETY: this thread owns worker `idx`.
            unsafe { trace_ev!(handle, Idle, 0) }
        }
        idle += 1;
        if idle < cfg.steal_spin {
            crate::sync::hint::spin_loop();
        } else if idle < cfg.idle_yield {
            crate::sync::thread::yield_now();
        } else {
            // Park with an injector-aware wakeup: set the flag, then
            // re-check the queue (and shutdown). A submitter does the
            // mirror image — push, fence, read flags — so one side
            // always observes the other (both sequences are SeqCst);
            // the park timeout is only a safety net, e.g. for steal
            // targets appearing without a submission.
            shared.parked[idx].store(true, SeqCst);
            fence(SeqCst);
            if !shared.injector.is_empty() || inner.shutdown.load(SeqCst) {
                shared.parked[idx].store(false, Relaxed);
                // Work (or shutdown) appeared between the last poll and
                // the flag store. Restart the idle escalation rather
                // than re-entering the park sequence in a tight loop:
                // the queue can be non-empty with the job not yet
                // poppable (a submitter between its slot reservation and
                // its publish), and the escalation's spin phase is where
                // waiting for that publish belongs.
                idle = 0;
                continue;
            }
            #[cfg(feature = "trace")]
            {
                // SAFETY: this thread owns worker `idx`.
                unsafe { trace_ev!(handle, Park, 0) }
            }
            crate::sync::thread::park_timeout(std::time::Duration::from_micros(
                cfg.park_timeout_us,
            ));
            shared.parked[idx].store(false, Relaxed);
            #[cfg(feature = "trace")]
            {
                // SAFETY: this thread owns worker `idx`.
                unsafe { trace_ev!(handle, Unpark, 0) }
            }
        }
    }

    // Publish this worker's statistics for the engine to collect after
    // joining the thread.
    // SAFETY: owner-only state; the engine reads `report` (and the
    // trace ring) only after `JoinHandle::join` returns, which
    // synchronizes with everything this thread ever wrote.
    unsafe { *wkr.report.get() = handle.own().finish() };
    wkr.report_epoch.store(u64::MAX, Release);
}
