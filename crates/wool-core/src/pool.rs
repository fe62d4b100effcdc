//! The worker pool: thread lifecycle, parallel regions, reports.
//!
//! A [`Pool`] owns `workers - 1` background threads plus the calling
//! thread, which acts as worker 0 inside [`Pool::run`]. This mirrors the
//! paper's benchmark structure: a program is a sequence of parallel
//! regions separated by serial code on worker 0, with the other workers
//! polling for stealable work for the whole duration of the program.
//!
//! After each `run`, a [`RunReport`] is available with the per-worker
//! scheduler statistics, the measured work/span (Table I), and the
//! CPU-time breakdown (Figure 6), depending on which instrumentation the
//! [`PoolConfig`] enabled.

use crate::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use crate::sync::atomic::{AtomicBool, AtomicU64};
use crate::sync::thread::JoinHandle;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use crate::config::PoolConfig;
use crate::cycles;
use crate::exec::WorkerHandle;
use crate::stats::Stats;
use crate::strategy::{Strategy, WoolFull};
use crate::timebreak::{Category, TimeBreakdown};
use crate::worker::{Worker, WorkerReport};

/// Shared, strategy-independent pool state.
pub(crate) struct PoolInner {
    /// All workers; index 0 is driven by the `run` caller.
    pub workers: Box<[Worker]>,
    /// Immutable configuration.
    pub cfg: PoolConfig,
    /// True while a parallel region is executing.
    pub active: AtomicBool,
    /// Set once at drop; background threads exit.
    pub shutdown: AtomicBool,
    /// Region counter; bumped by every `run`.
    pub epoch: AtomicU64,
    /// Epoch of the most recently *finished* region; tells background
    /// workers which epoch they should publish a report for.
    pub completed: AtomicU64,
}

impl PoolInner {
    /// Builds the shared state for a validated configuration, with
    /// trace rings installed when tracing is configured. Used by both
    /// the batch [`Pool`] and the serve engine (`crate::serve`).
    pub(crate) fn build(cfg: PoolConfig) -> Arc<PoolInner> {
        let p = cfg.workers;
        let workers: Box<[Worker]> = (0..p).map(|i| Worker::new(i, cfg.stack_capacity)).collect();
        let inner = Arc::new(PoolInner {
            workers,
            cfg,
            active: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        #[cfg(feature = "trace")]
        if inner.cfg.instrument_trace {
            for w in inner.workers.iter() {
                // SAFETY: no worker thread exists yet; this thread has
                // exclusive access to every owner cell.
                unsafe {
                    (*w.own.get()).trace = wool_trace::TraceRing::new(inner.cfg.trace_capacity);
                }
            }
        }
        inner
    }

    /// Waits until every worker has published its report for `epoch`
    /// and gathers the reports in worker order, with the merged trace
    /// when tracing is configured. A batch region collects with its
    /// own epoch; the serve engine collects with `u64::MAX` after
    /// joining its workers.
    pub(crate) fn collect_reports(&self, epoch: u64) -> Reports {
        let mut reports = Vec::with_capacity(self.workers.len());
        for w in self.workers.iter() {
            let mut spins = 0u32;
            while w.report_epoch.load(Acquire) != epoch {
                spins += 1;
                if spins < 256 {
                    crate::sync::hint::spin_loop();
                } else {
                    crate::sync::thread::yield_now();
                }
            }
            // SAFETY: the Acquire above pairs with the owner's Release
            // publish; the owner will not write this epoch's report
            // again.
            reports.push(unsafe { *w.report.get() });
        }
        #[cfg(feature = "trace")]
        let trace = self.cfg.instrument_trace.then(|| {
            let snaps = self.workers.iter().enumerate();
            // SAFETY: covered by the same Acquire edges as the reports:
            // an owner disables its ring strictly before its Release
            // publish and re-enables it only at its next `begin`, which
            // for a batch worker needs the next region (`&mut Pool`) and
            // never comes for a serve worker.
            let snaps = snaps.map(|(i, w)| unsafe { (*w.own.get()).trace.snapshot(i) });
            wool_trace::Trace::new(snaps.collect(), cycles::ticks_per_ns())
        });
        Reports {
            reports,
            #[cfg(feature = "trace")]
            trace,
        }
    }
}

/// What [`PoolInner::collect_reports`] gathers for one epoch.
pub(crate) struct Reports {
    /// One report per worker, in worker order.
    pub reports: Vec<WorkerReport>,
    /// The merged event trace, when tracing is configured.
    #[cfg(feature = "trace")]
    pub trace: Option<wool_trace::Trace>,
}

/// Everything measured during one [`Pool::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of workers in the pool.
    pub workers: usize,
    /// Wall-clock duration of the region, in cycle ticks.
    pub wall_ticks: u64,
    /// Per-worker scheduler statistics (index 0 = the run caller).
    pub per_worker: Vec<Stats>,
    /// Sum of `per_worker`.
    pub total: Stats,
    /// Total measured work `T_1` in cycles (0 unless span-instrumented).
    pub work: u64,
    /// Span with zero scheduling overhead (`T_inf`, Table I column "0").
    pub span0: u64,
    /// Span under the realistic overhead model (Table I column "2000").
    pub span_c: u64,
    /// Merged CPU-time breakdown (zeros unless time-instrumented).
    pub breakdown: TimeBreakdown,
}

impl RunReport {
    /// Parallelism `T_1 / T_inf` in the zero-overhead model.
    pub fn parallelism0(&self) -> f64 {
        if self.span0 == 0 {
            0.0
        } else {
            self.work as f64 / self.span0 as f64
        }
    }

    /// Parallelism under the realistic overhead model.
    pub fn parallelism_c(&self) -> f64 {
        if self.span_c == 0 {
            0.0
        } else {
            self.work as f64 / self.span_c as f64
        }
    }
}

/// A work-stealing pool running the direct task stack scheduler with
/// strategy `S` (default: the full Wool configuration).
pub struct Pool<S: Strategy = WoolFull> {
    inner: Arc<PoolInner>,
    threads: Vec<JoinHandle<()>>,
    last_report: Option<RunReport>,
    #[cfg(feature = "trace")]
    last_trace: Option<wool_trace::Trace>,
    _strategy: PhantomData<S>,
}

impl<S: Strategy> Pool<S> {
    /// Creates a pool with the default configuration.
    pub fn new(workers: usize) -> Self {
        Self::with_config(PoolConfig::with_workers(workers))
    }

    /// Creates a pool from an explicit configuration.
    ///
    /// # Panics
    /// Panics when `cfg.workers == 0` (see [`PoolConfig::validated`]).
    pub fn with_config(cfg: PoolConfig) -> Self {
        let inner = PoolInner::build(cfg.validated());
        let p = inner.cfg.workers;
        let threads = (1..p)
            .map(|i| {
                let inner = Arc::clone(&inner);
                crate::sync::thread::Builder::new()
                    .name(format!("wool-{}-{}", S::NAME, i))
                    .spawn(move || background_loop::<S>(inner, i))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Pool {
            inner,
            threads,
            last_report: None,
            #[cfg(feature = "trace")]
            last_trace: None,
            _strategy: PhantomData,
        }
    }

    /// Number of workers (including the `run` caller).
    pub fn workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// The strategy name (paper series label).
    pub fn strategy_name(&self) -> &'static str {
        S::NAME
    }

    /// Runs `f` as the root task of a parallel region. The calling
    /// thread becomes worker 0; background workers steal from it (and
    /// from each other) until the root returns.
    ///
    /// Any panic raised inside the region is propagated after the
    /// region has quiesced.
    pub fn run<R, F>(&mut self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&mut WorkerHandle<S>) -> R + Send,
    {
        let inner = &*self.inner;
        let epoch = inner.epoch.fetch_add(1, Relaxed) + 1;
        let cfg = &inner.cfg;

        // Initialize worker 0 for the region. SAFETY: we hold `&mut
        // self`, so no other `run` is live; background workers never
        // touch worker 0's owner state.
        let w0 = &inner.workers[0];
        unsafe {
            let own = &mut *w0.own.get();
            debug_assert_eq!(own.top, 0, "task stack must be quiescent between runs");
            own.begin(cfg, Category::Na);
            own.seen_epoch = epoch;
        }
        debug_assert_eq!(w0.bot.load(Relaxed), 0);
        // `n_public` may be left above the (empty) stack when the last
        // public task of the previous region was stolen, or under the
        // all-public rung; re-arm it for the fresh stack.
        w0.n_public.store(0, Relaxed);
        // The background workers are idle at region start, so arm the
        // trip wire: the root's first spawn publishes at once instead of
        // waiting for a thief's request. A one-worker region has no
        // thief and never publishes.
        w0.publish_request.store(inner.workers.len() > 1, Relaxed);

        let t0 = cycles::now();
        inner.active.store(true, Release);
        for t in &self.threads {
            t.thread().unpark();
        }

        // SAFETY: the pool outlives the handle; this thread is the
        // unique worker 0 for the duration of the region.
        let mut handle = unsafe { WorkerHandle::<S>::new(inner, 0) };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut handle)));

        inner.active.store(false, Release);
        inner.completed.store(epoch, Release);
        let wall = cycles::now().wrapping_sub(t0);

        // Worker 0 publishes its report through its own mailbox, like
        // the background workers. SAFETY: as at region start.
        unsafe { *w0.report.get() = (*w0.own.get()).finish() };
        w0.report_epoch.store(epoch, Release);

        let collected = inner.collect_reports(epoch);
        #[cfg(feature = "trace")]
        {
            self.last_trace = collected.trace;
        }
        let reports = collected.reports;
        let mut breakdown = TimeBreakdown::default();
        for r in &reports {
            breakdown.merge(&r.breakdown);
        }
        let per_worker: Vec<Stats> = reports.iter().map(|r| r.stats).collect();
        self.last_report = Some(RunReport {
            workers: reports.len(),
            wall_ticks: wall,
            total: per_worker.iter().copied().sum(),
            per_worker,
            work: reports.iter().map(|r| r.work).sum(),
            span0: reports[0].span0,
            span_c: reports[0].span_c,
            breakdown,
        });

        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// The report of the most recent [`run`](Pool::run), if any.
    pub fn last_report(&self) -> Option<&RunReport> {
        self.last_report.as_ref()
    }

    /// The event trace of the most recent [`run`](Pool::run), when the
    /// pool was configured with
    /// [`instrument_trace`](PoolConfig::instrument_trace).
    #[cfg(feature = "trace")]
    pub fn last_trace(&self) -> Option<&wool_trace::Trace> {
        self.last_trace.as_ref()
    }

    /// Takes ownership of the most recent run's event trace.
    #[cfg(feature = "trace")]
    pub fn take_trace(&mut self) -> Option<wool_trace::Trace> {
        self.last_trace.take()
    }
}

impl<S: Strategy> Drop for Pool<S> {
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

/// Main loop of a background worker.
fn background_loop<S: Strategy>(inner: Arc<PoolInner>, idx: usize) {
    // SAFETY: the pool (via Arc) outlives the loop; this thread is the
    // unique owner of worker `idx`.
    let mut handle = unsafe { WorkerHandle::<S>::new(&inner, idx) };
    let wkr = &inner.workers[idx];
    let cfg = &inner.cfg;
    let mut idle = 0u32;

    loop {
        if inner.shutdown.load(Acquire) {
            break;
        }
        if inner.active.load(Acquire) {
            let epoch = inner.epoch.load(Acquire);
            // SAFETY: owner-only state, this is the owning thread.
            unsafe {
                let own = handle.own();
                if own.seen_epoch != epoch {
                    own.seen_epoch = epoch;
                    own.begin(cfg, Category::St);
                    #[cfg(feature = "trace")]
                    if cfg.instrument_trace {
                        own.trace
                            .record(wool_trace::EventKind::Unpark, cycles::now(), 0);
                    }
                }
            }
            // SAFETY: this thread owns worker `idx`.
            let got = unsafe { handle.steal_round() };
            if got {
                idle = 0;
            } else {
                #[cfg(feature = "trace")]
                if idle == 0 {
                    // First empty-handed round after useful work: the
                    // start of an idle span on the exported timeline
                    // (closed by the next steal success).
                    // SAFETY: this thread owns worker `idx`.
                    unsafe { trace_ev!(handle, Idle, 0) }
                }
                idle += 1;
                if idle < cfg.steal_spin {
                    crate::sync::hint::spin_loop();
                } else {
                    #[cfg(feature = "trace")]
                    if idle == cfg.steal_spin {
                        // Escalation from spinning to yielding the CPU.
                        // SAFETY: this thread owns worker `idx`.
                        unsafe { trace_ev!(handle, Park, 0) }
                    }
                    // Crucial on oversubscribed hosts: let victims run.
                    crate::sync::thread::yield_now();
                }
            }
        } else {
            // Publish a report for the most recently finished region.
            // A worker that never noticed a (very short) region still
            // publishes an empty report so the coordinator's collection
            // loop terminates.
            let done = inner.completed.load(Acquire);
            if done != 0 && wkr.report_epoch.load(Relaxed) != done {
                // SAFETY: owner-only state; the coordinator reads
                // `report` only after Acquire-observing a matching
                // `report_epoch`, which we Release-store below.
                unsafe {
                    let own = handle.own();
                    // `finish` stops the trace ring before the Release
                    // below: the coordinator reads it after the matching
                    // Acquire.
                    *wkr.report.get() = if own.seen_epoch == done {
                        own.finish()
                    } else {
                        // The ring (already stopped) still holds an
                        // earlier region's events; this region has none.
                        #[cfg(feature = "trace")]
                        own.trace.clear();
                        WorkerReport::default()
                    };
                }
                wkr.report_epoch.store(done, Release);
            }
            idle += 1;
            if idle < cfg.idle_spin {
                crate::sync::hint::spin_loop();
            } else if idle < cfg.idle_yield {
                crate::sync::thread::yield_now();
            } else {
                crate::sync::thread::park_timeout(std::time::Duration::from_micros(
                    cfg.park_timeout_us,
                ));
            }
        }
    }
}
