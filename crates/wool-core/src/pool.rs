//! The worker pool: thread lifecycle, parallel regions, reports.
//!
//! A [`Pool`] owns `workers - 1` background threads plus the calling
//! thread, which acts as worker 0 inside [`Pool::run`]. This mirrors the
//! paper's benchmark structure: a program is a sequence of parallel
//! regions separated by serial code on worker 0, with the other workers
//! stealing inside regions and idling between them.
//!
//! Between regions a background worker idles through [`Idle`]: spin,
//! yield, then park. The root's first spawn publishes (the trip wire is
//! armed at region start) and `publish` wakes a parked worker, so an
//! empty region wakes no one. Inside a region a thief never parks: only
//! thieves ring the trip wire, so nothing would publish to wake it.
//!
//! A region waits only for the workers that took part in it. A background
//! worker joins a region with one CAS on its claim word
//! ([`Worker::joined`]) before it steals; at region end `run` closes each
//! background worker's word with another CAS and waits for the report of
//! a worker only if that worker's join won. A worker that slept through
//! the region contributes an empty report, and nothing of its state is
//! read: it stole nothing, and the root joined every task it spawned
//! before returning.
//!
//! After each `run`, a [`RunReport`] is available with the per-worker
//! scheduler statistics and, when the [`PoolConfig`] traces, the event
//! trace (Figure 6 is a view over it, in `wool_trace::analysis`).

use crate::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};
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
use crate::trace::{probe, Trace, TraceLevel, TraceRing};
use crate::worker::{DeadOnUnwind, Idle, Worker, CLOSED};

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
    /// Builds the shared state for a validated configuration, with a
    /// trace ring in each worker's mailbox when tracing is configured.
    /// Used by both the batch [`Pool`] and the serve pool
    /// (`crate::serve`).
    pub(crate) fn build(cfg: PoolConfig) -> Arc<PoolInner> {
        let workers: Box<[Worker]> = (0..cfg.workers)
            .map(|_| {
                let ring = TraceRing::new(cfg.trace, cfg.trace_capacity);
                Worker::new(cfg.stack_capacity, ring)
            })
            .collect();
        Arc::new(PoolInner {
            workers,
            cfg,
            active: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        })
    }

    /// Starts worker 0's part of a region: re-arms its stack for the
    /// root task and returns the root's handle, its measurement window
    /// open.
    ///
    /// # Safety
    /// As for [`WorkerHandle::new`] for worker 0, and no region may be
    /// live.
    pub(crate) unsafe fn begin_root<S: Strategy>(&self) -> WorkerHandle<S> {
        let w0 = &self.workers[0];
        debug_assert_eq!(w0.bot.load(Relaxed), 0);
        // `n_public` may be left above the (empty) stack under the
        // all-public rung; re-arm it for the fresh stack. The handle,
        // made after this, copies it.
        w0.n_public.store(0, Relaxed);
        // The background workers are idle at region start, so arm the
        // trip wire: the root's first spawn publishes at once instead of
        // waiting for a thief's request. A one-worker region has no
        // thief and never publishes.
        w0.publish_request.store(self.workers.len() > 1, Relaxed);
        let mut h = WorkerHandle::new(self, 0);
        h.begin();
        h
    }

    /// Background worker `idx` joins region `epoch`, before it touches
    /// anything of the region: one CAS on its claim word, from any
    /// earlier epoch. False when the coordinator has already closed
    /// `epoch` without it; the worker then must not steal in the region.
    pub(crate) fn join_region(&self, idx: usize, epoch: u64) -> bool {
        let word = &self.workers[idx].joined;
        let cur = word.load(Acquire);
        cur & !CLOSED < epoch && word.compare_exchange(cur, epoch, AcqRel, Acquire).is_ok()
    }

    /// The coordinator closes region `epoch` on background worker `idx`,
    /// after the root has returned: one CAS on its claim word. True when
    /// the worker had not joined, so it holds nothing of the region and
    /// will not join it any more; false when it joined, and its report
    /// must be awaited.
    pub(crate) fn close_region(&self, idx: usize, epoch: u64) -> bool {
        let word = &self.workers[idx].joined;
        let cur = word.load(Acquire);
        if cur == epoch {
            return false;
        }
        match word.compare_exchange(cur, epoch | CLOSED, AcqRel, Acquire) {
            Ok(_) => true,
            Err(now) => {
                debug_assert_eq!(now, epoch, "only the worker's join races the close");
                false
            }
        }
    }

    /// Gathers the reports of `epoch` into `per_worker` (cleared first),
    /// in worker order, and returns the merged trace when the pool
    /// traces. `joined(i)` says whether worker `i` took part. The
    /// coordinator waits for the report of each worker that did. A worker
    /// that did not gets an empty report and an empty trace, and its
    /// mailbox is not touched at all: its thread may be running, and the
    /// ring there still holds an earlier region's events.
    ///
    /// A batch region collects with its own epoch and closes each
    /// background worker out in `joined`; the serve pool collects with
    /// `u64::MAX` after joining its workers, and leaves out the dead. A
    /// batch region panics when a worker that joined it has died.
    pub(crate) fn collect_reports(
        &self,
        epoch: u64,
        joined: impl Fn(usize) -> bool,
        per_worker: &mut Vec<Stats>,
    ) -> Option<Trace> {
        per_worker.clear();
        let mut snaps = (self.cfg.trace != TraceLevel::Off).then(Vec::new);
        for (i, w) in self.workers.iter().enumerate() {
            if !joined(i) {
                per_worker.push(Stats::default());
                if let Some(snaps) = &mut snaps {
                    snaps.push(TraceRing::default().snapshot(i));
                }
                continue;
            }
            let mut idle = Idle::default();
            while w.report_epoch.load(Acquire) != epoch {
                assert!(!w.dead.load(Acquire), "wool worker {i} died");
                idle.snooze();
            }
            // SAFETY: the Acquire above pairs with the owner's Release
            // publish, and the owner leaves the mailbox alone until its
            // next window, which for a batch worker needs the next
            // region (`&mut Pool`) and never comes for a serve worker.
            let mailbox = unsafe { &*w.report.get() };
            per_worker.push(mailbox.report);
            if let Some(snaps) = &mut snaps {
                snaps.push(mailbox.trace.snapshot(i));
            }
        }
        snaps.map(|s| Trace::new(s, cycles::ticks_per_ns()))
    }
}

/// Everything measured during one [`Pool::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock duration of the region, in cycle ticks.
    pub wall_ticks: u64,
    /// Per-worker scheduler statistics (index 0 = the run caller).
    pub per_worker: Vec<Stats>,
    /// Sum of `per_worker`.
    pub total: Stats,
}

/// A work-stealing pool running the direct task stack scheduler with
/// strategy `S` (default: the full Wool configuration).
pub struct Pool<S: Strategy = WoolFull> {
    inner: Arc<PoolInner>,
    threads: Vec<JoinHandle<()>>,
    last_report: Option<RunReport>,
    last_trace: Option<Trace>,
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
        // SAFETY: we hold `&mut self`, so no other `run` is live and this
        // thread is worker 0 until the region ends; the handle does not
        // outlive the region.
        let mut handle = unsafe { inner.begin_root::<S>() };

        let t0 = cycles::now();
        inner.active.store(true, Release);
        // A parked worker is woken by the root's first publication. The
        // rungs without the trip wire never publish, so for them region
        // start wakes every parked worker.
        if !S::PRIVATE_TASKS || S::PUBLISH_ALL {
            Idle::wake_all(&inner.workers);
        }

        let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut handle)));
        debug_assert_eq!(handle.pending(), 0, "the root joins every task it spawned");

        // `completed` first: a worker that sees the region inactive then
        // also sees it completed, so it never goes idle, and parks, still
        // owing the report that the coordinator waits for below.
        inner.completed.store(epoch, Release);
        inner.active.store(false, Release);
        let wall = cycles::now().wrapping_sub(t0);

        // Worker 0 publishes its report through its own mailbox, like
        // the background workers.
        handle.publish_report(epoch);

        // Close the region on every background worker: only those that
        // joined it are waited for. The previous report's vector takes
        // the counters, so a region allocates nothing for them.
        let mut per_worker = self
            .last_report
            .take()
            .map_or_else(Vec::new, |r| r.per_worker);
        self.last_trace = inner.collect_reports(
            epoch,
            |i| i == 0 || !inner.close_region(i, epoch),
            &mut per_worker,
        );
        self.last_report = Some(RunReport {
            wall_ticks: wall,
            total: per_worker.iter().copied().sum(),
            per_worker,
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
    /// pool's [`trace`](PoolConfig::trace) level is not `Off`; `None`
    /// otherwise. Without the `trace` cargo feature it holds only the
    /// breakdown kinds, at either level.
    pub fn last_trace(&self) -> Option<&Trace> {
        self.last_trace.as_ref()
    }

    /// Takes ownership of the most recent run's event trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.last_trace.take()
    }
}

impl<S: Strategy> Drop for Pool<S> {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, SeqCst);
        Idle::wake_all(&self.inner.workers);
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
    let _dead_on_unwind = DeadOnUnwind(wkr);
    let mut idle = Idle::default();
    // The region epoch this worker most recently joined (and began).
    let mut seen_epoch = 0;

    loop {
        if inner.shutdown.load(Acquire) {
            break;
        }
        if inner.active.load(Acquire) {
            let epoch = inner.epoch.load(Acquire);
            if seen_epoch != epoch {
                // Join the region before touching any of it. A failed
                // join means the coordinator has already closed it
                // without this worker: steal nothing and go back to
                // idling.
                if !inner.join_region(idx, epoch) {
                    continue;
                }
                seen_epoch = epoch;
                handle.begin();
            }
            if handle.steal_round() {
                idle.rounds = 0;
            } else {
                if idle.rounds == 0 {
                    // First empty-handed round after useful work: the
                    // start of an idle span on the exported timeline
                    // (closed by the next steal success).
                    probe!(handle, Idle, 0);
                }
                // Inside a region a thief never parks.
                idle.snooze();
            }
        } else {
            // Publish the report of the region this worker joined, once
            // the region has finished. A region it did not join gets no
            // report from it: the coordinator closed it out and waits
            // only for the workers that joined.
            let done = inner.completed.load(Acquire);
            if seen_epoch == done && wkr.report_epoch.load(Relaxed) != done {
                handle.publish_report(done);
            }
            // Park until a region this worker has not joined opens (its
            // root's first publication wakes the worker) or the pool
            // shuts down.
            idle.wait(&mut handle, || {
                inner.shutdown.load(SeqCst)
                    || (inner.active.load(SeqCst) && inner.epoch.load(SeqCst) != seen_epoch)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicUsize;

    fn fib(h: &mut WorkerHandle<WoolFull>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = h.fork(|h| fib(h, n - 1), |h| fib(h, n - 2));
        a + b
    }

    /// A region that background worker 1 must join: the root's call
    /// waits until the spawned branch has run on another worker, which
    /// then runs `fib(n)` there.
    fn region_joined_by_worker_1(pool: &mut Pool, n: u64) {
        let thief = AtomicUsize::new(0);
        pool.run(|h| {
            h.fork(
                |_| {
                    while thief.load(Acquire) == 0 {
                        crate::sync::thread::yield_now();
                    }
                },
                |h| {
                    thief.store(h.worker_index(), Release);
                    fib(h, n)
                },
            )
        });
        assert_eq!(thief.into_inner(), 1);
    }

    /// Closes the next region on background worker `idx` before it
    /// starts, as `Pool::run` does when the worker sleeps through a
    /// region: the worker cannot join that region.
    fn close_next_region(pool: &Pool, idx: usize) {
        let next = pool.inner.epoch.load(Relaxed) + 1;
        assert!(pool.inner.close_region(idx, next));
    }

    fn tiny_regions(workers: usize) {
        let mut pool: Pool = Pool::new(workers);
        for _ in 0..10_000 {
            assert_eq!(pool.run(|h| h.fork(|_| 1, |_| 2)), (1, 2));
            let r = pool.last_report().unwrap();
            assert_eq!(r.per_worker.len(), workers);
            assert_eq!(r.total.spawns, 1);
            assert_eq!(r.total.steals + r.total.leap_steals, r.total.stolen_joins);
        }
    }

    #[test]
    fn tiny_regions_on_two_workers() {
        tiny_regions(2);
    }

    #[test]
    fn tiny_regions_on_four_workers() {
        tiny_regions(4);
    }

    #[test]
    fn closed_out_worker_reports_nothing() {
        let mut pool: Pool = Pool::new(2);
        region_joined_by_worker_1(&mut pool, 0);
        let first = pool.last_report().unwrap();
        assert_eq!(first.per_worker[1].steals, 1);
        assert_eq!(first.total.stolen_joins, 1);

        close_next_region(&pool, 1);
        assert_eq!(pool.run(|h| h.fork(|_| 1, |_| 2)), (1, 2));
        let second = pool.last_report().unwrap();
        assert_eq!(second.per_worker[1], Stats::default());
        assert_eq!(second.total.spawns, 1);
        assert_eq!(second.total.stolen_joins, 0);
    }

    /// A breakdown trace holds only the kinds that open or close a
    /// Figure 6 category, in every build, and counts the steals as
    /// `Stats` does; every category it opens is closed.
    #[test]
    fn breakdown_trace_counts_the_steals() {
        use crate::trace::EventKind::{Leapfrog, Resume};
        let cfg = PoolConfig::with_workers(2).trace(TraceLevel::Breakdown);
        let mut pool: Pool = Pool::with_config(cfg);
        region_joined_by_worker_1(&mut pool, 18);
        let trace = pool.last_trace().expect("the pool records the breakdown");
        let total = pool.last_report().unwrap().total;
        assert_eq!(trace.dropped(), 0);
        assert!(trace.workers.iter().all(|w| w.window.0 < w.window.1));
        let mut events = trace.workers.iter().flat_map(|w| &w.events);
        assert!(events.all(|e| e.kind.is_breakdown()));
        assert!(total.steals >= 1);
        let counted = trace.stats();
        assert_eq!(counted.steals, total.steals);
        assert_eq!(counted.leap_steals, total.leap_steals);
        let opened = counted.total_steals() + trace.count(Leapfrog);
        assert_eq!(trace.count(Resume), opened);
    }

    /// A region that waits for a dead worker's report panics with the
    /// worker's index instead of hanging.
    #[test]
    #[should_panic(expected = "wool worker 1 died")]
    fn collecting_from_a_dead_worker_panics() {
        let inner = PoolInner::build(PoolConfig::with_workers(2).validated());
        // Worker 1 joined region 1 and died; worker 0 has reported.
        assert!(inner.join_region(1, 1));
        inner.workers[1].dead.store(true, Release);
        inner.workers[0].report_epoch.store(1, Release);
        inner.collect_reports(1, |i| i == 0 || !inner.close_region(i, 1), &mut Vec::new());
    }

    /// The coordinator takes no snapshot of a closed-out worker's ring,
    /// which still holds the previous region's events.
    #[cfg(feature = "trace")]
    #[test]
    fn closed_out_worker_contributes_no_trace() {
        use crate::trace::EventKind;
        let cfg = PoolConfig::with_workers(2)
            .trace(TraceLevel::All)
            .trace_capacity(1 << 16);
        let mut pool: Pool = Pool::with_config(cfg);
        region_joined_by_worker_1(&mut pool, 18);
        assert!(!pool.last_trace().unwrap().workers[1].events.is_empty());

        close_next_region(&pool, 1);
        pool.run(|h| h.fork(|_| 1, |_| 2));
        let trace = pool.last_trace().unwrap();
        assert!(trace.workers[1].events.is_empty());
        assert_eq!(
            trace.count(EventKind::Spawn),
            pool.last_report().unwrap().total.spawns
        );
    }
}
