//! Model-checking harness (`--cfg loom` only): runs the production
//! spawn/join/steal code of `exec.rs` inside `wool-loom` models.
//!
//! [`ModelPool`] builds the same shared state as [`crate::Pool`] but
//! starts no threads. The model's main thread acts as worker 0 through
//! [`ModelPool::run`], which opens the region exactly as `Pool::run`
//! does, and each [`Thief`] lends a model thread one worker whose only
//! operation is the real `try_steal_from` against worker 0. Everything a
//! stolen task does on its thief — nested forks, joins, leap-frogging —
//! is the shipped code too. The region claim is modeled the same way:
//! [`ModelPool::close`] and [`Thief::join`] are `Pool::run`'s close and
//! `background_loop`'s join. The models live in `crates/wool-verify`.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::config::PoolConfig;
use crate::exec::{StealOutcome, WorkerHandle};
use crate::pool::PoolInner;
use crate::stats::Stats;
use crate::strategy::Strategy;

/// A thread-less pool: worker 0 is the caller of [`run`](Self::run),
/// workers `1..` are the [`Thief`] handles returned by [`new`](Self::new).
pub struct ModelPool<S: Strategy> {
    inner: Arc<PoolInner>,
    _strategy: PhantomData<S>,
}

/// A worker lent to one model thread; it can only steal from worker 0.
pub struct Thief<S: Strategy> {
    inner: Arc<PoolInner>,
    idx: usize,
    /// Counters of the steals so far: each steal's handle counts its
    /// own.
    stats: Stats,
    _strategy: PhantomData<S>,
}

impl<S: Strategy> ModelPool<S> {
    /// A pool of `workers` workers with `capacity` task descriptors each
    /// and the default configuration otherwise. Unlike a real pool the
    /// capacity is not raised to the usual minimum, so a model can force
    /// task-stack overflow with a handful of spawns.
    pub fn new(workers: usize, capacity: usize) -> (Self, Vec<Thief<S>>) {
        let mut cfg = PoolConfig::with_workers(workers).validated();
        cfg.stack_capacity = capacity;
        let inner = PoolInner::build(cfg);
        let thieves = (1..workers)
            .map(|idx| Thief {
                inner: Arc::clone(&inner),
                idx,
                stats: Stats::default(),
                _strategy: PhantomData,
            })
            .collect();
        let pool = ModelPool {
            inner,
            _strategy: PhantomData,
        };
        (pool, thieves)
    }

    /// Runs `f` as worker 0's root task between the region start and
    /// end of `Pool::run` (`PoolInner::begin_root`: the trip wire is
    /// armed when there is a thief; `WorkerHandle::publish_report`). A
    /// pool models one region.
    pub fn run<R>(&mut self, f: impl FnOnce(&mut WorkerHandle<S>) -> R) -> R {
        // SAFETY: `&mut self` makes this the only thread acting as
        // worker 0, and the thieves never act as it; the handle does not
        // outlive `self.inner`.
        let mut h = unsafe { self.inner.begin_root() };
        let r = f(&mut h);
        h.publish_report(1);
        r
    }

    /// `Pool::run`'s region-exit close of region `epoch` on background
    /// worker `idx`: true when the worker had not joined it.
    pub fn close(&self, idx: usize, epoch: u64) -> bool {
        self.inner.close_region(idx, epoch)
    }

    /// Background worker `idx`'s region claim word (the joined epoch,
    /// or a closed epoch with its tag bit).
    pub fn claim_word(&self, idx: usize) -> u64 {
        self.inner.workers[idx]
            .joined
            .load(crate::sync::atomic::Ordering::Acquire)
    }
}

impl<S: Strategy> Thief<S> {
    /// One real steal attempt against worker 0; true when a task was
    /// stolen and run to completion.
    pub fn steal(&mut self) -> bool {
        // SAFETY: `Thief` is not `Clone` and `&mut self` pins it to one
        // thread at a time, so this is the unique thread acting as
        // worker `idx`; the handle does not outlive `self.inner`.
        unsafe {
            let mut h = WorkerHandle::<S>::new(&self.inner, self.idx);
            let stole = h.try_steal_from(0, false) == StealOutcome::Executed;
            self.stats += h.stats;
            stole
        }
    }

    /// `background_loop`'s join of region `epoch`: true when this
    /// worker joined it, false when the coordinator had closed it.
    pub fn join(&self, epoch: u64) -> bool {
        self.inner.join_region(self.idx, epoch)
    }

    /// This worker's counters so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }
}

/// The counters of the worker `h` belongs to, so far.
pub fn stats<S: Strategy>(h: &WorkerHandle<S>) -> Stats {
    h.stats
}

/// Raises worker `h`'s publication request, as a thief's privacy miss
/// does, so its next spawn publishes.
pub fn request_publication<S: Strategy>(h: &WorkerHandle<S>) {
    h.wkr()
        .publish_request
        .store(true, crate::sync::atomic::Ordering::Relaxed);
}
