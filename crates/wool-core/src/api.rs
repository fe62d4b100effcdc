//! Executor-agnostic fork-join interface.
//!
//! The paper compares four systems (Wool, Cilk++, TBB, OpenMP) running
//! *the same* benchmark programs. To reproduce that, the workloads in
//! the `workloads` crate are written once, generically, against the
//! [`Fork`] trait; each scheduler (every Wool strategy, the baseline
//! pools in `ws-baseline`, and a serial executor) provides an
//! implementation. The [`Executor`]/[`Job`] pair launches a root task on
//! a scheduler without naming its concrete context type.

use crate::exec::WorkerHandle;
use crate::pool::Pool;
use crate::strategy::Strategy;

/// A fork-join execution context: the capability task code uses to
/// express parallelism.
pub trait Fork: Sized {
    /// Runs `a` and `b`, potentially in parallel (the paper's
    /// `SPAWN b; CALL a; JOIN b`).
    fn fork<RA, RB, FA, FB>(&mut self, a: FA, b: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Self) -> RA + Send,
        FB: FnOnce(&mut Self) -> RB + Send,
        RA: Send,
        RB: Send;

    /// Spawns `body(i)` for each `i` in `0..n` as `n - 1` tasks plus one
    /// direct call, then joins them all — the paper's flat loop
    /// parallelization (one task per outer-loop iteration).
    fn for_each_spawn<F>(&mut self, n: usize, body: &F)
    where
        F: Fn(&mut Self, usize) + Sync;

    /// Index of the executing worker (0 on serial executors).
    fn worker_index(&self) -> usize {
        0
    }

    /// Degree of parallelism of the executor (1 on serial executors).
    fn num_workers(&self) -> usize {
        1
    }

    /// Scheduler hint from a data-parallel splitter: a range of `len`
    /// items is about to be forked in half. Tracing executors record
    /// it; the default is a no-op.
    fn note_split(&mut self, len: usize) {
        let _ = len;
    }
}

impl<S: Strategy> Fork for WorkerHandle<S> {
    #[inline(always)]
    fn fork<RA, RB, FA, FB>(&mut self, a: FA, b: FB) -> (RA, RB)
    where
        FA: FnOnce(&mut Self) -> RA + Send,
        FB: FnOnce(&mut Self) -> RB + Send,
        RA: Send,
        RB: Send,
    {
        WorkerHandle::fork(self, a, b)
    }

    #[inline(always)]
    fn for_each_spawn<F>(&mut self, n: usize, body: &F)
    where
        F: Fn(&mut Self, usize) + Sync,
    {
        WorkerHandle::for_each_spawn(self, n, body)
    }

    fn worker_index(&self) -> usize {
        WorkerHandle::worker_index(self)
    }

    fn num_workers(&self) -> usize {
        WorkerHandle::num_workers(self)
    }

    #[inline(always)]
    fn note_split(&mut self, len: usize) {
        WorkerHandle::note_split(self, len)
    }
}

/// A root task, written against any [`Fork`] context.
///
/// This indirection (instead of a closure) sidesteps higher-ranked
/// trait-bound inference: a job is a plain struct whose `call` is
/// generic over the context, so the same job value can be handed to any
/// executor.
pub trait Job<R>: Send {
    /// Runs the job.
    fn call<C: Fork>(self, ctx: &mut C) -> R;
}

/// Anything that can run a [`Job`] to completion.
pub trait Executor {
    /// Runs `job` as the root of a parallel region.
    fn run_job<R: Send, J: Job<R>>(&mut self, job: J) -> R;

    /// Number of workers.
    fn workers(&self) -> usize;

    /// Display name (paper series label).
    fn name(&self) -> String;
}

impl<S: Strategy> Executor for Pool<S> {
    fn run_job<R: Send, J: Job<R>>(&mut self, job: J) -> R {
        self.run(move |h| job.call(h))
    }

    fn workers(&self) -> usize {
        Pool::workers(self)
    }

    fn name(&self) -> String {
        format!("wool[{}]", S::NAME)
    }
}
