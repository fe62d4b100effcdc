//! A closed enum over every scheduler in the repository.
//!
//! `Executor::run_job` is generic, so trait objects cannot dispatch it;
//! the benches instead enumerate the systems here. `SystemKind` also
//! carries the paper's display names so table rows match the original
//! exhibits ("Wool", "Cilk++", "TBB", "OpenMP" become our honest
//! "wool", "cilk-like", "tbb-like", "omp-like").

use wool_core::{
    Executor, Job, LockedBase, Pool, PoolConfig, Stats, StealLockBase, StealLockPeek,
    StealLockTrylock, SyncOnTask, TaskSpecific, WoolAllPublic, WoolFull, WoolNoLeap,
};
use ws_baseline::{
    cilk_like, omp_like, tbb_like, CilkLikePool, OmpLikePool, SerialExecutor, TbbLikePool,
};

/// Which scheduler to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Full Wool: direct task stack + task-specific join + private tasks.
    Wool,
    /// Full Wool with every task published at its spawn (Table II
    /// "private tasks (no private)").
    WoolAllPublic,
    /// Wool without private tasks (Table II "task specific join",
    /// Figure 4 "nolock").
    WoolTaskSpecific,
    /// Wool without task-specific join (Table II "synchronize on task").
    WoolSyncOnTask,
    /// Table II "base": per-worker locks, shared top.
    WoolLockedBase,
    /// Figure 4 "base": lock-immediately stealing.
    WoolStealLockBase,
    /// Figure 4 "peek".
    WoolStealLockPeek,
    /// Figure 4 "trylock".
    WoolStealLockTrylock,
    /// Wool with plain waiting instead of leap-frogging (ablation).
    WoolNoLeapfrog,
    /// TBB stand-in: Chase–Lev pointer deque, heap task objects.
    TbbLike,
    /// Cilk++ stand-in: locked deques, heap task objects.
    CilkLike,
    /// icc OpenMP stand-in: locked deques plus a global steal lock.
    OmpLike,
    /// Sequential execution with zero task overhead (T_S).
    Serial,
}

impl SystemKind {
    /// Every system, in declaration order.
    pub const ALL: [SystemKind; 13] = [
        SystemKind::Wool,
        SystemKind::WoolAllPublic,
        SystemKind::WoolTaskSpecific,
        SystemKind::WoolSyncOnTask,
        SystemKind::WoolLockedBase,
        SystemKind::WoolStealLockBase,
        SystemKind::WoolStealLockPeek,
        SystemKind::WoolStealLockTrylock,
        SystemKind::WoolNoLeapfrog,
        SystemKind::TbbLike,
        SystemKind::CilkLike,
        SystemKind::OmpLike,
        SystemKind::Serial,
    ];

    /// The four systems of the paper's headline comparisons
    /// (Figures 1 and 5, Table III).
    pub const PAPER_SYSTEMS: [SystemKind; 4] = [
        SystemKind::Wool,
        SystemKind::CilkLike,
        SystemKind::TbbLike,
        SystemKind::OmpLike,
    ];

    /// The Figure 4 steal-implementation ladder.
    pub const FIG4_LADDER: [SystemKind; 4] = [
        SystemKind::WoolStealLockBase,
        SystemKind::WoolStealLockPeek,
        SystemKind::WoolStealLockTrylock,
        SystemKind::WoolTaskSpecific, // "nolock"
    ];

    /// Display name (table row / plot series label).
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Wool => "wool",
            SystemKind::WoolAllPublic => "wool/all-public",
            SystemKind::WoolTaskSpecific => "wool/task-specific",
            SystemKind::WoolSyncOnTask => "wool/sync-on-task",
            SystemKind::WoolLockedBase => "wool/base",
            SystemKind::WoolStealLockBase => "steal:base",
            SystemKind::WoolStealLockPeek => "steal:peek",
            SystemKind::WoolStealLockTrylock => "steal:trylock",
            SystemKind::WoolNoLeapfrog => "wool/no-leapfrog",
            SystemKind::TbbLike => "tbb-like",
            SystemKind::CilkLike => "cilk-like",
            SystemKind::OmpLike => "omp-like",
            SystemKind::Serial => "serial",
        }
    }
}

/// An instantiated scheduler.
pub enum System {
    /// See [`SystemKind::Wool`].
    Wool(Pool<WoolFull>),
    /// See [`SystemKind::WoolAllPublic`].
    WoolAllPublic(Pool<WoolAllPublic>),
    /// See [`SystemKind::WoolTaskSpecific`].
    WoolTaskSpecific(Pool<TaskSpecific>),
    /// See [`SystemKind::WoolSyncOnTask`].
    WoolSyncOnTask(Pool<SyncOnTask>),
    /// See [`SystemKind::WoolLockedBase`].
    WoolLockedBase(Pool<LockedBase>),
    /// See [`SystemKind::WoolStealLockBase`].
    WoolStealLockBase(Pool<StealLockBase>),
    /// See [`SystemKind::WoolStealLockPeek`].
    WoolStealLockPeek(Pool<StealLockPeek>),
    /// See [`SystemKind::WoolStealLockTrylock`].
    WoolStealLockTrylock(Pool<StealLockTrylock>),
    /// See [`SystemKind::WoolNoLeapfrog`].
    WoolNoLeapfrog(Pool<WoolNoLeap>),
    /// See [`SystemKind::TbbLike`].
    TbbLike(TbbLikePool),
    /// See [`SystemKind::CilkLike`].
    CilkLike(CilkLikePool),
    /// See [`SystemKind::OmpLike`].
    OmpLike(OmpLikePool),
    /// See [`SystemKind::Serial`].
    Serial(SerialExecutor),
}

impl System {
    /// Instantiates `kind` with `workers` workers.
    pub fn create(kind: SystemKind, workers: usize) -> System {
        Self::create_with(kind, PoolConfig::with_workers(workers))
    }

    /// Instantiates `kind` with an explicit Wool pool configuration
    /// (baselines only honor `cfg.workers`).
    pub fn create_with(kind: SystemKind, cfg: PoolConfig) -> System {
        let w = cfg.workers;
        match kind {
            SystemKind::Wool => System::Wool(Pool::with_config(cfg)),
            SystemKind::WoolAllPublic => System::WoolAllPublic(Pool::with_config(cfg)),
            SystemKind::WoolTaskSpecific => System::WoolTaskSpecific(Pool::with_config(cfg)),
            SystemKind::WoolSyncOnTask => System::WoolSyncOnTask(Pool::with_config(cfg)),
            SystemKind::WoolLockedBase => System::WoolLockedBase(Pool::with_config(cfg)),
            SystemKind::WoolStealLockBase => System::WoolStealLockBase(Pool::with_config(cfg)),
            SystemKind::WoolStealLockPeek => System::WoolStealLockPeek(Pool::with_config(cfg)),
            SystemKind::WoolStealLockTrylock => {
                System::WoolStealLockTrylock(Pool::with_config(cfg))
            }
            SystemKind::WoolNoLeapfrog => System::WoolNoLeapfrog(Pool::with_config(cfg)),
            SystemKind::TbbLike => System::TbbLike(tbb_like(w)),
            SystemKind::CilkLike => System::CilkLike(cilk_like(w)),
            SystemKind::OmpLike => System::OmpLike(omp_like(w)),
            SystemKind::Serial => System::Serial(SerialExecutor::new()),
        }
    }

    /// The kind this system was created as.
    pub fn kind(&self) -> SystemKind {
        match self {
            System::Wool(_) => SystemKind::Wool,
            System::WoolAllPublic(_) => SystemKind::WoolAllPublic,
            System::WoolTaskSpecific(_) => SystemKind::WoolTaskSpecific,
            System::WoolSyncOnTask(_) => SystemKind::WoolSyncOnTask,
            System::WoolLockedBase(_) => SystemKind::WoolLockedBase,
            System::WoolStealLockBase(_) => SystemKind::WoolStealLockBase,
            System::WoolStealLockPeek(_) => SystemKind::WoolStealLockPeek,
            System::WoolStealLockTrylock(_) => SystemKind::WoolStealLockTrylock,
            System::WoolNoLeapfrog(_) => SystemKind::WoolNoLeapfrog,
            System::TbbLike(_) => SystemKind::TbbLike,
            System::CilkLike(_) => SystemKind::CilkLike,
            System::OmpLike(_) => SystemKind::OmpLike,
            System::Serial(_) => SystemKind::Serial,
        }
    }

    /// Runs a job to completion.
    pub fn run_job<R: Send, J: Job<R>>(&mut self, job: J) -> R {
        match self {
            System::Wool(p) => p.run_job(job),
            System::WoolAllPublic(p) => p.run_job(job),
            System::WoolTaskSpecific(p) => p.run_job(job),
            System::WoolSyncOnTask(p) => p.run_job(job),
            System::WoolLockedBase(p) => p.run_job(job),
            System::WoolStealLockBase(p) => p.run_job(job),
            System::WoolStealLockPeek(p) => p.run_job(job),
            System::WoolStealLockTrylock(p) => p.run_job(job),
            System::WoolNoLeapfrog(p) => p.run_job(job),
            System::TbbLike(p) => p.run_job(job),
            System::CilkLike(p) => p.run_job(job),
            System::OmpLike(p) => p.run_job(job),
            System::Serial(e) => e.run_job(job),
        }
    }

    /// Scheduler statistics for the most recent run (Wool pools) or
    /// since the last reset (baselines). Serial returns zeros.
    pub fn last_stats(&self) -> Stats {
        match self {
            System::TbbLike(p) => p.stats(),
            System::CilkLike(p) => p.stats(),
            System::OmpLike(p) => p.stats(),
            _ => self.last_report().map(|r| r.total).unwrap_or_default(),
        }
    }

    /// Full run report, if this is a Wool pool (per-worker statistics
    /// and the region's wall time).
    pub fn last_report(&self) -> Option<&wool_core::RunReport> {
        match self {
            System::Wool(p) => p.last_report(),
            System::WoolAllPublic(p) => p.last_report(),
            System::WoolTaskSpecific(p) => p.last_report(),
            System::WoolSyncOnTask(p) => p.last_report(),
            System::WoolLockedBase(p) => p.last_report(),
            System::WoolStealLockBase(p) => p.last_report(),
            System::WoolStealLockPeek(p) => p.last_report(),
            System::WoolStealLockTrylock(p) => p.last_report(),
            System::WoolNoLeapfrog(p) => p.last_report(),
            _ => None,
        }
    }

    /// Resets the baselines' cumulative counters (no-op on Wool pools,
    /// whose reports are per-run already).
    pub fn reset_stats(&mut self) {
        match self {
            System::TbbLike(p) => p.reset_stats(),
            System::CilkLike(p) => p.reset_stats(),
            System::OmpLike(p) => p.reset_stats(),
            _ => {}
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wool_core::Fork;

    struct FibJob(u64);
    impl Job<u64> for FibJob {
        fn call<C: Fork>(self, ctx: &mut C) -> u64 {
            fn go<C: Fork>(c: &mut C, n: u64) -> u64 {
                if n < 2 {
                    return n;
                }
                let (a, b) = c.fork(|c| go(c, n - 1), |c| go(c, n - 2));
                a + b
            }
            go(ctx, self.0)
        }
    }

    #[test]
    fn every_system_computes_fib() {
        for kind in SystemKind::ALL {
            let mut s = System::create(kind, 2);
            assert_eq!(s.run_job(FibJob(16)), 987, "{}", s.name());
            assert_eq!(s.kind(), kind);
        }
    }

    #[test]
    fn wool_stats_available_after_run() {
        let mut s = System::create(SystemKind::Wool, 2);
        s.run_job(FibJob(15));
        assert!(s.last_stats().spawns > 500);
        assert!(s.last_report().is_some());
    }

    #[test]
    fn baseline_stats_reset() {
        let mut s = System::create(SystemKind::TbbLike, 1);
        s.run_job(FibJob(12));
        assert!(s.last_stats().spawns > 0);
        s.reset_stats();
        assert_eq!(s.last_stats().spawns, 0);
    }

    #[test]
    fn names_are_distinct() {
        use std::collections::HashSet;
        let names: HashSet<_> = SystemKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), SystemKind::ALL.len());
    }
}
