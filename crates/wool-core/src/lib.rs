//! # wool-core — the direct task stack work stealer
//!
//! A from-scratch Rust reproduction of the scheduler described in
//! Karl-Filip Faxén, *Efficient Work Stealing for Fine Grained
//! Parallelism* (ICPP 2010) — the **Wool** runtime and its **direct
//! task stack** algorithm.
//!
//! The library provides:
//!
//! * [`Pool`] — a work-stealing pool whose per-worker task pools are
//!   arrays of fixed-size task descriptors managed with strict stack
//!   discipline; thief/victim synchronization happens on the descriptor
//!   state word, not on the deque pointers (§III-A of the paper).
//! * [`WorkerHandle::fork`] — the `SPAWN/CALL/JOIN` primitive with a
//!   task-specific (monomorphized) join whose inlined fast path costs a
//!   handful of cycles; with private tasks (§III-B) most joins execute
//!   no atomic instruction at all.
//! * Leap-frogging for joins whose task was stolen.
//! * The complete ablation ladder of the paper as compile-time
//!   [`strategy`] types (Table II join variants, Figure 4 steal
//!   variants), all fully monomorphized.
//! * Instrumentation: scheduler event counters ([`Stats`]), online
//!   work/span measurement with the paper's 0-cycle and 2000-cycle
//!   overhead models ([`span`]), and the Figure 6 CPU-time breakdown
//!   ([`timebreak`]).
//!
//! ## Quick start
//!
//! ```
//! use wool_core::{Pool, WorkerHandle, WoolFull};
//!
//! fn fib(h: &mut WorkerHandle<WoolFull>, n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let (a, b) = h.fork(|h| fib(h, n - 1), |h| fib(h, n - 2));
//!     a + b
//! }
//!
//! let mut pool: Pool = Pool::new(2);
//! let r = pool.run(|h| fib(h, 20));
//! assert_eq!(r, 6765);
//! ```

#![warn(missing_docs)]

/// Records a scheduler event into the calling worker's trace ring.
///
/// `$h` is anything with an `own()` accessor to the worker's
/// [`worker::OwnerState`] (in practice a `WorkerHandle`). Expands to
/// nothing without the `trace` cargo feature, so instrumented hot paths
/// compile to exactly the uninstrumented code. With the feature on but
/// tracing not enabled for the run, the cost is one branch — the
/// timestamp is only read when the ring is live.
///
/// Callers must satisfy the `own()` contract (owner thread, short-lived
/// borrow); every use site is inside code already operating under it.
#[cfg(feature = "trace")]
macro_rules! trace_ev {
    ($h:expr, $kind:ident, $arg:expr) => {{
        let own = $h.own();
        if own.trace.is_enabled() {
            let ts = $crate::cycles::now();
            own.trace
                .record(::wool_trace::EventKind::$kind, ts, ($arg) as u32);
        }
    }};
}

#[cfg(not(feature = "trace"))]
macro_rules! trace_ev {
    ($h:expr, $kind:ident, $arg:expr) => {};
}

mod api;
pub mod config;
pub mod cycles;
mod exec;
pub mod injector;
mod pad;
mod pool;
pub mod serve;
pub mod slot;
pub mod span;
pub mod spinlock;
mod stats;
pub mod strategy;
pub mod sync;
pub mod timebreak;
mod worker;

#[cfg(feature = "trace")]
pub use wool_trace;

pub use api::{Executor, Fork, Job};
pub use config::PoolConfig;
pub use exec::WorkerHandle;
pub use injector::{Injector, Runnable};
pub use pool::{Pool, RunReport};
pub use serve::{ServeEngine, ServeReport};
pub use stats::Stats;
pub use strategy::{
    LockedBase, StealLockBase, StealLockPeek, StealLockTrylock, Strategy, SyncOnTask, TaskSpecific,
    WoolAllPublic, WoolFull, WoolNoLeap,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn fib_ref(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib_ref(n - 1) + fib_ref(n - 2)
        }
    }

    fn fib<S: Strategy>(h: &mut WorkerHandle<S>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = h.fork(|h| fib(h, n - 1), |h| fib(h, n - 2));
        a + b
    }

    fn check_fib<S: Strategy>(workers: usize, n: u64) {
        let mut pool: Pool<S> = Pool::new(workers);
        let r = pool.run(|h| fib(h, n));
        assert_eq!(r, fib_ref(n), "strategy {} x{}", S::NAME, workers);
    }

    #[test]
    fn fib_single_worker_all_strategies() {
        check_fib::<WoolFull>(1, 18);
        check_fib::<TaskSpecific>(1, 18);
        check_fib::<SyncOnTask>(1, 18);
        check_fib::<LockedBase>(1, 18);
        check_fib::<StealLockBase>(1, 18);
        check_fib::<StealLockPeek>(1, 18);
        check_fib::<StealLockTrylock>(1, 18);
    }

    #[test]
    fn fib_multi_worker_all_strategies() {
        check_fib::<WoolFull>(4, 20);
        check_fib::<TaskSpecific>(4, 20);
        check_fib::<SyncOnTask>(4, 20);
        check_fib::<LockedBase>(4, 20);
        check_fib::<StealLockBase>(4, 20);
        check_fib::<StealLockPeek>(4, 20);
        check_fib::<StealLockTrylock>(4, 20);
    }

    #[test]
    fn repeated_regions_reuse_pool() {
        let mut pool: Pool = Pool::new(3);
        for rep in 0..50 {
            let r = pool.run(|h| fib(h, 12));
            assert_eq!(r, 144, "rep {rep}");
        }
    }

    #[test]
    fn for_each_spawn_covers_every_index() {
        use crate::sync::atomic::{AtomicU64, Ordering};
        let mut pool: Pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool.run(|h| {
            h.for_each_spawn(100, &|_h, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn stats_count_spawns() {
        let mut pool: Pool = Pool::new(1);
        pool.run(|h| fib(h, 15));
        let report = pool.last_report().unwrap();
        // fib(15) spawns one task per internal call-tree node.
        assert!(
            report.total.spawns > 500,
            "spawns = {}",
            report.total.spawns
        );
        // Single worker: every join is inlined, never stolen.
        assert_eq!(report.total.steals, 0);
        assert_eq!(report.total.stolen_joins, 0);
    }

    #[test]
    fn private_tasks_dominate_on_single_worker() {
        let mut pool: Pool<WoolFull> = Pool::new(1);
        pool.run(|h| fib(h, 15));
        let report = pool.last_report().unwrap();
        // With no thieves, nothing is ever published: all joins private.
        assert_eq!(report.total.inlined_public, 0);
        assert!(report.total.inlined_private > 500);
    }

    #[test]
    fn all_public_rung_uses_public_joins() {
        let mut pool: Pool<WoolAllPublic> = Pool::new(1);
        pool.run(|h| fib(h, 15));
        let report = pool.last_report().unwrap();
        assert_eq!(report.total.inlined_private, 0);
        assert!(report.total.inlined_public > 500);
    }

    #[test]
    fn multi_worker_sees_steals() {
        // Deterministic even on a uniprocessor: the CALL branch keeps
        // doing task work (so the owner services trip-wire publication
        // requests) until the spawned branch has been executed — which
        // can only happen on a thief.
        use crate::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let mut pool: Pool = Pool::new(4);
        let started = AtomicBool::new(false);
        pool.run(|h| {
            let ((), ()) = h.fork(
                |h| {
                    let t0 = Instant::now();
                    while !started.load(Ordering::Acquire) {
                        // Keep spawning/joining: every operation checks
                        // the publish-request flag (§III-B).
                        std::hint::black_box(fib(h, 8));
                        if t0.elapsed() > Duration::from_secs(30) {
                            panic!("spawned branch was never stolen");
                        }
                        crate::sync::thread::yield_now();
                    }
                },
                |_| started.store(true, Ordering::Release),
            );
        });
        let t = pool.last_report().unwrap().total;
        assert!(t.total_steals() >= 1, "{t:?}");
        assert!(
            t.publishes >= 1,
            "steal must have required publication: {t:?}"
        );
    }

    #[test]
    fn span_instrumentation_measures_parallelism() {
        let cfg = PoolConfig::with_workers(2).instrument_span(true);
        let mut pool: Pool = Pool::with_config(cfg);
        pool.run(|h| fib(h, 20));
        let report = pool.last_report().unwrap();
        assert!(report.work > 0);
        assert!(report.span0 > 0);
        assert!(report.span0 <= report.span_c, "c-model span is larger");
        let par = report.parallelism0();
        assert!(par > 1.5, "fib(20) should show parallelism, got {par}");
    }

    #[test]
    fn panic_in_inline_task_propagates() {
        let mut pool: Pool = Pool::new(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|h| {
                let ((), ()) = h.fork(|_| {}, |_| panic!("task panic"));
            })
        }));
        assert!(r.is_err());
        // Pool remains usable afterwards.
        let v = pool.run(|h| fib(h, 10));
        assert_eq!(v, 55);
    }

    #[test]
    fn panic_in_call_branch_joins_pending_task() {
        use crate::sync::atomic::{AtomicBool, Ordering};
        let ran = AtomicBool::new(false);
        let mut pool: Pool = Pool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|h| {
                let ((), ()) = h.fork(
                    |_| panic!("call branch panics"),
                    |_| {
                        ran.store(true, Ordering::Relaxed);
                    },
                );
            })
        }));
        assert!(r.is_err());
        // The spawned task was joined (and therefore ran) before unwind.
        assert!(ran.load(Ordering::Relaxed));
        assert_eq!(pool.run(|h| fib(h, 10)), 55);
    }

    #[test]
    fn overflow_falls_back_to_eager_execution() {
        let cfg = PoolConfig::with_workers(1).stack_capacity(16);
        let mut pool: Pool = Pool::with_config(cfg);
        // Recursion depth far beyond 16 pending tasks.
        let r = pool.run(|h| fib(h, 22));
        assert_eq!(r, fib_ref(22));
        let report = pool.last_report().unwrap();
        assert!(report.total.overflow_inlines > 0);
    }

    #[test]
    fn deep_linear_spawn_chain() {
        // A right-leaning chain: each fork's spawned branch is trivial.
        fn chain<S: Strategy>(h: &mut WorkerHandle<S>, n: u64) -> u64 {
            if n == 0 {
                return 0;
            }
            let (rest, one) = h.fork(|h| chain(h, n - 1), |_| 1u64);
            rest + one
        }
        let mut pool: Pool = Pool::new(2);
        let r = pool.run(|h| chain(h, 2000));
        assert_eq!(r, 2000);
    }

    #[test]
    fn results_larger_than_inline_storage() {
        // Results bigger than the 64-byte inline area use the boxed path.
        let mut pool: Pool = Pool::new(2);
        let (a, b) = pool.run(|h| h.fork(|_| [1u64; 16], |_| [2u64; 16]));
        assert_eq!(a, [1u64; 16]);
        assert_eq!(b, [2u64; 16]);
    }

    #[test]
    fn nested_for_each() {
        use crate::sync::atomic::{AtomicU64, Ordering};
        let mut pool: Pool = Pool::new(3);
        let grid: Vec<Vec<AtomicU64>> = (0..8)
            .map(|_| (0..8).map(|_| AtomicU64::new(0)).collect())
            .collect();
        pool.run(|h| {
            h.for_each_spawn(8, &|h, i| {
                h.for_each_spawn(8, &|_h, j| {
                    grid[i][j].fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        for row in &grid {
            for cell in row {
                assert_eq!(cell.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    fn executor_trait_runs_jobs() {
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
        let mut pool: Pool = Pool::new(2);
        assert_eq!(pool.run_job(FibJob(17)), 1597);
        assert_eq!(Executor::workers(&pool), 2);
        assert!(Executor::name(&pool).contains("wool"));
    }

    #[test]
    fn backoff_ratio_stays_low() {
        let mut pool: Pool<TaskSpecific> = Pool::new(4);
        for _ in 0..20 {
            pool.run(|h| fib(h, 18));
        }
        let report = pool.last_report().unwrap();
        // §III-A: "These back offs are infrequent, always below 1% of
        // successful steals." Allow slack for tiny steal counts.
        if report.total.total_steals() > 100 {
            assert!(
                report.total.backoff_ratio() < 0.05,
                "backoff ratio {}",
                report.total.backoff_ratio()
            );
        }
    }
}
