//! Scheduler invariants under sustained multi-threaded stress.

use wool_core::{
    LockedBase, Pool, PoolConfig, ServePool, StealLockBase, StealLockPeek, StealLockTrylock,
    Strategy, SyncOnTask, TaskSpecific, WoolAllPublic, WoolFull, WoolNoLeap, WorkerHandle,
};
use workloads::fib as wfib;

fn fib<S: Strategy>(h: &mut WorkerHandle<S>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = h.fork(|h| fib(h, n - 1), |h| fib(h, n - 2));
    a + b
}

/// Every spawn is matched by exactly one join of some kind.
#[test]
fn spawns_equal_joins() {
    let mut pool: Pool = Pool::new(4);
    for _ in 0..10 {
        pool.run(|h| fib(h, 20));
        let t = pool.last_report().unwrap().total;
        let joins =
            t.inlined_private + t.inlined_public + t.stolen_joins + (t.rts_joins - t.stolen_joins); // reacquired-task joins
        assert_eq!(t.spawns, joins, "{t:?}");
    }
}

/// `Stats::spawns` is derived from the join counters when the report is
/// made, not counted at the spawn. Check that it still counts every
/// pushed task exactly, on every strategy rung, at p=1 and p=2, for both
/// `fork` and `for_each_spawn`, and on a two-worker serve pool, whose
/// workers report once, at shutdown. A one-worker region must also
/// never publish: the region-start trip wire is armed only when there
/// is a thief.
#[test]
fn spawn_counts_are_exact_on_every_rung() {
    fn check<S: Strategy>() {
        const N: u64 = 18;
        const WIDTH: u64 = 64;
        for workers in [1, 2] {
            let mut pool: Pool<S> = Pool::new(workers);
            let r = pool.run(|h| wfib::fib(h, N));
            assert_eq!(r, wfib::fib_serial(N));
            let t = pool.last_report().unwrap().total;
            let label = format!("{} p={workers}: {t:?}", S::NAME);
            assert_eq!(
                t.spawns,
                t.inlined_private + t.inlined_public + t.rts_joins,
                "{label}"
            );
            assert_eq!(t.spawns, wfib::fib_spawn_count(N), "{label}");
            if workers == 1 {
                // No thief, so nothing may ever be published.
                assert_eq!(t.publishes, 0, "{label}");
            }

            // `WIDTH - 1` pushed iterations, each forking a small fib.
            pool.run(|h| {
                h.for_each_spawn(WIDTH as usize, &|h, i| {
                    std::hint::black_box(wfib::fib(h, i as u64 % 10));
                })
            });
            let t = pool.last_report().unwrap().total;
            let expect = (WIDTH - 1)
                + (0..WIDTH)
                    .map(|i| wfib::fib_spawn_count(i % 10))
                    .sum::<u64>();
            assert_eq!(
                t.spawns,
                expect,
                "for_each_spawn on {} p={workers}: {t:?}",
                S::NAME
            );
            assert_eq!(t.spawns, t.inlined_private + t.inlined_public + t.rts_joins);
            if workers == 1 {
                assert_eq!(t.publishes, 0, "for_each_spawn on {} p=1: {t:?}", S::NAME);
            }
        }

        const JOBS: u64 = 64;
        const JOB_N: u64 = 12;
        let serve: ServePool<S> = ServePool::with_config(PoolConfig::with_workers(2));
        let handles: Vec<_> = (0..JOBS)
            .map(|_| serve.submit(|h| wfib::fib(h, JOB_N)).unwrap())
            .collect();
        for handle in handles {
            assert_eq!(handle.join(), wfib::fib_serial(JOB_N));
        }
        let t = serve.shutdown().unwrap().total;
        let label = format!("serve on {}: {t:?}", S::NAME);
        assert_eq!(t.spawns, JOBS * wfib::fib_spawn_count(JOB_N), "{label}");
        assert_eq!(
            t.spawns,
            t.inlined_private + t.inlined_public + t.rts_joins,
            "{label}"
        );
    }
    check::<WoolFull>();
    check::<WoolAllPublic>();
    check::<WoolNoLeap>();
    check::<TaskSpecific>();
    check::<SyncOnTask>();
    check::<LockedBase>();
    check::<StealLockBase>();
    check::<StealLockPeek>();
    check::<StealLockTrylock>();
}

/// Every steal is eventually matched by a stolen join (same region).
#[test]
fn steals_equal_stolen_joins() {
    let mut pool: Pool = Pool::new(4);
    for _ in 0..20 {
        pool.run(|h| fib(h, 22));
        let t = pool.last_report().unwrap().total;
        assert_eq!(
            t.total_steals(),
            t.stolen_joins,
            "each stolen task is joined exactly once: {t:?}"
        );
    }
}

/// The paper's §III-A claim: back-offs stay rare relative to steals.
#[test]
fn backoffs_stay_rare() {
    let mut pool: Pool = Pool::new(4);
    let mut steals = 0;
    let mut backoffs = 0;
    for _ in 0..40 {
        pool.run(|h| fib(h, 22));
        let t = pool.last_report().unwrap().total;
        steals += t.total_steals();
        backoffs += t.backoffs;
    }
    if steals > 100 {
        let ratio = backoffs as f64 / steals as f64;
        assert!(ratio < 0.05, "backoff ratio {ratio} ({backoffs}/{steals})");
    }
}

/// Mixed fork + for_each under concurrency, repeated to shake races.
#[test]
fn mixed_primitives_stress() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut pool: Pool = Pool::new(4);
    for round in 0..30 {
        let total = AtomicU64::new(0);
        pool.run(|h| {
            h.for_each_spawn(16, &|h, i| {
                let (a, b) = h.fork(
                    |h| fib(h, 10 + (i as u64 % 3)),
                    |h| {
                        let mut acc = 0;
                        h.for_each_spawn(4, &|_h, j| {
                            std::hint::black_box(j);
                        });
                        acc += i as u64;
                        acc
                    },
                );
                total.fetch_add(a + b, Ordering::Relaxed);
            });
        });
        let got = total.load(Ordering::Relaxed);
        let expect: u64 = (0..16u64)
            .map(|i| {
                let f = match i % 3 {
                    0 => 55,
                    1 => 89,
                    _ => 144,
                };
                f + i
            })
            .sum();
        assert_eq!(got, expect, "round {round}");
    }
}

/// Pools of every strategy survive panics under concurrency.
#[test]
fn panic_under_concurrency() {
    fn check<S: Strategy>() {
        let mut pool: Pool<S> = Pool::new(3);
        for _ in 0..10 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|h| {
                    let ((), v) = h.fork(
                        |h| {
                            // Some real work on the non-panicking side.
                            std::hint::black_box(fib(h, 12));
                        },
                        |_| -> u64 { panic!("injected") },
                    );
                    v
                })
            }));
            assert!(r.is_err());
            assert_eq!(pool.run(|h| fib(h, 10)), 55);
        }
    }
    check::<wool_core::WoolFull>();
    check::<wool_core::TaskSpecific>();
    check::<wool_core::LockedBase>();
}

/// Unwinding joins every pending task, on every strategy rung at p=1
/// and p=2, in two shapes: a `for_each_spawn` whose direct `body(0)`
/// panics with `n - 1` iterations pending, and a `fork` whose call
/// branch panics two levels down, with a spawned branch pending at each
/// level. Each pending task runs exactly once, the payload reaches
/// `run`'s caller, and the next region on the same pool is correct.
#[test]
fn unwinding_joins_every_pending_task_on_every_rung() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    fn payload(r: std::thread::Result<()>) -> &'static str {
        let err = r.expect_err("the region must unwind");
        err.downcast_ref::<&'static str>()
            .copied()
            .expect("a &str payload")
    }

    fn check<S: Strategy>() {
        const N: usize = 32;
        for workers in [1, 2] {
            let mut pool: Pool<S> = Pool::new(workers);
            let label = format!("{} p={workers}", S::NAME);

            let runs: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.run(|h| {
                    h.for_each_spawn(N, &|h, i| {
                        if i == 0 {
                            panic!("body(0) panics");
                        }
                        std::hint::black_box(fib(h, 8));
                        runs[i].fetch_add(1, Relaxed);
                    })
                })
            }));
            assert_eq!(payload(r), "body(0) panics", "{label}");
            for (i, n) in runs.iter().enumerate().skip(1) {
                assert_eq!(n.load(Relaxed), 1, "{label}: iteration {i}");
            }
            assert_eq!(pool.run(|h| fib(h, 20)), 6765, "{label}");

            let runs = [AtomicUsize::new(0), AtomicUsize::new(0)];
            let spawned = |h: &mut WorkerHandle<S>, level: usize| {
                std::hint::black_box(fib(h, 8));
                runs[level].fetch_add(1, Relaxed);
            };
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.run(|h| {
                    h.fork(
                        |h| {
                            h.fork(
                                |h| {
                                    std::hint::black_box(fib(h, 8));
                                    panic!("call branch panics")
                                },
                                |h| spawned(h, 1),
                            )
                        },
                        |h| spawned(h, 0),
                    );
                })
            }));
            assert_eq!(payload(r), "call branch panics", "{label}");
            for (level, n) in runs.iter().enumerate() {
                assert_eq!(
                    n.load(Relaxed),
                    1,
                    "{label}: spawned branch of level {level}"
                );
            }
            assert_eq!(pool.run(|h| fib(h, 20)), 6765, "{label}");
        }
    }
    check::<WoolFull>();
    check::<WoolAllPublic>();
    check::<WoolNoLeap>();
    check::<TaskSpecific>();
    check::<SyncOnTask>();
    check::<LockedBase>();
    check::<StealLockBase>();
    check::<StealLockPeek>();
    check::<StealLockTrylock>();
}

/// Deep nesting across pool sizes and small stacks exercises the
/// overflow fallback concurrently.
#[test]
fn overflow_under_concurrency() {
    // fib(n) keeps at most one pending task per recursion level, so the
    // stack must be smaller than the recursion depth to overflow.
    let cfg = PoolConfig::with_workers(4).stack_capacity(16);
    let mut pool: Pool = Pool::with_config(cfg);
    for _ in 0..5 {
        let v = pool.run(|h| fib(h, 24));
        assert_eq!(v, 46368);
    }
    let t = pool.last_report().unwrap().total;
    assert!(t.overflow_inlines > 0, "tiny stack must overflow: {t:?}");
}

/// A pool with no workers could never run anything: constructing one
/// must fail loudly with an actionable message, not hang or divide by
/// zero later (wool-core's `tests/stress.rs` has the twin test for
/// `ServePool::start`).
#[test]
fn pool_zero_workers_rejected() {
    let err = match std::panic::catch_unwind(|| {
        let _: Pool = Pool::with_config(PoolConfig::with_workers(0));
    }) {
        Ok(()) => panic!("Pool::with_config(workers == 0) must panic"),
        Err(e) => e,
    };
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("at least one worker"),
        "panic message should explain the fix: {msg:?}"
    );
}
