//! Deterministic exercises of the steal/stolen-join paths that the
//! random workloads only hit probabilistically.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wool_core::trace::{EventKind, Trace};
use wool_core::{
    LockedBase, Pool, PoolConfig, StealLockBase, StealLockPeek, StealLockTrylock, Strategy,
    SyncOnTask, TaskSpecific, TraceLevel, WoolAllPublic, WoolFull, WorkerHandle,
};

/// The LA cycles of the last region, from its breakdown trace.
fn la_cycles<S: Strategy>(pool: &Pool<S>) -> u64 {
    let wall = pool.last_report().unwrap().wall_ticks;
    let trace = pool.last_trace().expect("the pool records the breakdown");
    wool_trace::breakdown(trace, wall).unwrap().la
}

/// Replays each worker's breakdown events on a stack of open frames
/// (`leapfrog` pushes its thief, `steal_success` and `leap_steal` push a
/// marker, `resume` pops) and checks leapfrogging's thief-only rule
/// (§III, after Wagner & Calder): every `leap_steal`'s victim is the
/// thief of the innermost open `leapfrog`. Returns the number of leap
/// steals checked.
fn check_thief_only(trace: &Trace, label: &str) -> usize {
    let mut checked = 0;
    for w in &trace.workers {
        let me = w.worker;
        assert_eq!(w.dropped, 0, "{label}: worker {me} dropped events");
        let mut open: Vec<Option<u32>> = Vec::new();
        for e in &w.events {
            match e.kind {
                EventKind::Leapfrog => open.push(Some(e.arg)),
                EventKind::StealSuccess => open.push(None),
                EventKind::LeapSteal => {
                    let thief = open.iter().rev().find_map(|&f| f);
                    assert_eq!(
                        thief,
                        Some(e.arg),
                        "{label}: worker {me} leap-stole from {} while waiting on {thief:?}",
                        e.arg
                    );
                    checked += 1;
                    open.push(None);
                }
                EventKind::Resume => {
                    let frame = open.pop();
                    assert!(frame.is_some(), "{label}: worker {me} resumed nothing");
                }
                _ => {}
            }
        }
    }
    checked
}

/// A balanced task tree with spinning leaves, as the stress workload.
fn stress<S: Strategy>(h: &mut WorkerHandle<S>, depth: u32) -> u64 {
    if depth == 0 {
        for _ in 0..256 {
            std::hint::spin_loop();
        }
        return 1;
    }
    let (a, b) = h.fork(|h| stress(h, depth - 1), |h| stress(h, depth - 1));
    a + b
}

/// Leapfrogging's thief-only rule on real runs: fib and stress on every
/// leapfrogging rung at 3 and 4 workers (with 2 workers the thief is the
/// only other worker, so the rule holds trivially).
#[test]
fn leap_steals_take_only_from_the_thief() {
    fn check<S: Strategy>() -> usize {
        let mut checked = 0;
        for p in [3, 4] {
            let cfg = PoolConfig::with_workers(p).trace(TraceLevel::Breakdown);
            let mut pool: Pool<S> = Pool::with_config(cfg);
            let label = format!("{} at p = {p}", S::NAME);
            for _ in 0..12 {
                assert_eq!(pool.run(|h| fib(h, 18)), 2584);
                checked += check_thief_only(pool.last_trace().unwrap(), &label);
                assert_eq!(pool.run(|h| stress(h, 8)), 256);
                checked += check_thief_only(pool.last_trace().unwrap(), &label);
            }
        }
        checked
    }
    let checked = check::<WoolFull>()
        + check::<WoolAllPublic>()
        + check::<TaskSpecific>()
        + check::<SyncOnTask>()
        + check::<LockedBase>()
        + check::<StealLockBase>()
        + check::<StealLockPeek>()
        + check::<StealLockTrylock>();
    assert!(checked > 0, "no leap steal happened to check");
}

fn fib<S: Strategy>(h: &mut WorkerHandle<S>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = h.fork(|h| fib(h, n - 1), |h| fib(h, n - 2));
    a + b
}

/// Forces a steal: the CALL branch spins until the spawned branch has
/// been executed — which can only happen on another worker, so the join
/// *must* take the stolen path (STOLEN wait or DONE).
///
/// Runs under the all-public `TaskSpecific` strategy and under private
/// tasks (`WoolFull`). With private tasks, the owner checks the trip wire
/// only at a spawn, so a worker that spins without spawning never answers
/// a thief's request. `Pool::run` arms the trip wire when there is a
/// thief, so the root's first spawn publishes and this test's sibling is
/// stealable. The liveness boundary now lies below that first spawn: a
/// worker that spins after a later, still private spawn can starve a
/// thief of that task.
///
/// The run records the Figure 6 breakdown: a worker's time is LA
/// (application code acquired by leap-frogging) exactly when it
/// leap-frog stole.
#[test]
fn blocked_join_takes_stolen_path() {
    fn check<S: Strategy>() {
        let mut pool: Pool<S> =
            Pool::with_config(PoolConfig::with_workers(2).trace(TraceLevel::Breakdown));
        let stolen_by = AtomicUsize::new(usize::MAX);
        let started = AtomicBool::new(false);

        pool.run(|h| {
            let ((), ()) = h.fork(
                |_h| {
                    // Busy-wait (with a deadline) until the sibling runs.
                    let t0 = Instant::now();
                    while !started.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                        if t0.elapsed() > Duration::from_secs(20) {
                            panic!("{}: sibling was never stolen", S::NAME);
                        }
                        std::thread::yield_now();
                    }
                },
                |h: &mut WorkerHandle<S>| {
                    stolen_by.store(h.worker_index(), Ordering::Relaxed);
                    started.store(true, Ordering::Release);
                },
            );
        });

        // The spawned branch ran on the thief, not on worker 0.
        let label = S::NAME;
        assert_ne!(
            stolen_by.load(Ordering::Relaxed),
            0,
            "{label}: task was not stolen"
        );
        let report = pool.last_report().unwrap();
        let t = report.total;
        assert_eq!(t.steals, 1, "{label}: {t:?}");
        assert_eq!(t.stolen_joins, 1, "{label}: {t:?}");
        let la = la_cycles(&pool);
        assert_eq!(la > 0, t.leap_steals > 0, "{label}: LA {la}, {t:?}");
    }
    check::<TaskSpecific>();
    check::<WoolFull>();
}

/// Forces a leap-frog steal: the stolen branch forks, and its call
/// branch spins until its own spawned branch has run. With two workers
/// only worker 0, blocked at its join with the stolen branch, can run
/// it, so it must leap-frog steal it back from the thief. The spinning
/// call branch keeps forking, so a private-task thief answers the
/// publication request. The stolen task runs as LA time.
#[test]
fn leap_frog_steal_runs_as_la() {
    fn check<S: Strategy>() {
        let mut pool: Pool<S> =
            Pool::with_config(PoolConfig::with_workers(2).trace(TraceLevel::Breakdown));
        let started = AtomicBool::new(false);
        let inner_ran = AtomicBool::new(false);
        let deadline = |t0: Instant| {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "{}: a task was never stolen",
                S::NAME
            );
            std::thread::yield_now();
        };

        pool.run(|h| {
            let ((), ()) = h.fork(
                |_h| {
                    let t0 = Instant::now();
                    while !started.load(Ordering::Acquire) {
                        deadline(t0);
                    }
                },
                |h: &mut WorkerHandle<S>| {
                    started.store(true, Ordering::Release);
                    let ((), ()) = h.fork(
                        |h| {
                            let t0 = Instant::now();
                            while !inner_ran.load(Ordering::Acquire) {
                                let ((), ()) = h.fork(|_| {}, |_| {});
                                deadline(t0);
                            }
                        },
                        |_| inner_ran.store(true, Ordering::Release),
                    );
                },
            );
        });

        let label = S::NAME;
        let report = pool.last_report().unwrap();
        let t = report.total;
        assert!(t.leap_steals >= 1, "{label}: {t:?}");
        assert!(la_cycles(&pool) > 0, "{label}: {t:?}");
    }
    check::<TaskSpecific>();
    check::<WoolFull>();
}

/// Steal-child memory behavior (§I): spawning a list of `n` tasks
/// before joining occupies `n` descriptors — the paper's Cilk-vs-Wool
/// space discussion. The overflow counter makes the occupancy
/// observable.
#[test]
fn linear_spawn_occupies_linear_descriptors() {
    // Capacity 64: a 60-element spawn list fits, a 200-element one
    // overflows (and still computes correctly via eager execution).
    let run = |n: usize| -> u64 {
        let cfg = PoolConfig::with_workers(1).stack_capacity(64);
        let mut pool: Pool = Pool::with_config(cfg);
        let out = std::sync::atomic::AtomicU64::new(0);
        pool.run(|h| {
            h.for_each_spawn(n, &|_h, i| {
                out.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        let overflows = pool.last_report().unwrap().total.overflow_inlines;
        assert_eq!(out.load(Ordering::Relaxed), (n as u64 * (n as u64 - 1)) / 2);
        overflows
    };
    assert_eq!(run(60), 0, "60 pending tasks fit in 64 descriptors");
    assert!(
        run(200) > 0,
        "200 pending tasks must overflow 64 descriptors"
    );
}

/// `worker_index` and `num_workers` are coherent inside tasks.
#[test]
fn worker_identity_in_tasks() {
    let mut pool: Pool = Pool::new(3);
    pool.run(|h| {
        assert_eq!(h.worker_index(), 0, "run caller is worker 0");
        assert_eq!(h.num_workers(), 3);
        h.for_each_spawn(32, &|h, _i| {
            assert!(h.worker_index() < 3);
            assert_eq!(h.num_workers(), 3);
        });
    });
}

/// The trip-wire publication pipeline engages under real stealing:
/// publish requests lead to publications, and some joins still take the
/// no-atomic private path.
#[test]
fn trip_wire_publishes_under_stealing() {
    let mut pool: Pool = Pool::new(4);
    let mut publishes = 0;
    let mut private = 0;
    let mut steals = 0;
    for _ in 0..40 {
        pool.run(|h| fib(h, 23));
        let t = pool.last_report().unwrap().total;
        publishes += t.publishes;
        private += t.inlined_private;
        steals += t.total_steals();
    }
    if steals > 0 {
        assert!(publishes > 0, "steals happened without any publication");
    }
    assert!(private > 0, "private fast path never used");
}
