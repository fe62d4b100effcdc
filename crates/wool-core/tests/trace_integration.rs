//! End-to-end checks of the `trace` feature: a traced run produces a
//! per-worker event log that agrees exactly with the `Stats` counters,
//! which the same probes bump.
//!
//! Compiled only with `--features trace` (see `Cargo.toml`).

use wool_core::trace::{EventKind, Trace};
use wool_core::{LockedBase, StealLockBase, StealLockPeek, StealLockTrylock, SyncOnTask};
use wool_core::{Pool, PoolConfig, ServePool, Stats, Strategy, TraceLevel, WorkerHandle};
use wool_core::{TaskSpecific, WoolAllPublic, WoolFull, WoolNoLeap};

fn fib<S: Strategy>(h: &mut WorkerHandle<S>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = h.fork(|h| fib(h, n - 1), |h| fib(h, n - 2));
    a + b
}

/// Runs fib(n) on `workers` workers with tracing on and returns the
/// pool for inspection.
fn traced_fib_pool<S: Strategy>(workers: usize, n: u64, capacity: usize) -> Pool<S> {
    let cfg = PoolConfig::with_workers(workers)
        .trace(TraceLevel::All)
        .trace_capacity(capacity);
    let mut pool: Pool<S> = Pool::with_config(cfg);
    let r = pool.run(|h| fib(h, n));
    let expected = {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..n {
            (a, b) = (b, a + b);
        }
        a
    };
    assert_eq!(r, expected, "fib({n}) must still be correct under tracing");
    pool
}

#[test]
fn untraced_pool_has_no_trace() {
    let mut pool: Pool<WoolFull> = Pool::new(2);
    pool.run(|h| fib(h, 10));
    assert!(pool.last_trace().is_none());
}

/// Asserts that the trace lost nothing, counts exactly the run's
/// `Stats`, and holds one spawn event per spawn that `Stats` derives
/// from the joins.
fn assert_counts_match(trace: &Trace, stats: &Stats, what: &str) {
    assert_eq!(trace.dropped(), 0, "{what}: the ring must hold the run");
    assert_eq!(trace.stats(), *stats, "{what}");
    assert_eq!(trace.count(EventKind::Spawn), stats.spawns, "{what}");
}

fn traced_fib_matches_stats<S: Strategy>() {
    let pool = traced_fib_pool::<S>(3, 20, 1 << 20);
    let trace = pool.last_trace().expect("tracing was configured");
    assert_eq!(trace.workers.len(), 3);
    assert_counts_match(trace, &pool.last_report().unwrap().total, S::NAME);
}

#[test]
fn traced_run_matches_stats() {
    traced_fib_matches_stats::<WoolFull>();
    traced_fib_matches_stats::<WoolNoLeap>();
    traced_fib_matches_stats::<WoolAllPublic>();
    traced_fib_matches_stats::<TaskSpecific>();
    traced_fib_matches_stats::<SyncOnTask>();
    traced_fib_matches_stats::<LockedBase>();
    traced_fib_matches_stats::<StealLockBase>();
    traced_fib_matches_stats::<StealLockPeek>();
    traced_fib_matches_stats::<StealLockTrylock>();
}

/// A serve session records one inject, one dequeue and one job_done per
/// job, and its counted kinds agree with its `Stats` as a batch run's do.
#[test]
fn serve_trace_counts_every_job() {
    let cfg = PoolConfig::with_workers(2)
        .trace(TraceLevel::All)
        .trace_capacity(1 << 16);
    let pool: ServePool = ServePool::with_config(cfg);
    let jobs = 64;
    let handles: Vec<_> = (0..jobs)
        .map(|_| pool.submit(|h| fib(h, 12)).unwrap())
        .collect();
    for h in handles {
        assert_eq!(h.join(), 144);
    }
    let report = pool.shutdown().unwrap();
    assert_eq!(report.jobs, jobs);
    let trace = report.trace.as_ref().expect("tracing was configured");
    for kind in [EventKind::Inject, EventKind::Dequeue, EventKind::JobDone] {
        assert_eq!(trace.count(kind), jobs, "{} events", kind.name());
    }
    assert_counts_match(trace, &report.total, "serve");
}

#[test]
fn steal_events_point_at_real_workers() {
    let pool = traced_fib_pool::<WoolFull>(3, 20, 1 << 20);
    let trace = pool.last_trace().unwrap();
    for w in &trace.workers {
        for e in &w.events {
            // A join_slow whose thief had finished names no worker.
            if e.kind.arg_is_worker() && e.arg != u32::MAX {
                assert!((e.arg as usize) < 3, "{:?}: index out of range", e.kind);
                assert_ne!(e.arg as usize, w.worker, "{:?} names itself", e.kind);
            }
        }
    }
}

#[test]
fn wraparound_drops_are_reported() {
    // A tiny ring cannot hold fib(20)'s ~10k spawn events.
    let pool = traced_fib_pool::<WoolFull>(2, 20, 64);
    let trace = pool.last_trace().unwrap();
    assert!(trace.dropped() > 0);
    // Retained events are still the newest, per worker, in seq order.
    for w in &trace.workers {
        assert!(w.events.len() <= 64);
        assert!(w.events.windows(2).all(|p| p[0].seq < p[1].seq));
    }
}

#[test]
fn rings_reset_between_runs() {
    let cfg = PoolConfig::with_workers(2)
        .trace(TraceLevel::All)
        .trace_capacity(1 << 16);
    let mut pool: Pool<WoolFull> = Pool::with_config(cfg);
    pool.run(|h| fib(h, 18));
    let first = pool.last_trace().unwrap().len();
    assert!(first > 0);
    pool.run(|h| fib(h, 10));
    let second = pool.last_trace().unwrap();
    // A much smaller run after a big one must not carry stale events.
    assert!(second.len() < first);
    assert_eq!(second.count(EventKind::Spawn), {
        let t = pool.last_report().unwrap();
        t.total.spawns
    });
}
