//! Serve-pool stress and correctness tests: concurrent submission from
//! many client threads, graceful drain, panic propagation,
//! backpressure, and lifecycle edge cases.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wool_core::{PoolConfig, ServePool, Strategy, SubmitError, SyncOnTask, WoolFull, WorkerHandle};

fn fib<S: Strategy>(h: &mut WorkerHandle<S>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = h.fork(move |h| fib(h, n - 1), move |h| fib(h, n - 2));
    a + b
}

fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

/// The acceptance-criteria stress: >= 10k jobs from >= 4 submitter
/// threads, every handle resolving to the right value, clean drain.
#[test]
fn stress_many_submitters() {
    const CLIENTS: usize = 4;
    const JOBS: usize = 2_600; // 4 * 2600 = 10_400 total

    let pool = ServePool::start(4);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let pool = &pool;
            s.spawn(move || {
                let mut handles = Vec::with_capacity(JOBS);
                for i in 0..JOBS {
                    let n = 2 + ((client * JOBS + i) % 11) as u64; // fib(2..=12)
                    handles.push((n, pool.submit(move |h| fib(h, n)).unwrap()));
                }
                for (n, h) in handles {
                    assert_eq!(h.join(), fib_seq(n), "client {client} fib({n})");
                }
            });
        }
    });
    let report = pool.shutdown().expect("first shutdown returns a report");
    assert_eq!(report.jobs, (CLIENTS * JOBS) as u64);
    assert_eq!(pool.pending_jobs(), 0);
}

/// A job counts as completed before its handle resolves: once every
/// client has joined its jobs, none is pending, even before shutdown.
#[test]
fn joined_jobs_are_not_pending() {
    const CLIENTS: usize = 4;
    const JOBS: usize = 250; // 4 * 250 = 1000 total

    let pool = ServePool::start(4);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let pool = &pool;
            s.spawn(move || {
                let handles: Vec<_> = (0..JOBS)
                    .map(|i| pool.submit(move |h| fib(h, (i % 8) as u64)).unwrap())
                    .collect();
                for (i, h) in handles.into_iter().enumerate() {
                    assert_eq!(h.join(), fib_seq((i % 8) as u64));
                }
            });
        }
    });
    assert_eq!(pool.pending_jobs(), 0);

    // One job at a time, read the instant the handle resolves: a count
    // bumped after the resolution would show here as a pending job.
    for i in 0..1000 {
        let h = pool.submit(move |_| i).unwrap();
        while !h.is_finished() {
            std::hint::spin_loop();
        }
        assert_eq!(pool.pending_jobs(), 0);
        assert_eq!(h.join(), i);
    }
    let report = pool.shutdown().expect("first shutdown returns a report");
    assert_eq!(report.jobs, (CLIENTS * JOBS + 1000) as u64);
}

/// Jobs submitted right up to the drain are all completed by shutdown,
/// even when nobody joins their handles.
#[test]
fn shutdown_drains_queued_jobs() {
    let counter = Arc::new(AtomicUsize::new(0));
    let pool = ServePool::start(2);
    for _ in 0..500 {
        let counter = Arc::clone(&counter);
        pool.submit(move |_| {
            counter.fetch_add(1, SeqCst);
        })
        .unwrap();
    }
    let report = pool.shutdown().unwrap();
    assert_eq!(counter.load(SeqCst), 500);
    assert_eq!(report.jobs, 500);
    // Second shutdown is a no-op.
    assert!(pool.shutdown().is_none());
}

#[test]
fn panic_propagates_to_join_not_worker() {
    let pool = ServePool::start(2);
    let bad = pool
        .submit(|_| -> u64 { panic!("job exploded (expected)") })
        .unwrap();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join()))
        .expect_err("join must re-raise the job's panic");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(msg.contains("job exploded"), "unexpected payload: {msg:?}");

    // The worker that ran the panicking job is still alive and serving.
    let ok = pool.submit(|h| fib(h, 10)).unwrap();
    assert_eq!(ok.join(), 55);
}

#[test]
fn try_join_polls_without_blocking() {
    let pool = ServePool::start(1);
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let h = pool
        .submit(move |_| {
            while !g.load(SeqCst) {
                std::thread::yield_now();
            }
            7u32
        })
        .unwrap();
    // The job cannot have finished: it is parked on the gate.
    assert!(!h.is_finished());
    gate.store(true, SeqCst);
    while !h.is_finished() {
        std::thread::yield_now();
    }
    assert_eq!(h.join(), 7);
}

/// Backpressure: with the lone worker wedged and the injector full,
/// `try_submit` sheds load with `Full`; once the worker is released,
/// everything that was accepted still completes.
#[test]
fn try_submit_reports_full_queue() {
    /// Releases the wedged worker even if an assertion unwinds, so the
    /// pool's drop-drain can finish and the real failure surfaces
    /// instead of a hang.
    struct GateRelease(Arc<AtomicBool>);
    impl Drop for GateRelease {
        fn drop(&mut self) {
            self.0.store(true, SeqCst);
        }
    }

    let cfg = PoolConfig::with_workers(1).injector_capacity(2);
    let pool: ServePool = ServePool::with_config(cfg);
    assert_eq!(pool.queue_capacity(), 2);

    let started = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(AtomicBool::new(false));
    let release = GateRelease(Arc::clone(&gate));
    let (s, g) = (Arc::clone(&started), Arc::clone(&gate));
    let blocker = pool
        .submit(move |_| {
            s.store(true, SeqCst);
            while !g.load(SeqCst) {
                std::thread::yield_now();
            }
        })
        .unwrap();

    // Wait until the lone worker is provably wedged inside the blocker
    // (queue empty again), then fill the queue deterministically.
    while !started.load(SeqCst) {
        std::thread::yield_now();
    }
    let a = pool.try_submit(|h| fib(h, 5)).expect("slot 1 of 2");
    let b = pool.try_submit(|h| fib(h, 5)).expect("slot 2 of 2");
    assert_eq!(
        pool.try_submit(|h| fib(h, 5)).expect_err("queue is full"),
        SubmitError::Full
    );

    drop(release); // gate := true
    blocker.join();
    assert_eq!(a.join(), fib_seq(5));
    assert_eq!(b.join(), fib_seq(5));
}

#[test]
fn submit_after_shutdown_is_rejected() {
    let pool = ServePool::start(2);
    pool.submit(|h| fib(h, 10)).unwrap().join();
    pool.shutdown().unwrap();
    assert_eq!(
        pool.submit(|_| 1u32).expect_err("pool is stopped"),
        SubmitError::ShuttingDown
    );
    assert_eq!(
        pool.try_submit(|_| 1u32).expect_err("pool is stopped"),
        SubmitError::ShuttingDown
    );
}

/// Dropping the pool without an explicit shutdown still drains and
/// stops the workers (no leaked threads, no lost jobs).
#[test]
fn drop_is_graceful() {
    let counter = Arc::new(AtomicUsize::new(0));
    {
        let pool = ServePool::start(2);
        for _ in 0..200 {
            let counter = Arc::clone(&counter);
            pool.submit(move |_| {
                counter.fetch_add(1, SeqCst);
            })
            .unwrap();
        }
        // `pool` dropped here.
    }
    assert_eq!(counter.load(SeqCst), 200);
}

/// Dropping a handle detaches the job; it still runs.
#[test]
fn dropped_handle_detaches() {
    let counter = Arc::new(AtomicUsize::new(0));
    let pool = ServePool::start(2);
    for _ in 0..100 {
        let counter = Arc::clone(&counter);
        drop(
            pool.submit(move |_| {
                counter.fetch_add(1, SeqCst);
            })
            .unwrap(),
        );
    }
    pool.shutdown().unwrap();
    assert_eq!(counter.load(SeqCst), 100);
}

/// The serve pool is strategy-generic like the batch pool.
#[test]
fn non_default_strategy_serves() {
    let pool: ServePool<SyncOnTask> = ServePool::with_config(PoolConfig::with_workers(3));
    assert_eq!(pool.strategy_name(), "sync-on-task");
    let h = pool.submit(|h| fib(h, 15)).unwrap();
    assert_eq!(h.join(), fib_seq(15));
    pool.shutdown().unwrap();
}

/// With the injector empty, an idle worker still steals from a running
/// job: the job's two branches meet at a rendezvous neither can pass
/// alone, so each must run on its own worker. While waiting, a branch
/// keeps spawning, which is where its owner honours a thief's trip wire
/// and publishes the other branch.
#[test]
fn idle_worker_steals_from_running_job() {
    let pool = ServePool::start(2);
    let job = pool.submit(|h| {
        let arrived = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(20);
        let branch = |h: &mut WorkerHandle<WoolFull>| {
            arrived.fetch_add(1, SeqCst);
            while arrived.load(SeqCst) < 2 && Instant::now() < deadline {
                h.fork(|_| (), |_| ());
            }
            (h.worker_index(), arrived.load(SeqCst) == 2)
        };
        h.fork(branch, branch)
    });
    let ((a, met_a), (b, met_b)) = job.unwrap().join();
    assert!(met_a && met_b, "branches never met: no steal within 20 s");
    assert_ne!(a, b, "both branches ran on worker {a}");
}

/// Submitters racing `shutdown`: every accepted job runs before the
/// engine stops and resolves to its own value, never to the teardown
/// panic of a job left in the queue; every other submission is turned
/// away.
#[test]
fn submitters_race_shutdown() {
    const CLIENTS: u64 = 3;
    for round in 0..40 {
        let pool = ServePool::start(2);
        let accepted = AtomicUsize::new(0);
        let (report, handles) = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let (pool, accepted) = (&pool, &accepted);
                    s.spawn(move || {
                        let mut handles = Vec::new();
                        for i in (client..).step_by(CLIENTS as usize) {
                            // One client sheds load instead of waiting.
                            let sent = if client == 0 {
                                pool.try_submit(move |h| fib(h, 6) + i)
                            } else {
                                pool.submit(move |h| fib(h, 6) + i)
                            };
                            match sent {
                                Ok(h) => {
                                    handles.push((i, h));
                                    accepted.fetch_add(1, SeqCst);
                                }
                                Err(SubmitError::Full) => std::thread::yield_now(),
                                Err(SubmitError::ShuttingDown) => return handles,
                            }
                        }
                        unreachable!("submissions end at shutdown")
                    })
                })
                .collect();
            // Shut down at a different point of the submission stream
            // each round.
            while accepted.load(SeqCst) < round * 5 {
                std::thread::yield_now();
            }
            let report = pool.shutdown().expect("first shutdown");
            let handles: Vec<_> = clients
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            (report, handles)
        });
        assert!(handles.len() >= round * 5);
        assert_eq!(report.jobs, handles.len() as u64, "round {round}");
        // Dropping the pool disposes of any job still queued, resolving
        // its handle with the teardown panic.
        drop(pool);
        for (i, h) in handles {
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| h.join()));
            assert_eq!(out.ok(), Some(fib_seq(6) + i), "round {round}: job {i}");
        }
    }
}

/// Satellite: zero workers must be rejected loudly, not hang.
#[test]
fn zero_workers_rejected() {
    let err = match std::panic::catch_unwind(|| ServePool::start(0)) {
        Ok(_) => panic!("ServePool::start(0) must panic"),
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
