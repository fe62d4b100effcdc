//! Exhaustive models of the park/wake handshake of `Idle`
//! (`wool-core/src/worker.rs`), run as shipped: the real `ServePool`
//! and `Pool`, their worker loops, `Idle::wait`'s park step and
//! `Idle::wake_one`.
//!
//! The worker's side: set its parked flag, `fence(SeqCst)`, re-check for
//! work, and park only if there is none. The waker's side: make the work
//! available, `fence(SeqCst)`, then claim a parked flag and unpark its
//! worker. One side always observes the other, so work cannot be
//! stranded next to a parked worker. A serve worker re-checks the
//! injector; a submission wakes it. A batch worker between regions
//! re-checks for an open region it has not joined; the root's first
//! publication wakes it. The models treat `park_timeout` as an
//! unbounded park: the timeout is only a safety net, and the protocol
//! must not rely on it. Under `--cfg loom` a worker parks on its second
//! empty round.
//!
//! Run with: `cargo xtask loom`
#![cfg(loom)]

use std::sync::Arc;
use std::time::Duration;
use wool_core::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use wool_core::sync::atomic::{fence, AtomicBool};
use wool_core::sync::{hint, thread};
use wool_core::{Injector, JobHandle, Pool, PoolConfig, ServePool, WoolFull};
use wool_verify::support::bounded;
use wool_verify::support::probe::{probe, Counters, Probe};

/// A one-worker serve pool, so every job runs on the one worker whose
/// park cycle the model explores.
fn serve_pool() -> ServePool<WoolFull> {
    ServePool::with_config(PoolConfig::with_workers(1).injector_capacity(2))
}

/// Waits for `h` the way a model may: a `join` that has to wait sleeps
/// on a std `Condvar`, which would block the scheduler, so poll first.
/// A lost wakeup leaves this loop spinning beside a parked worker, which
/// the checker reports.
fn finish(h: JobHandle<usize>) -> usize {
    while !h.is_finished() {
        hint::spin_loop();
    }
    h.join()
}

/// The positive theorem: across every interleaving of one submission
/// with the worker's pop/park cycle, including the worker parking right
/// as the job lands, the job runs.
#[test]
fn submit_cannot_be_lost_while_worker_parks() {
    wool_loom::model_config(bounded(3), || {
        let pool = serve_pool();
        let h = pool.submit(|_| 1).unwrap();
        assert_eq!(finish(h), 1);
        assert_eq!(pool.shutdown().unwrap().jobs, 1);
    });
}

/// Two submissions racing one worker's park cycle: the worker must be
/// woken for the second job even if it parks between the two.
#[test]
fn back_to_back_submissions_both_run() {
    wool_loom::model_config(bounded(3), || {
        let pool = serve_pool();
        let a = pool.submit(|_| 1).unwrap();
        let b = pool.submit(|_| 2).unwrap();
        assert_eq!(finish(a) + finish(b), 3);
        assert_eq!(pool.shutdown().unwrap().jobs, 2);
    });
}

/// A batch region wakes a parked worker through its root's first
/// publication, not at region start. The root forks; its call branch
/// waits, parked, until a thief has run the spawned branch, so the
/// region completes only if the worker wakes up. Without the wake in
/// `publish`, a worker that parked before the region opened sleeps
/// through it, and the checker reports the deadlock.
#[test]
fn region_wakes_a_parked_worker() {
    wool_loom::model_config(bounded(3), || {
        let mut pool: Pool = Pool::with_config(PoolConfig::with_workers(2).stack_capacity(16));
        let root = thread::current();
        let ran = AtomicBool::new(false);
        pool.run(|h| {
            h.fork(
                |_| {
                    while !ran.load(Acquire) {
                        thread::park();
                    }
                },
                |_| {
                    ran.store(true, Release);
                    root.unpark();
                },
            )
        });
        assert_eq!(pool.last_report().unwrap().total.steals, 1);
    });
}

/// The checker's teeth: without the post-flag re-check (and its fence),
/// the classic lost wakeup exists — the submitter reads the flag before
/// the worker sets it, the worker parks after the push, nobody unparks.
/// The explorer must find that interleaving and report the deadlock.
#[test]
#[should_panic(expected = "deadlock")]
fn lost_wakeup_without_recheck_is_found() {
    wool_loom::model_config(bounded(3), || {
        let q = Arc::new(Injector::<Probe>::with_capacity(2));
        let parked = Arc::new(AtomicBool::new(false));
        let c = Arc::new(Counters::default());
        let worker = {
            let q = Arc::clone(&q);
            let parked = Arc::clone(&parked);
            thread::spawn(move || loop {
                if let Some(job) = q.pop() {
                    job.run();
                    return;
                }
                // BROKEN: no fence, no re-check of the queue.
                parked.store(true, SeqCst);
                thread::park_timeout(Duration::from_micros(50));
                parked.store(false, Relaxed);
            })
        };
        q.push(probe(&c, 1)).ok().expect("queue full");
        fence(SeqCst);
        if parked.load(Relaxed) && parked.swap(false, SeqCst) {
            worker.thread().unpark();
        }
        worker.join().unwrap();
    });
}
