//! Exhaustive model of the serve-mode park/wake handshake: the
//! Dekker-style parked-flag protocol between `ServePool`'s submission
//! path and the park sequence in `serve_loop` (`wool-core/src/serve.rs`).
//!
//! The worker's side: `parked.store(true, SeqCst); fence(SeqCst);`
//! re-check the injector; park only if still empty. The submitter's
//! side: `push; fence(SeqCst);` then swap the parked flag and unpark.
//! The theorem: one side always observes the other, so a submission
//! cannot be lost while a worker parks. The model treats `park_timeout`
//! as an *unbounded* park — the real code's timeout is only a safety
//! net, and the protocol must not rely on it.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p wool-verify --release`
#![cfg(loom)]

use std::sync::Arc;
use std::time::Duration;
use wool_core::sync::atomic::Ordering::{Relaxed, SeqCst};
use wool_core::sync::atomic::{fence, AtomicBool};
use wool_core::sync::{hint, thread};
use wool_core::Injector;
use wool_verify::support::bounded;
use wool_verify::support::probe::{probe, Counters, Probe};

/// The worker's poll/park sequence from `serve_loop` (minus the steal
/// attempt after a failed pop and the shutdown clause, which the model
/// has no peers for), with
/// the idle escalation reduced to one spin step. Returns after running
/// one job. The spin sits after a *failed* pop — the point where the
/// worker has re-checked shared state and genuinely cannot progress
/// (e.g. a submitter holds a reserved-but-unpublished cell) — and the
/// park re-check resets the escalation exactly as `serve_loop` does.
fn worker_loop(q: &Injector<Probe>, parked: &AtomicBool) {
    let mut idle = 0;
    loop {
        if let Some(job) = q.pop() {
            job.run();
            return;
        }
        idle += 1;
        if idle < 2 {
            hint::spin_loop();
            continue;
        }
        parked.store(true, SeqCst);
        fence(SeqCst);
        if !q.is_empty() {
            parked.store(false, Relaxed);
            idle = 0;
            continue;
        }
        // Under the model this parks *forever* unless unparked: the
        // timeout safety net is deliberately not modeled.
        thread::park_timeout(Duration::from_micros(50));
        parked.store(false, Relaxed);
    }
}

/// The push, fence and `Shared::wake_one` of `ServePool`'s submission
/// path (`admit`), verbatim (the model's single worker makes wake_one's
/// scan a single flag check; the thread registry lock is skipped —
/// registration precedes the first parked-flag store in program order,
/// so a visible flag implies a registered thread).
fn submit(
    q: &Injector<Probe>,
    parked: &AtomicBool,
    worker: &thread::Thread,
    c: &Arc<Counters>,
    v: usize,
) {
    q.push(probe(c, v)).ok().expect("queue full");
    fence(SeqCst);
    if parked.load(Relaxed) && parked.swap(false, SeqCst) {
        worker.unpark();
    }
}

/// The positive theorem: across every interleaving of one submission
/// with the worker's pop/park cycle — including the worker parking
/// right as the job lands — the job runs and the model terminates
/// (a lost wakeup would surface as a deadlock failure).
#[test]
fn submit_cannot_be_lost_while_worker_parks() {
    wool_loom::model_config(bounded(3), || {
        let q = Arc::new(Injector::with_capacity(2));
        let parked = Arc::new(AtomicBool::new(false));
        let c = Arc::new(Counters::default());
        let worker = {
            let q = Arc::clone(&q);
            let parked = Arc::clone(&parked);
            thread::spawn(move || worker_loop(&q, &parked))
        };
        submit(&q, &parked, worker.thread(), &c, 1);
        worker.join().unwrap();
        assert_eq!(c.ran.load(Relaxed), 1);
        assert_eq!(c.sum.load(Relaxed), 1);
    });
}

/// Two submissions racing one worker's park cycle: the worker must be
/// woken for the second job even if it parks between the two.
#[test]
fn back_to_back_submissions_both_run() {
    wool_loom::model_config(bounded(3), || {
        let q = Arc::new(Injector::with_capacity(2));
        let parked = Arc::new(AtomicBool::new(false));
        let c = Arc::new(Counters::default());
        let worker = {
            let q = Arc::clone(&q);
            let parked = Arc::clone(&parked);
            thread::spawn(move || {
                worker_loop(&q, &parked);
                worker_loop(&q, &parked);
            })
        };
        submit(&q, &parked, worker.thread(), &c, 1);
        submit(&q, &parked, worker.thread(), &c, 2);
        worker.join().unwrap();
        assert_eq!(c.ran.load(Relaxed), 2);
        assert_eq!(c.sum.load(Relaxed), 3);
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
        submit(&q, &parked, worker.thread(), &c, 1);
        worker.join().unwrap();
    });
}
