//! Self-tests for the wool-loom checker: positive models that must pass,
//! and seeded-bug models the checker must catch. These run under the
//! normal test profile (no `--cfg loom` needed — the checker itself is
//! always compiled); they are what lets tier-1 trust the loom suite.

use std::sync::Arc;
use wool_loom::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use wool_loom::sync::atomic::{fence, AtomicBool, AtomicUsize};
use wool_loom::thread;

/// A racy read-modify-write (load + store instead of fetch_add) must be
/// caught: some interleaving loses an increment.
#[test]
#[should_panic(expected = "lost increment")]
fn finds_lost_update() {
    wool_loom::model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let x = Arc::clone(&x);
            handles.push(thread::spawn(move || {
                let v = x.load(SeqCst);
                x.store(v + 1, SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.load(SeqCst), 2, "lost increment");
    });
}

/// The same counter built from a proper RMW passes exhaustively.
#[test]
fn fetch_add_is_atomic() {
    wool_loom::model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let x = Arc::clone(&x);
            handles.push(thread::spawn(move || {
                x.fetch_add(1, SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.load(SeqCst), 2);
    });
}

/// Store/load message passing: the flag spin loop must terminate (the
/// spin-pruning rule may not starve the consumer of the producer's
/// store) and the payload must be visible.
#[test]
fn message_passing_spin() {
    wool_loom::model(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Relaxed);
            f2.store(true, Release);
        });
        while !flag.load(Acquire) {
            wool_loom::hint::spin_loop();
        }
        assert_eq!(data.load(Relaxed), 42);
        t.join().unwrap();
    });
}

/// Two flag-based critical sections with a missing second flag check:
/// mutual exclusion is violated in some interleaving and the checker
/// must find it.
#[test]
#[should_panic(expected = "both in the critical section")]
fn finds_broken_mutex() {
    wool_loom::model(|| {
        let f0 = Arc::new(AtomicBool::new(false));
        let f1 = Arc::new(AtomicBool::new(false));
        let in_cs = Arc::new(AtomicUsize::new(0));
        let (a0, _a1, ac) = (Arc::clone(&f0), Arc::clone(&f1), Arc::clone(&in_cs));
        let t = thread::spawn(move || {
            a0.store(true, SeqCst);
            // BUG (seeded): no check of the other flag before entering.
            let n = ac.fetch_add(1, SeqCst);
            assert_eq!(n, 0, "both in the critical section");
            ac.fetch_sub(1, SeqCst);
            a0.store(false, SeqCst);
        });
        f1.store(true, SeqCst);
        if !f0.load(SeqCst) {
            let n = in_cs.fetch_add(1, SeqCst);
            assert_eq!(n, 0, "both in the critical section");
            in_cs.fetch_sub(1, SeqCst);
        }
        f1.store(false, SeqCst);
        t.join().unwrap();
    });
}

/// Dekker-style park/wake handshake (the serve-loop protocol shape):
/// correct version passes — no submit is lost, the model never
/// deadlocks.
#[test]
fn park_wake_handshake() {
    wool_loom::model(|| {
        let queued = Arc::new(AtomicUsize::new(0));
        let parked = Arc::new(AtomicBool::new(false));
        let (q2, p2) = (Arc::clone(&queued), Arc::clone(&parked));
        let worker = thread::spawn(move || loop {
            if q2.swap(0, SeqCst) == 1 {
                return; // consumed the submission
            }
            p2.store(true, SeqCst);
            fence(SeqCst);
            if q2.load(SeqCst) != 0 {
                // Re-check saw the submission: do not sleep.
                p2.store(false, Relaxed);
                continue;
            }
            thread::park();
            p2.store(false, Relaxed);
        });
        // Submitter: publish, fence, wake the worker if it had parked.
        queued.store(1, SeqCst);
        fence(SeqCst);
        if parked.swap(false, SeqCst) {
            worker.thread().unpark();
        }
        worker.join().unwrap();
    });
}

/// The same handshake with the worker's re-check removed: a submission
/// arriving between the flag store and the park is lost, the worker
/// sleeps forever, and the checker reports the deadlock.
#[test]
#[should_panic(expected = "deadlock")]
fn finds_lost_wakeup() {
    wool_loom::model(|| {
        let queued = Arc::new(AtomicUsize::new(0));
        let parked = Arc::new(AtomicBool::new(false));
        let (q2, p2) = (Arc::clone(&queued), Arc::clone(&parked));
        let worker = thread::spawn(move || loop {
            if q2.swap(0, SeqCst) == 1 {
                return;
            }
            p2.store(true, SeqCst);
            // BUG (seeded): park without re-checking the queue.
            thread::park();
            p2.store(false, Relaxed);
        });
        queued.store(1, SeqCst);
        fence(SeqCst);
        if parked.swap(false, SeqCst) {
            worker.thread().unpark();
        }
        worker.join().unwrap();
    });
}

/// An unpark delivered before the park must not be lost (token
/// semantics, mirroring std).
#[test]
fn unpark_before_park_is_kept() {
    wool_loom::model(|| {
        let t = thread::spawn(|| {
            thread::park();
        });
        t.thread().unpark();
        t.join().unwrap();
    });
}

/// Spinning on a condition nobody will ever satisfy is reported as a
/// livelock rather than hanging the checker.
#[test]
#[should_panic(expected = "livelock")]
fn finds_livelock() {
    wool_loom::model(|| {
        let flag = AtomicBool::new(false);
        while !flag.load(SeqCst) {
            wool_loom::hint::spin_loop();
        }
    });
}

/// A re-check that is several operations long must not lose a write
/// that lands in its middle: here the flag store can come after the
/// flag load but before the second load and the spin. Parking the
/// spinner then would report a livelock although one more pass of the
/// loop exits.
#[test]
fn multi_op_recheck_is_not_a_livelock() {
    wool_loom::model(|| {
        let done = Arc::new(AtomicBool::new(false));
        let other = AtomicUsize::new(0);
        let d2 = Arc::clone(&done);
        let t = thread::spawn(move || d2.store(true, SeqCst));
        loop {
            if done.load(SeqCst) {
                break;
            }
            other.load(SeqCst);
            wool_loom::hint::spin_loop();
        }
        t.join().unwrap();
    });
}

/// The preemption bound caps exploration but still finds shallow bugs
/// (the lost update needs only one preemption).
#[test]
#[should_panic(expected = "lost increment")]
fn preemption_bound_still_finds_shallow_bug() {
    let cfg = wool_loom::Config {
        preemption_bound: Some(1),
        ..Default::default()
    };
    wool_loom::model_config(cfg, || {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            let v = x2.load(SeqCst);
            x2.store(v + 1, SeqCst);
        });
        let v = x.load(SeqCst);
        x.store(v + 1, SeqCst);
        t.join().unwrap();
        assert_eq!(x.load(SeqCst), 2, "lost increment");
    });
}

/// Three-thread exhaustive run completes and counts correctly (checks
/// the explorer's replay/backtracking bookkeeping on a bigger tree).
#[test]
fn three_thread_counter_exhaustive() {
    wool_loom::model(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let x = Arc::clone(&x);
            handles.push(thread::spawn(move || {
                x.fetch_add(1, SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.load(SeqCst), 3);
    });
}
