//! Exhaustive models of the real Vyukov-style MPMC [`Injector`]:
//! concurrent submit/dequeue, the full and empty edges, and sequence-lap
//! wraparound. The queue under test is `wool_core::Injector` itself —
//! under `--cfg loom` its atomics route through the explorer.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p wool-verify --release`
#![cfg(loom)]

use std::sync::Arc;
use wool_core::sync::atomic::Ordering::Relaxed;
use wool_core::sync::{hint, thread};
use wool_core::Injector;
use wool_verify::support::bounded;
use wool_verify::support::probe::{probe, Counters};

/// Two producers and one consumer over a capacity-2 queue: every job
/// arrives exactly once (the sum over distinct values proves no loss
/// and no duplication).
#[test]
fn two_producers_one_consumer_exactly_once() {
    wool_loom::model_config(bounded(2), || {
        let q = Arc::new(Injector::with_capacity(2));
        let c = Arc::new(Counters::default());
        let producers: Vec<_> = [1usize, 2]
            .into_iter()
            .map(|v| {
                let q = Arc::clone(&q);
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    q.push(probe(&c, v))
                        .ok()
                        .expect("capacity-2 queue full with 2 producers");
                })
            })
            .collect();
        let mut got = 0;
        while got < 2 {
            match q.pop() {
                Some(job) => {
                    job.run();
                    got += 1;
                }
                None => hint::spin_loop(),
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        assert!(q.pop().is_none());
        assert_eq!(c.sum.load(Relaxed), 3, "1 + 2, each exactly once");
        assert_eq!(c.ran.load(Relaxed), 2);
        assert_eq!(c.dropped.load(Relaxed), 0);
    });
}

/// One producer pushing three jobs through a capacity-2 queue while the
/// consumer drains it: exercises the full edge (push returns the job
/// back) and the sequence-lap wraparound arithmetic on the third cell
/// reuse.
#[test]
fn spsc_full_edge_and_wraparound() {
    wool_loom::model_config(bounded(2), || {
        let q = Arc::new(Injector::with_capacity(2));
        let c = Arc::new(Counters::default());
        let producer = {
            let q = Arc::clone(&q);
            let c = Arc::clone(&c);
            thread::spawn(move || {
                let mut full_hits = 0usize;
                for v in [1usize, 2, 3] {
                    let mut job = probe(&c, v);
                    loop {
                        match q.push(job) {
                            Ok(()) => break,
                            Err(back) => {
                                full_hits += 1;
                                job = back;
                                hint::spin_loop();
                            }
                        }
                    }
                }
                full_hits
            })
        };
        let mut got = 0;
        while got < 3 {
            match q.pop() {
                Some(job) => {
                    job.run();
                    got += 1;
                }
                None => hint::spin_loop(),
            }
        }
        let _ = producer.join().unwrap();
        assert!(q.pop().is_none());
        assert_eq!(c.sum.load(Relaxed), 6, "1 + 2 + 3, each exactly once");
        assert_eq!(c.ran.load(Relaxed), 3);
        assert_eq!(c.dropped.load(Relaxed), 0);
    });
}

/// Deterministic edges inside the model runtime: pop on empty is None,
/// a full queue hands the job back exactly once, and dropping the queue
/// disposes of unconsumed jobs.
#[test]
fn sequential_edges() {
    wool_loom::model_config(bounded(2), || {
        let c = Arc::new(Counters::default());
        let q = Injector::with_capacity(2);
        assert!(q.pop().is_none());
        q.push(probe(&c, 1)).ok().unwrap();
        q.push(probe(&c, 2)).ok().unwrap();
        let bounced = q.push(probe(&c, 3)).expect_err("full at capacity 2");
        drop(bounced);
        assert_eq!(c.dropped.load(Relaxed), 1);
        drop(q);
        assert_eq!(c.dropped.load(Relaxed), 3, "queued jobs disposed on drop");
        assert_eq!(c.ran.load(Relaxed), 0);
    });
}
