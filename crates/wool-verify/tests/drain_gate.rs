//! Exhaustive model of a serve pool's drain gate, run as shipped: the
//! real one-worker `ServePool`, its `submit`, `shutdown` and
//! `serve_loop`, over the closed bit of the real `Injector`.
//!
//! `shutdown` closes the injector with one `fetch_or` on its enqueue
//! position, and a push claims its cell with a CAS on the same word, so
//! each submission is ordered before or after the close. One before it
//! is counted by `is_empty` from its claim on, so the worker, which
//! exits only on an empty queue after it reads `shutdown`, runs it
//! first. One after it gets its job back and is refused.
//!
//! Run with: `cargo xtask loom`
#![cfg(loom)]

use std::sync::Arc;
use wool_core::sync::thread;
use wool_core::{PoolConfig, ServePool, SubmitError, WoolFull};
use wool_verify::support::bounded;

/// One client submits two jobs while the pool shuts down. Every accepted
/// job has run, with its own value, by the time `shutdown` returns;
/// every refusal is `ShuttingDown`; the report counts exactly the
/// accepted jobs.
#[test]
fn submit_racing_shutdown_runs_or_refuses() {
    wool_loom::model_config(bounded(3), || {
        let pool = Arc::new(ServePool::<WoolFull>::with_config(
            PoolConfig::with_workers(1).injector_capacity(2),
        ));
        let client = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || [1usize, 2].map(|v| (v, pool.submit(move |_| v))))
        };
        let report = pool.shutdown().expect("first shutdown");
        let mut accepted = 0;
        for (v, sent) in client.join().unwrap() {
            match sent {
                Ok(h) => {
                    accepted += 1;
                    // The workers have exited, so the job ran before them.
                    assert!(h.is_finished(), "accepted job {v} never ran");
                    assert_eq!(h.join(), v);
                }
                Err(e) => assert_eq!(e, SubmitError::ShuttingDown, "job {v}"),
            }
        }
        assert_eq!(report.jobs, accepted);
    });
}
