//! The region claim of `Pool::run` and `background_loop`
//! (`wool-core/src/pool.rs`). A background worker joins a region with one
//! CAS on its claim word before it touches the region; at region end the
//! coordinator closes the word with another CAS and waits only for a
//! worker whose join won. The model runs the production
//! `PoolInner::join_region` and `PoolInner::close_region` for one
//! background worker over two consecutive regions. The worker may join a
//! region late (it saw the region active just before it ended) or skip it
//! entirely, as a parked worker does.
//!
//! Run with: `cargo xtask loom`
#![cfg(loom)]

use std::sync::Arc;
use wool_core::model::ModelPool;
use wool_core::sync::atomic::Ordering::{Acquire, Release};
use wool_core::sync::atomic::{AtomicBool, AtomicU64};
use wool_core::sync::{hint, thread};
use wool_core::WoolFull;
use wool_verify::support::bounded;

const EPOCHS: u64 = 2;

/// What each side observed of one region.
#[derive(Default)]
struct Region {
    join_won: AtomicBool,
    close_won: AtomicBool,
    waited: AtomicBool,
}

#[derive(Default)]
struct Shared {
    /// The most recently opened region (`Pool::run`'s epoch bump and
    /// `active` store, folded together).
    opened: AtomicU64,
    /// The worker's report mailbox (`Worker::report_epoch`).
    report: AtomicU64,
    regions: [Region; EPOCHS as usize + 1],
}

/// For each region: exactly one of join and close wins; a closed-out
/// worker never begins the region; and when the join wins, the
/// coordinator observes the joined epoch and waits for the report.
#[test]
fn join_and_close_claim_each_region_once() {
    wool_loom::model_config(bounded(3), || {
        let (pool, mut thieves) = ModelPool::<WoolFull>::new(2, 16);
        let thief = thieves.pop().unwrap();
        let s = Arc::new(Shared::default());
        let worker = {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                let mut seen = 0;
                while seen < EPOCHS {
                    let e = s.opened.load(Acquire);
                    if e == seen {
                        hint::spin_loop();
                        continue;
                    }
                    seen = e;
                    let r = &s.regions[e as usize];
                    if thief.join(e) {
                        r.join_won.store(true, Release);
                        // Here `background_loop` calls `begin`.
                        assert!(
                            !r.close_won.load(Acquire),
                            "a closed-out worker began region {e}"
                        );
                        s.report.store(e, Release);
                    }
                }
            })
        };
        for e in 1..=EPOCHS {
            s.opened.store(e, Release);
            let r = &s.regions[e as usize];
            if pool.close(1, e) {
                r.close_won.store(true, Release);
            } else {
                assert_eq!(pool.claim_word(1), e, "a failed close finds the join");
                while s.report.load(Acquire) != e {
                    hint::spin_loop();
                }
                r.waited.store(true, Release);
            }
        }
        worker.join().unwrap();
        for e in 1..=EPOCHS {
            let r = &s.regions[e as usize];
            let joined = r.join_won.load(Acquire);
            assert_ne!(
                joined,
                r.close_won.load(Acquire),
                "exactly one of join and close wins region {e}"
            );
            assert_eq!(joined, r.waited.load(Acquire), "region {e}");
        }
    });
}
