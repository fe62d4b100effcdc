//! Exhaustive models of the private-task machinery (§III-B): the
//! `n_public` boundary, the trip-wire `publish_request` channel, the
//! privatization in joins, and the thief back-off clause that keeps
//! thieves off private descriptors.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p wool-verify --release`
#![cfg(loom)]

use std::sync::Arc;
use wool_core::sync::atomic::AtomicBool;
use wool_core::sync::atomic::Ordering::{Relaxed, SeqCst};
use wool_core::sync::{hint, thread};
use wool_verify::support::{bounded, Attempt, VictimModel};

/// See `slot_protocol.rs`: miss-capped thief loop; the cap bounds each
/// execution's length while the DFS varies where the attempts land.
fn thief_loop(m: &VictimModel, me: usize, owner_done: &AtomicBool, max_misses: usize) -> usize {
    let mut executed = 0;
    let mut misses = 0;
    while misses < max_misses {
        match m.thief_attempt(me) {
            Attempt::Executed(_) => executed += 1,
            Attempt::Empty | Attempt::Retry => {
                misses += 1;
                if owner_done.load(SeqCst) {
                    break;
                }
                hint::spin_loop();
            }
        }
    }
    executed
}

/// The canonical private-task race (the comment block in `join_task`'s
/// private fast path): the owner joins a public task inline,
/// *privatizes* the boundary down, and reuses the slot for a private
/// task — while a stale thief that validated against the old boundary
/// still holds a CAS window. The §III-B back-off clause
/// (`n_public <= b` ⇒ restore TASK) is what makes the owner's private
/// spin terminate; the model proves the combination leaves every task
/// executed exactly once and the join never hangs.
#[test]
fn private_join_vs_stale_thief_backoff() {
    wool_loom::model_config(bounded(2), || {
        let m = Arc::new(VictimModel::new(1, 2, true));
        let done = Arc::new(AtomicBool::new(false));
        let thief = {
            let m = Arc::clone(&m);
            let done = Arc::clone(&done);
            thread::spawn(move || thief_loop(&m, 7, &done, 3))
        };
        // Incarnation 1: published. The join privatizes on the inline
        // path (n_public -> 0).
        let top = m.owner_push(0, 0, true);
        let top = m.owner_join(top);
        // Incarnation 2: private. A stale thief CAS here must back off.
        let top = m.owner_push(top, 1, false);
        let _ = m.owner_join(top);
        done.store(true, SeqCst);
        let _ = thief.join().unwrap();
        m.assert_each_executed_once();
    });
}

/// The stale thief's CAS lands inside the owner's private pop, between
/// its TASK load and its EMPTY store, and its back-off comes only after
/// the owner has run that task and spawned the next incarnation. The
/// restore must leave that incarnation alone; a plain TASK store over
/// it trips the back-off's transition guard here. The thief stops at
/// its first miss, and the owner waits for it to start before its
/// first join and to finish before its last one, which spends no
/// preemptions on either.
#[test]
fn stale_backoff_after_slot_reuse() {
    wool_loom::model_config(bounded(3), || {
        let m = Arc::new(VictimModel::new(1, 3, true));
        let started = Arc::new(AtomicBool::new(false));
        let thief = {
            let m = Arc::clone(&m);
            let started = Arc::clone(&started);
            thread::spawn(move || {
                started.store(true, SeqCst);
                thief_loop(&m, 7, &AtomicBool::new(true), 1)
            })
        };
        // Incarnation 0 is public; its inline join privatizes the slot.
        let top = m.owner_push(0, 0, true);
        while !started.load(SeqCst) {
            hint::spin_loop();
        }
        let top = m.owner_join(top);
        // Incarnation 1 is private: the stale CAS can land in its pop.
        let top = m.owner_push(top, 1, false);
        let top = m.owner_join(top);
        // Incarnation 2 stays in the slot until the thief is through.
        let top = m.owner_push(top, 2, false);
        let _ = thief.join().unwrap();
        let _ = m.owner_join(top);
        m.assert_each_executed_once();
    });
}

/// The trip-wire publish path on a fresh private stack: thieves find
/// `bot >= n_public`, raise `publish_request`, and the owner's next
/// spawn publishes a batch. Interleavings cover publish-then-steal,
/// steal-the-batch-then-re-request (the trip wire fires again at the
/// boundary), and the owner consuming everything before any publication
/// lands.
#[test]
fn trip_wire_publishes_private_work() {
    wool_loom::model_config(bounded(2), || {
        let m = Arc::new(VictimModel::new(2, 2, true));
        let done = Arc::new(AtomicBool::new(false));
        let thief = {
            let m = Arc::clone(&m);
            let done = Arc::clone(&done);
            thread::spawn(move || thief_loop(&m, 7, &done, 3))
        };
        let top = m.owner_push(0, 0, false);
        let top = m.owner_push(top, 1, false);
        let top = m.owner_join(top);
        let top = m.owner_join(top);
        assert_eq!(top, 0);
        done.store(true, SeqCst);
        let _ = thief.join().unwrap();
        m.assert_each_executed_once();
        // The boundary never exceeds the number of descriptors that
        // existed, and ends at or below the empty stack's top.
        assert!(m.n_public.load(Relaxed) <= 2);
    });
}

/// The armed start of `Pool::run`: worker 0's `publish_request` is set
/// before any thief runs, so the owner's first spawn publishes without a
/// request, while later spawns stay private until a thief asks. The
/// thief may steal the first task at any point; the joins must still
/// privatize and resolve, every task must run exactly once, and the
/// boundary never passes the two descriptors that existed.
#[test]
fn armed_start_publishes_first_spawn() {
    wool_loom::model_config(bounded(2), || {
        let m = VictimModel::new(2, 2, true);
        m.publish_request.store(true, Relaxed);
        let m = Arc::new(m);
        let done = Arc::new(AtomicBool::new(false));
        let thief = {
            let m = Arc::clone(&m);
            let done = Arc::clone(&done);
            thread::spawn(move || thief_loop(&m, 7, &done, 3))
        };
        let top = m.owner_push(0, 0, false);
        // Only the owner writes `n_public`: the first spawn published,
        // whatever the thief has done so far.
        assert_eq!(m.n_public.load(Relaxed), 1);
        let top = m.owner_push(top, 1, false);
        let top = m.owner_join(top);
        let top = m.owner_join(top);
        assert_eq!(top, 0);
        done.store(true, SeqCst);
        let _ = thief.join().unwrap();
        m.assert_each_executed_once();
        assert!(m.n_public.load(Relaxed) <= 2);
    });
}

/// Two thieves against a private stack: the publication batch admits
/// one public descriptor at a time, so at most one thief can win each
/// batch and the second CAS (or the back-off) must reject the other.
#[test]
fn two_thieves_on_private_stack() {
    wool_loom::model_config(bounded(2), || {
        let m = Arc::new(VictimModel::new(2, 2, true));
        let done = Arc::new(AtomicBool::new(false));
        let thieves: Vec<_> = [7usize, 8]
            .into_iter()
            .map(|me| {
                let m = Arc::clone(&m);
                let done = Arc::clone(&done);
                thread::spawn(move || thief_loop(&m, me, &done, 2))
            })
            .collect();
        let top = m.owner_push(0, 0, false);
        let top = m.owner_push(top, 1, false);
        let top = m.owner_join(top);
        let _ = m.owner_join(top);
        done.store(true, SeqCst);
        for t in thieves {
            let _ = t.join().unwrap();
        }
        m.assert_each_executed_once();
    });
}
