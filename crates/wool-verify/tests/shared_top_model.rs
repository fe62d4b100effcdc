//! Exhaustive models of the **shared-top** protocol (the Table II
//! *base* rung, `LockedBase`): steal validity decided by the
//! `top_shared`/`bot` comparison under the victim lock, the state word
//! demoted to a completion signal. The owner and the thief run the
//! production `fork` and `try_steal_from` of `exec.rs`.
//!
//! The regression scenario here was found by `wool-par`'s property
//! tests: during a stolen join the owner leap-frogs, and leap-frogged
//! executions spawn on the owner's stack — their pushes raise
//! `top_shared` and their joins lower it only back to `k + 1` (the
//! lowest nested slot). If the post-wait `bot = k` restore does not
//! also re-lower `top_shared`, the consumed slot `k` re-enters the
//! `[bot, top_shared)` window and a thief steals a dead descriptor,
//! which the steal's transition guard reports.
//!
//! Run with: `cargo xtask loom`
#![cfg(loom)]

use wool_core::model::Thief;
use wool_core::sync::hint;
use wool_core::{LockedBase, Stats};
use wool_verify::support::exec::{check_region, check_region_with, thief_loop, Region};

/// Baseline: one task, one thief — the steal-vs-inline-join race under
/// the lock resolves to exactly one execution either way.
#[test]
fn shared_top_one_task_one_thief() {
    check_region::<LockedBase, _>(2, 2, 16, 3, 1, |h, t| {
        t.fork(h, 0, |_| ());
    });
}

/// Flags of the leap-frog scenario: tasks A and C have started.
const A_STARTED: usize = 0;
const C_STARTED: usize = 1;

/// A thief that retries until it has stolen task A, then probes the
/// owner's stack as usual.
fn first_steal_then_probe(mut thief: Thief<LockedBase>, t: &Region) -> Stats {
    while !thief.steal() {
        hint::spin_loop();
    }
    thief_loop(thief, t, 3)
}

/// The leap-frog regression, on two workers. The owner's call branch
/// waits until the thief has stolen task A, so the owner's join takes
/// the stolen path. A spawns C on the thief's stack and waits until the
/// owner's leap-frog steals it; C runs on the owner and forks D on the
/// owner's stack above the awaited slot. After its steal the thief keeps
/// probing the owner's stack, and its guard fails if the owner's `bot`
/// restore leaves `top_shared` above the consumed slot.
#[test]
fn shared_top_leapfrog_spawn_regression() {
    check_region_with(2, 2, 16, 3, first_steal_then_probe, |h, t| {
        let (_, a) = h.fork(
            |_| t.wait(A_STARTED),
            |h| {
                t.signal(A_STARTED);
                let (_, c) = h.fork(
                    |_| t.wait(C_STARTED),
                    |h| {
                        t.signal(C_STARTED);
                        t.fork(h, 2, |_| ());
                        t.run(1)
                    },
                );
                t.assert_joined(1, c);
                t.run(0)
            },
        );
        t.assert_joined(0, a);
    });
}
