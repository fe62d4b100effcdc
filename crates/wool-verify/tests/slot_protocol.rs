//! Exhaustive models of the slot state machine (§III-A): owner swap vs.
//! thief CAS over `EMPTY`/`TASK(w)`/`STOLEN(i)`/`DONE`, with public-only
//! descriptors (the `TaskSpecific` rung; the `n_public` machinery is
//! modeled in `publish_protocol.rs`). The owner and the thieves run the
//! production `fork` and `try_steal_from` of `exec.rs`.
//!
//! Run with: `cargo xtask loom`
#![cfg(loom)]

use wool_core::TaskSpecific;
use wool_verify::support::exec::check_region;

/// The core owner-join-races-thief window: one task, one thief. In some
/// interleavings the owner's swap wins (inline join), in others the
/// thief's CAS wins and the owner must follow the EMPTY → STOLEN → DONE
/// resolution path, restoring `bot` afterwards. Either way the task has
/// run exactly once when the join returns, and the join always resolves.
#[test]
fn one_task_owner_vs_one_thief() {
    check_region::<TaskSpecific, _>(2, 2, 16, 3, 1, |h, t| {
        t.fork(h, 0, |_| ());
    });
}

/// Two thieves race each other *and* the owner for a single task: the
/// CAS admits exactly one winner, the loser observes the transient EMPTY
/// and retries or gives up.
#[test]
fn one_task_two_thieves() {
    check_region::<TaskSpecific, _>(2, 3, 16, 2, 1, |h, t| {
        t.fork(h, 0, |_| ());
    });
}

/// Descriptor reincarnation: the owner forks twice on the same slot
/// while a thief runs. A stale thief that read `bot` before the first
/// incarnation resolved may CAS the second incarnation's task word — the
/// §III-A back-off validation (`bot` re-check) decides whether that
/// acquisition stands. Both incarnations must run exactly once.
#[test]
fn reincarnation_stale_thief() {
    check_region::<TaskSpecific, _>(2, 2, 16, 3, 2, |h, t| {
        t.fork(h, 0, |_| ());
        t.fork(h, 1, |_| ());
    });
}

/// Depth-two stack: a nested fork spawns two tasks and joins them in
/// LIFO order while a thief steals from the bottom — the configuration
/// where `bot` and `top` genuinely diverge and the post-steal `bot`
/// restore must line up with the next join.
#[test]
fn two_slots_lifo_join_vs_thief() {
    check_region::<TaskSpecific, _>(2, 2, 16, 3, 2, |h, t| {
        t.fork(h, 0, |h| t.fork(h, 1, |_| ()));
    });
}
