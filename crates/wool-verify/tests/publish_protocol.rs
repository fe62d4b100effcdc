//! Exhaustive models of the private-task machinery (§III-B) on the
//! `WoolFull` rung: the `n_public` boundary, the trip-wire
//! `publish_request` channel, the armed region start, the privatization
//! in joins, and the thief back-off that keeps thieves off private
//! descriptors. The owner and the thieves run the production `fork`,
//! `for_each_spawn` and `try_steal_from` of `exec.rs`.
//!
//! Run with: `cargo xtask loom`
#![cfg(loom)]

use wool_core::model::{request_publication, stats, Thief};
use wool_core::{Stats, WoolFull};
use wool_verify::support::exec::{check_region, check_region_with, thief_loop, Region};

/// The canonical private-task race (the comment block in `join_task`'s
/// private fast path): the first fork's task is public (armed start),
/// its inline join *privatizes* the boundary down, and the second fork
/// reuses the slot for a private task — while a stale thief that
/// validated against the old boundary still holds a CAS window. The
/// §III-B back-off clause (`n_public <= b` ⇒ restore the task word) is what makes
/// the owner's private spin terminate.
#[test]
fn private_join_vs_stale_thief_backoff() {
    check_region::<WoolFull, _>(2, 2, 16, 3, 2, |h, t| {
        t.fork(h, 0, |_| ());
        t.fork(h, 1, |_| ());
    });
}

/// Flags of the stale-thief scenario: the thief has started, and it is
/// through.
const STARTED: usize = 0;
const FINISHED: usize = 1;

/// A thief that makes a single steal attempt (more only while it keeps
/// stealing), bracketed by the two flags.
fn stale_thief(thief: Thief<WoolFull>, t: &Region) -> Stats {
    t.signal(STARTED);
    let stats = thief_loop(thief, t, 1);
    t.signal(FINISHED);
    stats
}

/// Three forks on one slot against the `stale_thief`. The first fork's call branch
/// waits for the thief to start and the third's for it to finish, which
/// spends no preemptions on either. With `publish`, a publication
/// request before the third fork makes that incarnation public.
fn stale_thief_over_three_incarnations(publish: bool) {
    check_region_with(3, 2, 16, 3, stale_thief, move |h, t| {
        // Incarnation 0 is public; its inline join privatizes the slot.
        t.fork(h, 0, |_| t.wait(STARTED));
        // Incarnation 1 is private: the stale CAS can land in its pop.
        t.fork(h, 1, |_| ());
        if publish {
            request_publication(h);
        }
        // Incarnation 2 stays in the slot until the thief is through.
        t.fork(h, 2, |_| t.wait(FINISHED));
    });
}

/// The stale thief's CAS lands inside the owner's private pop, between
/// its task-word load and its EMPTY store, and its back-off comes only
/// after the owner has run that task and spawned the next incarnation.
/// The back-off's compare-and-swap restore must leave that incarnation
/// alone; a plain store of the task word over it trips a transition
/// guard or runs a task twice.
#[test]
fn stale_backoff_after_slot_reuse() {
    stale_thief_over_three_incarnations(false);
}

/// **Known open defect**, the stale-thief double run (ROADMAP: "Every
/// task runs exactly once, even under a stale thief"), kept as a live
/// negative control on the shipped code: the same stale thief, but the owner
/// also *publishes* the next incarnation before the thief validates.
/// The validation (`bot` unchanged, slot below `n_public`) then passes,
/// and the thief announces `STOLEN` over that incarnation's task word: the
/// debug/loom guard fires, and a release build can run the task twice.
/// A CAS on the announcement alone is no fix, because the owner may
/// also have joined the incarnation and left `EMPTY`. Nor does the task
/// word tell incarnations apart: it is the wrapper's address, the same
/// for every incarnation of one task type. The planned fix is a privatization epoch in the
/// shared `n_public` word (same ROADMAP item), which the thief
/// re-validates after its CAS; with it, this becomes an ordinary
/// passing model and loses its `should_panic`.
#[test]
#[should_panic(expected = "STOLEN announcement")]
fn stale_announcement_over_published_incarnation() {
    stale_thief_over_three_incarnations(true);
}

/// The trip-wire publish path: `for_each_spawn(3)` pushes two tasks.
/// The first publishes at once (armed start); the second is private
/// unless a thief asked for more. Interleavings cover publish-then-steal,
/// steal-at-the-boundary-then-re-request (the trip wire), a privacy
/// miss answered by the next spawn, and the owner consuming everything
/// before any request lands.
#[test]
fn trip_wire_publishes_private_work() {
    check_region::<WoolFull, _>(2, 2, 16, 3, 3, |h, t| {
        h.for_each_spawn(3, &|_, i| {
            t.run(i);
        });
        (0..3).for_each(|i| t.assert_ran(i));
    });
}

/// The armed start of `Pool::run` (`PoolInner::begin_root`): worker 0's
/// `publish_request` is set before any thief runs, so the owner's first
/// spawn publishes without a request, whatever the thief has done so
/// far (only the owner publishes); the second spawn stays private
/// unless a thief asks. The thief may steal the first task at any
/// point; the joins must still privatize and resolve.
#[test]
fn armed_start_publishes_first_spawn() {
    check_region::<WoolFull, _>(2, 2, 16, 3, 2, |h, t| {
        t.fork(h, 0, |h| {
            assert_eq!(stats(h).publishes, 1, "the first spawn publishes");
            t.fork(h, 1, |_| ());
        });
    });
}

/// Two thieves against a private stack: each publication admits only
/// the descriptors below `n_public`, and the CAS plus the back-off admit
/// at most one thief per descriptor.
#[test]
fn two_thieves_on_private_stack() {
    check_region::<WoolFull, _>(2, 3, 16, 2, 2, |h, t| {
        t.fork(h, 0, |h| t.fork(h, 1, |_| ()));
    });
}
