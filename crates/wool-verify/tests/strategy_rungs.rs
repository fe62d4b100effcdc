//! One real-code model per strategy rung: the Table II join ladder and
//! the Figure 4 steal variants all run the same fork shapes against one
//! miss-capped thief, through the production `exec.rs`.
//!
//! Run with: `cargo xtask loom`
#![cfg(loom)]

use wool_core::model::stats;
use wool_core::{
    LockedBase, StealLockBase, StealLockPeek, StealLockTrylock, Strategy, SyncOnTask, TaskSpecific,
    WoolAllPublic, WoolFull, WoolNoLeap,
};
use wool_verify::support::exec::check_region;

/// A nested fork followed by `for_each_spawn(3)` on a 16-slot stack,
/// then the same nested fork on a one-slot stack, where the inner
/// spawn overflows and runs inline. Every task has run exactly once
/// when its join returns, every join resolves, and steals equal stolen
/// joins.
fn rung<S: Strategy>() {
    check_region::<S, _>(2, 2, 16, 2, 6, |h, t| {
        t.fork(h, 2, |h| t.fork(h, 1, |_| t.run(0)));
        h.for_each_spawn(3, &|_, i| {
            t.run(3 + i);
        });
        (3..6).for_each(|i| t.assert_ran(i));
    });
    check_region::<S, _>(2, 2, 1, 2, 3, |h, t| {
        t.fork(h, 2, |h| t.fork(h, 1, |_| t.run(0)));
        assert_eq!(stats(h).overflow_inlines, 1, "the inner spawn overflows");
    });
}

macro_rules! rungs {
    ($($name:ident: $strategy:ty,)*) => {
        $(
            #[test]
            fn $name() {
                rung::<$strategy>();
            }
        )*
    };
}

rungs! {
    wool_full: WoolFull,
    wool_all_public: WoolAllPublic,
    wool_no_leap: WoolNoLeap,
    task_specific: TaskSpecific,
    sync_on_task: SyncOnTask,
    locked_base: LockedBase,
    steal_lock_base: StealLockBase,
    steal_lock_peek: StealLockPeek,
    steal_lock_trylock: StealLockTrylock,
}
