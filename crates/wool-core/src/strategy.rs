//! Compile-time scheduler strategy selection.
//!
//! The paper evaluates the direct task stack as a *ladder* of
//! implementation techniques (Table II for the join side, Figure 4 for
//! the steal side). Each rung is expressed here as a zero-sized type
//! implementing [`Strategy`]; the pool, spawn, join and steal code is
//! generic over the strategy, so every variant is fully monomorphized
//! and pays no runtime dispatch — exactly like recompiling the C run
//! time system with different options, which is what the paper did.

/// How thieves synchronize with the victim when stealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealSync {
    /// The direct task stack: CAS on the task descriptor's state word,
    /// no lock, `bot` re-checked after acquisition (thief back-off).
    NoLock,
    /// Take the victim's per-worker lock immediately (§IV-C *base*).
    LockBase,
    /// Read the task descriptor first; lock only if it looks like a
    /// stealable task (§IV-C *peek*).
    LockPeek,
    /// Peek, then `try_lock`; abort the attempt on contention
    /// (§IV-C *trylock*).
    LockTrylock,
}

/// A compile-time configuration of the scheduler.
///
/// The knobs correspond one-to-one to the implementation techniques
/// §III and §IV-B/C of the paper ablate.
pub trait Strategy: 'static + Send + Sync {
    /// Table II *base*: `top` is a shared atomic compared against `bot`
    /// to detect steals, instead of the state word in the descriptor,
    /// so every join takes the worker's lock.
    const SHARED_TOP: bool;

    /// Which steal-side synchronization the thieves use (Figure 4).
    const STEAL_SYNC: StealSync;

    /// §III-A: the inlined join calls the task body directly
    /// (monomorphized, optimizer-visible) instead of through the wrapper
    /// function pointer.
    const TASK_SPECIFIC_JOIN: bool;

    /// §III-B: the private-task optimization with the trip-wire
    /// publication scheme.
    const PRIVATE_TASKS: bool;

    /// Name used in reports (matches the paper's row/series labels).
    const NAME: &'static str;

    /// Whether a blocked join leap-frogs (steals from its thief) while
    /// waiting, or just spins. The paper observes (Figure 6 analysis)
    /// that "the LA part is small enough that one would say that simply
    /// waiting would be adequate" — this knob lets the ablation bench
    /// test that claim.
    const LEAPFROG: bool = true;

    /// Table II row "Private tasks (no private)": the private-task
    /// machinery is present, but every spawn publishes its task at once,
    /// so no join ever takes the private path. Only meaningful with
    /// `PRIVATE_TASKS`.
    const PUBLISH_ALL: bool = false;
}

/// The full Wool system: direct task stack + task-specific join +
/// private tasks. Row "Private tasks" in Table II, series "Wool"
/// everywhere else.
#[derive(Debug, Clone, Copy, Default)]
pub struct WoolFull;

impl Strategy for WoolFull {
    const SHARED_TOP: bool = false;
    const STEAL_SYNC: StealSync = StealSync::NoLock;
    const TASK_SPECIFIC_JOIN: bool = true;
    const PRIVATE_TASKS: bool = true;
    const NAME: &'static str = "wool";
}

/// The full Wool system with every task published at its spawn (Table
/// II row "Private tasks (no private)"): measures what the private-task
/// machinery costs when it never pays off.
#[derive(Debug, Clone, Copy, Default)]
pub struct WoolAllPublic;

impl Strategy for WoolAllPublic {
    const SHARED_TOP: bool = false;
    const STEAL_SYNC: StealSync = StealSync::NoLock;
    const TASK_SPECIFIC_JOIN: bool = true;
    const PRIVATE_TASKS: bool = true;
    const NAME: &'static str = "wool-all-public";
    const PUBLISH_ALL: bool = true;
}

/// Direct task stack with task-specific join but *all tasks public*
/// (Table II row "Task specific join"; Figure 4 series "nolock").
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskSpecific;

impl Strategy for TaskSpecific {
    const SHARED_TOP: bool = false;
    const STEAL_SYNC: StealSync = StealSync::NoLock;
    const TASK_SPECIFIC_JOIN: bool = true;
    const PRIVATE_TASKS: bool = false;
    const NAME: &'static str = "task-specific";
}

/// Synchronize on the task descriptor, but join through the generic
/// wrapper function (Table II row "Synchronize on task").
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncOnTask;

impl Strategy for SyncOnTask {
    const SHARED_TOP: bool = false;
    const STEAL_SYNC: StealSync = StealSync::NoLock;
    const TASK_SPECIFIC_JOIN: bool = false;
    const PRIVATE_TASKS: bool = false;
    const NAME: &'static str = "sync-on-task";
}

/// Table II row "Base": per-worker lock taken at every join, shared
/// `top`/`bot` comparison for steal detection, everything in the RTS.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockedBase;

impl Strategy for LockedBase {
    const SHARED_TOP: bool = true;
    const STEAL_SYNC: StealSync = StealSync::LockBase;
    const TASK_SPECIFIC_JOIN: bool = false;
    const PRIVATE_TASKS: bool = false;
    const NAME: &'static str = "base";
}

/// Figure 4 "base": join side as `TaskSpecific`, steal side locks the
/// victim immediately.
#[derive(Debug, Clone, Copy, Default)]
pub struct StealLockBase;

impl Strategy for StealLockBase {
    const SHARED_TOP: bool = false;
    const STEAL_SYNC: StealSync = StealSync::LockBase;
    const TASK_SPECIFIC_JOIN: bool = true;
    const PRIVATE_TASKS: bool = false;
    const NAME: &'static str = "steal-lock-base";
}

/// Figure 4 "peek": thieves read the descriptor before locking.
#[derive(Debug, Clone, Copy, Default)]
pub struct StealLockPeek;

impl Strategy for StealLockPeek {
    const SHARED_TOP: bool = false;
    const STEAL_SYNC: StealSync = StealSync::LockPeek;
    const TASK_SPECIFIC_JOIN: bool = true;
    const PRIVATE_TASKS: bool = false;
    const NAME: &'static str = "steal-lock-peek";
}

/// Figure 4 "trylock": peek plus non-blocking lock acquisition.
#[derive(Debug, Clone, Copy, Default)]
pub struct StealLockTrylock;

impl Strategy for StealLockTrylock {
    const SHARED_TOP: bool = false;
    const STEAL_SYNC: StealSync = StealSync::LockTrylock;
    const TASK_SPECIFIC_JOIN: bool = true;
    const PRIVATE_TASKS: bool = false;
    const NAME: &'static str = "steal-lock-trylock";
}

/// The full Wool system but with plain waiting instead of
/// leap-frogging at blocked joins (ablation of the paper's Figure 6
/// observation that leap-frogged work is usually negligible).
#[derive(Debug, Clone, Copy, Default)]
pub struct WoolNoLeap;

impl Strategy for WoolNoLeap {
    const SHARED_TOP: bool = false;
    const STEAL_SYNC: StealSync = StealSync::NoLock;
    const TASK_SPECIFIC_JOIN: bool = true;
    const PRIVATE_TASKS: bool = true;
    const NAME: &'static str = "wool-no-leapfrog";
    const LEAPFROG: bool = false;
}

#[cfg(test)]
#[allow(clippy::assertions_on_constants)] // the strategy constants ARE the subject
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ordered() {
        // The Table II ladder strictly adds techniques top to bottom.
        assert!(LockedBase::SHARED_TOP);
        assert!(!SyncOnTask::SHARED_TOP && !SyncOnTask::TASK_SPECIFIC_JOIN);
        assert!(TaskSpecific::TASK_SPECIFIC_JOIN && !TaskSpecific::PRIVATE_TASKS);
        assert!(WoolAllPublic::PRIVATE_TASKS && WoolAllPublic::PUBLISH_ALL);
        assert!(WoolFull::TASK_SPECIFIC_JOIN && WoolFull::PRIVATE_TASKS);
        assert!(!WoolFull::PUBLISH_ALL);
    }

    #[test]
    fn fig4_variants_only_differ_in_steal_sync() {
        assert_eq!(StealLockBase::STEAL_SYNC, StealSync::LockBase);
        assert_eq!(StealLockPeek::STEAL_SYNC, StealSync::LockPeek);
        assert_eq!(StealLockTrylock::STEAL_SYNC, StealSync::LockTrylock);
        assert_eq!(TaskSpecific::STEAL_SYNC, StealSync::NoLock);
        assert!(StealLockBase::TASK_SPECIFIC_JOIN);
        assert!(StealLockPeek::TASK_SPECIFIC_JOIN);
        assert!(StealLockTrylock::TASK_SPECIFIC_JOIN);
    }
}
