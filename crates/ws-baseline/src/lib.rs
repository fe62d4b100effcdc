//! # ws-baseline — comparison schedulers for the Wool reproduction
//!
//! The Wool paper (Faxén, ICPP 2010) evaluates its direct task stack
//! against Cilk++ 4.3.4, Intel TBB 2.1 and icc's OpenMP 3.0 runtime.
//! Those systems are unavailable (and not Rust), so this crate rebuilds
//! schedulers embodying the *mechanisms* the paper attributes to them:
//!
//! * [`TbbLikePool`] — child stealing with **heap-allocated task
//!   objects** and a **Chase–Lev pointer deque** whose owner pop pays a
//!   sequentially-consistent fence (the Dijkstra-protocol cost family
//!   the paper discusses in §III-A).
//! * [`CilkLikePool`] — the same heap task frames behind a **mutex-
//!   protected deque**: owner pushes/pops and thief steals all take the
//!   victim's lock, reproducing the "extensive locking" the paper
//!   identifies as the source of Cilk++'s high steal cost.
//! * [`OmpLikePool`] — the locked pool plus a **global steal lock**,
//!   standing in for the more centralized icc OpenMP runtime.
//! * [`SerialExecutor`] — the no-overhead sequential baseline (`T_S`).
//!
//! All of them implement `wool_core::{Fork, Executor}`, so the
//! `workloads` crate runs identical programs on every system.
//!
//! The pools sit on two deque substrates of their own, generic over
//! `T: Send` and instantiated with pointers to heap task frames (the
//! paper's "keeping only pointers in their task queues"):
//!
//! * [`chase_lev`] — an owner/thief circular deque in the style of
//!   Chase & Lev (SPAA 2005) with the C11 orderings of Lê et al.
//!   (PPoPP 2013). The owner's pop pays the sequentially-consistent
//!   fence that the paper argues the direct task stack avoids.
//! * [`locked`] — a mutex-protected deque whose thieves take the
//!   victim's lock before they look for work (§IV-C's *base* protocol).
//!
//! See DESIGN.md §3 for the substitution argument and its limits.

#![warn(missing_docs)]

pub mod chase_lev;
pub mod locked;
pub mod node;
pub mod npool;
pub mod queues;
pub mod serial;

pub use chase_lev::ChaseLev;
pub use locked::LockedDeque;
pub use npool::{NodeCtx, NodePool, NodePoolConfig};
pub use queues::{ChaseLevQueue, LockedQueue, NodeQueue};
pub use serial::{SerialCtx, SerialExecutor};

/// Outcome of a steal attempt, shared by both deque families.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// A task was successfully taken from the victim.
    Success(T),
    /// The deque was observed empty.
    Empty,
    /// The attempt lost a race (CAS failure, lock contention, ...) and
    /// may be retried immediately.
    Retry,
}

impl<T> Steal<T> {
    /// Returns the stolen value, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }

    /// True if the victim was observed empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }
}

/// TBB-like scheduler: Chase–Lev deque of boxed task pointers.
pub type TbbLikePool = NodePool<ChaseLevQueue>;

/// Cilk++-like scheduler: per-worker locked deque of boxed tasks.
pub type CilkLikePool = NodePool<LockedQueue>;

/// OpenMP-like scheduler: locked deques plus a global steal lock.
pub type OmpLikePool = NodePool<LockedQueue>;

/// Creates a TBB-like pool with `workers` workers.
pub fn tbb_like(workers: usize) -> TbbLikePool {
    NodePool::with_config(NodePoolConfig {
        workers,
        global_steal_lock: false,
        name: "tbb-like",
    })
}

/// Creates a Cilk++-like pool with `workers` workers.
pub fn cilk_like(workers: usize) -> CilkLikePool {
    NodePool::with_config(NodePoolConfig {
        workers,
        global_steal_lock: false,
        name: "cilk-like",
    })
}

/// Creates an OpenMP-like pool with `workers` workers.
pub fn omp_like(workers: usize) -> OmpLikePool {
    NodePool::with_config(NodePoolConfig {
        workers,
        global_steal_lock: true,
        name: "omp-like",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wool_core::Fork;

    fn fib<C: Fork>(c: &mut C, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = c.fork(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }

    fn fib_ref(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib_ref(n - 1) + fib_ref(n - 2)
        }
    }

    #[test]
    fn tbb_like_fib_single() {
        let mut p = tbb_like(1);
        assert_eq!(p.run(|c| fib(c, 18)), fib_ref(18));
    }

    #[test]
    fn tbb_like_fib_multi() {
        let mut p = tbb_like(4);
        assert_eq!(p.run(|c| fib(c, 21)), fib_ref(21));
    }

    #[test]
    fn cilk_like_fib() {
        let mut p = cilk_like(3);
        assert_eq!(p.run(|c| fib(c, 20)), fib_ref(20));
    }

    #[test]
    fn omp_like_fib() {
        let mut p = omp_like(3);
        assert_eq!(p.run(|c| fib(c, 20)), fib_ref(20));
    }

    #[test]
    fn repeated_regions() {
        let mut p = tbb_like(2);
        for _ in 0..30 {
            assert_eq!(p.run(|c| fib(c, 12)), 144);
        }
    }

    #[test]
    fn for_each_spawn_all_pools() {
        use std::sync::atomic::{AtomicU64, Ordering};
        fn check<Q: crate::queues::NodeQueue>(mut p: NodePool<Q>) {
            let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
            p.run(|c| {
                c.for_each_spawn(64, &|_c, i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
        check(tbb_like(3));
        check(cilk_like(3));
        check(omp_like(3));
    }

    #[test]
    fn stats_accumulate() {
        let mut p = tbb_like(1);
        p.reset_stats();
        p.run(|c| fib(c, 15));
        let s = p.stats();
        assert!(s.spawns > 500, "spawns = {}", s.spawns);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let mut p = tbb_like(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.run(|c| {
                let ((), ()) = c.fork(|_| {}, |_| panic!("boom"));
            })
        }));
        assert!(r.is_err());
        assert_eq!(p.run(|c| fib(c, 10)), 55);
    }

    #[test]
    fn panic_in_call_branch_cleans_up() {
        let mut p = tbb_like(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.run(|c| {
                let (_, _): ((), u64) = c.fork(|_| panic!("call branch"), |_| 42u64);
            })
        }));
        assert!(r.is_err());
        assert_eq!(p.run(|c| fib(c, 10)), 55);
    }

    #[test]
    fn nested_for_each_mixed_with_fork() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut p = tbb_like(3);
        let total = AtomicU64::new(0);
        p.run(|c| {
            c.for_each_spawn(8, &|c, i| {
                let (x, y) = c.fork(|c| fib(c, 10), |_| i as u64);
                total.fetch_add(x + y, Ordering::Relaxed);
            });
        });
        // 8 * fib(10) + sum(0..8)
        assert_eq!(total.load(Ordering::Relaxed), 8 * 55 + 28);
    }
}
