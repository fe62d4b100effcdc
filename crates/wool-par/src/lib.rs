//! # wool-par — data-parallel iterators over the direct task stack
//!
//! A rayon-style data-parallel layer lowered onto `wool-core`'s
//! spawn/join via binary splitting. Where the paper hand-rolls its
//! recursive loop splitting per benchmark, this crate packages the same
//! lowering behind slice/range iterators (the `par_loops` bench keeps
//! one hand-rolled splitter to race it against):
//!
//! ```
//! use wool_core::Pool;
//! use wool_par::{par_iter, par_iter_mut, par_range};
//!
//! let mut pool: Pool = Pool::new(4);
//! let xs: Vec<u64> = (0..10_000).collect();
//! let sum = pool.run(|h| par_iter(&xs).map(|x| x * 2).sum(h));
//! assert_eq!(sum, 2 * (0..10_000u64).sum::<u64>());
//!
//! let mut ys = vec![1u64; 1024];
//! pool.run(|h| par_iter_mut(&mut ys).for_each(h, |y| *y += 1));
//! assert!(ys.iter().all(|&y| y == 2));
//!
//! let n_odd = pool.run(|h| par_range(0..1000).map(|i| i % 2).sum(h));
//! assert_eq!(n_odd, 500);
//! ```
//!
//! ## Adaptive splitting (the paper's granularity model)
//!
//! The splitter chooses its sequential-fallback cutoff from the
//! executor's *live worker count*; see [`adaptive_grain`]. In the
//! paper's §II terms: over-partitioning into ~8 leaves per worker keeps
//! the load-balancing granularity `G_L = T_S / N_M` small enough that
//! random stealing balances the loop, while a per-loop floor
//! (`with_grain`) bounds the task granularity `G_T = T_S / N_T` from
//! below so
//! per-task overhead (a few cycles on the private-task join fast path)
//! stays amortized. Because the direct task stack publishes only a
//! bounded public frontier (§III-B), the splits beyond that frontier
//! are spawned and joined entirely on the *private* portion of the
//! stack: zero atomic operations for the overwhelming majority of the
//! O(n/grain) interior forks, which is what makes this fine a grain
//! profitable at all (cf. Rito & Paulino, arXiv:1810.10615, on keeping
//! the fast path unsynchronized). Leaves below the cutoff run as plain
//! sequential loops with no scheduler involvement.
//!
//! Everything is generic over [`wool_core::Fork`], so the same
//! data-parallel program runs on every scheduler strategy, the
//! baseline pools, and the serial executor.

#![warn(missing_docs)]

pub mod iter;
pub mod producer;
pub mod sort;
mod split;

pub use iter::{ParIter, ParMap};
pub use producer::{Producer, RangeProducer, SliceMutProducer, SliceProducer};
pub use sort::par_sort_unstable;
pub use split::{adaptive_grain, TASKS_PER_WORKER};

use std::ops::Range;
use wool_core::Fork;

/// Runs `a` and `b`, potentially in parallel, returning both results —
/// the crate's binary fork-join primitive.
///
/// This is [`Fork::fork`] re-exported as a free function for symmetry
/// with `rayon::join`; `b` is spawned on the direct task stack and `a`
/// runs inline.
#[inline(always)]
pub fn join<C, RA, RB, FA, FB>(c: &mut C, a: FA, b: FB) -> (RA, RB)
where
    C: Fork,
    FA: FnOnce(&mut C) -> RA + Send,
    FB: FnOnce(&mut C) -> RB + Send,
    RA: Send,
    RB: Send,
{
    c.fork(a, b)
}

/// A parallel iterator over a shared slice (items are `&T`).
pub fn par_iter<T: Sync>(xs: &[T]) -> ParIter<SliceProducer<'_, T>> {
    ParIter::new(SliceProducer::new(xs))
}

/// A parallel iterator over a mutable slice (items are `&mut T`).
pub fn par_iter_mut<T: Send>(xs: &mut [T]) -> ParIter<SliceMutProducer<'_, T>> {
    ParIter::new(SliceMutProducer::new(xs))
}

/// A parallel iterator over an index range (items are `usize`).
pub fn par_range(r: Range<usize>) -> ParIter<RangeProducer> {
    ParIter::new(RangeProducer::new(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wool_core::Pool;

    #[test]
    fn join_runs_both() {
        let mut pool: Pool = Pool::new(2);
        let (a, b) = pool.run(|h| join(h, |_| 1u64, |_| 2u64));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn readme_shapes() {
        let mut pool: Pool = Pool::new(3);
        let xs: Vec<u64> = (0..4096).collect();
        let sum = pool.run(|h| par_iter(&xs).copied().sum(h));
        assert_eq!(sum, (0..4096u64).sum::<u64>());

        let mut ys = vec![0u32; 513];
        pool.run(|h| par_iter_mut(&mut ys).for_each(h, |y| *y = 7));
        assert!(ys.iter().all(|&y| y == 7));

        let n = pool.run(|h| par_range(3..1000).map(|i| i as u64).sum(h));
        assert_eq!(n, (3..1000u64).sum::<u64>());
    }
}
