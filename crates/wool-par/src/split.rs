//! The adaptive binary splitter.
//!
//! One recursive driver lowers every consumer in [`crate::iter`] onto
//! `Fork::fork`: halve the producer until it is at most `grain` items,
//! run the leaf sequentially, combine results on the way back up. The
//! grain itself comes from [`adaptive_grain`] unless the caller pinned
//! one with `with_grain`.

use crate::producer::Producer;
use wool_core::Fork;

/// Over-partitioning factor: target number of leaves per worker.
///
/// The paper's load-balancing granularity `G_L = T_S / N_M` argument:
/// with `p` workers and `8p` roughly equal leaves, the busiest worker
/// holds at most ~`T_S/p + T_S/(8p)` of the serial time under random
/// stealing, i.e. within 12.5% of perfect balance, while the number of
/// forks — and with it the (already tiny) scheduling overhead — stays
/// linear in `p`, not in `n`.
pub const TASKS_PER_WORKER: usize = 8;

/// Chooses the sequential-fallback cutoff (leaf size, in items) for a
/// range of `len` items on an executor with `workers` workers.
///
/// `len / (8 * workers)`, floored at 1 (a zero-item leaf could not
/// terminate the recursion). A caller that knows its per-item cost sets
/// a coarser floor, the `G_T` bound, per call with `with_grain`.
pub fn adaptive_grain(len: usize, workers: usize) -> usize {
    let pieces = workers.saturating_mul(TASKS_PER_WORKER).max(1);
    (len / pieces).max(1)
}

/// Resolves the effective grain for one consumer invocation: an
/// explicit `with_grain` wins; otherwise the adaptive model decides.
pub(crate) fn effective_grain<C: Fork>(c: &C, len: usize, explicit: Option<usize>) -> usize {
    match explicit {
        Some(g) => g.max(1),
        None => adaptive_grain(len, c.num_workers()),
    }
}

/// The recursive binary split: divide until `<= grain`, run `leaf`
/// sequentially, combine partial results with `op`.
///
/// The right half is spawned on the direct task stack (private until
/// the public frontier demands otherwise), the left half is a plain
/// recursive call — exactly the paper's `SPAWN/CALL/JOIN` lowering.
pub(crate) fn split_reduce<C, P, T, Leaf, Op>(
    c: &mut C,
    p: P,
    grain: usize,
    leaf: &Leaf,
    op: &Op,
) -> T
where
    C: Fork,
    P: Producer,
    T: Send,
    Leaf: Fn(P) -> T + Sync,
    Op: Fn(T, T) -> T + Sync,
{
    let len = p.len();
    if len <= grain {
        return leaf(p);
    }
    c.note_split(len);
    let (lo, hi) = p.split_at(len / 2);
    let (a, b) = c.fork(
        move |c| split_reduce(c, lo, grain, leaf, op),
        move |c| split_reduce(c, hi, grain, leaf, op),
    );
    op(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::producer::RangeProducer;
    use wool_core::Pool;

    #[test]
    fn grain_scales_with_workers_and_floors() {
        // 1M items on 4 workers: 8*4 = 32 pieces.
        assert_eq!(adaptive_grain(1 << 20, 4), (1 << 20) / 32);
        // Degenerate inputs stay at least 1.
        assert_eq!(adaptive_grain(0, 4), 1);
        assert_eq!(adaptive_grain(10, usize::MAX), 1);
    }

    #[test]
    fn split_reduce_covers_range() {
        let mut pool: Pool = Pool::new(4);
        let total = pool.run(|h| {
            split_reduce(
                h,
                RangeProducer::new(0..100_000),
                64,
                &|p| p.fold_seq(0u64, |a, i| a + i as u64),
                &|a, b| a + b,
            )
        });
        assert_eq!(total, (0..100_000u64).sum::<u64>());
    }
}
