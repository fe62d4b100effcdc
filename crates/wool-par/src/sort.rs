//! Merge-based parallel sort.
//!
//! Classic fork-join merge sort: halve until the adaptive cutoff,
//! `sort_unstable` the leaves, merge on the way back up through one
//! scratch buffer allocated up front. The recursion is the same binary
//! splitter as the iterator consumers, so the interior forks ride the
//! private task path.
//!
//! `T: Copy` keeps the scratch-buffer merge safe without move
//! gymnastics — the honest trade for a dependency-free implementation;
//! the paper's sorting workloads are numeric.

use crate::split::adaptive_grain;
use wool_core::Fork;

/// Below this many elements sorting is always sequential: a
/// `sort_unstable` leaf this small outruns any fork (the `G_T` floor
/// specific to sorting, where per-item work is ~log n comparisons).
pub const SORT_SEQUENTIAL_CUTOFF: usize = 512;

/// Sorts `xs` in parallel (unstable, merge-based).
///
/// The leaf cutoff is adaptive: `len / (8 * workers)`, floored by
/// [`SORT_SEQUENTIAL_CUTOFF`].
///
/// ```
/// use wool_core::Pool;
///
/// let mut pool: Pool = Pool::new(4);
/// let mut xs: Vec<u64> = (0..10_000).rev().collect();
/// pool.run(|h| wool_par::par_sort_unstable(h, &mut xs));
/// assert!(xs.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn par_sort_unstable<C, T>(c: &mut C, xs: &mut [T])
where
    C: Fork,
    T: Ord + Copy + Send,
{
    let n = xs.len();
    if n <= SORT_SEQUENTIAL_CUTOFF {
        xs.sort_unstable();
        return;
    }
    let grain = adaptive_grain(n, c.num_workers()).max(SORT_SEQUENTIAL_CUTOFF);
    let mut scratch = xs.to_vec();
    sort_rec(c, xs, &mut scratch, grain);
}

fn sort_rec<C, T>(c: &mut C, xs: &mut [T], scratch: &mut [T], grain: usize)
where
    C: Fork,
    T: Ord + Copy + Send,
{
    let n = xs.len();
    if n <= grain {
        xs.sort_unstable();
        return;
    }
    c.note_split(n);
    let mid = n / 2;
    {
        let (xl, xr) = xs.split_at_mut(mid);
        let (sl, sr) = scratch.split_at_mut(mid);
        c.fork(
            move |c| sort_rec(c, xl, sl, grain),
            move |c| sort_rec(c, xr, sr, grain),
        );
    }
    merge_halves(xs, mid, scratch);
}

/// Merges the sorted halves `xs[..mid]` and `xs[mid..]` via `scratch`.
fn merge_halves<T: Ord + Copy>(xs: &mut [T], mid: usize, scratch: &mut [T]) {
    scratch[..xs.len()].copy_from_slice(xs);
    let (left, right) = scratch[..xs.len()].split_at(mid);
    let (mut i, mut j) = (0, 0);
    for slot in xs.iter_mut() {
        if j >= right.len() || (i < left.len() && left[i] <= right[j]) {
            *slot = left[i];
            i += 1;
        } else {
            *slot = right[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wool_core::Pool;

    fn scrambled(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761) % 100_003).collect()
    }

    #[test]
    fn sorts_across_cutoff_boundary() {
        let mut pool: Pool = Pool::new(4);
        for n in [0, 1, 2, 511, 512, 513, 4096, 50_000] {
            let mut xs = scrambled(n);
            let mut expect = xs.clone();
            expect.sort_unstable();
            pool.run(|h| par_sort_unstable(h, &mut xs));
            assert_eq!(xs, expect, "n = {n}");
        }
    }

    #[test]
    fn sorts_with_duplicates_and_sorted_input() {
        let mut pool: Pool = Pool::new(2);
        let mut xs = vec![7u64; 10_000];
        pool.run(|h| par_sort_unstable(h, &mut xs));
        assert!(xs.iter().all(|&x| x == 7));
        let mut ys: Vec<u64> = (0..10_000).collect();
        pool.run(|h| par_sort_unstable(h, &mut ys));
        assert!(ys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merge_halves_is_a_merge() {
        let mut xs = vec![1u64, 4, 9, 2, 3, 10];
        let mut scratch = vec![0u64; 6];
        merge_halves(&mut xs, 3, &mut scratch);
        assert_eq!(xs, [1, 2, 3, 4, 9, 10]);
    }
}
