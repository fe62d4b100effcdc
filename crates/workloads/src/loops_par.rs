//! Two loop kernels on `wool-par`, with their sequential baselines: an
//! in-place map (`x <- x*x + 1`, wrapping) and a dot-product reduce.
//! Both are memory-light enough that per-task overhead — the thing the
//! paper's granularity model is about — dominates at small grains.
//!
//! Each kernel comes as `*_seq` (plain sequential loop, the `T_S`
//! baseline), `*_par` (adaptive grain) and `*_par_grain` (pinned
//! grain). The `par_loops` bench races them against a hand-rolled
//! recursive splitter that lives in the bench itself.

use wool_core::Fork;
use wool_par::{par_iter_mut, par_range};

/// The map step: one cheap, pure update per item.
#[inline(always)]
pub fn map_step(x: u64) -> u64 {
    x.wrapping_mul(x).wrapping_add(1)
}

/// Sequential map baseline.
pub fn map_seq(xs: &mut [u64]) {
    for x in xs.iter_mut() {
        *x = map_step(*x);
    }
}

/// `wool-par` map with adaptive grain.
pub fn map_par<C: Fork>(c: &mut C, xs: &mut [u64]) {
    par_iter_mut(xs).for_each(c, |x| *x = map_step(*x));
}

/// `wool-par` map at an explicit grain.
pub fn map_par_grain<C: Fork>(c: &mut C, xs: &mut [u64], grain: usize) {
    par_iter_mut(xs)
        .with_grain(grain)
        .for_each(c, |x| *x = map_step(*x));
}

/// Sequential dot product baseline (wrapping arithmetic).
pub fn dot_seq(xs: &[u64], ys: &[u64]) -> u64 {
    assert_eq!(xs.len(), ys.len());
    let mut acc = 0u64;
    for i in 0..xs.len() {
        acc = acc.wrapping_add(xs[i].wrapping_mul(ys[i]));
    }
    acc
}

/// `wool-par` dot product with adaptive grain.
pub fn dot_par<C: Fork>(c: &mut C, xs: &[u64], ys: &[u64]) -> u64 {
    assert_eq!(xs.len(), ys.len());
    par_range(0..xs.len())
        .map(|i| xs[i].wrapping_mul(ys[i]))
        .reduce(c, || 0, |a, b| a.wrapping_add(b))
}

/// `wool-par` dot product at an explicit grain.
pub fn dot_par_grain<C: Fork>(c: &mut C, xs: &[u64], ys: &[u64], grain: usize) -> u64 {
    assert_eq!(xs.len(), ys.len());
    par_range(0..xs.len())
        .map(|i| xs[i].wrapping_mul(ys[i]))
        .with_grain(grain)
        .reduce(c, || 0, |a, b| a.wrapping_add(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wool_core::Pool;

    fn data(n: usize) -> (Vec<u64>, Vec<u64>) {
        let xs: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        let ys: Vec<u64> = (0..n as u64).rev().collect();
        (xs, ys)
    }

    #[test]
    fn map_variants_agree() {
        let mut pool: Pool = Pool::new(4);
        for n in [0usize, 1, 255, 10_000] {
            let (base, _) = data(n);
            let mut expect = base.clone();
            map_seq(&mut expect);

            let mut par = base.clone();
            pool.run(|h| map_par(h, &mut par));
            assert_eq!(par, expect, "par n={n}");

            let mut parg = base;
            pool.run(|h| map_par_grain(h, &mut parg, 7));
            assert_eq!(parg, expect, "par grain n={n}");
        }
    }

    #[test]
    fn dot_variants_agree() {
        let mut pool: Pool = Pool::new(3);
        for n in [0usize, 1, 1023, 20_000] {
            let (xs, ys) = data(n);
            let expect = dot_seq(&xs, &ys);
            assert_eq!(pool.run(|h| dot_par(h, &xs, &ys)), expect);
            assert_eq!(pool.run(|h| dot_par_grain(h, &xs, &ys, 33)), expect);
        }
    }
}
