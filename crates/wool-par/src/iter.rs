//! Parallel iterators: lazy descriptions of a data-parallel loop,
//! consumed by `for_each`/`fold`/`reduce`/`sum`.
//!
//! Unlike rayon, consumers take the [`Fork`] context explicitly — the
//! executing worker is a capability in this codebase, not ambient
//! state — so the call shape is `par_iter(&xs).map(f).sum(h)`.

use std::marker::PhantomData;

use crate::producer::Producer;
use crate::split::{effective_grain, split_reduce};
use wool_core::Fork;

/// A lazy parallel iterator over a [`Producer`].
///
/// Construct with [`crate::par_iter`], [`crate::par_iter_mut`] or
/// [`crate::par_range`]; the grain (sequential-fallback cutoff) is
/// chosen adaptively unless pinned with [`with_grain`].
///
/// [`with_grain`]: ParIter::with_grain
pub struct ParIter<P> {
    p: P,
    grain: Option<usize>,
}

impl<P: Producer> ParIter<P> {
    pub(crate) fn new(p: P) -> Self {
        ParIter { p, grain: None }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// Pins the sequential-fallback cutoff to `grain` items instead of
    /// the adaptive model: a floor on the task granularity `G_T` for a
    /// loop whose items are too cheap to fork over one by one.
    ///
    /// # Panics
    /// Panics if `grain == 0`.
    pub fn with_grain(mut self, grain: usize) -> Self {
        assert!(grain >= 1, "grain must be at least 1");
        self.grain = Some(grain);
        self
    }

    /// Maps every item through `f` (lazy; composes with the same
    /// consumers).
    pub fn map<F, R>(self, f: F) -> ParMap<P, F, R>
    where
        F: Fn(P::Item) -> R + Sync,
        R: Send,
    {
        ParMap {
            it: self,
            f,
            _out: PhantomData,
        }
    }

    /// Runs `f` on every item, in parallel.
    pub fn for_each<C, F>(self, c: &mut C, f: F)
    where
        C: Fork,
        F: Fn(P::Item) + Sync,
    {
        let grain = effective_grain(c, self.p.len(), self.grain);
        split_reduce(
            c,
            self.p,
            grain,
            &|p: P| p.fold_seq((), |(), x| f(x)),
            &|(), ()| (),
        );
    }

    /// Parallel fold: each leaf starts from `identity()` and folds its
    /// items with `fold`; partial accumulators are merged with
    /// `combine`. `combine` must be associative and `identity` its
    /// unit, or the result depends on the split points.
    pub fn fold<C, A, ID, F, OP>(self, c: &mut C, identity: ID, fold: F, combine: OP) -> A
    where
        C: Fork,
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, P::Item) -> A + Sync,
        OP: Fn(A, A) -> A + Sync,
    {
        let grain = effective_grain(c, self.p.len(), self.grain);
        split_reduce(
            c,
            self.p,
            grain,
            &|p: P| p.fold_seq(identity(), &fold),
            &combine,
        )
    }

    /// Parallel reduction of the items themselves with an associative
    /// `op`; `identity()` must be `op`'s unit.
    pub fn reduce<C, ID, OP>(self, c: &mut C, identity: ID, op: OP) -> P::Item
    where
        C: Fork,
        P::Item: Send,
        ID: Fn() -> P::Item + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Sync,
    {
        self.fold(c, &identity, &op, &op)
    }

    /// Sums the items (`Default::default()` as the zero).
    pub fn sum<C>(self, c: &mut C) -> P::Item
    where
        C: Fork,
        P::Item: Send + Default + std::ops::Add<Output = P::Item>,
    {
        self.reduce(c, P::Item::default, |a, b| a + b)
    }
}

impl<'a, T, P> ParIter<P>
where
    T: Copy + Sync + 'a,
    P: Producer<Item = &'a T>,
{
    /// Copies out of a by-reference iterator, like `Iterator::copied`
    /// (`par_iter(&xs).copied().sum(h)`).
    pub fn copied(self) -> ParMap<P, fn(&'a T) -> T, T>
    where
        T: Send,
    {
        self.map(|x: &'a T| *x)
    }
}

/// A lazy mapped parallel iterator (see [`ParIter::map`]). Its
/// consumers are [`ParIter`]'s, with the map fused into each leaf's
/// loop.
pub struct ParMap<P, F, R> {
    it: ParIter<P>,
    f: F,
    _out: PhantomData<fn() -> R>,
}

impl<P, F, R> ParMap<P, F, R>
where
    P: Producer,
    F: Fn(P::Item) -> R + Sync,
    R: Send,
{
    /// Number of items.
    pub fn len(&self) -> usize {
        self.it.len()
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.it.is_empty()
    }

    /// Pins the sequential-fallback cutoff (see [`ParIter::with_grain`]).
    ///
    /// # Panics
    /// Panics if `grain == 0`.
    pub fn with_grain(self, grain: usize) -> Self {
        ParMap {
            it: self.it.with_grain(grain),
            ..self
        }
    }

    /// Runs `g` on every mapped item, in parallel.
    pub fn for_each<C, G>(self, c: &mut C, g: G)
    where
        C: Fork,
        G: Fn(R) + Sync,
    {
        let f = self.f;
        self.it.for_each(c, |x| g(f(x)))
    }

    /// Parallel fold over the mapped items (see [`ParIter::fold`]).
    pub fn fold<C, A, ID, G, OP>(self, c: &mut C, identity: ID, fold: G, combine: OP) -> A
    where
        C: Fork,
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, R) -> A + Sync,
        OP: Fn(A, A) -> A + Sync,
    {
        let f = self.f;
        self.it.fold(c, identity, |a, x| fold(a, f(x)), combine)
    }

    /// Parallel reduction of the mapped items (see [`ParIter::reduce`]).
    pub fn reduce<C, ID, OP>(self, c: &mut C, identity: ID, op: OP) -> R
    where
        C: Fork,
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        self.fold(c, &identity, &op, &op)
    }

    /// Sums the mapped items (`Default::default()` as the zero).
    pub fn sum<C>(self, c: &mut C) -> R
    where
        C: Fork,
        R: Default + std::ops::Add<Output = R>,
    {
        self.reduce(c, R::default, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use crate::{par_iter, par_iter_mut, par_range};
    use wool_core::Pool;

    #[test]
    fn empty_and_singleton() {
        let mut pool: Pool = Pool::new(2);
        let xs: [u64; 0] = [];
        assert_eq!(pool.run(|h| par_iter(&xs).copied().sum(h)), 0);
        assert!(par_iter(&xs).is_empty());
        let one = [41u64];
        assert_eq!(pool.run(|h| par_iter(&one).map(|x| x + 1).sum(h)), 42);
        assert_eq!(pool.run(|h| par_range(0..0).sum(h)), 0);
    }

    #[test]
    fn explicit_grain_still_covers() {
        let mut pool: Pool = Pool::new(4);
        for grain in [1usize, 3, 64, 1 << 20] {
            let total = pool.run(|h| par_range(0..10_001).with_grain(grain).sum(h));
            assert_eq!(total, (0..10_001).sum::<usize>(), "grain {grain}");
        }
    }

    #[test]
    fn fold_counts_leaves_consistently() {
        let mut pool: Pool = Pool::new(3);
        let xs: Vec<u32> = (0..997).collect();
        let (sum, n) = pool.run(|h| {
            par_iter(&xs).fold(
                h,
                || (0u64, 0u64),
                |(s, n), x| (s + *x as u64, n + 1),
                |a, b| (a.0 + b.0, a.1 + b.1),
            )
        });
        assert_eq!(n, 997);
        assert_eq!(sum, (0..997u64).sum::<u64>());
    }

    #[test]
    fn reduce_max() {
        let mut pool: Pool = Pool::new(3);
        let xs: Vec<u64> = (0..5000).map(|i| (i * 2654435761) % 10_007).collect();
        let expect = *xs.iter().max().unwrap();
        let got = pool.run(|h| par_iter(&xs).copied().reduce(h, || 0, u64::max));
        assert_eq!(got, expect);
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        let mut pool: Pool = Pool::new(4);
        let mut xs = vec![0u64; 12_345];
        pool.run(|h| par_iter_mut(&mut xs).for_each(h, |x| *x += 1));
        assert!(xs.iter().all(|&x| x == 1));
    }

    #[test]
    fn grain_floor_respected() {
        // A grain far coarser than the adaptive one: 1000 items halve
        // into four leaves of 250, so the loop forks three times.
        let mut pool: Pool = Pool::new(2);
        let total = pool.run(|h| par_range(0..1000).with_grain(256).sum(h));
        assert_eq!(total, (0..1000).sum::<usize>());
        assert_eq!(pool.last_report().unwrap().total.spawns, 3);
    }

    #[test]
    #[should_panic(expected = "grain must be at least 1")]
    fn zero_grain_rejected() {
        let _ = par_range(0..10).with_grain(0);
    }
}
