//! wool-par tour: data-parallel iterators on the direct task stack.
//!
//! Computes a few map/reduce kernels and a parallel sort, showing the
//! adaptive grain the splitter picks and the scheduler counters the
//! run produced (steals stay modest because interior forks ride the
//! private task path).
//!
//! ```text
//! cargo run --release -p wool-par --example par -- [workers]
//! ```

use wool_core::Pool;
use wool_par::{adaptive_grain, join, par_iter, par_iter_mut, par_range, par_sort_unstable};

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(wool_core::default_workers);

    let n = 1 << 20;
    let mut pool: Pool = Pool::new(workers);
    println!("workers        : {workers}");
    println!("items          : {n}");
    println!(
        "adaptive grain : {} (len / (8 * workers))",
        adaptive_grain(n, workers)
    );
    // A floor on the leaf size for loops whose items are too cheap to
    // fork over one by one: the map below runs leaves of at least 64.
    let grain = adaptive_grain(n, workers).max(64);

    // Map over a mutable slice: xs[i] = i^2 (mod 2^64).
    let mut xs: Vec<u64> = (0..n as u64).collect();
    pool.run(|h| {
        par_iter_mut(&mut xs)
            .with_grain(grain)
            .for_each(h, |x| *x = x.wrapping_mul(*x))
    });
    assert_eq!(xs[3], 9);

    // Reduce: sum of the mapped slice, and a dot product over a range.
    let sum = pool.run(|h| par_iter(&xs).copied().sum(h));
    println!("sum x[i]^2     : {sum}");
    let ys: Vec<u64> = (0..n as u64).rev().collect();
    let dot = pool.run(|h| par_range(0..n).map(|i| xs[i].wrapping_mul(ys[i])).sum(h));
    println!("dot(x^2, y)    : {dot}");

    // Two independent reductions through the binary `join` primitive.
    let (mx, mn) = pool.run(|h| {
        let (xs, ys) = (&xs, &ys);
        join(
            h,
            |h| par_iter(xs).copied().reduce(h, || 0, u64::max),
            |h| par_iter(ys).copied().reduce(h, || u64::MAX, u64::min),
        )
    });
    println!("max x / min y  : {mx} / {mn}");

    // Merge-based parallel sort.
    let mut zs: Vec<u64> = (0..n as u64)
        .map(|i| (i * 2654435761) % 1_000_003)
        .collect();
    pool.run(|h| par_sort_unstable(h, &mut zs));
    assert!(zs.windows(2).all(|w| w[0] <= w[1]));
    println!("sorted         : {} items", zs.len());

    let report = pool.last_report().expect("a region just ran");
    println!(
        "scheduler      : {} spawns, {} steals, {} private joins, {} public joins",
        report.total.spawns,
        report.total.steals,
        report.total.inlined_private,
        report.total.inlined_public
    );
}
