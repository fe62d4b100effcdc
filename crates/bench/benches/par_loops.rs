//! The paper's loop kernels, hand-rolled vs `wool-par` vs sequential.
//!
//! Two kernel shapes from `workloads::loops_par` — an in-place map
//! (`x <- x*x + 1`) and a dot-product reduce — each measured:
//!
//! * sequentially (the granularity model's `T_S`),
//! * with the hand-rolled recursive splitter below (the repository's
//!   one reference splitter besides wool-par's own) at the same grain
//!   the adaptive model picks ("default") and across a grain sweep,
//! * with `wool-par` iterators, adaptive and across the same sweep.
//!
//! Both hand-rolled kernels are checked against their sequential
//! versions before anything is timed.
//!
//! The acceptance bar for the iterator layer is to stay within 10% of
//! the hand-rolled splitter at the default grain: the abstraction may
//! not tax the fork path. Results land in `BENCH_par_loops.json` at
//! the repo root (median + p10/p90 per case) as the perf trajectory
//! future PRs compare against.

use wool_core::{default_workers, Fork, Pool, PoolConfig};
use workloads::loops_par::{dot_par, dot_par_grain, dot_seq, map_par, map_par_grain, map_seq};
use ws_bench::microbench::Bench;

/// Hand-rolled recursive splitting map: halve the slice until it is
/// at most `grain` items, then run the sequential loop.
fn map_hand<C: Fork>(c: &mut C, xs: &mut [u64], grain: usize) {
    if xs.len() <= grain {
        map_seq(xs);
        return;
    }
    let (lo, hi) = xs.split_at_mut(xs.len() / 2);
    c.fork(|c| map_hand(c, lo, grain), |c| map_hand(c, hi, grain));
}

/// Hand-rolled dot product with the same splitting rule.
fn dot_hand<C: Fork>(c: &mut C, xs: &[u64], ys: &[u64], grain: usize) -> u64 {
    if xs.len() <= grain {
        return dot_seq(xs, ys);
    }
    let mid = xs.len() / 2;
    let ((xl, xr), (yl, yr)) = (xs.split_at(mid), ys.split_at(mid));
    let (a, b) = c.fork(
        |c| dot_hand(c, xl, yl, grain),
        |c| dot_hand(c, xr, yr, grain),
    );
    a.wrapping_add(b)
}

/// Asserts that both hand-rolled kernels agree with their sequential
/// versions at every grain the bench times, on edge-case and full
/// sizes.
fn check_hand(pool: &mut Pool, grains: &[usize]) {
    for n in [0, 1, 255, N] {
        let xs: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        let ys: Vec<u64> = (0..n as u64).rev().collect();
        let mut expect = xs.clone();
        map_seq(&mut expect);
        for &g in grains {
            let mut hand = xs.clone();
            pool.run(|h| map_hand(h, &mut hand, g));
            assert_eq!(hand, expect, "map_hand n={n} grain={g}");
            let dot = pool.run(|h| dot_hand(h, &xs, &ys, g));
            assert_eq!(dot, dot_seq(&xs, &ys), "dot_hand n={n} grain={g}");
        }
    }
}

/// Items per kernel invocation: large enough to split 8 ways per
/// worker at default grain, small enough that one sample holds many
/// invocations.
const N: usize = 1 << 17;

/// Explicit leaf sizes for the grain sweep (items per leaf).
const GRAINS: [usize; 3] = [64, 1024, 16 * 1024];

fn main() {
    let mut b = Bench::from_args();
    let workers = default_workers();
    let mut pool: Pool = Pool::with_config(PoolConfig::with_workers(workers));
    let default_grain = wool_par::adaptive_grain(N, workers);
    println!("par_loops: n = {N}, workers = {workers}, default grain = {default_grain}");
    let mut grains = GRAINS.to_vec();
    grains.push(default_grain);
    check_hand(&mut pool, &grains);

    // --- map kernel -------------------------------------------------
    let mut xs = vec![1u64; N];
    b.bench("par_loops/map/seq", || map_seq(&mut xs));
    b.bench("par_loops/map/hand/default", || {
        pool.run(|h| map_hand(h, &mut xs, default_grain));
    });
    b.bench("par_loops/map/wool-par/default", || {
        pool.run(|h| map_par(h, &mut xs));
    });
    for g in GRAINS {
        b.bench(&format!("par_loops/map/hand/grain{g}"), || {
            pool.run(|h| map_hand(h, &mut xs, g));
        });
        b.bench(&format!("par_loops/map/wool-par/grain{g}"), || {
            pool.run(|h| map_par_grain(h, &mut xs, g));
        });
    }

    // --- reduce kernel (dot product) --------------------------------
    let ys: Vec<u64> = (0..N as u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
    let zs: Vec<u64> = (0..N as u64).rev().collect();
    let expect = dot_seq(&ys, &zs);
    b.bench("par_loops/reduce/seq", || {
        assert_eq!(dot_seq(&ys, &zs), expect);
    });
    b.bench("par_loops/reduce/hand/default", || {
        assert_eq!(pool.run(|h| dot_hand(h, &ys, &zs, default_grain)), expect);
    });
    b.bench("par_loops/reduce/wool-par/default", || {
        assert_eq!(pool.run(|h| dot_par(h, &ys, &zs)), expect);
    });
    for g in GRAINS {
        b.bench(&format!("par_loops/reduce/hand/grain{g}"), || {
            assert_eq!(pool.run(|h| dot_hand(h, &ys, &zs, g)), expect);
        });
        b.bench(&format!("par_loops/reduce/wool-par/grain{g}"), || {
            assert_eq!(pool.run(|h| dot_par_grain(h, &ys, &zs, g)), expect);
        });
    }

    b.finish();
    b.write_json("BENCH_par_loops.json");
}
