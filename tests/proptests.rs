//! Property-style tests across crates. Randomly shaped fork programs
//! run on every `SystemKind` and on a Wool pool with a 16-slot task
//! stack; each run must run every task exactly once and match the
//! serial executor bit for bit. The span model obeys its algebraic
//! laws. Cases are drawn from a seeded xorshift64* generator so runs
//! are deterministic without an external property testing crate.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

use wool_core::span::combine;
use wool_core::{Fork, Job, PoolConfig};
use ws_bench::{System, SystemKind};

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() as f64 / u64::MAX as f64) * (hi - lo)
    }
}

/// A randomly shaped fork program. Leaves and `ForEach` indices each
/// own one counter, and `Split` cells one slot of a `&mut [u64]`; both
/// are numbered depth first, so a subtree's cells are one range.
#[derive(Debug, Clone)]
enum Tree {
    /// Spins `v` rounds and bumps counter `id`.
    Leaf {
        id: usize,
        v: u64,
    },
    Fork(Box<Tree>, Box<Tree>),
    Seq(Box<Tree>, Box<Tree>),
    /// `for_each_spawn(n)`; index `i` bumps counter `base + i`.
    ForEach {
        base: usize,
        n: usize,
    },
    /// Forks on `split_at_mut` halves of its `len` cells, as a parallel
    /// sort does; cell `base + k` gains `mix(base + k)`.
    Split {
        base: usize,
        len: usize,
    },
}

impl Tree {
    fn cells(&self) -> usize {
        match self {
            Tree::Fork(a, b) | Tree::Seq(a, b) => a.cells() + b.cells(),
            Tree::Split { len, .. } => *len,
            Tree::Leaf { .. } | Tree::ForEach { .. } => 0,
        }
    }
}

/// Builds trees and numbers their counters and cells.
struct Gen {
    rng: Rng,
    counters: usize,
    cells: usize,
}

impl Gen {
    /// A tree of at most `depth` levels. Any node may end early in a
    /// leaf, so shapes are unbalanced, as search trees are.
    fn tree(&mut self, depth: u32) -> Tree {
        if depth == 0 || self.rng.next() % 4 == 0 {
            let size = 1 + (self.rng.next() % 40) as usize;
            return match self.rng.next() % 3 {
                0 => {
                    self.counters += 1;
                    Tree::Leaf {
                        id: self.counters - 1,
                        v: self.rng.next() % 50,
                    }
                }
                1 => {
                    self.counters += size;
                    Tree::ForEach {
                        base: self.counters - size,
                        n: size,
                    }
                }
                _ => {
                    self.cells += size;
                    Tree::Split {
                        base: self.cells - size,
                        len: size,
                    }
                }
            };
        }
        let a = Box::new(self.tree(depth - 1));
        let b = Box::new(self.tree(depth - 1));
        if self.rng.next() % 2 == 0 {
            Tree::Fork(a, b)
        } else {
            Tree::Seq(a, b)
        }
    }
}

/// SplitMix64's finalizer: a cell's expected increment.
fn mix(k: usize) -> u64 {
    let mut z = (k as u64).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Runs `t` over its `cells`. The float result combines the halves of
/// every fork and sequence in tree order, so any executor that runs the
/// tree faithfully returns the serial executor's bits.
fn eval<C: Fork>(c: &mut C, t: &Tree, counters: &[AtomicU32], cells: &mut [u64]) -> (u64, f64) {
    match t {
        Tree::Leaf { id, v } => {
            counters[*id].fetch_add(1, Relaxed);
            for _ in 0..*v {
                std::hint::spin_loop();
            }
            (v.wrapping_mul(0x9E3779B9).rotate_left(5), *v as f64 / 7.0)
        }
        Tree::Fork(a, b) => {
            let (ca, cb) = cells.split_at_mut(a.cells());
            let ((x, f), (y, g)) =
                c.fork(|c| eval(c, a, counters, ca), |c| eval(c, b, counters, cb));
            (x.wrapping_add(y.rotate_left(1)), f + g)
        }
        Tree::Seq(a, b) => {
            let (ca, cb) = cells.split_at_mut(a.cells());
            let (x, f) = eval(c, a, counters, ca);
            let (y, g) = eval(c, b, counters, cb);
            (x.wrapping_sub(y).rotate_left(3), f * 0.75 - g)
        }
        Tree::ForEach { base, n } => {
            let acc = AtomicU64::new(0);
            c.for_each_spawn(*n, &|_c, i| {
                counters[base + i].fetch_add(1, Relaxed);
                acc.fetch_add((i as u64 + 1).wrapping_mul(7), Relaxed);
            });
            (acc.load(Relaxed), (*n as f64).sqrt())
        }
        Tree::Split { base, .. } => split(c, *base, cells),
    }
}

fn split<C: Fork>(c: &mut C, base: usize, cells: &mut [u64]) -> (u64, f64) {
    if let [cell] = cells {
        let m = mix(base);
        *cell = cell.wrapping_add(m);
        return (m, (m % 1000) as f64 * 0.001);
    }
    let mid = cells.len() / 2;
    let (lo, hi) = cells.split_at_mut(mid);
    let ((x, f), (y, g)) = c.fork(|c| split(c, base, lo), |c| split(c, base + mid, hi));
    (x ^ y.rotate_left(5), f + g)
}

struct TreeJob<'a> {
    tree: &'a Tree,
    counters: &'a [AtomicU32],
    cells: &'a mut [u64],
}

impl Job<(u64, f64)> for TreeJob<'_> {
    fn call<C: Fork>(self, ctx: &mut C) -> (u64, f64) {
        eval(ctx, self.tree, self.counters, self.cells)
    }
}

/// Runs one generated tree on `sys` with fresh counters and cells,
/// checks that every leaf, `ForEach` index and cell ran exactly once,
/// and returns the integer result and the float result's bits.
fn run_tree(sys: &mut System, label: &str, seed: u64, gen: &Gen, t: &Tree) -> (u64, u64) {
    let counters: Vec<AtomicU32> = (0..gen.counters).map(|_| AtomicU32::new(0)).collect();
    let mut cells = vec![0u64; gen.cells];
    let (x, f) = sys.run_job(TreeJob {
        tree: t,
        counters: &counters,
        cells: &mut cells,
    });
    for (i, n) in counters.iter().enumerate() {
        let n = n.load(Relaxed);
        assert_eq!(
            n, 1,
            "{label}, seed {seed}: counter {i} ran {n} times in {t:?}"
        );
    }
    for (k, &cell) in cells.iter().enumerate() {
        assert_eq!(
            cell,
            mix(k),
            "{label}, seed {seed}: cell {k} is wrong in {t:?}"
        );
    }
    (x, f.to_bits())
}

/// Random fork programs, unbalanced and with up to 40-wide loops and
/// `&mut` splits, run on every system at 3 workers and on a Wool pool
/// whose 16-slot task stack overflows. Each run executes every task
/// exactly once and returns the serial executor's integer and float
/// results, bit for bit.
#[test]
fn random_trees_agree() {
    let mut systems: Vec<(String, System)> = SystemKind::ALL
        .iter()
        .map(|&k| (k.name().to_string(), System::create(k, 3)))
        .collect();
    let small = PoolConfig::with_workers(3).stack_capacity(16);
    systems.push((
        "wool, stack_capacity(16)".to_string(),
        System::create_with(SystemKind::Wool, small),
    ));
    let mut serial = System::create(SystemKind::Serial, 1);
    let mut overflows = 0;
    for seed in 0..64 {
        let mut gen = Gen {
            rng: Rng::new(0x7EE5 + seed),
            counters: 0,
            cells: 0,
        };
        let t = gen.tree(5);
        let expect = run_tree(&mut serial, "serial", seed, &gen, &t);
        for (label, sys) in &mut systems {
            let got = run_tree(sys, label, seed, &gen, &t);
            assert_eq!(got, expect, "{label}, seed {seed}: results differ on {t:?}");
        }
        overflows += systems.last().unwrap().1.last_stats().overflow_inlines;
    }
    assert!(overflows > 0, "the 16-slot task stack never overflowed");
}

/// span combine: commutative, bounded by sequential sum and by
/// max + overhead, monotone in the overhead parameter.
#[test]
fn combine_laws() {
    let mut rng = Rng::new(0xC0B1);
    for _ in 0..200 {
        let a = rng.next() % 1_000_000;
        let b = rng.next() % 1_000_000;
        let c1 = rng.next() % 10_000;
        let c2 = rng.next() % 10_000;
        assert_eq!(combine(a, b, c1), combine(b, a, c1));
        let v = combine(a, b, c1);
        assert!(v <= a + b);
        assert!(v >= a.max(b).min(a + b));
        assert!(v <= a.max(b) + c1);
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        assert!(combine(a, b, lo) <= combine(a, b, hi));
    }
}

/// combine with zero cost is exactly max; with huge cost it's the
/// sequential sum.
#[test]
fn combine_limits() {
    let mut rng = Rng::new(0x11135);
    for _ in 0..200 {
        let a = rng.next() % 1_000_000;
        let b = rng.next() % 1_000_000;
        assert_eq!(combine(a, b, 0), a.max(b));
        assert_eq!(combine(a, b, u64::MAX / 2), a + b);
    }
}

/// The steal-cost model never predicts more than linear speedup and
/// degrades monotonically with the steal cost.
#[test]
fn model_sanity() {
    use ws_bench::model::ModelInputs;
    use ws_bench::steal_cost_model_speedup;
    let mut rng = Rng::new(0x30DE1);
    for _ in 0..100 {
        let work = rng.f64(1_000.0, 1e9);
        let c2 = rng.f64(0.0, 1e6);
        let steals = rng.f64(0.0, 1e4);
        for p in [2usize, 4, 8] {
            let s = steal_cost_model_speedup(ModelInputs {
                work,
                c2,
                cp: c2,
                steals,
                p,
            });
            assert!(s <= p as f64 + 1e-9, "superlinear prediction {s} at p={p}");
            assert!(s >= 0.0);
            let s_worse = steal_cost_model_speedup(ModelInputs {
                work,
                c2: c2 * 2.0,
                cp: c2 * 2.0,
                steals,
                p,
            });
            assert!(s_worse <= s + 1e-9, "higher cost must not speed up");
        }
    }
}
