//! Property-style correctness tests: every wool-par consumer must
//! agree with the sequential reference on randomized inputs, under
//! every scheduler strategy (the full Table II / Figure 4 ladder) and
//! the serial baseline executor. Inputs come from a seeded xorshift64*
//! stream so runs are deterministic without an external property
//! testing crate.

use wool_core::{
    Fork, LockedBase, Pool, StealLockBase, StealLockPeek, StealLockTrylock, Strategy, SyncOnTask,
    TaskSpecific, WoolFull, WoolNoLeap,
};
use wool_par::{par_iter, par_iter_mut, par_range, par_sort_unstable};
use ws_baseline::SerialExecutor;

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
}

/// The size ladder every property runs over: empty, singleton, odd,
/// power-of-two boundaries, large.
const SIZES: [usize; 7] = [0, 1, 7, 255, 256, 1023, 40_000];

fn input(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.next() % 1_000_003).collect()
}

/// `$it`, with its grain pinned to `$grain` when that is `Some`.
macro_rules! grained {
    ($it:expr, $grain:expr) => {{
        let it = $it;
        match $grain {
            Some(g) => it.with_grain(g),
            None => it,
        }
    }};
}

/// Runs every consumer-vs-reference property on one executor context,
/// at the adaptive grain or at `grain`.
fn check_all_props<C: Fork>(c: &mut C, xs: &[u64], label: &str, grain: Option<usize>) {
    // map + sum.
    let expect: u64 = xs
        .iter()
        .map(|&x| x.wrapping_mul(3))
        .fold(0, u64::wrapping_add);
    let got = grained!(par_iter(xs).map(|x| x.wrapping_mul(3)), grain).fold(
        c,
        || 0u64,
        |a, x| a.wrapping_add(x),
        |a, b| a.wrapping_add(b),
    );
    assert_eq!(got, expect, "map+fold on {label}, n = {}", xs.len());

    let got = grained!(par_iter(xs).map(|x| x.wrapping_mul(3)), grain).sum(c);
    assert_eq!(got, expect, "map+sum on {label}, n = {}", xs.len());

    // reduce (max; identity = 0 works for the unsigned inputs).
    let expect = xs.iter().copied().max().unwrap_or(0);
    let got = grained!(par_iter(xs).copied(), grain).reduce(c, || 0, u64::max);
    assert_eq!(got, expect, "reduce max on {label}, n = {}", xs.len());

    // for_each over a mutable copy.
    let mut ys = xs.to_vec();
    grained!(par_iter_mut(&mut ys), grain).for_each(c, |y| *y = y.wrapping_add(1));
    assert!(
        ys.iter().zip(xs).all(|(y, x)| *y == x.wrapping_add(1)),
        "for_each on {label}, n = {}",
        xs.len()
    );

    // range sum.
    let n = xs.len();
    let expect: usize = (0..n).sum();
    assert_eq!(
        grained!(par_range(0..n), grain).sum(c),
        expect,
        "range sum on {label}, n = {n}"
    );

    // sort.
    let mut zs = xs.to_vec();
    let mut expect = xs.to_vec();
    expect.sort_unstable();
    par_sort_unstable(c, &mut zs);
    assert_eq!(zs, expect, "sort on {label}, n = {}", xs.len());
}

fn check_strategy<S: Strategy>(workers: usize, grain: Option<usize>) {
    let mut pool: Pool<S> = Pool::new(workers);
    for (i, &n) in SIZES.iter().enumerate() {
        let xs = input(n, 0xC0FFEE + i as u64);
        pool.run(|h| check_all_props(h, &xs, S::NAME, grain));
    }
}

macro_rules! strategy_tests {
    ($($test:ident => $strategy:ty),+ $(,)?) => {
        $(
            #[test]
            fn $test() {
                check_strategy::<$strategy>(4, None);
            }
        )+
    };
}

strategy_tests! {
    props_wool_full => WoolFull,
    props_wool_no_leap => WoolNoLeap,
    props_task_specific => TaskSpecific,
    props_sync_on_task => SyncOnTask,
    props_locked_base => LockedBase,
    props_steal_lock_base => StealLockBase,
    props_steal_lock_peek => StealLockPeek,
    props_steal_lock_trylock => StealLockTrylock,
}

#[test]
fn props_single_worker_and_coarse_floor() {
    // Degenerate shapes: one worker (pure private path) and a grain
    // coarser than most inputs (splitting mostly disabled).
    check_strategy::<WoolFull>(1, None);
    check_strategy::<WoolFull>(3, Some(4096));
}

#[test]
fn props_serial_executor() {
    let mut e = SerialExecutor::new();
    for (i, &n) in SIZES.iter().enumerate() {
        let xs = input(n, 0xBEEF + i as u64);
        e.run(|c| check_all_props(c, &xs, "serial", None));
    }
}
