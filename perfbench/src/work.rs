//! The operations the workloads time, their inputs, and the sequential
//! references their outputs are checked against.
//!
//! `fib`, `stress` and the serve jobs are the kernels of the `workloads`
//! crate, which the paper experiments run; their inputs are the paper's
//! fixed problem sizes. The seed makes the data of `par`, never how much
//! work it does, so runs with different seeds measure the same thing.
//!
//! Each operation also has a serial elision: the same computation as plain
//! sequential code, with no task constructs. Its time is the `T_S` the
//! paper's speedups divide by.

use std::hint::black_box;

use wool_core::Fork;
use wool_par::{par_iter_mut, par_range};
use workloads::fib::{fib, fib_serial};
use workloads::stress::{leaf, tree, tree_serial};

/// splitmix64: the input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Work with a serial elision and a reference to check outputs against.
pub trait Serial: Send + Clone {
    type Out: Send;
    /// Untimed preparation before each run.
    fn prepare(&mut self) {}
    /// The computation as sequential code.
    fn serial(&mut self) -> Self::Out;
    /// Whether `out` equals the sequential reference.
    fn check(&self, out: &Self::Out) -> bool;
}

/// An operation run as the root task of one parallel region.
pub trait Op: Serial {
    /// The timed root task.
    fn run<C: Fork>(&mut self, c: &mut C) -> Self::Out;
}

/// fib(n) by iteration, the reference the recursions are checked against.
fn fib_value(n: u64) -> u64 {
    let (mut x, mut y) = (0u64, 1u64);
    for _ in 0..n {
        (x, y) = (y, x + y);
    }
    x
}

/// The paper's fib: one spawn per call and no cutoff.
#[derive(Clone, Copy)]
pub struct Fib {
    n: u64,
    expect: u64,
}

impl Fib {
    pub fn new(n: u64) -> Self {
        Fib {
            n,
            expect: fib_value(n),
        }
    }
}

impl Serial for Fib {
    type Out = u64;

    fn serial(&mut self) -> u64 {
        fib_serial(black_box(self.n))
    }

    fn check(&self, out: &u64) -> bool {
        *out == self.expect
    }
}

impl Op for Fib {
    fn run<C: Fork>(&mut self, c: &mut C) -> u64 {
        fib(c, self.n)
    }
}

/// The paper's stress program: a balanced binary task tree whose leaves
/// run a register-only loop.
#[derive(Clone, Copy)]
pub struct Stress {
    height: u32,
    iters: u64,
    expect: u64,
}

impl Stress {
    pub fn new(height: u32, iters: u64) -> Self {
        Stress {
            height,
            iters,
            // Every leaf returns the same checksum.
            expect: leaf(iters).wrapping_mul(1 << height),
        }
    }
}

impl Serial for Stress {
    type Out = u64;

    fn serial(&mut self) -> u64 {
        tree_serial(black_box(self.height), self.iters)
    }

    fn check(&self, out: &u64) -> bool {
        *out == self.expect
    }
}

impl Op for Stress {
    fn run<C: Fork>(&mut self, c: &mut C) -> u64 {
        tree(c, self.height, self.iters)
    }
}

/// A batch of small fib jobs, as serve clients submit them. Only the
/// serial elision lives here; the benchmark submits the jobs itself.
#[derive(Clone, Copy)]
pub struct Jobs {
    pub count: usize,
    pub n: u64,
    /// fib(n), the output of every job.
    pub expect: u64,
}

impl Jobs {
    pub fn new(count: usize, n: u64) -> Self {
        Jobs {
            count,
            n,
            expect: fib_value(n),
        }
    }
}

impl Serial for Jobs {
    /// The sum of the jobs' outputs.
    type Out = u64;

    fn serial(&mut self) -> u64 {
        (0..self.count).map(|_| fib_serial(black_box(self.n))).sum()
    }

    fn check(&self, out: &u64) -> bool {
        *out == self.expect * self.count as u64
    }
}

/// The paper's loop kernels on wool-par over seeded data: a map in place,
/// then a dot product of the result with the input.
///
/// `par_sort_unstable` is left out: its merge passes are bound by memory,
/// and its speedup over `sort_unstable` drifted by ±10% with the load
/// other tenants of a shared host put on memory.
#[derive(Clone)]
pub struct Par {
    input: Vec<u64>,
    buf: Vec<u64>,
    expect_dot: u64,
    expect_map: Vec<u64>,
}

/// Enough arithmetic per item that the map, like the paper's loop
/// kernels, is bound by the core and not by memory.
fn map_step(mut x: u64) -> u64 {
    for _ in 0..64 {
        x = x.wrapping_mul(x | 1).rotate_left(17);
    }
    x
}

impl Par {
    pub fn new(len: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let input: Vec<u64> = (0..len).map(|_| rng.next()).collect();
        let mut par = Par {
            buf: input.clone(),
            input,
            expect_dot: 0,
            expect_map: Vec::new(),
        };
        par.expect_dot = par.serial();
        par.expect_map = par.buf.clone();
        par
    }
}

impl Serial for Par {
    type Out = u64;

    fn prepare(&mut self) {
        self.buf.copy_from_slice(&self.input);
    }

    fn serial(&mut self) -> u64 {
        for x in self.buf.iter_mut() {
            *x = map_step(*x);
        }
        self.buf
            .iter()
            .zip(&self.input)
            .fold(0u64, |acc, (&m, &x)| acc.wrapping_add(m.wrapping_mul(x)))
    }

    fn check(&self, dot: &u64) -> bool {
        *dot == self.expect_dot && self.buf == self.expect_map
    }
}

impl Op for Par {
    fn run<C: Fork>(&mut self, c: &mut C) -> u64 {
        par_iter_mut(&mut self.buf).for_each(c, |x| *x = map_step(*x));
        let (buf, input) = (&self.buf, &self.input);
        par_range(0..buf.len())
            .map(|i| buf[i].wrapping_mul(input[i]))
            .reduce(c, || 0, u64::wrapping_add)
    }
}
