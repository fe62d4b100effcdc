//! # workloads — the Wool paper's benchmark programs
//!
//! Every program from §IV-A of Faxén, *Efficient Work Stealing for Fine
//! Grained Parallelism* (ICPP 2010), written once against
//! `wool_core::Fork` so the same code runs on every scheduler the
//! repository provides (all Wool strategy variants, the TBB/Cilk++/
//! OpenMP-like baselines, and the serial executor):
//!
//! * [`fib`] — spawn-per-call Fibonacci (Figures 1 and 2),
//! * [`stress`] — balanced task trees with busy-loop leaves (§IV-A,
//!   Figures 1 and 4, Table III),
//! * [`mm`] — dense matrix multiply, outer loop spawned flat (Table IV),
//! * [`ssf`] — sub-string finder over Fibonacci strings,
//! * [`cholesky`] — sparse quadtree Cholesky factorization (Cilk-5),
//! * [`loops_par`] — map and dot-product loop kernels on `wool-par`'s
//!   data-parallel iterators (the `par_loops` bench races them against
//!   a hand-rolled splitter).
//!
//! [`spec`] describes every workload/parameter combination of Table I
//! so the bench harness can enumerate them.

#![warn(missing_docs)]

pub mod cholesky;
pub mod fib;
pub mod loops_par;
pub mod mm;
pub mod spec;
pub mod ssf;
pub mod stress;

pub use spec::{all_table1_specs, WorkloadKind, WorkloadSpec};
