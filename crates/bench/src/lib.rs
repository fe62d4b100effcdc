//! # ws-bench — the experiment harness
//!
//! Regenerates every table and figure of the Wool paper's evaluation
//! (§IV). The `all_experiments` binary runs every exhibit of
//! [`experiments::EXHIBITS`], or one with `--only <exhibit>`; this
//! library provides the shared machinery:
//!
//! * [`system`] — a closed enum over every scheduler in the repository
//!   (all Wool strategy rungs, the TBB/Cilk++/OpenMP-like baselines and
//!   the serial executor) with uniform run/measure/statistics access.
//! * [`measure`] — wall-clock + cycle measurement of a [`Job`] on a
//!   system, with repeat-and-take-best methodology.
//! * [`model`] — the paper's simple steal-cost performance model
//!   (Table IV).
//! * [`report`] — plain-text table rendering plus JSON dumping of every
//!   result (consumed by EXPERIMENTS.md).
//! * [`experiments`] — one module per exhibit, plus the speedup sweep
//!   and series table that Figures 1, 4 and 5 share.
//! * [`cli`] — a tiny argument parser shared by the binaries.
//!
//! [`Job`]: wool_core::Job

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod measure;
pub mod microbench;
pub mod model;
pub mod report;
pub mod system;
pub mod tracing;

pub use cli::BenchArgs;
pub use measure::{measure_job, Measurement};
pub use model::steal_cost_model_speedup;
pub use report::{dump_json, Table};
pub use system::{System, SystemKind};
