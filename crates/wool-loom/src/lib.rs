//! # wool-loom — vendored exhaustive interleaving checker
//!
//! A dependency-free model checker with a [loom](https://docs.rs/loom)-
//! style API, built for this workspace because it must compile in
//! hermetic environments with no registry access. `wool-core`'s
//! `sync` facade re-exports these types under `cfg(loom)`, so the real
//! scheduler code — the slot state machine, the injector, the spinlock,
//! the worker park/wake protocol — runs unchanged inside [`model`], which
//! re-executes it under **every** interleaving of its atomic operations.
//!
//! ## What it checks
//!
//! * all interleavings of atomic operations, fences, spawns, parks and
//!   unparks across model threads (exhaustively, or bounded by a
//!   preemption budget via [`model_config`]);
//! * assertion failures, with the failing schedule in the panic message;
//! * deadlocks (every live thread parked/joining) — which is how a lost
//!   wakeup manifests, since `park_timeout` is modeled as plain `park`;
//! * livelocks (all live threads spinning on state nobody can change,
//!   or a single execution exceeding the step budget).
//!
//! ## What it deliberately does not check
//!
//! The model executes operations in a single total order (sequential
//! consistency). Weak-memory reorderings permitted by `Relaxed` /
//! `Acquire` / `Release` but not by `SeqCst` are **not** explored —
//! doing that soundly requires loom's full C11 operational model.
//! Ordering arguments are accepted for source compatibility. The
//! curated Miri job in CI complements this by catching some relaxed-
//! memory misuse; see `docs/VERIFICATION.md` for the full matrix.
//! `compare_exchange_weak` never fails spuriously in the model.

#![warn(missing_docs)]

mod rt;

pub mod hint;
pub mod sync;
pub mod thread;

pub use rt::{model, model_config, Config};
