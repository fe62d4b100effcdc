//! Model-checking harness for `wool-core`'s synchronization protocols.
//!
//! This crate holds no scheduler code. It packages **models** — small,
//! self-contained re-statements of the four protocols the direct task
//! stack stands on — and checks them exhaustively with the vendored
//! [`wool_loom`] interleaving explorer:
//!
//! 1. **The slot state machine** (`tests/slot_protocol.rs`): owner swap
//!    vs. thief CAS over `EMPTY`/`TASK`/`STOLEN(i)`/`DONE`, including
//!    the owner-join-races-thief window and descriptor reincarnation.
//! 2. **The private/public publish path** (`tests/publish_protocol.rs`):
//!    the `n_public` boundary, the trip-wire `publish_request` channel,
//!    and the thief back-off that protects private descriptors (§III-B).
//! 3. **The Vyukov MPMC injector** (`tests/injector_mpmc.rs`): the real
//!    [`wool_core::Injector`] under concurrent submit/dequeue, full and
//!    empty edges, and sequence-lap wraparound. The jobs are
//!    [`support::probe::Probe`] values, which count their runs and,
//!    in `Drop`, their disposals.
//! 4. **The serve park/wake protocol** (`tests/serve_wakeup.rs`): the
//!    Dekker-style parked-flag handshake between `ServePool`'s
//!    submission path and `serve_loop`, proving a submission cannot be
//!    lost while a worker parks — plus a deliberately broken variant the
//!    checker must catch.
//!
//! A fifth suite (`tests/spinlock_model.rs`) proves mutual exclusion and
//! panic-safety of the TATAS [`wool_core::spinlock::SpinLock`], and a
//! sixth (`tests/shared_top_model.rs`) models the shared-top
//! (`LockedBase`) steal/join protocol, including the leap-frog
//! `top_shared` restore regression found by `wool-par`'s property
//! tests.
//!
//! The model suites are compiled only under `--cfg loom`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p wool-verify --release
//! ```
//!
//! Without the cfg, `cargo test -p wool-verify` only runs the support
//! module's own unit tests (so tier-1 CI stays fast). See
//! `docs/VERIFICATION.md` for the full matrix and what each model does
//! and does not prove; in particular, the explorer is sequentially
//! consistent, so weak-memory reorderings are covered by the Miri and
//! TSan jobs, not here.

#![warn(missing_docs)]

pub mod support;
