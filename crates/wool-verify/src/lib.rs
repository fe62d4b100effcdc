//! Model-checking suites for `wool-core`'s synchronization protocols.
//!
//! This crate holds no scheduler code and no copies of it. Its models run
//! the **production** code exhaustively, up to a preemption bound, under
//! the vendored [`wool_loom`] interleaving explorer:
//!
//! 1. **The slot state machine** (`tests/slot_protocol.rs`), **the
//!    private/public publish path** (`tests/publish_protocol.rs`) and
//!    **the shared-top rung** (`tests/shared_top_model.rs`) drive
//!    `WorkerHandle::fork`, `for_each_spawn` and `try_steal_from` from
//!    `exec.rs` through the `cfg(loom)` harness `wool_core::model`:
//!    worker 0 runs a sequence of forks while model threads steal. Each
//!    join checks, where it returns, that its task ran exactly once and
//!    handed back its result (`support::exec::Region`). The publish suite
//!    also holds the known open stale-thief double run as a
//!    `should_panic` model (ROADMAP: "Every task runs exactly once, even
//!    under a stale thief").
//! 2. **Every strategy rung** (`tests/strategy_rungs.rs`): one generic
//!    model — nested fork, `for_each_spawn(3)`, and stack overflow —
//!    for all 9 rungs of the Table II / Figure 4 ladder.
//! 3. **The Vyukov MPMC injector** (`tests/injector_mpmc.rs`): the real
//!    [`wool_core::Injector`] under concurrent submit/dequeue, full and
//!    empty edges, and sequence-lap wraparound. The jobs are
//!    [`support::probe::Probe`] values, which count their runs and,
//!    in `Drop`, their disposals.
//! 4. **The park/wake protocol** (`tests/wakeup.rs`): the Dekker-style
//!    parked-flag handshake of `Idle`, run in the real `ServePool` and
//!    `Pool`: a serve submission, and a batch region's first
//!    publication, cannot be lost while a worker parks. Plus a
//!    deliberately broken worker the checker must catch.
//! 5. **The TATAS spinlock** (`tests/spinlock_model.rs`): mutual
//!    exclusion and panic-safety of [`wool_core::spinlock::SpinLock`].
//! 6. **Region entry and exit** (`tests/region_claim.rs`): the join and
//!    close CASes on a background worker's claim word, which
//!    `background_loop` and `Pool::run` call, over two regions; exactly
//!    one wins per region, and the coordinator waits only for a worker
//!    that joined.
//! 7. **The serve drain gate** (`tests/drain_gate.rs`): `submit` racing
//!    `shutdown` on the real one-worker `ServePool`, whose gate is the
//!    closed bit of the injector; every accepted job runs before
//!    `shutdown` returns, every refusal is `ShuttingDown`.
//!
//! The model suites are compiled only under `--cfg loom`; the command
//! below also turns on debug assertions, so the `debug_assert!`s of
//! `exec.rs` and `pool.rs` are checked in every modeled execution:
//!
//! ```text
//! cargo xtask loom
//! ```
//!
//! Without the cfg, `cargo test -p wool-verify` only runs the injector
//! probe's unit test (so tier-1 CI stays fast). See
//! `docs/VERIFICATION.md` for the bounds, the negative controls and what
//! the models do not prove; in particular, the explorer is sequentially
//! consistent, so weak-memory reorderings are covered by the Miri and
//! TSan jobs, not here.

#![warn(missing_docs)]

pub mod support;
