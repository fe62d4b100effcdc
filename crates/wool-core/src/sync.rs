//! Synchronization facade: the one place wool touches `std::sync::atomic`
//! and `std::thread`.
//!
//! Every crate in the scheduler's trusted core (`wool-core`,
//! `wool-verify`) imports its atomics, spin hints, and thread
//! primitives from here instead of `std`. Normally the facade is
//! a zero-cost re-export of the std items; under `RUSTFLAGS="--cfg
//! loom"` it swaps in the `wool-loom` model-checked equivalents, so the
//! *production* protocol code — slot state machine, injector, spinlock,
//! worker park/wake — runs unchanged inside exhaustive interleaving models
//! (see `crates/wool-verify` and `docs/VERIFICATION.md`).
//!
//! The `xtask lint` static pass enforces the discipline: any direct
//! `std::sync::atomic` / `std::thread` use outside this file fails the
//! build unless annotated with a `// lint-ok:` justification.
//!
//! Note for `cfg(loom)` builds: `std::sync::Mutex`/`Condvar` remain the
//! std types and must not be held across a facade operation inside a
//! model (the model thread would block the scheduler token). The serve
//! pool's thread list, taken once at shutdown, respects this; a model
//! polls `JobHandle::is_finished` rather than block in `join`.

/// Atomic integers, flags, fences and `Ordering`.
#[cfg(not(loom))]
pub mod atomic {
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Atomic integers, flags, fences and `Ordering` (model-checked).
#[cfg(loom)]
pub mod atomic {
    pub use wool_loom::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Spin-wait hint. Facade contract: only call from loops that re-check
/// shared state every iteration (the model scheduler relies on it).
#[cfg(not(loom))]
pub mod hint {
    pub use std::hint::spin_loop;
}

/// Spin-wait hint (model-checked).
#[cfg(loom)]
pub mod hint {
    pub use wool_loom::hint::spin_loop;
}

/// The `std::thread` surface wool uses: spawning, parking, yielding.
#[cfg(not(loom))]
pub mod thread {
    pub use std::thread::{
        available_parallelism, current, panicking, park, park_timeout, sleep, spawn, yield_now,
        Builder, JoinHandle, Result, Thread,
    };
}

/// The thread surface (model-checked: `park_timeout` never times out in
/// model time, so lost wakeups become detectable deadlocks).
#[cfg(loom)]
pub mod thread {
    /// Model threads are OS threads and unwind as such.
    pub use std::thread::panicking;
    pub use wool_loom::thread::{
        available_parallelism, current, park, park_timeout, sleep, spawn, yield_now, Builder,
        JoinHandle, Result, Thread,
    };
}
