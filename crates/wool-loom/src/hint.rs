//! Model-aware drop-in for `std::hint::spin_loop`.

/// Declares a fruitless condition re-check: the scheduler parks the
/// caller until some other thread performs a write, unless one already
/// did since the caller's previous spin at this call site (see the spin
/// rule in `rt.rs`). Only call from spin loops that re-check shared
/// state each iteration (the contract every wool-core call site
/// satisfies).
#[track_caller]
pub fn spin_loop() {
    crate::rt::spin(std::panic::Location::caller());
}
