//! Task descriptors and the state word of the direct task stack.
//!
//! The task pool of each worker is an array of fixed-size [`TaskSlot`]s
//! (§III-A: "the task pool is made up of fixed size task descriptors
//! (rather than pointers to task descriptors) and memory management is
//! simplified by adhering to a strict stack discipline"), held in a
//! [`TaskStack`]. The array is allocated zeroed and never written at
//! pool start: an all-zero slot is an empty one, so each 4 KiB page of
//! descriptors is committed by the first spawn that reaches it, and the
//! stack's capacity bounds nesting depth rather than memory use.
//!
//! Each slot carries:
//!
//! * `state` — the synchronization word thief and victim coordinate on:
//!   `EMPTY`, `TASK(wrapper)`, `STOLEN(i)`, `DONE` (§III-A). As in the
//!   paper, `TASK(wrapper)` *is* the task-specific wrapper's address
//!   (the paper's `wrap_f`): any word from [`TASK_MIN`] up is a task,
//!   since no function lies in the first page, and the other values all
//!   stay below it. Whoever acquires the task calls the wrapper decoded
//!   from the word it acquired.
//! * `data` — 64 bytes of inline storage holding the closure before
//!   execution and the result (or panic payload) after. Tasks whose
//!   closure or result does not fit are transparently boxed; the slot
//!   then holds the box pointer, which mirrors the pointer-queue designs
//!   the paper compares against, but only as a rare fallback.
//!
//! `state` comes first and `data` right after it, so the state word and
//! the first 56 bytes of the closure share one cache line: a spawn
//! writes one line, and a single cache-block transfer moves both the
//! signal and the data needed to run the stolen task.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::worker::Idle;
use std::alloc::{self, Layout};
use std::cell::UnsafeCell;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ops::Deref;
use std::panic::AssertUnwindSafe;
use std::ptr::NonNull;

/// Inline storage per task descriptor, in 8-byte words.
pub const DATA_WORDS: usize = 8;

/// State word: no task stored (or transiently held by a thief mid-CAS).
pub const EMPTY: usize = 0;
/// State word: a stolen task completed successfully.
pub const DONE: usize = 2;
/// State word: a stolen task panicked (payload stored in the slot).
pub const DONE_PANIC: usize = 3;
/// State word base for `STOLEN(i)`, encoded as `STOLEN_BASE + i`.
pub const STOLEN_BASE: usize = 4;
/// The smallest `TASK(wrapper)` word: a stored task's state is its
/// wrapper's address, and no function lies in the first page. Every
/// other state, `STOLEN(i)` included, stays below it.
pub const TASK_MIN: usize = 4096;

/// Returns the `STOLEN(i)` encoding for thief index `i`.
#[inline(always)]
pub fn stolen(thief: usize) -> usize {
    debug_assert!(
        thief < TASK_MIN - STOLEN_BASE,
        "STOLEN({thief}) reads as a task"
    );
    STOLEN_BASE + thief
}

/// Decodes a `STOLEN(i)` state word back to the thief index.
#[inline(always)]
pub fn thief_of(state: usize) -> usize {
    debug_assert!(is_stolen(state));
    state - STOLEN_BASE
}

/// True if the state word denotes a stored task, `TASK(wrapper)`.
#[inline(always)]
pub fn is_task(state: usize) -> bool {
    state >= TASK_MIN
}

/// True if the state word denotes a stolen, not-yet-completed task.
#[inline(always)]
pub fn is_stolen(state: usize) -> bool {
    (STOLEN_BASE..TASK_MIN).contains(&state)
}

/// True if the state word denotes a completed stolen task.
#[inline(always)]
pub fn is_done(state: usize) -> bool {
    state == DONE || state == DONE_PANIC
}

/// Decodes a `TASK(wrapper)` state word, `wrapper as usize`, back to
/// its wrapper. Callers test words with [`is_task`], never against a
/// function's address: Rust does not make function addresses unique.
///
/// # Safety
/// `state` must be a wrapper's address.
#[inline(always)]
pub unsafe fn wrapper_of(state: usize) -> RawWrapper {
    debug_assert!(is_task(state));
    std::mem::transmute::<usize, RawWrapper>(state)
}

/// A task's wrapper, whose address is its `TASK(wrapper)` state word:
/// executes the task in place, writing the result (or panic payload)
/// back into the slot. Returns `true` on success, `false` if the task panicked (the caller then
/// publishes `DONE` or `DONE_PANIC` accordingly — the wrapper itself
/// never touches `state`, so the caller can order its own slot writes
/// before the completion signal).
///
/// The second argument is a type-erased pointer to the executing
/// worker's [`crate::WorkerHandle`]; the wrapper knows the
/// concrete strategy type and casts it back.
pub type RawWrapper = unsafe fn(*const TaskSlot, *mut ()) -> bool;

/// One fixed-size task descriptor.
///
/// `#[repr(align(128))]` keeps each descriptor on its own pair of cache
/// lines so thieves polling one worker's `bot` slot do not false-share
/// with the owner pushing at `top`. `repr(C)` keeps `state` first: it
/// and the first 56 bytes of `data` share a cache line. The fields take
/// 72 bytes; the rest is padding.
#[repr(C, align(128))]
pub struct TaskSlot {
    /// The synchronization word (see module docs).
    pub state: AtomicUsize,
    /// Inline closure/result storage.
    data: UnsafeCell<MaybeUninit<[u64; DATA_WORDS]>>,
}

// SAFETY: cross-thread access to `data` is governed by the `state` word
// protocol: a thread may touch it only while it owns the slot (after
// winning the CAS/swap that acquires the task, or — for the owner —
// while the slot is above `bot` and private, or before publication).
// All ownership transfers happen through Release stores / Acquire loads
// (or RMWs) on `state`, or through the `n_public` publication fence,
// establishing happens-before for the plain accesses.
unsafe impl Sync for TaskSlot {}
unsafe impl Send for TaskSlot {}

impl TaskSlot {
    /// Raw pointer to the data area.
    #[inline(always)]
    fn data_ptr(&self) -> *mut u8 {
        self.data.get() as *mut u8
    }
}

/// A worker's direct task stack: a fixed array of [`TaskSlot`]s,
/// allocated zeroed and never written at creation.
///
/// All-zero bytes are an empty descriptor: `state` is [`EMPTY`], and
/// `data` is `MaybeUninit`. So the zero pages the allocator maps for a
/// large block are already valid descriptors, and each 4 KiB page (32
/// descriptors) is committed by the first spawn that reaches it.
///
/// The block is allocated with 16-byte alignment, which `calloc` serves
/// on 64-bit targets without clearing freshly mapped pages; at
/// `TaskSlot`'s own alignment `alloc_zeroed` falls back to
/// allocate-then-`memset`, which touches every page. The block is one
/// descriptor longer than the stack, and the slots start at its first
/// 128-aligned address.
pub(crate) struct TaskStack {
    /// The block as allocated.
    base: NonNull<u8>,
    /// The slots, inside `base`'s block.
    slots: NonNull<[TaskSlot]>,
}

// SAFETY: a `TaskStack` owns its block, as a `Box<[TaskSlot]>` would,
// and shares it only as `&[TaskSlot]`; `TaskSlot` is `Send` and `Sync`.
unsafe impl Send for TaskStack {}
unsafe impl Sync for TaskStack {}

impl TaskStack {
    /// Allocates a stack of `len` empty descriptors.
    pub fn new(len: usize) -> Self {
        let layout = Self::layout(len);
        // SAFETY: `layout` has a non-zero size (at least one descriptor).
        let base = unsafe { alloc::alloc_zeroed(layout) };
        let Some(base) = NonNull::new(base) else {
            alloc::handle_alloc_error(layout)
        };
        // Bytes up to the next 128-aligned address, computed from the
        // address itself because `align_offset` may return `usize::MAX`.
        let pad = base.as_ptr().addr().wrapping_neg() % align_of::<TaskSlot>();
        // SAFETY: `pad` is less than one descriptor and the block is one
        // descriptor longer than `len` of them, so the first slot and
        // the `len` slots from it lie inside the block.
        let first = unsafe { base.add(pad) }.cast::<TaskSlot>();
        TaskStack {
            base,
            slots: NonNull::slice_from_raw_parts(first, len),
        }
    }

    /// The block for `len` descriptors: one descriptor of slack for the
    /// alignment, at an alignment `calloc` serves.
    fn layout(len: usize) -> Layout {
        len.checked_mul(size_of::<TaskSlot>())
            .and_then(|bytes| bytes.checked_add(align_of::<TaskSlot>()))
            .and_then(|size| Layout::from_size_align(size, 16).ok())
            .expect("task stack size overflows the address space")
    }
}

impl Deref for TaskStack {
    type Target = [TaskSlot];

    #[inline(always)]
    fn deref(&self) -> &[TaskSlot] {
        // SAFETY: the slots are 128-aligned and lie inside the block this
        // stack owns (see `new`). The block was zeroed, all-zero bytes
        // are a valid `TaskSlot`, and slots are only ever changed
        // through their atomics and `UnsafeCell`s.
        unsafe { self.slots.as_ref() }
    }
}

impl Drop for TaskStack {
    fn drop(&mut self) {
        const { assert!(!std::mem::needs_drop::<TaskSlot>()) };
        // SAFETY: `base` was allocated in `new` with this layout, and no
        // borrow of the slots outlives `&mut self`. `TaskSlot` has no
        // drop glue (asserted above), so there is nothing to run first.
        unsafe { alloc::dealloc(self.base.as_ptr(), Self::layout(self.slots.len())) }
    }
}

/// Whether a value of type `T` fits the inline data area.
const fn fits_inline<T>() -> bool {
    size_of::<T>() <= DATA_WORDS * 8 && align_of::<T>() <= 8
}

/// Heap representation for oversized tasks: the closure and result share
/// an allocation, freed by whoever consumes the result.
struct BoxedTask<F, R> {
    f: ManuallyDrop<F>,
    r: MaybeUninit<R>,
}

/// Typed access to a slot's storage for a task `F: FnOnce(ctx) -> R`.
///
/// All functions are associated functions of this marker type so that
/// the inline-vs-boxed decision is made once, at compile time, per
/// `(F, R)` pair.
pub struct TaskRepr<F, R>(std::marker::PhantomData<(F, R)>);

impl<F, R> TaskRepr<F, R> {
    /// True if both the closure and the result are stored inline.
    pub const INLINE: bool = fits_inline::<F>() && fits_inline::<R>();

    /// Stores the closure into the slot.
    ///
    /// Does **not** touch `state`; the caller stores the task's
    /// `TASK(wrapper)` word afterwards.
    ///
    /// # Safety
    /// Caller must own the slot (owner thread, slot above `top`).
    #[inline(always)]
    pub unsafe fn store(slot: &TaskSlot, f: F) {
        if Self::INLINE {
            (slot.data_ptr() as *mut F).write(f);
        } else {
            let boxed = Box::new(BoxedTask::<F, R> {
                f: ManuallyDrop::new(f),
                r: MaybeUninit::uninit(),
            });
            (slot.data_ptr() as *mut *mut BoxedTask<F, R>).write(Box::into_raw(boxed));
        }
    }

    /// Takes the closure back out for direct (task-specific, inlined)
    /// execution. Frees the box in the boxed case.
    ///
    /// # Safety
    /// Caller must have acquired the slot while it held this task.
    #[inline(always)]
    pub unsafe fn take_closure(slot: &TaskSlot) -> F {
        if Self::INLINE {
            (slot.data_ptr() as *const F).read()
        } else {
            let raw = (slot.data_ptr() as *const *mut BoxedTask<F, R>).read();
            let boxed = Box::from_raw(raw);
            ManuallyDrop::into_inner(boxed.f)
        }
    }

    /// Executes the task in place: consumes the closure, runs it with
    /// `ctx`, stores the result (or the panic payload) into the slot.
    ///
    /// Returns `true` on success, `false` if the task panicked (the
    /// payload is then stored and the acquirer must set `DONE_PANIC`).
    ///
    /// # Safety
    /// Caller must own the slot; `run` is responsible for supplying the
    /// execution context the closure needs (it typically captures the
    /// executing worker's handle).
    #[inline]
    pub unsafe fn exec_in_place(slot: &TaskSlot, run: impl FnOnce(F) -> R) -> bool {
        if Self::INLINE {
            let f = (slot.data_ptr() as *const F).read();
            match std::panic::catch_unwind(AssertUnwindSafe(|| run(f))) {
                Ok(r) => {
                    (slot.data_ptr() as *mut R).write(r);
                    true
                }
                Err(payload) => {
                    Self::store_panic(slot, payload);
                    false
                }
            }
        } else {
            let raw = (slot.data_ptr() as *const *mut BoxedTask<F, R>).read();
            let f = ManuallyDrop::take(&mut (*raw).f);
            match std::panic::catch_unwind(AssertUnwindSafe(|| run(f))) {
                Ok(r) => {
                    (*raw).r.write(r);
                    // Re-store the box pointer: when the task runs *in
                    // place* on its owner (non-task-specific join), its
                    // nested spawns reuse this very descriptor and
                    // clobber the data area; `take_result` re-reads the
                    // pointer from the slot afterwards.
                    (slot.data_ptr() as *mut *mut BoxedTask<F, R>).write(raw);
                    true
                }
                Err(payload) => {
                    drop(Box::from_raw(raw));
                    Self::store_panic(slot, payload);
                    false
                }
            }
        }
    }

    /// Reads the result stored by [`exec_in_place`], freeing the box in
    /// the boxed case.
    ///
    /// # Safety
    /// Caller must have observed `DONE` with Acquire ordering (or have
    /// run `exec_in_place` itself).
    ///
    /// [`exec_in_place`]: TaskRepr::exec_in_place
    #[inline(always)]
    pub unsafe fn take_result(slot: &TaskSlot) -> R {
        if Self::INLINE {
            (slot.data_ptr() as *const R).read()
        } else {
            let raw = (slot.data_ptr() as *const *mut BoxedTask<F, R>).read();
            let boxed = Box::from_raw(raw);
            boxed.r.assume_init_read()
        }
    }

    /// Stores a panic payload into the slot's inline area.
    ///
    /// # Safety
    /// Caller must own the slot; any closure/result must be consumed.
    unsafe fn store_panic(slot: &TaskSlot, payload: Box<dyn std::any::Any + Send>) {
        // A boxed `dyn Any` fat pointer is two words; it always fits.
        (slot.data_ptr() as *mut Box<dyn std::any::Any + Send>).write(payload);
    }

    /// Reads a panic payload stored by a panicking execution.
    ///
    /// # Safety
    /// Caller must have observed `DONE_PANIC` with Acquire ordering.
    pub unsafe fn take_panic(slot: &TaskSlot) -> Box<dyn std::any::Any + Send> {
        (slot.data_ptr() as *const Box<dyn std::any::Any + Send>).read()
    }
}

/// Debug/loom-only protocol guard: asserts the state word currently
/// holds a value `legal` accepts, immediately before a transition
/// overwrites it.
///
/// Active under `debug_assertions` **and** under `cfg(loom)` — the
/// model-checking suite (`wool-verify`) runs in release mode, where
/// `debug_assertions` is off, yet these invariants are exactly what the
/// models exist to check. Compiled to nothing in plain release builds.
///
/// The guard load is `Relaxed` deliberately: it checks a *value*, not an
/// ordering, and every call site owns enough of the slot that the set of
/// values any other thread could concurrently write is itself legal
/// (see the site-by-site notes at the call sites in `exec.rs`). A
/// stronger ordering here would mask exactly the fences the models are
/// supposed to validate.
#[inline(always)]
pub fn check_transition(slot: &TaskSlot, legal: impl Fn(usize) -> bool, about: &str) {
    #[cfg(any(debug_assertions, loom))]
    {
        // relaxed-ok: value check only; legality of every concurrently
        // writable value is argued per call site, no ordering is needed.
        let s = slot.state.load(Ordering::Relaxed);
        assert!(
            legal(s),
            "slot protocol violation before {about}: observed state {s}"
        );
    }
    #[cfg(not(any(debug_assertions, loom)))]
    {
        let _ = (slot, legal, about);
    }
}

/// Spin-waits until the slot's state is no longer the transient `EMPTY`
/// left behind by an in-flight steal, returning the next stable value.
///
/// Used by `RTS_join`: the paper's
/// `while (s == EMPTY) s = t->state;` loop.
#[inline]
pub fn spin_while_empty(slot: &TaskSlot) -> usize {
    let mut idle = Idle::default();
    loop {
        // Acquire pairs with the thief's Release stores of the task
        // word (steal back-off restore) and `DONE`/`DONE_PANIC`
        // (completion): once we see the stable value, the thief's
        // writes to `data` happen-before our reads of them.
        let s = slot.state.load(Ordering::Acquire);
        if s != EMPTY {
            return s;
        }
        // Spin, then yield: the thief mid-steal may be descheduled
        // (uniprocessor or oversubscribed hosts); let it finish.
        idle.snooze();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    unsafe fn nop_wrapper(_: *const TaskSlot, _: *mut ()) -> bool {
        true
    }

    #[test]
    fn state_encoding_roundtrip() {
        for i in [0usize, 1, 7, 63, 1024, TASK_MIN - STOLEN_BASE - 1] {
            let s = stolen(i);
            assert!(is_stolen(s));
            assert!(!is_task(s));
            assert_eq!(thief_of(s), i);
            assert!(!is_done(s));
        }
        let task = nop_wrapper as RawWrapper as usize;
        assert!(is_task(task));
        // SAFETY: `task` is a wrapper's address.
        assert_eq!(unsafe { wrapper_of(task) } as usize, task);
        for small in [EMPTY, DONE, DONE_PANIC] {
            assert!(!is_task(small));
            assert!(!is_stolen(small));
        }
        assert!(!is_stolen(task));
        assert!(is_done(DONE));
        assert!(is_done(DONE_PANIC));
        assert!(!is_done(task));
    }

    #[test]
    fn slot_is_two_cache_lines() {
        assert_eq!(std::mem::align_of::<TaskSlot>(), 128);
        assert_eq!(std::mem::size_of::<TaskSlot>(), 128);
    }

    /// The state word and the start of the closure share the first cache
    /// line, so a spawn writes one line and a thief pulls one.
    #[test]
    fn state_word_shares_a_cache_line_with_the_closure() {
        assert_eq!(std::mem::size_of::<TaskSlot>(), 128);
        assert_eq!(std::mem::offset_of!(TaskSlot, state), 0);
        assert_eq!(std::mem::offset_of!(TaskSlot, data), 8);
    }

    #[test]
    fn task_stack_slots_start_empty_and_aligned() {
        for n in [1, 16, 8192] {
            let stack = TaskStack::new(n);
            assert_eq!(stack.len(), n);
            for (i, slot) in stack.iter().enumerate() {
                // relaxed-ok: single-threaded test read.
                assert_eq!(slot.state.load(Ordering::Relaxed), EMPTY);
                let addr = std::ptr::from_ref(slot).addr();
                assert_eq!(addr % 128, 0, "slot {i} of {n} misaligned");
                if i > 0 {
                    let prev = std::ptr::from_ref(&stack[i - 1]).addr();
                    assert_eq!(addr - prev, 128, "slot {i} of {n} not contiguous");
                }
            }
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the subject
    fn inline_decision() {
        assert!(TaskRepr::<fn() -> u64, u64>::INLINE);
        assert!(TaskRepr::<[u64; 8], u64>::INLINE);
        assert!(!TaskRepr::<[u64; 9], u64>::INLINE);
        assert!(!TaskRepr::<u64, [u64; 9]>::INLINE);
        // Over-aligned types are boxed.
        #[repr(align(64))]
        struct Aligned(#[allow(dead_code)] u8);
        assert!(!TaskRepr::<Aligned, u64>::INLINE);
    }

    fn roundtrip<F, R>(f: F) -> R
    where
        F: FnOnce() -> R,
    {
        let stack = TaskStack::new(1);
        let slot = &stack[0];
        // SAFETY: single-threaded test; we own the slot throughout.
        unsafe {
            TaskRepr::<F, R>::store(slot, f);
            let ok = TaskRepr::<F, R>::exec_in_place(slot, |f| f());
            assert!(ok);
            TaskRepr::<F, R>::take_result(slot)
        }
    }

    #[test]
    fn inline_store_exec_take() {
        let x = 5u64;
        let r = roundtrip(move || x * 2);
        assert_eq!(r, 10);
    }

    #[test]
    fn boxed_store_exec_take() {
        let big = [7u64; 32]; // closure too large for inline storage
        let r = roundtrip(move || big.iter().sum::<u64>());
        assert_eq!(r, 7 * 32);
    }

    /// Helper that pins the closure type across store/take.
    unsafe fn store_then_take<F, R>(slot: &TaskSlot, f: F) -> F
    where
        F: FnOnce() -> R,
    {
        TaskRepr::<F, R>::store(slot, f);
        TaskRepr::<F, R>::take_closure(slot)
    }

    #[test]
    fn take_closure_direct_call() {
        let stack = TaskStack::new(1);
        let slot = &stack[0];
        let s = String::from("hello");
        // SAFETY: single-threaded test.
        unsafe {
            let g = store_then_take(slot, move || s.len());
            assert_eq!(g(), 5);
        }
    }

    #[test]
    fn panic_payload_roundtrip() {
        let stack = TaskStack::new(1);
        let slot = &stack[0];
        fn boom() -> u64 {
            panic!("boom-42")
        }
        let f: fn() -> u64 = boom;
        // SAFETY: single-threaded test.
        unsafe {
            TaskRepr::<fn() -> u64, u64>::store(slot, f);
            let ok = TaskRepr::<fn() -> u64, u64>::exec_in_place(slot, |f| f());
            assert!(!ok);
            let payload = TaskRepr::<fn() -> u64, u64>::take_panic(slot);
            let msg = payload.downcast_ref::<&str>().unwrap();
            assert_eq!(*msg, "boom-42");
        }
    }

    #[test]
    fn spin_while_empty_returns_stable_state() {
        let stack = TaskStack::new(1);
        let slot = &stack[0];
        let task = nop_wrapper as RawWrapper as usize;
        slot.state.store(task, Ordering::Release);
        assert_eq!(spin_while_empty(slot), task);
        slot.state.store(stolen(3), Ordering::Release);
        assert_eq!(spin_while_empty(slot), stolen(3));
    }

    #[test]
    fn drop_of_unexecuted_boxed_closure_not_leaked_by_take() {
        // take_closure must free the box without running the closure.
        use crate::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tracker([u64; 16]);
        impl Drop for Tracker {
            fn drop(&mut self) {
                // relaxed-ok: single-threaded test counter.
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stack = TaskStack::new(1);
        let slot = &stack[0];
        let t = Tracker([1; 16]);
        // SAFETY: single-threaded test. (`let t = t;` forces the whole
        // Tracker into the closure; capturing `t.0` alone would copy the
        // Copy array and leave the tracker outside.)
        unsafe {
            let g = store_then_take(slot, move || {
                let t = t;
                t.0[0]
            });
            drop(g);
        }
        // relaxed-ok: single-threaded test counter.
        assert_eq!(DROPS.load(Ordering::Relaxed), 1);
    }
}
