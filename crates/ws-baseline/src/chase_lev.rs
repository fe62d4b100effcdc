//! A Chase–Lev work-stealing deque.
//!
//! Single owner, many thieves. The owner calls [`ChaseLev::push`] and
//! [`ChaseLev::pop`] on the bottom end; any thread may call
//! [`ChaseLev::steal`] on the top end through a shared reference.
//!
//! The implementation follows Chase & Lev, *Dynamic circular work-stealing
//! deque* (SPAA 2005), with the relaxed-memory orderings of Lê, Pop,
//! Cohen & Zappa Nardelli, *Correct and efficient work-stealing for weak
//! memory models* (PPoPP 2013). The structural choice that matters for
//! the paper reproduction is the **SeqCst fence in `pop`**: the owner's
//! common-case pop pays a full fence (or equivalent atomic) to close the
//! race with thieves on the last element. The Wool direct task stack
//! avoids this by synchronizing on the task descriptor instead; the
//! difference is measured by the `deque` bench and shows up in
//! Table II/III reproductions.
//!
//! # Memory reclamation
//!
//! When the deque grows, the old buffer cannot be freed immediately:
//! a concurrent thief may still be reading from it. We retire old buffers
//! into a list that is freed when the deque itself is dropped. Because
//! buffers double in size, the retired memory is at most the size of the
//! live buffer, so this simple scheme wastes a bounded amount of memory
//! and needs no epoch machinery.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};

use std::sync::Mutex;

use crate::Steal;

/// Minimum buffer capacity (must be a power of two).
const MIN_CAP: usize = 64;

/// A fixed-size circular buffer of `T`.
///
/// Indices are taken modulo the capacity; the buffer does not track which
/// slots are initialized — that is the deque's job via `top`/`bottom`.
struct Buffer<T> {
    storage: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
}

// SAFETY: the buffer itself is just storage; all synchronization is done
// by the deque through `top`/`bottom`. Slots are only read when the deque
// protocol guarantees they were fully written.
unsafe impl<T: Send> Sync for Buffer<T> {}
unsafe impl<T: Send> Send for Buffer<T> {}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> Box<Self> {
        assert!(cap.is_power_of_two());
        let storage = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Buffer {
            storage,
            mask: cap - 1,
        })
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }

    /// Writes `v` at logical index `i`.
    ///
    /// # Safety
    /// The caller must own slot `i` (no concurrent access).
    unsafe fn put(&self, i: isize, v: T) {
        let slot = &self.storage[(i as usize) & self.mask];
        (*slot.get()).write(v);
    }

    /// Reads the value at logical index `i` without consuming the slot.
    ///
    /// # Safety
    /// Slot `i` must have been written and not yet taken by another
    /// thread *that the caller can observe*; duplicate reads are allowed
    /// as long as only one reader "keeps" the value (CAS winner).
    unsafe fn take(&self, i: isize) -> T {
        let slot = &self.storage[(i as usize) & self.mask];
        (*slot.get()).assume_init_read()
    }
}

/// A dynamically-growing Chase–Lev work-stealing deque.
pub struct ChaseLev<T> {
    /// Next slot the owner will push to (bottom end, grows upward).
    bottom: AtomicIsize,
    /// Oldest live element (top end, thieves take from here).
    top: AtomicIsize,
    /// Current buffer. Replaced (never mutated in place) on growth.
    buf: AtomicPtr<Buffer<T>>,
    /// Buffers retired by `grow`, freed on drop.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: `ChaseLev` implements the Chase–Lev protocol: the owner is the
// only thread calling `push`/`pop`, thieves only `steal`. The protocol
// guarantees each element is handed to exactly one thread.
unsafe impl<T: Send> Sync for ChaseLev<T> {}
unsafe impl<T: Send> Send for ChaseLev<T> {}

impl<T> Default for ChaseLev<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ChaseLev<T> {
    /// Creates an empty deque with the default initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(MIN_CAP)
    }

    /// Creates an empty deque with at least `cap` capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(MIN_CAP);
        ChaseLev {
            bottom: AtomicIsize::new(0),
            top: AtomicIsize::new(0),
            buf: AtomicPtr::new(Box::into_raw(Buffer::alloc(cap))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Approximate number of elements. Only a hint: concurrent operations
    /// may change it at any time.
    pub fn len_hint(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }

    /// True if the deque was observed empty.
    pub fn is_empty_hint(&self) -> bool {
        self.len_hint() == 0
    }

    /// Owner: pushes `v` on the bottom end.
    ///
    /// # Safety contract (checked by type system in the schedulers)
    /// Must only be called by the single owner thread. We keep the method
    /// safe and `&self` because the owning schedulers already guarantee
    /// unique ownership; misuse from safe code cannot cause UB worse than
    /// lost/duplicated *values* would — but to be strict we document the
    /// requirement and the schedulers wrap the deque in owner-only
    /// handles.
    pub fn push(&self, v: T, owner: &mut OwnerToken) {
        let _ = owner;
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut buf = self.buf.load(Ordering::Relaxed);

        // SAFETY: only the owner mutates `bottom`/`buf`, and `b - t` is a
        // conservative size estimate (t may only increase).
        unsafe {
            if b - t >= (*buf).cap() as isize {
                self.grow(b, t);
                buf = self.buf.load(Ordering::Relaxed);
            }
            (*buf).put(b, v);
        }
        // The Release store pairs with the Acquire load of `bottom` in
        // `steal`, making the element write visible before the new size.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner: pops from the bottom end (LIFO).
    pub fn pop(&self, owner: &mut OwnerToken) -> Option<T> {
        let _ = owner;
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.buf.load(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        // Full fence: orders the `bottom` store before the `top` load.
        // This is the cost the direct task stack avoids; see module docs.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);

        if t <= b {
            // Non-empty so far.
            if t == b {
                // Single element left: race with thieves via CAS on top.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                if won {
                    // SAFETY: we won the CAS, the slot at `b` is ours.
                    return Some(unsafe { (*buf).take(b) });
                }
                None
            } else {
                // More than one element: no thief can reach index b.
                // SAFETY: slot `b` was written by a previous push and
                // cannot be concurrently stolen (t < b).
                Some(unsafe { (*buf).take(b) })
            }
        } else {
            // Deque was empty; restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Thief: attempts to steal from the top end (FIFO).
    pub fn steal(&self) -> Steal<T> {
        let t = self.top.load(Ordering::Acquire);
        // Full fence: pairs with the fence in `pop` so that a thief that
        // reads a stale `bottom` cannot also win the CAS on `top`.
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);

        if t < b {
            let buf = self.buf.load(Ordering::Acquire);
            // Speculatively read the element. If we lose the CAS the read
            // value is forgotten (it is a bitwise duplicate; the winner
            // owns the only logical copy).
            // SAFETY: `t < b` means slot `t` was fully written (the push
            // of that element happened-before the bottom store we read).
            // Old buffers are kept alive until drop, so even a racing
            // `grow` leaves this pointer valid, and `grow` copies live
            // elements so index `t` holds the same value in both buffers.
            let v = unsafe { (*buf).take(t) };
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                Steal::Success(v)
            } else {
                std::mem::forget(v);
                Steal::Retry
            }
        } else {
            Steal::Empty
        }
    }

    /// Doubles the buffer, copying live elements `[t, b)`.
    ///
    /// # Safety
    /// Owner-only, called from `push`.
    unsafe fn grow(&self, b: isize, t: isize) {
        let old = self.buf.load(Ordering::Relaxed);
        let new = Buffer::alloc((*old).cap() * 2);
        let mut i = t;
        while i < b {
            // Copy bits; logical ownership of elements is unchanged.
            let v = (*old).take(i);
            new.put(i, v);
            i += 1;
        }
        let new_ptr = Box::into_raw(new);
        // Release so thieves that Acquire-load the new pointer see the
        // copied elements.
        self.buf.store(new_ptr, Ordering::Release);
        self.retired.lock().unwrap().push(old);
    }
}

impl<T> Drop for ChaseLev<T> {
    fn drop(&mut self) {
        // Drop remaining elements.
        let b = *self.bottom.get_mut();
        let t = *self.top.get_mut();
        let buf = *self.buf.get_mut();
        // SAFETY: exclusive access in drop; `[t, b)` are live elements.
        unsafe {
            let mut i = t;
            while i < b {
                drop((*buf).take(i));
                i += 1;
            }
            drop(Box::from_raw(buf));
            for old in self.retired.get_mut().unwrap().drain(..) {
                drop(Box::from_raw(old));
            }
        }
    }
}

impl<T> fmt::Debug for ChaseLev<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaseLev")
            .field("len_hint", &self.len_hint())
            .finish()
    }
}

/// Zero-sized token proving owner-end access.
///
/// The schedulers create exactly one token per deque and keep it in
/// owner-thread-local state, which statically prevents two threads from
/// using the owner end concurrently.
#[derive(Debug)]
pub struct OwnerToken {
    _private: (),
}

impl OwnerToken {
    /// Creates a token.
    ///
    /// # Safety
    /// The caller must guarantee that at most one token is used per deque
    /// at any time, from a single thread at a time.
    pub unsafe fn new() -> Self {
        OwnerToken { _private: () }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn owner() -> OwnerToken {
        // SAFETY: each test constructs one token per deque.
        unsafe { OwnerToken::new() }
    }

    #[test]
    fn push_pop_lifo() {
        let d = ChaseLev::new();
        let mut o = owner();
        for i in 0..100 {
            d.push(i, &mut o);
        }
        for i in (0..100).rev() {
            assert_eq!(d.pop(&mut o), Some(i));
        }
        assert_eq!(d.pop(&mut o), None);
    }

    #[test]
    fn steal_fifo() {
        let d = ChaseLev::new();
        let mut o = owner();
        for i in 0..10 {
            d.push(i, &mut o);
        }
        for i in 0..10 {
            assert_eq!(d.steal(), Steal::Success(i));
        }
        assert!(d.steal().is_empty());
    }

    #[test]
    fn growth_preserves_elements() {
        let d = ChaseLev::with_capacity(MIN_CAP);
        let mut o = owner();
        let n = MIN_CAP * 8;
        for i in 0..n {
            d.push(i, &mut o);
        }
        let mut popped = Vec::new();
        while let Some(v) = d.pop(&mut o) {
            popped.push(v);
        }
        popped.reverse();
        assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn empty_hint() {
        let d: ChaseLev<u32> = ChaseLev::new();
        assert!(d.is_empty_hint());
        let mut o = owner();
        d.push(1, &mut o);
        assert!(!d.is_empty_hint());
        assert_eq!(d.len_hint(), 1);
    }

    #[test]
    fn drops_remaining_elements() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let d = ChaseLev::new();
            let mut o = owner();
            for _ in 0..5 {
                d.push(D, &mut o);
            }
            drop(d.pop(&mut o));
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn interleaved_push_pop_steal_single_thread() {
        let d = ChaseLev::new();
        let mut o = owner();
        d.push(1, &mut o);
        d.push(2, &mut o);
        assert_eq!(d.steal(), Steal::Success(1));
        d.push(3, &mut o);
        assert_eq!(d.pop(&mut o), Some(3));
        assert_eq!(d.pop(&mut o), Some(2));
        assert_eq!(d.pop(&mut o), None);
        assert!(d.steal().is_empty());
    }

    /// Multi-thread stress: every pushed element is received exactly once
    /// across owner pops and thief steals.
    #[test]
    fn concurrent_ownership_exactly_once() {
        const PER_ROUND: usize = 1000;
        const ROUNDS: usize = 20;
        const THIEVES: usize = 4;

        let d = Arc::new(ChaseLev::new());
        let stop = Arc::new(AtomicUsize::new(0));
        let stolen_sum = Arc::new(AtomicUsize::new(0));
        let stolen_cnt = Arc::new(AtomicUsize::new(0));

        let handles: Vec<_> = (0..THIEVES)
            .map(|_| {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                let sum = Arc::clone(&stolen_sum);
                let cnt = Arc::clone(&stolen_cnt);
                std::thread::spawn(move || loop {
                    match d.steal() {
                        Steal::Success(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            cnt.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if stop.load(Ordering::Acquire) == 1 {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        let mut o = owner();
        let mut kept_sum = 0usize;
        let mut kept_cnt = 0usize;
        let mut next = 1usize;
        for _ in 0..ROUNDS {
            for _ in 0..PER_ROUND {
                d.push(next, &mut o);
                next += 1;
            }
            // Pop about half back.
            for _ in 0..PER_ROUND / 2 {
                if let Some(v) = d.pop(&mut o) {
                    kept_sum += v;
                    kept_cnt += 1;
                }
            }
        }
        // Drain the rest.
        while let Some(v) = d.pop(&mut o) {
            kept_sum += v;
            kept_cnt += 1;
        }
        stop.store(1, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }

        let total = ROUNDS * PER_ROUND;
        let expect_sum = total * (total + 1) / 2;
        assert_eq!(
            kept_cnt + stolen_cnt.load(Ordering::Relaxed),
            total,
            "every element received exactly once"
        );
        assert_eq!(kept_sum + stolen_sum.load(Ordering::Relaxed), expect_sum);
    }

    /// Differential test against a `VecDeque` reference model on a
    /// pseudo-random operation sequence executed single-threaded:
    /// with no concurrency, push/pop/steal must behave exactly like
    /// back-insert/back-remove/front-remove on the model.
    #[test]
    fn differential_vs_model_single_thread() {
        use std::collections::VecDeque;
        let mut x = 0xC0FFEEu64 | 1;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let ours = ChaseLev::new();
        let mut o = owner();
        let mut model: VecDeque<u64> = VecDeque::new();

        let mut next = 0u64;
        for _ in 0..10_000 {
            match rng() % 3 {
                0 => {
                    ours.push(next, &mut o);
                    model.push_back(next);
                    next += 1;
                }
                1 => {
                    assert_eq!(ours.pop(&mut o), model.pop_back());
                }
                _ => {
                    // Single-threaded: Retry is impossible.
                    assert_eq!(ours.steal().success(), model.pop_front());
                }
            }
        }
    }
}
