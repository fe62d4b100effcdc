//! Model-aware drop-ins for `std::sync::atomic`.
//!
//! Inside a [`crate::model`] every operation is a scheduling point; the
//! checker serializes operations through its token hand-off, so the
//! plain `UnsafeCell` accesses below are data-race-free. `Ordering`
//! arguments are accepted for source compatibility but the model checks
//! the sequentially consistent semantics regardless (see the crate docs
//! for why that is the deliberate trade-off). Outside a model the types
//! degrade to direct single-threaded cell access.

/// Atomic shims plus [`fence`](atomic::fence); mirrors `std::sync::atomic`.
pub mod atomic {
    use crate::rt;
    use std::cell::UnsafeCell;

    pub use std::sync::atomic::Ordering;

    /// A scheduling point with no data effect: under the model's
    /// sequentially consistent semantics a fence adds no extra ordering,
    /// but it still participates in schedule exploration.
    pub fn fence(_order: Ordering) {
        rt::op(false, || ());
    }

    macro_rules! int_atomic {
        ($name:ident, $ty:ty) => {
            /// Model-checked counterpart of the std atomic of the same
            /// name. Operations are scheduling points inside a model.
            #[derive(Default)]
            pub struct $name {
                v: UnsafeCell<$ty>,
            }

            // SAFETY: inside a model, accesses are serialized by the
            // scheduler token (one runnable thread at a time, hand-off
            // through a mutex); outside a model the type is only used
            // single-threaded.
            unsafe impl Send for $name {}
            unsafe impl Sync for $name {}

            impl $name {
                /// Creates a new atomic (const, like std's).
                pub const fn new(v: $ty) -> Self {
                    $name {
                        v: UnsafeCell::new(v),
                    }
                }

                /// Model-checked load (a scheduling point inside a model).
                pub fn load(&self, _o: Ordering) -> $ty {
                    rt::op(false, || unsafe { *self.v.get() })
                }

                /// Model-checked store (a write-class scheduling point).
                pub fn store(&self, val: $ty, _o: Ordering) {
                    rt::op(true, || unsafe { *self.v.get() = val })
                }

                /// Model-checked swap.
                pub fn swap(&self, val: $ty, _o: Ordering) -> $ty {
                    rt::op(true, || unsafe {
                        let p = self.v.get();
                        std::mem::replace(&mut *p, val)
                    })
                }

                /// Model-checked compare-and-exchange; an RMW is a write-class
                /// scheduling point even on failure.
                pub fn compare_exchange(
                    &self,
                    expect: $ty,
                    new: $ty,
                    _ok: Ordering,
                    _err: Ordering,
                ) -> Result<$ty, $ty> {
                    // An RMW is write-class even when it fails: treating
                    // it so only wakes spinners early, never misses.
                    rt::op(true, || unsafe {
                        let p = self.v.get();
                        if *p == expect {
                            *p = new;
                            Ok(expect)
                        } else {
                            Err(*p)
                        }
                    })
                }

                /// Modeled as the strong variant: the model never injects
                /// spurious failures (documented limitation).
                pub fn compare_exchange_weak(
                    &self,
                    expect: $ty,
                    new: $ty,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(expect, new, ok, err)
                }

                /// Model-checked fetch-add (wrapping).
                pub fn fetch_add(&self, val: $ty, _o: Ordering) -> $ty {
                    rt::op(true, || unsafe {
                        let p = self.v.get();
                        let old = *p;
                        *p = old.wrapping_add(val);
                        old
                    })
                }

                /// Model-checked fetch-sub (wrapping).
                pub fn fetch_sub(&self, val: $ty, _o: Ordering) -> $ty {
                    rt::op(true, || unsafe {
                        let p = self.v.get();
                        let old = *p;
                        *p = old.wrapping_sub(val);
                        old
                    })
                }

                /// Model-checked fetch-or.
                pub fn fetch_or(&self, val: $ty, _o: Ordering) -> $ty {
                    rt::op(true, || unsafe {
                        let p = self.v.get();
                        let old = *p;
                        *p = old | val;
                        old
                    })
                }

                /// Model-checked fetch-and.
                pub fn fetch_and(&self, val: $ty, _o: Ordering) -> $ty {
                    rt::op(true, || unsafe {
                        let p = self.v.get();
                        let old = *p;
                        *p = old & val;
                        old
                    })
                }

                /// Non-atomic read through exclusive access (like std's).
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.v.get_mut()
                }

                /// Consumes the atomic, returning the value.
                pub fn into_inner(self) -> $ty {
                    self.v.into_inner()
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // Debug formatting must not perturb the schedule:
                    // read the cell directly.
                    write!(f, "{:?}", unsafe { *self.v.get() })
                }
            }
        };
    }

    int_atomic!(AtomicUsize, usize);
    int_atomic!(AtomicU64, u64);
    int_atomic!(AtomicU32, u32);
    int_atomic!(AtomicU8, u8);
    int_atomic!(AtomicI64, i64);

    /// Model-checked counterpart of `std::sync::atomic::AtomicBool`.
    #[derive(Default)]
    pub struct AtomicBool {
        v: UnsafeCell<bool>,
    }

    // SAFETY: as for the integer atomics above.
    unsafe impl Send for AtomicBool {}
    unsafe impl Sync for AtomicBool {}

    impl AtomicBool {
        /// Creates a new atomic flag (const, like std's).
        pub const fn new(v: bool) -> Self {
            AtomicBool {
                v: UnsafeCell::new(v),
            }
        }

        /// Model-checked load (a scheduling point inside a model).
        pub fn load(&self, _o: Ordering) -> bool {
            rt::op(false, || unsafe { *self.v.get() })
        }

        /// Model-checked store (a write-class scheduling point).
        pub fn store(&self, val: bool, _o: Ordering) {
            rt::op(true, || unsafe { *self.v.get() = val })
        }

        /// Model-checked swap.
        pub fn swap(&self, val: bool, _o: Ordering) -> bool {
            rt::op(true, || unsafe {
                let p = self.v.get();
                std::mem::replace(&mut *p, val)
            })
        }

        /// Model-checked compare-and-exchange; an RMW is a write-class
        /// scheduling point even on failure.
        pub fn compare_exchange(
            &self,
            expect: bool,
            new: bool,
            _ok: Ordering,
            _err: Ordering,
        ) -> Result<bool, bool> {
            rt::op(true, || unsafe {
                let p = self.v.get();
                if *p == expect {
                    *p = new;
                    Ok(expect)
                } else {
                    Err(*p)
                }
            })
        }

        /// Modeled as the strong variant (no spurious failures).
        pub fn compare_exchange_weak(
            &self,
            expect: bool,
            new: bool,
            ok: Ordering,
            err: Ordering,
        ) -> Result<bool, bool> {
            self.compare_exchange(expect, new, ok, err)
        }

        /// Model-checked fetch-or.
        pub fn fetch_or(&self, val: bool, _o: Ordering) -> bool {
            rt::op(true, || unsafe {
                let p = self.v.get();
                let old = *p;
                *p = old | val;
                old
            })
        }

        /// Model-checked fetch-and.
        pub fn fetch_and(&self, val: bool, _o: Ordering) -> bool {
            rt::op(true, || unsafe {
                let p = self.v.get();
                let old = *p;
                *p = old & val;
                old
            })
        }

        /// Non-atomic read through exclusive access (like std's).
        pub fn get_mut(&mut self) -> &mut bool {
            self.v.get_mut()
        }

        /// Consumes the atomic, returning the value.
        pub fn into_inner(self) -> bool {
            self.v.into_inner()
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{:?}", unsafe { *self.v.get() })
        }
    }
}
