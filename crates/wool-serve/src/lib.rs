//! The serve layer now lives in `wool-core`; this crate re-exports it.
//!
//! ```
//! let pool = wool_serve::ServePool::start(2);
//! assert_eq!(pool.submit(|_| 6 * 7).unwrap().join(), 42);
//! ```

pub use wool_core::{JobHandle, ServePool, ServeReport, SubmitError};
