//! wool-serve: a persistent service layer over the Wool work-stealing
//! runtime.
//!
//! The paper's executor ([`wool_core::Pool`]) is batch-shaped: call
//! `run`, the calling thread becomes worker 0, the pool returns when
//! the single root job finishes. That is the right shape for
//! benchmarks, but a server wants the dual: a pool that outlives any
//! one computation and accepts jobs from many threads at once.
//!
//! [`ServePool`] provides that. Jobs enter through a bounded, lock-free
//! MPMC injector queue outside the task stacks, so the paper's fast
//! path — private tasks, trip-wire publication, leapfrogging — is
//! byte-for-byte the one `Pool::run` uses. Workers run queued jobs
//! before they try to steal, so a job's inner parallelism waits while
//! jobs are queued; throughput does not suffer, since every worker then
//! has a job of its own. Each submission returns a [`JobHandle`]: poll
//! it, block on it, or `.await` it; panics inside the job resurface at
//! the join, never on the worker.
//!
//! ```
//! use wool_serve::ServePool;
//!
//! let pool = ServePool::start(4);
//!
//! // Submit from any thread; each job is a fork-join root.
//! let handles: Vec<_> = (0..8u64)
//!     .map(|i| {
//!         pool.submit(move |h| {
//!             let (a, b) = h.fork(move |_| i * i, move |_| i);
//!             a + b
//!         })
//!         .unwrap()
//!     })
//!     .collect();
//!
//! let total: u64 = handles.into_iter().map(|h| h.join()).sum();
//! assert_eq!(total, (0..8).map(|i| i * i + i).sum());
//! ```
//!
//! Design rationale for the injector (and why it is *not* a per-worker
//! structure) is in `DESIGN.md` §10; the `trace` feature records
//! `inject` / `dequeue` / `job_done` events at the queue boundaries
//! (see `docs/TRACING.md`).

mod handle;
mod pool;

pub use handle::JobHandle;
pub use pool::{ServePool, SubmitError};

// Everything needed to configure a pool and write a job closure.
pub use wool_core::serve::ServeReport;
pub use wool_core::strategy;
pub use wool_core::{Job, PoolConfig, Stats, WorkerHandle};
