//! Model-aware drop-ins for the `std::thread` surface wool uses.
//!
//! Spawned closures run on real OS threads but make progress only when
//! the model scheduler grants them the token. `park_timeout` is modeled
//! as `park` without a timeout: the model pretends the timeout never
//! fires, so a lost wakeup shows up as a detectable deadlock instead of
//! being silently papered over by the backstop.

use crate::rt;
use std::any::Any;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Mirror of `std::thread::Result`.
pub type Result<T> = std::result::Result<T, Box<dyn Any + Send + 'static>>;

/// Handle to a model thread, usable to `unpark` it (mirror of
/// `std::thread::Thread`).
#[derive(Clone, Debug)]
pub struct Thread {
    tid: usize,
}

impl Thread {
    /// Wakes the thread from `park` (or stores the token for a future
    /// `park`). Must be called from within the same model execution.
    pub fn unpark(&self) {
        rt::unpark(self.tid);
    }
}

/// The current model thread's handle.
pub fn current() -> Thread {
    Thread {
        tid: rt::current_tid().expect("wool-loom: thread::current outside a model"),
    }
}

/// Handle to a spawned model thread (mirror of `std::thread::JoinHandle`).
pub struct JoinHandle<T> {
    tid: usize,
    result: Arc<Mutex<Option<T>>>,
    thread: Thread,
}

impl<T> JoinHandle<T> {
    /// Blocks (in model time) until the thread finishes.
    ///
    /// A panic in the child is reported by the model checker itself (the
    /// execution is failed), so unlike std the `Err` arm is effectively
    /// unreachable; it is kept for API fidelity.
    pub fn join(self) -> Result<T> {
        rt::join_wait(self.tid);
        match self.result.lock().unwrap().take() {
            Some(v) => Ok(v),
            None => Err(Box::new("wool-loom: joined thread did not produce a value")),
        }
    }

    /// The [`Thread`] handle of the spawned thread.
    pub fn thread(&self) -> &Thread {
        &self.thread
    }

    /// Whether the spawned thread has finished.
    pub fn is_finished(&self) -> bool {
        rt::is_finished(self.tid)
    }
}

/// Spawns a model thread. Only callable inside [`crate::model`].
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("model spawn failed")
}

/// Mirror of `std::thread::Builder` (name and stack size are accepted
/// and ignored — model threads use small bounded programs).
#[derive(Default, Debug)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    /// Creates a builder with no name set.
    pub fn new() -> Self {
        Builder { name: None }
    }

    /// Names the thread (recorded on the OS thread for debugging).
    pub fn name(mut self, name: String) -> Self {
        self.name = Some(name);
        self
    }

    /// Accepted and ignored.
    pub fn stack_size(self, _size: usize) -> Self {
        self
    }

    /// Spawns a model thread (never fails; `io::Result` for API
    /// fidelity).
    pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (rt_handle, tid) = rt::register_thread();
        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&result);
        let rt2 = Arc::clone(&rt_handle);
        let os = std::thread::Builder::new()
            .name(self.name.unwrap_or_else(|| format!("wool-loom-{tid}")))
            .spawn(move || {
                rt::run_spawned(rt2, tid, move || {
                    let v = f();
                    *slot.lock().unwrap() = Some(v);
                })
            })?;
        let me = rt::current_tid().expect("spawn outside a model");
        rt::after_spawn(&rt_handle, me, os);
        Ok(JoinHandle {
            tid,
            result,
            thread: Thread { tid },
        })
    }
}

/// A plain scheduling point that also declares "nothing I can do right
/// now": the same spin rule as [`crate::hint::spin_loop`], keyed by
/// this call site.
#[track_caller]
pub fn yield_now() {
    rt::spin(std::panic::Location::caller());
}

/// Parks until [`Thread::unpark`]; a lost wakeup deadlocks the model
/// (which the checker reports).
pub fn park() {
    rt::park();
}

/// Modeled as [`park`]: the timeout never fires in model time.
pub fn park_timeout(_dur: Duration) {
    rt::park();
}

/// Modeled as a spin at this call site; model time does not advance.
#[track_caller]
pub fn sleep(_dur: Duration) {
    rt::spin(std::panic::Location::caller());
}

/// A fixed small value: models must not branch on host parallelism.
pub fn available_parallelism() -> std::io::Result<NonZeroUsize> {
    Ok(NonZeroUsize::new(2).unwrap())
}
