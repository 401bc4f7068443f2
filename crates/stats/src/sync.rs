//! The workspace synchronization facade.
//!
//! Every crate in the runtime path (`sieve-stats`, `sieve-simnet`,
//! `sieve-core`, `sieve-fleet`, `sieve-net`) takes its locks, condvars,
//! atomics and thread spawns from this module instead of
//! `std::sync`/`parking_lot` directly. It lives here because `sieve-stats`
//! is the lowest runtime crate in the dependency graph;
//! `sieve_simnet::sync` re-exports it whole, which is the path most of the
//! workspace spells. Normally the types resolve to the real primitives
//! (non-poisoning `parking_lot`-style guards over `std`); under the
//! `model-check` feature they resolve to `sieve-check`'s instrumented
//! equivalents, which hand every operation — every relaxed counter
//! increment included — to a deterministic schedule explorer, so the
//! model-check suite exercises the *same* queue, scheduler and instrument
//! code that runs in production, not a re-implementation.
//!
//! The facade API is the intersection the runtime needs:
//! * `Mutex`/`RwLock` with non-poisoning `lock()`/`read()`/`write()`, and
//!   `Mutex::try_lock() -> Option<guard>` — the work-stealing scheduler's
//!   owner-wins protocol rests on `try_lock` being instrumented too, so
//!   the explorer schedules around a failed acquisition exactly like a
//!   successful one;
//! * `Condvar::wait(guard) -> guard` (consuming style, no poison result);
//! * `atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering}`;
//! * `thread::{spawn, JoinHandle, yield_now}`.
//!
//! The `no-std-sync` and `no-raw-spawn` lints (`cargo xtask lint`) keep
//! runtime code from bypassing this module.

#[cfg(feature = "model-check")]
pub use sieve_check::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

#[cfg(feature = "model-check")]
pub use sieve_check::sync::atomic;

#[cfg(feature = "model-check")]
pub use sieve_check::thread;

#[cfg(not(feature = "model-check"))]
pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(feature = "model-check"))]
pub use real::{atomic, thread, Condvar};

#[cfg(not(feature = "model-check"))]
mod real {
    // The facade *is* the sanctioned wrapper over std sync.
    // lint:allow-file(no-std-sync): this module is the facade's std backend
    // lint:allow-file(no-raw-spawn): thread::spawn is re-exported from here

    /// Atomics pass straight through to `std`.
    pub use std::sync::atomic;

    /// Thread spawn/join pass straight through to `std`.
    pub mod thread {
        pub use std::thread::{spawn, yield_now, JoinHandle};
    }

    use super::MutexGuard;

    /// A condition variable with a consuming, non-poisoning `wait`.
    ///
    /// Works with the facade's [`super::Mutex`] guards (the `parking_lot`
    /// shim's guard is a `std` guard underneath, so the `std` condvar can
    /// block on it directly).
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    // `#[inline]`: the shard queue calls these from another crate on every
    // push and park.
    impl Condvar {
        /// Creates a condition variable.
        #[inline]
        pub fn new() -> Self {
            Self::default()
        }

        /// Atomically releases the guard's mutex and waits; the mutex is
        /// reacquired before returning. Callers must re-check their
        /// predicate in a loop (spurious wakeups happen).
        #[inline]
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            self.0.wait(guard).unwrap_or_else(|e| e.into_inner())
        }

        /// Wakes one waiter.
        #[inline]
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wakes every waiter.
        #[inline]
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }
}
