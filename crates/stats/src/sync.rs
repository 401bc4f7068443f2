//! The workspace synchronization facade.
//!
//! Every crate in the runtime path (`sieve-stats`, `sieve-simnet`,
//! `sieve-core`, `sieve-fleet`, `sieve-net`) takes its locks, condvars,
//! atomics and thread spawns from this module instead of `std::sync`
//! directly. It lives here because `sieve-stats` is the lowest runtime
//! crate in the dependency graph. Normally the types resolve to the real
//! primitives (the poison-ignoring newtypes over `std` in this file's
//! private `real` module); under the `model-check` feature they resolve to
//! `sieve-check`'s instrumented equivalents, which hand every operation —
//! every relaxed counter increment included — to a deterministic schedule
//! explorer, so the model-check suite exercises the *same* queue,
//! scheduler and instrument code that runs in production, not a
//! re-implementation.
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
pub use real::{
    atomic, thread, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

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

    use std::sync::{self, TryLockError};

    /// A mutual-exclusion lock whose `lock` cannot fail: a panic in a
    /// previous holder does not poison it.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

    /// Guard returned by [`Mutex::lock`].
    pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

    impl<T> Mutex<T> {
        /// Creates a mutex holding `value`.
        pub fn new(value: T) -> Self {
            Self(sync::Mutex::new(value))
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock, ignoring poisoning.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Tries to acquire the lock without blocking.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match self.0.try_lock() {
                Ok(g) => Some(g),
                Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            }
        }

        /// Mutable access without locking (requires exclusive borrow).
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// A reader-writer lock whose acquisitions cannot fail.
    #[derive(Debug, Default)]
    pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

    /// Guard returned by [`RwLock::read`].
    pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
    /// Guard returned by [`RwLock::write`].
    pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

    impl<T> RwLock<T> {
        /// Creates a lock holding `value`.
        pub fn new(value: T) -> Self {
            Self(sync::RwLock::new(value))
        }

        /// Consumes the lock, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquires a shared read guard, ignoring poisoning.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(|e| e.into_inner())
        }

        /// Acquires an exclusive write guard, ignoring poisoning.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// A condition variable with a consuming, non-poisoning `wait`.
    ///
    /// Works with [`Mutex`]'s guards: they are `std` guards, so the `std`
    /// condvar blocks on them directly.
    #[derive(Debug, Default)]
    pub struct Condvar(sync::Condvar);

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

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc;

        #[test]
        fn mutex_counts_across_threads() {
            let m = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let m = m.clone();
                    thread::spawn(move || {
                        for _ in 0..1000 {
                            *m.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("no panic");
            }
            assert_eq!(*m.lock(), 4000);
        }

        #[test]
        fn rwlock_read_write() {
            let l = RwLock::new(5);
            assert_eq!(*l.read(), 5);
            *l.write() = 6;
            assert_eq!(*l.read(), 6);
            assert_eq!(l.into_inner(), 6);
        }

        /// A holder that panics must not take the lock down with it: the
        /// fleet's supervisor restarts a panicked worker and the next holder
        /// carries on with the data as the panic left it.
        #[test]
        fn a_panicked_holder_poisons_nothing() {
            let m = Arc::new(Mutex::new(1u32));
            let l = Arc::new(RwLock::new(1u32));
            let (m2, l2) = (m.clone(), l.clone());
            let died = thread::spawn(move || {
                let _held = m2.lock();
                let _written = l2.write();
                panic!("holder dies with both guards");
            })
            .join();
            assert!(died.is_err());
            assert_eq!(*m.try_lock().expect("free, not poisoned"), 1);
            *m.lock() += 1;
            *l.write() += 1;
            assert_eq!(*l.read(), 2);
            let mut m = Arc::into_inner(m).expect("sole owner");
            assert_eq!(*m.get_mut(), 2);
            assert_eq!(m.into_inner(), 2);
        }
    }
}
