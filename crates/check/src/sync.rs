//! Instrumented synchronization primitives.
//!
//! Inside a model execution every operation is a scheduler decision point
//! (see `crate::rt`); outside one, each type behaves exactly like its
//! `std::sync` counterpart with non-poisoning guards — so a crate routed
//! through a `sync` facade compiled against this module still runs its
//! ordinary tests and binaries unchanged.
//!
//! Modelled semantics (deliberate simplifications, documented here once):
//! * atomics are sequentially consistent at operation granularity — the
//!   checker explores interleavings, not weak memory orderings;
//! * `Condvar` has no spurious wakeups and `notify_one` wakes waiters in
//!   FIFO order;
//! * `RwLock` is exclusive under the model (readers serialize), which can
//!   only reduce the explored interleavings of reader-only sections, never
//!   miss a writer race.

use std::sync::{self as stdsync, TryLockError};

use crate::rt;

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock: `std::sync::Mutex` semantics, non-poisoning
/// API, scheduler-visible inside a model execution.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: stdsync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]; releases the model-level lock (and
/// hits a decision point) on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<stdsync::MutexGuard<'a, T>>,
    model: Option<(std::sync::Arc<rt::Execution>, rt::Tid)>,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: stdsync::Mutex::new(value),
        }
    }

    fn id(&self) -> usize {
        self as *const Self as usize
    }

    /// Acquires the lock (a decision point under the model).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let model = rt::current();
        if let Some((ctx, me)) = &model {
            ctx.mutex_lock(*me, self.id());
        }
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard {
            lock: self,
            inner: Some(inner),
            model,
        }
    }

    /// Tries to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let model = rt::current();
        if let Some((ctx, me)) = &model {
            if !ctx.mutex_try_lock(*me, self.id()) {
                return None;
            }
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            return Some(MutexGuard {
                lock: self,
                inner: Some(inner),
                model,
            });
        }
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                lock: self,
                inner: Some(g),
                model: None,
            }),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard {
                lock: self,
                inner: Some(e.into_inner()),
                model: None,
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before the model-level release hands the
        // critical section to another thread.
        drop(self.inner.take());
        if let Some((ctx, me)) = &self.model {
            ctx.mutex_unlock(*me, self.lock.id());
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable working with [`Mutex`]/[`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: stdsync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    fn id(&self) -> usize {
        self as *const Self as usize
    }

    /// Atomically releases the guard's mutex and waits for a notification;
    /// the mutex is reacquired before returning. No spurious wakeups are
    /// modelled; callers must still use a predicate loop (real condvars do
    /// wake spuriously).
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let lock = guard.lock;
        let model = guard.model.clone();
        let std_guard = guard.inner.take().expect("guard holds the lock");
        std::mem::forget(guard);
        match model {
            None => {
                let g = self
                    .inner
                    .wait(std_guard)
                    .unwrap_or_else(|e| e.into_inner());
                MutexGuard {
                    lock,
                    inner: Some(g),
                    model: None,
                }
            }
            Some((ctx, me)) => {
                // The model owns blocking: release the real lock, run the
                // wait/reacquire protocol, then retake the (model-granted,
                // hence uncontended) real lock.
                drop(std_guard);
                ctx.condvar_wait(me, self.id(), lock.id());
                let g = lock.inner.lock().unwrap_or_else(|e| e.into_inner());
                MutexGuard {
                    lock,
                    inner: Some(g),
                    model: Some((ctx, me)),
                }
            }
        }
    }

    /// Wakes one waiter (FIFO under the model).
    pub fn notify_one(&self) {
        if let Some((ctx, me)) = rt::current() {
            ctx.condvar_notify(me, self.id(), false);
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some((ctx, me)) = rt::current() {
            ctx.condvar_notify(me, self.id(), true);
        }
        self.inner.notify_all();
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock. Under the model both `read` and `write` are
/// exclusive (see the module docs); outside a model execution it is a real
/// `std::sync::RwLock` with non-poisoning guards.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: stdsync::RwLock<T>,
}

/// Guard returned by [`RwLock::read`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<stdsync::RwLockReadGuard<'a, T>>,
    model: Option<(std::sync::Arc<rt::Execution>, rt::Tid)>,
}

/// Guard returned by [`RwLock::write`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<stdsync::RwLockWriteGuard<'a, T>>,
    model: Option<(std::sync::Arc<rt::Execution>, rt::Tid)>,
}

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: stdsync::RwLock::new(value),
        }
    }

    fn id(&self) -> usize {
        self as *const Self as usize
    }

    /// Acquires a shared read guard (exclusive under the model).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let model = rt::current();
        if let Some((ctx, me)) = &model {
            ctx.mutex_lock(*me, self.id());
        }
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RwLockReadGuard {
            lock: self,
            inner: Some(inner),
            model,
        }
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let model = rt::current();
        if let Some((ctx, me)) = &model {
            ctx.mutex_lock(*me, self.id());
        }
        let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        RwLockWriteGuard {
            lock: self,
            inner: Some(inner),
            model,
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((ctx, me)) = &self.model {
            ctx.mutex_unlock(*me, self.lock.id());
        }
    }
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((ctx, me)) = &self.model {
            ctx.mutex_unlock(*me, self.lock.id());
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Instrumented atomic integers and flags: each operation is one scheduler
/// decision point, then executes sequentially consistently.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::rt;

    fn yield_point() {
        if let Some((ctx, me)) = rt::current() {
            ctx.yield_op(me);
        }
    }

    macro_rules! instrumented_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Scheduler-visible atomic; API mirrors the `std` type.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates the atomic with an initial value.
                pub fn new(v: $prim) -> Self {
                    Self {
                        inner: <$std>::new(v),
                    }
                }

                /// Atomic load (a decision point under the model).
                pub fn load(&self, order: Ordering) -> $prim {
                    yield_point();
                    self.inner.load(order)
                }

                /// Atomic store (a decision point under the model).
                pub fn store(&self, v: $prim, order: Ordering) {
                    yield_point();
                    self.inner.store(v, order);
                }
            }
        };
    }

    instrumented_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    instrumented_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    instrumented_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    macro_rules! instrumented_atomic_int_ops {
        ($name:ident, $prim:ty) => {
            impl $name {
                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    yield_point();
                    self.inner.fetch_add(v, order)
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    yield_point();
                    self.inner.fetch_sub(v, order)
                }

                /// Atomic read-modify-write; `f` returning `None` aborts.
                ///
                /// # Errors
                ///
                /// Returns `Err(previous)` when `f` declines to update.
                pub fn fetch_update<F>(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    f: F,
                ) -> Result<$prim, $prim>
                where
                    F: FnMut($prim) -> Option<$prim>,
                {
                    yield_point();
                    self.inner.fetch_update(set_order, fetch_order, f)
                }

                /// Atomic compare-and-swap.
                ///
                /// # Errors
                ///
                /// Returns `Err(actual)` when the current value differs
                /// from `current`.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    yield_point();
                    self.inner.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    instrumented_atomic_int_ops!(AtomicU64, u64);
    instrumented_atomic_int_ops!(AtomicUsize, usize);
}
