//! Instrumented thread spawn/join.
//!
//! Inside a model execution, spawned closures become *managed* threads: the
//! child is registered with the scheduler before its OS thread starts, the
//! OS thread parks until the scheduler picks it, and the parent hits a
//! decision point right after the spawn — so the schedule explorer can
//! interleave parent and child from the very first instruction. Outside a
//! model execution this is a plain `std::thread::spawn`.

use std::panic::{self, AssertUnwindSafe};
use std::thread as stdthread;

use crate::rt;

/// Handle to a spawned thread; mirrors `std::thread::JoinHandle`.
#[derive(Debug)]
pub struct JoinHandle<T> {
    inner: stdthread::JoinHandle<T>,
    model: Option<(std::sync::Arc<rt::Execution>, rt::Tid)>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result.
    ///
    /// # Errors
    ///
    /// Returns the panic payload if the thread panicked. Under the model a
    /// child panic is already recorded as a violation by the scheduler.
    pub fn join(self) -> stdthread::Result<T> {
        if let Some((ctx, me)) = rt::current() {
            if let Some((_, target)) = &self.model {
                ctx.join_thread(me, *target);
            }
        }
        self.inner.join()
    }
}

/// Spawns a thread; managed by the scheduler inside a model execution.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match rt::current() {
        None => JoinHandle {
            inner: stdthread::spawn(f),
            model: None,
        },
        Some((ctx, me)) => {
            let tid = ctx.register_thread();
            let child_ctx = ctx.clone();
            let inner = stdthread::spawn(move || {
                rt::set_context(Some((child_ctx.clone(), tid)));
                child_ctx.first_schedule(tid);
                let result = panic::catch_unwind(AssertUnwindSafe(f));
                let panic_msg = match &result {
                    Ok(_) => None,
                    Err(payload) => {
                        if payload.downcast_ref::<rt::AbortToken>().is_some() {
                            None
                        } else {
                            Some(rt::panic_payload_message(payload.as_ref()))
                        }
                    }
                };
                child_ctx.thread_finished(tid, panic_msg);
                rt::set_context(None);
                match result {
                    Ok(v) => v,
                    Err(payload) => panic::resume_unwind(payload),
                }
            });
            // The OS thread now exists and is parked on the scheduler, so
            // it is safe to let the explorer pick it.
            ctx.yield_op(me);
            JoinHandle {
                inner,
                model: Some((ctx, tid)),
            }
        }
    }
}

/// A plain decision point under the model; `std::thread::yield_now`
/// otherwise.
pub fn yield_now() {
    match rt::current() {
        None => stdthread::yield_now(),
        Some((ctx, me)) => ctx.yield_op(me),
    }
}
