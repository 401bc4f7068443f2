//! Lost-wake-up models of `sieve_simnet::ShardQueue`'s waiter-counted
//! notifies. In each model a worker may park on the queue before the
//! operation under test runs, and only that operation can wake it: the
//! other thread waits for the worker's acknowledgement before it shuts the
//! queue down (shutdown wakes everyone, so a model that shut down first
//! would hide a skipped notify). A lost wake-up leaves both threads
//! blocked, which the explorer reports as a deadlock.
//!
//! With `--cfg sieve_check_seeded_wakeup_bug` the queue skips its notify
//! when exactly one worker is parked (see `State::has_waiters`), and every
//! model here must be reported as a deadlock.
#![cfg(feature = "model-check")]

use std::sync::Arc;

use sieve_check::{Checker, Report};
use sieve_check_tests::guarded_next;
use sieve_simnet::{GuardedPop, PushOutcome, ShardQueue, Steal};
use sieve_stats::sync::{thread, Condvar, Mutex};

/// A one-shot blocking hand-off from the worker back to the model body.
#[derive(Default)]
struct Ack {
    value: Mutex<Option<GuardedPop<u64>>>,
    ready: Condvar,
}

impl Ack {
    fn send(&self, got: GuardedPop<u64>) {
        *self.value.lock() = Some(got);
        self.ready.notify_one();
    }

    fn recv(&self) -> GuardedPop<u64> {
        let mut g = self.value.lock();
        loop {
            if let Some(got) = g.take() {
                return got;
            }
            g = self.ready.wait(g);
        }
    }
}

/// Spawns a guarded worker that takes one delivery with `guarded_next`
/// (parking in `wait_for_work` while the queue is empty) and acknowledges
/// it; runs `wake` on the calling thread; returns the acknowledged
/// delivery after shutting the queue down and joining the worker.
fn hand_off(q: &Arc<ShardQueue<u64>>, wake: impl FnOnce(&ShardQueue<u64>)) -> GuardedPop<u64> {
    let ack = Arc::new(Ack::default());
    let worker = {
        let (q, ack) = (Arc::clone(q), Arc::clone(&ack));
        thread::spawn(move || ack.send(guarded_next(&q)))
    };
    wake(q);
    let got = ack.recv();
    q.shutdown();
    worker.join().expect("worker ok");
    got
}

/// Clean and exhaustive normally; a deadlock under the seeded mutation.
fn verdict(report: Report) {
    if cfg!(sieve_check_seeded_wakeup_bug) {
        let v = report.violation.unwrap_or_else(|| {
            panic!(
                "checker missed the seeded lost wake-up ({} executions)",
                report.executions
            )
        });
        assert!(
            v.message.contains("deadlock"),
            "found a different violation: {v}"
        );
    } else {
        assert!(
            report.violation.is_none(),
            "unexpected violation: {:?}",
            report.violation
        );
        assert!(report.complete, "this small space should be exhausted");
        assert!(report.executions > 1);
    }
}

/// `try_push` to a cooperative worker parked in `wait_for_work`.
#[test]
fn push_wakes_a_worker_parked_in_wait_for_work() {
    verdict(Checker::new().check(|| {
        let q = Arc::new(ShardQueue::<u64>::new(2));
        q.open_lane(1);
        let got = hand_off(&q, |q| {
            assert_eq!(q.try_push(1, 7), PushOutcome::Queued);
        });
        assert_eq!(got, GuardedPop::Item(1, 7));
    }));
}

/// A thief holds the only non-empty lane busy, so the owner finds nothing
/// poppable and parks; the thief's `complete` is what frees the rest of
/// the lane, and it must wake the owner.
#[test]
fn complete_of_a_stolen_lane_wakes_the_parked_owner() {
    verdict(Checker::new().check(|| {
        let q = Arc::new(ShardQueue::<u64>::new(2));
        q.open_lane(1);
        q.try_push(1, 0);
        q.try_push(1, 1);
        let Steal::Batch { key, items } = q.try_steal(8) else {
            panic!("nobody else holds the queue yet");
        };
        assert_eq!(items, vec![0], "the front half of two");
        let got = hand_off(&q, |q| q.complete(key, None));
        assert_eq!(
            got,
            GuardedPop::Item(1, 1),
            "the owner resumes after the batch"
        );
    }));
}

/// `close_lane` on an empty lane makes it finishable; a worker parked on
/// the queue must be woken to deliver `LaneFinished`.
#[test]
fn close_lane_wakes_a_parked_worker_to_finish_the_lane() {
    verdict(Checker::new().check(|| {
        let q = Arc::new(ShardQueue::<u64>::new(2));
        q.open_lane(1);
        let got = hand_off(&q, |q| assert!(q.close_lane(1)));
        assert_eq!(got, GuardedPop::LaneFinished(1));
    }));
}
