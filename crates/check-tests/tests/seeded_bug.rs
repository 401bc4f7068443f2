//! The mutation test that tests the checker itself: building with
//! `RUSTFLAGS="--cfg sieve_check_seeded_bug"` re-introduces a known race in
//! `ShardQueue::pop` (the lock is dropped between observing a drained
//! closed lane and removing it, so two poppers can both deliver
//! `LaneFinished` for the same lane). The checker must find that race
//! within its interleaving budget — otherwise the whole model-check suite
//! is vacuous.
#![cfg(feature = "model-check")]

use std::sync::Arc;

use sieve_check::Checker;
use sieve_simnet::{Popped, ShardQueue};
use sieve_stats::sync::atomic::{AtomicUsize, Ordering};
use sieve_stats::sync::thread;

/// Two poppers racing over one drained closed lane; correct code delivers
/// `LaneFinished` exactly once.
fn double_finish_model() {
    let q = Arc::new(ShardQueue::<u8>::new(2));
    q.open_lane(1);
    q.close_lane(1);
    q.shutdown();
    let finishes = Arc::new(AtomicUsize::new(0));
    let poppers: Vec<_> = (0..2)
        .map(|_| {
            let q = Arc::clone(&q);
            let finishes = Arc::clone(&finishes);
            thread::spawn(move || {
                while let Some(p) = q.pop() {
                    if matches!(p, Popped::LaneFinished(_)) {
                        finishes.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    for h in poppers {
        h.join().expect("popper ok");
    }
    assert_eq!(
        finishes.load(Ordering::SeqCst),
        1,
        "LaneFinished delivered more than once"
    );
}

#[cfg(sieve_check_seeded_bug)]
#[test]
fn checker_catches_the_seeded_double_finish_race() {
    let report = Checker::new().check(double_finish_model);
    let v = report.violation.unwrap_or_else(|| {
        panic!(
            "checker missed the seeded race ({} executions)",
            report.executions
        )
    });
    assert!(
        v.message.contains("LaneFinished"),
        "found a different violation: {v}"
    );
}

#[cfg(not(sieve_check_seeded_bug))]
#[test]
fn unmutated_queue_delivers_lane_finished_exactly_once() {
    let report = Checker::new().check(double_finish_model);
    assert!(
        report.violation.is_none(),
        "unexpected violation: {:?}",
        report.violation
    );
    assert!(report.complete, "this small space should be exhausted");
}
