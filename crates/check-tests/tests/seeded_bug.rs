//! The mutation test that tests the checker itself: building with
//! `RUSTFLAGS="--cfg sieve_check_seeded_bug"` re-introduces a known race in
//! `ShardQueue::try_pop_guarded` (the lock is dropped between observing a
//! finished lane and removing it, so two guarded workers can both deliver
//! `LaneFinished` for the same lane). The checker must find that race
//! within its interleaving budget — otherwise the whole model-check suite
//! is vacuous.
#![cfg(feature = "model-check")]

use std::sync::Arc;

use sieve_check::Checker;
use sieve_check_tests::guarded_next;
use sieve_simnet::{GuardedPop, ShardQueue};
use sieve_stats::sync::atomic::{AtomicUsize, Ordering};
use sieve_stats::sync::thread;

/// Two guarded workers racing over one drained closed lane; correct code
/// delivers `LaneFinished` exactly once.
fn double_finish_model() {
    let q = Arc::new(ShardQueue::<u8>::new(2));
    q.open_lane(1);
    q.close_lane(1);
    q.shutdown();
    let finishes = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let q = Arc::clone(&q);
            let finishes = Arc::clone(&finishes);
            thread::spawn(move || loop {
                match guarded_next(&q) {
                    GuardedPop::LaneFinished(_) => {
                        finishes.fetch_add(1, Ordering::SeqCst);
                    }
                    GuardedPop::Item(_, _) => {}
                    GuardedPop::Empty | GuardedPop::Shutdown => return,
                }
            })
        })
        .collect();
    for h in workers {
        h.join().expect("worker ok");
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
