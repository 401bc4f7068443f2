//! Model-check the work-stealing protocol of `sieve_simnet::ShardQueue` —
//! the guarded-pop / steal-half / lane-busy claim that `sieve-fleet`'s
//! scheduler is built on — across thread interleavings with `sieve-check`.
//!
//! The invariants under test are the ones the fleet's correctness rests
//! on: **no frame lost**, **none double-drained**, **per-lane FIFO
//! processing order survives theft**, and **shutdown always terminates**
//! even with a thief mid-batch. A seeded TOCTOU double-steal bug
//! (`--cfg sieve_check_seeded_steal_bug`, see `ShardQueue::try_steal`)
//! mutates the protocol so two thieves can claim one lane concurrently;
//! the checker must find the resulting order violation — the mutation test
//! that keeps this suite honest.
#![cfg(feature = "model-check")]

use std::sync::Arc;

use sieve_check::{model, Checker};
use sieve_simnet::{GuardedPop, PushOutcome, ShardQueue, Steal};
use sieve_stats::sync::thread;
use sieve_stats::sync::Mutex;

/// Drains `q` as its owning worker would: guarded pops, completing each
/// lane after recording, waiting when a thief holds everything busy.
/// Records `(lane, item)` into `log`; returns the LaneFinished count.
fn owner_drain(q: &ShardQueue<u64>, log: &Mutex<Vec<(u64, u64)>>) -> usize {
    let mut finished = 0;
    loop {
        match q.try_pop_guarded() {
            GuardedPop::Item(key, v) => {
                log.lock().push((key, v));
                q.complete(key, None);
            }
            GuardedPop::LaneFinished(_) => finished += 1,
            GuardedPop::Empty => q.wait_for_work(),
            GuardedPop::Shutdown => return finished,
        }
    }
}

/// Steals from `q` until it reports empty: batches are recorded in order
/// and the lane released, exactly like the fleet's steal loop. Contended
/// retries are bounded — an unbounded spin is a livelock under the
/// checker, which may schedule the spinner forever. Leftovers after a
/// give-up are the owner's (or the model epilogue's) to drain.
fn thief_drain(q: &ShardQueue<u64>, log: &Mutex<Vec<(u64, u64)>>, max_items: usize) {
    let mut contended_budget = 3;
    loop {
        match q.try_steal(max_items) {
            Steal::Batch { key, items } => {
                for v in items {
                    log.lock().push((key, v));
                }
                q.complete(key, None);
            }
            Steal::Contended => {
                if contended_budget == 0 {
                    return;
                }
                contended_budget -= 1;
                thread::yield_now();
            }
            Steal::Empty => return,
        }
    }
}

/// Every lane's recorded processing sequence must be its push order.
fn assert_lane_fifo(log: &[(u64, u64)], lanes: &[u64]) {
    for &lane in lanes {
        let seq: Vec<u64> = log
            .iter()
            .filter(|(k, _)| *k == lane)
            .map(|&(_, v)| v)
            .collect();
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        assert_eq!(seq, sorted, "lane {lane} processed out of order");
    }
}

/// A thief racing the owner's drain over two closed lanes: every item is
/// processed exactly once, per-lane FIFO order survives the theft, and
/// both workers terminate. This is the core stealing invariant, explored
/// over ≥1000 interleavings.
#[test]
fn steal_racing_owner_drain_loses_nothing() {
    let report = Checker::new().max_dfs_executions(20000).check(|| {
        let q = Arc::new(ShardQueue::<u64>::new(8));
        q.open_lane(1);
        q.open_lane(2);
        for i in 0..4u64 {
            assert_eq!(q.try_push(1, i), PushOutcome::Queued);
        }
        for i in 10..12u64 {
            assert_eq!(q.try_push(2, i), PushOutcome::Queued);
        }
        q.close_lane(1);
        q.close_lane(2);
        q.shutdown();
        let log = Arc::new(Mutex::new(Vec::new()));
        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let (q, log) = (Arc::clone(&q), Arc::clone(&log));
                thread::spawn(move || thief_drain(&q, &log, 1))
            })
            .collect();
        let finished = owner_drain(&q, &log);
        for h in thieves {
            h.join().expect("thief ok");
        }
        assert_eq!(finished, 2, "every closed lane finishes exactly once");
        let log = log.lock();
        let mut all: Vec<(u64, u64)> = log.clone();
        all.sort_unstable();
        assert_eq!(
            all,
            vec![(1, 0), (1, 1), (1, 2), (1, 3), (2, 10), (2, 11)],
            "item lost or double-drained"
        );
        assert_lane_fifo(&log, &[1, 2]);
    });
    assert!(
        report.violation.is_none(),
        "violation: {:?}",
        report.violation
    );
    assert!(
        report.executions >= 1000,
        "expected >= 1000 interleavings, explored {}",
        report.executions
    );
}

/// A concurrent `leave()` (lane close) racing the thief and the owner: the
/// closing lane's items still arrive exactly once and its LaneFinished is
/// delivered exactly once — never while a thief holds the lane.
#[test]
fn steal_racing_concurrent_leave_is_exact() {
    let report = model(|| {
        let q = Arc::new(ShardQueue::<u64>::new(8));
        q.open_lane(1);
        q.open_lane(2);
        for i in 0..2u64 {
            assert_eq!(q.try_push(1, i), PushOutcome::Queued);
        }
        assert_eq!(q.try_push(2, 10), PushOutcome::Queued);
        q.close_lane(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let thief = {
            let (q, log) = (Arc::clone(&q), Arc::clone(&log));
            thread::spawn(move || thief_drain(&q, &log, 2))
        };
        // The racing control plane: lane 1 leaves while both drains run.
        let leaver = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                assert!(q.close_lane(1), "lane 1 still open");
                q.shutdown();
            })
        };
        let finished = owner_drain(&q, &log);
        thief.join().expect("thief ok");
        leaver.join().expect("leaver ok");
        assert_eq!(finished, 2, "each left lane finishes exactly once");
        let log = log.lock();
        let mut all: Vec<(u64, u64)> = log.clone();
        all.sort_unstable();
        assert_eq!(
            all,
            vec![(1, 0), (1, 1), (2, 10)],
            "leave() raced an item away (or duplicated one)"
        );
        assert_lane_fifo(&log, &[1, 2]);
    });
    assert!(
        report.violation.is_none(),
        "violation: {:?}",
        report.violation
    );
    assert!(report.executions > 1);
}

/// `shutdown()` fired while a thief is mid-batch: the owner's drain loop
/// still reaches `Shutdown` (the busy lane's finish is deferred, not
/// lost) and the thief terminates — under every schedule. The model
/// completing at all *is* the termination assertion.
#[test]
fn shutdown_terminates_with_thief_in_flight() {
    let report = model(|| {
        let q = Arc::new(ShardQueue::<u64>::new(8));
        q.open_lane(1);
        for i in 0..2u64 {
            assert_eq!(q.try_push(1, i), PushOutcome::Queued);
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let thief = {
            let (q, log) = (Arc::clone(&q), Arc::clone(&log));
            thread::spawn(move || thief_drain(&q, &log, 1))
        };
        // Shutdown races the theft (it closes every lane).
        q.shutdown();
        let finished = owner_drain(&q, &log);
        thief.join().expect("thief ok");
        assert_eq!(finished, 1, "the lane finishes exactly once");
        let mut all: Vec<(u64, u64)> = log.lock().clone();
        all.sort_unstable();
        assert_eq!(all, vec![(1, 0), (1, 1)], "shutdown lost a queued item");
    });
    assert!(
        report.violation.is_none(),
        "violation: {:?}",
        report.violation
    );
    assert!(report.executions > 1);
}

/// Two thieves over one deep lane. With the real protocol the lane-busy
/// claim serializes them (the second thief finds the lane claimed and
/// leaves); per-lane FIFO order is preserved under every schedule.
fn double_steal_model() {
    let q = Arc::new(ShardQueue::<u64>::new(8));
    q.open_lane(1);
    for i in 0..4u64 {
        assert_eq!(q.try_push(1, i), PushOutcome::Queued);
    }
    q.close_lane(1);
    q.shutdown();
    let log = Arc::new(Mutex::new(Vec::new()));
    let thieves: Vec<_> = (0..2)
        .map(|_| {
            let (q, log) = (Arc::clone(&q), Arc::clone(&log));
            thread::spawn(move || thief_drain(&q, &log, 2))
        })
        .collect();
    for h in thieves {
        h.join().expect("thief ok");
    }
    // Thieves may give up (Contended budget, or the lane busy under the
    // other thief); the owner drains whatever is left, as in the fleet.
    let finished = owner_drain(&q, &log);
    assert_eq!(finished, 1, "the lane finishes exactly once");
    let log = log.lock();
    let mut all: Vec<u64> = log.iter().map(|&(_, v)| v).collect();
    all.sort_unstable();
    assert_eq!(all, vec![0, 1, 2, 3], "item lost or double-drained");
    assert_lane_fifo(&log, &[1]);
}

/// With `--cfg sieve_check_seeded_steal_bug`, `try_steal` re-introduces a
/// TOCTOU: the victim lane is selected under the lock, the lock is
/// dropped, and the drain re-locks without re-checking the busy claim —
/// two thieves can then process one lane concurrently, interleaving its
/// FIFO order. The checker must find that violation, or this whole suite
/// proves nothing.
#[cfg(sieve_check_seeded_steal_bug)]
#[test]
fn checker_catches_the_seeded_double_steal_race() {
    let report = Checker::new().check(double_steal_model);
    let v = report.violation.unwrap_or_else(|| {
        panic!(
            "checker missed the seeded double-steal race ({} executions)",
            report.executions
        )
    });
    assert!(
        v.message.contains("out of order") || v.message.contains("double-drained"),
        "found a different violation: {v}"
    );
}

/// Without the seeded bug the same model explores clean: the busy claim
/// makes a second concurrent thief impossible.
#[cfg(not(sieve_check_seeded_steal_bug))]
#[test]
fn unmutated_double_steal_model_explores_clean() {
    let report = Checker::new().check(double_steal_model);
    assert!(
        report.violation.is_none(),
        "unexpected violation: {:?}",
        report.violation
    );
    assert!(report.complete, "this small space should be exhausted");
}
