//! Model-check invariants of `sieve_simnet::ShardQueue` — the real queue,
//! routed through the instrumented `sync` facade, explored across thread
//! interleavings by `sieve-check`.
#![cfg(feature = "model-check")]

use std::sync::Arc;

use sieve_check::{model, Checker};
use sieve_simnet::{Popped, PushOutcome, ShardQueue};
use sieve_stats::sync::atomic::{AtomicUsize, Ordering};
use sieve_stats::sync::thread;

/// Two producers racing one worker: every queued frame reaches the worker
/// exactly once (none lost, none double-drained), and the drain loop
/// terminates under every schedule.
#[test]
fn no_frame_lost_or_double_drained() {
    let report = Checker::new().max_dfs_executions(6000).check(|| {
        let q = Arc::new(ShardQueue::<u64>::new(4));
        q.open_lane(1);
        q.open_lane(2);
        let producers: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|lane| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..2u64 {
                        assert_eq!(q.try_push(lane, lane * 10 + i), PushOutcome::Queued);
                    }
                    q.close_lane(lane);
                })
            })
            .collect();
        let mut seen: Vec<u64> = Vec::new();
        let mut finished = 0;
        while finished < 2 {
            match q.pop() {
                Some(Popped::Item(_, v)) => seen.push(v),
                Some(Popped::LaneFinished(_)) => finished += 1,
                None => break,
            }
        }
        for h in producers {
            h.join().expect("producer ok");
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![10, 11, 20, 21], "lost or duplicated frame");
    });
    assert!(
        report.executions >= 1000,
        "expected >= 1000 interleavings, explored {}",
        report.executions
    );
}

/// A producer opening/closing a fresh lane while the worker drains: the
/// late-joining lane is never orphaned (its items and LaneFinished still
/// arrive) and the loop never deadlocks.
#[test]
fn lane_join_racing_drain_is_never_orphaned() {
    let report = model(|| {
        let q = Arc::new(ShardQueue::<u64>::new(2));
        q.open_lane(1);
        q.try_push(1, 100);
        q.close_lane(1);
        let joiner = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                assert!(q.open_lane(2), "queue not shut down yet");
                assert_eq!(q.try_push(2, 200), PushOutcome::Queued);
                q.close_lane(2);
            })
        };
        let mut items = Vec::new();
        let mut finished = Vec::new();
        while finished.len() < 2 {
            match q.pop() {
                Some(Popped::Item(k, v)) => items.push((k, v)),
                Some(Popped::LaneFinished(k)) => finished.push(k),
                None => break,
            }
        }
        joiner.join().expect("joiner ok");
        items.sort_unstable();
        finished.sort_unstable();
        assert_eq!(items, vec![(1, 100), (2, 200)], "orphaned item");
        assert_eq!(finished, vec![1, 2], "orphaned lane");
    });
    assert!(report.executions > 1);
}

/// `shutdown` racing a blocked worker and an in-flight producer: `pop`
/// always returns `None` eventually — the worker's exit signal can neither
/// be lost nor delivered before queued items drain.
#[test]
fn shutdown_always_terminates_the_worker() {
    let report = model(|| {
        let q = Arc::new(ShardQueue::<u64>::new(2));
        q.open_lane(1);
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut drained = 0u64;
                loop {
                    match q.pop() {
                        Some(Popped::Item(_, _)) => drained += 1,
                        Some(Popped::LaneFinished(_)) => {}
                        None => return drained,
                    }
                }
            })
        };
        // Push racing the worker, then shut down; the worker must exit.
        let pushed = u64::from(q.try_push(1, 7) == PushOutcome::Queued);
        q.shutdown();
        let drained = worker.join().expect("worker exits");
        assert_eq!(drained, pushed, "queued item lost across shutdown");
    });
    assert!(report.executions > 1);
}

/// Two workers draining one queue concurrently: items are still delivered
/// exactly once in total (the multi-popper contract of the module docs).
#[test]
fn concurrent_poppers_never_duplicate_items() {
    let report = Checker::new().check(|| {
        let q = Arc::new(ShardQueue::<u64>::new(4));
        q.open_lane(1);
        for i in 0..2u64 {
            assert_eq!(q.try_push(1, i), PushOutcome::Queued);
        }
        q.close_lane(1);
        q.shutdown();
        let total = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let total = Arc::clone(&total);
                thread::spawn(move || {
                    while let Some(p) = q.pop() {
                        if matches!(p, Popped::Item(_, _)) {
                            total.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().expect("worker ok");
        }
        assert_eq!(total.load(Ordering::SeqCst), 2, "item lost or duplicated");
    });
    assert!(
        report.violation.is_none(),
        "violation: {:?}",
        report.violation
    );
    assert!(report.executions > 1);
}
