//! Model-check invariants of the `sieve-fleet` scheduler — a real `Fleet`
//! (worker threads, registry, global budget, per-stream counters) explored
//! across thread interleavings. Frames are pushed as P-frames so the
//! `IFrameSelector` policy drops them on metadata alone: the decision
//! path, counters and queue discipline are all exercised without decode
//! work inflating the state space.
#![cfg(feature = "model-check")]

use std::sync::atomic::{AtomicU64, Ordering};

use sieve_check::Checker;
use sieve_core::IFrameSelector;
use sieve_fleet::StreamConfig;
use sieve_fleet::{Fleet, FleetConfig, FramePacket, Ingest, ShedCause};
use sieve_video::{FrameType, Resolution};

fn packet(index: usize) -> FramePacket {
    FramePacket {
        index,
        frame_type: FrameType::P,
        payload: [0u8; 4].into(),
    }
}

fn stream_config() -> StreamConfig {
    StreamConfig::new("model", Resolution::new(16, 16), 50)
}

/// `join` → pushes racing the shard drain loop → `leave` → `shutdown`:
/// never deadlocks, never orphans the stream (its session is always
/// flushed), and every pushed frame is either processed or shed — exactly
/// once.
#[test]
fn join_leave_racing_drain_never_orphans_a_stream() {
    let report = Checker::new()
        .max_dfs_executions(400)
        .random_executions(100)
        .check(|| {
            let fleet = Fleet::new(FleetConfig {
                shards: 1,
                queue_capacity: 2,
                global_frame_budget: 4,
                max_streams: 2,
                ..FleetConfig::default()
            });
            let selector = IFrameSelector::new();
            let id = fleet.join(&selector, stream_config()).expect("admitted");
            let mut shed = 0u64;
            for i in 0..2 {
                match fleet.push(id, packet(i)).expect("stream open") {
                    Ingest::Queued => {}
                    Ingest::Shed(_) => shed += 1,
                }
            }
            fleet.leave(id).expect("first leave succeeds");
            let report = fleet.shutdown();
            let s = &report.snapshot.streams[0];
            assert!(s.done, "stream orphaned: session never flushed");
            assert_eq!(
                s.processed + s.shed,
                2,
                "frame lost or double-counted (processed={} shed={})",
                s.processed,
                s.shed
            );
            assert_eq!(s.shed, shed, "shed accounting disagrees with ingest");
            assert_eq!(s.processed, s.kept + s.dropped + s.failed);
            assert_eq!(s.queue_depth, 0, "depth counter leaked");
        });
    assert!(
        report.violation.is_none(),
        "violation: {:?}",
        report.violation
    );
    assert!(report.executions > 1);
}

/// Overload path: with a global budget of 1, pushes racing the worker's
/// budget release shed — and each shed frame is counted exactly once, on
/// exactly one cause, with the inflight gauge returning to zero.
#[test]
fn shed_accounting_never_double_counts() {
    let report = Checker::new()
        .max_dfs_executions(400)
        .random_executions(100)
        .check(|| {
            let fleet = Fleet::new(FleetConfig {
                shards: 1,
                queue_capacity: 2,
                global_frame_budget: 1,
                max_streams: 2,
                ..FleetConfig::default()
            });
            let selector = IFrameSelector::new();
            let id = fleet.join(&selector, stream_config()).expect("admitted");
            let mut shed = 0u64;
            for i in 0..3 {
                match fleet.push(id, packet(i)).expect("stream open") {
                    Ingest::Queued => {}
                    Ingest::Shed(ShedCause::GlobalBudget | ShedCause::QueueFull) => shed += 1,
                }
            }
            fleet.leave(id).expect("leave");
            let report = fleet.shutdown();
            let s = &report.snapshot.streams[0];
            assert_eq!(s.shed, shed, "shed double- or under-counted");
            assert_eq!(s.processed + s.shed, 3, "frame lost");
            assert_eq!(report.snapshot.aggregate.queue_depth, 0);
        });
    assert!(
        report.violation.is_none(),
        "violation: {:?}",
        report.violation
    );
    assert!(report.executions > 1);
}

/// Shutdown with frames still queued and a stream never explicitly left:
/// always terminates (workers join), and the implicit close still flushes
/// the session.
#[test]
fn shutdown_always_terminates_and_flushes() {
    let report = Checker::new()
        .max_dfs_executions(400)
        .random_executions(100)
        .check(|| {
            let fleet = Fleet::new(FleetConfig {
                shards: 1,
                queue_capacity: 2,
                global_frame_budget: 4,
                max_streams: 2,
                ..FleetConfig::default()
            });
            let selector = IFrameSelector::new();
            let id = fleet.join(&selector, stream_config()).expect("admitted");
            let _ = fleet.push(id, packet(0)).expect("stream open");
            // No leave(): shutdown itself must close, drain and flush.
            let report = fleet.shutdown();
            let s = &report.snapshot.streams[0];
            assert!(s.done, "shutdown left the session unflushed");
            assert_eq!(s.processed + s.shed, 1);
        });
    assert!(
        report.violation.is_none(),
        "violation: {:?}",
        report.violation
    );
    assert!(report.executions > 1);
}

/// Two shards, one stream: the idle shard steals from the home lane while
/// the owner drains it and `leave` closes it. Every frame reaches the
/// stream's state through the slot it carries, and a worker that finds
/// that state already held panics ("the lane's busy mark admits one worker
/// per stream") — so a clean exploration *is* the assertion that a stolen
/// batch, the owner and the end-of-stream flush never hold one stream's
/// state at once. The ledger closes as on one shard, and theft must
/// actually occur in the explored schedules or the model proves nothing.
#[test]
fn stolen_batch_and_owner_never_share_a_streams_state() {
    // Counted outside the model (a plain atomic the explorer does not
    // schedule around): executions in which a frame was decided off its
    // home shard.
    static THEFTS: AtomicU64 = AtomicU64::new(0);
    let report = Checker::new()
        .max_dfs_executions(600)
        .random_executions(300)
        .check(|| {
            let fleet = Fleet::new(FleetConfig {
                shards: 2,
                queue_capacity: 4,
                global_frame_budget: 8,
                max_streams: 2,
                ..FleetConfig::default()
            });
            let selector = IFrameSelector::new();
            let id = fleet.join(&selector, stream_config()).expect("admitted");
            for i in 0..3 {
                let pushed = fleet.push(id, packet(i)).expect("stream open");
                assert_eq!(pushed, Ingest::Queued, "budget and lane both fit 3");
            }
            fleet.leave(id).expect("leave");
            let report = fleet.shutdown();
            let s = &report.snapshot.streams[0];
            assert!(s.done, "stream orphaned: session never flushed");
            assert_eq!(s.processed, 3, "frame lost or double-decided");
            assert_eq!(s.dropped, 3, "P-frames drop on metadata");
            assert_eq!(s.queue_depth, 0, "depth counter leaked");
            assert_eq!(s.stolen, report.snapshot.stolen);
            if s.stolen > 0 {
                THEFTS.fetch_add(1, Ordering::Relaxed);
            }
        });
    assert!(
        report.violation.is_none(),
        "violation: {:?}",
        report.violation
    );
    assert!(
        THEFTS.load(Ordering::Relaxed) > 0,
        "no explored schedule stole a batch ({} executions)",
        report.executions
    );
}
