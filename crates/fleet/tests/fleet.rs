//! Integration tests for the multi-stream fleet runtime: equivalence with
//! a single-threaded `EdgeSession` replay, 16-stream scheduling on a fixed
//! pool, shed-vs-drop accounting, and the on-line adaptive sampling-rate
//! target.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sieve_core::{EdgeOutcome, EdgeSession, FrameSelector, IFrameSelector};
use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
use sieve_filters::{Budget, MseSelector};
use sieve_fleet::{Fleet, FleetConfig, FramePacket, Ingest, ShedCause, StreamConfig, StreamId};
use sieve_video::{EncodedVideo, EncoderConfig, FrameType};

fn encoded_jackson(frames: usize, gop: usize, scenecut: u16) -> EncodedVideo {
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
    EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(gop, scenecut),
        video.frames().take(frames),
    )
}

/// Pushes every frame of `video` into `stream`, retrying shed frames until
/// they are accepted (a lossless feeder, for tests asserting exact
/// processed counts; note each refusal still bumps the stream's `shed`
/// counter — shedding accounts *events*, not lost frames).
fn feed_lossless(fleet: &Fleet, stream: StreamId, video: &EncodedVideo) {
    for (i, ef) in video.frames().iter().enumerate() {
        loop {
            match fleet.push(stream, FramePacket::of(i, ef)).expect("push") {
                Ingest::Queued => break,
                Ingest::Shed(_) => std::thread::yield_now(),
            }
        }
    }
}

/// A single-stream fleet with adaptation disabled must reproduce the keep /
/// drop / failed counts of one `EdgeSession` replayed over the stream on
/// the test's own thread — which is also what `run_live_analysis`, a
/// one-stream fleet, reports. Metadata policy (I-frame seeking) and pixel
/// policy (absolute-threshold MSE), healthy stream and corrupt frame alike.
#[test]
fn single_stream_fleet_matches_run_live_analysis() {
    let healthy = encoded_jackson(160, 40, 60);
    let mut encoded = EncodedVideo::new(healthy.resolution(), healthy.fps(), healthy.quality());
    for ef in healthy.frames() {
        encoded.push(sieve_video::EncodedFrame {
            frame_type: ef.frame_type,
            data: ef.data.clone(),
        });
    }
    // A frame that will not decode, to exercise the typed failure path.
    encoded.push(sieve_video::EncodedFrame {
        frame_type: FrameType::P,
        data: [].into(),
    });

    type SelectorFactory = Box<dyn Fn() -> Box<dyn FrameSelector>>;
    let selectors: Vec<(&str, SelectorFactory)> = vec![
        ("sieve", Box::new(|| Box::new(IFrameSelector::new()))),
        (
            "mse-threshold",
            Box::new(|| Box::new(MseSelector::mse(Budget::Threshold(40.0)))),
        ),
    ];
    for (label, make) in selectors {
        let mut replay = EdgeSession::open(&*make(), encoded.resolution(), encoded.quality());
        let (mut kept, mut dropped, mut failed) = (0u64, 0u64, 0u64);
        for (i, ef) in encoded.frames().iter().enumerate() {
            match replay.observe(i, ef.frame_type, &ef.data) {
                EdgeOutcome::Kept(_) => kept += 1,
                EdgeOutcome::Dropped => dropped += 1,
                EdgeOutcome::Failed => failed += 1,
            }
        }
        replay.finish().expect("replay finish");
        assert!(kept > 0 && dropped > 0, "{label}: a trivial reference");

        // Both scheduler configurations must be bit-equivalent to the
        // replay: thread-per-shard round robin, and the work-stealing /
        // priority-lane runtime (on a single shard its stealing loop never
        // finds a victim, and the lane-weight updates must not perturb a
        // lone stream's processing order).
        for stealing in [false, true] {
            // Queues sized past the whole stream: nothing can shed, so
            // every counter must match the replay exactly.
            let fleet = Fleet::new(FleetConfig {
                shards: 1,
                queue_capacity: 256,
                global_frame_budget: 512,
                max_streams: 4,
                work_stealing: stealing,
                priority_lanes: stealing,
                ..FleetConfig::default()
            });
            let fleet_selector = make();
            let id = fleet
                .join(
                    fleet_selector.as_ref(),
                    StreamConfig::new(label, encoded.resolution(), encoded.quality()),
                )
                .expect("join");
            feed_lossless(&fleet, id, &encoded);
            let report = fleet.shutdown();
            let s = &report.snapshot.streams[0];

            let label = format!("{label} (stealing={stealing})");
            assert_eq!(s.kept, kept, "{label}: kept diverged");
            assert_eq!(s.dropped, dropped, "{label}: dropped diverged");
            assert_eq!(s.failed, failed, "{label}: failed diverged");
            assert_eq!(s.shed, 0, "{label}: lossless feeder must not shed");
            assert_eq!(
                s.processed as usize,
                encoded.frame_count(),
                "{label}: every frame decided"
            );
            assert!(s.done, "{label}: stream flushed at shutdown");
            assert_eq!(report.snapshot.stolen, 0, "{label}: no victim on one shard");
        }
    }
}

/// 16 heterogeneous streams over a 4-worker pool: everything queued is
/// processed, per-stream accounting is intact, and the global budget bounds
/// in-flight frames throughout.
#[test]
fn sixteen_streams_on_a_fixed_pool() {
    let fleet = Fleet::new(FleetConfig {
        shards: 4,
        queue_capacity: 8,
        global_frame_budget: 64,
        max_streams: 32,
        ..FleetConfig::default()
    });
    let datasets = DatasetId::ALL;
    let kept_total = Arc::new(AtomicU64::new(0));
    let mut streams = Vec::new();
    for i in 0..16u64 {
        let spec = DatasetSpec::for_stream(datasets[i as usize % datasets.len()], 42, i);
        let video = spec.generate(DatasetScale::Tiny);
        let gop = 30 + 10 * (i as usize % 4); // staggered scenecut cadence
        let encoded = EncodedVideo::encode(
            video.resolution(),
            video.fps(),
            EncoderConfig::new(gop, 80),
            video.frames().take(60),
        );
        let kept_total = kept_total.clone();
        let id = fleet
            .join_with_sink(
                &IFrameSelector::new(),
                StreamConfig::new(format!("cam-{i}"), encoded.resolution(), encoded.quality()),
                Box::new(move |_, _, payload: &[u8]| {
                    assert!(!payload.is_empty(), "sink sees the encoded bytes");
                    kept_total.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .expect("admission");
        streams.push((id, encoded));
    }

    // Concurrent feeders, as real cameras would be.
    std::thread::scope(|scope| {
        for (id, encoded) in &streams {
            scope.spawn(|| {
                feed_lossless(&fleet, *id, encoded);
                assert!(fleet.inflight() <= 64, "global budget exceeded");
                fleet.leave(*id).expect("leave");
            });
        }
    });
    let report = fleet.shutdown();
    assert_eq!(report.snapshot.streams.len(), 16);
    let agg = report.snapshot.aggregate;
    assert_eq!(agg.processed, 16 * 60, "all queued frames processed");
    assert_eq!(agg.failed, 0);
    assert_eq!(agg.kept + agg.dropped, agg.processed);
    assert_eq!(
        agg.kept,
        kept_total.load(Ordering::Relaxed),
        "keep sink saw every kept frame"
    );
    assert_eq!(agg.queue_depth, 0, "fully drained");
    for s in &report.snapshot.streams {
        assert!(s.done, "{}: not flushed", s.id);
        assert!(s.kept >= 1, "{}: at least the first I-frame", s.id);
    }
}

/// Overload sheds at admission: shed frames are counted per stream,
/// separately from policy drops, and never reach the policy.
#[test]
fn overload_sheds_and_accounts_separately() {
    let fleet = Fleet::new(FleetConfig {
        shards: 1,
        queue_capacity: 2,
        global_frame_budget: 4,
        max_streams: 8,
        ..FleetConfig::default()
    });
    let encoded = encoded_jackson(80, 20, 60);
    let id = fleet
        .join(
            &IFrameSelector::new(),
            StreamConfig::new("overloaded", encoded.resolution(), encoded.quality()),
        )
        .expect("join");
    let mut shed = 0u64;
    let mut queued = 0u64;
    for (i, ef) in encoded.frames().iter().enumerate() {
        match fleet.push(id, FramePacket::of(i, ef)).expect("push") {
            Ingest::Queued => queued += 1,
            Ingest::Shed(cause) => {
                assert!(matches!(
                    cause,
                    ShedCause::QueueFull | ShedCause::GlobalBudget
                ));
                shed += 1;
            }
        }
    }
    let report = fleet.shutdown();
    let s = &report.snapshot.streams[0];
    assert_eq!(s.shed, shed);
    assert_eq!(
        s.processed, queued,
        "exactly the queued frames were decided"
    );
    assert_eq!(s.kept + s.dropped + s.failed, s.processed);
    assert_eq!(
        s.shed + s.processed,
        encoded.frame_count() as u64,
        "every pushed frame is either shed or decided"
    );
}

/// Control-plane errors are typed: unknown streams, double leave, pushes
/// after leave, and the admission cap.
#[test]
fn control_plane_errors() {
    let fleet = Fleet::new(FleetConfig {
        shards: 1,
        queue_capacity: 4,
        global_frame_budget: 8,
        max_streams: 1,
        ..FleetConfig::default()
    });
    let encoded = encoded_jackson(10, 5, 60);
    let cfg = StreamConfig::new("only", encoded.resolution(), encoded.quality());
    let id = fleet
        .join(&IFrameSelector::new(), cfg.clone())
        .expect("join");
    assert!(matches!(
        fleet.join(&IFrameSelector::new(), cfg),
        Err(sieve_fleet::FleetError::FleetFull { max_streams: 1 })
    ));
    fleet.leave(id).expect("leave");
    assert!(matches!(
        fleet.leave(id),
        Err(sieve_fleet::FleetError::StreamClosed(_))
    ));
    assert!(matches!(
        fleet.push(id, FramePacket::of(0, &encoded.frames()[0])),
        Err(sieve_fleet::FleetError::StreamClosed(_))
    ));
    // The cap bounds *live* streams: leaving freed the slot, so a fleet
    // can churn join/leave indefinitely past its cap.
    for round in 0..3 {
        let next = fleet
            .join(
                &IFrameSelector::new(),
                StreamConfig::new(
                    format!("churn-{round}"),
                    encoded.resolution(),
                    encoded.quality(),
                ),
            )
            .unwrap_or_else(|e| panic!("churn round {round} refused: {e}"));
        fleet.leave(next).expect("leave churned stream");
    }
    let report = fleet.shutdown();
    assert_eq!(report.snapshot.streams.len(), 4, "all entries reported");
    assert!(report.snapshot.streams.iter().all(|s| s.done));
}

/// Admission counts *live* streams, not every stream ever admitted: after
/// four times `max_streams` join→leave cycles (whose entries all stay
/// resolvable for metrics) the fleet still admits exactly `max_streams`
/// live streams and refuses the next one.
#[test]
fn admission_cap_counts_live_streams_under_churn() {
    const MAX_STREAMS: usize = 8;
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        max_streams: MAX_STREAMS,
        ..FleetConfig::default()
    });
    let res = sieve_video::Resolution::new(32, 32);
    let join =
        |label: String| fleet.join(&IFrameSelector::new(), StreamConfig::new(label, res, 50));
    for cycle in 0..4 * MAX_STREAMS {
        let id = join(format!("churn-{cycle}")).expect("a left stream frees its slot");
        fleet.leave(id).expect("leave");
    }
    let live: Vec<StreamId> = (0..MAX_STREAMS)
        .map(|i| join(format!("live-{i}")).expect("below the cap"))
        .collect();
    assert!(matches!(
        join("one-too-many".into()),
        Err(sieve_fleet::FleetError::FleetFull {
            max_streams: MAX_STREAMS
        })
    ));
    // A refused join consumed nothing: one leave admits exactly one more.
    fleet.leave(live[0]).expect("leave");
    join("replacement".into()).expect("the freed slot");
    assert!(join("over-again".into()).is_err());
    let report = fleet.shutdown();
    assert_eq!(report.snapshot.streams.len(), 5 * MAX_STREAMS + 1);
    assert!(report.snapshot.streams.iter().all(|s| s.done));
}

/// Dropping a fleet without `shutdown()` must not leak blocked workers:
/// the drop shuts the queues down and joins the shard threads.
#[test]
fn dropping_a_fleet_joins_its_workers() {
    let encoded = encoded_jackson(10, 5, 60);
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 4,
        global_frame_budget: 8,
        max_streams: 2,
        ..FleetConfig::default()
    });
    let id = fleet
        .join(
            &IFrameSelector::new(),
            StreamConfig::new("dropped", encoded.resolution(), encoded.quality()),
        )
        .expect("join");
    let _ = fleet.push(id, FramePacket::of(0, &encoded.frames()[0]));
    drop(fleet); // must return (workers joined), not hang
}

/// The acceptance criterion for on-line adaptation: an MSE stream under
/// `Budget::TargetRate(0.1)` — no `prepare`, no whole-video pass — lands
/// within ±20% of the requested sampling rate on the synthetic eval scene.
#[test]
fn adaptive_stream_hits_target_rate_online() {
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
    let encoded = EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(300, 150),
        video.frames(),
    );
    let target = 0.1;
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 16,
        global_frame_budget: 64,
        max_streams: 4,
        ..FleetConfig::default()
    });
    let selector = MseSelector::mse(Budget::TargetRate(target));
    let id = fleet
        .join(
            &selector,
            StreamConfig::new("adaptive", encoded.resolution(), encoded.quality())
                .with_target_rate(target),
        )
        .expect("join");
    feed_lossless(&fleet, id, &encoded);
    let report = fleet.shutdown();
    let s = &report.snapshot.streams[0];
    assert_eq!(s.target_rate, Some(target));
    assert_eq!(s.processed as usize, encoded.frame_count());
    assert_eq!(s.failed, 0);
    let achieved = s.achieved_rate();
    assert!(
        (achieved - target).abs() <= 0.2 * target,
        "achieved sampling rate {achieved:.4} outside ±20% of {target}"
    );
}

/// Per-stream seeds derived from `(fleet_seed, stream_id)` make fleet
/// frame content independent of scheduling: two fleets with different
/// shard counts see byte-identical streams.
#[test]
fn stream_seeds_are_scheduling_independent() {
    let a = DatasetSpec::for_stream(DatasetId::Venice, 7, 3);
    let b = DatasetSpec::for_stream(DatasetId::Venice, 7, 3);
    assert_eq!(a.seed, b.seed);
    assert_eq!(
        a.generate(DatasetScale::Tiny).frame(10),
        b.generate(DatasetScale::Tiny).frame(10)
    );
    let other_stream = DatasetSpec::for_stream(DatasetId::Venice, 7, 4);
    let other_fleet = DatasetSpec::for_stream(DatasetId::Venice, 8, 3);
    assert_ne!(a.seed, other_stream.seed);
    assert_ne!(a.seed, other_fleet.seed);
}
