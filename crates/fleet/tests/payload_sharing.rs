//! A pushed frame is shared, not copied — proven, not assumed.
//!
//! `FramePacket::of` takes a reference to the `EncodedFrame`'s payload, and
//! that one allocation is what the worker decodes from and what a
//! `KeepSink` is lent: the slice a sink receives has the *address* of
//! `video.frames()[i].data`, on the stream's home shard and out of a stolen
//! batch alike. The refcount is also what makes the producer's copy
//! irrelevant once a frame is queued: dropping the whole clip right after
//! the last `push` changes nothing about what the fleet decides or ships.
//!
//! Both tests need frames *provably* still queued (to be stolen; to outlive
//! their producer), so both park a worker inside a gate stream's sink until
//! the test releases it — no sleeps, no timing.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::ThreadId;
use std::time::Duration;

use sieve_core::{EdgeOutcome, EdgeSession, IFrameSelector};
use sieve_filters::{Budget, MseSelector};
use sieve_fleet::{
    shard_of, Fleet, FleetConfig, FramePacket, Ingest, KeepSink, StreamConfig, StreamId,
};
use sieve_video::{EncodedVideo, EncoderConfig, Frame, FrameType, Resolution};

/// A texture that holds still for two frames, drifts on the third and
/// jumps every 12: coded P-frames, some of which a pixel policy keeps (the
/// moves) and some of which it drops (the stills).
fn clip(res: Resolution, count: usize, config: EncoderConfig) -> EncodedVideo {
    let (w, h) = (res.width() as usize, res.height() as usize);
    let frames = (0..count).map(|t| {
        let shift = 2 * (t / 3) + 37 * (t / 12);
        let mut f = Frame::grey(res);
        for y in 0..h {
            for x in 0..w {
                f.y_mut()
                    .put(x, y, (((x + shift) * 11 + y * 5) % 180) as u8 + 30);
            }
        }
        f
    });
    EncodedVideo::encode(res, 30, config, frames)
}

/// What a recording sink saw of one kept frame.
struct Seen {
    stream: usize,
    index: usize,
    addr: usize,
    bytes: Vec<u8>,
    thread: ThreadId,
}

fn recording_sink(stream: usize, tx: Sender<Seen>) -> KeepSink {
    Box::new(move |index, _frame, payload| {
        let _ = tx.send(Seen {
            stream,
            index,
            addr: payload.as_ptr() as usize,
            bytes: payload.to_vec(),
            thread: std::thread::current().id(),
        });
    })
}

/// A stream whose first kept frame parks its shard's worker: the sink
/// reports what it saw, then blocks until the returned sender is used (or
/// dropped).
fn join_gate(fleet: &Fleet, video: &EncodedVideo) -> (StreamId, Receiver<Seen>, Sender<()>) {
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let mut record = recording_sink(usize::MAX, entered_tx);
    let sink: KeepSink = Box::new(move |index, frame, payload| {
        record(index, frame, payload);
        let _ = release_rx.recv();
    });
    let id = fleet
        .join_with_sink(
            &IFrameSelector::new(),
            StreamConfig::new("gate", video.resolution(), video.quality()),
            sink,
        )
        .expect("join gate");
    (id, entered_rx, release_tx)
}

fn push_queued(fleet: &Fleet, id: StreamId, index: usize, video: &EncodedVideo) {
    let pushed = fleet.push(id, FramePacket::of(index, &video.frames()[index]));
    assert_eq!(pushed, Ok(Ingest::Queued), "frame {index} must queue");
}

const STALL: Duration = Duration::from_secs(60);

/// Every kept frame reaches its sink as the producer's own allocation —
/// decided on its home shard or out of a stolen batch. One of the two
/// workers is parked in the gate's sink (whichever popped or stole the
/// gate's frame); two fed streams, one homed on each shard, are then
/// drained by the only free worker: one of them at home, the other by
/// theft.
#[test]
fn sinks_are_lent_the_producers_allocation_at_home_and_when_stolen() {
    let res = Resolution::new(64, 48);
    // GOP 2: every other frame is an I-frame the metadata policy keeps.
    let video = clip(res, 16, EncoderConfig::new(2, 0));
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 16,
        global_frame_budget: 64,
        max_streams: 8,
        ..FleetConfig::default()
    });
    let (gate, gate_seen, release) = join_gate(&fleet, &video);
    // Ids are assigned 0, 1, 2, … in join order and hashed to shards; join
    // until both shards home a fed stream.
    let (tx, seen) = channel();
    let mut fed: Vec<StreamId> = Vec::new();
    while fed.len() < 2 {
        let cfg = StreamConfig::new("fed", res, video.quality());
        let id = fleet
            .join_with_sink(
                &IFrameSelector::new(),
                cfg,
                recording_sink(fed.len(), tx.clone()),
            )
            .expect("join");
        if fed
            .iter()
            .all(|f| shard_of(f.raw(), 2) != shard_of(id.raw(), 2))
        {
            fed.push(id);
        } else {
            fleet.leave(id).expect("leave");
        }
    }
    drop(tx);

    push_queued(&fleet, gate, 0, &video);
    let parked = gate_seen.recv_timeout(STALL).expect("gate frame kept");
    assert_eq!(parked.addr, video.frames()[0].data.as_ptr() as usize);

    // Each push wakes its own shard's worker; the free one drains its home
    // lane and, before it may sleep, sweeps the parked neighbour's.
    let half = video.frame_count() / 2;
    for index in 0..half {
        for &id in &fed {
            push_queued(&fleet, id, index, &video);
        }
    }
    let mut kept: Vec<Seen> = Vec::new();
    while !(0..2).all(|tag| kept.iter().any(|s| s.stream == tag)) {
        let one = seen
            .recv_timeout(STALL)
            .expect("both lanes drain past a parked worker");
        assert_ne!(one.thread, parked.thread);
        kept.push(one);
    }
    release.send(()).expect("gate still parked");
    for index in half..video.frame_count() {
        for &id in &fed {
            push_queued(&fleet, id, index, &video);
        }
    }
    let report = fleet.shutdown();
    kept.extend(seen.iter());

    let stats = |id: StreamId| &report.snapshot.streams[id.raw() as usize];
    let stolen: u64 = fed.iter().map(|&id| stats(id).stolen).sum();
    let processed: u64 = fed.iter().map(|&id| stats(id).processed).sum();
    assert_eq!(processed as usize, 2 * video.frame_count());
    assert!(stolen > 0, "one lane could only be drained by theft");
    assert!(stolen < processed, "the other was drained at home");
    for tag in 0..2 {
        let indices: Vec<usize> = (kept.iter().filter(|s| s.stream == tag))
            .map(|s| s.index)
            .collect();
        assert_eq!(indices, video.i_frame_indices(), "every I-frame, in order");
    }
    for s in &kept {
        let produced = &video.frames()[s.index].data;
        assert_eq!(
            (s.addr, s.bytes.len()),
            (produced.as_ptr() as usize, produced.len()),
            "stream {} frame {}: the sink was lent a copy",
            s.stream,
            s.index
        );
    }
}

/// The refcount, not the producer, keeps a queued frame alive: push a whole
/// clip while the worker is parked, drop the clip, then let the fleet
/// drain. Kept set and shipped bytes equal a single-threaded `EdgeSession`
/// replay made while the clip still existed.
#[test]
fn queued_frames_outlive_their_producer() {
    let res = Resolution::new(64, 48);
    let video = clip(res, 48, EncoderConfig::new(16, 0));
    let selector = MseSelector::mse(Budget::Threshold(30.0));

    let mut replay = EdgeSession::open(&selector, res, video.quality());
    let mut expected: Vec<(usize, Vec<u8>)> = Vec::new();
    for (i, ef) in video.frames().iter().enumerate() {
        match replay.observe(i, ef.frame_type, &ef.data) {
            EdgeOutcome::Kept(_) => expected.push((i, ef.data.to_vec())),
            EdgeOutcome::Dropped => {}
            EdgeOutcome::Failed => panic!("frame {i} failed to decode"),
        }
    }
    assert!(
        expected
            .iter()
            .any(|&(i, _)| video.frames()[i].frame_type == FrameType::P)
            && expected.len() < video.frame_count(),
        "the policy should keep some P-frames and drop others ({} kept)",
        expected.len()
    );

    let fleet = Fleet::new(FleetConfig {
        shards: 1,
        queue_capacity: 64,
        global_frame_budget: 128,
        max_streams: 4,
        ..FleetConfig::default()
    });
    let (gate, gate_seen, release) = join_gate(&fleet, &video);
    let (tx, seen) = channel();
    let stream = fleet
        .join_with_sink(
            &selector,
            StreamConfig::new("orphaned", res, video.quality()),
            recording_sink(0, tx),
        )
        .expect("join");
    push_queued(&fleet, gate, 0, &video);
    gate_seen.recv_timeout(STALL).expect("worker parked");
    for index in 0..video.frame_count() {
        push_queued(&fleet, stream, index, &video);
    }
    // Nothing was decided yet; the producer goes away.
    drop(video);
    release.send(()).expect("gate still parked");
    let report = fleet.shutdown();
    assert_eq!(report.snapshot.aggregate.failed, 0);

    let shipped: Vec<(usize, Vec<u8>)> = seen.iter().map(|s| (s.index, s.bytes)).collect();
    assert_eq!(shipped.len(), expected.len(), "kept set diverged");
    assert!(
        shipped == expected,
        "kept indices or shipped bytes diverged"
    );
}
