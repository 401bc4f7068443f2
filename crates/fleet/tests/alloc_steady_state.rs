//! Steady-state allocation audit of the fleet's ingest → decision path.
//!
//! `sieve-video`'s and `sieve-filters`' audits stop at the codec and the
//! edge session. This one drives what sits in front of them the way a
//! camera does — `FramePacket::of` + `Fleet::push` on the caller's thread,
//! the shard worker deciding the frame — on the paper's own fast path: an
//! `IFrameSelector` stream dropping P-frames on metadata alone. Once warm,
//! that path must never allocate anything *payload-sized* (a queued frame
//! is a reference to the producer's bytes, not a copy of them), and all its
//! bookkeeping together must stay under 256 allocated bytes per frame.
//!
//! It also prices admission: a stream's `EdgeSession` opens at join, and
//! its decoder allocates no frame buffer until its first decode, so
//! joining a stream costs a bounded handful of small allocations — far
//! below one frame — whatever its policy. And it prices churn: a stream
//! that decoded frames and left frees its session, so what the fleet
//! still holds per left stream (its metrics entry) stays far below one
//! frame.
//!
//! A single `#[test]` in a binary of its own, because the counting
//! allocator is process-global and sees every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use sieve_core::{FrameSelector, IFrameSelector};
use sieve_filters::{Budget, MseSelector};
use sieve_fleet::{Fleet, FleetConfig, FramePacket, Ingest, StreamConfig, StreamId};
use sieve_video::{EncodedVideo, EncoderConfig, Frame, FrameType, Resolution};

/// Forwards to the system allocator, counting the requests and totalling
/// the bytes requested, counting the requests of at least [`LARGE`] bytes,
/// and keeping the bytes currently held in [`LIVE`].
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE.load(Ordering::Relaxed) {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

fn hold(delta: i64) {
    LIVE.fetch_add(delta, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One I-frame, then a drifting texture: every later frame is a P-frame
/// with a real (kilobyte-sized) payload.
fn p_frame_clip(res: Resolution, count: usize) -> EncodedVideo {
    let (w, h) = (res.width() as usize, res.height() as usize);
    let frames = (0..count).map(|t| {
        let mut f = Frame::grey(res);
        for y in 0..h {
            for x in 0..w {
                f.y_mut()
                    .put(x, y, (((x + 3 * t) * 13 + y * 7) % 160) as u8 + 40);
            }
        }
        f
    });
    EncodedVideo::encode(res, 30, EncoderConfig::new(count, 0), frames)
}

/// Feeds the clip's P-frames losslessly, then waits — without allocating —
/// for the fleet to have decided all of them.
fn feed_p_frames(fleet: &Fleet, stream: StreamId, video: &EncodedVideo) {
    for (i, ef) in video.frames().iter().enumerate().skip(1) {
        while fleet.push(stream, FramePacket::of(i, ef)).expect("push") != Ingest::Queued {
            std::thread::yield_now();
        }
    }
    while fleet.inflight() > 0 {
        std::thread::yield_now();
    }
}

/// Streams joined per priced selector.
const JOINS: usize = 1_000;

/// The allocations and bytes one `Fleet::join` of a `selector` stream at
/// `res` costs on average, after a warm-up join, over [`JOINS`] joins into
/// a fresh fleet. The stream configs are built before the count starts.
fn join_cost<S: FrameSelector>(selector: &S, res: Resolution) -> (f64, f64) {
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        max_streams: JOINS + 1,
        ..FleetConfig::default()
    });
    fleet
        .join(selector, StreamConfig::new("warm-up", res, 80))
        .expect("join");
    let configs: Vec<_> = (0..JOINS)
        .map(|_| StreamConfig::new("idle", res, 80))
        .collect();
    let (allocations_before, bytes_before) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    for config in configs {
        fleet.join(selector, config).expect("join");
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;
    let report = fleet.shutdown();
    assert_eq!(report.snapshot.streams.len(), JOINS + 1);
    assert_eq!(report.snapshot.aggregate.processed, 0);
    (
        allocations as f64 / JOINS as f64,
        bytes as f64 / JOINS as f64,
    )
}

/// Streams churned through a fleet, after as many warm-up churns.
const CHURNS: usize = 200;

/// Joins a pixel-policy stream, feeds it the clip's I-frame and first
/// P-frames, leaves, and waits until its session is flushed.
fn churn_one<S: FrameSelector>(fleet: &Fleet, selector: &S, video: &EncodedVideo) {
    let config = StreamConfig::new("churned", video.resolution(), video.quality());
    let stream = fleet.join(selector, config).expect("join");
    for (i, ef) in video.frames().iter().enumerate().take(8) {
        while fleet.push(stream, FramePacket::of(i, ef)).expect("push") != Ingest::Queued {
            std::thread::yield_now();
        }
    }
    fleet.leave(stream).expect("leave");
    while !fleet.snapshot().streams.iter().all(|s| s.done) {
        std::thread::yield_now();
    }
}

/// The bytes the fleet still holds per stream that decoded frames and
/// left: the growth of [`LIVE`] over [`CHURNS`] churns, after as many
/// warm-up churns, divided by [`CHURNS`].
fn held_per_left_stream<S: FrameSelector>(selector: &S, video: &EncodedVideo) -> f64 {
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        max_streams: 4,
        ..FleetConfig::default()
    });
    for _ in 0..CHURNS {
        churn_one(&fleet, selector, video);
    }
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..CHURNS {
        churn_one(&fleet, selector, video);
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    let report = fleet.shutdown();
    assert_eq!(report.snapshot.streams.len(), 2 * CHURNS);
    assert!(report.snapshot.streams.iter().all(|s| s.processed == 8));
    held as f64 / CHURNS as f64
}

#[test]
fn pushing_and_dropping_a_frame_never_copies_its_payload() {
    let res = Resolution::new(192, 128);
    let video = p_frame_clip(res, 64);
    let p_frames = &video.frames()[1..];
    assert!(p_frames.iter().all(|f| f.frame_type == FrameType::P));
    let smallest = p_frames.iter().map(|f| f.data.len()).min().expect("frames");
    assert!(
        smallest >= 1024,
        "payloads must dwarf the bookkeeping for the audit to mean anything ({smallest} B)"
    );

    // Two shards, so the audited path includes whatever stealing happens.
    let fleet = Fleet::new(FleetConfig {
        shards: 2,
        queue_capacity: 16,
        global_frame_budget: 64,
        max_streams: 4,
        ..FleetConfig::default()
    });
    let stream = fleet
        .join(
            &IFrameSelector::new(),
            StreamConfig::new("audited", res, video.quality()),
        )
        .expect("join");

    // Warm-up: the I-frame takes the session's one decode; two passes of
    // P-frames grow the lane's ring buffer and anything else that sizes
    // itself on first use.
    assert_eq!(
        fleet.push(stream, FramePacket::of(0, &video.frames()[0])),
        Ok(Ingest::Queued)
    );
    for _ in 0..2 {
        feed_p_frames(&fleet, stream, &video);
    }

    const PASSES: usize = 8;
    LARGE.store(smallest, Ordering::Relaxed);
    let bytes_before = BYTES.load(Ordering::Relaxed);
    for _ in 0..PASSES {
        feed_p_frames(&fleet, stream, &video);
    }
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;
    let large = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
    LARGE.store(usize::MAX, Ordering::Relaxed);

    let frames = (PASSES * p_frames.len()) as u64;
    assert_eq!(
        large, 0,
        "{large} allocation(s) of a payload's size or more ({smallest} B) while pushing and \
         deciding {frames} dropped frames"
    );
    assert!(
        bytes < 256 * frames,
        "{bytes} B allocated over {frames} frames: {} B per frame",
        bytes / frames
    );

    let report = fleet.shutdown();
    let s = &report.snapshot.streams[0];
    assert_eq!(s.kept, 1, "only the I-frame is kept");
    assert_eq!(s.dropped, ((2 + PASSES) * p_frames.len()) as u64);
    assert_eq!((s.failed, s.queue_depth), (0, 0));

    // Admission, measured at 22.2 allocations and 2 850 B per MSE join and
    // 9.2 allocations and 2 249 B per seeker join, of which ≈1.1 KiB is the
    // session's decoder. One 384x208 frame is 117 KiB.
    let res = Resolution::new(384, 208);
    let (adaptive, seeker) = (
        MseSelector::mse(Budget::TargetRate(0.1)),
        IFrameSelector::new(),
    );
    for (name, (allocations, bytes), max_allocations, max_bytes) in [
        ("mse", join_cost(&adaptive, res), 24.0, 4096.0),
        ("i-frame", join_cost(&seeker, res), 12.0, 4096.0),
    ] {
        assert!(
            allocations < max_allocations,
            "{name}: {allocations:.1} allocations per join"
        );
        assert!(bytes < max_bytes, "{name}: {bytes:.0} B per join");
    }

    // Churn, measured at 891 B still held per left MSE stream. A left
    // stream that kept its session would hold its decoder's reference and
    // work frames and the selector's previous frame: about 110 KiB at
    // 192x128.
    let held = held_per_left_stream(&adaptive, &video);
    assert!(held < 4096.0, "{held:.0} B still held per left stream");
}
