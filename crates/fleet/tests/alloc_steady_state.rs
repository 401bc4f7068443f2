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
//! A single `#[test]` in a binary of its own, because the counting
//! allocator is process-global and sees every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sieve_core::IFrameSelector;
use sieve_fleet::{Fleet, FleetConfig, FramePacket, Ingest, StreamConfig, StreamId};
use sieve_video::{EncodedVideo, EncoderConfig, Frame, FrameType, Resolution};

/// Forwards to the system allocator, totalling the bytes requested and
/// counting the requests of at least [`LARGE`] bytes (frees are irrelevant
/// to the audit).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE.load(Ordering::Relaxed) {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

    // Warm-up: the I-frame activates the session (decoder acquisition, its
    // one decode); two passes of P-frames grow the lane's ring buffer and
    // anything else that sizes itself on first use.
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
}
