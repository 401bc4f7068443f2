//! Steady-state allocation audit of the full-decode edge path.
//!
//! The codec's own audit (`sieve-video/tests/alloc_steady_state.rs`) stops
//! at the decoder. This one drives the layer above it the way a fleet
//! worker does — `EdgeSession::observe` with an on-line MSE policy —
//! and requires that a frame the policy **drops** costs zero heap
//! allocations once the session is warm: the decoder swaps its two frame
//! buffers and the change session overwrites the one previous frame it
//! holds. Only a kept frame may allocate (its pixels are cloned out to the
//! caller).
//!
//! A single `#[test]`, because the counting allocator is process-global and
//! `cargo test` runs sibling tests on other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sieve_core::{EdgeOutcome, EdgeSession};
use sieve_filters::{Budget, MseSelector};
use sieve_video::{EncodedFrame, Encoder, EncoderConfig, Frame, Resolution};

/// Forwards to the system allocator, counting every allocation and
/// reallocation (frees are irrelevant to the audit).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A drifting texture with an occasional jump, so the stream has coded
/// P-frames and the policy both keeps and drops.
fn encoded_stream(res: Resolution, count: usize) -> Vec<EncodedFrame> {
    let (w, h) = (res.width() as usize, res.height() as usize);
    let mut encoder = Encoder::new(res, EncoderConfig::new(30, 0));
    (0..count)
        .map(|t| {
            let shift = t + 40 * (t / 16);
            let mut f = Frame::grey(res);
            for y in 0..h {
                for x in 0..w {
                    let v = (((x + shift) * 13 + y * 7) % 160) as u8 + 40;
                    f.y_mut().put(x, y, v);
                }
            }
            encoder.encode_frame(&f)
        })
        .collect()
}

#[test]
fn dropped_frames_do_not_allocate_once_warm() {
    let res = Resolution::new(64, 48);
    let stream = encoded_stream(res, 96);
    let selector = MseSelector::mse(Budget::TargetRate(0.2));
    let mut session = EdgeSession::open(&selector, res, 75);

    let (mut kept, mut dropped, mut dropped_allocs) = (0u32, 0u32, 0u64);
    for (i, ef) in stream.iter().enumerate() {
        let before = allocations();
        let outcome = session.observe(i, ef.frame_type, &ef.data);
        let spent = allocations() - before;
        match outcome {
            EdgeOutcome::Kept(_) => kept += 1,
            EdgeOutcome::Dropped => {
                dropped += 1;
                // Warm: the decoder has both of its frame buffers and the
                // session its previous frame after the first two frames.
                if i >= 2 {
                    dropped_allocs += spent;
                }
            }
            EdgeOutcome::Failed => panic!("frame {i} failed to decode"),
        }
    }
    session
        .finish()
        .expect("on-line policy has nothing deferred");
    assert!(
        kept >= 2 && dropped >= 32,
        "the stream must exercise both outcomes: kept {kept}, dropped {dropped}"
    );
    assert_eq!(
        dropped_allocs, 0,
        "{dropped} dropped frames allocated {dropped_allocs} times in steady state"
    );
}
