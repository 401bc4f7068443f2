//! Steady-state allocation audit of the encoder and decoder.
//!
//! After a warmup pass has sized every scratch buffer (reference and
//! reconstruction frames, the padded luma planes of the motion search, the
//! lookahead's half-resolution planes, the bitstream `Vec`s), re-encoding
//! into caller-owned buffers and re-decoding the same sequence must
//! perform **zero** heap allocations: the hot loops recycle buffers by
//! swapping, never by allocating, also at a resolution that is not a
//! multiple of 16 and across `Encoder::reset`.
//! `Encoder::encode_frame`, which returns a shareable payload, must perform
//! exactly one per frame — the payload. `EncodedVideo::encode`, which codes
//! on a second thread, must make that one allocation per frame on the
//! calling thread; the allocator tells the test's thread from the others
//! by a thread-local flag. `Plane::resize_box_into` at ratios other than
//! the lookahead's 2:1 must not allocate either once its output has the
//! largest size asked for.
//!
//! The whole audit lives in a single `#[test]` because the counting
//! allocator is process-global and `cargo test` runs sibling tests on
//! other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use sieve_video::encode::{EncodedFrame, Encoder, EncoderConfig};
use sieve_video::{Decoder, EncodedVideo, Frame, Plane, Resolution};

/// Forwards to the system allocator, counting every allocation and
/// reallocation (frees are irrelevant to the audit), the test's own thread
/// apart from all others.
struct CountingAlloc;

/// Allocations made on the thread that called [`mark_caller`].
static CALLER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations made on every other thread.
static OTHER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let counter = if IS_CALLER.try_with(Cell::get).unwrap_or(false) {
        &CALLER_ALLOCATIONS
    } else {
        &OTHER_ALLOCATIONS
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Tags the calling thread's allocations as the caller's.
fn mark_caller() {
    IS_CALLER.with(|c| c.set(true));
}

fn caller_allocations() -> u64 {
    CALLER_ALLOCATIONS.load(Ordering::Relaxed)
}

fn other_allocations() -> u64 {
    OTHER_ALLOCATIONS.load(Ordering::Relaxed)
}

fn allocations() -> u64 {
    caller_allocations() + other_allocations()
}

/// Moving textured content: forces real motion search, coded residuals,
/// and the occasional scenecut, so the steady state is the codec's real
/// steady state and not the all-skip fast path.
fn test_frames(res: Resolution, count: usize) -> Vec<Frame> {
    let (w, h) = (res.width() as usize, res.height() as usize);
    (0..count)
        .map(|t| {
            let mut f = Frame::grey(res);
            for y in 0..h {
                for x in 0..w {
                    let v = (((x + 3 * t) * 13 + y * 7) % 160) as u8 + 40;
                    f.y_mut().put(x, y, v);
                }
            }
            f
        })
        .collect()
}

#[test]
fn encode_decode_steady_state_does_not_allocate() {
    mark_caller();
    let res = Resolution::new(64, 48);
    let frames = test_frames(res, 12);
    let config = EncoderConfig::new(5, 100);

    let mut encoder = Encoder::new(res, config);
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); frames.len()];

    // Warmup: two full passes size every buffer (the second catches buffers
    // that only reach their steady-state capacity after one reuse cycle).
    for _ in 0..2 {
        encoder.reset();
        for (frame, out) in frames.iter().zip(buffers.iter_mut()) {
            encoder.encode_frame_into(frame, out);
        }
    }

    encoder.reset();
    let before = allocations();
    for (frame, out) in frames.iter().zip(buffers.iter_mut()) {
        encoder.encode_frame_into(frame, out);
    }
    let encode_allocs = allocations() - before;
    assert_eq!(
        encode_allocs,
        0,
        "steady-state encode of {} frames allocated {encode_allocs} times",
        frames.len()
    );

    // The padded planes of the motion search are recycled too: at a size
    // that is not a multiple of 16 (overhanging macroblocks, 45x27 half
    // planes) and across `Encoder::reset` mid-stream, the steady state
    // still does not allocate.
    let odd = Resolution::new(90, 54);
    let odd_frames = test_frames(odd, 12);
    let mut odd_encoder = Encoder::new(odd, config);
    let mut odd_buffers: Vec<Vec<u8>> = vec![Vec::new(); odd_frames.len()];
    for _ in 0..2 {
        odd_encoder.reset();
        for (frame, out) in odd_frames.iter().zip(odd_buffers.iter_mut()) {
            odd_encoder.encode_frame_into(frame, out);
        }
    }
    let before = allocations();
    for (i, (frame, out)) in odd_frames.iter().zip(odd_buffers.iter_mut()).enumerate() {
        if i % 5 == 0 {
            odd_encoder.reset();
        }
        odd_encoder.encode_frame_into(frame, out);
    }
    let odd_allocs = allocations() - before;
    assert_eq!(
        odd_allocs, 0,
        "steady-state encode at {odd} with resets allocated {odd_allocs} times"
    );

    // `encode_frame` returns the product itself — a shareable payload of
    // exactly the frame's size — and that is its only allocation: the
    // bitstream is still written into the encoder's recycled scratch.
    let mut outputs: Vec<EncodedFrame> = Vec::with_capacity(frames.len());
    for _ in 0..2 {
        encoder.reset();
        for frame in &frames {
            encoder.encode_frame(frame);
        }
    }
    encoder.reset();
    let before = allocations();
    for frame in &frames {
        outputs.push(encoder.encode_frame(frame));
    }
    let product_allocs = allocations() - before;
    assert_eq!(
        product_allocs,
        frames.len() as u64,
        "encode_frame must allocate exactly once per frame"
    );
    for (out, buffer) in outputs.iter().zip(&buffers) {
        assert_eq!(
            &out.data[..],
            &buffer[..],
            "both entry points code the same bytes"
        );
    }

    let mut decoder = Decoder::new(res, config.quality);
    for _ in 0..2 {
        decoder.reset();
        for out in &outputs {
            decoder.decode_next(out).expect("warmup decode");
        }
    }

    decoder.reset();
    let before = allocations();
    for out in &outputs {
        decoder.decode_next(out).expect("steady-state decode");
    }
    let decode_allocs = allocations() - before;
    assert_eq!(
        decode_allocs,
        0,
        "steady-state decode of {} frames allocated {decode_allocs} times",
        outputs.len()
    );

    // The box resize at ratios other than the lookahead's 2:1 — the NN
    // input, an odd downscale, an upscale — reuses the output plane and its
    // column sums once both have their size.
    let source = &frames[0];
    let mut resized = Plane::filled(1, 1, 0);
    let targets = [(32, 32), (37, 23), (45, 27), (80, 61)];
    for &(w, h) in &targets {
        source.y().resize_box_into(w, h, &mut resized);
    }
    let before = allocations();
    for _ in 0..3 {
        for &(w, h) in &targets {
            source.y().resize_box_into(w, h, &mut resized);
        }
    }
    let resize_allocs = allocations() - before;
    assert_eq!(
        resize_allocs, 0,
        "steady-state resize allocated {resize_allocs} times"
    );

    // `EncodedVideo::encode` decides on the caller and codes on one scoped
    // thread. Every payload must be allocated on the caller, as a
    // one-thread encode would: 72 more frames cost the caller exactly 72
    // more allocations, and the coding thread's count (its coding half, a
    // few recycled bitstream buffers, the channel's wait registrations)
    // does not grow with the frame count. The first encode warms the
    // caller's once-per-thread state.
    encode_allocations(res, config, &frames, 24);
    let (short_caller, short_coder) = encode_allocations(res, config, &frames, 24);
    let (long_caller, long_coder) = encode_allocations(res, config, &frames, 96);
    assert_eq!(
        long_caller - short_caller,
        72,
        "EncodedVideo::encode must allocate one payload per frame on the caller"
    );
    // A blocking wait registers with the channel once per thread, and
    // whether the coding thread ever waits depends on scheduling.
    const WAIT_REGISTRATIONS: u64 = 4;
    assert!(
        long_coder <= short_coder + WAIT_REGISTRATIONS,
        "the coding thread's allocations grew with the frame count: \
         {short_coder} at 24 frames, {long_coder} at 96"
    );
}

/// `(caller, other threads)` allocations of one `EncodedVideo::encode` of
/// `n` of `frames` (cycled), handed over owned and built beforehand.
fn encode_allocations(
    res: Resolution,
    config: EncoderConfig,
    frames: &[Frame],
    n: usize,
) -> (u64, u64) {
    let owned: Vec<Frame> = frames.iter().cycle().take(n).cloned().collect();
    let (caller, other) = (caller_allocations(), other_allocations());
    let video = EncodedVideo::encode(res, 30, config, owned);
    let counts = (caller_allocations() - caller, other_allocations() - other);
    assert_eq!(video.frame_count(), n);
    counts
}
