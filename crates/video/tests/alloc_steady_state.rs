//! Steady-state allocation audit of the encoder and decoder.
//!
//! After a warmup pass has sized every scratch buffer (reference and
//! reconstruction frames, the lookahead's half-resolution planes, the
//! bitstream `Vec`s, the decision log), re-encoding into caller-owned
//! buffers and re-decoding the same sequence must perform **zero** heap
//! allocations: the hot loops recycle buffers by swapping, never by
//! allocating. `Encoder::encode_frame`, which returns a shareable payload,
//! must perform exactly one per frame — the payload.
//!
//! The whole audit lives in a single `#[test]` because the counting
//! allocator is process-global and `cargo test` runs sibling tests on
//! other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sieve_video::encode::{EncodedFrame, Encoder, EncoderConfig};
use sieve_video::{Decoder, Frame, Resolution};

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
}
