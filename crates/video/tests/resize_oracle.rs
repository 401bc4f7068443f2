//! Differential test of the separable box resize against the per-pixel
//! loop it replaced.
//!
//! [`resize_box_plain`] is `Plane::resize_box_into` as it was written
//! before column sums: for every output sample, recompute its source span
//! and sum the source rectangle sample by sample. The separable resize must
//! produce the same samples — `floor(sum / n)` over the same rectangle — for
//! every ratio: downsampling, upsampling, the lookahead's 2:1, the 32x32 NN
//! input, 1x1 and odd sizes on both sides.

use proptest::prelude::*;
use sieve_video::{Frame, Plane, Resolution};

/// The per-pixel resize, kept as the reference.
fn resize_box_plain(src: &Plane, new_w: usize, new_h: usize) -> Vec<u8> {
    let (w, h, data) = (src.width(), src.height(), src.data());
    let mut out = vec![0u8; new_w * new_h];
    for oy in 0..new_h {
        let sy0 = oy * h / new_h;
        let sy1 = (((oy + 1) * h).div_ceil(new_h)).max(sy0 + 1);
        for ox in 0..new_w {
            let sx0 = ox * w / new_w;
            let sx1 = (((ox + 1) * w).div_ceil(new_w)).max(sx0 + 1);
            let mut acc = 0u64;
            let mut n = 0u64;
            for sy in sy0..sy1.min(h) {
                for sx in sx0..sx1.min(w) {
                    acc += data[sy * w + sx] as u64;
                    n += 1;
                }
            }
            out[oy * new_w + ox] = acc.checked_div(n).unwrap_or(0) as u8;
        }
    }
    out
}

/// A `w` x `h` plane of `texture`'s kind: noise, a smooth ramp, or
/// saturated extremes (the largest sums a span can reach).
fn plane(w: usize, h: usize, texture: u8, seed: u64) -> Plane {
    let mut state = seed | 1;
    let data = (0..w * h)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match texture {
                0 => state as u8,
                1 => ((i % w) * 3 + (i / w) * 5) as u8,
                _ => (state & 1) as u8 * 255,
            }
        })
        .collect();
    Plane::from_data(w, h, data)
}

fn assert_resizes_identically(src: &Plane, new_w: usize, new_h: usize) {
    // A reused output of another shape: the resize must size it itself.
    let mut out = Plane::filled(3, 5, 77);
    src.resize_box_into(new_w, new_h, &mut out);
    assert_eq!((out.width(), out.height()), (new_w, new_h));
    assert!(
        out.data() == resize_box_plain(src, new_w, new_h),
        "{}x{} -> {new_w}x{new_h}",
        src.width(),
        src.height()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Random planes to random targets of every kind.
    #[test]
    fn separable_resize_matches_the_per_pixel_loop(
        w in 1usize..=400,
        h in 1usize..=300,
        target in (0u8..6, 1usize..=420, 1usize..=320),
        texture in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let src = plane(w, h, texture, seed);
        let (kind, tw, th) = target;
        let (new_w, new_h) = match kind {
            // Downsampling to anything up to the source size.
            0 => ((tw - 1) % w + 1, (th - 1) % h + 1),
            // Upsampling (or same size).
            1 => (w + tw % 64, h + th % 64),
            // The lookahead's 2:1, with its 16-sample floor.
            2 => ((w / 2).max(16), (h / 2).max(16)),
            3 => (1, 1),
            // Mixed: down on one axis, up on the other; odd.
            4 => ((tw | 1).min(420), (th | 1).min(320)),
            _ => (32, 32),
        };
        assert_resizes_identically(&src, new_w, new_h);
    }
}

/// Fixed shapes at the edges: one-sample planes and targets, one row and
/// one column, the tapes' planes to the NN input and the lookahead's half
/// planes, and upsampling by large factors.
#[test]
fn edge_shapes_resize_identically() {
    let shapes: [(usize, usize, usize, usize); 14] = [
        (1, 1, 1, 1),
        (1, 1, 7, 5),
        (400, 1, 3, 1),
        (1, 300, 1, 7),
        (400, 300, 1, 1),
        (400, 300, 399, 299),
        (112, 80, 56, 40),
        (384, 208, 192, 104),
        (384, 208, 32, 32),
        (192, 104, 16, 16),
        (56, 40, 16, 16),
        (17, 13, 400, 300),
        (3, 2, 2, 3),
        (255, 129, 128, 65),
    ];
    for (i, &(w, h, new_w, new_h)) in shapes.iter().enumerate() {
        for texture in 0..3 {
            assert_resizes_identically(&plane(w, h, texture, i as u64), new_w, new_h);
        }
    }
}

/// `Frame::resize` is the same resize on each plane.
#[test]
fn frame_resize_is_the_plane_resize() {
    let res = Resolution::new(112, 80);
    let mut frame = Frame::grey(res);
    *frame.y_mut() = plane(112, 80, 0, 1);
    *frame.u_mut() = plane(56, 40, 0, 2);
    *frame.v_mut() = plane(56, 40, 2, 3);
    let small = frame.resize(Resolution::new(32, 32));
    assert_eq!(small.y().data(), resize_box_plain(frame.y(), 32, 32));
    assert_eq!(small.u().data(), resize_box_plain(frame.u(), 16, 16));
    assert_eq!(small.v().data(), resize_box_plain(frame.v(), 16, 16));
}
