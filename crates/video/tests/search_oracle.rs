//! Differential test of the motion search over edge-padded planes against
//! the clamped search it replaced.
//!
//! [`three_step_search_clamped`], [`intra_cost_clamped`] and
//! [`analyze_frame_clamped`] are the search as it was written before the
//! padded planes, kept verbatim as the oracle: an overhanging current block
//! is materialized once with `Plane::fill_block_clamped`, and every
//! candidate that leaves the reference takes the same clamped copy. The
//! padded search must return the same `(mv, sad, zero_sad)` for every
//! macroblock — overhanging ones included — and the same `FrameMotion`, on
//! random planes of 1..=200 samples a side (multiples of 16 or not, and
//! smaller than one macroblock) at search ranges 0..=40 (larger than the
//! picture, too). Striped and two-level textures make many candidates tie,
//! so the order the candidates are scanned in is pinned as well.

use proptest::prelude::*;
use sieve_video::kernels;
use sieve_video::motion::{self, MotionResult, MotionVector, MB};
use sieve_video::{FrameMotion, Plane};

/// The clamped three-step search, kept as the reference.
fn three_step_search_clamped(
    cur: &Plane,
    reference: &Plane,
    x: usize,
    y: usize,
    range: u16,
) -> MotionResult {
    // The current block is the same for every candidate: hoist it out of
    // the search loop (materializing it once if it overhangs the plane).
    let (w, h) = (cur.width(), cur.height());
    let mut cbuf = [0u8; MB * MB];
    let (cblock, cstride) = if x + MB <= w && y + MB <= h {
        (&cur.data()[y * w + x..], w)
    } else {
        cur.fill_block_clamped(x as i64, y as i64, MB, &mut cbuf);
        (&cbuf[..], MB)
    };
    let rw = reference.width();
    let rh = reference.height();
    let rdata = reference.data();
    let eval = |mv: MotionVector| -> u32 {
        let rx = x as i64 + mv.dx as i64;
        let ry = y as i64 + mv.dy as i64;
        if rx >= 0 && ry >= 0 && rx as usize + MB <= rw && ry as usize + MB <= rh {
            kernels::sad16(
                cblock,
                cstride,
                &rdata[ry as usize * rw + rx as usize..],
                rw,
            )
        } else {
            let mut rbuf = [0u8; MB * MB];
            reference.fill_block_clamped(rx, ry, MB, &mut rbuf);
            kernels::sad16(cblock, cstride, &rbuf, MB)
        }
    };
    let zero_sad = eval(MotionVector::ZERO);
    let mut best = MotionVector::ZERO;
    let mut best_sad = zero_sad;
    let mut step = range.max(1).next_power_of_two() as i16 / 2;
    if step == 0 {
        step = 1;
    }
    while step >= 1 {
        let center = best;
        for dy in [-step, 0, step] {
            for dx in [-step, 0, step] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cand = MotionVector {
                    dx: (center.dx + dx).clamp(-(range as i16), range as i16),
                    dy: (center.dy + dy).clamp(-(range as i16), range as i16),
                };
                if cand == center {
                    continue;
                }
                let s = eval(cand);
                if s < best_sad {
                    best_sad = s;
                    best = cand;
                }
            }
        }
        step /= 2;
    }
    MotionResult {
        mv: best,
        sad: best_sad,
        zero_sad,
    }
}

/// The clamped intra texture cost, kept as the reference.
fn intra_cost_clamped(cur: &Plane, x: usize, y: usize) -> u32 {
    let (w, h) = (cur.width(), cur.height());
    // Fast path: fully interior block — `psadbw`-backed sum and deviation.
    if x + MB <= w && y + MB <= h {
        let block = &cur.data()[y * w + x..];
        let mean = kernels::sum16(block, w) / (MB * MB) as u32;
        return kernels::sad16_const(block, w, mean as u8);
    }
    // Edge path: materialize the clamped block once, then use the same
    // kernels as the interior path.
    let mut buf = [0u8; MB * MB];
    cur.fill_block_clamped(x as i64, y as i64, MB, &mut buf);
    let mean = kernels::sum16(&buf, MB) / (MB * MB) as u32;
    kernels::sad16_const(&buf, MB, mean as u8)
}

/// The clamped frame analysis, kept as the reference.
fn analyze_frame_clamped(cur: &Plane, reference: &Plane, range: u16) -> FrameMotion {
    let mb_cols = cur.width().div_ceil(MB);
    let mb_rows = cur.height().div_ceil(MB);
    let mut agg = FrameMotion::default();
    for my in 0..mb_rows {
        for mx in 0..mb_cols {
            let x = mx * MB;
            let y = my * MB;
            let r = three_step_search_clamped(cur, reference, x, y, range);
            agg.inter_cost += r.sad as u64;
            agg.intra_cost += intra_cost_clamped(cur, x, y) as u64;
            agg.mb_count += 1;
        }
    }
    agg
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A `cur`/`reference` pair of `texture`'s kind: uncorrelated noise, a
/// shifted copy of noise with light noise added (real motion, towards
/// every edge), or an exactly shifted copy of 2-pel stripes or of
/// two-level blocks (many candidates tie).
fn pair(w: usize, h: usize, texture: u8, seed: u64) -> (Plane, Plane) {
    let mut state = seed | 1;
    let reference: Vec<u8> = (0..w * h)
        .map(|i| match texture {
            2 => ((i % w) / 2 % 2 * 255) as u8,
            3 => ((i % w) / 5 + (i / w) / 7) as u8 % 2 * 200,
            _ => xorshift(&mut state) as u8,
        })
        .collect();
    let (sx, sy) = (
        (xorshift(&mut state) % 41) as i64 - 20,
        (xorshift(&mut state) % 41) as i64 - 20,
    );
    let reference = Plane::from_data(w, h, reference);
    let cur = (0..w * h)
        .map(|i| match texture {
            0 => xorshift(&mut state) as u8,
            _ => {
                let (x, y) = ((i % w) as i64, (i / w) as i64);
                let v = reference.sample_clamped(x + sx, y + sy) as i64;
                let noise = if texture == 1 {
                    (xorshift(&mut state) % 7) as i64 - 3
                } else {
                    0
                };
                (v + noise).clamp(0, 255) as u8
            }
        })
        .collect();
    (Plane::from_data(w, h, cur), reference)
}

fn assert_searches_identically(cur: &Plane, reference: &Plane, range: u16) {
    let what = format!("{}x{} at range {range}", cur.width(), cur.height());
    let field = motion::search_frame(cur, reference, range);
    let cols = cur.width().div_ceil(MB);
    assert_eq!(field.len(), cols * cur.height().div_ceil(MB), "{what}");
    for (i, got) in field.iter().enumerate() {
        let (x, y) = (i % cols * MB, i / cols * MB);
        let want = three_step_search_clamped(cur, reference, x, y, range);
        assert_eq!(*got, want, "{what}: macroblock at ({x}, {y})");
    }
    assert_eq!(
        motion::analyze_frame(cur, reference, range),
        analyze_frame_clamped(cur, reference, range),
        "{what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn padded_search_matches_the_clamped_search(
        w in 1usize..=200,
        h in 1usize..=200,
        range in 0u16..=40,
        texture in 0u8..4,
        seed in 0u64..1 << 48,
    ) {
        let (cur, reference) = pair(w, h, texture, seed);
        assert_searches_identically(&cur, &reference, range);
    }
}

/// Empty planes, planes smaller than a macroblock, exactly one, one sample
/// over, and the lookahead's half planes, at the smallest ranges, the
/// encoder's and its lookahead's, and a range larger than the picture.
#[test]
fn edge_shapes_match_the_clamped_search() {
    let sizes = [
        (0, 0),
        (0, 7),
        (9, 0),
        (1, 1),
        (1, 17),
        (15, 2),
        (16, 16),
        (17, 17),
        (31, 33),
        (56, 40),
        (128, 72),
        (192, 104),
    ];
    for (w, h) in sizes {
        for range in [0, 1, 2, 3, 8, 16, 40] {
            for texture in 0..4 {
                let (cur, reference) = pair(w, h, texture, (w * 1000 + h) as u64);
                assert_searches_identically(&cur, &reference, range);
            }
        }
    }
}
