//! The decoder's output, pinned sample for sample.
//!
//! `golden/decode_v1.txt` holds one line per frame of the clip below —
//! frame type, payload length, and FNV-1a hashes of the payload and of each
//! decoded plane — captured from the byte-chunked bit reader and the
//! `[i32; 64]` reconstruction path before the window reader and the
//! byte-domain `recon8x8` kernel replaced them. Any drift in the entropy
//! parse, the dequantize/IDCT chain, motion compensation at the picture
//! edges or the final saturation fails here; the payload columns pin the
//! encoder (whose closed-loop reconstruction shares the decoder's path) to
//! the same bytes.
//!
//! The clip is 90x54: 5.6 x 3.4 macroblocks, so every plane overhangs its
//! last block row and column, and the 45x27 chroma planes have odd
//! dimensions. Ten encoded frames (I at 0 and 6, a panning texture whose
//! edge macroblocks take motion vectors out of the picture) are followed by
//! one hand-written P-frame that walks every macroblock mode: SKIP, coded
//! with all six blocks uncoded, and coded residuals large enough to
//! saturate at both ends, under vectors from one pel to far outside the
//! reference.

use sieve_video::bitio::BitWriter;
use sieve_video::entropy;
use sieve_video::{Decoder, EncodedFrame, Encoder, EncoderConfig, Frame, FrameType, Resolution};

const GOLDEN: &str = include_str!("golden/decode_v1.txt");
const QUALITY: u8 = 75;

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn resolution() -> Resolution {
    Resolution::new(90, 54)
}

/// Triangle wave of period `2 * half`, in `0..=half`.
fn tri(a: usize, half: usize) -> usize {
    (a % (2 * half)).abs_diff(half)
}

/// A textured background panning by (4, -2) pels per frame with a bright
/// square crossing it.
fn clip() -> Vec<Frame> {
    let res = resolution();
    let (w, h) = (res.width() as usize, res.height() as usize);
    (0..10usize)
        .map(|t| {
            let mut f = Frame::grey(res);
            for y in 0..h {
                for x in 0..w {
                    let (sx, sy) = (x + 4 * t, y + 100 - 2 * t);
                    let v = 40 + 3 * tri(sx, 24) + 4 * tri(sy, 16) + (sx * 7 + sy * 11) % 5;
                    f.y_mut().put(x, y, v as u8);
                    f.u_mut().put(x / 2, y / 2, (100 + (sx / 8) % 50) as u8);
                    f.v_mut().put(x / 2, y / 2, (140 - (sy / 8) % 50) as u8);
                }
            }
            let ox = 6 * t;
            for y in 20..36 {
                for x in ox..(ox + 16).min(w) {
                    f.y_mut().put(x, y, 235);
                }
            }
            f
        })
        .collect()
}

/// One hand-written P-frame over the 6x4 macroblock grid.
fn crafted_p_frame() -> EncodedFrame {
    const VECTORS: [(i64, i64); 6] = [(1, 0), (-9, 7), (20, -20), (-300, 300), (0, -54), (89, 53)];
    let res = resolution();
    let mut w = BitWriter::new();
    for mb in 0..res.mb_cols() * res.mb_rows() {
        if mb % 5 == 0 {
            w.write_bit(false); // SKIP
            continue;
        }
        w.write_bit(true);
        let (dx, dy) = VECTORS[mb % VECTORS.len()];
        w.write_se(dx);
        w.write_se(dy);
        for block in 0..6 {
            let coded = mb % 7 != 3 && (mb + block) % 3 != 0;
            w.write_bit(coded);
            if !coded {
                continue;
            }
            let mut levels = [0i32; 64];
            let sign = if (mb + block) % 2 == 0 { 1 } else { -1 };
            levels[0] = sign * (5 + 9 * (mb as i32 % 7));
            levels[1] = -sign * (block as i32 + 1);
            levels[8] = 3;
            levels[(mb * 5 + block * 11) % 63 + 1] += sign * 2;
            if mb % 4 == 1 {
                levels[63] = -1;
            }
            entropy::encode_block(&levels, &mut w);
        }
    }
    EncodedFrame {
        frame_type: FrameType::P,
        data: w.finish().into(),
    }
}

fn render() -> String {
    let res = resolution();
    let mut encoder = Encoder::new(res, EncoderConfig::new(6, 0).with_quality(QUALITY));
    let mut stream: Vec<EncodedFrame> = clip().iter().map(|f| encoder.encode_frame(f)).collect();
    stream.push(crafted_p_frame());
    let mut decoder = Decoder::new(res, QUALITY);
    let mut out = String::new();
    for ef in &stream {
        let frame = decoder.decode_next(ef).expect("clip decodes");
        out.push_str(&format!(
            "{} {} {:016x} {:016x} {:016x} {:016x}\n",
            ef.frame_type,
            ef.data.len(),
            fnv1a(&ef.data),
            fnv1a(frame.y().data()),
            fnv1a(frame.u().data()),
            fnv1a(frame.v().data()),
        ));
    }
    out
}

#[test]
fn decoded_planes_are_sample_identical_to_the_captured_vector() {
    let rendered = render();
    let (got, want): (Vec<&str>, Vec<&str>) =
        (rendered.lines().collect(), GOLDEN.lines().collect());
    assert_eq!(got.len(), want.len(), "frame count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "frame {i} differs (type len payload y u v)");
    }
}
