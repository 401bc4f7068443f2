//! Differential test of the frame decoders against the ones the bit-window
//! cursor replaced.
//!
//! `oracle` holds those decoders verbatim: a [`BitReader`] per frame, one
//! reader call per code, the block parsed into `[i32; 64]` levels,
//! dequantized by `QuantTable::dequantize`, and inter blocks predicted into
//! a `[u8; 64]` copy. Only the block parse is spelled as the plain two-code
//! loop that `bitio_differential.rs` holds the fused parse of that time to.
//!
//! The decoder under test must be indistinguishable from it on valid
//! streams and on every kind of damage: the same samples, or both
//! `Err(DecodeError::Bitstream)` — never a panic — and, after an error, a
//! reference that decodes the next frame exactly as if the bad payload had
//! never been submitted. Three kinds of damage: every truncation prefix of
//! whole payloads (the golden clip's and a 384x208 clip's), single-bit
//! flips, and random tails behind a valid prefix.

use std::sync::OnceLock;

use proptest::prelude::*;
use sieve_video::bitio::BitWriter;
use sieve_video::entropy;
use sieve_video::{
    DecodeError, Decoder, EncodedFrame, Encoder, EncoderConfig, Frame, FrameType, Resolution,
};

const QUALITY: u8 = 75;

/// The parent's frame decoders, verbatim but for the block parse.
mod oracle {
    use sieve_video::bitio::{BitReader, ReadBitsError};
    use sieve_video::dct;
    use sieve_video::entropy::{MAX_LEVEL, ZIGZAG};
    use sieve_video::motion::MB;
    use sieve_video::{DecodeError, Frame, MotionVector, Plane, QuantTable, Resolution};

    /// Decodes an I-frame payload.
    pub fn decode_i(res: Resolution, quality: u8, data: &[u8]) -> Result<Frame, DecodeError> {
        let mut frame = Frame::grey(res);
        decode_i_into(
            &QuantTable::luma(quality),
            &QuantTable::chroma(quality),
            data,
            &mut frame,
        )?;
        Ok(frame)
    }

    /// Decodes a P-frame payload against `reference`.
    pub fn decode_p(reference: &Frame, quality: u8, data: &[u8]) -> Result<Frame, DecodeError> {
        let mut frame = Frame::grey(reference.resolution());
        decode_p_into(
            &QuantTable::luma(quality),
            &QuantTable::chroma(quality),
            reference,
            data,
            &mut frame,
        )?;
        Ok(frame)
    }

    /// `entropy::decode_block` as one reader call per code.
    fn decode_block(r: &mut BitReader<'_>, levels: &mut [i32; 64]) -> Result<(), ReadBitsError> {
        levels.fill(0);
        let mut pos = 0usize;
        loop {
            let run = r.read_ue()?;
            if run >= 64 {
                return Ok(());
            }
            pos += run as usize;
            if pos >= 64 {
                return Err(ReadBitsError);
            }
            let level = r.read_se()?;
            if level.unsigned_abs() > MAX_LEVEL as u64 {
                return Err(ReadBitsError);
            }
            levels[ZIGZAG[pos]] = level as i32;
            pos += 1;
            if pos >= 64 {
                return if r.read_ue()? < 64 {
                    Err(ReadBitsError)
                } else {
                    Ok(())
                };
            }
        }
    }

    fn predict_block8(reference: &Plane, bx: usize, by: usize, mv: MotionVector) -> [u8; 64] {
        let mut pred = [0u8; 64];
        reference.fill_block_clamped(
            (bx * 8) as i64 + mv.dx as i64,
            (by * 8) as i64 + mv.dy as i64,
            8,
            &mut pred,
        );
        pred
    }

    fn decode_i_into(
        luma_q: &QuantTable,
        chroma_q: &QuantTable,
        data: &[u8],
        frame: &mut Frame,
    ) -> Result<(), DecodeError> {
        let mut r = BitReader::new(data);
        decode_plane_intra(&mut r, luma_q, frame.y_mut())?;
        decode_plane_intra(&mut r, chroma_q, frame.u_mut())?;
        decode_plane_intra(&mut r, chroma_q, frame.v_mut())?;
        Ok(())
    }

    struct BlockScratch {
        levels: [i32; 64],
        deq: [f32; 64],
        resid: [i32; 64],
    }

    impl BlockScratch {
        fn new() -> Self {
            Self {
                levels: [0; 64],
                deq: [0.0; 64],
                resid: [0; 64],
            }
        }

        fn inverse(&mut self, q: &QuantTable) {
            q.dequantize(&self.levels, &mut self.deq);
            dct::inverse(&self.deq, &mut self.resid);
        }
    }

    fn decode_plane_intra(
        r: &mut BitReader<'_>,
        q: &QuantTable,
        plane: &mut Plane,
    ) -> Result<(), DecodeError> {
        let bcols = plane.width().div_ceil(8);
        let brows = plane.height().div_ceil(8);
        let mut s = BlockScratch::new();
        let mut prev_dc = 0i32;
        for by in 0..brows {
            for bx in 0..bcols {
                decode_block(r, &mut s.levels)?;
                let dc = s.levels[0] + prev_dc;
                if dc.abs() > MAX_LEVEL {
                    return Err(DecodeError::Bitstream);
                }
                s.levels[0] = dc;
                prev_dc = dc;
                s.inverse(q);
                plane.recon_block8(bx, by, &[128; 64], &s.resid);
            }
        }
        Ok(())
    }

    fn decode_p_into(
        luma_q: &QuantTable,
        chroma_q: &QuantTable,
        reference: &Frame,
        data: &[u8],
        frame: &mut Frame,
    ) -> Result<(), DecodeError> {
        let mut r = BitReader::new(data);
        let mut s = BlockScratch::new();
        let resolution = frame.resolution();
        let mb_cols = resolution.mb_cols();
        let mb_rows = resolution.mb_rows();
        for my in 0..mb_rows {
            for mx in 0..mb_cols {
                let x = mx * MB;
                let y = my * MB;
                let coded = r.read_bit()?;
                if !coded {
                    copy_mb_zero(reference, frame, x, y);
                    continue;
                }
                let mv = MotionVector {
                    dx: read_mv_component(&mut r)?,
                    dy: read_mv_component(&mut r)?,
                };
                for by in 0..2 {
                    for bx in 0..2 {
                        decode_inter_block(
                            &mut r,
                            &mut s,
                            luma_q,
                            reference.y(),
                            frame.y_mut(),
                            x / 8 + bx,
                            y / 8 + by,
                            mv,
                        )?;
                    }
                }
                let cmv = MotionVector {
                    dx: mv.dx / 2,
                    dy: mv.dy / 2,
                };
                decode_inter_block(
                    &mut r,
                    &mut s,
                    chroma_q,
                    reference.u(),
                    frame.u_mut(),
                    x / 16,
                    y / 16,
                    cmv,
                )?;
                decode_inter_block(
                    &mut r,
                    &mut s,
                    chroma_q,
                    reference.v(),
                    frame.v_mut(),
                    x / 16,
                    y / 16,
                    cmv,
                )?;
            }
        }
        Ok(())
    }

    fn copy_mb_zero(reference: &Frame, frame: &mut Frame, x: usize, y: usize) {
        frame.y_mut().copy_block_from(reference.y(), x, y, MB, 0, 0);
        let (cx, cy) = (x / 2, y / 2);
        frame
            .u_mut()
            .copy_block_from(reference.u(), cx, cy, MB / 2, 0, 0);
        frame
            .v_mut()
            .copy_block_from(reference.v(), cx, cy, MB / 2, 0, 0);
    }

    fn read_mv_component(r: &mut BitReader<'_>) -> Result<i16, DecodeError> {
        i16::try_from(r.read_se()?).map_err(|_| DecodeError::Bitstream)
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_inter_block(
        r: &mut BitReader<'_>,
        s: &mut BlockScratch,
        q: &QuantTable,
        reference: &Plane,
        out: &mut Plane,
        bx: usize,
        by: usize,
        mv: MotionVector,
    ) -> Result<(), DecodeError> {
        let (mvx, mvy) = (mv.dx as i64, mv.dy as i64);
        if !r.read_bit()? {
            out.copy_block_from(reference, bx * 8, by * 8, 8, mvx, mvy);
            return Ok(());
        }
        decode_block(r, &mut s.levels)?;
        s.inverse(q);
        let pred = predict_block8(reference, bx, by, mv);
        out.recon_block8(bx, by, &pred, &s.resid);
        Ok(())
    }
}

/// Triangle wave of period `2 * half`, in `0..=half`.
fn tri(a: usize, half: usize) -> usize {
    (a % (2 * half)).abs_diff(half)
}

/// A textured background panning by (4, -2) pels per frame with a bright
/// square crossing it — the golden clip's scene at any size.
fn clip(res: Resolution, frames: usize) -> Vec<Frame> {
    let (w, h) = (res.width() as usize, res.height() as usize);
    (0..frames)
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

/// One P-frame over `res` that walks every macroblock mode: SKIP, coded
/// with uncoded blocks, and coded residuals large enough to saturate, under
/// vectors from one pel to far outside the reference.
fn crafted_p_frame(res: Resolution) -> EncodedFrame {
    const VECTORS: [(i64, i64); 6] = [(1, 0), (-9, 7), (20, -20), (-300, 300), (0, -54), (89, 53)];
    let mut w = BitWriter::new();
    for mb in 0..res.mb_cols() * res.mb_rows() {
        if mb % 5 == 0 {
            w.write_bit(false);
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

/// An encoded clip and the decoder state before each of its frames.
struct Stream {
    res: Resolution,
    frames: Vec<EncodedFrame>,
    /// `before[k]` has decoded frames `0..k`.
    before: Vec<Decoder>,
    /// `decoded[k]` is frame `k` as the oracle decodes it.
    decoded: Vec<Frame>,
}

impl Stream {
    /// Encodes `frames` (GOP 6) plus the crafted P-frame and decodes it all
    /// with both decoders, which must agree.
    fn new(res: Resolution, frames: Vec<Frame>) -> Self {
        let mut encoder = Encoder::new(res, EncoderConfig::new(6, 0).with_quality(QUALITY));
        let mut encoded: Vec<EncodedFrame> =
            frames.iter().map(|f| encoder.encode_frame(f)).collect();
        encoded.push(crafted_p_frame(res));
        let mut decoder = Decoder::new(res, QUALITY);
        let (mut before, mut decoded) = (Vec::new(), Vec::<Frame>::new());
        for (k, ef) in encoded.iter().enumerate() {
            let want = match ef.frame_type {
                FrameType::I => oracle::decode_i(res, QUALITY, &ef.data),
                FrameType::P => oracle::decode_p(&decoded[k - 1], QUALITY, &ef.data),
            }
            .expect("the oracle decodes a valid stream");
            before.push(decoder.clone());
            let got = decoder.decode_next(ef).expect("a valid stream decodes");
            assert!(*got == want, "frame {k} of the valid stream differs");
            decoded.push(want);
        }
        Self {
            res,
            frames: encoded,
            before,
            decoded,
        }
    }

    /// The oracle's result for `data` in frame `k`'s place.
    fn oracle(&self, k: usize, data: &[u8]) -> Result<Frame, DecodeError> {
        match self.frames[k].frame_type {
            FrameType::I => oracle::decode_i(self.res, QUALITY, data),
            FrameType::P => oracle::decode_p(&self.decoded[k - 1], QUALITY, data),
        }
    }

    /// Feeds `data` in frame `k`'s place to `decoder` (at frame `k`) and to
    /// the oracle: same samples, or both `Err(Bitstream)`. Returns whether
    /// the decoder failed — and so must still be at frame `k`.
    fn check(&self, decoder: &mut Decoder, k: usize, data: &[u8], what: &str) -> bool {
        let frame_type = self.frames[k].frame_type;
        let got = decoder.decode_next_bytes(frame_type, data).cloned();
        let want = self.oracle(k, data);
        match (&got, &want) {
            (Ok(g), Ok(w)) => assert!(g == w, "frame {k}, {what}: samples differ"),
            (Err(g), Err(w)) => {
                assert_eq!((*g, *w), (DecodeError::Bitstream, DecodeError::Bitstream))
            }
            _ => panic!(
                "frame {k}, {what}: decoder {:?}, oracle {:?}",
                got.as_ref().map(|_| ()),
                want.as_ref().map(|_| ())
            ),
        }
        got.is_err()
    }

    /// After any number of failed payloads, `decoder` still decodes frame
    /// `k` itself exactly.
    fn assert_reference_intact(&self, decoder: &mut Decoder, k: usize, what: &str) {
        let got = decoder
            .decode_next(&self.frames[k])
            .unwrap_or_else(|e| panic!("frame {k} after {what}: {e}"));
        assert!(
            *got == self.decoded[k],
            "frame {k} after {what}: reference changed"
        );
    }

    /// Every truncation prefix of frame `k`'s payload, through one decoder
    /// state for as long as the prefixes fail.
    fn check_prefixes(&self, k: usize) {
        let data = &self.frames[k].data;
        let mut decoder = self.before[k].clone();
        for cut in 0..data.len() {
            if !self.check(&mut decoder, k, &data[..cut], &format!("prefix {cut}")) {
                decoder = self.before[k].clone();
            }
        }
        self.assert_reference_intact(&mut decoder, k, "every prefix");
    }

    /// Every single-bit flip of frame `k`'s payload whose bit index is a
    /// multiple of `stride`.
    fn check_flips(&self, k: usize, stride: usize) {
        let mut data = self.frames[k].data.to_vec();
        let mut decoder = self.before[k].clone();
        for bit in (0..data.len() * 8).step_by(stride) {
            data[bit / 8] ^= 0x80 >> (bit % 8);
            if !self.check(&mut decoder, k, &data, &format!("bit {bit} flipped")) {
                decoder = self.before[k].clone();
            }
            data[bit / 8] ^= 0x80 >> (bit % 8);
        }
        self.assert_reference_intact(&mut decoder, k, "every flip");
    }
}

/// The golden clip, encoded and decoded once per test binary.
fn golden() -> &'static Stream {
    static STREAM: OnceLock<Stream> = OnceLock::new();
    STREAM.get_or_init(|| Stream::new(Resolution::new(90, 54), clip(Resolution::new(90, 54), 10)))
}

/// The golden clip (90x54: every plane overhangs its last block row and
/// column, odd 45x27 chroma): every prefix of all eleven payloads.
#[test]
fn every_prefix_of_the_golden_clip_decodes_like_the_oracle() {
    let stream = golden();
    for k in 0..stream.frames.len() {
        stream.check_prefixes(k);
    }
}

/// The golden clip's first I-frame, a P-frame and the crafted P-frame:
/// every single-bit flip of each.
#[test]
fn bit_flips_of_golden_payloads_decode_like_the_oracle() {
    let stream = golden();
    for k in [0, 1, stream.frames.len() - 1] {
        stream.check_flips(k, 1);
    }
}

/// A 384x208 clip, the size of the end-to-end benchmark's tapes (10.6 KB
/// I-frame, 5.6 KB P-frame): every prefix of both payloads and every 13th
/// bit flipped in each.
#[test]
fn every_prefix_of_a_384x208_clip_decodes_like_the_oracle() {
    let res = Resolution::new(384, 208);
    let stream = Stream::new(res, clip(res, 2));
    assert_eq!(stream.frames[0].frame_type, FrameType::I);
    assert_eq!(stream.frames[1].frame_type, FrameType::P);
    for k in [0, 1] {
        stream.check_prefixes(k);
        stream.check_flips(k, 13);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A valid payload cut anywhere and continued with arbitrary bytes —
    /// dense bytes make long blocks of small levels, sparse ones long
    /// codes, truncations and overlong codes.
    #[test]
    fn random_tails_behind_a_valid_prefix_decode_like_the_oracle(
        frame in 0usize..11,
        cut in 0.0f64..1.0,
        tail in proptest::collection::vec((0u8..=255, 0u8..=255), 0..96),
        sparse in 0u8..2,
    ) {
        let stream = golden();
        let data = &stream.frames[frame].data;
        let mut hostile = data[..(cut * data.len() as f64) as usize].to_vec();
        hostile.extend(tail.iter().map(|&(a, b)| if sparse == 1 { a & b } else { a | b }));
        let mut decoder = stream.before[frame].clone();
        if stream.check(&mut decoder, frame, &hostile, "random tail") {
            stream.assert_reference_intact(&mut decoder, frame, "a random tail");
        }
    }
}
