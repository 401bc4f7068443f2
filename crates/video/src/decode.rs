//! The video decoder: the full (expensive) pipeline plus independent I-frame
//! decoding.
//!
//! Two entry points matter for SiEVE:
//!
//! * [`Decoder::decode_frame`] — the classical path: every frame, I or P, is
//!   entropy-decoded, dequantized, inverse-transformed and (for P-frames)
//!   motion-compensated. Baseline filters (MSE/SIFT) must run this for every
//!   frame before they can compare pixels.
//! * [`Decoder::decode_iframe`] — decodes a single I-frame with no reference
//!   state, the way a JPEG still is decoded. This is all the I-frame seeker
//!   ever pays for.
//!
//! Both read a payload through one bit cursor from its first bit to its
//! last — macroblock flags, motion vectors, block flags and coefficients
//! alike — and the coefficient parse writes each level already dequantized
//! into the block the inverse transform reads. Inter blocks inside the
//! picture are reconstructed straight from the reference plane's rows.

use crate::bitio::{BitCursor, ReadBitsError};
use crate::dct;
use crate::encode::{EncodedFrame, FrameType};
use crate::entropy;
use crate::frame::{Frame, Plane, Resolution};
use crate::motion::{MotionVector, MB};
use crate::quant::QuantTable;

/// Errors produced while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstream ended early or contained an invalid code.
    Bitstream,
    /// A P-frame was submitted before any I-frame established a reference.
    MissingReference,
    /// [`Decoder::decode_iframe`] was handed a frame that is not an I-frame.
    NotAnIFrame,
    /// A requested frame index is outside the stream.
    FrameOutOfRange,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Bitstream => write!(f, "malformed or truncated bitstream"),
            DecodeError::MissingReference => {
                write!(f, "P-frame received before any I-frame reference")
            }
            DecodeError::NotAnIFrame => write!(f, "independent decode requires an I-frame"),
            DecodeError::FrameOutOfRange => write!(f, "frame index outside the stream"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ReadBitsError> for DecodeError {
    fn from(_: ReadBitsError) -> Self {
        DecodeError::Bitstream
    }
}

/// Stateful decoder mirroring the [`crate::encode::Encoder`] closed loop.
///
/// The decoder owns two frame buffers (the reference and a work frame),
/// allocated on its first decode, and swaps them after each frame, so a
/// steady-state loop over [`Decoder::decode_next`] performs no heap
/// allocation. A clone is a decoder at the same point of the same stream.
#[derive(Debug, Clone)]
pub struct Decoder {
    resolution: Resolution,
    quality: u8,
    luma_q: QuantTable,
    chroma_q: QuantTable,
    reference: Option<Frame>,
    /// Recycled buffer the next frame is decoded into; swaps with
    /// `reference` after every successful frame.
    work: Option<Frame>,
    /// Buffer parked by [`Decoder::reset`] so a reused decoder keeps both
    /// of its frame allocations across seeks.
    spare: Option<Frame>,
}

impl Decoder {
    /// Creates a decoder for a stream of `resolution` encoded at `quality`.
    ///
    /// # Panics
    ///
    /// Panics if `quality` is outside `1..=100`.
    pub fn new(resolution: Resolution, quality: u8) -> Self {
        Self {
            resolution,
            quality,
            luma_q: QuantTable::luma(quality),
            chroma_q: QuantTable::chroma(quality),
            reference: None,
            work: None,
            spare: None,
        }
    }

    /// The stream resolution this decoder was built for.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The encode quality this decoder was built for.
    pub fn quality(&self) -> u8 {
        self.quality
    }

    /// Decodes the next frame in stream order.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::MissingReference`] if a P-frame arrives before
    /// any I-frame, or [`DecodeError::Bitstream`] on malformed payloads.
    pub fn decode_frame(&mut self, ef: &EncodedFrame) -> Result<Frame, DecodeError> {
        Ok(self.decode_next(ef)?.clone())
    }

    /// Decodes the next frame in stream order into a recycled internal
    /// buffer and returns a view of it — [`Decoder::decode_frame`] without
    /// the defensive clone. The returned reference is valid until the next
    /// decode call; clone it to keep the frame.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::MissingReference`] if a P-frame arrives before
    /// any I-frame, or [`DecodeError::Bitstream`] on malformed payloads. On
    /// error the decoder's reference state is unchanged, as if the frame had
    /// never been submitted.
    pub fn decode_next(&mut self, ef: &EncodedFrame) -> Result<&Frame, DecodeError> {
        self.decode_next_bytes(ef.frame_type, &ef.data)
    }

    /// [`Decoder::decode_next`] over a borrowed payload — for callers that
    /// hold the encoded bytes in a buffer of their own (a queued packet)
    /// and should not have to wrap them in an [`EncodedFrame`] to decode.
    ///
    /// # Errors
    ///
    /// As [`Decoder::decode_next`].
    pub fn decode_next_bytes(
        &mut self,
        frame_type: FrameType,
        data: &[u8],
    ) -> Result<&Frame, DecodeError> {
        let mut frame = self
            .work
            .take()
            .unwrap_or_else(|| Frame::grey(self.resolution));
        let result = match frame_type {
            FrameType::I => decode_i_into(&self.luma_q, &self.chroma_q, data, &mut frame),
            FrameType::P => match self.reference.as_ref() {
                None => Err(DecodeError::MissingReference),
                Some(reference) => {
                    decode_p_into(&self.luma_q, &self.chroma_q, reference, data, &mut frame)
                }
            },
        };
        match result {
            Err(e) => {
                // Return the (partially written) buffer to the work slot.
                self.work = Some(frame);
                Err(e)
            }
            Ok(()) => {
                // The old reference (or the spare parked by `reset` at a
                // seek boundary) becomes the next work buffer.
                self.work = self.reference.take().or_else(|| self.spare.take());
                Ok(self.reference.insert(frame))
            }
        }
    }

    /// Decodes a single I-frame with no decoder state, exactly like a JPEG
    /// still — the operation the SiEVE I-frame seeker performs.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Bitstream`] on malformed payloads. The caller
    /// is responsible for passing I-frame payloads; P-frame payloads are not
    /// self-describing and will either fail or decode to garbage.
    pub fn decode_iframe(
        resolution: Resolution,
        quality: u8,
        data: &[u8],
    ) -> Result<Frame, DecodeError> {
        let luma_q = QuantTable::luma(quality);
        let chroma_q = QuantTable::chroma(quality);
        let mut frame = Frame::grey(resolution);
        decode_i_into(&luma_q, &chroma_q, data, &mut frame)?;
        Ok(frame)
    }

    /// Resets the reference state (e.g. before seeking to a new GOP),
    /// keeping the allocated frame buffers.
    pub fn reset(&mut self) {
        if let Some(r) = self.reference.take() {
            if self.work.is_none() {
                self.work = Some(r);
            } else {
                self.spare = Some(r);
            }
        }
    }
}

/// Decodes an I-frame payload into `frame`. Every sample of every plane is
/// overwritten, so `frame` may hold arbitrary stale content.
fn decode_i_into(
    luma_q: &QuantTable,
    chroma_q: &QuantTable,
    data: &[u8],
    frame: &mut Frame,
) -> Result<(), DecodeError> {
    let mut c = BitCursor::new(data);
    let mut s = BlockScratch::new();
    decode_plane_intra(&mut c, &mut s, luma_q, frame.y_mut())?;
    decode_plane_intra(&mut c, &mut s, chroma_q, frame.u_mut())?;
    decode_plane_intra(&mut c, &mut s, chroma_q, frame.v_mut())?;
    Ok(())
}

/// Per-frame scratch of the block pipeline: the dequantized coefficients
/// the parse writes and the inverse transform's output. One set lives on
/// the frame decoder's stack and is lent to every block.
struct BlockScratch {
    coef: [f32; 64],
    resid: [i32; 64],
}

impl BlockScratch {
    fn new() -> Self {
        Self {
            coef: [0.0; 64],
            resid: [0; 64],
        }
    }

    /// Parses one block into `coef`, dequantized as it is read:
    /// `level as f32 * steps[zz]` is the product
    /// [`QuantTable::dequantize`] computes, and an uncoded coefficient is
    /// the `0.0` it computes for a zero level.
    fn parse(&mut self, c: &mut BitCursor<'_>, steps: &[f32; 64]) -> Result<(), ReadBitsError> {
        self.coef.fill(0.0);
        entropy::decode_coefficients(c, |zz, level| self.coef[zz] = level as f32 * steps[zz])
    }
}

fn decode_plane_intra(
    c: &mut BitCursor<'_>,
    s: &mut BlockScratch,
    q: &QuantTable,
    plane: &mut Plane,
) -> Result<(), DecodeError> {
    let bcols = plane.width().div_ceil(8);
    let brows = plane.height().div_ceil(8);
    // The DC is delta-coded, so the parse leaves it undequantized (a unit
    // step makes the coefficient the level itself, exactly) until the
    // running sum resolves it.
    let mut steps = *q.steps_f32();
    let dc_step = std::mem::replace(&mut steps[0], 1.0);
    let mut prev_dc = 0i32;
    for by in 0..brows {
        for bx in 0..bcols {
            s.parse(c, &steps)?;
            // Bound the running sum like any level, so a hostile stream
            // cannot walk it out of range.
            let dc = s.coef[0] as i32 + prev_dc;
            if dc.abs() > entropy::MAX_LEVEL {
                return Err(DecodeError::Bitstream);
            }
            prev_dc = dc;
            s.coef[0] = dc as f32 * dc_step;
            dct::inverse(&s.coef, &mut s.resid);
            // Intra blocks predict flat mid-grey: the level shift.
            plane.recon_block8(bx, by, &[128; 64], &s.resid);
        }
    }
    Ok(())
}

/// Decodes a P-frame payload into `frame` against `reference`. Every sample
/// is overwritten (each macroblock is either SKIP-copied or fully coded), so
/// `frame` may hold arbitrary stale content.
fn decode_p_into(
    luma_q: &QuantTable,
    chroma_q: &QuantTable,
    reference: &Frame,
    data: &[u8],
    frame: &mut Frame,
) -> Result<(), DecodeError> {
    let mut c = BitCursor::new(data);
    let mut s = BlockScratch::new();
    let resolution = frame.resolution();
    let mb_cols = resolution.mb_cols();
    let mb_rows = resolution.mb_rows();
    for my in 0..mb_rows {
        for mx in 0..mb_cols {
            let x = mx * MB;
            let y = my * MB;
            let coded = c.read_bit()?;
            if !coded {
                // SKIP macroblock: copy co-located.
                copy_mb_zero(reference, frame, x, y);
                continue;
            }
            let mv = MotionVector {
                dx: read_mv_component(&mut c)?,
                dy: read_mv_component(&mut c)?,
            };
            // Luma 2x2 blocks.
            for by in 0..2 {
                for bx in 0..2 {
                    decode_inter_block(
                        &mut c,
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
                &mut c,
                &mut s,
                chroma_q,
                reference.u(),
                frame.u_mut(),
                x / 16,
                y / 16,
                cmv,
            )?;
            decode_inter_block(
                &mut c,
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

/// Reads one motion-vector component, rejecting values a [`MotionVector`]
/// cannot hold instead of truncating them.
fn read_mv_component(c: &mut BitCursor<'_>) -> Result<i16, DecodeError> {
    i16::try_from(c.read_se()?).map_err(|_| DecodeError::Bitstream)
}

#[allow(clippy::too_many_arguments)]
fn decode_inter_block(
    c: &mut BitCursor<'_>,
    s: &mut BlockScratch,
    q: &QuantTable,
    reference: &Plane,
    out: &mut Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
) -> Result<(), DecodeError> {
    let (mvx, mvy) = (mv.dx as i64, mv.dy as i64);
    if !c.read_bit()? {
        // No residual: the block is its motion-compensated prediction.
        out.copy_block_from(reference, bx * 8, by * 8, 8, mvx, mvy);
        return Ok(());
    }
    s.parse(c, q.steps_f32())?;
    dct::inverse(&s.coef, &mut s.resid);
    out.recon_block8_from(reference, bx, by, mvx, mvy, &s.resid);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{Encoder, EncoderConfig};

    fn moving_square_frames(res: Resolution, n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = Frame::grey(res);
                let w = res.width() as usize;
                let h = res.height() as usize;
                for y in 0..h {
                    for x in 0..w {
                        f.y_mut().put(x, y, ((x * 5 + y * 3) % 96 + 60) as u8);
                    }
                }
                let ox = (i * 2) % (w - 16);
                for y in 8..24.min(h) {
                    for x in ox..ox + 16 {
                        f.y_mut().put(x, y, 220);
                        f.u_mut().put(x / 2, y / 2, 90);
                    }
                }
                f
            })
            .collect()
    }

    #[test]
    fn encoder_decoder_closed_loop_no_drift() {
        let res = Resolution::new(96, 64);
        let frames = moving_square_frames(res, 12);
        let cfg = EncoderConfig::new(100, 0).with_quality(85);
        let mut enc = Encoder::new(res, cfg);
        let mut dec = Decoder::new(res, 85);
        for (i, f) in frames.iter().enumerate() {
            let ef = enc.encode_frame(f);
            let out = dec.decode_frame(&ef).expect("decode");
            let psnr = f.psnr_luma(&out);
            assert!(psnr > 30.0, "frame {i}: PSNR {psnr} too low (drift?)");
        }
    }

    #[test]
    fn p_frame_without_reference_errors() {
        let res = Resolution::new(32, 32);
        let mut dec = Decoder::new(res, 75);
        let fake = EncodedFrame {
            frame_type: FrameType::P,
            data: [0u8; 4].into(),
        };
        assert_eq!(
            dec.decode_frame(&fake).unwrap_err(),
            DecodeError::MissingReference
        );
    }

    #[test]
    fn truncated_iframe_errors() {
        let res = Resolution::new(32, 32);
        let mut enc = Encoder::new(res, EncoderConfig::new(10, 40));
        let ef = enc.encode_frame(&Frame::grey(res));
        let cut = &ef.data[..ef.data.len() / 2];
        assert_eq!(
            Decoder::decode_iframe(res, 75, cut).unwrap_err(),
            DecodeError::Bitstream
        );
    }

    #[test]
    fn independent_iframe_decode_matches_streaming_decode() {
        let res = Resolution::new(64, 48);
        let frames = moving_square_frames(res, 3);
        let mut enc = Encoder::new(res, EncoderConfig::new(100, 40));
        let efs: Vec<_> = frames.iter().map(|f| enc.encode_frame(f)).collect();
        assert_eq!(efs[0].frame_type, FrameType::I);
        let mut dec = Decoder::new(res, 75);
        let streamed = dec.decode_frame(&efs[0]).unwrap();
        let independent = Decoder::decode_iframe(res, 75, &efs[0].data).unwrap();
        assert_eq!(streamed, independent);
    }

    #[test]
    fn reset_clears_reference() {
        let res = Resolution::new(32, 32);
        let mut enc = Encoder::new(res, EncoderConfig::new(100, 0));
        let f = Frame::grey(res);
        let i = enc.encode_frame(&f);
        let p = enc.encode_frame(&f);
        let mut dec = Decoder::new(res, 75);
        dec.decode_frame(&i).unwrap();
        dec.decode_frame(&p).unwrap();
        dec.reset();
        assert_eq!(
            dec.decode_frame(&p).unwrap_err(),
            DecodeError::MissingReference
        );
    }

    #[test]
    fn error_display_messages() {
        assert!(DecodeError::Bitstream.to_string().contains("bitstream"));
        assert!(DecodeError::MissingReference
            .to_string()
            .contains("I-frame"));
        assert!(DecodeError::NotAnIFrame.to_string().contains("I-frame"));
        assert!(DecodeError::FrameOutOfRange.to_string().contains("index"));
    }
}
