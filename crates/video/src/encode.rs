//! The semantic video encoder.
//!
//! A closed-loop block codec with the two knobs SiEVE tunes per camera:
//!
//! * **GOP size** — the maximum number of frames between two I-frames; and
//! * **scenecut threshold** — how aggressively I-frames are inserted when the
//!   motion-compensated (inter) cost of a frame approaches its intra cost.
//!
//! The scenecut rule follows x264's shape: a frame becomes an I-frame when
//! `inter_cost > (1 - bias) * intra_cost`, where `bias` grows linearly with
//! the threshold (range `0..=400`, higher = more sensitive = more I-frames)
//! and is damped immediately after a keyframe so bursts of I-frames are
//! avoided. When an object enters or leaves an otherwise static scene, the
//! newly revealed pixels cannot be predicted from the previous frame, inter
//! cost spikes, and the encoder emits an I-frame — which is exactly the
//! "semantic event" signal the SiEVE I-frame seeker consumes downstream.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bitio::BitWriter;
use crate::dct;
use crate::frame::{Frame, Plane, Resolution};
use crate::motion::{self, FrameMotion, MotionVector, MB};
use crate::quant::QuantTable;

/// Kind of an encoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Intra frame: decodable independently, like a JPEG still.
    I,
    /// Predicted frame: requires the previous frame to reconstruct.
    P,
}

impl std::fmt::Display for FrameType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameType::I => write!(f, "I"),
            FrameType::P => write!(f, "P"),
        }
    }
}

/// Maximum scenecut threshold (x264-style scale; the paper quotes 400 as the
/// most aggressive setting).
pub const SCENECUT_MAX: u16 = 400;

/// Encoder parameters. The two SiEVE-tuned knobs are [`gop_size`] and
/// [`scenecut`]; the rest control rate/quality and are fixed per deployment.
///
/// ```
/// use sieve_video::EncoderConfig;
/// let cfg = EncoderConfig::new(250, 40); // x264 defaults, per the paper
/// assert_eq!(cfg.gop_size, 250);
/// assert_eq!(cfg.scenecut, 40);
/// ```
///
/// [`gop_size`]: EncoderConfig::gop_size
/// [`scenecut`]: EncoderConfig::scenecut
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Maximum distance between I-frames; an I-frame is forced when reached.
    pub gop_size: usize,
    /// Scenecut sensitivity in `0..=400`; `0` disables scene detection,
    /// `400` makes every frame an I-frame.
    pub scenecut: u16,
    /// Minimum distance between two scenecut I-frames (forced GOP boundaries
    /// are exempt). Damps I-frame bursts while an object is mid-entry.
    pub min_keyint: usize,
    /// Quantizer quality in `1..=100` (libjpeg-style scaling).
    pub quality: u8,
    /// Motion search range in full-pel.
    pub search_range: u16,
    /// Per-pixel SAD below which a macroblock is coded as SKIP.
    pub skip_threshold_per_pixel: f32,
}

impl EncoderConfig {
    /// Creates a config with the given GOP size and scenecut threshold and
    /// library defaults for everything else.
    ///
    /// # Panics
    ///
    /// Panics if `gop_size == 0` or `scenecut > 400`.
    pub fn new(gop_size: usize, scenecut: u16) -> Self {
        assert!(gop_size > 0, "GOP size must be at least 1");
        assert!(
            scenecut <= SCENECUT_MAX,
            "scenecut threshold must be in 0..=400"
        );
        Self {
            gop_size,
            scenecut,
            min_keyint: 4,
            quality: 75,
            search_range: 16,
            skip_threshold_per_pixel: 3.0,
        }
    }

    /// The x264 defaults quoted by the paper (GOP 250, scenecut 40).
    pub fn x264_default() -> Self {
        Self::new(250, 40)
    }

    /// Returns a copy with a different quality factor.
    ///
    /// # Panics
    ///
    /// Panics if `quality` is outside `1..=100`.
    pub fn with_quality(mut self, quality: u8) -> Self {
        assert!((1..=100).contains(&quality), "quality must be in 1..=100");
        self.quality = quality;
        self
    }

    /// Returns a copy with a different minimum keyframe interval.
    pub fn with_min_keyint(mut self, min_keyint: usize) -> Self {
        self.min_keyint = min_keyint.max(1);
        self
    }
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self::x264_default()
    }
}

/// One encoded frame: its type plus the entropy-coded payload.
///
/// The payload is immutable and refcounted: it is allocated once, where the
/// frame is produced (encoder, container parse), and every later holder — a
/// cloned frame, a packet queued in the fleet — shares those bytes instead
/// of copying them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// I or P.
    pub frame_type: FrameType,
    /// Entropy-coded payload bytes.
    pub data: Arc<[u8]>,
}

impl EncodedFrame {
    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }
}

/// Why a frame got the type it did — kept for diagnostics and for the tuner's
/// reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameDecision {
    /// Type chosen.
    pub frame_type: FrameType,
    /// Inter/intra cost ratio observed (0 for the very first frame).
    pub inter_over_intra: f64,
    /// True if the I-frame was forced by the GOP limit rather than scenecut.
    pub forced_by_gop: bool,
    /// True if the scenecut rule fired.
    pub scenecut_fired: bool,
}

/// The scenecut lookahead: decides I vs P from half-resolution *source*
/// planes. Both the sequential [`Encoder`] and the GOP-parallel first pass
/// ([`crate::parallel`]) drive this exact type, so their frame-type
/// decisions cannot diverge — which is what makes the parallel encoder's
/// bitstream byte-identical.
///
/// The lookahead compares source against source, like x264's lowres
/// lookahead: comparing against the reconstruction instead would make every
/// large change echo for several frames while the closed loop's quantization
/// error settles, polluting the scenecut signal.
#[derive(Debug)]
pub struct Lookahead {
    config: EncoderConfig,
    /// Half-resolution luma of the previous source frame.
    ref_half: Option<Plane>,
    /// Reused buffer the current frame's half plane is computed into.
    half_scratch: Plane,
    /// Buffer parked by [`Lookahead::reset`] so a reused lookahead keeps
    /// both of its half-plane allocations across streams.
    spare: Option<Plane>,
    frames_since_i: usize,
}

impl Lookahead {
    pub fn new(config: EncoderConfig) -> Self {
        Self {
            config,
            ref_half: None,
            half_scratch: Plane::filled(1, 1, 0),
            spare: None,
            frames_since_i: 0,
        }
    }

    /// Decides the type of the next frame in display order and advances the
    /// lookahead state. Allocation-free once the two half-plane buffers
    /// exist.
    pub fn observe(&mut self, frame: &Frame) -> FrameDecision {
        let w = (frame.y().width() / 2).max(16);
        let h = (frame.y().height() / 2).max(16);
        frame.y().resize_box_into(w, h, &mut self.half_scratch);
        let decision = self.decide(&self.half_scratch);
        // The current half plane becomes the reference; the old reference
        // buffer becomes the next frame's scratch.
        let old = self
            .ref_half
            .take()
            .or_else(|| self.spare.take())
            .unwrap_or_else(|| Plane::filled(1, 1, 0));
        self.ref_half = Some(std::mem::replace(&mut self.half_scratch, old));
        match decision.frame_type {
            FrameType::I => self.frames_since_i = 0,
            FrameType::P => self.frames_since_i += 1,
        }
        decision
    }

    /// Records that the encoder degraded the last observed frame to an
    /// I-frame (the missing-reference fallback).
    fn force_i(&mut self) {
        self.frames_since_i = 0;
    }

    /// Clears stream state, keeping the allocated half-plane buffers.
    fn reset(&mut self) {
        if let Some(p) = self.ref_half.take() {
            self.spare = Some(p);
        }
        self.frames_since_i = 0;
    }

    /// Decides I vs P for the frame whose half-resolution luma is
    /// `cur_half`, using the GOP limit and the scenecut rule.
    fn decide(&self, cur_half: &Plane) -> FrameDecision {
        let Some(reference) = &self.ref_half else {
            return FrameDecision {
                frame_type: FrameType::I,
                inter_over_intra: 0.0,
                forced_by_gop: true,
                scenecut_fired: false,
            };
        };
        // Distance of the candidate frame from the last I-frame: the frame
        // immediately after a keyframe is at distance 1.
        let dist = self.frames_since_i + 1;
        if dist >= self.config.gop_size {
            // GOP limit: the ratio is still measured for diagnostics.
            let agg = self.frame_motion(cur_half, reference);
            return FrameDecision {
                frame_type: FrameType::I,
                inter_over_intra: agg.inter_over_intra(),
                forced_by_gop: true,
                scenecut_fired: false,
            };
        }
        let agg = self.frame_motion(cur_half, reference);
        // The lookahead's intra estimate is raw texture energy; a real
        // encoder intra-predicts first, so its intra cost is considerably
        // smaller. Scale ours down to match, which centres useful scenecut
        // values on the same 20..250 band x264 users tune within.
        const INTRA_SCALE: f64 = 0.4;
        let ratio = agg.inter_over_intra() / INTRA_SCALE;
        let base_bias = self.config.scenecut as f64 / SCENECUT_MAX as f64;
        // Damp scene cuts right after a keyframe, as x264 does with
        // min-keyint: at distance d < min_keyint the bias shrinks linearly.
        let damp = (dist as f64 / self.config.min_keyint as f64).min(1.0);
        let bias = base_bias * damp;
        let fired = ratio >= 1.0 - bias;
        let ft = if fired { FrameType::I } else { FrameType::P };
        FrameDecision {
            frame_type: ft,
            inter_over_intra: ratio,
            forced_by_gop: false,
            scenecut_fired: fired,
        }
    }

    /// Scenecut lookahead cost analysis over half-resolution source planes.
    fn frame_motion(&self, cur_half: &Plane, ref_half: &Plane) -> FrameMotion {
        motion::analyze_frame_agg(cur_half, ref_half, (self.config.search_range / 2).max(4))
    }
}

/// Closed-loop encoder. Feed frames in display order with
/// [`Encoder::encode_frame`]; the encoder maintains its own reconstructed
/// reference so that encoder and decoder never drift.
///
/// The encoder recycles all of its per-frame scratch (the reconstruction
/// frame, the lookahead's half-resolution planes, the bitstream buffer), so
/// the steady-state [`Encoder::encode_frame_into`] loop performs no heap
/// allocation and [`Encoder::encode_frame`] performs exactly one: the
/// exact-size payload it returns.
#[derive(Debug)]
pub struct Encoder {
    config: EncoderConfig,
    resolution: Resolution,
    luma_q: QuantTable,
    chroma_q: QuantTable,
    reference: Option<Frame>,
    /// Recycled frame buffer the next reconstruction is written into; after
    /// each frame this swaps with `reference`.
    recon_scratch: Option<Frame>,
    /// Frame buffer parked by [`Encoder::reset`] so a reused encoder keeps
    /// both of its frame allocations across streams.
    frame_spare: Option<Frame>,
    /// Recycled bitstream buffer [`Encoder::encode_frame`] writes into
    /// before copying the finished payload out at its exact size.
    payload_scratch: Vec<u8>,
    lookahead: Lookahead,
    decisions: Vec<FrameDecision>,
}

impl Encoder {
    /// Creates an encoder for frames of `resolution`.
    pub fn new(resolution: Resolution, config: EncoderConfig) -> Self {
        Self {
            luma_q: QuantTable::luma(config.quality),
            chroma_q: QuantTable::chroma(config.quality),
            config,
            resolution,
            reference: None,
            recon_scratch: None,
            frame_spare: None,
            payload_scratch: Vec::new(),
            lookahead: Lookahead::new(config),
            decisions: Vec::new(),
        }
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Per-frame decisions made so far (one entry per encoded frame).
    pub fn decisions(&self) -> &[FrameDecision] {
        &self.decisions
    }

    /// Clears stream state (reference, lookahead, decisions) while keeping
    /// every allocated scratch buffer, so one encoder can be reused across
    /// independent GOPs or streams of the same resolution.
    pub fn reset(&mut self) {
        if let Some(r) = self.reference.take() {
            if self.recon_scratch.is_none() {
                self.recon_scratch = Some(r);
            } else {
                self.frame_spare = Some(r);
            }
        }
        self.lookahead.reset();
        self.decisions.clear();
    }

    /// Encodes the next frame in display order.
    ///
    /// # Panics
    ///
    /// Panics if `frame`'s resolution differs from the encoder's.
    pub fn encode_frame(&mut self, frame: &Frame) -> EncodedFrame {
        let mut buf = std::mem::take(&mut self.payload_scratch);
        let frame_type = self.encode_frame_into(frame, &mut buf);
        self.sealed(frame_type, buf)
    }

    /// [`Encoder::encode_frame`] into a caller-owned buffer (cleared, then
    /// filled with the payload), returning the frame's type — the
    /// allocation-free steady-state entry point.
    ///
    /// # Panics
    ///
    /// Panics if `frame`'s resolution differs from the encoder's.
    pub fn encode_frame_into(&mut self, frame: &Frame, out: &mut Vec<u8>) -> FrameType {
        assert_eq!(
            frame.resolution(),
            self.resolution,
            "frame resolution changed mid-stream"
        );
        let mut decision = self.lookahead.observe(frame);
        let mut w = BitWriter::with_buf(std::mem::take(out));
        // `decide` only returns P when a reference exists; if that invariant
        // is ever violated, degrade to an I-frame rather than panicking.
        let frame_type = match (decision.frame_type, &self.reference) {
            (FrameType::P, Some(_)) => {
                self.encode_p(frame, &mut w);
                FrameType::P
            }
            (FrameType::P, None) | (FrameType::I, _) => {
                decision.frame_type = FrameType::I;
                self.lookahead.force_i();
                self.encode_i(frame, &mut w);
                FrameType::I
            }
        };
        *out = w.finish();
        self.decisions.push(decision);
        frame_type
    }

    /// Encodes one frame with an externally decided type, bypassing the
    /// lookahead — the GOP-parallel second pass, where pass one already
    /// fixed every frame type. Callers must only force `P` when a reference
    /// exists (i.e. not as the first frame after a reset).
    pub(crate) fn encode_forced(&mut self, frame: &Frame, frame_type: FrameType) -> EncodedFrame {
        let mut w = BitWriter::with_buf(std::mem::take(&mut self.payload_scratch));
        match frame_type {
            FrameType::I => self.encode_i(frame, &mut w),
            FrameType::P => self.encode_p(frame, &mut w),
        }
        self.sealed(frame_type, w.finish())
    }

    /// Copies the finished bitstream out as the frame's payload — the one
    /// exact-size allocation per encoded frame — and parks `buf` for reuse.
    fn sealed(&mut self, frame_type: FrameType, buf: Vec<u8>) -> EncodedFrame {
        let data = Arc::from(&buf[..]);
        self.payload_scratch = buf;
        EncodedFrame { frame_type, data }
    }

    fn encode_i(&mut self, frame: &Frame, w: &mut BitWriter) {
        let mut recon = self
            .recon_scratch
            .take()
            .unwrap_or_else(|| Frame::grey(self.resolution));
        encode_plane_intra(frame.y(), &self.luma_q, w, recon.y_mut());
        encode_plane_intra(frame.u(), &self.chroma_q, w, recon.u_mut());
        encode_plane_intra(frame.v(), &self.chroma_q, w, recon.v_mut());
        // The fresh reconstruction becomes the reference; the old reference
        // buffer (or the spare parked by `reset` at a stream boundary) is
        // recycled for the next frame.
        self.recon_scratch = self
            .reference
            .replace(recon)
            .or_else(|| self.frame_spare.take());
    }

    fn encode_p(&mut self, frame: &Frame, w: &mut BitWriter) {
        // Caller (`encode_frame_into`) routes to `encode_i` when no
        // reference exists; an empty reference here would still produce a
        // valid (if wasteful) all-intra-predicted P-frame against a grey
        // frame.
        let reference = self
            .reference
            .take()
            .unwrap_or_else(|| Frame::grey(self.resolution));
        let mut recon = self
            .recon_scratch
            .take()
            .unwrap_or_else(|| Frame::grey(self.resolution));
        let skip_thresh = (self.config.skip_threshold_per_pixel * (MB * MB) as f32) as u32;

        let mb_cols = self.resolution.mb_cols();
        let mb_rows = self.resolution.mb_rows();
        for my in 0..mb_rows {
            for mx in 0..mb_cols {
                let x = mx * MB;
                let y = my * MB;
                let mr = motion::three_step_search(
                    frame.y(),
                    reference.y(),
                    x,
                    y,
                    self.config.search_range,
                );
                if mr.zero_sad <= skip_thresh {
                    // SKIP: copy the co-located macroblock.
                    w.write_bit(false);
                    copy_mb(&reference, &mut recon, x, y, MotionVector::ZERO);
                } else {
                    w.write_bit(true);
                    w.write_se(mr.mv.dx as i64);
                    w.write_se(mr.mv.dy as i64);
                    self.code_inter_mb(frame, &reference, &mut recon, x, y, mr.mv, w);
                }
            }
        }
        self.reference = Some(recon);
        self.recon_scratch = Some(reference);
    }

    /// Codes the residual of one inter macroblock: four 8x8 luma blocks plus
    /// one 8x8 block per chroma plane, each preceded by a coded-block flag.
    #[allow(clippy::too_many_arguments)]
    fn code_inter_mb(
        &self,
        frame: &Frame,
        reference: &Frame,
        recon: &mut Frame,
        x: usize,
        y: usize,
        mv: MotionVector,
        w: &mut BitWriter,
    ) {
        // Luma: 2x2 grid of 8x8 blocks.
        for by in 0..2 {
            for bx in 0..2 {
                let bx8 = x / 8 + bx;
                let by8 = y / 8 + by;
                code_inter_block(
                    frame.y(),
                    reference.y(),
                    recon.y_mut(),
                    bx8,
                    by8,
                    mv,
                    &self.luma_q,
                    w,
                );
            }
        }
        // Chroma: one 8x8 block per plane at half resolution, half motion.
        let cmv = MotionVector {
            dx: mv.dx / 2,
            dy: mv.dy / 2,
        };
        let (cbx, cby) = (x / 16, y / 16);
        code_inter_block(
            frame.u(),
            reference.u(),
            recon.u_mut(),
            cbx,
            cby,
            cmv,
            &self.chroma_q,
            w,
        );
        code_inter_block(
            frame.v(),
            reference.v(),
            recon.v_mut(),
            cbx,
            cby,
            cmv,
            &self.chroma_q,
            w,
        );
    }
}

/// Copies a motion-compensated macroblock (luma + both chroma planes) from
/// `reference` into `recon` at `(x, y)` with displacement `mv`.
fn copy_mb(reference: &Frame, recon: &mut Frame, x: usize, y: usize, mv: MotionVector) {
    recon
        .y_mut()
        .copy_block_from(reference.y(), x, y, MB, mv.dx as i64, mv.dy as i64);
    let (cx, cy) = (x / 2, y / 2);
    let cmv = MotionVector {
        dx: mv.dx / 2,
        dy: mv.dy / 2,
    };
    recon
        .u_mut()
        .copy_block_from(reference.u(), cx, cy, MB / 2, cmv.dx as i64, cmv.dy as i64);
    recon
        .v_mut()
        .copy_block_from(reference.v(), cx, cy, MB / 2, cmv.dx as i64, cmv.dy as i64);
}

/// Extracts the motion-compensated prediction for an 8x8 block at block
/// coordinates `(bx, by)` of `plane`, clamping reads at the reference's
/// edges.
pub(crate) fn predict_block8(
    reference: &Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
) -> [u8; 64] {
    let mut pred = [0u8; 64];
    reference.fill_block_clamped(
        (bx * 8) as i64 + mv.dx as i64,
        (by * 8) as i64 + mv.dy as i64,
        8,
        &mut pred,
    );
    pred
}

/// Codes one inter 8x8 block: computes the residual against the
/// motion-compensated prediction, transforms, quantizes, writes a
/// coded-block flag plus coefficients, and reconstructs into `recon`.
#[allow(clippy::too_many_arguments)]
fn code_inter_block(
    cur: &Plane,
    reference: &Plane,
    recon: &mut Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
    q: &QuantTable,
    w: &mut BitWriter,
) {
    let mut block = [0i32; 64];
    cur.get_block8(bx, by, &mut block);
    let pred = predict_block8(reference, bx, by, mv);
    let mut resid = [0i32; 64];
    for i in 0..64 {
        resid[i] = block[i] - pred[i] as i32;
    }
    let mut coeffs = [0f32; 64];
    dct::forward(&resid, &mut coeffs);
    let mut levels = [0i32; 64];
    q.quantize(&coeffs, &mut levels);
    let coded = levels.iter().any(|&l| l != 0);
    w.write_bit(coded);
    // Closed-loop reconstruction, through the decoder's own block step.
    let mut rec_resid = [0i32; 64];
    if coded {
        crate::entropy::encode_block(&levels, w);
        let mut deq = [0f32; 64];
        q.dequantize(&levels, &mut deq);
        dct::inverse(&deq, &mut rec_resid);
    }
    recon.recon_block8(bx, by, &pred, &rec_resid);
}

/// Intra-codes a whole plane (8x8 blocks, level shift, DCT, quantize, DC
/// delta coding) and reconstructs it into `recon` for the closed loop.
pub(crate) fn encode_plane_intra(
    plane: &Plane,
    q: &QuantTable,
    w: &mut BitWriter,
    recon: &mut Plane,
) {
    let bcols = plane.width().div_ceil(8);
    let brows = plane.height().div_ceil(8);
    let mut prev_dc = 0i32;
    for by in 0..brows {
        for bx in 0..bcols {
            let mut block = [0i32; 64];
            plane.get_block8(bx, by, &mut block);
            for v in block.iter_mut() {
                *v -= 128;
            }
            let mut coeffs = [0f32; 64];
            dct::forward(&block, &mut coeffs);
            let mut levels = [0i32; 64];
            q.quantize(&coeffs, &mut levels);
            let dc = levels[0];
            levels[0] = dc - prev_dc;
            crate::entropy::encode_block(&levels, w);
            levels[0] = dc;
            prev_dc = dc;
            // Closed-loop reconstruction.
            let mut deq = [0f32; 64];
            q.dequantize(&levels, &mut deq);
            let mut rec = [0i32; 64];
            dct::inverse(&deq, &mut rec);
            // Intra blocks predict flat mid-grey: the level shift.
            recon.recon_block8(bx, by, &[128; 64], &rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::Decoder;

    fn noise_frame(res: Resolution, seed: u64, amplitude: i32) -> Frame {
        // Deterministic textured background + per-frame pseudo-noise.
        let mut f = Frame::grey(res);
        let w = res.width() as usize;
        let h = res.height() as usize;
        for y in 0..h {
            for x in 0..w {
                let tex = ((x * 7 + y * 13) % 64) as i32 + 96;
                let n = (((x as u64).wrapping_mul(2654435761)
                    ^ (y as u64).wrapping_mul(40503)
                    ^ seed.wrapping_mul(6364136223846793005))
                    >> 7) as i32
                    % (2 * amplitude + 1)
                    - amplitude;
                f.y_mut().put(x, y, (tex + n).clamp(0, 255) as u8);
            }
        }
        f
    }

    #[test]
    fn first_frame_is_i() {
        let res = Resolution::new(64, 48);
        let mut enc = Encoder::new(res, EncoderConfig::new(100, 40));
        let ef = enc.encode_frame(&Frame::grey(res));
        assert_eq!(ef.frame_type, FrameType::I);
        assert!(enc.decisions()[0].forced_by_gop);
    }

    #[test]
    fn static_scene_yields_p_frames() {
        let res = Resolution::new(64, 48);
        let mut enc = Encoder::new(res, EncoderConfig::new(100, 40));
        let f = noise_frame(res, 0, 0);
        enc.encode_frame(&f);
        for _ in 0..10 {
            let ef = enc.encode_frame(&f);
            assert_eq!(ef.frame_type, FrameType::P);
        }
    }

    #[test]
    fn gop_limit_forces_i() {
        let res = Resolution::new(64, 48);
        let mut enc = Encoder::new(res, EncoderConfig::new(5, 0));
        let f = noise_frame(res, 0, 1);
        let types: Vec<FrameType> = (0..12).map(|_| enc.encode_frame(&f).frame_type).collect();
        assert_eq!(types[0], FrameType::I);
        assert_eq!(types[5], FrameType::I);
        assert_eq!(types[10], FrameType::I);
        assert!(types[1..5].iter().all(|&t| t == FrameType::P));
    }

    #[test]
    fn scenecut_400_makes_every_frame_i_after_min_keyint() {
        let res = Resolution::new(64, 48);
        let cfg = EncoderConfig::new(1000, 400).with_min_keyint(1);
        let mut enc = Encoder::new(res, cfg);
        // Use frames with some texture so intra cost is non-zero.
        for i in 0..5 {
            let ef = enc.encode_frame(&noise_frame(res, i, 2));
            assert_eq!(ef.frame_type, FrameType::I, "frame {i}");
        }
    }

    #[test]
    fn scene_change_triggers_i_frame() {
        let res = Resolution::new(64, 48);
        let cfg = EncoderConfig::new(1000, 150).with_min_keyint(1);
        let mut enc = Encoder::new(res, cfg);
        let background = noise_frame(res, 0, 1);
        enc.encode_frame(&background);
        for _ in 0..5 {
            assert_eq!(enc.encode_frame(&background).frame_type, FrameType::P);
        }
        // A completely different scene.
        let mut other = Frame::grey(res);
        for y in 0..48 {
            for x in 0..64 {
                other.y_mut().put(x, y, (((x * 31) ^ (y * 17)) % 256) as u8);
            }
        }
        let ef = enc.encode_frame(&other);
        assert_eq!(ef.frame_type, FrameType::I);
        assert!(enc.decisions().last().unwrap().scenecut_fired);
    }

    #[test]
    fn higher_scenecut_never_fewer_iframes() {
        let res = Resolution::new(64, 48);
        // A sequence with a moderate change mid-way.
        let frames: Vec<Frame> = (0..20)
            .map(|i| {
                let mut f = noise_frame(res, 0, 1);
                if i >= 10 {
                    // Paste a block (an "object").
                    for y in 8..24 {
                        for x in 8..32 {
                            f.y_mut().put(x, y, 230);
                        }
                    }
                }
                f
            })
            .collect();
        let count_i = |sc: u16| {
            let mut enc = Encoder::new(res, EncoderConfig::new(1000, sc));
            frames
                .iter()
                .filter(|f| enc.encode_frame(f).frame_type == FrameType::I)
                .count()
        };
        let counts: Vec<usize> = [0u16, 100, 200, 300, 400]
            .iter()
            .map(|&s| count_i(s))
            .collect();
        for w in counts.windows(2) {
            assert!(
                w[0] <= w[1],
                "I-frame count must grow with scenecut: {counts:?}"
            );
        }
    }

    #[test]
    fn i_frame_roundtrip_quality() {
        let res = Resolution::new(64, 48);
        let mut enc = Encoder::new(res, EncoderConfig::new(100, 40).with_quality(90));
        let f = noise_frame(res, 3, 4);
        let ef = enc.encode_frame(&f);
        let dec = Decoder::decode_iframe(res, 90, &ef.data).expect("decode");
        assert!(f.psnr_luma(&dec) > 35.0, "I-frame PSNR too low");
    }

    #[test]
    fn p_frames_smaller_than_i_frames_for_static_video() {
        let res = Resolution::new(96, 64);
        let mut enc = Encoder::new(res, EncoderConfig::new(100, 40));
        let f = noise_frame(res, 0, 1);
        let i_size = enc.encode_frame(&f).size_bytes();
        let p_size = enc.encode_frame(&f).size_bytes();
        assert!(
            p_size * 4 < i_size,
            "P ({p_size}) should be far smaller than I ({i_size})"
        );
    }

    #[test]
    fn config_validation() {
        let cfg = EncoderConfig::new(1, 0);
        assert_eq!(cfg.gop_size, 1);
        let d = EncoderConfig::default();
        assert_eq!((d.gop_size, d.scenecut), (250, 40));
    }

    #[test]
    #[should_panic(expected = "scenecut")]
    fn config_rejects_out_of_range_scenecut() {
        let _ = EncoderConfig::new(10, 401);
    }
}
