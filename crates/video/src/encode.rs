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

use std::borrow::Borrow;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bitio::BitWriter;
use crate::dct;
use crate::frame::{Frame, Plane, Resolution};
use crate::motion::{self, MotionVector, PaddedPlane, MB};
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
const SCENECUT_MAX: u16 = 400;

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

    /// Copies a finished bitstream out as a frame's payload: the one
    /// exact-size allocation per encoded frame.
    pub(crate) fn sealed(frame_type: FrameType, bitstream: &[u8]) -> Self {
        Self {
            frame_type,
            data: Arc::from(bitstream),
        }
    }
}

/// The lookahead's ratio pass: for each frame in display order, the
/// inter/intra cost ratio of its half-resolution luma against the previous
/// frame's, measured at half the encoder's motion search range.
///
/// The lookahead compares source against source, like x264's lowres
/// lookahead: comparing against the reconstruction instead would make every
/// large change echo for several frames while the closed loop's quantization
/// error settles, polluting the scenecut signal. So the ratio never depends
/// on how earlier frames were coded, and [`frame_type`] can be replayed over
/// a stored [`RatioTrace`] without encoding.
#[derive(Debug)]
struct Lookahead {
    /// The motion search range of the ratio pass: half the encoder's, at
    /// least 4.
    range: u16,
    /// Buffer the current frame's half plane is downscaled into.
    half: Plane,
    /// The previous source frame's half plane, padded for the search;
    /// valid when `has_prev`.
    prev: PaddedPlane,
    /// The current frame's padded half plane; swapped with `prev` after
    /// every frame.
    cur: PaddedPlane,
    has_prev: bool,
}

impl Lookahead {
    fn new(search_range: u16) -> Self {
        Self {
            range: (search_range / 2).max(4),
            half: Plane::filled(1, 1, 0),
            prev: PaddedPlane::default(),
            cur: PaddedPlane::default(),
            has_prev: false,
        }
    }

    /// The ratio of `frame` against the previous frame, or `None` for the
    /// first frame since construction or [`Lookahead::reset`].
    /// Allocation-free once every buffer has its size.
    fn ratio(&mut self, frame: &Frame) -> Option<f64> {
        let w = (frame.y().width() / 2).max(16);
        let h = (frame.y().height() / 2).max(16);
        frame.y().resize_box_into(w, h, &mut self.half);
        self.cur.pad_for_search(&self.half, self.range);
        let ratio = self
            .has_prev
            .then(|| motion::frame_motion(&self.cur, &self.prev, self.range).inter_over_intra());
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.has_prev = true;
        ratio
    }

    /// Forgets the previous frame, keeping every buffer.
    fn reset(&mut self) {
        self.has_prev = false;
    }
}

/// Decides I vs P for a frame from its lookahead `ratio` (`None` when the
/// frame has no reference) and its distance `dist` from the last I-frame
/// (the frame right after a keyframe is at distance 1): the GOP limit, then
/// the scenecut rule. Every I-frame placement in the crate — the encoder's
/// decision half, which every encode path runs, and
/// [`RatioTrace::i_frames`] — is this function.
pub fn frame_type(ratio: Option<f64>, dist: usize, config: &EncoderConfig) -> FrameType {
    let Some(ratio) = ratio else {
        return FrameType::I;
    };
    if dist >= config.gop_size {
        return FrameType::I;
    }
    // The lookahead's intra estimate is raw texture energy; a real encoder
    // intra-predicts first, so its intra cost is considerably smaller. Scale
    // ours down to match, which centres useful scenecut values on the same
    // 20..250 band x264 users tune within.
    const INTRA_SCALE: f64 = 0.4;
    let ratio = ratio / INTRA_SCALE;
    let base_bias = config.scenecut as f64 / SCENECUT_MAX as f64;
    // Damp scene cuts right after a keyframe, as x264 does with min-keyint:
    // at distance d < min_keyint the bias shrinks linearly.
    let damp = (dist as f64 / config.min_keyint as f64).min(1.0);
    let bias = base_bias * damp;
    if ratio >= 1.0 - bias {
        FrameType::I
    } else {
        FrameType::P
    }
}

/// The lookahead ratio of every frame of a sequence, measured once. Because
/// the ratio depends only on the source frames and the search range,
/// replaying [`frame_type`] over it gives the I-frames an encode of the
/// sequence would place, for any GOP size, scenecut and minimum keyframe
/// interval, without encoding.
///
/// ```
/// use sieve_video::{EncodedVideo, EncoderConfig, Frame, RatioTrace, Resolution};
/// let res = Resolution::new(32, 32);
/// let frames: Vec<Frame> = (0..5).map(|_| Frame::grey(res)).collect();
/// let config = EncoderConfig::new(2, 0);
/// let trace = RatioTrace::measure(config.search_range, &frames);
/// let video = EncodedVideo::encode(res, 30, config, frames);
/// assert_eq!(trace.i_frames(&config), video.i_frame_indices());
/// ```
#[derive(Debug)]
pub struct RatioTrace {
    search_range: u16,
    /// One ratio per frame; `None` exactly for the first.
    ratios: Vec<Option<f64>>,
}

impl RatioTrace {
    /// Runs the ratio pass over `frames` at motion search range
    /// `search_range`.
    pub fn measure<F: Borrow<Frame>>(
        search_range: u16,
        frames: impl IntoIterator<Item = F>,
    ) -> Self {
        let mut lookahead = Lookahead::new(search_range);
        let ratios = frames
            .into_iter()
            .map(|f| lookahead.ratio(f.borrow()))
            .collect();
        Self {
            search_range,
            ratios,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    /// True for the trace of an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.ratios.is_empty()
    }

    /// The ratio of every frame in display order; `None` for the first.
    // lint:allow(dead-pub): crates/video/tests/encode_golden.rs hashes the ratio trace
    pub fn ratios(&self) -> &[Option<f64>] {
        &self.ratios
    }

    /// The trace of the frames in `range` alone: the same ratios, except
    /// that the first frame loses its reference, as in a fresh encode of
    /// that slice.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Self {
        let mut ratios = self.ratios[range].to_vec();
        if let Some(first) = ratios.first_mut() {
            *first = None;
        }
        Self {
            search_range: self.search_range,
            ratios,
        }
    }

    /// Indices of the frames encoding the sequence with `config` makes
    /// I-frames: equal to [`crate::EncodedVideo::i_frame_indices`] of that
    /// encode.
    ///
    /// # Panics
    ///
    /// Panics if `config.search_range` differs from the range the trace was
    /// measured at, since the ratio depends on it.
    pub fn i_frames(&self, config: &EncoderConfig) -> Vec<usize> {
        assert_eq!(
            config.search_range, self.search_range,
            "ratio trace replayed at a different search range than it was measured at"
        );
        let mut since_i = 0;
        (0..self.ratios.len())
            .filter(|&i| place(self.ratios[i], &mut since_i, config) == FrameType::I)
            .collect()
    }
}

/// Closed-loop encoder. Feed frames in display order with
/// [`Encoder::encode_frame`]; the encoder maintains its own reconstructed
/// reference so that encoder and decoder never drift.
///
/// It is the two halves run on one thread: the decision half picks each
/// frame's type from the source, the coding half codes it.
/// [`crate::EncodedVideo::encode`] runs the same two halves on two threads.
///
/// The encoder recycles all of its per-frame scratch (the reconstruction
/// frame, the padded luma planes of the motion search, the lookahead's
/// half-resolution planes, the bitstream buffer), so the steady-state
/// [`Encoder::encode_frame_into`] loop performs no heap allocation and
/// [`Encoder::encode_frame`] performs exactly one: the exact-size payload
/// it returns.
#[derive(Debug)]
pub struct Encoder {
    decider: Decider,
    coder: Coder,
    /// Recycled bitstream buffer [`Encoder::encode_frame`] writes into
    /// before copying the finished payload out at its exact size.
    payload_scratch: Vec<u8>,
}

impl Encoder {
    /// Creates an encoder for frames of `resolution`.
    pub fn new(resolution: Resolution, config: EncoderConfig) -> Self {
        Self {
            decider: Decider::new(resolution, config),
            coder: Coder::new(resolution, config),
            payload_scratch: Vec::new(),
        }
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.coder.config
    }

    /// Clears stream state (reference, lookahead) while keeping
    /// every allocated scratch buffer, so one encoder can be reused across
    /// independent GOPs or streams of the same resolution.
    pub fn reset(&mut self) {
        self.decider.reset();
        self.coder.reset();
    }

    /// Encodes the next frame in display order.
    ///
    /// # Panics
    ///
    /// Panics if `frame`'s resolution differs from the encoder's.
    pub fn encode_frame(&mut self, frame: &Frame) -> EncodedFrame {
        let frame_type = self.decider.decide(frame);
        self.coder
            .code(frame, frame_type, &mut self.payload_scratch);
        EncodedFrame::sealed(frame_type, &self.payload_scratch)
    }

    /// [`Encoder::encode_frame`] into a caller-owned buffer (cleared, then
    /// filled with the payload), returning the frame's type — the
    /// allocation-free steady-state entry point.
    ///
    /// # Panics
    ///
    /// Panics if `frame`'s resolution differs from the encoder's.
    // lint:allow(dead-pub): crates/video/tests/alloc_steady_state.rs holds the encoder loop allocation-free through it
    pub fn encode_frame_into(&mut self, frame: &Frame, out: &mut Vec<u8>) -> FrameType {
        let frame_type = self.decider.decide(frame);
        self.coder.code(frame, frame_type, out);
        frame_type
    }
}

/// [`frame_type`] at the distance `since_i` counts (frames since the last
/// I-frame), advancing the count past the decided frame.
fn place(ratio: Option<f64>, since_i: &mut usize, config: &EncoderConfig) -> FrameType {
    let ft = frame_type(ratio, *since_i + 1, config);
    *since_i = match ft {
        FrameType::I => 0,
        FrameType::P => *since_i + 1,
    };
    ft
}

/// The encoder's decision half: the lookahead, the distance from the last
/// I-frame and [`frame_type`]. It reads only the source frames, never a
/// reconstruction, so it can run ahead of the coding half on another
/// thread (see [`EncodedVideo::encode`]).
///
/// [`EncodedVideo::encode`]: crate::EncodedVideo::encode
#[derive(Debug)]
pub(crate) struct Decider {
    config: EncoderConfig,
    resolution: Resolution,
    lookahead: Lookahead,
    /// Frames decided since the last I-frame.
    since_i: usize,
}

impl Decider {
    pub(crate) fn new(resolution: Resolution, config: EncoderConfig) -> Self {
        Self {
            config,
            resolution,
            lookahead: Lookahead::new(config.search_range),
            since_i: 0,
        }
    }

    /// The type of the next frame in display order. The first frame since
    /// construction or [`Decider::reset`] has no reference, so it is an
    /// I-frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame`'s resolution differs from the stream's.
    pub(crate) fn decide(&mut self, frame: &Frame) -> FrameType {
        assert_eq!(
            frame.resolution(),
            self.resolution,
            "frame resolution changed mid-stream"
        );
        let ratio = self.lookahead.ratio(frame);
        place(ratio, &mut self.since_i, &self.config)
    }

    /// Forgets the previous frame, keeping the lookahead's buffers.
    fn reset(&mut self) {
        self.lookahead.reset();
    }
}

/// The encoder's coding half: codes each frame as the type it is handed,
/// against its own reconstruction of the previous frame, so encoder and
/// decoder never drift. Its state resets completely at every I-frame.
#[derive(Debug)]
pub(crate) struct Coder {
    config: EncoderConfig,
    resolution: Resolution,
    luma_q: QuantTable,
    chroma_q: QuantTable,
    reference: Option<Frame>,
    /// Recycled frame buffer the next reconstruction is written into; after
    /// each frame this swaps with `reference`.
    recon_scratch: Option<Frame>,
    /// Frame buffer parked by [`Coder::reset`] so a reused coder keeps both
    /// of its frame allocations across streams.
    frame_spare: Option<Frame>,
    /// The source luma of the frame being coded and the reference luma,
    /// padded for the motion search; refreshed before every P-frame.
    cur_luma: PaddedPlane,
    ref_luma: PaddedPlane,
}

impl Coder {
    pub(crate) fn new(resolution: Resolution, config: EncoderConfig) -> Self {
        Self {
            luma_q: QuantTable::luma(config.quality),
            chroma_q: QuantTable::chroma(config.quality),
            config,
            resolution,
            reference: None,
            recon_scratch: None,
            frame_spare: None,
            cur_luma: PaddedPlane::default(),
            ref_luma: PaddedPlane::default(),
        }
    }

    /// Drops the reference, keeping both frame buffers.
    pub(crate) fn reset(&mut self) {
        if let Some(r) = self.reference.take() {
            if self.recon_scratch.is_none() {
                self.recon_scratch = Some(r);
            } else {
                self.frame_spare = Some(r);
            }
        }
    }

    /// Codes `frame` as `frame_type` into `out` (cleared first). Callers
    /// only code a `P` when a reference exists, i.e. not as the first frame
    /// after construction or a reset.
    pub(crate) fn code(&mut self, frame: &Frame, frame_type: FrameType, out: &mut Vec<u8>) {
        let mut w = BitWriter::with_buf(std::mem::take(out));
        match frame_type {
            FrameType::I => self.encode_i(frame, &mut w),
            FrameType::P => self.encode_p(frame, &mut w),
        }
        *out = w.finish();
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
        // Callers only code a P-frame when a reference exists; an empty
        // reference here would still produce a valid (if wasteful) P-frame
        // against a grey frame.
        let reference = self
            .reference
            .take()
            .unwrap_or_else(|| Frame::grey(self.resolution));
        let mut recon = self
            .recon_scratch
            .take()
            .unwrap_or_else(|| Frame::grey(self.resolution));
        let skip_thresh = (self.config.skip_threshold_per_pixel * (MB * MB) as f32) as u32;
        let range = self.config.search_range;
        self.cur_luma.pad_for_search(frame.y(), range);
        self.ref_luma.pad_for_search(reference.y(), range);

        let mb_cols = self.resolution.mb_cols();
        let mb_rows = self.resolution.mb_rows();
        for my in 0..mb_rows {
            for mx in 0..mb_cols {
                let x = mx * MB;
                let y = my * MB;
                let mr = motion::three_step_search(&self.cur_luma, &self.ref_luma, x, y, range);
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
        // The same grey frame next is a P-frame, and after a reset the
        // first frame is an I-frame again.
        assert_eq!(enc.encode_frame(&Frame::grey(res)).frame_type, FrameType::P);
        enc.reset();
        assert_eq!(enc.encode_frame(&Frame::grey(res)).frame_type, FrameType::I);
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
        let cfg = EncoderConfig {
            min_keyint: 1,
            ..EncoderConfig::new(1000, 400)
        };
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
        let cfg = EncoderConfig {
            min_keyint: 1,
            ..EncoderConfig::new(1000, 150)
        };
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
        // The scenecut rule fired, not the GOP limit: at this distance a
        // still frame stays P, and the scene change's ratio makes it I.
        let trace = RatioTrace::measure(cfg.search_range, [&background, &other]);
        assert_eq!(frame_type(Some(0.0), 6, &cfg), FrameType::P);
        assert_eq!(frame_type(trace.ratios[1], 6, &cfg), FrameType::I);
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
