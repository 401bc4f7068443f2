//! The unifying frame-selection layer: streaming sessions and trait-owned
//! cost models.
//!
//! Every analysis strategy the paper compares — SiEVE's I-frame seeking,
//! uniform sampling, MSE and SIFT differencing — is ultimately a policy for
//! choosing *which frames of an encoded video get decoded and sent to the
//! NN*. The layer has two levels:
//!
//! * [`FrameSelector`] is the **factory plus metadata**: it describes a
//!   policy (its [`name`](FrameSelector::name), whether it
//!   [`requires_full_decode`](FrameSelector::requires_full_decode), its
//!   per-frame [`cost_model`](FrameSelector::cost_model)) and opens
//!   streaming [`session`](FrameSelector::session)s. Policies whose
//!   parameters depend on whole-video statistics (fraction-calibrated
//!   thresholds) resolve them in [`prepare`](FrameSelector::prepare).
//! * [`SelectorSession`] **consumes frames incrementally**: drivers call
//!   [`observe`](SelectorSession::observe) once per stream frame in
//!   ascending order with the container metadata
//!   ([`EncodedFrameMeta`]); the session answers with a [`Decision`] —
//!   `Keep`, `Drop`, or `NeedsDecode` to request the decoded pixels before
//!   deciding. Sessions hold bounded state (the MSE session keeps only the
//!   previous decoded frame), so a live edge can apply any policy without
//!   ever materialising a whole-video index vector or decode buffer.
//!
//! The batch entry points ([`select`](FrameSelector::select),
//! [`select_indices`](FrameSelector::select_indices),
//! [`select_with`](FrameSelector::select_with)) are thin default wrappers
//! that drive one session over the whole video, decoding lazily: frames
//! past the last one a session can possibly keep (see
//! [`SelectorSession::done`]) are never decoded at all.
//!
//! Costs are owned by the trait too: [`SelectorCost`] names which measured
//! per-frame primitives (metadata scan, full stream decode, pairwise
//! compare, independent I-frame decode) a policy pays, and the tandem-queue
//! simulator in [`crate::pipeline`] charges exactly
//! [`SelectorCost::per_frame_secs`] — one cost source for the simulator and
//! the live path. [`FrameSelector::calibrate`] /
//! [`FrameSelector::calibrate_fractions`] batch a whole threshold sweep
//! into one scoring pass (Fig 3's one-decode calibration).

use sieve_video::{Decoder, EncodedFrame, EncodedVideo, Frame, FrameType};

use crate::error::SieveError;
use crate::pipeline::WorkloadCosts;

/// What a [`SelectorSession`] wants done with one observed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Decode (if not already decoded) and analyse this frame.
    Keep,
    /// Skip this frame.
    Drop,
    /// The policy cannot decide from metadata alone: supply the decoded
    /// pixels via a second [`SelectorSession::observe`] call for the same
    /// index. The second call must return [`Decision::Keep`] or
    /// [`Decision::Drop`].
    NeedsDecode,
}

/// Container metadata for one frame — everything a selection policy can see
/// without decoding the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedFrameMeta {
    /// Frame type (I or P) from the container index.
    pub frame_type: FrameType,
    /// Encoded payload size in bytes.
    pub payload_len: usize,
}

impl EncodedFrameMeta {
    /// The metadata of an in-memory encoded frame.
    pub fn of(frame: &EncodedFrame) -> Self {
        Self {
            frame_type: frame.frame_type,
            payload_len: frame.data.len(),
        }
    }
}

/// The per-frame cost shape of a selection policy: which measured
/// primitives (see [`WorkloadCosts`]) the selecting tier pays for one
/// stream frame. Owned by [`FrameSelector::cost_model`], consumed by the
/// deployment simulator — the single source both share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectorCost {
    /// Scans the container metadata of every stream frame (the I-frame
    /// seeker's per-frame work).
    pub metadata_scan: bool,
    /// Runs the full stateful decoder over every stream frame (P-frames
    /// chain, so pixel policies pay this even for frames they drop).
    pub full_decode: bool,
    /// Computes one pairwise change score per stream frame (MSE/SIFT
    /// differencing).
    pub pairwise_compare: bool,
    /// Analysed frames are decoded independently (JPEG-style I-frame
    /// decode) instead of falling out of the full stream decode.
    pub independent_decode: bool,
}

impl SelectorCost {
    /// Metadata-driven seeking: scan every frame's metadata, independently
    /// decode only the analysed ones — the cost asymmetry at the heart of
    /// the paper.
    pub const fn metadata_seek() -> Self {
        Self {
            metadata_scan: true,
            full_decode: false,
            pairwise_compare: false,
            independent_decode: true,
        }
    }

    /// Classical pipeline: full-decode every stream frame.
    pub const fn full_stream_decode() -> Self {
        Self {
            metadata_scan: false,
            full_decode: true,
            pairwise_compare: false,
            independent_decode: false,
        }
    }

    /// Adds a per-frame pairwise comparison (change-detector baselines).
    pub const fn with_pairwise_compare(mut self) -> Self {
        self.pairwise_compare = true;
        self
    }

    /// Seconds of selection work one stream frame costs on the reference
    /// machine described by `costs`; `analysed` frames additionally pay the
    /// independent decode (if any) and the resize to the NN input.
    pub fn per_frame_secs(&self, costs: &WorkloadCosts, analysed: bool) -> f64 {
        let mut secs = 0.0;
        if self.metadata_scan {
            secs += costs.seek_per_frame;
        }
        if self.full_decode {
            secs += costs.full_decode_per_frame;
        }
        if self.pairwise_compare {
            secs += costs.mse_per_pair;
        }
        if analysed {
            if self.independent_decode {
                secs += costs.iframe_decode;
            }
            secs += costs.resize_to_nn;
        }
        secs
    }
}

/// One streaming pass of a selection policy over a frame sequence.
///
/// Drivers observe every frame of the stream exactly once, in ascending
/// index order, stopping early only once [`SelectorSession::done`] returns
/// true. Sessions own their state ([`FrameSelector::session`] returns a
/// `'static` box), so they can move into pipeline stage threads.
pub trait SelectorSession: Send {
    /// Observes frame `index`. `frame` is `None` on the first, metadata-only
    /// call; if the session answers [`Decision::NeedsDecode`], the driver
    /// decodes the frame and calls `observe` again for the same index with
    /// `Some(pixels)`, and that second call must decide `Keep` or `Drop`.
    ///
    /// Policies that never inspect pixels (metadata seeking, fixed and
    /// uniform sampling) decide on the first call and hold no decoded
    /// frames at all.
    fn observe(&mut self, index: usize, meta: &EncodedFrameMeta, frame: Option<&Frame>)
        -> Decision;

    /// True once no future frame can be kept; drivers may stop observing
    /// (and decoding) early. Defaults to `false` (policies that can keep
    /// any frame until the end of the stream).
    fn done(&self) -> bool {
        false
    }

    /// End-of-stream hook: flush trailing state and surface deferred
    /// failures (e.g. a fixed selection that referenced frames past the end
    /// of the stream, or a fraction budget streamed without
    /// [`FrameSelector::prepare`]).
    ///
    /// # Errors
    ///
    /// Implementation-specific; the default succeeds.
    fn finish(&mut self) -> Result<(), SieveError> {
        Ok(())
    }
}

/// One operating point of a batched threshold sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationPoint {
    /// The requested operating point, exactly as passed in (an absolute
    /// threshold for [`FrameSelector::calibrate`], a target sampling
    /// fraction for [`FrameSelector::calibrate_fractions`]).
    pub target: f64,
    /// The absolute change-score threshold this point resolved to.
    /// Threshold-free policies echo `target` here.
    pub threshold: f64,
    /// Frame indices selected at this operating point.
    pub selected: Vec<usize>,
}

/// The result of a batched calibration sweep: one scoring pass over the
/// video, one [`CalibrationPoint`] per requested operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationCurve {
    /// Points in the order the operating points were requested.
    pub points: Vec<CalibrationPoint>,
}

/// A policy choosing which frames of an encoded video to analyse.
///
/// Implementations provide the factory and metadata methods
/// ([`session`](Self::session), [`cost_model`](Self::cost_model),
/// [`requires_full_decode`](Self::requires_full_decode), optionally
/// [`prepare`](Self::prepare)); the batch entry points are default
/// wrappers that drive one session over the whole video.
pub trait FrameSelector {
    /// Short name used in tables and reports ("sieve", "uniform", "mse").
    fn name(&self) -> &'static str;

    /// Whether the policy must run the full (expensive) stateful decoder
    /// over every frame to reach the ones it keeps. `false` only for
    /// policies that operate on container metadata and decode survivors
    /// independently, like I-frame seeking — the cost asymmetry at the
    /// heart of the paper. Sessions of metadata-only policies may only
    /// `Keep` or `NeedsDecode` frames that decode independently
    /// (I-frames).
    fn requires_full_decode(&self) -> bool {
        true
    }

    /// The per-frame cost shape the selecting tier pays for this policy.
    /// The deployment simulator charges exactly this model. Defaults to the
    /// classical full-stream-decode shape, matching the
    /// [`requires_full_decode`](Self::requires_full_decode) default.
    fn cost_model(&self) -> SelectorCost {
        SelectorCost::full_stream_decode()
    }

    /// The sampling rate this policy targets *on-line*, if it has one
    /// (an adaptive rate budget). Serving runtimes report achieved vs.
    /// target rate from this. Defaults to `None` (no on-line target).
    fn target_rate(&self) -> Option<f64> {
        None
    }

    /// Resolves whole-video parameters before streaming — e.g. a
    /// fraction-calibrated threshold that needs the video's score
    /// distribution. On-line policies do nothing. The batch wrappers and
    /// the live driver call this once per video before opening sessions;
    /// anyone driving sessions by hand must do the same.
    ///
    /// # Errors
    ///
    /// Policy-specific: invalid budgets, failed calibration decodes.
    fn prepare(&mut self, video: &EncodedVideo) -> Result<(), SieveError> {
        let _ = video;
        Ok(())
    }

    /// Opens a fresh streaming session applying this policy from the next
    /// frame it observes.
    fn session(&self) -> Box<dyn SelectorSession>;

    /// Chooses frames from `video`, returning `(frame index, decoded
    /// frame)` pairs in ascending index order. Default: drives one session,
    /// decoding lazily up to the last kept frame.
    ///
    /// # Errors
    ///
    /// Returns a [`SieveError`] if decoding fails or the policy cannot be
    /// applied to this video.
    fn select(&mut self, video: &EncodedVideo) -> Result<Vec<(usize, Frame)>, SieveError> {
        let mut out = Vec::new();
        self.select_with(video, &mut |i, frame| {
            out.push((i, frame.clone()));
            Ok(())
        })?;
        Ok(out)
    }

    /// Chooses frame indices only. Default: drives one session without
    /// materialising pixels for kept frames — for metadata-driven policies
    /// this is a pure metadata scan with no decoding at all, and pixel
    /// policies decode only the frames their sessions ask for.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`FrameSelector::select`].
    fn select_indices(&mut self, video: &EncodedVideo) -> Result<Vec<usize>, SieveError> {
        self.prepare(video)?;
        let mut session = self.session();
        let mut out = Vec::new();
        drive_session(
            video,
            session.as_mut(),
            self.requires_full_decode(),
            false,
            &mut |i, _| {
                out.push(i);
                Ok(())
            },
        )?;
        Ok(out)
    }

    /// Streams the selection through `visit` one decoded frame at a time,
    /// in ascending index order, holding at most one decoded frame of
    /// driver state at once.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`FrameSelector::select`], plus whatever
    /// `visit` returns.
    fn select_with(
        &mut self,
        video: &EncodedVideo,
        visit: &mut dyn FnMut(usize, &Frame) -> Result<(), SieveError>,
    ) -> Result<(), SieveError> {
        self.prepare(video)?;
        let mut session = self.session();
        drive_session(
            video,
            session.as_mut(),
            self.requires_full_decode(),
            true,
            &mut |i, frame| visit(i, frame.expect("driver supplies pixels for kept frames")),
        )
    }

    /// Sweeps a batch of absolute thresholds in one pass: threshold
    /// policies score the video once and apply every threshold in memory.
    /// The default covers threshold-free policies, which select the same
    /// frames at every operating point (one selection pass, replicated).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`FrameSelector::select`].
    fn calibrate(
        &mut self,
        video: &EncodedVideo,
        thresholds: &[f64],
    ) -> Result<CalibrationCurve, SieveError> {
        let selected = self.select_indices(video)?;
        Ok(CalibrationCurve {
            points: thresholds
                .iter()
                .map(|&t| CalibrationPoint {
                    target: t,
                    threshold: t,
                    selected: selected.clone(),
                })
                .collect(),
        })
    }

    /// Sweeps a batch of target sampling fractions in one pass: threshold
    /// policies score once, resolve each fraction to an absolute threshold
    /// and apply it in memory — Fig 3's one-decode calibration. The default
    /// covers threshold-free policies (same selection at every point).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`FrameSelector::select`], plus invalid
    /// fractions for policies that resolve them.
    fn calibrate_fractions(
        &mut self,
        video: &EncodedVideo,
        fractions: &[f64],
    ) -> Result<CalibrationCurve, SieveError> {
        self.calibrate(video, fractions)
    }
}

/// The sink a session drive feeds: kept index plus pixels when requested.
type EmitFn<'a> = dyn FnMut(usize, Option<&Frame>) -> Result<(), SieveError> + 'a;

/// Drives `session` over every frame of `video` in order, decoding lazily.
///
/// `full_decode` selects the pixel source (stateful stream decoder vs
/// independent I-frame decode); `want_pixels` controls whether kept frames
/// are decoded when the session did not already request pixels. Frames past
/// [`SelectorSession::done`] are neither observed nor decoded.
fn drive_session(
    video: &EncodedVideo,
    session: &mut dyn SelectorSession,
    full_decode: bool,
    want_pixels: bool,
    emit: &mut EmitFn,
) -> Result<(), SieveError> {
    let mut decoder = LazyDecoder::new(video);
    for (i, ef) in video.frames().iter().enumerate() {
        if session.done() {
            break;
        }
        let meta = EncodedFrameMeta::of(ef);
        match session.observe(i, &meta, None) {
            Decision::Drop => {}
            Decision::Keep => {
                if want_pixels {
                    let frame = decoder.decode(i, full_decode)?;
                    emit(i, Some(&frame))?;
                } else {
                    emit(i, None)?;
                }
            }
            Decision::NeedsDecode => {
                let frame = decoder.decode(i, full_decode)?;
                match session.observe(i, &meta, Some(&frame)) {
                    Decision::Keep => emit(i, want_pixels.then_some(&frame))?,
                    Decision::Drop => {}
                    Decision::NeedsDecode => {
                        return Err(SieveError::selector(format!(
                            "session demanded pixels for frame {i} twice"
                        )))
                    }
                }
            }
        }
    }
    session.finish()
}

/// Sequential decoder that only runs forward to the frames actually
/// requested: the tail of a stream past the last kept frame is never
/// decoded, and metadata-only passes decode nothing.
struct LazyDecoder<'v> {
    video: &'v EncodedVideo,
    decoder: Decoder,
    next: usize,
}

impl<'v> LazyDecoder<'v> {
    fn new(video: &'v EncodedVideo) -> Self {
        Self {
            video,
            decoder: Decoder::new(video.resolution(), video.quality()),
            next: 0,
        }
    }

    /// The decoded frame at `index`: independently for the metadata path,
    /// via the stateful stream decoder (advancing through any undecoded
    /// predecessors) otherwise.
    fn decode(&mut self, index: usize, full_decode: bool) -> Result<Frame, SieveError> {
        if !full_decode {
            return Ok(self.video.decode_iframe_at(index)?);
        }
        if self.next > index {
            return Err(SieveError::selector(format!(
                "frame {index} requested out of stream order"
            )));
        }
        // Advance through undecoded predecessors without materialising them;
        // only the requested frame is cloned out of the decoder's buffers.
        while self.next < index {
            self.decoder.decode_next(&self.video.frames()[self.next])?;
            self.next += 1;
        }
        let frame = self.decoder.decode_next(&self.video.frames()[index])?;
        self.next = index + 1;
        Ok(frame.clone())
    }
}

impl<S: FrameSelector + ?Sized> FrameSelector for &mut S {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn requires_full_decode(&self) -> bool {
        (**self).requires_full_decode()
    }

    fn cost_model(&self) -> SelectorCost {
        (**self).cost_model()
    }

    fn target_rate(&self) -> Option<f64> {
        (**self).target_rate()
    }

    fn prepare(&mut self, video: &EncodedVideo) -> Result<(), SieveError> {
        (**self).prepare(video)
    }

    fn session(&self) -> Box<dyn SelectorSession> {
        (**self).session()
    }

    fn select(&mut self, video: &EncodedVideo) -> Result<Vec<(usize, Frame)>, SieveError> {
        (**self).select(video)
    }

    fn select_indices(&mut self, video: &EncodedVideo) -> Result<Vec<usize>, SieveError> {
        (**self).select_indices(video)
    }

    fn select_with(
        &mut self,
        video: &EncodedVideo,
        visit: &mut dyn FnMut(usize, &Frame) -> Result<(), SieveError>,
    ) -> Result<(), SieveError> {
        (**self).select_with(video, visit)
    }

    fn calibrate(
        &mut self,
        video: &EncodedVideo,
        thresholds: &[f64],
    ) -> Result<CalibrationCurve, SieveError> {
        (**self).calibrate(video, thresholds)
    }

    fn calibrate_fractions(
        &mut self,
        video: &EncodedVideo,
        fractions: &[f64],
    ) -> Result<CalibrationCurve, SieveError> {
        (**self).calibrate_fractions(video, fractions)
    }
}

impl FrameSelector for Box<dyn FrameSelector + '_> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn requires_full_decode(&self) -> bool {
        (**self).requires_full_decode()
    }

    fn cost_model(&self) -> SelectorCost {
        (**self).cost_model()
    }

    fn target_rate(&self) -> Option<f64> {
        (**self).target_rate()
    }

    fn prepare(&mut self, video: &EncodedVideo) -> Result<(), SieveError> {
        (**self).prepare(video)
    }

    fn session(&self) -> Box<dyn SelectorSession> {
        (**self).session()
    }

    fn select(&mut self, video: &EncodedVideo) -> Result<Vec<(usize, Frame)>, SieveError> {
        (**self).select(video)
    }

    fn select_indices(&mut self, video: &EncodedVideo) -> Result<Vec<usize>, SieveError> {
        (**self).select_indices(video)
    }

    fn select_with(
        &mut self,
        video: &EncodedVideo,
        visit: &mut dyn FnMut(usize, &Frame) -> Result<(), SieveError>,
    ) -> Result<(), SieveError> {
        (**self).select_with(video, visit)
    }

    fn calibrate(
        &mut self,
        video: &EncodedVideo,
        thresholds: &[f64],
    ) -> Result<CalibrationCurve, SieveError> {
        (**self).calibrate(video, thresholds)
    }

    fn calibrate_fractions(
        &mut self,
        video: &EncodedVideo,
        fractions: &[f64],
    ) -> Result<CalibrationCurve, SieveError> {
        (**self).calibrate_fractions(video, fractions)
    }
}

/// SiEVE's selection policy: keep exactly the I-frames, deciding from the
/// container metadata alone and decoding survivors independently.
///
/// ```
/// use sieve_core::{FrameSelector, IFrameSelector};
/// use sieve_video::{EncodedVideo, EncoderConfig, Frame, Resolution};
///
/// let res = Resolution::new(32, 32);
/// let video = EncodedVideo::encode(res, 30, EncoderConfig::new(3, 0),
///                                  (0..7).map(|_| Frame::grey(res)));
/// let mut sel = IFrameSelector::new();
/// assert!(!sel.requires_full_decode());
/// assert_eq!(sel.select_indices(&video).unwrap(), vec![0, 3, 6]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IFrameSelector;

impl IFrameSelector {
    /// Creates the selector (stateless).
    pub fn new() -> Self {
        Self
    }
}

impl FrameSelector for IFrameSelector {
    fn name(&self) -> &'static str {
        "sieve"
    }

    fn requires_full_decode(&self) -> bool {
        false
    }

    fn cost_model(&self) -> SelectorCost {
        SelectorCost::metadata_seek()
    }

    fn session(&self) -> Box<dyn SelectorSession> {
        Box::new(IFrameSession)
    }
}

/// The streaming side of [`IFrameSelector`]: keep I-frames, drop P-frames,
/// never touch pixels.
struct IFrameSession;

impl SelectorSession for IFrameSession {
    fn observe(
        &mut self,
        _index: usize,
        meta: &EncodedFrameMeta,
        _frame: Option<&Frame>,
    ) -> Decision {
        if meta.frame_type == FrameType::I {
            Decision::Keep
        } else {
            Decision::Drop
        }
    }
}

/// A fixed, precomputed selection adapted to the generic driver (stored
/// results, hand-picked frames). Streams the stateful decoder only up to
/// the largest requested index — an empty selection decodes nothing.
#[derive(Debug, Clone)]
pub struct FixedSelector {
    indices: Vec<usize>,
}

impl FixedSelector {
    /// Selects exactly `indices` (sorted and deduplicated; indices must be
    /// in range at selection time or selection errors).
    pub fn new(mut indices: Vec<usize>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        Self { indices }
    }
}

impl FrameSelector for FixedSelector {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn session(&self) -> Box<dyn SelectorSession> {
        Box::new(FixedSession {
            indices: self.indices.clone(),
            cursor: 0,
            observed: 0,
        })
    }
}

/// The streaming side of [`FixedSelector`]: walk the sorted index list in
/// lockstep with the stream, report `done` once it is exhausted (so drivers
/// stop decoding), and surface out-of-range indices in `finish`.
struct FixedSession {
    indices: Vec<usize>,
    cursor: usize,
    observed: usize,
}

impl SelectorSession for FixedSession {
    fn observe(
        &mut self,
        index: usize,
        _meta: &EncodedFrameMeta,
        _frame: Option<&Frame>,
    ) -> Decision {
        self.observed = self.observed.max(index + 1);
        if self.indices.get(self.cursor) == Some(&index) {
            self.cursor += 1;
            Decision::Keep
        } else {
            Decision::Drop
        }
    }

    fn done(&self) -> bool {
        self.cursor == self.indices.len()
    }

    fn finish(&mut self) -> Result<(), SieveError> {
        match self.indices.get(self.cursor) {
            Some(&unreached) => Err(SieveError::InvalidSelection {
                index: unreached,
                frame_count: self.observed,
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_video::{EncoderConfig, Resolution};

    fn video(gop: usize, frames: usize) -> EncodedVideo {
        let res = Resolution::new(48, 32);
        EncodedVideo::encode(
            res,
            30,
            EncoderConfig::new(gop, 0),
            (0..frames).map(move |i| {
                let mut f = Frame::grey(res);
                for y in 0..32usize {
                    for x in 0..48usize {
                        f.y_mut().put(x, y, ((x * 3 + y * 7 + i) % 230) as u8);
                    }
                }
                f
            }),
        )
    }

    #[test]
    fn iframe_selector_matches_seeker() {
        let v = video(4, 12);
        let mut sel = IFrameSelector::new();
        assert_eq!(sel.select_indices(&v).unwrap(), v.i_frame_indices());
        let picked = sel.select(&v).unwrap();
        assert_eq!(picked.len(), 3);
        for (i, f) in &picked {
            assert_eq!(*f, v.decode_iframe_at(*i).unwrap());
        }
    }

    #[test]
    fn iframe_session_is_metadata_only() {
        let v = video(3, 9);
        let mut session = IFrameSelector::new().session();
        let mut kept = Vec::new();
        for (i, ef) in v.frames().iter().enumerate() {
            match session.observe(i, &EncodedFrameMeta::of(ef), None) {
                Decision::Keep => kept.push(i),
                Decision::Drop => {}
                Decision::NeedsDecode => panic!("metadata policy requested pixels"),
            }
        }
        session.finish().unwrap();
        assert_eq!(kept, v.i_frame_indices());
    }

    #[test]
    fn fixed_selector_range_checked() {
        let v = video(4, 8);
        let mut sel = FixedSelector::new(vec![0, 3, 99]);
        assert!(matches!(
            sel.select_indices(&v),
            Err(SieveError::InvalidSelection { index: 99, .. })
        ));
        assert!(sel.select(&v).is_err());
        let mut ok = FixedSelector::new(vec![0, 5]);
        assert_eq!(ok.select(&v).unwrap().len(), 2);
    }

    #[test]
    fn fixed_selector_decodes_only_the_needed_prefix() {
        // A corrupt tail frame: any path that decodes the whole stream
        // errors, but a fixed selection that stops earlier must succeed.
        let good = video(4, 8);
        let mut v = EncodedVideo::new(good.resolution(), good.fps(), good.quality());
        for ef in good.frames() {
            v.push(sieve_video::EncodedFrame {
                frame_type: ef.frame_type,
                data: ef.data.clone(),
            });
        }
        v.push(sieve_video::EncodedFrame {
            frame_type: FrameType::P,
            data: [].into(),
        });
        assert!(
            v.decode_all().is_err(),
            "corrupt tail must break full decode"
        );
        let mut sel = FixedSelector::new(vec![0, 5]);
        let picked = sel
            .select(&v)
            .expect("selection stops before the corrupt tail");
        assert_eq!(picked.len(), 2);
        let mut empty = FixedSelector::new(Vec::new());
        assert_eq!(empty.select(&v).unwrap(), Vec::new());
        assert!(
            FixedSelector::new(vec![8]).select(&v).is_err(),
            "reaching past the corruption still fails"
        );
    }

    #[test]
    fn cost_models_reproduce_paper_asymmetry() {
        let costs = WorkloadCosts {
            seek_per_frame: 0.5e-6,
            iframe_decode: 2.0e-3,
            full_decode_per_frame: 8.0e-3,
            mse_per_pair: 4.0e-3,
            resize_to_nn: 0.5e-3,
            nn_inference: 10.0e-3,
        };
        let seek = SelectorCost::metadata_seek();
        let full = SelectorCost::full_stream_decode();
        let compare = SelectorCost::full_stream_decode().with_pairwise_compare();
        // Unanalysed frames: seeking pays only the metadata scan.
        assert!(seek.per_frame_secs(&costs, false) < 1e-5);
        assert!((full.per_frame_secs(&costs, false) - 8.0e-3).abs() < 1e-12);
        assert!((compare.per_frame_secs(&costs, false) - 12.0e-3).abs() < 1e-12);
        // Analysed frames: seeking adds the independent decode + resize.
        assert!((seek.per_frame_secs(&costs, true) - (0.5e-6 + 2.0e-3 + 0.5e-3)).abs() < 1e-12);
        assert!(seek.per_frame_secs(&costs, true) < full.per_frame_secs(&costs, true));
    }

    #[test]
    fn default_calibrate_replicates_threshold_free_selection() {
        let v = video(3, 9);
        let mut sel = IFrameSelector::new();
        let curve = sel.calibrate(&v, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(curve.points.len(), 3);
        for p in &curve.points {
            assert_eq!(p.selected, v.i_frame_indices());
        }
    }

    #[test]
    fn dyn_box_dispatch_works() {
        let v = video(3, 9);
        let mut boxed: Box<dyn FrameSelector> = Box::new(IFrameSelector::new());
        assert_eq!(boxed.name(), "sieve");
        assert_eq!(boxed.select_indices(&v).unwrap(), vec![0, 3, 6]);
        assert_eq!(boxed.cost_model(), SelectorCost::metadata_seek());
    }
}
