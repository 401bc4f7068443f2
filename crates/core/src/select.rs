//! The unifying frame-selection layer: a session factory per policy.
//!
//! Every analysis strategy the paper compares — SiEVE's I-frame seeking,
//! uniform sampling, MSE and SIFT differencing — is ultimately a policy for
//! choosing *which frames of an encoded video get decoded and sent to the
//! NN*. The layer has two levels:
//!
//! * [`FrameSelector`] is the **session factory**: it describes a policy
//!   (its [`name`](FrameSelector::name), whether it
//!   [`requires_full_decode`](FrameSelector::requires_full_decode), its
//!   on-line [`target_rate`](FrameSelector::target_rate)) and opens
//!   streaming [`session`](FrameSelector::session)s. It holds no per-video
//!   state: every policy is on-line, and anything calibrated on a whole
//!   video (the paper's matched-sampling thresholds) is resolved by the
//!   caller before the selector is built.
//! * [`SelectorSession`] **consumes frames incrementally**: drivers call
//!   [`observe`](SelectorSession::observe) once per stream frame in
//!   ascending order with the container metadata
//!   ([`EncodedFrameMeta`]); the session answers with a [`Decision`] —
//!   `Keep`, `Drop`, or `NeedsDecode` to request the decoded pixels before
//!   deciding. Sessions hold bounded state (the MSE session keeps only the
//!   previous decoded frame), so a live edge can apply any policy without
//!   ever materialising a whole-video index vector or decode buffer.
//!
//! Every session runs inside the edge's
//! [`EdgeSession`](crate::EdgeSession), which the fleet steps per arriving
//! frame and [`analyze`](crate::analyze) and
//! [`select_indices`](crate::select_indices) step over a whole video.
//! Frames past the last one a session can possibly keep (see
//! [`SelectorSession::done`]) are never decoded at all.
//!
//! What a policy costs per frame is priced once, by the simulator, in
//! [`SelectorKind::per_frame_secs`](crate::SelectorKind::per_frame_secs).

use sieve_video::{EncodedFrame, Frame, FrameType};

use crate::error::SieveError;

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
    // lint:allow(dead-pub): tests/proptests.rs steps sessions by hand over in-memory frames
    pub fn of(frame: &EncodedFrame) -> Self {
        Self {
            frame_type: frame.frame_type,
            payload_len: frame.data.len(),
        }
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
    /// of the stream, or an invalid on-line target rate).
    ///
    /// # Errors
    ///
    /// Implementation-specific; the default succeeds.
    fn finish(&mut self) -> Result<(), SieveError> {
        Ok(())
    }
}

/// A policy choosing which frames of an encoded video to analyse.
///
/// Implementations provide [`session`](Self::session) and
/// [`name`](Self::name), plus [`requires_full_decode`](Self::requires_full_decode)
/// and [`target_rate`](Self::target_rate) where the defaults do not fit.
pub trait FrameSelector {
    /// Short name used in tables and reports ("sieve", "uniform", "mse").
    fn name(&self) -> &'static str;

    /// Whether the policy must run the full (expensive) stateful decoder
    /// over every frame to reach the ones it keeps. `false` only for
    /// policies that operate on container metadata and decode survivors
    /// independently, like I-frame seeking — the cost asymmetry at the
    /// heart of the paper. Sessions of metadata-only policies may only
    /// `Keep` or `NeedsDecode` frames that decode independently
    /// (I-frames); the edge fails any other frame they do not drop.
    fn requires_full_decode(&self) -> bool {
        true
    }

    /// The sampling rate this policy targets *on-line*, if it has one
    /// (an adaptive rate budget). Serving runtimes report achieved vs.
    /// target rate from this. Defaults to `None` (no on-line target).
    fn target_rate(&self) -> Option<f64> {
        None
    }

    /// Opens a fresh streaming session applying this policy from the next
    /// frame it observes.
    fn session(&self) -> Box<dyn SelectorSession>;
}

/// SiEVE's selection policy: keep exactly the I-frames, deciding from the
/// container metadata alone and decoding survivors independently.
///
/// ```
/// use sieve_core::{select_indices, FrameSelector, IFrameSelector};
/// use sieve_video::{EncodedVideo, EncoderConfig, Frame, Resolution};
///
/// let res = Resolution::new(32, 32);
/// let video = EncodedVideo::encode(res, 30, EncoderConfig::new(3, 0),
///                                  (0..7).map(|_| Frame::grey(res)));
/// let sel = IFrameSelector::new();
/// assert!(!sel.requires_full_decode());
/// assert_eq!(select_indices(&video, &sel).unwrap(), vec![0, 3, 6]);
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
    // lint:allow(dead-pub): tests/live_pipeline.rs holds live selection to offline selection with it
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

/// A session that breaks the observe contract: it demands pixels again
/// after the driver supplied them. Every driver must reject it.
#[cfg(test)]
pub(crate) struct GreedySession;

#[cfg(test)]
impl SelectorSession for GreedySession {
    fn observe(
        &mut self,
        _index: usize,
        _meta: &EncodedFrameMeta,
        _frame: Option<&Frame>,
    ) -> Decision {
        Decision::NeedsDecode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{drive_edge, select_indices};
    use sieve_video::{EncodedVideo, EncoderConfig, Resolution};

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

    /// The `(index, pixels)` pairs `sel` keeps on `v`.
    fn picked(
        sel: &impl FrameSelector,
        v: &EncodedVideo,
    ) -> Result<Vec<(usize, Frame)>, SieveError> {
        let mut out = Vec::new();
        drive_edge(v, sel, |i, frame| out.push((i, frame)))?;
        Ok(out)
    }

    #[test]
    fn iframe_selector_matches_seeker() {
        let v = video(4, 12);
        let sel = IFrameSelector::new();
        assert_eq!(select_indices(&v, &sel).unwrap(), v.i_frame_indices());
        let picked = picked(&sel, &v).unwrap();
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
        let sel = FixedSelector::new(vec![0, 3, 99]);
        assert!(matches!(
            select_indices(&v, &sel),
            Err(SieveError::InvalidSelection { index: 99, .. })
        ));
        assert!(picked(&sel, &v).is_err());
        let ok = FixedSelector::new(vec![0, 5]);
        assert_eq!(picked(&ok, &v).unwrap().len(), 2);
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
        let picks = picked(&FixedSelector::new(vec![0, 5]), &v)
            .expect("selection stops before the corrupt tail");
        assert_eq!(picks.len(), 2);
        assert_eq!(
            picked(&FixedSelector::new(Vec::new()), &v).unwrap(),
            Vec::new()
        );
        assert!(
            picked(&FixedSelector::new(vec![8]), &v).is_err(),
            "reaching past the corruption still fails"
        );
    }

    #[test]
    fn dyn_box_dispatch_works() {
        let v = video(3, 9);
        let boxed: Box<dyn FrameSelector> = Box::new(IFrameSelector::new());
        assert_eq!(boxed.name(), "sieve");
        assert!(!boxed.requires_full_decode());
        assert_eq!(select_indices(&v, boxed.as_ref()).unwrap(), vec![0, 3, 6]);
    }
}
