//! The per-stream edge decision: one streaming selection session plus
//! exactly the decode machinery its policy needs.
//!
//! Where [`crate::pipeline`] *simulates* a deployment from calibrated
//! costs, an [`EdgeSession`] is what a live edge actually runs per arriving
//! frame: it drives any [`FrameSelector`]'s streaming [`SelectorSession`]
//! *in place* — observing each frame's metadata as it arrives, decoding
//! only when the policy asks, keeping or dropping on the spot. Nothing
//! else steps a [`SelectorSession`]: the `sieve-fleet` scheduler owns
//! one per stream, the umbrella crate's `run_live_analysis` is a one-stream
//! fleet, and [`analyze`](crate::analyze) and
//! [`select_indices`](crate::select_indices) step one over a whole encoded
//! video.
//!
//! No whole-video pre-pass: the edge never materialises the full index
//! vector or a full decode buffer. Lookahead is bounded by the session's
//! own state (at most one previous decoded frame for the pixel-differencing
//! policies, none for metadata policies). A metadata policy may keep only
//! I-frames; a P-frame it does not drop fails before any decode. Decode
//! failures, and a session that breaks the observe contract, surface as
//! the typed [`EdgeOutcome::Failed`], distinct from policy drops, and fail
//! the whole run in [`analyze`](crate::analyze).

use sieve_video::{DecodeError, Decoder, Frame, FrameType, Resolution};

use crate::error::SieveError;
use crate::select::{Decision, EncodedFrameMeta, FrameSelector, SelectorSession};

/// What the edge decided about one arriving encoded frame.
#[derive(Debug)]
pub enum EdgeOutcome {
    /// The policy kept the frame; here are its decoded pixels.
    Kept(Frame),
    /// The policy dropped the frame (filtering — a policy decision).
    Dropped,
    /// The frame could not be processed: it failed to decode, or the
    /// session broke the observe contract by demanding pixels it had
    /// already been given (a processing failure, not a drop).
    Failed,
}

/// One stream's worth of edge-side state: a streaming selection session
/// plus exactly the decode machinery its policy needs. This is the *single*
/// implementation of the per-frame edge decision — the `sieve-fleet`
/// scheduler opens one per stream when the stream joins, every live run is
/// a fleet, and [`analyze`](crate::analyze) steps one over a whole video.
///
/// State is bounded by construction: one stream decoder, whose quant tables
/// sit inline and whose frame buffers are allocated on its first decode
/// (only pixel policies decode through it), plus whatever the session
/// itself holds (at most one previous decoded frame) — never a whole-video
/// decode buffer or index vector.
pub struct EdgeSession {
    session: Box<dyn SelectorSession>,
    full_decode: bool,
    decoder: Decoder,
}

impl std::fmt::Debug for EdgeSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeSession")
            .field("full_decode", &self.full_decode)
            .field("resolution", &self.decoder.resolution())
            .finish()
    }
}

impl EdgeSession {
    /// Opens a fresh edge session for `selector` on a stream of
    /// `resolution`/`quality` frames. Every policy is on-line (metadata
    /// seeking, absolute thresholds, `Budget::TargetRate` adaptation), which
    /// is what lets a fleet open sessions for streams it will never see in
    /// full.
    pub fn open<S: FrameSelector + ?Sized>(
        selector: &S,
        resolution: Resolution,
        quality: u8,
    ) -> Self {
        Self {
            session: selector.session(),
            full_decode: selector.requires_full_decode(),
            decoder: Decoder::new(resolution, quality),
        }
    }

    /// Observes the next arriving frame (ascending `index` per stream) and
    /// returns the edge decision; a frame that fails to decode, and a
    /// session that breaks the observe contract, fail the frame
    /// ([`EdgeOutcome::Failed`]). The payload is only read, so a caller
    /// that still needs it afterwards (the fleet's keep sink ships a kept
    /// frame's encoded payload) lends it instead of cloning every frame up
    /// front.
    pub fn observe(
        &mut self,
        index: usize,
        frame_type: FrameType,
        payload: impl AsRef<[u8]>,
    ) -> EdgeOutcome {
        match self.step(index, frame_type, payload.as_ref()) {
            Ok(Some(frame)) => EdgeOutcome::Kept(frame),
            Ok(None) => EdgeOutcome::Dropped,
            Err(_) => EdgeOutcome::Failed,
        }
    }

    /// The edge decision on one frame, with its failure typed: the kept
    /// frame's pixels, `None` for a drop. Pixel policies advance the
    /// stateful decoder through every frame (P-frames chain); metadata
    /// policies decide first and independently decode survivors only.
    ///
    /// # Errors
    ///
    /// The decode error of a frame that does not decode, including
    /// [`DecodeError::NotAnIFrame`] for a P-frame a metadata policy does
    /// not drop, or [`SieveError::Selector`] for a session that demands
    /// pixels it has already been given.
    pub(crate) fn step(
        &mut self,
        index: usize,
        frame_type: FrameType,
        payload: &[u8],
    ) -> Result<Option<Frame>, SieveError> {
        let meta = EncodedFrameMeta {
            frame_type,
            payload_len: payload.len(),
        };
        if self.session.done() {
            return Ok(None);
        }
        if self.full_decode {
            // Decode unconditionally: P-frames chain, so the decoder state
            // must advance even through dropped frames. The decoder recycles
            // its frame buffers across the stream; only kept frames are
            // cloned out.
            let frame = self.decoder.decode_next_bytes(frame_type, payload)?;
            let decision = match self.session.observe(index, &meta, None) {
                Decision::NeedsDecode => self.session.observe(index, &meta, Some(frame)),
                d => d,
            };
            return kept(index, decision, || frame.clone());
        }
        // Metadata path: decide first, decode survivors only, and only
        // survivors that decode independently. A survivor decodes into a
        // fresh frame that the keep hands over, so the stream decoder never
        // allocates its frame buffers here.
        let first = self.session.observe(index, &meta, None);
        if first == Decision::Drop {
            return Ok(None);
        }
        if frame_type != FrameType::I {
            return Err(DecodeError::NotAnIFrame.into());
        }
        let frame =
            Decoder::decode_iframe(self.decoder.resolution(), self.decoder.quality(), payload)?;
        let decision = match first {
            Decision::NeedsDecode => self.session.observe(index, &meta, Some(&frame)),
            d => d,
        };
        kept(index, decision, || frame)
    }

    /// End-of-stream hook: flushes the session and surfaces any deferred
    /// policy failure (see [`SelectorSession::finish`]).
    ///
    /// # Errors
    ///
    /// Whatever the underlying session's `finish` reports.
    pub fn finish(&mut self) -> Result<(), SieveError> {
        self.session.finish()
    }
}

/// The pixels of frame `index` if a session's last word on it keeps it. A
/// session that still answers `NeedsDecode` once it has the pixels broke
/// the observe contract.
fn kept(
    index: usize,
    decision: Decision,
    frame: impl FnOnce() -> Frame,
) -> Result<Option<Frame>, SieveError> {
    match decision {
        Decision::Keep => Ok(Some(frame())),
        Decision::Drop => Ok(None),
        Decision::NeedsDecode => Err(SieveError::selector(format!(
            "session demanded pixels for frame {index} twice"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::OracleDetector;
    use crate::events::analyze;
    use crate::select::{FixedSelector, GreedySession, IFrameSelector};
    use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec, LabelSet};
    use sieve_video::{EncodedFrame, EncodedVideo, EncoderConfig};

    /// A test policy on the decode path `full_decode` names, whose sessions
    /// come from `session`: one session type driven down both paths.
    struct OnPath {
        full_decode: bool,
        session: fn() -> Box<dyn SelectorSession>,
    }

    impl FrameSelector for OnPath {
        fn name(&self) -> &'static str {
            "on-path"
        }
        fn requires_full_decode(&self) -> bool {
            self.full_decode
        }
        fn session(&self) -> Box<dyn SelectorSession> {
            (self.session)()
        }
    }

    /// A session that demands pixels twice fails the frame on both paths,
    /// as `analyze` fails the whole run, instead of passing for a drop.
    /// Every frame is an I-frame, so the metadata path's decode succeeds
    /// and only the session can fail it.
    #[test]
    fn greedy_session_fails_frames_on_both_paths() {
        let res = Resolution::new(32, 32);
        let frames = (0..4).map(|_| Frame::grey(res));
        let video = EncodedVideo::encode(res, 30, EncoderConfig::new(1, 0), frames);
        assert_eq!(video.i_frame_indices().len(), 4);
        for full_decode in [false, true] {
            let selector = OnPath {
                full_decode,
                session: || Box::new(GreedySession),
            };
            let mut edge = EdgeSession::open(&selector, res, video.quality());
            for (i, ef) in video.frames().iter().enumerate() {
                let outcome = edge.observe(i, ef.frame_type, &ef.data);
                assert!(
                    matches!(outcome, EdgeOutcome::Failed),
                    "full_decode={full_decode}, frame {i}: {outcome:?}"
                );
            }
        }
    }

    /// A metadata-only policy may keep only I-frames: a frame marked P that
    /// it keeps fails before any decode, at the edge and in `analyze`. The
    /// frame carries an I-frame payload, so only that check can fail it.
    #[test]
    fn metadata_policy_keeping_a_p_frame_fails_it() {
        struct MetadataFixed(FixedSelector);
        impl FrameSelector for MetadataFixed {
            fn name(&self) -> &'static str {
                "metadata-fixed"
            }
            fn requires_full_decode(&self) -> bool {
                false
            }
            fn session(&self) -> Box<dyn SelectorSession> {
                self.0.session()
            }
        }
        let res = Resolution::new(32, 32);
        let intra = EncodedVideo::encode(
            res,
            30,
            EncoderConfig::new(1, 0),
            (0..2).map(|_| Frame::grey(res)),
        );
        let mut video = EncodedVideo::new(res, 30, intra.quality());
        for (ef, frame_type) in intra.frames().iter().zip([FrameType::I, FrameType::P]) {
            video.push(EncodedFrame {
                frame_type,
                data: ef.data.clone(),
            });
        }
        let selector = MetadataFixed(FixedSelector::new(vec![0, 1]));
        let mut edge = EdgeSession::open(&selector, res, video.quality());
        let outcomes: Vec<_> = video
            .frames()
            .iter()
            .enumerate()
            .map(|(i, ef)| edge.observe(i, ef.frame_type, &ef.data))
            .collect();
        assert!(
            matches!(outcomes[..], [EdgeOutcome::Kept(_), EdgeOutcome::Failed]),
            "{outcomes:?}"
        );
        let mut oracle = OracleDetector::new(vec![LabelSet::empty(); 2]);
        assert!(matches!(
            analyze(&video, &selector, &mut oracle),
            Err(SieveError::Decode(DecodeError::NotAnIFrame))
        ));
    }

    /// A frame's type from the wrong side of the `frame_type` field.
    fn flipped(t: FrameType) -> FrameType {
        match t {
            FrameType::I => FrameType::P,
            FrameType::P => FrameType::I,
        }
    }

    /// The live edge boundary is the payload bytes plus the `frame_type`
    /// field beside them, which the payload does not restate. A frame
    /// whose type contradicts its payload, or whose payload is cut short,
    /// never panics either path: `observe` answers with one of its three
    /// outcomes, and the stream's next intact I-frame is kept again.
    #[test]
    fn contradicted_or_truncated_frames_never_panic_either_path() {
        let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
        let encoded = EncodedVideo::encode(
            video.resolution(),
            video.fps(),
            EncoderConfig::new(10, 40),
            video.frames().take(60),
        );
        let i_frames = encoded.i_frame_indices();
        let (i_target, resync) = (i_frames[1], i_frames[2]);
        let p_target = i_target + 1;
        assert!(p_target < resync, "a P-frame follows the faulted I-frame");
        type Fault = fn(FrameType, &[u8]) -> (FrameType, &[u8]);
        let mislabelled: Fault = |t, data| (flipped(t), data);
        let halved: Fault = |t, data| (t, &data[..data.len() / 2]);
        let one_byte: Fault = |t, data| (t, &data[..1]);
        let cases: [(&str, Fault, &[usize]); 3] = [
            (
                "an I marked P and a P marked I",
                mislabelled,
                &[i_target, p_target],
            ),
            ("a payload cut to half", halved, &[i_target, p_target]),
            ("a payload cut to one byte", one_byte, &[i_target, p_target]),
        ];
        for (fault, apply, targets) in cases {
            for &target in targets {
                for full_decode in [false, true] {
                    let selector = OnPath {
                        full_decode,
                        session: || IFrameSelector::new().session(),
                    };
                    let mut edge =
                        EdgeSession::open(&selector, encoded.resolution(), encoded.quality());
                    for (i, ef) in encoded.frames().iter().enumerate() {
                        let (frame_type, payload) = if i == target {
                            apply(ef.frame_type, &ef.data)
                        } else {
                            (ef.frame_type, &ef.data[..])
                        };
                        let outcome = edge.observe(i, frame_type, payload);
                        let at = format!("{fault} at {target}, full_decode={full_decode}");
                        match &outcome {
                            EdgeOutcome::Kept(frame) => {
                                assert_eq!(frame.resolution(), encoded.resolution(), "{at}");
                            }
                            EdgeOutcome::Dropped | EdgeOutcome::Failed => {}
                        }
                        if i == resync {
                            assert!(matches!(outcome, EdgeOutcome::Kept(_)), "{at}: {outcome:?}");
                        }
                    }
                }
            }
        }
    }
}
