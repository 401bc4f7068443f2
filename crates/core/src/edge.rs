//! The per-stream edge decision: one streaming selection session plus
//! exactly the decode machinery its policy needs.
//!
//! Where [`crate::pipeline`] *simulates* a deployment from calibrated
//! costs, an [`EdgeSession`] is what a live edge actually runs per arriving
//! frame: it drives any [`FrameSelector`]'s streaming [`SelectorSession`]
//! *in place* — observing each frame's metadata as it arrives, decoding
//! only when the policy asks, keeping or dropping on the spot. The
//! `sieve-fleet` scheduler owns one per stream, and the umbrella crate's
//! `run_live_analysis` is a one-stream fleet, so every live path shares
//! this one implementation.
//!
//! No whole-video pre-pass: the edge never materialises the full index
//! vector or a full decode buffer. Lookahead is bounded by the session's
//! own state (at most one previous decoded frame for the pixel-differencing
//! policies, none for metadata policies). Decode failures, and a session
//! that breaks the observe contract, surface as the typed
//! [`EdgeOutcome::Failed`], distinct from policy drops.

use sieve_video::{Decoder, Frame, FrameType, Resolution};

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
/// scheduler drives one per stream, and every live run is a fleet.
///
/// State is bounded by construction: one stateful decoder (pixel policies),
/// plus whatever the session itself holds (at most one previous decoded
/// frame) — never a whole-video decode buffer or index vector.
pub struct EdgeSession {
    session: Box<dyn SelectorSession>,
    full_decode: bool,
    stream_decoder: Decoder,
    resolution: Resolution,
    quality: u8,
}

impl std::fmt::Debug for EdgeSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeSession")
            .field("full_decode", &self.full_decode)
            .field("resolution", &self.resolution)
            .finish()
    }
}

impl EdgeSession {
    /// Opens a fresh edge session for `selector` on a stream of
    /// `resolution`/`quality` frames. The caller is responsible for any
    /// [`FrameSelector::prepare`] the policy needs — on-line policies
    /// (metadata seeking, absolute thresholds, `Budget::TargetRate`
    /// adaptation) need none, which is what lets a fleet open sessions for
    /// streams it will never see in full.
    pub fn open<S: FrameSelector + ?Sized>(
        selector: &S,
        resolution: Resolution,
        quality: u8,
    ) -> Self {
        Self::from_parts(
            selector.session(),
            selector.requires_full_decode(),
            Decoder::new(resolution, quality),
            resolution,
            quality,
        )
    }

    /// Assembles an edge session from an already-created streaming session
    /// and an externally-owned decoder — the entry point for runtimes that
    /// pool decoders across streams (`sieve-fleet`'s slab pool) or defer
    /// decoder construction until a stream's first frame actually arrives.
    /// The decoder must match the stream's `resolution`/`quality` and
    /// should be [`Decoder::reset`] if it previously served another stream.
    pub fn from_parts(
        session: Box<dyn SelectorSession>,
        full_decode: bool,
        stream_decoder: Decoder,
        resolution: Resolution,
        quality: u8,
    ) -> Self {
        Self {
            session,
            full_decode,
            stream_decoder,
            resolution,
            quality,
        }
    }

    /// Tears the session down and hands its decoder back, so the caller
    /// can return it to a pool instead of dropping the (reference frame +
    /// quant table) allocation. Call [`EdgeSession::finish`] first.
    pub fn into_decoder(self) -> Decoder {
        self.stream_decoder
    }

    /// Observes the next arriving frame (ascending `index` per stream) and
    /// returns the edge decision. Pixel policies advance the stateful
    /// decoder through every frame (P-frames chain); metadata policies
    /// decide first and independently decode survivors only. The payload is
    /// only read, so a caller that still needs it afterwards (the fleet's
    /// keep sink ships a kept frame's encoded payload) lends it instead of
    /// cloning every frame up front.
    pub fn observe(
        &mut self,
        index: usize,
        frame_type: FrameType,
        payload: impl AsRef<[u8]>,
    ) -> EdgeOutcome {
        let payload = payload.as_ref();
        let meta = EncodedFrameMeta {
            frame_type,
            payload_len: payload.len(),
        };
        if self.session.done() {
            return EdgeOutcome::Dropped;
        }
        if self.full_decode {
            // Decode unconditionally: P-frames chain, so the decoder state
            // must advance even through dropped frames. The decoder recycles
            // its frame buffers across the stream; only kept frames are
            // cloned out.
            let frame = match self.stream_decoder.decode_next_bytes(frame_type, payload) {
                Ok(f) => f,
                Err(_) => return EdgeOutcome::Failed,
            };
            let decision = match self.session.observe(index, &meta, None) {
                Decision::NeedsDecode => self.session.observe(index, &meta, Some(frame)),
                d => d,
            };
            return outcome(decision, || frame.clone());
        }
        // Metadata path: decide first, decode survivors only.
        let first = self.session.observe(index, &meta, None);
        if first == Decision::Drop {
            return EdgeOutcome::Dropped;
        }
        let frame = match Decoder::decode_iframe(self.resolution, self.quality, payload) {
            Ok(f) => f,
            Err(_) => return EdgeOutcome::Failed,
        };
        let decision = match first {
            Decision::NeedsDecode => self.session.observe(index, &meta, Some(&frame)),
            d => d,
        };
        outcome(decision, || frame)
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

/// The edge outcome of a session's last word on a frame. A session that
/// still answers `NeedsDecode` once it has the pixels broke the observe
/// contract: the frame fails, as `analyze` fails the whole run.
fn outcome(decision: Decision, kept: impl FnOnce() -> Frame) -> EdgeOutcome {
    match decision {
        Decision::Keep => EdgeOutcome::Kept(kept()),
        Decision::Drop => EdgeOutcome::Dropped,
        Decision::NeedsDecode => EdgeOutcome::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{GreedySession, IFrameSelector};
    use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
    use sieve_video::{EncodedVideo, EncoderConfig};

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
            let decoder = Decoder::new(res, video.quality());
            let mut edge = EdgeSession::from_parts(
                Box::new(GreedySession),
                full_decode,
                decoder,
                res,
                video.quality(),
            );
            for (i, ef) in video.frames().iter().enumerate() {
                let outcome = edge.observe(i, ef.frame_type, &ef.data);
                assert!(
                    matches!(outcome, EdgeOutcome::Failed),
                    "full_decode={full_decode}, frame {i}: {outcome:?}"
                );
            }
        }
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
        let selector = IFrameSelector::new();
        for (fault, apply, targets) in cases {
            for &target in targets {
                for full_decode in [false, true] {
                    let mut edge = EdgeSession::from_parts(
                        selector.session(),
                        full_decode,
                        Decoder::new(encoded.resolution(), encoded.quality()),
                        encoded.resolution(),
                        encoded.quality(),
                    );
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
