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
//! policies, none for metadata policies). Decode failures surface as the
//! typed [`EdgeOutcome::Failed`], distinct from policy drops.

use sieve_video::{Decoder, FrameType, Resolution};

use crate::error::SieveError;
use crate::select::{Decision, EncodedFrameMeta, FrameSelector, SelectorSession};

/// What the edge decided about one arriving encoded frame.
#[derive(Debug)]
pub enum EdgeOutcome {
    /// The policy kept the frame; here are its decoded pixels.
    Kept(sieve_video::Frame),
    /// The policy dropped the frame (filtering — a policy decision).
    Dropped,
    /// The frame failed to decode (a processing failure, not a drop).
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
    /// decide first and independently decode survivors only.
    pub fn observe(
        &mut self,
        index: usize,
        frame_type: FrameType,
        payload: impl AsRef<[u8]>,
    ) -> EdgeOutcome {
        self.observe_bytes(index, frame_type, payload.as_ref())
    }

    /// [`EdgeSession::observe`] over a borrowed payload: the decoder only
    /// reads the bytes, so a caller that still needs them afterwards (the
    /// fleet's keep sink ships a kept frame's encoded payload) lends them
    /// instead of cloning every frame up front.
    pub fn observe_bytes(
        &mut self,
        index: usize,
        frame_type: FrameType,
        payload: &[u8],
    ) -> EdgeOutcome {
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
            return if decision == Decision::Keep {
                EdgeOutcome::Kept(frame.clone())
            } else {
                EdgeOutcome::Dropped
            };
        }
        let (decision, frame) = {
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
            (decision, frame)
        };
        if decision == Decision::Keep {
            EdgeOutcome::Kept(frame)
        } else {
            EdgeOutcome::Dropped
        }
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
