//! The live threaded analysis pipeline, generic over selector and detector.
//!
//! Where [`crate::pipeline`] *simulates* a deployment from calibrated
//! costs, this module actually runs one on OS threads via
//! `sieve-simnet`'s back-pressured [`run_live`] runtime: the camera stage
//! feeds encoded frames, the edge stage drives any [`FrameSelector`]'s
//! streaming [`SelectorSession`] *in
//! place* — observing each frame's metadata as it arrives, decoding only
//! when the policy asks, keeping or dropping on the spot — a
//! bandwidth-throttled WAN stage carries the survivors, and the cloud stage
//! runs any [`ObjectDetector`] and stores `(frame id, labels)` tuples.
//!
//! No whole-video pre-pass: the edge never materialises the full index
//! vector or a full decode buffer. Lookahead is bounded by the session's
//! own state (at most one previous decoded frame for the pixel-differencing
//! policies, none for metadata policies) plus the back-pressured channel
//! capacity. Decode failures at the edge surface as typed
//! [`LiveReport::failed`] counts, distinct from policy drops.

use std::sync::Arc;

use sieve_nn::ObjectDetector;
use sieve_simnet::sync::Mutex;
use sieve_simnet::{run_live, LiveItem, LiveReport, LiveStage, StageResult};
use sieve_video::{Decoder, EncodedVideo, FrameType, Resolution};

use crate::error::SieveError;
use crate::events::AnalysisResult;
use crate::metrics::propagate_labels;
use crate::select::{Decision, EncodedFrameMeta, FrameSelector, SelectorSession};

/// Configuration of the live 3-tier run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Edge→cloud WAN bandwidth in bits per second.
    pub wan_bps: f64,
    /// Bounded channel capacity between stages (back-pressure depth; also
    /// the only frame lookahead the pipeline ever holds).
    pub capacity: usize,
    /// Square side of the frames shipped to the NN.
    pub nn_input: u32,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            // The paper's traffic-shaped 30 Mbps WAN.
            wan_bps: 30.0e6,
            capacity: 16,
            nn_input: 32,
        }
    }
}

/// Outcome of a live analysis run.
#[derive(Debug)]
pub struct LiveAnalysis {
    /// The runtime's transport/throughput report.
    pub report: LiveReport,
    /// The analysis result assembled from the tuples the cloud stored.
    pub result: AnalysisResult,
}

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
/// plus exactly the decode machinery its policy needs, applied with the
/// live edge-stage semantics. This is the *single* implementation of the
/// per-frame edge decision — [`run_live_analysis`] drives it inside a
/// pipeline stage and the `sieve-fleet` multi-stream runtime drives one per
/// stream, so the two paths cannot diverge.
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

/// Runs `video` through a live camera→edge→WAN→cloud pipeline with
/// `selector` deciding *inside the edge stage* what survives and
/// `detector` labelling survivors in the cloud.
///
/// The selector is [`prepare`](FrameSelector::prepare)d once (resolving any
/// whole-video parameters, e.g. fraction-calibrated thresholds — the
/// paper's offline tuning step), then a streaming session moves into the
/// edge thread and makes per-frame keep/drop decisions as items arrive.
/// Frame payloads stream through the threaded stages with real decoding,
/// resizing, transfer throttling and inference.
///
/// # Errors
///
/// Propagates preparation failures (invalid budgets, calibration decode
/// errors); per-frame decode failures inside the edge stage surface as
/// typed [`LiveReport::failed`] counts.
pub fn run_live_analysis<S, D>(
    video: &EncodedVideo,
    selector: &mut S,
    detector: D,
    config: &LiveConfig,
) -> Result<LiveAnalysis, SieveError>
where
    S: FrameSelector + ?Sized,
    D: ObjectDetector + Send + 'static,
{
    selector.prepare(video)?;
    let res = video.resolution();
    let quality = video.quality();
    let nn_res = Resolution::new(config.nn_input, config.nn_input);

    // Edge: drive the shared per-stream edge session (the same
    // implementation the fleet runtime uses). Metadata-driven policies
    // decode only survivors (independent I-frame decode); pixel policies
    // run the stateful full decoder over every frame to reach the
    // survivors.
    let edge = {
        let mut edge_session = EdgeSession::open(&*selector, res, quality);
        LiveStage::compute("edge: select+decode+resize", move |item: LiveItem| {
            let frame_type = if item.tag == 0 {
                FrameType::I
            } else {
                FrameType::P
            };
            let frame = match edge_session.observe(item.id as usize, frame_type, item.payload) {
                EdgeOutcome::Kept(frame) => frame,
                EdgeOutcome::Dropped => return StageResult::Drop,
                EdgeOutcome::Failed => return StageResult::Fail,
            };
            let small = frame.resize(nn_res);
            let mut bytes = Vec::with_capacity(small.raw_bytes());
            bytes.extend_from_slice(small.y().data());
            bytes.extend_from_slice(small.u().data());
            bytes.extend_from_slice(small.v().data());
            StageResult::Emit(LiveItem {
                id: item.id,
                payload: bytes,
                tag: item.tag,
            })
        })
    };

    let wan = LiveStage::link("edge->cloud WAN", config.wan_bps);

    // Cloud: rebuild the shipped frame, run the detector, store the tuple.
    let results: Arc<Mutex<Vec<(u64, sieve_datasets::LabelSet)>>> =
        Arc::new(Mutex::new(Vec::new()));
    let detector = Arc::new(Mutex::new(detector));
    let cloud = {
        let results = results.clone();
        let detector = detector.clone();
        let side = config.nn_input;
        LiveStage::compute("cloud: NN inference", move |item: LiveItem| {
            let small_res = Resolution::new(side, side);
            let (ylen, clen) = (small_res.luma_len(), small_res.chroma_len());
            if item.payload.len() < ylen + 2 * clen {
                return StageResult::Fail;
            }
            let y = sieve_video::Plane::from_data(
                side as usize,
                side as usize,
                item.payload[..ylen].to_vec(),
            );
            let u = sieve_video::Plane::from_data(
                side as usize / 2,
                side as usize / 2,
                item.payload[ylen..ylen + clen].to_vec(),
            );
            let v = sieve_video::Plane::from_data(
                side as usize / 2,
                side as usize / 2,
                item.payload[ylen + clen..ylen + 2 * clen].to_vec(),
            );
            let frame = sieve_video::Frame::from_planes(small_res, y, u, v);
            let labels = detector.lock().detect(item.id as usize, &frame);
            results.lock().push((item.id, labels));
            StageResult::Emit(item)
        })
    };

    // Camera: every encoded frame, tagged with its type from the metadata.
    let items: Vec<LiveItem> = video
        .frames()
        .iter()
        .enumerate()
        .map(|(i, ef)| LiveItem {
            id: i as u64,
            payload: ef.data.to_vec(),
            tag: match ef.frame_type {
                FrameType::I => 0,
                FrameType::P => 1,
            },
        })
        .collect();

    let report = run_live(vec![edge, wan, cloud], items, config.capacity);

    let mut collected = results.lock().clone();
    collected.sort_by_key(|(id, _)| *id);
    let selected: Vec<(usize, sieve_datasets::LabelSet)> = collected
        .into_iter()
        .map(|(id, l)| (id as usize, l))
        .collect();
    let predicted = propagate_labels(video.frame_count(), &selected);
    Ok(LiveAnalysis {
        report,
        result: AnalysisResult {
            selected,
            predicted,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::IFrameSelector;
    use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
    use sieve_nn::OracleDetector;
    use sieve_video::EncoderConfig;

    #[test]
    fn live_sieve_matches_offline_analysis() {
        let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
        let encoded = EncodedVideo::encode(
            video.resolution(),
            video.fps(),
            EncoderConfig::new(300, 150),
            video.frames().take(200),
        );
        let oracle = OracleDetector::for_video(&video);
        let mut selector = IFrameSelector::new();
        let live = run_live_analysis(
            &encoded,
            &mut selector,
            oracle.clone(),
            &LiveConfig::default(),
        )
        .expect("live run");
        let mut oracle = oracle;
        let offline = crate::events::analyze(&encoded, &mut IFrameSelector::new(), &mut oracle)
            .expect("offline analysis");
        assert_eq!(live.result, offline);
        assert_eq!(live.report.delivered as usize, offline.selected.len());
        assert_eq!(
            live.report.dropped as usize,
            encoded.frame_count() - offline.selected.len()
        );
        assert_eq!(live.report.failed, 0);
    }

    #[test]
    fn live_fixed_selection_full_decode_path() {
        let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
        let encoded = EncodedVideo::encode(
            video.resolution(),
            video.fps(),
            EncoderConfig::new(50, 0),
            video.frames().take(120),
        );
        let oracle = OracleDetector::for_video(&video);
        let mut selector = crate::select::FixedSelector::new(vec![0, 17, 53, 99]);
        let live = run_live_analysis(
            &encoded,
            &mut selector,
            oracle,
            &LiveConfig {
                capacity: 4,
                ..LiveConfig::default()
            },
        )
        .expect("live run");
        let ids: Vec<usize> = live.result.selected.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![0, 17, 53, 99]);
    }
}
