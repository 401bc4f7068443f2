//! The live single-camera run: one stream on a one-shard [`Fleet`].
//!
//! Where `sieve_core::pipeline` *simulates* a deployment from calibrated
//! costs, [`run_live_analysis`] actually runs one, on the same scheduler
//! that serves many cameras: the caller's thread is the camera, the shard
//! worker is the edge (one [`sieve_core::EdgeSession`] deciding per frame,
//! decoding only what the policy asks for), and the stream's keep sink is
//! the cloud (resize, detect, store the `(frame id, labels)` tuple).
//!
//! No whole-video pre-pass and no payload copy: each frame enters as a
//! [`FramePacket::of`] reference to the container's own bytes, and the only
//! lookahead is the bounded queue. A full queue pushes back on the camera —
//! the frame is offered again, never lost.

use std::sync::mpsc;

use sieve_core::{
    propagate_labels, AnalysisResult, FrameSelector, ObjectDetector, SieveError, NN_INPUT_SIZE,
};
use sieve_fleet::{Fleet, FleetConfig, FleetReport, FramePacket, Ingest, StreamConfig};
use sieve_video::{EncodedVideo, Resolution};

/// Configuration of the live run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Frames in flight between camera and edge (back-pressure depth; also
    /// the only frame lookahead the run ever holds).
    pub capacity: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self { capacity: 16 }
    }
}

/// Outcome of a live analysis run.
#[derive(Debug)]
pub struct LiveAnalysis {
    /// The fleet's own report. Its one stream (`snapshot.streams[0]`,
    /// equal to `snapshot.aggregate`) carries the kept / dropped / failed
    /// counts; `processed` is always the video's frame count, and `shed`
    /// counts the times a full queue made the camera re-offer a frame, not
    /// frames lost.
    pub report: FleetReport,
    /// The analysis result assembled from the tuples the cloud stored.
    pub result: AnalysisResult,
}

/// Runs `video` through a live camera→edge→cloud pipeline with `selector`
/// deciding *at the edge* what survives and `detector` labelling survivors
/// in the cloud.
///
/// Only the selector's streaming session runs, on the fleet's shard
/// thread; a threshold calibrated on the whole video (the paper's offline
/// tuning step) is resolved before the selector is built. A run that wants
/// a WAN between edge and cloud joins its own stream with
/// `sieve_net::SharedUplink::keep_sink`.
///
/// # Errors
///
/// Returns the error the stream's session reported at end of stream,
/// unchanged, so it matches the offline `select_indices` error: a
/// [`SieveError::Selector`] for an invalid target rate, a
/// [`SieveError::InvalidSelection`] for a fixed selection past the end of
/// the video. The one difference by design: a frame the edge fails to
/// process (a decode error, a P-frame kept by a metadata policy) fails an
/// offline run, but live it counts in the stream's `failed` and the run
/// goes on.
///
/// # Panics
///
/// Panics if `config.capacity` is zero, or if the selector or detector
/// panics on the shard thread.
pub fn run_live_analysis<S, D>(
    video: &EncodedVideo,
    selector: &S,
    mut detector: D,
    config: &LiveConfig,
) -> Result<LiveAnalysis, SieveError>
where
    S: FrameSelector + ?Sized,
    D: ObjectDetector + Send + 'static,
{
    let nn_res = Resolution::new(NN_INPUT_SIZE, NN_INPUT_SIZE);
    let fleet = Fleet::new(FleetConfig {
        shards: 1,
        queue_capacity: config.capacity,
        global_frame_budget: config.capacity,
        ..FleetConfig::default()
    });
    let (tuples, stored) = mpsc::channel();
    let stream = fleet
        .join_with_sink(
            selector,
            StreamConfig::new("live", video.resolution(), video.quality()),
            Box::new(move |index, frame, _payload| {
                let labels = detector.detect(index, &frame.resize(nn_res));
                // The receiver outlives the fleet, so this cannot fail.
                let _ = tuples.send((index, labels));
            }),
        )
        .expect("a fresh fleet admits its first stream");
    for (i, ef) in video.frames().iter().enumerate() {
        while let Ingest::Shed(_) = fleet
            .push(stream, FramePacket::of(i, ef))
            .expect("the stream stays open until shutdown")
        {
            std::thread::yield_now();
        }
    }
    let report = fleet.shutdown();
    if let Some(e) = &report.snapshot.streams[0].finish_error {
        return Err(e.clone());
    }
    // One lane, drained in FIFO order: the tuples arrive sorted by index.
    let selected: Vec<_> = stored.try_iter().collect();
    let predicted = propagate_labels(video.frame_count(), &selected);
    Ok(LiveAnalysis {
        report,
        result: AnalysisResult {
            selected,
            predicted,
        },
    })
}
