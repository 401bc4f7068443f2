//! # SiEVE — Semantically Encoded Video Analytics on Edge and Cloud
//!
//! A full Rust reproduction of the SiEVE system (Elgamal et al., ICDCS
//! 2020): a 3-tier video-analytics pipeline built around **semantic video
//! encoding** — tuning a video encoder's GOP size and scenecut threshold per
//! camera so that I-frames land exactly on semantic events (objects entering
//! or leaving the scene), letting the downstream pipeline analyse ~3% of
//! frames while labelling ~100% of them correctly.
//!
//! This umbrella crate re-exports the workspace's subsystems:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`video`] | `sieve-video` | from-scratch block codec: semantic encoder, I-frame-seekable container, full decoder |
//! | [`datasets`] | `sieve-datasets` | deterministic synthetic analogues of the paper's five surveillance datasets |
//! | [`filters`] | `sieve-filters` | MSE / SIFT / uniform-sampling baselines |
//! | [`stats`] | `sieve-stats` | lock-free observability plane: counters, histograms, registry, time-series collector |
//! | [`simnet`] | `sieve-simnet` | the shard queue under the fleet scheduler, and virtual time |
//! | [`core`] | `sieve-core` | SiEVE itself: offline tuner, I-frame seeker, object detectors, metrics, the Fig 4/5 tandem-queue simulator |
//! | [`fleet`] | `sieve-fleet` | multi-stream edge runtime: admission, sharded scheduling with load shedding, on-line adaptive selection |
//! | [`net`] | `sieve-net` | edge→cloud WAN transport: FEC packetizer, hostile channel model, feedback-driven rate control |
//! | [`live`] | (this crate) | [`run_live_analysis`]: a single camera run live, as a one-stream fleet |
//!
//! ## Quickstart
//!
//! ```
//! use sieve::prelude::*;
//!
//! // Generate a tiny labelled surveillance feed.
//! let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
//! // Encode it semantically and analyse only I-frames.
//! let encoded = EncodedVideo::encode(video.resolution(), video.fps(),
//!                                    EncoderConfig::new(300, 200), video.frames());
//! let mut nn = OracleDetector::for_video(&video);
//! let result = analyze_sieve(&encoded, &mut nn).unwrap();
//! assert!(result.sampling_rate() < 0.2);
//! ```

pub use sieve_core as core;
pub use sieve_datasets as datasets;
pub use sieve_filters as filters;
pub use sieve_fleet as fleet;
pub use sieve_net as net;
pub use sieve_simnet as simnet;
pub use sieve_stats as stats;
pub use sieve_video as video;

pub mod live;
pub use live::{run_live_analysis, LiveAnalysis, LiveConfig};

/// The most commonly used items across all subsystems.
pub mod prelude {
    pub use crate::live::{run_live_analysis, LiveAnalysis, LiveConfig};
    pub use sieve_core::{
        analyze, analyze_sieve, score_encoding, score_selection, simulate_all, tune,
        AnalysisResult, Baseline, BaselineSpec, ConfigGrid, Decision, Deployment, DetectionQuality,
        EncodedFrameMeta, FrameSelector, IFrameSelector, LookupTable, ObjectDetector,
        OracleDetector, SelectorKind, SelectorSession, SieveError, ThreeTier, TuningOutcome,
    };
    pub use sieve_datasets::{
        segment_events, DatasetId, DatasetScale, DatasetSpec, Event, LabelSet, ObjectClass,
        SyntheticVideo,
    };
    pub use sieve_filters::{
        calibrate_fractions, calibrate_threshold, select_frames, Budget, ChangeDetector,
        MseDetector, MseSelector, SiftDetector, SiftSelector, UniformSelector,
    };
    pub use sieve_fleet::{Fleet, FleetConfig, FleetReport, FramePacket, StreamConfig, StreamId};
    pub use sieve_stats::{Collector, Counter, Gauge, Histogram, Registry};
    pub use sieve_video::{
        BitstreamStats, EncodedVideo, Encoder, EncoderConfig, Frame, FrameType, RatioTrace,
        Resolution, VideoIndex,
    };
}
