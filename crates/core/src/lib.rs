//! # sieve-core — the SiEVE system
//!
//! The paper's primary contribution, built on the substrates in the sibling
//! crates:
//!
//! * [`tuner`] — offline grid search over (GOP size, scenecut threshold)
//!   maximizing the F1 of event-detection accuracy and filtering rate
//!   (the paper's Fig 2 procedure);
//! * [`lookup`] — the per-camera tuned-parameter table;
//! * [`seeker`] — the I-frame seeker (metadata scan, independent decode);
//! * [`select`] — the streaming selection layer: [`FrameSelector`]
//!   factories, incremental [`SelectorSession`]s, trait-owned
//!   [`SelectorCost`] models and batched calibration;
//! * [`adapt`] — on-line threshold adaptation (EWMA, P² streaming
//!   quantile, the [`RateController`] behind `Budget::TargetRate`);
//! * [`metrics`] — accuracy / filtering rate / F1 with label propagation;
//! * [`events`] — the analysis path producing `(frame, labels)` tuples;
//! * [`edge`] — the per-stream live edge decision ([`EdgeSession`]) every
//!   `sieve-fleet` stream runs;
//! * [`pipeline`] — end-to-end simulation of the five Fig 4/5 baselines on
//!   the 3-tier topology.
//!
//! ## Quickstart
//!
//! ```
//! use sieve_core::{analyze_sieve, score_encoding, IFrameSeeker};
//! use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
//! use sieve_nn::OracleDetector;
//! use sieve_video::{EncodedVideo, EncoderConfig};
//!
//! // A tiny synthetic camera feed with ground truth.
//! let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
//! // Semantic encoding: long GOP, sensitive scenecut.
//! let encoded = EncodedVideo::encode(video.resolution(), video.fps(),
//!                                    EncoderConfig::new(300, 200), video.frames());
//! // Analyse by decoding I-frames only.
//! let mut nn = OracleDetector::for_video(&video);
//! let result = analyze_sieve(&encoded, &mut nn).unwrap();
//! assert!(result.sampling_rate() < 0.2);
//! let quality = score_encoding(&encoded, video.labels());
//! assert!(quality.accuracy > 0.8);
//! ```

pub mod adapt;
pub mod edge;
pub mod error;
pub mod events;
pub mod lookup;
pub mod metrics;
pub mod pipeline;
pub mod reencode;
pub mod seeker;
pub mod select;
pub mod store;
pub mod tuner;

pub use adapt::{wan_signal, Ewma, P2Quantile, RateController, WanFeedback, WanSignal};
pub use edge::{EdgeOutcome, EdgeSession};
pub use error::SieveError;
pub use events::{analyze, analyze_selected, analyze_sieve, AnalysisResult};
pub use lookup::LookupTable;
pub use metrics::{f1_score, label_accuracy, propagate_labels, score_selection, DetectionQuality};
pub use pipeline::{
    simulate_all, simulate_baseline, Baseline, BaselineOutcome, BaselineSpec, Deployment,
    SelectorKind, VideoWorkload, WorkloadCosts,
};
pub use reencode::{reencode_semantic, ReencodeStats};
pub use seeker::{ByteStreamSeeker, IFrameSeeker};
pub use select::{
    CalibrationCurve, CalibrationPoint, Decision, EncodedFrameMeta, FixedSelector, FrameSelector,
    IFrameSelector, SelectorCost, SelectorSession,
};
pub use store::{EventSeeker, ResultStore, ResultTuple};
pub use tuner::{score_encoding, tune, ConfigGrid, ConfigScore, TuningOutcome};
