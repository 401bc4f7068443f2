//! # sieve-core — the SiEVE system
//!
//! The paper's primary contribution, built on the substrates in the sibling
//! crates:
//!
//! * [`tuner`] — offline grid search over (GOP size, scenecut threshold)
//!   maximizing the F1 of event-detection accuracy and filtering rate
//!   (the paper's Fig 2 procedure);
//! * [`lookup`] — the per-camera tuned-parameter table;
//! * [`select`] — the streaming selection layer: [`FrameSelector`] session
//!   factories (SiEVE's I-frame seeker is [`IFrameSelector`]: metadata
//!   scan, independent decode) and the incremental [`SelectorSession`]s
//!   they open;
//! * [`adapt`] — on-line threshold adaptation: the [`RateController`]
//!   behind `Budget::TargetRate` (a streaming-quantile threshold with a
//!   stochastic-approximation bias, under a keep-debt bound) and the WAN
//!   feedback signal that scales its target;
//! * [`metrics`] — accuracy / filtering rate / F1 with label propagation;
//! * [`detector`] — the [`ObjectDetector`] interface and the ground-truth
//!   [`OracleDetector`] the paper's accuracy model assumes;
//! * [`events`] — the analysis path producing `(frame, labels)` tuples;
//! * [`edge`] — the per-stream live edge decision ([`EdgeSession`]) every
//!   `sieve-fleet` stream runs;
//! * [`pipeline`] — end-to-end simulation of the five Fig 4/5 baselines on
//!   the 3-tier topology ([`ThreeTier`]), replayed through a fixed
//!   four-stage tandem queue; each policy's per-frame price is
//!   [`SelectorKind::per_frame_secs`].
//!
//! ## Quickstart
//!
//! ```
//! use sieve_core::{analyze_sieve, score_encoding, OracleDetector};
//! use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
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
pub mod detector;
pub mod edge;
pub mod error;
pub mod events;
pub mod lookup;
pub mod metrics;
pub mod pipeline;
pub mod select;
pub mod tuner;

pub use adapt::{wan_signal, RateController, WanFeedback, WanSignal};
pub use detector::{ObjectDetector, OracleDetector, NN_INPUT_SIZE};
pub use edge::{EdgeOutcome, EdgeSession};
pub use error::SieveError;
pub use events::{analyze, analyze_sieve, select_indices, AnalysisResult};
pub use lookup::LookupTable;
pub use metrics::{label_accuracy, propagate_labels, score_selection, DetectionQuality};
pub use pipeline::{
    simulate_all, Baseline, BaselineOutcome, BaselineSpec, Deployment, SelectorKind, ThreeTier,
    VideoWorkload, WorkloadCosts,
};
pub use select::{
    Decision, EncodedFrameMeta, FixedSelector, FrameSelector, IFrameSelector, SelectorSession,
};
pub use tuner::{score_encoding, tune, ConfigGrid, ConfigScore, TuningOutcome};
