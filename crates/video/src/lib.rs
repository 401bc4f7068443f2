//! # sieve-video — the codec substrate of the SiEVE reproduction
//!
//! A from-scratch block video codec with the properties SiEVE (ICDCS 2020)
//! relies on:
//!
//! * a **semantic encoder** ([`Encoder`]) whose GOP size and scenecut
//!   threshold are tunable per camera, so that I-frames land on semantic
//!   events (objects entering/leaving the scene); the placement
//!   ([`frame_type`]) reads only the source, so a [`RatioTrace`] measured
//!   once replays it for any (GOP, scenecut) without encoding;
//! * a **container** ([`EncodedVideo`], [`VideoIndex`]) whose frame-type
//!   index can be scanned without decoding — the substrate of the I-frame
//!   seeker;
//! * an expensive **full decoder** ([`Decoder`]) that the image-similarity
//!   baselines must run on every frame, reproducing the cost asymmetry
//!   behind the paper's 100x speedup claim.
//!
//! ## Quickstart
//!
//! ```
//! use sieve_video::{EncodedVideo, EncoderConfig, Frame, Resolution};
//!
//! let res = Resolution::new(64, 48);
//! let frames = (0..30).map(|_| Frame::grey(res));
//! // GOP 10, scenecut 40: an I-frame at least every 10 frames.
//! let video = EncodedVideo::encode(res, 30, EncoderConfig::new(10, 40), frames);
//! assert_eq!(video.frame_count(), 30);
//! // Scan the index without decoding; decode I-frames independently.
//! for i in video.i_frame_indices() {
//!     let frame = video.decode_iframe_at(i).unwrap();
//!     assert_eq!(frame.resolution(), res);
//! }
//! ```

pub mod bitio;
pub mod container;
pub mod dct;
pub mod decode;
pub mod encode;
pub mod entropy;
pub mod frame;
pub mod kernels;
pub mod motion;
mod parallel;
pub mod quant;
pub mod stats;

pub use container::{ContainerError, EncodedVideo, FrameMeta, VideoIndex};
pub use decode::{DecodeError, Decoder};
pub use encode::{frame_type, EncodedFrame, Encoder, EncoderConfig, FrameType, RatioTrace};
pub use frame::{Frame, Plane, Resolution};
pub use motion::{FrameMotion, MotionVector};
pub use quant::QuantTable;
pub use stats::BitstreamStats;
