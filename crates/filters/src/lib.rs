//! # sieve-filters — image-similarity baselines
//!
//! The NoScope-style frame filters the paper compares SiEVE against:
//!
//! * [`MseDetector`] — pixel-wise mean squared error between consecutive
//!   decoded frames;
//! * [`SiftDetector`] — SIFT keypoint matching (from-scratch scale-space
//!   pyramid, DoG keypoints, 128-d descriptors, Lowe ratio test);
//! * [`UniformSelector`] — fixed-interval sampling.
//!
//! All of these require *fully decoding every frame* before scoring — the
//! cost that SiEVE's I-frame seeking avoids. [`calibrate_threshold`] tunes a
//! detector's threshold on a training prefix so it samples the same fraction
//! of frames as SiEVE, reproducing the paper's fair-comparison methodology;
//! [`calibrate_fractions`] does so for a whole encoded video, scoring it
//! once for any number of fractions. The selectors ([`MseSelector`],
//! [`SiftSelector`]) run on-line at a fixed threshold or at a target rate
//! ([`Budget`]).
//!
//! ```
//! use sieve_filters::{calibrate_threshold, select_frames, ChangeDetector, MseDetector};
//! use sieve_video::{Frame, Resolution};
//!
//! let res = Resolution::new(32, 32);
//! let mut frames = vec![Frame::grey(res); 10];
//! for v in frames[5].y_mut().data_mut().iter_mut() { *v = 20; } // a "change"
//! let mut det = MseDetector::new();
//! let scores: Vec<f64> = frames.windows(2).map(|w| det.change_score(&w[0], &w[1])).collect();
//! let t = calibrate_threshold(&scores, frames.len(), 0.3);
//! let picked = select_frames(&scores, t);
//! assert!(picked.contains(&5));
//! ```

pub mod detector;
pub mod mse;
pub mod select;
pub mod sift;

pub use detector::{
    calibrate_fractions, calibrate_threshold, select_frames, CalibrationPoint, ChangeDetector,
};
pub use mse::{mse_luma, MseDetector};
pub use select::{Budget, ChangeSelector, MseSelector, SiftSelector, UniformSelector};
pub use sift::SiftDetector;
