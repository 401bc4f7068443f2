//! # sieve-datasets — synthetic surveillance datasets with ground truth
//!
//! Deterministic stand-ins for the five video datasets of the SiEVE paper's
//! Table I. Real streams are unavailable offline, and the evaluation only
//! depends on event structure (when objects enter/leave), object scale
//! (close-up vs far view) and background dynamics (water ripple, flicker,
//! noise) — all of which the generator controls directly. See `DESIGN.md`
//! for the substitution argument.
//!
//! ```
//! use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
//!
//! let spec = DatasetSpec::of(DatasetId::JacksonSquare);
//! let video = spec.generate(DatasetScale::Tiny);
//! assert_eq!(video.labels().len(), video.frame_count());
//! let events = video.events();
//! assert!(!events.is_empty());
//! ```

pub mod labels;
pub mod registry;
pub mod scene;
pub mod schedule;
pub mod video;

pub use labels::{segment_events, Event, LabelSet, ObjectClass};
pub use registry::{DatasetId, DatasetScale, DatasetSpec};
pub use scene::{Background, Renderer, SceneConfig};
pub use schedule::{ObjectInstance, Schedule, ScheduleParams};
pub use video::{SyntheticVideo, VideoConfig};
