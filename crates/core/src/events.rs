//! Event detection and label assignment over encoded videos.
//!
//! One generic driver glues a [`FrameSelector`] (which frames get decoded),
//! an [`ObjectDetector`] (what the NN says about them), and label
//! propagation into the result the cloud stores: a list of `(frame id,
//! object labels)` tuples plus the derived per-frame labels. Every baseline
//! — SiEVE's I-frame seeking and the image-filter baselines adapted in
//! `sieve-filters` — runs through [`analyze`]; there is no per-baseline
//! analysis glue. [`analyze`] and [`select_indices`] step the live edge's
//! [`EdgeSession`] over the whole video, frame by frame in order, so an
//! offline run makes exactly the decisions a live edge would.

use sieve_datasets::{segment_events, Event, LabelSet};
use sieve_video::{EncodedVideo, Frame};

use crate::detector::ObjectDetector;
use crate::edge::EdgeSession;
use crate::error::SieveError;
use crate::metrics::propagate_labels;
use crate::select::{FrameSelector, IFrameSelector};

/// The output of analysing one video.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisResult {
    /// The frames that were decoded and run through the NN, with the labels
    /// the NN produced.
    pub selected: Vec<(usize, LabelSet)>,
    /// Per-frame labels after propagation.
    pub predicted: Vec<LabelSet>,
}

impl AnalysisResult {
    /// The predicted events (maximal runs of equal labels).
    pub fn events(&self) -> Vec<Event> {
        segment_events(&self.predicted)
    }

    /// Fraction of frames that were analysed by the NN.
    pub fn sampling_rate(&self) -> f64 {
        if self.predicted.is_empty() {
            0.0
        } else {
            self.selected.len() as f64 / self.predicted.len() as f64
        }
    }
}

/// The generic analysis path: `selector` chooses and decodes frames,
/// `detector` labels them, propagation fills in the rest.
///
/// Selection is streamed through one [`EdgeSession`], as on a live edge:
/// policies that decode incrementally (I-frame seeking) never hold more
/// than one decoded frame in memory, so the path stays constant-memory on
/// arbitrarily long videos.
///
/// # Errors
///
/// The first frame the edge fails (a decode error, a P-frame kept by a
/// metadata policy, a session that breaks the observe contract), or the
/// session's end-of-stream failure, as a [`SieveError`].
pub fn analyze(
    video: &EncodedVideo,
    selector: &(impl FrameSelector + ?Sized),
    detector: &mut (impl ObjectDetector + ?Sized),
) -> Result<AnalysisResult, SieveError> {
    let mut selected: Vec<(usize, LabelSet)> = Vec::new();
    drive_edge(video, selector, |i, frame| {
        selected.push((i, detector.detect(i, &frame)));
    })?;
    let predicted = propagate_labels(video.frame_count(), &selected);
    Ok(AnalysisResult {
        selected,
        predicted,
    })
}

/// The indices of the frames `selector` keeps on `video`, in ascending
/// order: [`analyze`]'s selection without a detector.
///
/// # Errors
///
/// Whatever [`analyze`] reports for the same video and selector.
pub fn select_indices(
    video: &EncodedVideo,
    selector: &(impl FrameSelector + ?Sized),
) -> Result<Vec<usize>, SieveError> {
    let mut kept = Vec::new();
    drive_edge(video, selector, |i, _| kept.push(i))?;
    Ok(kept)
}

/// Steps one [`EdgeSession`] for `selector` over every frame of `video` in
/// order, hands each kept frame to `keep`, then finishes the session.
pub(crate) fn drive_edge(
    video: &EncodedVideo,
    selector: &(impl FrameSelector + ?Sized),
    mut keep: impl FnMut(usize, Frame),
) -> Result<(), SieveError> {
    let mut edge = EdgeSession::open(selector, video.resolution(), video.quality());
    for (i, ef) in video.frames().iter().enumerate() {
        if let Some(frame) = edge.step(i, ef.frame_type, &ef.data)? {
            keep(i, frame);
        }
    }
    edge.finish()
}

/// SiEVE's analysis path: [`analyze`] with the [`IFrameSelector`] policy —
/// seek I-frames by metadata, decode each independently, run the detector
/// on them only, propagate labels to all other frames.
///
/// # Errors
///
/// Propagates the first I-frame decode failure.
pub fn analyze_sieve(
    video: &EncodedVideo,
    detector: &mut dyn ObjectDetector,
) -> Result<AnalysisResult, SieveError> {
    analyze(video, &IFrameSelector::new(), detector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::OracleDetector;
    use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
    use sieve_video::EncoderConfig;

    fn setup() -> (sieve_datasets::SyntheticVideo, EncodedVideo) {
        let spec = DatasetSpec::of(DatasetId::JacksonSquare);
        let video = spec.generate(DatasetScale::Tiny);
        let encoded = EncodedVideo::encode(
            video.resolution(),
            video.fps(),
            EncoderConfig::new(200, 200),
            video.frames(),
        );
        (video, encoded)
    }

    #[test]
    fn sieve_analysis_reaches_high_accuracy_with_few_frames() {
        let (video, encoded) = setup();
        let mut oracle = OracleDetector::for_video(&video);
        let result = analyze_sieve(&encoded, &mut oracle).expect("analysis");
        let acc = crate::metrics::label_accuracy(video.labels(), &result.predicted);
        assert!(
            acc > 0.85,
            "semantic encoding should label most frames correctly: {acc}"
        );
        assert!(
            result.sampling_rate() < 0.2,
            "should decode few frames: {}",
            result.sampling_rate()
        );
    }

    #[test]
    fn events_derivable_from_analysis() {
        let (video, encoded) = setup();
        let mut oracle = OracleDetector::for_video(&video);
        let result = analyze_sieve(&encoded, &mut oracle).expect("analysis");
        let events = result.events();
        let total: usize = events.iter().map(|e| e.len).sum();
        assert_eq!(total, video.frame_count());
    }

    #[test]
    fn generic_driver_equals_sieve_wrapper() {
        let (video, encoded) = setup();
        let mut oracle = OracleDetector::for_video(&video);
        let direct = analyze_sieve(&encoded, &mut oracle).expect("analysis");
        let via_generic =
            analyze(&encoded, &IFrameSelector::new(), &mut oracle).expect("generic analysis");
        assert_eq!(direct, via_generic);
    }

    #[test]
    fn analyze_rejects_misbehaving_selector() {
        use crate::select::{GreedySession, SelectorSession};

        // A session that keeps demanding pixels even after the driver
        // supplied them violates the observe contract; the driver must
        // surface an error rather than loop or panic.
        struct Greedy;
        impl FrameSelector for Greedy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn session(&self) -> Box<dyn SelectorSession> {
                Box::new(GreedySession)
            }
        }
        let (video, encoded) = setup();
        let mut oracle = OracleDetector::for_video(&video);
        assert!(matches!(
            analyze(&encoded, &Greedy, &mut oracle),
            Err(SieveError::Selector(_))
        ));
    }

    #[test]
    fn fewer_selections_lower_or_equal_accuracy() {
        use crate::select::FixedSelector;

        let (video, encoded) = setup();
        let mut oracle = OracleDetector::for_video(&video);
        let n = video.frame_count();
        let mut acc = |step: usize| {
            let selector = FixedSelector::new((0..n).step_by(step).collect());
            let r = analyze(&encoded, &selector, &mut oracle).expect("in range");
            crate::metrics::label_accuracy(video.labels(), &r.predicted)
        };
        assert!(acc(100) <= acc(10));
    }
}
