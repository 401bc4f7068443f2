//! Event detection and label assignment over encoded videos.
//!
//! One generic driver glues a [`FrameSelector`] (which frames get decoded),
//! an [`ObjectDetector`] (what the NN says about them), and label
//! propagation into the result the cloud stores: a list of `(frame id,
//! object labels)` tuples plus the derived per-frame labels. Every baseline
//! — SiEVE's I-frame seeking and the image-filter baselines adapted in
//! `sieve-filters` — runs through [`analyze`]; there is no per-baseline
//! analysis glue.

use sieve_datasets::{segment_events, Event, LabelSet};
use sieve_video::{EncodedVideo, Frame};

use crate::detector::ObjectDetector;
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
    /// Runs `detector` over decoded `(index, frame)` pairs and propagates
    /// labels across `frame_count` frames. `picked` must already have
    /// passed `check_selection`, as in [`analyze_selected`]: propagation
    /// panics on an unsorted or out-of-range index.
    fn from_detections<'a, I>(
        frame_count: usize,
        detector: &mut (impl ObjectDetector + ?Sized),
        picked: I,
    ) -> Self
    where
        I: IntoIterator<Item = (usize, &'a Frame)>,
    {
        let selected: Vec<(usize, LabelSet)> = picked
            .into_iter()
            .map(|(i, frame)| (i, detector.detect(i, frame)))
            .collect();
        let predicted = propagate_labels(frame_count, &selected);
        Self {
            selected,
            predicted,
        }
    }

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
/// Selection is streamed: policies that decode incrementally (I-frame
/// seeking) never hold more than one decoded frame in memory, so the path
/// stays constant-memory on arbitrarily long videos.
///
/// # Errors
///
/// Propagates selection/decode failures as [`SieveError`]; a selector that
/// yields out-of-range or non-ascending indices surfaces an error rather
/// than corrupting propagation.
pub fn analyze(
    video: &EncodedVideo,
    selector: &mut (impl FrameSelector + ?Sized),
    detector: &mut (impl ObjectDetector + ?Sized),
) -> Result<AnalysisResult, SieveError> {
    let frame_count = video.frame_count();
    let mut selected: Vec<(usize, LabelSet)> = Vec::new();
    selector.select_with(video, &mut |i, frame| {
        check_selection(selected.last().map(|&(prev, _)| prev), i, frame_count)?;
        selected.push((i, detector.detect(i, frame)));
        Ok(())
    })?;
    let predicted = propagate_labels(frame_count, &selected);
    Ok(AnalysisResult {
        selected,
        predicted,
    })
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
    analyze(video, &mut IFrameSelector::new(), detector)
}

/// Analysis over pre-decoded frames and a precomputed selection; the
/// detector runs on the selected frames only. Used when the decoded stream
/// already exists (filter calibration, stored footage).
///
/// # Errors
///
/// Returns [`SieveError::InvalidSelection`] if an index is out of range,
/// or [`SieveError::Selector`] if indices are not strictly increasing.
pub fn analyze_selected(
    frames: &[Frame],
    selected_indices: &[usize],
    detector: &mut dyn ObjectDetector,
) -> Result<AnalysisResult, SieveError> {
    let mut prev = None;
    for &i in selected_indices {
        check_selection(prev, i, frames.len())?;
        prev = Some(i);
    }
    Ok(AnalysisResult::from_detections(
        frames.len(),
        detector,
        selected_indices.iter().map(|&i| (i, &frames[i])),
    ))
}

/// Validates one selection step: in range, and strictly after `prev`. The
/// single source of the invariants `propagate_labels` asserts, shared by
/// both public entry points so a hostile or buggy selection surfaces as an
/// error instead of a panic.
fn check_selection(
    prev: Option<usize>,
    index: usize,
    frame_count: usize,
) -> Result<(), SieveError> {
    if index >= frame_count {
        return Err(SieveError::InvalidSelection { index, frame_count });
    }
    if let Some(prev) = prev {
        if index <= prev {
            return Err(SieveError::selector(format!(
                "selection must be strictly increasing: {index} after {prev}"
            )));
        }
    }
    Ok(())
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
            analyze(&encoded, &mut IFrameSelector::new(), &mut oracle).expect("generic analysis");
        assert_eq!(direct, via_generic);
    }

    #[test]
    fn analyze_selected_matches_oracle_on_all_frames() {
        let (video, _) = setup();
        let frames: Vec<Frame> = video.frames().collect();
        let all: Vec<usize> = (0..frames.len()).collect();
        let mut oracle = OracleDetector::for_video(&video);
        let result = analyze_selected(&frames, &all, &mut oracle).expect("in range");
        assert_eq!(result.predicted, video.labels());
        assert!((result.sampling_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn analyze_selected_rejects_out_of_range() {
        let (video, _) = setup();
        let frames: Vec<Frame> = video.frames().take(10).collect();
        let mut oracle = OracleDetector::for_video(&video);
        assert!(matches!(
            analyze_selected(&frames, &[0, 10], &mut oracle),
            Err(SieveError::InvalidSelection { index: 10, .. })
        ));
    }

    #[test]
    fn analyze_selected_rejects_unsorted_indices() {
        let (video, _) = setup();
        let frames: Vec<Frame> = video.frames().take(10).collect();
        let mut oracle = OracleDetector::for_video(&video);
        assert!(matches!(
            analyze_selected(&frames, &[3, 1], &mut oracle),
            Err(SieveError::Selector(_))
        ));
        assert!(matches!(
            analyze_selected(&frames, &[2, 2], &mut oracle),
            Err(SieveError::Selector(_))
        ));
    }

    #[test]
    fn analyze_rejects_misbehaving_selector() {
        use crate::select::{Decision, EncodedFrameMeta, SelectorSession};

        // A session that keeps demanding pixels even after the driver
        // supplied them violates the observe contract; the driver must
        // surface an error rather than loop or panic.
        struct Greedy;
        struct GreedySession;
        impl SelectorSession for GreedySession {
            fn observe(
                &mut self,
                _index: usize,
                _meta: &EncodedFrameMeta,
                _frame: Option<&Frame>,
            ) -> Decision {
                Decision::NeedsDecode
            }
        }
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
            analyze(&encoded, &mut Greedy, &mut oracle),
            Err(SieveError::Selector(_))
        ));
    }

    #[test]
    fn fewer_selections_lower_or_equal_accuracy() {
        let (video, _) = setup();
        let frames: Vec<Frame> = video.frames().collect();
        let mut oracle = OracleDetector::for_video(&video);
        let sparse: Vec<usize> = (0..frames.len()).step_by(100).collect();
        let dense: Vec<usize> = (0..frames.len()).step_by(10).collect();
        let acc = |sel: &[usize], det: &mut OracleDetector| {
            let r = analyze_selected(&frames, sel, det).expect("in range");
            crate::metrics::label_accuracy(video.labels(), &r.predicted)
        };
        assert!(acc(&sparse, &mut oracle) <= acc(&dense, &mut oracle));
    }
}
