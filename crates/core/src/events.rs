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
use sieve_video::EncodedVideo;

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

/// Validates one selection step: in range, and strictly after `prev`. The
/// single source of the invariants `propagate_labels` asserts, checked by
/// [`analyze`] so a hostile or buggy selection surfaces as an error instead
/// of a panic.
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

    /// A selector that visits `indices` as given, on a grey frame: how a
    /// buggy or hostile `select_with` reaches the driver.
    struct Replay(Vec<usize>);

    impl FrameSelector for Replay {
        fn name(&self) -> &'static str {
            "replay"
        }
        fn session(&self) -> Box<dyn crate::select::SelectorSession> {
            Box::new(crate::select::GreedySession)
        }
        fn select_with(
            &mut self,
            video: &EncodedVideo,
            visit: &mut dyn FnMut(usize, &sieve_video::Frame) -> Result<(), SieveError>,
        ) -> Result<(), SieveError> {
            let frame = sieve_video::Frame::grey(video.resolution());
            self.0.iter().try_for_each(|&i| visit(i, &frame))
        }
    }

    #[test]
    fn analyze_rejects_out_of_range_selection() {
        let (video, encoded) = setup();
        let mut oracle = OracleDetector::for_video(&video);
        let n = encoded.frame_count();
        assert!(matches!(
            analyze(&encoded, &mut Replay(vec![0, n]), &mut oracle),
            Err(SieveError::InvalidSelection { index, .. }) if index == n
        ));
    }

    #[test]
    fn analyze_rejects_unsorted_selection() {
        let (video, encoded) = setup();
        let mut oracle = OracleDetector::for_video(&video);
        for indices in [vec![3, 1], vec![2, 2]] {
            assert!(matches!(
                analyze(&encoded, &mut Replay(indices), &mut oracle),
                Err(SieveError::Selector(_))
            ));
        }
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
            analyze(&encoded, &mut Greedy, &mut oracle),
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
            let mut selector = FixedSelector::new((0..n).step_by(step).collect());
            let r = analyze(&encoded, &mut selector, &mut oracle).expect("in range");
            crate::metrics::label_accuracy(video.labels(), &r.predicted)
        };
        assert!(acc(100) <= acc(10));
    }
}
