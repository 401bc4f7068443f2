//! The paper's evaluation metrics.
//!
//! * **accuracy** — fraction of frames whose *propagated* label equals the
//!   ground truth. Selected frames (I-frames / sampled frames) are labelled
//!   by the reference NN, assumed correct; every other frame inherits the
//!   most recent selected frame's label. This matches Section IV's
//!   definition: an event whose first I-frame arrives late contributes its
//!   pre-I-frame prefix as errors, and an event with no I-frame at all is
//!   entirely mislabelled.
//! * **filtering rate** (`fr`) — fraction of frames that are *not* analysed.
//! * **F1 score** — harmonic mean of accuracy and filtering rate, the
//!   tuner's objective.

use sieve_datasets::LabelSet;

/// Quality of one configuration's event detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionQuality {
    /// Per-frame label accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Fraction of frames selected for NN analysis, in `[0, 1]`.
    pub sampling_rate: f64,
    /// `1 - sampling_rate`.
    pub filtering_rate: f64,
    /// Harmonic mean of accuracy and filtering rate.
    pub f1: f64,
}

/// Harmonic mean of accuracy and filtering rate (the paper's F1).
fn f1_score(accuracy: f64, filtering_rate: f64) -> f64 {
    if accuracy + filtering_rate <= 0.0 {
        0.0
    } else {
        2.0 * accuracy * filtering_rate / (accuracy + filtering_rate)
    }
}

/// Propagates labels from selected frames: each frame takes the label of the
/// most recent selected frame at or before it. Frames before the first
/// selection default to the empty label set.
///
/// `selected` pairs frame indices with the label the NN produced there and
/// must be sorted by index (the natural order of any seeker/sampler).
///
/// # Panics
///
/// Panics if `selected` is not sorted or contains an index `>= total_frames`.
pub fn propagate_labels(total_frames: usize, selected: &[(usize, LabelSet)]) -> Vec<LabelSet> {
    let mut out = vec![LabelSet::empty(); total_frames];
    let mut prev_idx = None::<usize>;
    for (k, &(idx, labels)) in selected.iter().enumerate() {
        assert!(idx < total_frames, "selected index {idx} out of range");
        if let Some(p) = prev_idx {
            assert!(idx > p, "selected indices must be strictly increasing");
        }
        // Each selection owns the frames up to the next one, so every frame
        // is written once. An out-of-order successor fails its own assert
        // next iteration; clamping keeps this fill in bounds until then.
        let next = selected
            .get(k + 1)
            .map_or(total_frames, |&(n, _)| n.clamp(idx, total_frames));
        out[idx..next].fill(labels);
        prev_idx = Some(idx);
    }
    out
}

/// Fraction of frames where `predicted` matches `truth`.
///
/// # Panics
///
/// Panics if lengths differ or both are empty.
pub fn label_accuracy(truth: &[LabelSet], predicted: &[LabelSet]) -> f64 {
    assert_eq!(truth.len(), predicted.len(), "label length mismatch");
    assert!(!truth.is_empty(), "accuracy of an empty video is undefined");
    let correct = truth.iter().zip(predicted).filter(|(t, p)| t == p).count();
    correct as f64 / truth.len() as f64
}

/// Scores a frame selection against ground truth assuming an oracle NN on
/// the selected frames (the paper's accuracy model).
///
/// # Panics
///
/// Panics if `truth` is empty or `selected` is unsorted/out of range.
pub fn score_selection(truth: &[LabelSet], selected: &[usize]) -> DetectionQuality {
    let labelled: Vec<(usize, LabelSet)> = selected.iter().map(|&i| (i, truth[i])).collect();
    let predicted = propagate_labels(truth.len(), &labelled);
    let accuracy = label_accuracy(truth, &predicted);
    let sampling_rate = selected.len() as f64 / truth.len() as f64;
    let filtering_rate = 1.0 - sampling_rate;
    DetectionQuality {
        accuracy,
        sampling_rate,
        filtering_rate,
        f1: f1_score(accuracy, filtering_rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_datasets::ObjectClass;

    fn car() -> LabelSet {
        let mut car = LabelSet::empty();
        car.insert(ObjectClass::Car);
        car
    }
    fn none() -> LabelSet {
        LabelSet::empty()
    }

    #[test]
    fn f1_harmonic_mean_properties() {
        assert_eq!(f1_score(0.0, 0.0), 0.0);
        assert!((f1_score(1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((f1_score(0.5, 0.5) - 0.5).abs() < 1e-12);
        // Harmonic mean is dominated by the smaller value.
        assert!(f1_score(1.0, 0.1) < 0.2);
        // Symmetry.
        assert_eq!(f1_score(0.3, 0.9), f1_score(0.9, 0.3));
    }

    #[test]
    fn propagate_fills_forward() {
        let sel = vec![(0, none()), (3, car()), (6, none())];
        let out = propagate_labels(8, &sel);
        assert_eq!(out[0], none());
        assert_eq!(out[2], none());
        assert_eq!(out[3], car());
        assert_eq!(out[5], car());
        assert_eq!(out[6], none());
        assert_eq!(out[7], none());
    }

    #[test]
    fn propagate_before_first_selection_is_empty() {
        let out = propagate_labels(4, &[(2, car())]);
        assert_eq!(out[0], none());
        assert_eq!(out[1], none());
        assert_eq!(out[2], car());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn propagate_rejects_unsorted() {
        let _ = propagate_labels(5, &[(3, car()), (1, none())]);
    }

    #[test]
    fn perfect_selection_scores_full_accuracy() {
        // Events: [none x3][car x3][none x2], selections at event starts.
        let truth = vec![none(), none(), none(), car(), car(), car(), none(), none()];
        let q = score_selection(&truth, &[0, 3, 6]);
        assert!((q.accuracy - 1.0).abs() < 1e-12);
        assert!((q.sampling_rate - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn late_iframe_loses_event_prefix() {
        // The car event starts at 3 but the first selection inside it is 5:
        // frames 3 and 4 are mislabelled.
        let truth = vec![none(), none(), none(), car(), car(), car(), car(), none()];
        let q = score_selection(&truth, &[0, 5, 7]);
        assert!((q.accuracy - 6.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn missed_event_entirely_wrong() {
        let truth = vec![none(), car(), car(), car(), none(), none()];
        // Only frame 0 selected: the car event is never seen; frames 1-3
        // wrong, frames 4-5 happen to match "none".
        let q = score_selection(&truth, &[0]);
        assert!((q.accuracy - 3.0 / 6.0).abs() < 1e-12);
        assert!((q.filtering_rate - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn more_selections_never_reduce_accuracy() {
        let truth = vec![none(), car(), none(), car(), car(), none()];
        let sparse = score_selection(&truth, &[0, 3]);
        let dense = score_selection(&truth, &[0, 1, 2, 3, 4, 5]);
        assert!(dense.accuracy >= sparse.accuracy);
        assert!((dense.accuracy - 1.0).abs() < 1e-12);
        assert_eq!(dense.filtering_rate, 0.0);
    }

    #[test]
    fn quality_fields_consistent() {
        let truth = vec![none(); 10];
        let q = score_selection(&truth, &[0, 4]);
        assert!((q.sampling_rate + q.filtering_rate - 1.0).abs() < 1e-12);
        assert!((q.f1 - f1_score(q.accuracy, q.filtering_rate)).abs() < 1e-12);
    }
}
