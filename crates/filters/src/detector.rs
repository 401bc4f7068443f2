//! The change-detector abstraction shared by all image-similarity baselines,
//! plus frame selection and threshold calibration.
//!
//! The paper's baselines (NoScope-style) decode *every* frame and compute a
//! similarity score between consecutive frames; frames whose change score
//! exceeds a threshold are "events" and get sent to the NN. The threshold is
//! tuned on a training prefix so each baseline samples the same fraction of
//! frames as SiEVE, making the accuracy comparison fair (Section V-A).

use sieve_video::Frame;

/// A per-frame-pair change scorer. Implementations are stateless with
/// respect to the video (each call considers exactly one pair), but may
/// cache per-frame features internally — SIFT keeps the previous frame's
/// keypoints to avoid recomputing them.
pub trait ChangeDetector {
    /// Short name used in tables ("MSE", "SIFT").
    fn name(&self) -> &'static str;

    /// Change score between consecutive decoded frames; larger = more
    /// change. Scores must be non-negative and comparable across a video.
    fn change_score(&mut self, prev: &Frame, cur: &Frame) -> f64;

    /// Clears any cached per-frame state (call between videos).
    fn reset(&mut self) {}
}

/// Selects frames given pairwise `scores` (`scores[i]` compares frames `i`
/// and `i+1`) and a `threshold`: frame 0 is always selected, and frame
/// `i+1` is selected when `scores[i] > threshold`.
pub fn select_frames(scores: &[f64], threshold: f64) -> Vec<usize> {
    let mut selected = vec![0usize];
    for (i, &s) in scores.iter().enumerate() {
        if s > threshold {
            selected.push(i + 1);
        }
    }
    selected
}

/// Finds the threshold at which [`select_frames`] selects as close as
/// possible to `target_fraction` of the `total_frames` (including the always
/// selected frame 0).
///
/// Returns the threshold. With ties, fewer frames are preferred (the
/// threshold is set just above the k-th largest score).
///
/// # Panics
///
/// Panics if `target_fraction` is not in `(0, 1]`.
pub fn calibrate_threshold(scores: &[f64], total_frames: usize, target_fraction: f64) -> f64 {
    assert!(
        target_fraction > 0.0 && target_fraction <= 1.0,
        "target fraction must be in (0, 1]"
    );
    let want = ((total_frames as f64 * target_fraction).round() as usize).max(1);
    // Frame 0 is free; we need `want - 1` additional frames.
    let k = want - 1;
    if k == 0 {
        // Threshold above the maximum score selects only frame 0.
        return scores.iter().cloned().fold(0.0f64, f64::max) + 1.0;
    }
    let mut sorted: Vec<f64> = scores.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("scores must not be NaN"));
    if k >= sorted.len() {
        // Want everything: any threshold below the minimum.
        return sorted.last().copied().unwrap_or(0.0) - 1.0;
    }
    // Select scores strictly greater than the k-th largest (0-indexed k-1).
    let kth = sorted[k - 1];
    let next = sorted[k];
    if next < kth {
        // Midpoint keeps exactly k frames selected.
        (kth + next) / 2.0
    } else {
        // Ties: selecting exactly k is impossible; go just below kth to
        // include the tied group (closest achievable from above).
        kth - (kth.abs() * 1e-9 + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_frames_includes_zero() {
        let selected = select_frames(&[0.0, 5.0, 1.0], 2.0);
        assert_eq!(selected, vec![0, 2]);
    }

    #[test]
    fn select_frames_empty_scores() {
        assert_eq!(select_frames(&[], 1.0), vec![0]);
    }

    #[test]
    fn calibrate_hits_exact_target() {
        let scores: Vec<f64> = (0..99).map(|i| i as f64).collect(); // frames: 100
        let t = calibrate_threshold(&scores, 100, 0.10);
        let selected = select_frames(&scores, t);
        assert_eq!(selected.len(), 10);
    }

    #[test]
    fn calibrate_with_ties_prefers_inclusion() {
        let scores = vec![5.0, 5.0, 5.0, 1.0];
        let t = calibrate_threshold(&scores, 5, 0.4); // want 2 -> k=1, tied at 5.0
        let selected = select_frames(&scores, t);
        assert!(selected.len() >= 2, "tied scores included: {selected:?}");
    }

    #[test]
    fn calibrate_minimum_selects_only_first() {
        let scores = vec![3.0, 2.0, 1.0];
        let t = calibrate_threshold(&scores, 1000, 0.001);
        assert_eq!(select_frames(&scores, t), vec![0]);
    }

    #[test]
    fn calibrate_full_fraction_selects_everything() {
        let scores = vec![3.0, 2.0, 1.0];
        let t = calibrate_threshold(&scores, 4, 1.0);
        assert_eq!(select_frames(&scores, t).len(), 4);
    }

    #[test]
    #[should_panic(expected = "target fraction")]
    fn calibrate_rejects_zero_fraction() {
        calibrate_threshold(&[1.0], 10, 0.0);
    }
}
