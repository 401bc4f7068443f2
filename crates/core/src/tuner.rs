//! Offline tuning of the semantic encoder (the paper's Fig 2 procedure).
//!
//! For every `(GOP size, scenecut)` pair in a grid, re-encode the training
//! video, locate the resulting I-frames, score the placement against the
//! ground-truth events (accuracy + filtering rate + F1), and keep the
//! configuration with the highest F1. The tuned parameters go into a
//! per-camera [`crate::lookup::LookupTable`] for online use.

use sieve_datasets::LabelSet;
use sieve_video::{EncodedVideo, EncoderConfig, Frame, Resolution};

use crate::metrics::{score_selection, DetectionQuality};
use crate::seeker::IFrameSeeker;

/// The grid of configurations to explore.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigGrid {
    /// Candidate GOP sizes (the paper tries e.g. 100, 250, 1000, 5000).
    pub gop_sizes: Vec<usize>,
    /// Candidate scenecut thresholds (the paper tries 20..250).
    pub scenecuts: Vec<u16>,
}

impl ConfigGrid {
    /// The paper's grid: five values per parameter (`k = l = 5`).
    pub fn paper_default() -> Self {
        Self {
            gop_sizes: vec![100, 250, 500, 1000, 5000],
            scenecuts: vec![20, 40, 100, 200, 250],
        }
    }

    /// A small grid for quick runs and tests.
    pub fn small() -> Self {
        Self {
            gop_sizes: vec![100, 500],
            scenecuts: vec![40, 150, 300],
        }
    }

    /// All `(gop, scenecut)` combinations as encoder configs.
    pub fn configs(&self) -> Vec<EncoderConfig> {
        let mut out = Vec::with_capacity(self.gop_sizes.len() * self.scenecuts.len());
        for &g in &self.gop_sizes {
            for &s in &self.scenecuts {
                out.push(EncoderConfig::new(g, s));
            }
        }
        out
    }

    /// Number of configurations (`k * l`).
    pub fn len(&self) -> usize {
        self.gop_sizes.len() * self.scenecuts.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.gop_sizes.is_empty() || self.scenecuts.is_empty()
    }
}

impl Default for ConfigGrid {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Score of one explored configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigScore {
    /// The configuration.
    pub config: EncoderConfig,
    /// Its event-detection quality on the training video.
    pub quality: DetectionQuality,
}

/// Outcome of the offline tuning stage.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome {
    /// The F1-maximizing configuration.
    pub best: ConfigScore,
    /// Every explored configuration, in grid order.
    pub explored: Vec<ConfigScore>,
}

/// Scores the I-frame placement of an already-encoded video against ground
/// truth, assuming an oracle NN on decoded I-frames (the paper's model).
///
/// # Panics
///
/// Panics if `labels.len()` differs from the frame count or is zero.
pub fn score_encoding(video: &EncodedVideo, labels: &[LabelSet]) -> DetectionQuality {
    assert_eq!(
        labels.len(),
        video.frame_count(),
        "labels must cover every frame"
    );
    let selected = IFrameSeeker::new(video).i_frame_indices();
    score_selection(labels, &selected)
}

/// Runs the Fig 2 procedure: encodes the training frames under every grid
/// configuration and returns all scores plus the F1-argmax.
///
/// `render` is called once per configuration to obtain a fresh frame
/// iterator (frames are regenerated rather than held in memory — training
/// videos can be long).
///
/// # Panics
///
/// Panics if the grid is empty or `labels` is empty.
pub fn tune<F, I>(
    resolution: Resolution,
    fps: u32,
    grid: &ConfigGrid,
    labels: &[LabelSet],
    mut render: F,
) -> TuningOutcome
where
    F: FnMut() -> I,
    I: Iterator<Item = Frame>,
{
    assert!(!grid.is_empty(), "config grid must be non-empty");
    assert!(!labels.is_empty(), "training labels must be non-empty");
    let mut explored = Vec::with_capacity(grid.len());
    for config in grid.configs() {
        let video = EncodedVideo::encode(resolution, fps, config, render());
        let quality = score_encoding(&video, labels);
        explored.push(ConfigScore { config, quality });
    }
    // `>=` keeps the last of tied configs, matching `Iterator::max_by`
    // semantics so tie-breaking is stable across refactors.
    let mut best = explored[0];
    for score in &explored[1..] {
        if score.quality.f1 >= best.quality.f1 {
            best = *score;
        }
    }
    TuningOutcome { best, explored }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};

    #[test]
    fn grid_combinatorics() {
        let g = ConfigGrid::paper_default();
        assert_eq!(g.len(), 25);
        assert_eq!(g.configs().len(), 25);
        assert!(!g.is_empty());
    }

    #[test]
    fn tune_picks_f1_argmax() {
        let spec = DatasetSpec::of(DatasetId::JacksonSquare);
        let video = spec.generate(DatasetScale::Tiny);
        let grid = ConfigGrid {
            gop_sizes: vec![50, 600],
            scenecuts: vec![0, 200],
        };
        let outcome = tune(
            video.resolution(),
            video.fps(),
            &grid,
            video.labels(),
            || video.frames(),
        );
        assert_eq!(outcome.explored.len(), 4);
        let max_f1 = outcome
            .explored
            .iter()
            .map(|s| s.quality.f1)
            .fold(f64::MIN, f64::max);
        assert_eq!(outcome.best.quality.f1, max_f1);
    }

    #[test]
    fn scenecut_beats_blind_gop_on_event_accuracy() {
        // The semantic point of the paper: scenecut-placed I-frames catch
        // event starts that fixed GOP boundaries miss.
        let spec = DatasetSpec::of(DatasetId::JacksonSquare);
        let video = spec.generate(DatasetScale::Tiny);
        let blind = EncodedVideo::encode(
            video.resolution(),
            video.fps(),
            EncoderConfig::new(300, 0),
            video.frames(),
        );
        let semantic = EncodedVideo::encode(
            video.resolution(),
            video.fps(),
            EncoderConfig::new(300, 200),
            video.frames(),
        );
        let q_blind = score_encoding(&blind, video.labels());
        let q_sem = score_encoding(&semantic, video.labels());
        assert!(
            q_sem.accuracy > q_blind.accuracy,
            "semantic {q_sem:?} must beat blind {q_blind:?} on accuracy"
        );
    }

    #[test]
    #[should_panic(expected = "labels must cover")]
    fn score_encoding_validates_lengths() {
        let res = Resolution::new(32, 32);
        let v = EncodedVideo::encode(
            res,
            30,
            EncoderConfig::new(5, 0),
            (0..4).map(|_| Frame::grey(res)),
        );
        let _ = score_encoding(&v, &[LabelSet::empty(); 3]);
    }
}
