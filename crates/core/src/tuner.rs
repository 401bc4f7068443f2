//! Offline tuning of the semantic encoder (the paper's Fig 2 procedure).
//!
//! For every `(GOP size, scenecut)` pair in a grid, place the training
//! video's I-frames, score the placement against the ground-truth events
//! (accuracy + filtering rate + F1), and keep the configuration with the
//! highest F1. The encoder places I-frames from the source alone, so one
//! lookahead pass over the training video ([`RatioTrace`]) replays every
//! configuration's placement without an encode. The tuned parameters go
//! into a per-camera [`crate::lookup::LookupTable`] for online use.

use sieve_datasets::LabelSet;
use sieve_video::{EncodedVideo, EncoderConfig, RatioTrace};

use crate::metrics::{score_selection, DetectionQuality};

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

    /// All `(gop, scenecut)` combinations as encoder configs.
    // lint:allow(dead-pub): crates/bench/tests/replay_oracle.rs replays every grid config against the encoder
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
    let selected = video.i_frame_indices();
    score_selection(labels, &selected)
}

/// Runs the Fig 2 procedure over the training video's ratio `trace`:
/// replays every grid configuration's I-frame placement, scores it, and
/// returns all scores plus the F1-argmax.
///
/// The grid's configurations use the encoder's default search range, so
/// `trace` must be measured at it (`EncoderConfig::default().search_range`).
///
/// # Panics
///
/// Panics if the grid is empty, `labels` is empty or does not cover every
/// frame of `trace`, or `trace` was measured at another search range.
pub fn tune(grid: &ConfigGrid, labels: &[LabelSet], trace: &RatioTrace) -> TuningOutcome {
    assert!(!grid.is_empty(), "config grid must be non-empty");
    assert!(!labels.is_empty(), "training labels must be non-empty");
    assert_eq!(labels.len(), trace.len(), "labels must cover every frame");
    let explored: Vec<ConfigScore> = grid
        .configs()
        .into_iter()
        .map(|config| ConfigScore {
            config,
            quality: score_selection(labels, &trace.i_frames(&config)),
        })
        .collect();
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
    use sieve_video::{Frame, Resolution};

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
        let trace = RatioTrace::measure(EncoderConfig::default().search_range, video.frames());
        let outcome = tune(&grid, video.labels(), &trace);
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
