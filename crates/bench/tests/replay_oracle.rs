//! The ratio-trace replay held to the encoder it replays.
//!
//! Every experiment that needs only I-frame positions — the tuning grid,
//! Fig 3's SiEVE points, ablations 1–3 — replays a [`RatioTrace`] instead of
//! encoding. This file checks that shortcut on all five datasets, over the
//! whole feed and both halves, for every configuration those experiments
//! use: the replayed I-frames equal those of an [`EncodedVideo::encode`],
//! and `tune` returns exactly what the encode-per-config loop it replaced
//! returns (that loop is kept below as the oracle).
//!
//! Every case on every dataset takes about 170 s under debug assertions
//! (the dev profile, `opt-level = 1`) against about 65 s optimized, on a
//! 2-vCPU x86-64 host: more than twice the rest of the test suite. So the
//! debug run covers Jackson square alone, in under a second: every
//! `STRIDE`-th (range, config) case, and a corner of the tuning grid that
//! still holds a tie at its maximum. CI runs this file optimized as well,
//! where it takes every case on every dataset.

use std::ops::Range;

use sieve_core::{tune, ConfigGrid};
use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec, SyntheticVideo};
use sieve_video::{EncodedVideo, EncoderConfig, Frame, RatioTrace};

const DEBUG: bool = cfg!(debug_assertions);

/// The datasets checked: all five when optimized.
const DATASETS: &[DatasetId] = if DEBUG {
    &[DatasetId::JacksonSquare]
} else {
    &DatasetId::ALL
};

/// Every `STRIDE`-th case is checked: all of them when optimized, a prime
/// stride when not.
const STRIDE: usize = if DEBUG { 13 } else { 1 };

/// The tuning grid `harness::Prepared::semantic` searches.
fn tuning_grid() -> ConfigGrid {
    ConfigGrid {
        gop_sizes: vec![100, 300, 600],
        scenecuts: vec![40, 100, 150, 200, 250],
    }
}

/// Every configuration the replayed experiments use, each once: the tuning
/// grid, Fig 3's scenecuts and ablations 1–3.
fn replayed_configs() -> Vec<EncoderConfig> {
    let fig3 = [60, 100, 130, 150, 170, 200, 240].map(|sc| (600, sc));
    let ablation1 = [0, 40, 100, 150, 200, 250, 300, 400].map(|sc| (600, sc));
    let ablation2 = [30, 100, 250, 600].map(|gop| (gop, 0));
    let ablation3 = [60, 100, 150, 200, 250, 300].map(|sc| (600, sc));
    let mut configs = tuning_grid().configs();
    let others = [&fig3[..], &ablation1, &ablation2, &ablation3].concat();
    for (gop, sc) in others {
        let config = EncoderConfig::new(gop, sc);
        if !configs.contains(&config) {
            configs.push(config);
        }
    }
    configs
}

fn frames(video: &SyntheticVideo) -> Vec<Frame> {
    video.frames().collect()
}

fn encoded_i_frames(video: &SyntheticVideo, frames: &[Frame], config: EncoderConfig) -> Vec<usize> {
    let frames = frames.iter().cloned();
    EncodedVideo::encode(video.resolution(), video.fps(), config, frames).i_frame_indices()
}

#[test]
fn replayed_i_frames_equal_the_encoders() {
    let configs = replayed_configs();
    let mut case = 0;
    for &id in DATASETS {
        let video = DatasetSpec::of(id).generate(DatasetScale::Tiny);
        let frames = frames(&video);
        let n = frames.len();
        let trace = RatioTrace::measure(EncoderConfig::default().search_range, &frames);
        let ranges: [(&str, Range<usize>); 3] =
            [("whole", 0..n), ("train", 0..n / 2), ("eval", n / 2..n)];
        for (name, range) in ranges {
            let slice = trace.slice(range.clone());
            for &config in &configs {
                case += 1;
                if case % STRIDE != 0 {
                    continue;
                }
                let expected = encoded_i_frames(&video, &frames[range.clone()], config);
                assert_eq!(
                    slice.i_frames(&config),
                    expected,
                    "{id} {name} half, GOP {} scenecut {}",
                    config.gop_size,
                    config.scenecut
                );
            }
        }
    }
}

/// The tuner before it replayed traces: one encode per configuration,
/// verbatim but for the scoring call and the doc comments.
mod oracle {
    use sieve_core::{score_encoding, ConfigGrid, ConfigScore, TuningOutcome};
    use sieve_datasets::LabelSet;
    use sieve_video::{EncodedVideo, Frame, Resolution};

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
}

#[test]
fn tune_equals_the_encode_per_config_loop() {
    // Jackson square's F1 ties at its maximum between GOP 300 and 600 at
    // scenecut 150, so the debug corner still decides a tie.
    let grid = if DEBUG {
        ConfigGrid {
            gop_sizes: vec![300, 600],
            scenecuts: vec![150, 200],
        }
    } else {
        tuning_grid()
    };
    let labelled = DatasetId::LABELLED
        .into_iter()
        .filter(|id| DATASETS.contains(id));
    for id in labelled {
        let video = DatasetSpec::of(id).generate(DatasetScale::Tiny);
        let half = video.frame_count() / 2;
        let train = frames(&video)[..half].to_vec();
        let labels = &video.labels()[..half];
        let expected = oracle::tune(video.resolution(), video.fps(), &grid, labels, || {
            train.iter().cloned()
        });
        let trace = RatioTrace::measure(EncoderConfig::default().search_range, &train);
        let outcome = tune(&grid, labels, &trace);
        // Bit-equal (`Debug` prints every f64 round-trip exact): every
        // explored score, and the argmax with its tie-break.
        assert_eq!(format!("{outcome:?}"), format!("{expected:?}"), "{id}");
    }
}

#[test]
#[should_panic(expected = "different search range")]
fn replay_rejects_another_search_range() {
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
    let config = EncoderConfig::default();
    let trace = RatioTrace::measure(config.search_range, video.frames().take(8));
    let mut other = config;
    other.search_range *= 2;
    let _ = trace.i_frames(&other);
}
