//! Object detectors: the interface the analysis path calls, and the
//! ground-truth oracle behind it.
//!
//! The paper's event-detection accuracy metric treats the reference NN as
//! correct on every frame it sees (labels come from the dataset's ground
//! truth), so every analysis runs [`OracleDetector`]. What the NN costs per
//! frame is measured separately, by `sieve-bench`'s cost probe.

use sieve_datasets::{LabelSet, SyntheticVideo};
use sieve_video::Frame;

/// Per-frame object detection.
pub trait ObjectDetector {
    /// Short name for tables.
    fn name(&self) -> &'static str;

    /// Detects the label set of `frame`, which is frame number `index` of
    /// the video being analysed (oracles use the index; CNNs use pixels).
    fn detect(&mut self, index: usize, frame: &Frame) -> LabelSet;
}

/// A detector that returns the dataset's ground-truth labels — the paper's
/// assumption that the reference NN (YOLOv3) is correct on decoded frames.
#[derive(Debug, Clone)]
pub struct OracleDetector {
    labels: Vec<LabelSet>,
}

impl OracleDetector {
    /// Builds an oracle from per-frame ground truth.
    // lint:allow(dead-pub): tests/end_to_end.rs scores the eval half against its own labels
    pub fn new(labels: Vec<LabelSet>) -> Self {
        Self { labels }
    }

    /// Builds an oracle for a synthetic video.
    pub fn for_video(video: &SyntheticVideo) -> Self {
        Self::new(video.labels().to_vec())
    }
}

impl ObjectDetector for OracleDetector {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn detect(&mut self, index: usize, _frame: &Frame) -> LabelSet {
        self.labels.get(index).copied().unwrap_or_default()
    }
}

/// Side length of the NN input (frames are box-downscaled to this square,
/// the analogue of resizing to the YOLO input resolution).
pub const NN_INPUT_SIZE: u32 = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};

    #[test]
    fn oracle_returns_ground_truth() {
        let spec = DatasetSpec::of(DatasetId::JacksonSquare);
        let video = spec.generate(DatasetScale::Tiny);
        let mut oracle = OracleDetector::for_video(&video);
        let f = video.frame(0);
        for i in [0usize, 100, 400] {
            assert_eq!(oracle.detect(i, &f), video.labels()[i]);
        }
        // Out of range -> empty.
        assert_eq!(oracle.detect(10_000, &f), LabelSet::empty());
    }
}
