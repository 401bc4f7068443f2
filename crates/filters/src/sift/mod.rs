//! SIFT-lite: scale-space keypoints, 128-d descriptors, ratio-test matching.
//!
//! A from-scratch implementation of the parts of SIFT (Lowe 2004) that the
//! paper's baseline uses: detect keypoints in each decoded frame, match them
//! against the previous frame, and declare a change when the matched
//! fraction drops. Rotation invariance is omitted (fixed cameras).
//!
//! The pipeline is deliberately *expensive per frame* — pyramid construction,
//! per-keypoint descriptors, brute-force matching — because its cost is part
//! of what the paper measures (Table III: SIFT is the slowest baseline).

mod descriptor;
mod image;
mod keypoint;
mod matcher;
mod pyramid;

use sieve_video::Frame;

use crate::detector::ChangeDetector;
use descriptor::{describe, Descriptor};
use image::GrayImage;
use keypoint::detect;
use pyramid::Pyramid;

/// Extracts SIFT descriptors from a frame's luma plane.
fn extract(frame: &Frame) -> Vec<Descriptor> {
    let img = GrayImage::from_luma(frame.y());
    let pyramid = Pyramid::build(&img);
    let kps = detect(&pyramid);
    describe(&pyramid, &kps)
}

/// SIFT-matching change detector. Caches the previous frame's descriptors so
/// each frame is described once.
#[derive(Debug, Clone, Default)]
pub struct SiftDetector {
    prev_features: Option<Vec<Descriptor>>,
}

impl SiftDetector {
    /// Creates a detector with default parameters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ChangeDetector for SiftDetector {
    fn name(&self) -> &'static str {
        "SIFT"
    }

    fn change_score(&mut self, prev: &Frame, cur: &Frame) -> f64 {
        let prev_features = match self.prev_features.take() {
            Some(f) => f,
            None => extract(prev),
        };
        let cur_features = extract(cur);
        let score = matcher::change_score(&prev_features, &cur_features);
        self.prev_features = Some(cur_features);
        score
    }

    fn reset(&mut self) {
        self.prev_features = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_video::{Frame, Resolution};

    fn scene_frame(seed: u64, with_object: bool) -> Frame {
        let res = Resolution::new(96, 96);
        let mut f = Frame::grey(res);
        for y in 0..96usize {
            for x in 0..96usize {
                // Textured background with some blob structure.
                let v = 90.0
                    + 50.0 * ((x as f32 / 13.0).sin() * (y as f32 / 11.0).cos())
                    + ((x as u64 * 31 + y as u64 * 17 + seed) % 13) as f32;
                f.y_mut().put(x, y, v.clamp(0.0, 255.0) as u8);
            }
        }
        if with_object {
            for y in 30..60usize {
                for x in 20..70usize {
                    let d2 = ((x as f32 - 45.0).powi(2) + (y as f32 - 45.0).powi(2)) / 120.0;
                    if d2 < 1.5 {
                        f.y_mut().put(x, y, (230.0 * (-d2).exp()).max(160.0) as u8);
                    }
                }
            }
        }
        f
    }

    #[test]
    fn same_scene_scores_low() {
        let mut d = SiftDetector::new();
        let a = scene_frame(0, false);
        let b = scene_frame(0, false);
        let score = d.change_score(&a, &b);
        assert!(score < 0.3, "identical scenes must score low: {score}");
    }

    #[test]
    fn object_entry_scores_higher_than_static() {
        let mut d = SiftDetector::new();
        let bg0 = scene_frame(0, false);
        let bg1 = scene_frame(0, false);
        let with_obj = scene_frame(0, true);
        let static_score = d.change_score(&bg0, &bg1);
        d.reset();
        let entry_score = d.change_score(&bg1, &with_obj);
        assert!(
            entry_score > static_score,
            "object entry ({entry_score}) must exceed static ({static_score})"
        );
    }

    #[test]
    fn cache_matches_fresh_computation() {
        let frames = [
            scene_frame(0, false),
            scene_frame(0, true),
            scene_frame(0, false),
        ];
        // With cache (sequential).
        let mut d = SiftDetector::new();
        let s1 = d.change_score(&frames[0], &frames[1]);
        let s2 = d.change_score(&frames[1], &frames[2]);
        // Without cache.
        let mut d2 = SiftDetector::new();
        let f1 = d2.change_score(&frames[0], &frames[1]);
        d2.reset();
        let f2 = d2.change_score(&frames[1], &frames[2]);
        assert_eq!(s1, f1);
        assert_eq!(s2, f2);
    }

    #[test]
    fn detector_name() {
        assert_eq!(SiftDetector::new().name(), "SIFT");
    }
}
