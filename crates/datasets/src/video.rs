//! A complete synthetic video: schedule + renderer + ground truth.

use sieve_video::{Frame, Resolution};

use crate::labels::{segment_events, Event, LabelSet, ObjectClass};
use crate::scene::{Renderer, SceneConfig};
use crate::schedule::{Schedule, ScheduleParams};

/// Full description of a synthetic camera feed, sufficient to regenerate
/// every frame and its ground truth deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoConfig {
    /// Scene rendering parameters.
    pub scene: SceneConfig,
    /// Object arrival process.
    pub schedule: ScheduleParams,
    /// Classes that can appear.
    pub classes: Vec<ObjectClass>,
    /// Nominal object height as a fraction of the frame height (the paper's
    /// "close-up vs far" distinction that drives per-camera tuning).
    pub object_scale: f32,
}

/// A generated synthetic video with on-demand frame rendering.
///
/// ```
/// use sieve_datasets::{SyntheticVideo, VideoConfig, SceneConfig, ObjectClass};
/// use sieve_datasets::schedule::ScheduleParams;
/// use sieve_video::Resolution;
///
/// let cfg = VideoConfig {
///     scene: SceneConfig::calm(Resolution::new(96, 64), 1),
///     schedule: ScheduleParams::with_duration(120),
///     classes: vec![ObjectClass::Car],
///     object_scale: 0.25,
/// };
/// let video = SyntheticVideo::generate(cfg);
/// assert_eq!(video.frame_count(), 120);
/// let f = video.frame(0);
/// assert_eq!(f.resolution(), Resolution::new(96, 64));
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    config: VideoConfig,
    renderer: Renderer,
    schedule: Schedule,
    labels: Vec<LabelSet>,
}

impl SyntheticVideo {
    /// Generates the schedule and background for `config`.
    pub fn generate(config: VideoConfig) -> Self {
        let base_height = config.object_scale * config.scene.resolution.height() as f32;
        let schedule = Schedule::generate(
            config.schedule,
            &config.classes,
            config.scene.resolution.width(),
            config.scene.resolution.height(),
            base_height,
            config.scene.seed ^ 0x5C4E_D01E,
        );
        let labels = schedule.frame_labels();
        let renderer = Renderer::new(config.scene.clone());
        Self {
            config,
            renderer,
            schedule,
            labels,
        }
    }

    /// The configuration this video was generated from.
    pub fn config(&self) -> &VideoConfig {
        &self.config
    }

    /// Resolution shortcut.
    pub fn resolution(&self) -> Resolution {
        self.config.scene.resolution
    }

    /// Frames per second shortcut.
    pub fn fps(&self) -> u32 {
        self.config.scene.fps
    }

    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        self.config.schedule.duration_frames
    }

    /// The arrival schedule (object instances).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Renders frame `index` (deterministic, random access).
    ///
    /// # Panics
    ///
    /// Panics if `index >= frame_count()`.
    pub fn frame(&self, index: usize) -> Frame {
        assert!(index < self.frame_count(), "frame index out of range");
        let visible: Vec<_> = self.schedule.renderable_at(index).collect();
        self.renderer.render(index, &visible)
    }

    /// Iterator over all frames in display order.
    pub fn frames(&self) -> impl Iterator<Item = Frame> + '_ {
        (0..self.frame_count()).map(move |i| self.frame(i))
    }

    /// Ground-truth label set per frame.
    pub fn labels(&self) -> &[LabelSet] {
        &self.labels
    }

    /// Ground-truth events (maximal constant-label runs).
    pub fn events(&self) -> Vec<Event> {
        segment_events(&self.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_video(seed: u64) -> SyntheticVideo {
        let mut scene = SceneConfig::calm(Resolution::new(96, 64), seed);
        scene.noise_sigma = 1.0;
        let cfg = VideoConfig {
            scene,
            schedule: ScheduleParams {
                duration_frames: 300,
                mean_gap: 60.0,
                mean_dwell: 50.0,
                min_span: 15,
                max_concurrent: 1,
            },
            classes: vec![ObjectClass::Car],
            object_scale: 0.25,
        };
        SyntheticVideo::generate(cfg)
    }

    #[test]
    fn frame_count_and_labels_align() {
        let v = small_video(3);
        assert_eq!(v.labels().len(), v.frame_count());
        assert_eq!(v.frames().count(), v.frame_count());
    }

    #[test]
    fn deterministic_regeneration() {
        let a = small_video(3);
        let b = small_video(3);
        assert_eq!(a.frame(37), b.frame(37));
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn events_cover_video() {
        let v = small_video(4);
        let events = v.events();
        let total: usize = events.iter().map(|e| e.len).sum();
        assert_eq!(total, v.frame_count());
        assert!(!events.is_empty());
    }

    #[test]
    fn labelled_frames_contain_object_pixels() {
        let v = small_video(5);
        // Find a frame with a car and compare against the label-free render.
        let Some(idx) = v.labels().iter().position(|l| !l.is_empty()) else {
            panic!("expected at least one event in 300 frames");
        };
        let with = v.frame(idx);
        // Render same frame without objects via a fresh renderer.
        let empty = Renderer::new(v.config().scene.clone()).render(idx, &[]);
        assert_ne!(with, empty);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frame_out_of_range_panics() {
        let v = small_video(6);
        let _ = v.frame(10_000);
    }
}
