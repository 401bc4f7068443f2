//! The dataset registry: synthetic analogues of the paper's Table I.
//!
//! | Paper dataset  | Objects            | Resolution | Labels | Our analogue |
//! |----------------|--------------------|------------|--------|--------------|
//! | Jackson square | car, bus, truck    | 600x400    | yes    | close-up vehicles, calm background |
//! | Coral reef     | person             | 1280x720   | yes    | small figures, rippling water background |
//! | Venice         | boat               | 1920x1080  | yes    | small boats shot from far, strong ripple |
//! | Taipei         | car, person        | 1920x1080  | no     | mixed traffic, flicker (used unlabelled) |
//! | Amsterdam      | car, person        | 1280x720   | no     | road intersection (used unlabelled) |
//!
//! The paper records 8 h per labelled dataset (4 h train + 4 h eval) at
//! 30 fps. Rendering hours of full-HD video is pointless on a laptop-scale
//! reproduction, so each dataset supports three [`DatasetScale`]s; the
//! *relative* structure (events per minute, object scale, dynamics) is
//! preserved and frame counts are always reported next to results.

use sieve_video::Resolution;

use crate::labels::ObjectClass;
use crate::scene::SceneConfig;
use crate::schedule::ScheduleParams;
use crate::video::{SyntheticVideo, VideoConfig};

/// How large a rendition of a dataset to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetScale {
    /// A few hundred frames at reduced resolution — unit/integration tests.
    Tiny,
    /// A couple of thousand frames at reduced resolution — quick harness
    /// runs.
    Small,
    /// Tens of thousands of frames at the paper's resolution — bench runs.
    Full,
}

impl DatasetScale {
    /// Duration in frames at this scale.
    pub fn duration_frames(&self) -> usize {
        match self {
            DatasetScale::Tiny => 600,
            DatasetScale::Small => 3_000,
            DatasetScale::Full => 27_000, // 15 minutes at 30 fps
        }
    }

    /// Resolution divisor applied to the paper resolution (tiny/small scale
    /// down to keep codec work tractable in debug builds).
    fn shrink(&self, paper: Resolution) -> Resolution {
        let div = match self {
            DatasetScale::Tiny => 5,
            DatasetScale::Small => 4,
            DatasetScale::Full => 2,
        };
        // Round to multiples of 16 for clean macroblock tiling.
        let w = ((paper.width() / div / 16).max(4)) * 16;
        let h = ((paper.height() / div / 16).max(3)) * 16;
        Resolution::new(w, h)
    }
}

/// Identifier of one of the five paper datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// "Jackson town square" — vehicles, close-up, labelled.
    JacksonSquare,
    /// "Coral reef" — people in an aquarium, labelled.
    CoralReef,
    /// "Venice" — boats in the lagoon, labelled.
    Venice,
    /// "Taipei" — vehicles and people, unlabelled.
    Taipei,
    /// "Amsterdam" — road intersection, unlabelled.
    Amsterdam,
}

impl DatasetId {
    /// All five datasets in Table I order.
    pub const ALL: [DatasetId; 5] = [
        DatasetId::JacksonSquare,
        DatasetId::CoralReef,
        DatasetId::Venice,
        DatasetId::Taipei,
        DatasetId::Amsterdam,
    ];

    /// The three datasets with ground-truth labels.
    pub const LABELLED: [DatasetId; 3] = [
        DatasetId::JacksonSquare,
        DatasetId::CoralReef,
        DatasetId::Venice,
    ];
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DatasetId::JacksonSquare => "Jackson square",
            DatasetId::CoralReef => "Coral reef",
            DatasetId::Venice => "Venice",
            DatasetId::Taipei => "Taipei",
            DatasetId::Amsterdam => "Amsterdam",
        };
        write!(f, "{s}")
    }
}

/// Static description of a dataset (the row of Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which dataset this is.
    pub id: DatasetId,
    /// Object classes that appear.
    pub classes: Vec<ObjectClass>,
    /// The resolution quoted in the paper.
    pub paper_resolution: Resolution,
    /// Frames per second.
    pub fps: u32,
    /// Whether ground-truth labels are available (Table I "labels?" column).
    pub has_labels: bool,
    /// Nominal object height as a fraction of frame height.
    pub object_scale: f32,
    /// Background ripple amplitude in pixels (water/foliage).
    pub ripple_amplitude: f32,
    /// Camera jitter amplitude in pixels at the paper resolution.
    pub jitter_amplitude: f32,
    /// Sensor noise sigma.
    pub noise_sigma: f32,
    /// Global flicker amplitude.
    pub flicker_amplitude: f32,
    /// Mean arrival gap in seconds.
    pub mean_gap_secs: f64,
    /// Mean dwell in seconds.
    pub mean_dwell_secs: f64,
    /// Maximum simultaneously visible objects.
    pub max_concurrent: usize,
    /// Human description (Table I's description column).
    pub description: &'static str,
    /// Deterministic seed for this dataset.
    pub seed: u64,
}

/// Derives one stream's RNG seed from a fleet-wide seed and the stream's
/// id (SplitMix64-style finalizer over the pair). Multi-stream runs seed
/// every synthetic stream through this, so the rendered frames depend only
/// on `(fleet_seed, stream_id)` — never on worker scheduling, join order
/// or shard count — and any stream of a fleet run can be regenerated in
/// isolation.
fn stream_seed(fleet_seed: u64, stream_id: u64) -> u64 {
    let mut z = fleet_seed
        .rotate_left(17)
        .wrapping_add(stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DatasetSpec {
    /// The spec of dataset `id`, reseeded for stream `stream_id` of a
    /// fleet run: same event statistics and dynamics as
    /// [`DatasetSpec::of`], but an independent, reproducible realisation
    /// per `(fleet_seed, stream_id)` pair.
    pub fn for_stream(id: DatasetId, fleet_seed: u64, stream_id: u64) -> Self {
        let mut spec = Self::of(id);
        spec.seed = stream_seed(fleet_seed ^ spec.seed, stream_id);
        spec
    }

    /// The spec of dataset `id`.
    pub fn of(id: DatasetId) -> Self {
        match id {
            DatasetId::JacksonSquare => Self {
                id,
                classes: vec![ObjectClass::Car, ObjectClass::Bus, ObjectClass::Truck],
                paper_resolution: Resolution::new(600, 400),
                fps: 30,
                has_labels: true,
                object_scale: 0.30,
                ripple_amplitude: 0.0,
                jitter_amplitude: 6.0,
                noise_sigma: 1.5,
                flicker_amplitude: 1.0,
                mean_gap_secs: 9.0,
                mean_dwell_secs: 5.0,
                max_concurrent: 2,
                description: "vehicles going back and forth in a public square",
                seed: 0x1ACC_5045,
            },
            DatasetId::CoralReef => Self {
                id,
                classes: vec![ObjectClass::Person],
                paper_resolution: Resolution::new(1280, 720),
                fps: 30,
                has_labels: true,
                object_scale: 0.40,
                ripple_amplitude: 3.0,
                jitter_amplitude: 2.0,
                noise_sigma: 1.2,
                flicker_amplitude: 1.5,
                mean_gap_secs: 6.0,
                mean_dwell_secs: 4.0,
                max_concurrent: 2,
                description: "people watching coral reefs in an aquarium",
                seed: 0xC0AA_15EE,
            },
            DatasetId::Venice => Self {
                id,
                classes: vec![ObjectClass::Boat],
                paper_resolution: Resolution::new(1920, 1080),
                fps: 30,
                has_labels: true,
                object_scale: 0.14,
                ripple_amplitude: 10.0,
                jitter_amplitude: 4.0,
                noise_sigma: 1.2,
                flicker_amplitude: 1.0,
                mean_gap_secs: 14.0,
                mean_dwell_secs: 8.0,
                max_concurrent: 2,
                description: "boats moving in the lagoon",
                seed: 0x7E41_CEAA,
            },
            DatasetId::Taipei => Self {
                id,
                classes: vec![ObjectClass::Car, ObjectClass::Person],
                paper_resolution: Resolution::new(1920, 1080),
                fps: 30,
                has_labels: false,
                object_scale: 0.18,
                ripple_amplitude: 0.3,
                jitter_amplitude: 5.0,
                noise_sigma: 2.0,
                flicker_amplitude: 2.0,
                mean_gap_secs: 5.0,
                mean_dwell_secs: 4.0,
                max_concurrent: 3,
                description: "vehicles and people in a public square in Taipei",
                seed: 0x7A1B_E100,
            },
            DatasetId::Amsterdam => Self {
                id,
                classes: vec![ObjectClass::Car, ObjectClass::Person],
                paper_resolution: Resolution::new(1280, 720),
                fps: 30,
                has_labels: false,
                object_scale: 0.16,
                ripple_amplitude: 0.2,
                jitter_amplitude: 4.0,
                noise_sigma: 1.5,
                flicker_amplitude: 1.5,
                mean_gap_secs: 6.0,
                mean_dwell_secs: 5.0,
                max_concurrent: 3,
                description: "road intersections in Amsterdam",
                seed: 0xA857_E9DA,
            },
        }
    }

    /// All five specs in Table I order.
    pub fn all() -> Vec<DatasetSpec> {
        DatasetId::ALL.into_iter().map(Self::of).collect()
    }

    /// The resolution used at `scale`.
    fn resolution_at(&self, scale: DatasetScale) -> Resolution {
        scale.shrink(self.paper_resolution)
    }

    /// Builds the full video configuration at `scale`.
    fn video_config(&self, scale: DatasetScale) -> VideoConfig {
        let resolution = self.resolution_at(scale);
        // Object and ripple sizes follow the resolution shrink so the scene
        // keeps its proportions.
        let scene = SceneConfig {
            resolution,
            fps: self.fps,
            noise_sigma: self.noise_sigma,
            ripple_amplitude: self.ripple_amplitude * resolution.height() as f32
                / self.paper_resolution.height() as f32
                * 1.5,
            ripple_wavelength: (resolution.height() as f32).max(48.0),
            flicker_amplitude: self.flicker_amplitude,
            flicker_period: self.fps as f32 * 8.0,
            jitter_amplitude: self.jitter_amplitude * resolution.height() as f32
                / self.paper_resolution.height() as f32
                * 1.5,
            seed: self.seed,
        };
        // Tiny/Small renditions compress inter-event time so short clips
        // still contain a useful number of events; event *structure* (the
        // ratio of dwell to gap, object sizes, dynamics) is preserved.
        let compress = match scale {
            DatasetScale::Tiny => 4.0,
            DatasetScale::Small => 2.0,
            DatasetScale::Full => 1.0,
        };
        let schedule = ScheduleParams {
            duration_frames: scale.duration_frames(),
            mean_gap: self.mean_gap_secs * self.fps as f64 / compress,
            mean_dwell: self.mean_dwell_secs * self.fps as f64 / compress,
            min_span: self.fps as usize / 2,
            max_concurrent: self.max_concurrent,
        };
        VideoConfig {
            scene,
            schedule,
            classes: self.classes.clone(),
            object_scale: self.object_scale,
        }
    }

    /// Generates the synthetic video at `scale`.
    pub fn generate(&self, scale: DatasetScale) -> SyntheticVideo {
        SyntheticVideo::generate(self.video_config(scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_datasets_match_table_i() {
        let all = DatasetSpec::all();
        assert_eq!(all.len(), 5);
        assert_eq!(
            all.iter().filter(|s| s.has_labels).count(),
            3,
            "three labelled datasets per Table I"
        );
        let jackson = &all[0];
        assert_eq!(jackson.paper_resolution, Resolution::new(600, 400));
        assert_eq!(jackson.classes.len(), 3);
        let venice = &all[2];
        assert_eq!(venice.classes, vec![ObjectClass::Boat]);
        assert_eq!(venice.paper_resolution, Resolution::new(1920, 1080));
    }

    #[test]
    fn scales_shrink_resolution() {
        let spec = DatasetSpec::of(DatasetId::Venice);
        let tiny = spec.resolution_at(DatasetScale::Tiny);
        let full = spec.resolution_at(DatasetScale::Full);
        assert!(tiny.width() < full.width());
        assert_eq!(tiny.width() % 16, 0);
        assert_eq!(full.height() % 16, 0);
    }

    #[test]
    fn object_scales_reflect_camera_distance() {
        // Jackson is close-up (big vehicles), Venice far (small boats).
        let jackson = DatasetSpec::of(DatasetId::JacksonSquare);
        let venice = DatasetSpec::of(DatasetId::Venice);
        assert!(jackson.object_scale > 2.0 * venice.object_scale);
    }

    #[test]
    fn tiny_generation_has_events() {
        let spec = DatasetSpec::of(DatasetId::JacksonSquare);
        let v = spec.generate(DatasetScale::Tiny);
        assert_eq!(v.frame_count(), DatasetScale::Tiny.duration_frames());
        let events = v.events();
        assert!(
            events.len() >= 2,
            "tiny dataset should still contain events, got {}",
            events.len()
        );
    }

    #[test]
    fn stream_seeds_are_deterministic_and_spread() {
        assert_eq!(stream_seed(1, 2), stream_seed(1, 2));
        assert_ne!(stream_seed(1, 2), stream_seed(1, 3));
        assert_ne!(stream_seed(1, 2), stream_seed(2, 2));
        assert_ne!(stream_seed(1, 2), stream_seed(2, 1), "pair order matters");
        assert_ne!(stream_seed(7, 3), stream_seed(3, 7), "mix is asymmetric");
        // Sequential stream ids must not collapse to nearby seeds.
        let seeds: Vec<u64> = (0..64).map(|i| stream_seed(9, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "no collisions across a 64-stream fleet");
    }

    #[test]
    fn for_stream_varies_realisation_not_structure() {
        let base = DatasetSpec::of(DatasetId::CoralReef);
        let s0 = DatasetSpec::for_stream(DatasetId::CoralReef, 11, 0);
        let s1 = DatasetSpec::for_stream(DatasetId::CoralReef, 11, 1);
        assert_ne!(s0.seed, s1.seed);
        assert_ne!(s0.seed, base.seed);
        // Everything but the seed is the Table I row.
        assert_eq!(s0.classes, base.classes);
        assert_eq!(s0.paper_resolution, base.paper_resolution);
        assert_eq!(s0.mean_gap_secs, base.mean_gap_secs);
        // Different realisations render different frames...
        let v0 = s0.generate(DatasetScale::Tiny);
        let v1 = s1.generate(DatasetScale::Tiny);
        assert_ne!(v0.frame(0), v1.frame(0));
        // ...and regeneration is exact.
        let again =
            DatasetSpec::for_stream(DatasetId::CoralReef, 11, 0).generate(DatasetScale::Tiny);
        assert_eq!(v0.frame(33), again.frame(33));
    }

    #[test]
    fn display_names() {
        assert_eq!(DatasetId::JacksonSquare.to_string(), "Jackson square");
        assert_eq!(DatasetId::CoralReef.to_string(), "Coral reef");
    }
}
