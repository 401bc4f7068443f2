//! The frames `MseSelector` keeps on a live edge, pinned.
//!
//! Each case streams the first `FRAMES` frames of a `DatasetScale::Tiny`
//! clip through one `EdgeSession` and records the kept indices as their
//! count plus an FNV-1a hash. Two on-line rate targets and one absolute
//! threshold per clip: the rate targets hold the adaptive session's
//! controller (including the first frame's forced keep, which a session
//! must report to its controller), the threshold holds the fixed one.

use sieve_core::{EdgeOutcome, EdgeSession};
use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
use sieve_filters::{Budget, MseSelector};
use sieve_video::{EncodedVideo, EncoderConfig};

const FRAMES: usize = 300;

fn encoded(id: DatasetId) -> EncodedVideo {
    let video = DatasetSpec::of(id).generate(DatasetScale::Tiny);
    EncodedVideo::encode(
        video.resolution(),
        video.fps(),
        EncoderConfig::new(30, 0),
        video.frames().take(FRAMES),
    )
}

/// The indices one edge session of `MseSelector::mse(budget)` keeps.
fn kept(video: &EncodedVideo, budget: Budget) -> Vec<usize> {
    let mut edge = EdgeSession::open(
        &MseSelector::mse(budget),
        video.resolution(),
        video.quality(),
    );
    let mut kept = Vec::new();
    for (i, ef) in video.frames().iter().enumerate() {
        match edge.observe(i, ef.frame_type, &ef.data) {
            EdgeOutcome::Kept(_) => kept.push(i),
            EdgeOutcome::Dropped => {}
            EdgeOutcome::Failed => panic!("frame {i} failed under {budget:?}"),
        }
    }
    edge.finish().expect("finish");
    kept
}

/// `(count, FNV-1a hash)` of an index list.
fn digest(indices: &[usize]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &i in indices {
        for b in (i as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (indices.len(), h)
}

const BUDGETS: [Budget; 3] = [
    Budget::TargetRate(0.1),
    Budget::TargetRate(0.3),
    Budget::Threshold(THRESHOLD),
];

const THRESHOLD: f64 = 20.0;

/// The digests of every budget's kept set on `id`'s clip.
fn digests(id: DatasetId) -> Vec<(usize, u64)> {
    let video = encoded(id);
    BUDGETS.iter().map(|&b| digest(&kept(&video, b))).collect()
}

#[test]
fn jackson_square_kept_sets_are_pinned() {
    assert_eq!(digests(DatasetId::JacksonSquare), GOLDEN_JACKSON);
}

#[test]
fn coral_reef_kept_sets_are_pinned() {
    assert_eq!(digests(DatasetId::CoralReef), GOLDEN_CORAL);
}

const GOLDEN_JACKSON: [(usize, u64); 3] = [
    (34, 0x56b3_b274_8078_c7a0),
    (90, 0xfe59_0794_d6ee_aaeb),
    (83, 0xc1fc_9c60_e403_98e6),
];

const GOLDEN_CORAL: [(usize, u64); 3] = [
    (36, 0xef6f_e5e5_f7c4_170a),
    (100, 0xaf78_1258_ccb7_c041),
    (150, 0xebae_a267_2311_7308),
];
