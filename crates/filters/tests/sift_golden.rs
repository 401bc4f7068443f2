//! The SIFT baseline's change scores, pinned bit for bit.
//!
//! `SiftDetector::change_score` over the consecutive frame pairs of the
//! first `FRAMES` frames of two datasets' `DatasetScale::Tiny` clips, each
//! score as its `f64::to_bits`. These scores set the SIFT points of the
//! paper artifact's Fig 3 and Table II, so any drift in the pyramid, the
//! keypoint detector, the descriptors or the matcher fails here.

use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
use sieve_filters::{ChangeDetector, SiftDetector};
use sieve_video::Frame;

const FRAMES: usize = 12;

/// The score bits of `id`'s first `FRAMES` frames, one detector streaming
/// through them (so the previous frame's cached features are reused).
fn score_bits(id: DatasetId) -> Vec<u64> {
    let video = DatasetSpec::of(id).generate(DatasetScale::Tiny);
    let frames: Vec<Frame> = video.frames().take(FRAMES).collect();
    let mut detector = SiftDetector::new();
    frames
        .windows(2)
        .map(|pair| detector.change_score(&pair[0], &pair[1]).to_bits())
        .collect()
}

#[test]
fn change_scores_are_bit_exact() {
    let got = [
        score_bits(DatasetId::JacksonSquare),
        score_bits(DatasetId::CoralReef),
    ];
    assert_eq!(got, [GOLDEN_JACKSON, GOLDEN_CORAL]);
}

const GOLDEN_JACKSON: [u64; FRAMES - 1] = [
    0x3fbd_89d8_9d89_d8a0,
    0x3fbf_76b4_337c_6cb0,
    0x3fc4_bcc8_3934_ea8c,
    0x3fb7_2428_7f46_dec0,
    0x3fb4_c1ba_cf91_4c18,
    0x3fb9_df51_b3be_a368,
    0x3fa8_e879_c5e1_8e80,
    0x3fbc_0000_0000_0000,
    0x3fbd_6086_4b8a_7de8,
    0x3fb2_4924_9249_2490,
    0x3fb6_61ec_6a51_22f8,
];

const GOLDEN_CORAL: [u64; FRAMES - 1] = [
    0x3fc7_cd39_1fbc_4c2c,
    0x3fc0_5d84_1761_05d8,
    0x3fb6_5bab_0a0f_a690,
    0x3fc0_f50f_50f5_0f50,
    0x3fc2_2222_2222_2224,
    0x3fc2_9929_9299_2994,
    0x3fc0_9f95_9c42_7e58,
    0x3fc4_85f0_e0ac_d3b8,
    0x3fc0_ea92_9ba1_44cc,
    0x3fc2_5d7e_e30f_9524,
    0x3fc0_a54f_35f4_852c,
];
