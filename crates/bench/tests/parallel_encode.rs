//! End-to-end GOP-parallel encode audit on the synthetic eval scenes.
//!
//! The unit tests in `sieve_video::parallel` cover byte-identity on small
//! hand-built frames; this umbrella test runs the real pipeline the bench
//! and harness use — `sieve_datasets` scenes through [`EncodedVideo`] — and
//! checks that for every worker count the parallel bitstream is
//! byte-identical to the one-thread [`Encoder`] loop's and still decodes.

use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
use sieve_video::{EncodedFrame, EncodedVideo, Encoder, EncoderConfig, Frame, FrameType};

const FRAME_CAP: usize = 40;

fn scene_frames(id: DatasetId) -> (Vec<Frame>, sieve_video::Resolution, u32) {
    let spec = DatasetSpec::of(id);
    let video = spec.generate(DatasetScale::Tiny);
    let n = video.frame_count().min(FRAME_CAP);
    let frames: Vec<Frame> = (0..n).map(|i| video.frame(i)).collect();
    (frames, video.resolution(), video.fps())
}

#[test]
fn gop_parallel_is_byte_identical_on_eval_scenes() {
    // A short keyframe interval guarantees several GOPs inside the frame
    // cap, so worker counts above 1 genuinely split the work.
    let config = EncoderConfig::new(8, 120);

    for id in [DatasetId::JacksonSquare, DatasetId::CoralReef] {
        let (frames, res, fps) = scene_frames(id);
        let mut encoder = Encoder::new(res, config);
        let sequential: Vec<EncodedFrame> =
            frames.iter().map(|f| encoder.encode_frame(f)).collect();
        let i_frames = sequential
            .iter()
            .filter(|f| f.frame_type == FrameType::I)
            .count();
        assert!(
            i_frames >= 2,
            "{id:?}: expected several GOPs, got {i_frames}"
        );

        for workers in [1, 2, 5] {
            let parallel = EncodedVideo::encode_parallel(res, fps, config, &frames, workers);
            assert_eq!(
                parallel.frame_count(),
                sequential.len(),
                "{id:?} w={workers}: frame count"
            );
            for (i, (s, p)) in sequential.iter().zip(parallel.frames()).enumerate() {
                assert_eq!(
                    s.frame_type, p.frame_type,
                    "{id:?} w={workers}: frame {i} type"
                );
                assert_eq!(s.data, p.data, "{id:?} w={workers}: frame {i} payload");
            }
        }
    }
}

#[test]
fn parallel_bitstream_roundtrips_through_the_decoder() {
    let (frames, res, fps) = scene_frames(DatasetId::JacksonSquare);
    let config = EncoderConfig::new(8, 120);
    let encoded = EncodedVideo::encode_parallel(res, fps, config, &frames, 4);
    let decoded = encoded.decode_all().expect("parallel bitstream decodes");
    assert_eq!(decoded.len(), frames.len());
    for (i, f) in decoded.iter().enumerate() {
        assert_eq!(f.resolution(), res, "frame {i} resolution");
    }
}
