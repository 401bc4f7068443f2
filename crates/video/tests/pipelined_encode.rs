//! Differential test of the two-thread encode behind
//! [`EncodedVideo::encode`] against the one-thread [`Encoder`] loop.
//!
//! The inputs are the end-to-end benchmark's tapes: the five
//! `DatasetId::ALL` scenes × GOP {60, 120} at scenecut 120, the first 300
//! frames of each `DatasetScale::Tiny` rendition of
//! `DatasetSpec::for_stream(id, seed, k)` for tape `k`, at seeds 1 and 2.
//! Every frame type and payload must equal the one-thread encoder's. An
//! eval scene's encode must also decode back to frames of its resolution.
//!
//! The edge cases pin the pipeline's contract: empty and one-frame input,
//! a mid-stream resolution change still panics with the encoder's message,
//! and a panicking input iterator reaches the caller with its own payload
//! once the coding thread has exited.

use std::panic::{self, AssertUnwindSafe};

use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
use sieve_video::{EncodedFrame, EncodedVideo, Encoder, EncoderConfig, Frame, Resolution};

const GOPS: [usize; 2] = [60, 120];
const SCENECUT: u16 = 120;
const TAPE_FRAMES: usize = 300;

/// The one-thread oracle: the decision and coding halves on one thread.
fn one_thread(res: Resolution, config: EncoderConfig, frames: &[Frame]) -> Vec<EncodedFrame> {
    let mut encoder = Encoder::new(res, config);
    frames.iter().map(|f| encoder.encode_frame(f)).collect()
}

fn assert_same(expected: &[EncodedFrame], got: &EncodedVideo, what: &str) {
    assert_eq!(got.frame_count(), expected.len(), "{what}: frame count");
    for (i, (e, g)) in expected.iter().zip(got.frames()).enumerate() {
        assert_eq!(e.frame_type, g.frame_type, "{what}: frame {i} type");
        assert_eq!(e.data, g.data, "{what}: frame {i} payload");
    }
}

#[test]
fn pipelined_encode_equals_the_one_thread_encoder_on_the_tapes() {
    let tapes = DatasetId::ALL.len() * GOPS.len();
    let cases = [1, 2]
        .into_iter()
        .flat_map(|seed| (0..tapes).map(move |k| (seed, k)));
    for (seed, k) in cases {
        let id = DatasetId::ALL[k % DatasetId::ALL.len()];
        let gop = GOPS[k / DatasetId::ALL.len()];
        let video = DatasetSpec::for_stream(id, seed, k as u64).generate(DatasetScale::Tiny);
        let frames: Vec<Frame> = video.frames().take(TAPE_FRAMES).collect();
        let config = EncoderConfig::new(gop, SCENECUT);
        let res = video.resolution();
        let expected = one_thread(res, config, &frames);
        let got = EncodedVideo::encode(res, video.fps(), config, frames);
        assert_same(
            &expected,
            &got,
            &format!("seed {seed} tape {k} ({id:?}, GOP {gop})"),
        );
    }
}

#[test]
fn pipelined_bitstream_roundtrips_through_the_decoder() {
    let video = DatasetSpec::of(DatasetId::JacksonSquare).generate(DatasetScale::Tiny);
    let frames: Vec<Frame> = video.frames().take(40).collect();
    let res = video.resolution();
    let encoded = EncodedVideo::encode(res, video.fps(), EncoderConfig::new(8, 120), frames);
    assert!(encoded.i_frame_indices().len() >= 2, "several GOPs");
    let decoded = encoded.decode_all().expect("pipelined bitstream decodes");
    assert_eq!(decoded.len(), 40);
    for (i, f) in decoded.iter().enumerate() {
        assert_eq!(f.resolution(), res, "frame {i} resolution");
    }
}

/// Textured frames whose content moves, so the sequence mixes I and P.
fn moving(res: Resolution, n: usize) -> Vec<Frame> {
    let (w, h) = (res.width() as usize, res.height() as usize);
    (0..n)
        .map(|t| {
            let mut f = Frame::grey(res);
            for y in 0..h {
                for x in 0..w {
                    let v = (((x + 5 * t) * 11 + y * 7) % 170) as u8 + 30;
                    f.y_mut().put(x, y, v);
                }
            }
            f
        })
        .collect()
}

#[test]
fn empty_and_one_frame_inputs() {
    let res = Resolution::new(48, 32);
    let config = EncoderConfig::new(4, 100);
    assert_eq!(EncodedVideo::encode(res, 30, config, []).frame_count(), 0);
    let one = moving(res, 1);
    let expected = one_thread(res, config, &one);
    assert_same(
        &expected,
        &EncodedVideo::encode(res, 30, config, one),
        "one frame",
    );
}

#[test]
fn a_longer_input_than_the_pipeline_is_deep() {
    let res = Resolution::new(48, 32);
    let config = EncoderConfig::new(5, 100);
    let frames = moving(res, 23);
    let expected = one_thread(res, config, &frames);
    // A lying size hint must not matter: pull the frames one at a time.
    let mut it = frames.into_iter();
    let video = EncodedVideo::encode(res, 30, config, std::iter::from_fn(|| it.next()));
    assert_same(&expected, &video, "23 frames");
}

#[test]
#[should_panic(expected = "frame resolution changed mid-stream")]
fn a_mid_stream_resolution_change_panics() {
    let res = Resolution::new(48, 32);
    let mut frames = moving(res, 6);
    frames.push(Frame::grey(Resolution::new(32, 32)));
    frames.extend(moving(res, 6));
    EncodedVideo::encode(res, 30, EncoderConfig::new(4, 100), frames);
}

#[test]
fn a_panicking_input_propagates_its_panic() {
    let res = Resolution::new(48, 32);
    let frames = moving(res, 12);
    let mut pulled = 0;
    let input = frames.into_iter().inspect(|_| {
        pulled += 1;
        if pulled == 9 {
            panic!("camera unplugged");
        }
    });
    // Returning at all means the coding thread was joined: the scope
    // waits for it before the panic leaves `encode`.
    let payload = panic::catch_unwind(AssertUnwindSafe(|| {
        EncodedVideo::encode(res, 30, EncoderConfig::new(4, 100), input)
    }))
    .expect_err("the input's panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"camera unplugged"));
}
