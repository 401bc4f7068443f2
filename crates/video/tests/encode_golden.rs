//! The encoder's output on the end-to-end benchmark's tapes, pinned byte
//! for byte.
//!
//! `golden/encode_v1.txt` holds one line per tape: the seed, the tape
//! index, the frame count, the I-frame indices, the FNV-1a hash of every
//! payload (each prefixed by its length) and the FNV-1a hash of the
//! lookahead's `RatioTrace` (each ratio's `f64` bits, `u64::MAX` for the
//! first frame's missing one). It was captured from the encoder whose
//! motion search clamped every out-of-picture sample, before the search
//! moved onto edge-padded planes; any drift in the search, the coded
//! residuals or the ratio pass fails here.
//!
//! The tapes are `pipelined_encode.rs`'s: the five `DatasetId::ALL` scenes
//! × GOP {60, 120} at scenecut 120, the first 300 frames of each
//! `DatasetScale::Tiny` rendition of `DatasetSpec::for_stream(id, seed, k)`
//! for tape `k`, at seeds 1 and 2, plus a 40-frame cut of seed 1's tape 0.

use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
use sieve_video::{EncodedVideo, EncoderConfig, Frame, RatioTrace};

const GOLDEN: &str = include_str!("golden/encode_v1.txt");
const GOPS: [usize; 2] = [60, 120];
const SCENECUT: u16 = 120;
const TAPE_FRAMES: usize = 300;
const SHORT_FRAMES: usize = 40;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, data: &[u8]) -> u64 {
    data.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The golden line of `frames` rendered frames of tape `k` at `seed`.
fn line(seed: u64, k: usize, frames: usize) -> String {
    let id = DatasetId::ALL[k % DatasetId::ALL.len()];
    let gop = GOPS[k / DatasetId::ALL.len()];
    let video = DatasetSpec::for_stream(id, seed, k as u64).generate(DatasetScale::Tiny);
    let frames: Vec<Frame> = video.frames().take(frames).collect();
    let config = EncoderConfig::new(gop, SCENECUT);
    let trace = RatioTrace::measure(config.search_range, &frames);
    let ratios = trace.ratios().iter().fold(FNV_OFFSET, |h, r| {
        fnv1a(h, &r.map_or(u64::MAX, f64::to_bits).to_le_bytes())
    });
    let n = frames.len();
    let encoded = EncodedVideo::encode(video.resolution(), video.fps(), config, frames);
    let payloads = encoded.frames().iter().fold(FNV_OFFSET, |h, f| {
        fnv1a(fnv1a(h, &(f.data.len() as u32).to_le_bytes()), &f.data)
    });
    let i_frames: Vec<String> = encoded
        .i_frame_indices()
        .iter()
        .map(usize::to_string)
        .collect();
    format!(
        "{seed} {k} {n} {} {payloads:016x} {ratios:016x}",
        i_frames.join(",")
    )
}

#[test]
fn tapes_encode_to_the_captured_bytes() {
    let tapes = DatasetId::ALL.len() * GOPS.len();
    let tape_cases = [1, 2]
        .into_iter()
        .flat_map(|seed| (0..tapes).map(move |k| (seed, k, TAPE_FRAMES)));
    for (seed, k, frames) in [(1, 0, SHORT_FRAMES)].into_iter().chain(tape_cases) {
        let got = line(seed, k, frames);
        let key = format!("{seed} {k} {frames} ");
        let want = GOLDEN
            .lines()
            .find(|l| l.starts_with(&key))
            .unwrap_or_else(|| panic!("no golden line for `{key}`; encoded:\n{got}"));
        assert_eq!(got, want, "(seed tape frames i-frames payloads ratios)");
    }
}
