//! Shared set-up: the ten encoded tapes every workload replays, and the
//! pure mapping from a stream to its place on a tape.
//!
//! Ten tapes — the five `DatasetId::ALL` scenes × GOP {60, 120} — are
//! generated and encoded once per set-up and shared by all streams.
//! Stream `s` replays tape `s % 10` starting at its `(s / 10)`-th I-frame
//! and wraps to frame 0 (always an I-frame), so cameras sharing a tape are
//! not I-frame-locked to each other.

use std::time::Instant;

use sieve_datasets::{DatasetId, DatasetScale, DatasetSpec};
use sieve_video::{EncodedFrame, EncodedVideo, EncoderConfig, FrameType, Resolution};

use crate::trace::Tracer;

/// GOP sizes crossed with the five scenes.
const GOPS: [usize; 2] = [60, 120];
/// Scenecut sensitivity of every tape (the repo's fleet benches use 120).
const SCENECUT: u16 = 120;
/// Frames per tape: the first half of a `DatasetScale::Tiny` rendition,
/// which keeps three set-ups per run inside the run's time budget.
pub const TAPE_FRAMES: usize = 300;
/// Tapes per set-up.
pub const TAPES: usize = DatasetId::ALL.len() * GOPS.len();

/// One encoded synthetic camera recording.
pub struct Tape {
    pub video: EncodedVideo,
    /// The encoder's maximum I-frame distance.
    pub gop: usize,
    /// Indices of the I-frames, ascending; `i_frames[0] == 0`.
    pub i_frames: Vec<usize>,
}

impl Tape {
    pub fn frames(&self) -> &[EncodedFrame] {
        self.video.frames()
    }

    pub fn resolution(&self) -> Resolution {
        self.video.resolution()
    }

    pub fn quality(&self) -> u8 {
        self.video.quality()
    }
}

/// Generates and encodes the ten tapes from `seed`. With a tracer, every
/// tape's encode is a `video.encode` span whose children are the
/// `datasets.generate` spans of the frames rendered on demand inside it, so
/// the encoder's self time is codec time and the traced set-up splits
/// `setup_s` by layer.
pub fn build_tapes(seed: u64, mut tracer: Option<&mut Tracer>) -> Vec<Tape> {
    let mut tapes = Vec::with_capacity(TAPES);
    for k in 0..TAPES {
        let id = DatasetId::ALL[k % DatasetId::ALL.len()];
        let gop = GOPS[k / DatasetId::ALL.len()];
        let spec = DatasetSpec::for_stream(id, seed, k as u64);
        let t0 = Instant::now();
        let video = spec.generate(DatasetScale::Tiny);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("datasets.generate", t0, Instant::now(), k as u64);
        }
        let span = tracer
            .as_deref_mut()
            .map(|tr| tr.begin("video.encode", k as u64));
        let mut rendered = video.frames().take(TAPE_FRAMES);
        let frames = std::iter::from_fn(|| {
            let t0 = Instant::now();
            let frame = rendered.next();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record("datasets.generate", t0, Instant::now(), k as u64);
            }
            frame
        });
        let encoded = EncodedVideo::encode(
            video.resolution(),
            video.fps(),
            EncoderConfig::new(gop, SCENECUT),
            frames,
        );
        if let (Some(tr), Some(span)) = (tracer.as_deref_mut(), span) {
            tr.end(span);
        }
        let i_frames = encoded.i_frame_indices();
        assert_eq!(
            i_frames.first(),
            Some(&0),
            "a tape must open on an I-frame so the wrap to frame 0 is decodable"
        );
        tapes.push(Tape {
            video: encoded,
            gop,
            i_frames,
        });
    }
    tapes
}

/// Where stream `s` sits on which tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    pub tape: usize,
    /// Tape frame the stream's frame 0 maps to (an I-frame).
    pub start: usize,
}

/// Stream `s` replays tape `s % tapes.len()` from its `(s / tapes.len())`-th
/// I-frame (modulo the tape's I-frame count).
pub fn cursor_of(tapes: &[Tape], s: usize) -> Cursor {
    let tape = s % tapes.len();
    let i_frames = &tapes[tape].i_frames;
    Cursor {
        tape,
        start: i_frames[(s / tapes.len()) % i_frames.len()],
    }
}

/// The encoded frame stream `s` offers as its `i`-th frame.
pub fn frame_of(tapes: &[Tape], cursor: Cursor, i: usize) -> &EncodedFrame {
    let frames = tapes[cursor.tape].frames();
    &frames[(cursor.start + i) % frames.len()]
}

/// Whether stream frame `i` is an I-frame (what `IFrameSelector` keeps).
pub fn is_i_frame(tapes: &[Tape], cursor: Cursor, i: usize) -> bool {
    frame_of(tapes, cursor, i).frame_type == FrameType::I
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_video::Frame;

    /// A grey tape with an I-frame every `gop` frames (scenecut off).
    fn grey_tape(frames: usize, gop: usize) -> Tape {
        let res = Resolution::new(32, 32);
        let video = EncodedVideo::encode(
            res,
            30,
            EncoderConfig::new(gop, 0),
            (0..frames).map(|_| Frame::grey(res)),
        );
        Tape {
            i_frames: video.i_frame_indices(),
            video,
            gop,
        }
    }

    #[test]
    fn streams_start_on_an_i_frame_and_wrap_to_frame_zero() {
        let tapes = vec![grey_tape(12, 4), grey_tape(10, 5)];
        assert_eq!(tapes[0].i_frames, [0, 4, 8]);
        for s in 0..9 {
            let cursor = cursor_of(&tapes, s);
            assert_eq!(cursor.tape, s % 2);
            assert!(is_i_frame(&tapes, cursor, 0), "stream {s} starts mid-GOP");
            let len = tapes[cursor.tape].frames().len();
            // The frame after the tape's last is its first.
            let to_end = len - cursor.start;
            assert!(std::ptr::eq(
                frame_of(&tapes, cursor, to_end),
                &tapes[cursor.tape].frames()[0]
            ));
        }
        // Streams sharing a tape start on successive I-frames.
        assert_eq!(cursor_of(&tapes, 0).start, 0);
        assert_eq!(cursor_of(&tapes, 2).start, 4);
        assert_eq!(cursor_of(&tapes, 4).start, 8);
        assert_eq!(cursor_of(&tapes, 6).start, 0);
    }
}
