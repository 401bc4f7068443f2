//! The I-frame seeker: SiEVE's cheap event-detection path.
//!
//! The seeker scans an encoded video's *metadata* — never the payloads — to
//! find I-frames, then decodes exactly those, JPEG-style. Combined with a
//! semantically tuned encoder, the decoded I-frames are the event frames;
//! everything else inherits labels (see [`crate::metrics`]).

use sieve_video::{DecodeError, EncodedVideo, Frame, FrameType, VideoIndex};

/// Seeks I-frames in an in-memory encoded video.
///
/// ```
/// use sieve_core::IFrameSeeker;
/// use sieve_video::{EncodedVideo, EncoderConfig, Frame, Resolution};
///
/// let res = Resolution::new(32, 32);
/// let video = EncodedVideo::encode(res, 30, EncoderConfig::new(3, 0),
///                                  (0..7).map(|_| Frame::grey(res)));
/// let seeker = IFrameSeeker::new(&video);
/// assert_eq!(seeker.i_frame_indices(), vec![0, 3, 6]);
/// for i in seeker.i_frame_indices() {
///     video.decode_iframe_at(i).unwrap();
/// }
/// ```
#[derive(Debug)]
pub struct IFrameSeeker<'a> {
    video: &'a EncodedVideo,
}

impl<'a> IFrameSeeker<'a> {
    /// Creates a seeker over `video`.
    pub fn new(video: &'a EncodedVideo) -> Self {
        Self { video }
    }

    /// Indices of all I-frames, found by scanning frame types only.
    pub fn i_frame_indices(&self) -> Vec<usize> {
        self.video.i_frame_indices()
    }

    /// Number of I-frames (the number of NN invocations SiEVE will pay).
    fn i_frame_count(&self) -> usize {
        self.video
            .frames()
            .iter()
            .filter(|f| f.frame_type == FrameType::I)
            .count()
    }

    /// Fraction of frames that are I-frames (the paper's "percentage of
    /// sampled frames").
    pub fn sampling_rate(&self) -> f64 {
        if self.video.frame_count() == 0 {
            0.0
        } else {
            self.i_frame_count() as f64 / self.video.frame_count() as f64
        }
    }
}

/// Seeks I-frames in a *serialized* container without parsing payloads —
/// the byte-level equivalent of [`IFrameSeeker`], used when the video
/// arrives over the network as a byte stream.
#[derive(Debug)]
pub struct ByteStreamSeeker {
    index: VideoIndex,
}

impl ByteStreamSeeker {
    /// Parses only the container header and frame table.
    ///
    /// # Errors
    ///
    /// Returns a container error if `bytes` is not a valid `SEV1` stream.
    pub fn parse(bytes: &[u8]) -> Result<Self, sieve_video::ContainerError> {
        Ok(Self {
            index: VideoIndex::parse(bytes)?,
        })
    }

    /// The parsed index.
    pub fn index(&self) -> &VideoIndex {
        &self.index
    }

    /// I-frame indices.
    pub fn i_frame_indices(&self) -> Vec<usize> {
        self.index.i_frames().map(|(i, _)| i).collect()
    }

    /// Decodes the I-frame at stream position `frame_index` from `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the frame is not an I-frame or is corrupt.
    pub fn decode_at(&self, bytes: &[u8], frame_index: usize) -> Result<Frame, DecodeError> {
        let meta = self
            .index
            .entries
            .get(frame_index)
            .ok_or(DecodeError::FrameOutOfRange)?;
        self.index.decode_iframe(bytes, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_video::{EncoderConfig, Resolution};

    fn video(gop: usize, frames: usize) -> EncodedVideo {
        let res = Resolution::new(48, 32);
        EncodedVideo::encode(
            res,
            30,
            EncoderConfig::new(gop, 0),
            (0..frames).map(move |i| {
                let mut f = Frame::grey(res);
                for y in 0..32usize {
                    for x in 0..48usize {
                        f.y_mut().put(x, y, ((x * 3 + y * 7 + i) % 230) as u8);
                    }
                }
                f
            }),
        )
    }

    #[test]
    fn seeker_counts_match_gop() {
        let v = video(4, 12);
        let s = IFrameSeeker::new(&v);
        assert_eq!(s.i_frame_count(), 3);
        assert_eq!(s.i_frame_indices(), vec![0, 4, 8]);
        assert!((s.sampling_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn decoded_iframes_match_full_decode() {
        let v = video(3, 9);
        let s = IFrameSeeker::new(&v);
        let full = v.decode_all().expect("full decode");
        for i in s.i_frame_indices() {
            let f = v.decode_iframe_at(i).expect("iframe decode");
            assert_eq!(f, full[i], "frame {i} differs from streaming decode");
        }
    }

    #[test]
    fn byte_stream_seeker_agrees_with_memory_seeker() {
        let v = video(5, 15);
        let bytes = v.to_bytes();
        let bs = ByteStreamSeeker::parse(&bytes).expect("parse");
        let mem = IFrameSeeker::new(&v);
        assert_eq!(bs.i_frame_indices(), mem.i_frame_indices());
        for i in bs.i_frame_indices() {
            let a = bs.decode_at(&bytes, i).expect("decode");
            let b = v.decode_iframe_at(i).expect("decode");
            assert_eq!(a, b);
        }
    }

    #[test]
    fn byte_stream_seeker_rejects_p_frames() {
        let v = video(5, 10);
        let bytes = v.to_bytes();
        let bs = ByteStreamSeeker::parse(&bytes).expect("parse");
        assert!(bs.decode_at(&bytes, 1).is_err());
    }

    #[test]
    fn empty_video_sampling_rate_zero() {
        let v = EncodedVideo::new(Resolution::new(16, 16), 30, 75);
        assert_eq!(IFrameSeeker::new(&v).sampling_rate(), 0.0);
    }
}
