//! Bitstream statistics: frame-type mix, byte accounting, filtering rate.
//!
//! The *filtering rate* (fraction of frames that are **not** I-frames) is one
//! half of the paper's tuning objective; the other half, event-detection
//! accuracy, lives in `sieve-core` because it needs ground-truth labels.

use crate::container::{EncodedVideo, VideoIndex};
use crate::encode::FrameType;

/// Summary statistics of an encoded stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitstreamStats {
    /// Total number of frames.
    pub frame_count: usize,
    /// Number of I-frames.
    pub i_frames: usize,
    /// Number of P-frames.
    pub p_frames: usize,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Payload bytes in I-frames.
    pub i_bytes: u64,
    /// Payload bytes in P-frames.
    pub p_bytes: u64,
}

impl BitstreamStats {
    /// Computes statistics from an in-memory video.
    pub fn from_video(video: &EncodedVideo) -> Self {
        let mut s = Self::empty();
        for f in video.frames() {
            s.add(f.frame_type, f.data.len() as u64);
        }
        s
    }

    /// Computes statistics from a metadata index (no payload access).
    pub fn from_index(index: &VideoIndex) -> Self {
        let mut s = Self::empty();
        for m in &index.entries {
            s.add(m.frame_type, m.len as u64);
        }
        s
    }

    fn empty() -> Self {
        Self {
            frame_count: 0,
            i_frames: 0,
            p_frames: 0,
            total_bytes: 0,
            i_bytes: 0,
            p_bytes: 0,
        }
    }

    fn add(&mut self, t: FrameType, bytes: u64) {
        self.frame_count += 1;
        self.total_bytes += bytes;
        match t {
            FrameType::I => {
                self.i_frames += 1;
                self.i_bytes += bytes;
            }
            FrameType::P => {
                self.p_frames += 1;
                self.p_bytes += bytes;
            }
        }
    }

    /// Fraction of frames that are I-frames, in `[0, 1]`.
    pub fn i_frame_rate(&self) -> f64 {
        if self.frame_count == 0 {
            0.0
        } else {
            self.i_frames as f64 / self.frame_count as f64
        }
    }

    /// The paper's filtering rate `fr`: fraction of frames that are *not*
    /// I-frames and therefore never decoded or analysed.
    pub fn filtering_rate(&self) -> f64 {
        if self.frame_count == 0 {
            0.0
        } else {
            self.p_frames as f64 / self.frame_count as f64
        }
    }

    /// Mean I-frame payload size in bytes (0 when there are none).
    pub fn mean_i_frame_bytes(&self) -> f64 {
        if self.i_frames == 0 {
            0.0
        } else {
            self.i_bytes as f64 / self.i_frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncoderConfig;
    use crate::frame::{Frame, Resolution};

    fn video(gop: usize, n: usize) -> EncodedVideo {
        let res = Resolution::new(32, 32);
        let frames = (0..n).map(move |i| {
            let mut f = Frame::grey(res);
            for y in 0..32usize {
                for x in 0..32usize {
                    f.y_mut().put(x, y, ((x * 7 + y * 11 + i) % 255) as u8);
                }
            }
            f
        });
        EncodedVideo::encode(res, 30, EncoderConfig::new(gop, 0), frames)
    }

    #[test]
    fn counts_and_rates() {
        let v = video(5, 20);
        let s = BitstreamStats::from_video(&v);
        assert_eq!(s.frame_count, 20);
        assert_eq!(s.i_frames, 4);
        assert_eq!(s.p_frames, 16);
        assert!((s.i_frame_rate() - 0.2).abs() < 1e-12);
        assert!((s.filtering_rate() - 0.8).abs() < 1e-12);
        assert_eq!(s.total_bytes, s.i_bytes + s.p_bytes);
    }

    #[test]
    fn index_and_video_agree() {
        let v = video(4, 12);
        let from_video = BitstreamStats::from_video(&v);
        let bytes = v.to_bytes();
        let from_index = BitstreamStats::from_index(&VideoIndex::parse(&bytes).unwrap());
        assert_eq!(from_video, from_index);
    }

    #[test]
    fn empty_stream_rates_are_zero() {
        let v = EncodedVideo::new(Resolution::new(16, 16), 30, 75);
        let s = BitstreamStats::from_video(&v);
        assert_eq!(s.i_frame_rate(), 0.0);
        assert_eq!(s.filtering_rate(), 0.0);
        assert_eq!(s.mean_i_frame_bytes(), 0.0);
    }

    #[test]
    fn mean_i_frame_bytes_positive() {
        let v = video(3, 9);
        let s = BitstreamStats::from_video(&v);
        assert!(s.mean_i_frame_bytes() > 0.0);
    }
}
