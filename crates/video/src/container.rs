//! The bitstream container: frame payloads plus a metadata index.
//!
//! The container is what makes SiEVE's I-frame seeker cheap: the serialized
//! layout keeps a compact frame table (type + length per frame) *ahead of*
//! the payload bytes, so frame types and byte ranges can be enumerated
//! without touching — let alone entropy-decoding — any payload. This mirrors
//! how the paper's seeker "searches through the video metadata and drops
//! every frame that is not of type I-frame".

use crate::decode::{DecodeError, Decoder};
use crate::encode::{EncodedFrame, Encoder, EncoderConfig, FrameType};
use crate::frame::{Frame, Resolution};

/// Magic bytes identifying the container format.
pub const MAGIC: &[u8; 4] = b"SEV1";

/// Errors from parsing a serialized container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerError {
    /// Input does not start with [`MAGIC`] or is too short for the header.
    BadHeader,
    /// The frame table or payload region is truncated.
    Truncated,
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadHeader => write!(f, "not a SEV1 container"),
            ContainerError::Truncated => write!(f, "container truncated"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Metadata for one frame, available without decoding anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Frame type (I or P).
    pub frame_type: FrameType,
    /// Byte offset of the payload within the serialized container.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// An encoded video held in memory: stream parameters plus every encoded
/// frame.
///
/// ```
/// use sieve_video::{EncodedVideo, EncoderConfig, Frame, Resolution};
/// let res = Resolution::new(32, 32);
/// let frames = (0..4).map(|_| Frame::grey(res));
/// let video = EncodedVideo::encode(res, 30, EncoderConfig::new(2, 0), frames);
/// assert_eq!(video.frame_count(), 4);
/// assert_eq!(video.i_frame_indices(), vec![0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedVideo {
    resolution: Resolution,
    fps: u32,
    quality: u8,
    frames: Vec<EncodedFrame>,
}

impl EncodedVideo {
    /// Creates an empty container.
    pub fn new(resolution: Resolution, fps: u32, quality: u8) -> Self {
        assert!(fps > 0, "fps must be non-zero");
        Self {
            resolution,
            fps,
            quality,
            frames: Vec::new(),
        }
    }

    /// Encodes an entire frame sequence with `config`.
    pub fn encode<I>(resolution: Resolution, fps: u32, config: EncoderConfig, frames: I) -> Self
    where
        I: IntoIterator<Item = Frame>,
    {
        let mut enc = Encoder::new(resolution, config);
        let mut video = Self::new(resolution, fps, config.quality);
        for f in frames {
            video.push(enc.encode_frame(&f));
        }
        video
    }

    /// Encodes an entire frame sequence with up to `workers` threads using
    /// the GOP-parallel pipeline ([`crate::parallel`]). The resulting
    /// container is byte-identical to [`EncodedVideo::encode`]'s.
    pub fn encode_parallel(
        resolution: Resolution,
        fps: u32,
        config: EncoderConfig,
        frames: &[Frame],
        workers: usize,
    ) -> Self {
        let (frames, _) =
            crate::parallel::encode_parallel_with_decisions(resolution, config, frames, workers);
        let mut video = Self::new(resolution, fps, config.quality);
        video.frames = frames;
        video
    }

    /// Appends an encoded frame.
    pub fn push(&mut self, frame: EncodedFrame) {
        self.frames.push(frame);
    }

    /// Stream resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Frames per second.
    pub fn fps(&self) -> u32 {
        self.fps
    }

    /// Quantizer quality the stream was encoded with.
    pub fn quality(&self) -> u8 {
        self.quality
    }

    /// All encoded frames, in display order.
    pub fn frames(&self) -> &[EncodedFrame] {
        &self.frames
    }

    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.frames.len() as f64 / self.fps as f64
    }

    /// Indices of the I-frames — the in-memory equivalent of scanning the
    /// container index.
    pub fn i_frame_indices(&self) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.frame_type == FrameType::I)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total payload bytes across all frames.
    pub fn total_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.data.len() as u64).sum()
    }

    /// Total payload bytes of frames of the given type.
    pub fn bytes_of_type(&self, t: FrameType) -> u64 {
        self.frames
            .iter()
            .filter(|f| f.frame_type == t)
            .map(|f| f.data.len() as u64)
            .sum()
    }

    /// Decodes the I-frame at `index` independently.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::FrameOutOfRange`] if `index` is outside the
    /// stream, [`DecodeError::NotAnIFrame`] if the frame at `index` is a
    /// P-frame, or a bitstream error on corruption.
    pub fn decode_iframe_at(&self, index: usize) -> Result<Frame, DecodeError> {
        let ef = self.frames.get(index).ok_or(DecodeError::FrameOutOfRange)?;
        if ef.frame_type != FrameType::I {
            return Err(DecodeError::NotAnIFrame);
        }
        Decoder::decode_iframe(self.resolution, self.quality, &ef.data)
    }

    /// Decodes every frame (the classical full-decode pipeline). Used by the
    /// image-similarity baselines.
    ///
    /// # Errors
    ///
    /// Propagates the first decode failure.
    pub fn decode_all(&self) -> Result<Vec<Frame>, DecodeError> {
        let mut dec = Decoder::new(self.resolution, self.quality);
        let mut out = Vec::with_capacity(self.frames.len());
        dec.decode_batch(&self.frames, |_, f| out.push(f.clone()))?;
        Ok(out)
    }

    /// Serializes to the `SEV1` byte format: header, frame table, payloads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.frames.len() * 5 + self.total_bytes() as usize);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.resolution.width().to_le_bytes());
        out.extend_from_slice(&self.resolution.height().to_le_bytes());
        out.extend_from_slice(&self.fps.to_le_bytes());
        out.push(self.quality);
        out.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        for f in &self.frames {
            out.push(match f.frame_type {
                FrameType::I => 0u8,
                FrameType::P => 1u8,
            });
            out.extend_from_slice(&(f.data.len() as u32).to_le_bytes());
        }
        for f in &self.frames {
            out.extend_from_slice(&f.data);
        }
        out
    }

    /// Parses a full container (index + payloads) from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ContainerError`] on bad magic or truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ContainerError> {
        let index = VideoIndex::parse(bytes)?;
        let mut frames = Vec::with_capacity(index.entries.len());
        for meta in &index.entries {
            let start = meta.offset as usize;
            let end = start + meta.len as usize;
            if end > bytes.len() {
                return Err(ContainerError::Truncated);
            }
            frames.push(EncodedFrame {
                frame_type: meta.frame_type,
                data: bytes[start..end].into(),
            });
        }
        Ok(Self {
            resolution: index.resolution,
            fps: index.fps,
            quality: index.quality,
            frames,
        })
    }
}

/// The metadata index of a serialized container: everything the I-frame
/// seeker needs, obtained *without* reading any payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoIndex {
    /// Stream resolution.
    pub resolution: Resolution,
    /// Frames per second.
    pub fps: u32,
    /// Encode quality.
    pub quality: u8,
    /// One entry per frame, in display order.
    pub entries: Vec<FrameMeta>,
}

impl VideoIndex {
    /// Parses only the header and frame table of a serialized container.
    /// Cost is proportional to the frame *count*, not the payload bytes —
    /// this is the cheap metadata scan at the core of the I-frame seeker.
    ///
    /// # Errors
    ///
    /// Returns [`ContainerError`] on bad magic or truncated table.
    pub fn parse(bytes: &[u8]) -> Result<Self, ContainerError> {
        if bytes.len() < 21 || &bytes[..4] != MAGIC {
            return Err(ContainerError::BadHeader);
        }
        let rd_u32 =
            |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
        let width = rd_u32(4);
        let height = rd_u32(8);
        let fps = rd_u32(12);
        let quality = bytes[16];
        let count = rd_u32(17) as usize;
        let table_start = 21;
        let table_len = count.checked_mul(5).ok_or(ContainerError::Truncated)?;
        if bytes.len() < table_start + table_len {
            return Err(ContainerError::Truncated);
        }
        if width == 0 || height == 0 || width % 2 != 0 || height % 2 != 0 || fps == 0 {
            return Err(ContainerError::BadHeader);
        }
        let mut entries = Vec::with_capacity(count);
        let mut offset = (table_start + table_len) as u64;
        for i in 0..count {
            let o = table_start + i * 5;
            let frame_type = match bytes[o] {
                0 => FrameType::I,
                1 => FrameType::P,
                _ => return Err(ContainerError::BadHeader),
            };
            let len = rd_u32(o + 1);
            entries.push(FrameMeta {
                frame_type,
                offset,
                len,
            });
            offset += len as u64;
        }
        Ok(Self {
            resolution: Resolution::new(width, height),
            fps,
            quality,
            entries,
        })
    }

    /// Number of frames in the stream.
    pub fn frame_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterator over `(frame_index, meta)` of I-frames only.
    pub fn i_frames(&self) -> impl Iterator<Item = (usize, &FrameMeta)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, m)| m.frame_type == FrameType::I)
    }

    /// Decodes the I-frame described by `meta` from the serialized container
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if `meta` does not describe an I-frame or
    /// the payload is corrupt.
    pub fn decode_iframe(&self, bytes: &[u8], meta: &FrameMeta) -> Result<Frame, DecodeError> {
        if meta.frame_type != FrameType::I {
            return Err(DecodeError::NotAnIFrame);
        }
        let start = meta.offset as usize;
        let end = start + meta.len as usize;
        if end > bytes.len() {
            return Err(DecodeError::Bitstream);
        }
        Decoder::decode_iframe(self.resolution, self.quality, &bytes[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_video() -> EncodedVideo {
        let res = Resolution::new(48, 32);
        let frames: Vec<Frame> = (0..10)
            .map(|i| {
                let mut f = Frame::grey(res);
                for y in 0..32usize {
                    for x in 0..48usize {
                        f.y_mut().put(x, y, ((x * 3 + y * 5 + i) % 200) as u8);
                    }
                }
                f
            })
            .collect();
        EncodedVideo::encode(res, 30, EncoderConfig::new(4, 0), frames)
    }

    #[test]
    fn encode_gop_structure() {
        let v = sample_video();
        assert_eq!(v.frame_count(), 10);
        assert_eq!(v.i_frame_indices(), vec![0, 4, 8]);
        assert!((v.duration_secs() - 10.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn serialize_roundtrip() {
        let v = sample_video();
        let bytes = v.to_bytes();
        let back = EncodedVideo::from_bytes(&bytes).expect("parse");
        assert_eq!(v, back);
    }

    #[test]
    fn index_matches_in_memory_view() {
        let v = sample_video();
        let bytes = v.to_bytes();
        let idx = VideoIndex::parse(&bytes).expect("index");
        assert_eq!(idx.frame_count(), v.frame_count());
        assert_eq!(idx.resolution, v.resolution());
        let i_from_idx: Vec<usize> = idx.i_frames().map(|(i, _)| i).collect();
        assert_eq!(i_from_idx, v.i_frame_indices());
        for (meta, frame) in idx.entries.iter().zip(v.frames()) {
            assert_eq!(meta.len as usize, frame.data.len());
        }
    }

    #[test]
    fn iframe_decode_via_index_matches_direct() {
        let v = sample_video();
        let bytes = v.to_bytes();
        let idx = VideoIndex::parse(&bytes).expect("index");
        for (i, meta) in idx.i_frames() {
            let via_index = idx.decode_iframe(&bytes, meta).expect("decode");
            let direct = v.decode_iframe_at(i).expect("decode");
            assert_eq!(via_index, direct);
        }
    }

    #[test]
    fn decode_iframe_rejects_p() {
        let v = sample_video();
        assert_eq!(v.decode_iframe_at(1).unwrap_err(), DecodeError::NotAnIFrame);
    }

    #[test]
    fn parse_rejects_bad_magic() {
        assert_eq!(
            VideoIndex::parse(b"NOPE....................").unwrap_err(),
            ContainerError::BadHeader
        );
    }

    #[test]
    fn parse_rejects_truncated_table() {
        let v = sample_video();
        let bytes = v.to_bytes();
        assert_eq!(
            VideoIndex::parse(&bytes[..22]).unwrap_err(),
            ContainerError::Truncated
        );
    }

    #[test]
    fn from_bytes_rejects_truncated_payload() {
        let v = sample_video();
        let bytes = v.to_bytes();
        assert_eq!(
            EncodedVideo::from_bytes(&bytes[..bytes.len() - 3]).unwrap_err(),
            ContainerError::Truncated
        );
    }

    #[test]
    fn decode_all_returns_every_frame() {
        let v = sample_video();
        let frames = v.decode_all().expect("decode all");
        assert_eq!(frames.len(), 10);
    }

    #[test]
    fn byte_accounting() {
        let v = sample_video();
        assert_eq!(
            v.total_bytes(),
            v.bytes_of_type(FrameType::I) + v.bytes_of_type(FrameType::P)
        );
        assert!(v.bytes_of_type(FrameType::I) > 0);
    }
}
