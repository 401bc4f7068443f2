//! The workspace-wide error type.
//!
//! Library paths across the workspace surface failures as [`SieveError`]
//! instead of panicking or leaking per-crate error enums: codec errors
//! ([`DecodeError`], [`ContainerError`], [`ReadBitsError`]) and I/O errors
//! all convert into it, so cross-crate drivers (the analysis path, the live
//! pipeline, persistence) can use `?` throughout and callers match on one
//! type. It is `Clone` and `PartialEq`, so a stream's end-of-stream error
//! travels from the edge to the caller unchanged.

use std::sync::Arc;

use sieve_video::bitio::ReadBitsError;
use sieve_video::{ContainerError, DecodeError};

/// Any failure a SiEVE pipeline can surface.
#[derive(Debug, Clone)]
pub enum SieveError {
    /// A frame payload failed to decode.
    Decode(DecodeError),
    /// A serialized container failed to parse.
    Container(ContainerError),
    /// A raw bitstream read ran out of input.
    Bits(ReadBitsError),
    /// An I/O failure (persistence, network transport), shared so the
    /// error can be cloned.
    Io(Arc<std::io::Error>),
    /// A frame selection referenced an index outside the video.
    InvalidSelection {
        /// The offending frame index.
        index: usize,
        /// The video's frame count.
        frame_count: usize,
    },
    /// A selector-specific failure (calibration, empty input, ...).
    Selector(String),
}

impl SieveError {
    /// Builds a selector error from any message.
    pub fn selector(msg: impl Into<String>) -> Self {
        SieveError::Selector(msg.into())
    }
}

impl std::fmt::Display for SieveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SieveError::Decode(e) => write!(f, "decode error: {e}"),
            SieveError::Container(e) => write!(f, "container error: {e}"),
            SieveError::Bits(e) => write!(f, "bitstream error: {e}"),
            SieveError::Io(e) => write!(f, "i/o error: {e}"),
            SieveError::InvalidSelection { index, frame_count } => write!(
                f,
                "selected frame {index} out of range for a {frame_count}-frame video"
            ),
            SieveError::Selector(msg) => write!(f, "selector error: {msg}"),
        }
    }
}

/// Two I/O errors are equal when their kind and message are; every other
/// arm compares its payload.
impl PartialEq for SieveError {
    fn eq(&self, other: &Self) -> bool {
        use SieveError::*;
        match (self, other) {
            (Decode(a), Decode(b)) => a == b,
            (Container(a), Container(b)) => a == b,
            (Bits(a), Bits(b)) => a == b,
            (Io(a), Io(b)) => a.kind() == b.kind() && a.to_string() == b.to_string(),
            (
                InvalidSelection { index, frame_count },
                InvalidSelection {
                    index: i,
                    frame_count: n,
                },
            ) => (index, frame_count) == (i, n),
            (Selector(a), Selector(b)) => a == b,
            _ => false,
        }
    }
}

impl std::error::Error for SieveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SieveError::Decode(e) => Some(e),
            SieveError::Container(e) => Some(e),
            SieveError::Bits(e) => Some(e),
            SieveError::Io(e) => Some(e.as_ref()),
            SieveError::InvalidSelection { .. } | SieveError::Selector(_) => None,
        }
    }
}

impl From<DecodeError> for SieveError {
    fn from(e: DecodeError) -> Self {
        SieveError::Decode(e)
    }
}

impl From<ContainerError> for SieveError {
    fn from(e: ContainerError) -> Self {
        SieveError::Container(e)
    }
}

impl From<ReadBitsError> for SieveError {
    fn from(e: ReadBitsError) -> Self {
        SieveError::Bits(e)
    }
}

impl From<std::io::Error> for SieveError {
    fn from(e: std::io::Error) -> Self {
        SieveError::Io(Arc::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_sources() {
        let e: SieveError = DecodeError::Bitstream.into();
        assert!(matches!(e, SieveError::Decode(DecodeError::Bitstream)));
        assert!(std::error::Error::source(&e).is_some());
        let e: SieveError = ContainerError::Truncated.into();
        assert!(e.to_string().contains("container"));
        let e: SieveError = std::io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
        assert_eq!(e.clone(), e);
        assert_ne!(e, std::io::Error::other("disk cooled").into());
    }

    #[test]
    fn selection_error_message() {
        let e = SieveError::InvalidSelection {
            index: 10,
            frame_count: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
