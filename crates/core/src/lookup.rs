//! The per-camera parameter lookup table.
//!
//! After offline tuning, the best encoder parameters for each camera are
//! stored in a lookup table; the surveillance operator loads them into the
//! camera's encoder for real-time use (Section IV, "Online Usage of Tuned
//! Parameters"). The table serializes to JSON so it can live in the edge
//! deployment's configuration store.

use std::collections::BTreeMap;
use std::io::{Read, Write};

use serde::{Deserialize, Serialize};
use sieve_video::EncoderConfig;

/// Per-camera tuned encoder parameters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LookupTable {
    cameras: BTreeMap<String, EncoderConfig>,
}

impl LookupTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores the tuned config for `camera`, returning any previous value.
    pub fn insert(
        &mut self,
        camera: impl Into<String>,
        config: EncoderConfig,
    ) -> Option<EncoderConfig> {
        self.cameras.insert(camera.into(), config)
    }

    /// Looks up a camera's tuned config.
    pub fn get(&self, camera: &str) -> Option<&EncoderConfig> {
        self.cameras.get(camera)
    }

    /// Number of cameras in the table.
    pub fn len(&self) -> usize {
        self.cameras.len()
    }

    /// True when no camera has been tuned.
    pub fn is_empty(&self) -> bool {
        self.cameras.is_empty()
    }

    /// Iterates `(camera, config)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &EncoderConfig)> {
        self.cameras.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Writes the table as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the writer fails.
    pub fn save<W: Write>(&self, writer: W) -> std::io::Result<()> {
        serde_json::to_writer_pretty(writer, self).map_err(std::io::Error::other)
    }

    /// Reads a table from JSON.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the reader fails or the JSON is malformed.
    pub fn load<R: Read>(reader: R) -> std::io::Result<Self> {
        serde_json::from_reader(reader).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = LookupTable::new();
        assert!(t.is_empty());
        let cfg = EncoderConfig::new(500, 100);
        assert_eq!(t.insert("jackson", cfg), None);
        assert_eq!(t.get("jackson"), Some(&cfg));
        assert_eq!(t.len(), 1);
        let cfg2 = EncoderConfig::new(100, 250);
        assert_eq!(t.insert("jackson", cfg2), Some(cfg));
        assert_eq!(t.get("jackson"), Some(&cfg2));
    }

    #[test]
    fn untuned_camera_gets_defaults() {
        // An untuned camera has no entry and keeps the x264 defaults.
        let t = LookupTable::new();
        assert_eq!(t.get("unknown"), None);
        let d = EncoderConfig::default();
        assert_eq!((d.gop_size, d.scenecut), (250, 40));
    }

    #[test]
    fn json_roundtrip() {
        let mut t = LookupTable::new();
        t.insert("a", EncoderConfig::new(100, 20));
        t.insert("b", EncoderConfig::new(5000, 250));
        let mut buf = Vec::new();
        t.save(&mut buf).expect("save");
        let back = LookupTable::load(buf.as_slice()).expect("load");
        assert_eq!(t, back);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(LookupTable::load(&b"not json"[..]).is_err());
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut t = LookupTable::new();
        t.insert("zebra", EncoderConfig::new(100, 20));
        t.insert("alpha", EncoderConfig::new(200, 40));
        let names: Vec<&str> = t.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zebra"]);
    }
}
