//! A slab pool of stream decoders, shared by every shard.
//!
//! A fleet admitting thousands of streams cannot afford one live
//! [`Decoder`] per *registered* stream: the decoder's quant tables and
//! (once frames flow) reference frame are the dominant per-stream
//! allocation. The fleet therefore defers decoder construction until a
//! stream's **first frame** actually arrives, and when a stream finishes
//! its decoder is [`Decoder::reset`] and parked here, slab-style, for the
//! next stream of the same geometry — so the number of live decoders
//! tracks the number of *actively decoding* streams, not the number of
//! registered ones, and stream churn stops allocating quant tables at all.
//!
//! Pools are keyed by `(resolution, quality)` (a decoder only fits streams
//! of its own geometry) and bounded per key; beyond the bound a released
//! decoder is simply dropped.

use std::collections::BTreeMap;

use sieve_stats::sync::Mutex;
use sieve_video::{Decoder, Resolution};

/// Parked decoders a key can hold before further releases are dropped.
const PER_KEY_CAP: usize = 64;

type PoolKey = (u32, u32, u8);

fn key_of(resolution: Resolution, quality: u8) -> PoolKey {
    (resolution.width(), resolution.height(), quality)
}

/// The shared decoder slab; see the module docs. All methods are
/// thread-safe and O(log keys) outside the rare allocation.
#[derive(Debug, Default)]
pub(crate) struct DecoderPool {
    slabs: Mutex<BTreeMap<PoolKey, Vec<Decoder>>>,
    /// Decoders handed out that were reused from the slab (telemetry for
    /// tests; fresh constructions are `acquired - reused`).
    reused: Mutex<u64>,
}

impl DecoderPool {
    /// A decoder for a `resolution`/`quality` stream: a parked one if the
    /// slab has a fit, else freshly constructed.
    pub(crate) fn acquire(&self, resolution: Resolution, quality: u8) -> Decoder {
        let recycled = self
            .slabs
            .lock()
            .get_mut(&key_of(resolution, quality))
            .and_then(Vec::pop);
        match recycled {
            Some(d) => {
                *self.reused.lock() += 1;
                d
            }
            None => Decoder::new(resolution, quality),
        }
    }

    /// Parks a finished stream's decoder for reuse (reset first, so no
    /// pixel state leaks across streams). Beyond the per-key bound the
    /// decoder is dropped.
    pub(crate) fn release(&self, mut decoder: Decoder) {
        decoder.reset();
        let key = key_of(decoder.resolution(), decoder.quality());
        let mut slabs = self.slabs.lock();
        let slab = slabs.entry(key).or_default();
        if slab.len() < PER_KEY_CAP {
            slab.push(decoder);
        }
    }

    /// Decoders currently parked (across all keys).
    pub(crate) fn parked(&self) -> usize {
        self.slabs.lock().values().map(Vec::len).sum()
    }

    /// Acquisitions served from the slab instead of a fresh construction.
    pub(crate) fn reuses(&self) -> u64 {
        *self.reused.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_reuses_by_geometry() {
        let pool = DecoderPool::default();
        let res = Resolution::new(32, 32);
        let d = pool.acquire(res, 80);
        assert_eq!(pool.reuses(), 0);
        pool.release(d);
        assert_eq!(pool.parked(), 1);
        let _again = pool.acquire(res, 80);
        assert_eq!(pool.reuses(), 1);
        assert_eq!(pool.parked(), 0);
        // A different geometry never reuses the parked decoder.
        let other = pool.acquire(res, 50);
        assert_eq!(other.quality(), 50);
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn release_is_bounded() {
        let pool = DecoderPool::default();
        let res = Resolution::new(16, 16);
        for _ in 0..(PER_KEY_CAP + 8) {
            pool.release(Decoder::new(res, 80));
        }
        assert_eq!(pool.parked(), PER_KEY_CAP);
    }
}
