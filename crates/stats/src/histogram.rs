//! Lock-free HDR-style histograms over power-of-two buckets.
//!
//! [`Histogram`] records unsigned samples (latencies in µs, payload sizes
//! in bytes) into 64 buckets where bucket `i` holds `[2^i, 2^(i+1))` —
//! recording is one relaxed atomic increment plus one `ilog2`, no locks,
//! no allocation, mergeable by bucket-wise addition. Quantiles are
//! computed at snapshot time and reported as the containing bucket's
//! *upper bound*: a ≤ 2× overestimate, never an underestimate — the
//! conservative direction for a latency SLO. The maximum is tracked
//! exactly (a compare-exchange race the largest sample always wins), so
//! `max` can sit *below* a quantile's bucket-rounded value.
//!
//! [`HistogramSnapshot`] is a plain value: snapshots taken from different
//! histograms (per-shard, per-stream, per-epoch) merge associatively and
//! commutatively into the exact histogram of the union stream — the
//! property the crate's proptests pin down.

use serde::Serialize;

use crate::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))`, covering the whole `u64` range (1 µs .. ~584k years
/// when samples are microseconds).
const BUCKETS: usize = 64;

/// The value a sample in bucket `i` is reported as: the bucket's exclusive
/// upper bound, saturating at `u64::MAX` for the top bucket.
fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// The bucket a sample lands in.
fn bucket_of(value: u64) -> usize {
    value.max(1).ilog2() as usize
}

/// A lock-free power-of-two-bucket histogram; see the module docs.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    /// Exact maximum recorded sample (0 until a sample arrives).
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("max", &s.max())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: a relaxed increment of its bucket plus a
    /// compare-exchange race for the exact maximum (won at most once per
    /// new high-water mark, so the common case is one load).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        let mut seen = self.max.load(Ordering::Relaxed);
        while value > seen {
            match self
                .max
                .compare_exchange(seen, value, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => seen = actual,
            }
        }
    }

    /// A point-in-time copy of the distribution. Relaxed bucket loads: the
    /// snapshot of a quiescent histogram is exact; under concurrent
    /// writers it lags by in-flight increments, never tears a bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (c, b) in counts.iter_mut().zip(self.buckets.iter()) {
            *c = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A mergeable point-in-time histogram value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// The exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// The value at quantile `q` (clamped to `0..=1`), reported as the
    /// recording bucket's upper bound — a ≤ 2× overestimate, never an
    /// underestimate. Returns 0 for an empty snapshot.
    // lint:allow(dead-pub): crates/stats/tests/histogram_props.rs bounds every quantile's error by it
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket upper bound).
    fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The compact serializable readout of this snapshot.
    pub fn summary(&self) -> QuantileSummary {
        QuantileSummary {
            count: self.count(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            max: self.max,
        }
    }
}

/// The serialized form of a histogram in `stats.json` time series:
/// quantiles of the *cumulative* distribution at the sample instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QuantileSummary {
    /// Total samples recorded so far.
    pub count: u64,
    /// Median, as the recording bucket's upper bound (0 when empty).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Exact largest sample — may sit below the bucket-rounded quantiles.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 2);
        assert_eq!(bucket_upper(62), 1u64 << 63);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn quantiles_are_upper_bounds_and_max_is_exact() {
        let h = Histogram::new();
        for v in [5u64, 5, 5, 5, 5, 5, 5, 5, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10);
        // 5 lands in [4, 8): upper bound 8.
        assert_eq!(s.p50(), 8);
        // Rank 10 is the 1000 sample: [512, 1024) -> 1024.
        assert_eq!(s.p99(), 1024);
        assert_eq!(s.max(), 1000, "max is exact, not bucket-rounded");
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.p50(), u64::MAX);
        assert_eq!(s.max(), u64::MAX);
    }

    #[test]
    fn summary_is_consistent() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot().summary();
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert_eq!(s.max, 100);
    }
}
