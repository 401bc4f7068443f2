//! Measuring real per-operation costs to feed the simulator.
//!
//! Fig 4/5 of the paper report a 2.16-million-frame experiment; replaying
//! that with real compute would take hours, so the harness measures each
//! operator's *actual* cost on this machine (median of repeated runs) and
//! replays those costs through the tandem-queue simulator. This keeps the
//! relative magnitudes — decode vs seek vs NN inference — honest.

// lint:allow-file(no-wall-clock): calibration's whole job is measuring real wall-clock costs

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Robust location and spread of repeated timings of one operation: one
/// scheduling hiccup among the samples moves neither number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Median sample (the upper one of an even count).
    pub median: Duration,
    /// Median absolute deviation around [`Estimate::median`].
    pub mad: Duration,
    /// Number of samples summarized.
    pub samples: usize,
}

impl Estimate {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(mut samples: Vec<Duration>) -> Option<Self> {
        samples.sort();
        let median = *samples.get(samples.len() / 2)?;
        let mut deviations: Vec<Duration> = samples.iter().map(|s| s.abs_diff(median)).collect();
        deviations.sort();
        Some(Self {
            median,
            mad: deviations[deviations.len() / 2],
            samples: samples.len(),
        })
    }
}

/// Times `op` over `iters` runs after `warmup` unrecorded ones (which
/// fault in code, caches and allocator state).
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn measure<O, F: FnMut() -> O>(warmup: usize, iters: usize, mut op: F) -> Estimate {
    for _ in 0..warmup {
        black_box(op());
    }
    let samples = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            black_box(op());
            t0.elapsed()
        })
        .collect();
    // lint:allow(no-unwrap): zero iterations is a caller bug, documented under # Panics
    Estimate::of(samples).expect("need at least one iteration")
}

/// Measures the median wall-clock seconds of `op` over `iters` runs
/// (after one warm-up run).
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn measure_secs<F: FnMut()>(iters: usize, op: F) -> f64 {
    measure(1, iters, op).median.as_secs_f64()
}

/// A named table of per-operation costs in seconds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostProfile {
    costs: BTreeMap<String, f64>,
}

impl CostProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an operation cost.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn set(&mut self, op: impl Into<String>, secs: f64) {
        assert!(secs.is_finite() && secs >= 0.0, "cost must be non-negative");
        self.costs.insert(op.into(), secs);
    }

    /// The cost of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` was never measured — a missing calibration is a
    /// harness bug, not a runtime condition.
    pub fn get(&self, op: &str) -> f64 {
        *self
            .costs
            .get(op)
            .unwrap_or_else(|| panic!("operation '{op}' not calibrated"))
    }

    /// The cost of `op`, or `None`.
    pub fn try_get(&self, op: &str) -> Option<f64> {
        self.costs.get(op).copied()
    }

    /// Iterates over `(name, secs)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.costs.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of calibrated operations.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True when nothing has been calibrated.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_time() {
        let secs = measure_secs(3, || {
            let mut x = 0u64;
            for i in 0..10_000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
        });
        assert!(secs >= 0.0);
        assert!(secs < 1.0, "tiny loop should be far under a second");
    }

    #[test]
    fn measure_scales_with_work() {
        // Memory-bound work so the optimizer cannot collapse the loop and
        // the 100x size difference shows up reliably in wall-clock.
        let work = |n: usize| {
            let mut v = vec![1u64; n];
            move || {
                for i in 1..v.len() {
                    v[i] = v[i].wrapping_add(v[i - 1] ^ i as u64);
                }
                std::hint::black_box(&v);
            }
        };
        let small = measure_secs(5, work(10_000));
        let large = measure_secs(5, work(1_000_000));
        assert!(
            large > small,
            "100x work must take longer: {large} vs {small}"
        );
    }

    #[test]
    fn warmup_iterations_are_not_recorded() {
        let mut calls = 0usize;
        let est = measure(2, 5, || calls += 1);
        assert_eq!(calls, 5 + 2);
        assert_eq!(est.samples, 5, "only sampled iterations recorded");
    }

    #[test]
    fn median_and_mad_are_robust_to_one_outlier() {
        let samples = [10u64, 10, 11, 9, 500].map(Duration::from_millis);
        let est = Estimate::of(samples.to_vec()).expect("samples recorded");
        assert_eq!(est.median, Duration::from_millis(10));
        assert!(
            est.mad <= Duration::from_millis(1),
            "MAD ignores the outlier: {:?}",
            est.mad
        );
    }

    #[test]
    fn empty_bencher_reports_no_samples() {
        assert_eq!(Estimate::of(Vec::new()), None);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn measuring_zero_iterations_panics() {
        measure_secs(0, || {});
    }

    #[test]
    fn bench_estimate_exposes_median_and_mad() {
        let est = measure(2, 4, || (0..1000u64).fold(0u64, u64::wrapping_add));
        assert_eq!(est.samples, 4);
        assert!(est.median > Duration::ZERO);
    }

    #[test]
    fn profile_set_get() {
        let mut p = CostProfile::new();
        p.set("decode", 0.008);
        p.set("seek", 0.0000004);
        assert_eq!(p.get("decode"), 0.008);
        assert_eq!(p.try_get("nope"), None);
        assert_eq!(p.len(), 2);
        let names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["decode", "seek"]);
    }

    #[test]
    #[should_panic(expected = "not calibrated")]
    fn missing_op_panics() {
        CostProfile::new().get("missing");
    }

    #[test]
    fn profile_serde_roundtrip() {
        let mut p = CostProfile::new();
        p.set("a", 1.5);
        let json = serde_json::to_string(&p).expect("serialize");
        let back: CostProfile = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(p, back);
    }
}
