//! Priority derivation: per-stream keep rates → lane scheduling weights.
//!
//! The paper's economics say a camera that is currently *keeping* frames
//! is the one doing useful work — its survivors feed the cloud detector —
//! while a camera dropping everything can tolerate queueing. The fleet
//! turns that into scheduling policy: each stream tracks an exponentially
//! weighted moving average of its keep decisions (`kept → 1`, `dropped`/
//! `failed → 0`) and maps it onto its lane's weight in
//! `1..=`[`MAX_LANE_WEIGHT`]:
//!
//! ```text
//! ewma ← (1 − α)·ewma + α·kept          α = 1/8
//! weight = clamp(1 + round((MAX_LANE_WEIGHT − 1)·ewma), 1, MAX_LANE_WEIGHT)
//! ```
//!
//! so an all-dropping stream sits at weight 1, an all-keeping one at the
//! maximum, and the mapping is monotone: a higher keep rate never yields a
//! lower weight (the ordering property the fleet's proptests pin down).
//! Starvation is impossible regardless of the mixture — the
//! [`ShardQueue`](sieve_simnet::ShardQueue) aging term bounds any
//! non-empty lane's wait at `MAX_LANE_WEIGHT + lanes` pops.
//!
//! The EWMA seeds from the best prior available at admission
//! ([`initial_ewma`]): the stream's explicit priority hint, else its
//! target sampling rate, else 0.5 (uninformative).

use sieve_simnet::MAX_LANE_WEIGHT;

/// EWMA smoothing factor: 1/8 — about the last 8 decisions dominate, so a
/// camera going hot is promoted within a GOP, not within an epoch.
// lint:allow(dead-pub): the per-decision step bound crates/fleet/tests/priority_props.rs checks
pub const KEEP_ALPHA: f64 = 0.125;

/// Folds one keep/drop decision into the running keep-rate estimate.
#[must_use]
pub fn update_ewma(ewma: f64, kept: bool) -> f64 {
    (1.0 - KEEP_ALPHA) * ewma + KEEP_ALPHA * f64::from(u8::from(kept))
}

/// Maps a keep-rate estimate in `[0, 1]` onto a lane weight in
/// `1..=MAX_LANE_WEIGHT`, monotonically. Out-of-range inputs clamp.
#[must_use]
pub fn weight_of(ewma: f64) -> u32 {
    let span = f64::from(MAX_LANE_WEIGHT - 1);
    let scaled = 1.0 + (span * ewma.clamp(0.0, 1.0)).round();
    // lint:allow(no-unwrap): value is clamped into 1..=MAX_LANE_WEIGHT
    (scaled as u32).clamp(1, MAX_LANE_WEIGHT)
}

/// The keep-rate prior a stream starts from: its admission-time hint
/// (explicit priority hint, else the policy's target rate), else 0.5.
#[must_use]
pub fn initial_ewma(hint: Option<f64>) -> f64 {
    hint.unwrap_or(0.5).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_toward_decisions() {
        let mut e = 0.5;
        for _ in 0..64 {
            e = update_ewma(e, true);
        }
        assert!(e > 0.99, "all-keep stream converges high: {e}");
        for _ in 0..64 {
            e = update_ewma(e, false);
        }
        assert!(e < 0.01, "all-drop stream converges low: {e}");
    }

    #[test]
    fn weight_endpoints_and_monotonicity() {
        assert_eq!(weight_of(0.0), 1);
        assert_eq!(weight_of(1.0), MAX_LANE_WEIGHT);
        assert_eq!(weight_of(-3.0), 1);
        assert_eq!(weight_of(7.0), MAX_LANE_WEIGHT);
        let mut prev = 0;
        for i in 0..=100 {
            let w = weight_of(f64::from(i) / 100.0);
            assert!(w >= prev, "weight_of must be monotone");
            prev = w;
        }
    }

    #[test]
    fn initial_ewma_prefers_hint_and_clamps() {
        assert_eq!(initial_ewma(Some(0.2)), 0.2);
        assert_eq!(initial_ewma(Some(9.0)), 1.0);
        assert_eq!(initial_ewma(None), 0.5);
    }
}
