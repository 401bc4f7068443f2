//! Property tests for the priority machinery behind the fleet's lanes:
//! the keep-rate → weight derivation ([`sieve_fleet::priority`]) and the
//! weighted-round-robin drain of [`sieve_simnet::ShardQueue`] it feeds.
//!
//! Two guarantees are checked over random inputs:
//!
//! 1. **No starvation.** Under *any* keep-rate mixture — hence any weight
//!    assignment the fleet can derive, re-derived after every frame as the
//!    fleet's workers do — every lane with queued items is served within
//!    `MAX_LANE_WEIGHT + lanes` pops. The aging term makes a passed-over
//!    lane's effective priority grow each pop, so no weight spread can
//!    hold a lane off longer than that bound.
//! 2. **Order fidelity.** Weights derived from stationary keep streams
//!    never invert the keep-rate ordering: a stream that keeps clearly
//!    more frames gets at least as heavy a lane, and a wide keep-rate gap
//!    forces a strictly heavier one.

use proptest::prelude::*;
use sieve_fleet::priority::{initial_ewma, update_ewma, weight_of, KEEP_ALPHA};
use sieve_simnet::{GuardedPop, PushOutcome, ShardQueue, MAX_LANE_WEIGHT};

/// Feeds `update_ewma` a deterministic keep pattern of exact long-run rate
/// `rate` (Bresenham spacing: kept on pops that cross an integer boundary
/// of the accumulated rate) for `steps` decisions.
fn stationary_ewma(rate: f64, steps: usize) -> f64 {
    let mut ewma = initial_ewma(None);
    for i in 0..steps {
        let kept = ((i + 1) as f64 * rate).floor() > (i as f64 * rate).floor();
        ewma = update_ewma(ewma, kept);
    }
    ewma
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drain a queue of 2–5 lanes whose weights come straight from random
    /// keep rates, through the fleet's guarded pop: each `complete`
    /// installs the weight of a fresh random keep rate, as `process_frame`
    /// re-derives one after every frame. Between two consecutive services
    /// of any lane that still holds items, at most `MAX_LANE_WEIGHT +
    /// lanes` pops may pass.
    #[test]
    fn wrr_never_starves_a_lane(
        rates in proptest::collection::vec(0.0f64..1.0, 2..6),
        depth in 2usize..6,
        reweights in proptest::collection::vec(0.0f64..1.0, 25),
    ) {
        let lanes = rates.len();
        let q = ShardQueue::<u64>::new(depth);
        for (i, &rate) in rates.iter().enumerate() {
            let key = i as u64;
            prop_assert!(q.open_lane(key));
            prop_assert!(q.set_lane_weight(key, weight_of(rate)));
            for n in 0..depth {
                prop_assert_eq!(q.try_push(key, n as u64), PushOutcome::Queued);
            }
            prop_assert!(q.close_lane(key));
        }
        q.shutdown();

        let bound = MAX_LANE_WEIGHT as usize + lanes;
        let mut remaining = vec![depth; lanes];
        let mut last_served = vec![0usize; lanes];
        let mut finished = 0usize;
        let mut pops = 0usize;
        loop {
            match q.try_pop_guarded() {
                GuardedPop::Item(key, next) => {
                    pops += 1;
                    let lane = key as usize;
                    let waited = pops - last_served[lane];
                    prop_assert!(
                        waited <= bound,
                        "lane {lane} starved for {waited} pops \
                         (bound {bound}, rates {rates:?}, reweights {reweights:?})",
                    );
                    last_served[lane] = pops;
                    // Per-lane FIFO while we are at it.
                    prop_assert_eq!(next as usize, depth - remaining[lane]);
                    remaining[lane] -= 1;
                    q.complete(key, Some(weight_of(reweights[pops - 1])));
                }
                GuardedPop::LaneFinished(_) => finished += 1,
                GuardedPop::Empty => {
                    prop_assert!(false, "a shut-down queue with no busy lane is never empty");
                }
                GuardedPop::Shutdown => break,
            }
        }
        prop_assert_eq!(finished, lanes, "each lane finished exactly once");
        prop_assert!(remaining.iter().all(|&r| r == 0), "every item delivered");
    }

    /// Weight derivation is monotone in the EWMA itself, stays in the
    /// valid lane-weight range, and one decision moves the EWMA by at
    /// most `KEEP_ALPHA`.
    #[test]
    fn weight_of_is_monotone_and_in_range(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(weight_of(lo) <= weight_of(hi));
        for w in [weight_of(a), weight_of(b)] {
            prop_assert!((1..=MAX_LANE_WEIGHT).contains(&w));
        }
        for kept in [false, true] {
            let step = (update_ewma(a, kept) - a).abs();
            prop_assert!(step <= KEEP_ALPHA + 1e-12, "one decision moved {step}");
        }
    }

    /// On stationary keep streams the derived priorities respect the
    /// keep-rate ordering: no inversion once the rates are separated by
    /// more than the EWMA's own ripple, and a wide gap is strict.
    #[test]
    fn priority_ordering_matches_keep_rate_ordering(
        low in 0.0f64..0.55,
        gap in 0.3f64..0.45,
        steps in 64usize..256,
    ) {
        let high = low + gap;
        let (e_low, e_high) = (stationary_ewma(low, steps), stationary_ewma(high, steps));
        // The EWMA tracks its input rate to within one decision's step.
        prop_assert!((e_low - low).abs() <= KEEP_ALPHA + 1e-9);
        prop_assert!((e_high - high).abs() <= KEEP_ALPHA + 1e-9);
        prop_assert!(
            weight_of(e_low) <= weight_of(e_high),
            "keep rates {low:.3} < {high:.3} but weights inverted: \
             {} > {}",
            weight_of(e_low),
            weight_of(e_high),
        );
        // A wide separation must be strict, not merely non-inverted.
        let (floor, ceiling) = (stationary_ewma(0.1, steps), stationary_ewma(0.9, steps));
        prop_assert!(weight_of(floor) < weight_of(ceiling));
    }
}
