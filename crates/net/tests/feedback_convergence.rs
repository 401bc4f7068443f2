//! End-to-end behaviour of the feedback-driven rate control loop:
//! WAN feedback quanta → [`WanSignal`] → [`RateController`] keep rate.
//!
//! Three regimes, in sequence on one controller:
//!
//! 1. **Lossless** — the controller converges on the requested target;
//! 2. **Sustained loss** — quanta carrying unrecoverable blocks tighten
//!    the effective target multiplicatively, and the smoothed achieved
//!    rate settles clearly below the lossless target;
//! 3. **Recovery** — clean quanta ease the factor back to 1.0, and the
//!    achieved rate returns to within ±20% of the requested target.

use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};
use sieve_core::adapt::{RateController, WanFeedback, WanSignal, MIN_WAN_FACTOR};

const TARGET: f64 = 0.5;

/// Runs `n` uniform-score observations and returns the fraction kept.
fn window_rate(ctrl: &mut RateController, rng: &mut StdRng, n: usize) -> f64 {
    let mut kept = 0usize;
    for _ in 0..n {
        if ctrl.observe(rng.gen::<f64>()) {
            kept += 1;
        }
    }
    kept as f64 / n as f64
}

fn lossy_quantum() -> WanFeedback {
    WanFeedback {
        lost: 40,
        congestion_dropped: 12,
        marked: 25,
        reordered: 3,
        recovered: 6,
        unrecoverable: 2,
        delivered_bytes: 500_000,
    }
}

fn clean_quantum() -> WanFeedback {
    WanFeedback {
        delivered_bytes: 800_000,
        ..WanFeedback::default()
    }
}

#[test]
fn controller_tracks_wan_feedback_through_loss_and_recovery() {
    let signal = Arc::new(WanSignal::new());
    let mut ctrl = RateController::with_wan_signal(TARGET, signal.clone()).expect("valid target");
    let mut rng = StdRng::seed_from_u64(0xfeedbac);

    // Regime 1: healthy WAN. Converge, then measure.
    window_rate(&mut ctrl, &mut rng, 3000);
    let lossless = window_rate(&mut ctrl, &mut rng, 2000);
    assert!(
        (lossless - TARGET).abs() <= 0.2 * TARGET,
        "lossless rate {lossless:.3} outside ±20% of target {TARGET}"
    );
    assert!((ctrl.effective_target() - TARGET).abs() < 1e-9);

    // Regime 2: sustained loss. Quanta with unrecoverable blocks
    // multiply the factor down (one decrease per hold-off window);
    // interleave quanta with observations the way the uplink would.
    for _ in 0..100 {
        signal.apply(&lossy_quantum());
        window_rate(&mut ctrl, &mut rng, 100);
    }
    assert!(
        (signal.factor() - MIN_WAN_FACTOR).abs() < 0.05,
        "sustained unrecoverable loss should pin the factor near its floor, got {}",
        signal.factor()
    );
    // Let the controller settle at the tightened target, then measure.
    window_rate(&mut ctrl, &mut rng, 4000);
    let throttled = window_rate(&mut ctrl, &mut rng, 2000);
    assert!(
        throttled < 0.6 * lossless,
        "under sustained loss the achieved rate must settle clearly below the \
         lossless target: throttled {throttled:.3} vs lossless {lossless:.3}"
    );

    // Regime 3: the WAN heals. Clean quanta ease the factor back up.
    for _ in 0..60 {
        signal.apply(&clean_quantum());
        window_rate(&mut ctrl, &mut rng, 100);
    }
    assert!(
        (signal.factor() - 1.0).abs() < 1e-9,
        "clean quanta must restore the factor to 1.0, got {}",
        signal.factor()
    );
    window_rate(&mut ctrl, &mut rng, 6000);
    let recovered = window_rate(&mut ctrl, &mut rng, 2000);
    assert!(
        (recovered - TARGET).abs() <= 0.2 * TARGET,
        "after recovery the rate must return to within ±20% of target: \
         got {recovered:.3}, target {TARGET}"
    );
}

#[test]
fn two_controllers_sharing_a_signal_throttle_together() {
    let signal = Arc::new(WanSignal::new());
    let a = RateController::with_wan_signal(0.4, signal.clone()).expect("valid target");
    let b = RateController::with_wan_signal(0.8, signal.clone()).expect("valid target");
    for _ in 0..10 {
        signal.apply(&lossy_quantum());
    }
    let factor = signal.factor();
    assert!(factor < 1.0);
    // Feedback on the shared signal tightens both controllers: the signal
    // is the shared uplink's state, not per-stream.
    assert!((a.effective_target() - 0.4 * factor).abs() < 1e-9);
    assert!((b.effective_target() - 0.8 * factor).abs() < 1e-9);
}

#[test]
fn isolated_signals_do_not_leak_across_controllers() {
    let signal_a = Arc::new(WanSignal::new());
    let a = RateController::with_wan_signal(0.5, signal_a.clone()).expect("valid target");
    let b = RateController::with_wan_signal(0.5, Arc::new(WanSignal::new())).expect("valid target");
    for _ in 0..10 {
        signal_a.apply(&lossy_quantum());
    }
    assert!(a.effective_target() < 0.5);
    assert!(
        (b.effective_target() - 0.5).abs() < 1e-9,
        "b's signal must be untouched"
    );
}
