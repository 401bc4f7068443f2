//! The keep-debt contract of `RateController`, pinned through its public API.
//!
//! The keep debt after `n` frames is the number of frames kept minus the sum
//! of the effective target over those `n` frames. The controller promises
//! that, after a warm-up of `WARM_UP` frames, the debt never leaves
//! `±DEBT_BOUND`, whatever shape the score stream takes. This test drives
//! each stream family below at each target in `TARGETS` over `FRAMES`
//! frames, as a live edge does: frame 0 is a forced keep, every later frame
//! is `observe`d, and the debt is checked after every frame.

use std::sync::Arc;

use sieve_core::adapt::{RateController, WanFeedback, WanSignal};

/// Frames observed before the bound applies; the controller's doc states it.
const WARM_UP: u64 = 100;
/// The bound on |kept − Σ effective target| after `WARM_UP`; the
/// controller's doc states it. It is the measured worst case over the
/// families, targets and seeds below, 108.1 frames, times 1.5, rounded up.
/// That worst case is 1% spikes at target 0.02, seed 3: spikes in the first
/// few hundred frames wind the bias up in units of a spike-inflated spread,
/// and it unwinds in units of the calm spread that follows, keeping nothing
/// for about 6 000 frames. Every other case read at most 36 frames.
const DEBT_BOUND: f64 = 163.0;

const FRAMES: u64 = 20_000;
const TARGETS: [f64; 3] = [0.02, 0.1, 0.3];
const SEEDS: [u64; 3] = [1, 2, 3];

/// A deterministic pseudo-uniform draw in [0, 1) (SplitMix64 finaliser).
fn uniform(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0xD1B5_4A32_D192_ED03)
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// An exponential draw with mean 1: the long upper tail change scores have.
fn exponential(seed: u64, i: u64) -> f64 {
    -(1.0 - uniform(seed, i)).ln()
}

#[derive(Debug, Clone, Copy)]
enum Family {
    Iid,
    ShiftUp,
    ShiftDown,
    RampUp,
    RampDown,
    Constant,
    Spikes,
    Sawtooth,
    /// An i.i.d. stream while the WAN factor steps 1 → 0.49 → 1.
    WanStep,
}

const FAMILIES: [Family; 9] = [
    Family::Iid,
    Family::ShiftUp,
    Family::ShiftDown,
    Family::RampUp,
    Family::RampDown,
    Family::Constant,
    Family::Spikes,
    Family::Sawtooth,
    Family::WanStep,
];

impl Family {
    fn score(self, seed: u64, i: u64) -> f64 {
        let x = exponential(seed, i);
        let at = i as f64 / FRAMES as f64;
        match self {
            Family::Iid | Family::WanStep => x,
            Family::ShiftUp => x * if at < 0.5 { 1.0 } else { 10.0 },
            Family::ShiftDown => x * if at < 0.5 { 10.0 } else { 1.0 },
            Family::RampUp => x * (1.0 + 9.0 * at),
            Family::RampDown => x * (10.0 - 9.0 * at),
            Family::Constant => 42.0,
            Family::Spikes => {
                if uniform(seed ^ 0x5EED, i) < 0.01 {
                    100.0 * (1.0 + x)
                } else {
                    x
                }
            }
            Family::Sawtooth => x * (1.0 + 9.0 * (i % 1000) as f64 / 1000.0),
        }
    }
}

/// Moves `signal` for the WAN step: at a third of the stream, two
/// multiplicative decreases (the second once the hold-off has run out)
/// take the factor from 1 to 0.49; at two thirds it resets to 1.
fn step_wan(signal: &WanSignal, i: u64) {
    if i == FRAMES / 3 {
        let congested = WanFeedback {
            unrecoverable: 1,
            ..WanFeedback::default()
        };
        while signal.factor() > 0.5 {
            signal.apply(&congested);
        }
    } else if i == 2 * FRAMES / 3 {
        signal.reset();
    }
}

/// The largest |debt| after the warm-up, for one family, target and seed.
fn worst_debt(family: Family, target: f64, seed: u64) -> f64 {
    let signal = Arc::new(WanSignal::new());
    let mut rc = RateController::with_wan_signal(target, signal.clone()).expect("valid target");
    rc.note_forced_keep();
    let mut kept = 1.0;
    let mut owed = rc.effective_target();
    let mut worst: f64 = 0.0;
    for i in 1..FRAMES {
        if let Family::WanStep = family {
            step_wan(&signal, i);
        }
        owed += rc.effective_target();
        if rc.observe(family.score(seed, i)) {
            kept += 1.0;
        }
        if i >= WARM_UP {
            worst = worst.max((kept - owed).abs());
        }
    }
    worst
}

#[test]
fn keep_debt_stays_bounded_after_warm_up() {
    let mut worst = (0.0, Family::Iid, 0.0, 0);
    for family in FAMILIES {
        for target in TARGETS {
            for seed in SEEDS {
                let debt = worst_debt(family, target, seed);
                if debt > worst.0 {
                    worst = (debt, family, target, seed);
                }
            }
        }
    }
    let (debt, family, target, seed) = worst;
    eprintln!("worst keep debt {debt:.2} frames: {family:?} at target {target}, seed {seed}");
    assert!(
        debt <= DEBT_BOUND,
        "keep debt {debt:.2} > {DEBT_BOUND} frames: {family:?} at target {target}, seed {seed}"
    );
}

#[test]
fn wan_step_reaches_half_the_requested_rate() {
    // The WAN family is only a test of the factor's path if the factor
    // really moves: check the step lands where the family says it does.
    let signal = WanSignal::new();
    step_wan(&signal, FRAMES / 3);
    assert!((signal.factor() - 0.49).abs() < 1e-6, "{}", signal.factor());
    step_wan(&signal, 2 * FRAMES / 3);
    assert_eq!(signal.factor(), 1.0);
}
