//! On-line threshold adaptation: streaming score statistics that retarget a
//! change threshold to hit a requested sampling rate.
//!
//! The paper's fraction budgets are resolved *offline*: score the whole
//! video, sort, pick the threshold that keeps the requested fraction
//! (`sieve_filters::calibrate_fractions`). A live edge never sees the whole
//! video, so this module provides the on-line counterpart behind
//! `sieve_filters::Budget::TargetRate` sessions and the `sieve-fleet`
//! runtime:
//!
//! * a private P² streaming quantile estimator (Jain & Chlamtac, CACM
//!   1985): five markers track any quantile of an unbounded stream in O(1)
//!   memory, no samples stored;
//! * [`RateController`] — the controller itself. It thresholds each score
//!   at the running `(1 - target)`-quantile (the operating point whose keep
//!   probability is `target` on a stationary stream) plus a bias that a
//!   Robbins–Monro stochastic-approximation step moves toward the target.
//!   Its contract is a bound on the keep debt; see [`RateController`].
//!
//! The controller is fully deterministic: the same score stream always
//! yields the same decisions. Every controller also mirrors its activity
//! into the process-wide [`sieve_stats::global`] registry under the
//! `"adapt"` stage (`adapt.observed`, `adapt.kept`, `adapt.forced_keeps`)
//! — observation only, never an input to a decision, so determinism is
//! unaffected.
//!
//! # WAN feedback
//!
//! A hostile uplink changes what "the right sampling rate" is: when the
//! WAN drops more than its FEC can repair, shipping fewer frames beats
//! shipping corrupt gaps. [`WanFeedback`] is one receiver-side quantum of
//! loss/recovery counts (produced by `sieve-net` from the same `wan.*`
//! registry series the operator watches), and [`WanSignal`] folds those
//! quanta into a multiplicative-decrease / additive-increase *target
//! factor* in `[MIN_WAN_FACTOR, 1]`. Every controller scales its requested
//! rate by its signal's factor ([`RateController::effective_target`]);
//! controllers share the process-wide [`wan_signal`] by default, so one
//! congested uplink tightens every stream it carries.

use std::sync::{Arc, OnceLock};

use sieve_stats::sync::atomic::{AtomicU64, Ordering};
use sieve_stats::Counter;

use crate::error::SieveError;

/// The P² streaming quantile estimator: tracks the `p`-quantile of an
/// unbounded stream with five markers and no stored samples.
///
/// Until five observations have arrived the estimate is the empirical
/// quantile of the buffered prefix; from the sixth observation on, marker
/// heights move by the piecewise-parabolic (P²) update.
#[derive(Debug, Clone)]
struct P2Quantile {
    p: f64,
    /// Marker heights (estimated quantile values).
    heights: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    increments: [f64; 5],
    /// Initialisation buffer holding the first < 5 observations, sorted.
    init: Vec<f64>,
    count: u64,
}

impl P2Quantile {
    /// An estimator for the `p`-quantile, `p` in `[0, 1]`.
    fn new(p: f64) -> Self {
        Self {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            init: Vec::with_capacity(5),
            count: 0,
        }
    }

    /// The current quantile estimate; `None` before the first observation.
    fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count < 5 {
            // Empirical quantile of the sorted prefix.
            let idx = (self.p * (self.init.len() - 1) as f64).round() as usize;
            return Some(self.init[idx.min(self.init.len() - 1)]);
        }
        Some(self.heights[2])
    }

    /// Folds in one observation.
    fn insert(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            let at = self.init.partition_point(|&v| v <= x);
            self.init.insert(at, x);
            if self.count == 5 {
                self.heights.copy_from_slice(&self.init);
            }
            return;
        }
        // 1. Find the cell k containing x, clamping the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // heights[k] <= x < heights[k+1]; the guards above bound x in
            // [heights[0], heights[4]), so the scan cannot miss — but fold
            // the impossible case into the last interior cell instead of
            // panicking on a hot path.
            (0..4).find(|&i| x < self.heights[i + 1]).unwrap_or(3)
        };
        // 2. Shift actual positions above the cell; advance desired ones.
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }
        // 3. Adjust the three interior markers toward their desired ranks.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// The piecewise-parabolic (P²) height prediction for marker `i` moved
    /// by `d` (±1).
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + d / (np - nm)
            * ((n - nm + d) * (hp - h) / (np - n) + (np - n - d) * (h - hm) / (n - nm))
    }

    /// Linear fallback when the parabolic prediction is not monotone.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }
}

/// One feedback quantum from a WAN receiver: what happened to the packets
/// and FEC blocks sent during the quantum, counted edge-ward after the
/// feedback delay. All plain counts — the control law never needs a
/// denominator, so a quantum is meaningful at any send rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WanFeedback {
    /// Packets the channel's loss model erased — corruption-style loss,
    /// *not* congestion; see [`WanFeedback::congestion_dropped`].
    pub lost: u64,
    /// Packets tail-dropped by the bottleneck queue. Kept apart from
    /// [`WanFeedback::lost`] because the control response differs: random
    /// erasure is FEC's job and sending slower does not reduce it, while
    /// congestion drops mean the offered load exceeds the link and the
    /// sender must back off *before* whole blocks start dying.
    pub congestion_dropped: u64,
    /// Packets delivered but ECN-marked: they arrived to a standing
    /// bottleneck queue. The earliest congestion signal — it fires while
    /// the queue still has headroom, before anything is dropped, so the
    /// sender can back off without paying for the lesson in lost blocks.
    pub marked: u64,
    /// Packets that arrived out of order.
    pub reordered: u64,
    /// Blocks delivered only thanks to FEC recovery.
    pub recovered: u64,
    /// Blocks lost beyond FEC's repair capability.
    pub unrecoverable: u64,
    /// Payload bytes of delivered (or recovered) blocks.
    pub delivered_bytes: u64,
}

/// The floor of the WAN target factor: a collapsed channel still samples
/// at one fifth of the requested rate rather than going dark.
// lint:allow(dead-pub): the floor crates/net/tests/feedback_convergence.rs holds sustained loss to
pub const MIN_WAN_FACTOR: f64 = 0.2;

/// Multiplicative decrease applied per quantum with unrecoverable blocks.
const WAN_DECREASE: f64 = 0.7;
/// Feedback quanta to hold after a multiplicative decrease before another
/// one may fire. The edge controllers need several quanta of observations
/// to actually shed load after the factor drops; without this hold-off a
/// single overload episode triggers a decrease *per quantum* while the
/// queue drains, slamming the factor to the floor long before the edge
/// had a chance to react — the WAN analogue of TCP's one window
/// reduction per round trip.
const WAN_MD_HOLDOFF_QUANTA: u64 = 10;
/// Additive increase per clean quantum (no loss at all). Deliberately
/// gentle: congestion is detected by an *integral* signal (the standing
/// queue crossing the ECN threshold), so a fast probe overshoots far past
/// the link rate before the queue can say so, and every AIMD cycle peak
/// then rides the backlog into the drop bound. Probing at 0.02/quantum
/// keeps the overshoot inside the queue's headroom.
const WAN_INCREASE: f64 = 0.02;
/// Slow creep per quantum where FEC repaired everything the channel lost
/// — the channel is coping, probe upward gently.
const WAN_CREEP: f64 = 0.005;

/// Fixed-point scale of the shared factor (parts per million).
const WAN_PPM: f64 = 1e6;

/// A shared WAN target factor: the AIMD state one uplink's feedback loop
/// writes and every coupled [`RateController`] reads.
///
/// Quanta with unrecoverable blocks, congestion drops *or* ECN marks
/// multiply the factor by 0.7 (clamped at [`MIN_WAN_FACTOR`]) — marks
/// back the sender off while the queue and FEC are still absorbing the
/// damage, before blocks die. Clean quanta add 0.02 back (clamped at
/// 1.0); quanta whose random losses FEC fully repaired creep up by 0.005
/// — erasure loss is not a back-off signal, since sending slower does
/// not reduce it.
/// Under a congested channel this is classic AIMD: the factor oscillates
/// just under the rate the link can carry. Decreases are rate-limited to
/// one per `WAN_MD_HOLDOFF_QUANTA` quanta so a single queue-drain
/// episode cannot cascade into a collapse (see [`WanSignal::apply`]). The
/// factor is stored as parts per million in one atomic, so readers on the
/// per-frame decision path pay a single relaxed load.
pub struct WanSignal {
    factor_ppm: AtomicU64,
    /// Quanta left before the next multiplicative decrease may fire.
    /// Written only by the (single) feedback loop; plain load/store is
    /// enough.
    md_holdoff: AtomicU64,
}

impl WanSignal {
    /// A signal at factor 1.0 (no WAN pressure).
    // lint:allow(dead-pub): crates/core/tests/rate_contract.rs drives the controller through an explicit signal
    pub fn new() -> Self {
        Self {
            factor_ppm: AtomicU64::new(WAN_PPM as u64),
            md_holdoff: AtomicU64::new(0),
        }
    }

    /// The current target factor in `[MIN_WAN_FACTOR, 1]`.
    pub fn factor(&self) -> f64 {
        self.factor_ppm.load(Ordering::Relaxed) as f64 / WAN_PPM
    }

    /// Folds in one feedback quantum; returns the updated factor.
    ///
    /// At most one multiplicative decrease fires per
    /// `WAN_MD_HOLDOFF_QUANTA`-quantum window: congested quanta inside
    /// the window hold the factor steady (the previous decrease is still
    /// propagating to the edge), while increases are never held — a clean
    /// quantum means the episode is over.
    pub fn apply(&self, fb: &WanFeedback) -> f64 {
        let f = self.factor();
        let holdoff = self.md_holdoff.load(Ordering::Relaxed);
        if holdoff > 0 {
            self.md_holdoff.store(holdoff - 1, Ordering::Relaxed);
        }
        let congested = fb.unrecoverable > 0 || fb.congestion_dropped > 0 || fb.marked > 0;
        let next = if congested && holdoff == 0 {
            self.md_holdoff
                .store(WAN_MD_HOLDOFF_QUANTA, Ordering::Relaxed);
            (f * WAN_DECREASE).max(MIN_WAN_FACTOR)
        } else if congested {
            f
        } else if fb.lost > 0 || fb.recovered > 0 {
            (f + WAN_CREEP).min(1.0)
        } else {
            (f + WAN_INCREASE).min(1.0)
        };
        self.factor_ppm
            .store((next * WAN_PPM).round() as u64, Ordering::Relaxed);
        next
    }

    /// Resets the factor to 1.0 (e.g. between experiment configurations).
    pub fn reset(&self) {
        self.factor_ppm.store(WAN_PPM as u64, Ordering::Relaxed);
        self.md_holdoff.store(0, Ordering::Relaxed);
    }
}

impl Default for WanSignal {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WanSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WanSignal")
            .field("factor", &self.factor())
            .finish()
    }
}

/// The process-wide WAN signal every [`RateController::new`] couples to.
/// Stays at factor 1.0 (no effect) until a WAN feedback loop writes it.
pub fn wan_signal() -> &'static Arc<WanSignal> {
    static SIGNAL: OnceLock<Arc<WanSignal>> = OnceLock::new();
    SIGNAL.get_or_init(|| Arc::new(WanSignal::new()))
}

/// Weight of each new sample in the score-spread average.
const SPREAD_ALPHA: f64 = 0.05;
/// Steady-state gain of the bias step, in units of the score spread.
const GAIN: f64 = 0.04;

/// Retargets a change-score threshold on-line so that the keep rate tracks
/// a requested sampling rate, with no offline calibration pass.
///
/// Per score the controller (1) keeps the frame if the score exceeds the
/// running P² estimate of the `(1 - target)`-quantile plus a bias, (2) folds
/// the score into that estimate and into the score spread, an exponential
/// average of `|score - quantile|`, and (3) moves the bias by a Robbins–Monro
/// step: the spread times a decaying gain, times the per-frame indicator
/// `kept - target` plus the clamped keep debt. So persistent over-sampling
/// raises the threshold and under-sampling lowers it even when the quantile
/// estimate is biased or the stream drifts.
///
/// # Contract
///
/// The keep debt after `n` frames is the number of frames kept minus the sum
/// of [`RateController::effective_target`] over those `n` frames, forced
/// keeps included. After a warm-up of W = 100 frames, `|debt| <= B` with
/// B = 163 frames. `crates/core/tests/rate_contract.rs` holds this over nine
/// stream families (i.i.d., ×10 and ÷10 level shifts, ramps up and down,
/// constant, 1% spikes, sawtooth and a WAN factor step) at targets 0.02, 0.1
/// and 0.3 for 20 000 frames. B is 1.5 times the worst debt read there,
/// 108.1 frames: early spikes wind the bias up in units of a spike-inflated
/// spread. Every other case stays within 36 frames.
///
/// ```
/// use sieve_core::adapt::RateController;
///
/// let mut rc = RateController::new(0.2).unwrap();
/// // A deterministic stationary stream with distinct scores.
/// let mut kept = 0;
/// for i in 0..2000u64 {
///     let score = ((i.wrapping_mul(2654435761)) % 1000) as f64;
///     if rc.observe(score) {
///         kept += 1;
///     }
/// }
/// let rate = kept as f64 / 2000.0;
/// assert!((rate - 0.2).abs() < 0.05, "achieved {rate}");
/// ```
#[derive(Debug, Clone)]
pub struct RateController {
    target: f64,
    quantile: P2Quantile,
    /// Exponential average of `|score - quantile|`, the unit of the bias
    /// step; `None` before the first score.
    spread: Option<f64>,
    bias: f64,
    observed: u64,
    kept: u64,
    /// Running integral of the *effective* target over observations: the
    /// keep-debt baseline, so WAN tightening retargets the cumulative rate
    /// too, not just the per-frame indicator.
    target_integral: f64,
    /// The WAN factor as of the last observation, for the feed-forward
    /// threshold jump when the factor moves.
    last_factor: f64,
    wan: Arc<WanSignal>,
    stats: AdaptStats,
}

/// Pre-resolved handles into the global `"adapt"` stage, shared by every
/// controller in the process (the registry aggregates across streams).
#[derive(Debug, Clone)]
struct AdaptStats {
    observed: Arc<Counter>,
    kept: Arc<Counter>,
    forced_keeps: Arc<Counter>,
}

impl AdaptStats {
    fn resolve() -> Self {
        let stage = sieve_stats::global().stage("adapt");
        Self {
            observed: stage.contended_counter("observed"),
            kept: stage.contended_counter("kept"),
            forced_keeps: stage.contended_counter("forced_keeps"),
        }
    }
}

impl RateController {
    /// A controller targeting `target` (fraction of frames kept) in
    /// `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::Selector`] for a target outside `(0, 1]`.
    pub fn new(target: f64) -> Result<Self, SieveError> {
        Self::with_wan_signal(target, wan_signal().clone())
    }

    /// [`RateController::new`], coupled to `signal` instead of the
    /// process-wide [`wan_signal`] — for tests and side-by-side A/B runs
    /// that must not share WAN state.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::Selector`] for a target outside `(0, 1]`.
    // lint:allow(dead-pub): the explicit-signal constructor; ROADMAP's globals item (a) makes it the only one
    pub fn with_wan_signal(target: f64, signal: Arc<WanSignal>) -> Result<Self, SieveError> {
        if !(target > 0.0 && target <= 1.0) {
            return Err(SieveError::selector(format!(
                "target sampling rate {target} outside (0, 1]"
            )));
        }
        let last_factor = signal.factor();
        Ok(Self {
            target,
            quantile: P2Quantile::new(1.0 - target),
            spread: None,
            bias: 0.0,
            observed: 0,
            kept: 0,
            target_integral: 0.0,
            last_factor,
            wan: signal,
            stats: AdaptStats::resolve(),
        })
    }

    /// The rate the controller is steering toward right now: the requested
    /// target scaled by the coupled [`WanSignal`]'s factor. Equal to the
    /// requested target while the WAN is healthy.
    // lint:allow(dead-pub): the WAN coupling crates/net/tests/feedback_convergence.rs checks
    pub fn effective_target(&self) -> f64 {
        self.target * self.wan.factor()
    }

    /// The threshold the next score will be compared against. Before any
    /// score arrives it is `-inf`-like (everything is kept while the
    /// distribution is unknown — shipping an extra frame is recoverable,
    /// losing an early event is not).
    fn threshold(&self) -> f64 {
        match self.quantile.estimate() {
            None => f64::NEG_INFINITY,
            Some(q) => q + self.bias,
        }
    }

    /// Feed-forward for WAN factor moves: when the effective target jumps,
    /// shift the threshold immediately by the exponential-tail estimate of
    /// the quantile displacement — moving the keep rate from `r` to `r'`
    /// takes a threshold shift of `spread × ln(r / r')` under an
    /// exponential upper tail — instead of waiting for the
    /// stochastic-approximation loop to walk there one small step per
    /// frame. The SA loop then corrects whatever the tail model got wrong.
    /// Without this the edge lags the WAN signal by seconds of
    /// observations, and a congestion back-off only reaches the wire after
    /// the queue has already paid for the delay in dropped packets.
    fn feed_forward(&mut self) {
        let factor = self.wan.factor();
        if (factor - self.last_factor).abs() < 1e-12 {
            return;
        }
        let scale = self.spread.unwrap_or(0.0);
        if scale > 0.0 && factor > 0.0 && self.last_factor > 0.0 {
            self.bias += scale * (self.last_factor / factor).ln();
        }
        self.last_factor = factor;
    }

    /// Observes one change score and decides whether to keep the frame,
    /// updating every running statistic.
    pub fn observe(&mut self, score: f64) -> bool {
        self.feed_forward();
        let keep = score > self.threshold();
        self.observed += 1;
        self.stats.observed.inc();
        if keep {
            self.kept += 1;
            self.stats.kept.inc();
        }
        let base = self.quantile.estimate().unwrap_or(score);
        let deviation = (score - base).abs();
        let spread = match self.spread {
            None => deviation,
            Some(v) => v + SPREAD_ALPHA * (deviation - v),
        };
        self.spread = Some(spread);
        self.quantile.insert(score);
        // Stochastic-approximation correction: scale the step by the score
        // spread so the controller is unit-free, with a decaying gain —
        // strong corrections while the quantile estimate is still coarse
        // (shortening the start-up transient), settling to a small
        // steady-state gain that keeps tracking drift.
        let decay = 10.0 / (1.0 + self.observed as f64 / 8.0);
        let gain = GAIN * decay.max(1.0);
        // Scale floor: a constant-score stream has zero spread, and a
        // subnormal step would be absorbed by the `quantile + bias`
        // rounding — freezing the controller. Floor at a ppm of the score
        // scale so even degenerate streams keep a live control loop.
        let scale = spread.max(1e-6 * base.abs()).max(f64::MIN_POSITIVE);
        let step = gain * scale;
        // Two error terms: the per-frame indicator is the unbiased
        // stochastic gradient, and a bounded integral term on the *keep
        // debt* (frames kept beyond `target × observed`) repays transient
        // overshoot — e.g. a level shift the cumulative quantile absorbs
        // slowly — so the cumulative sampling rate, not just the recent
        // one, converges to the target.
        let target = self.effective_target();
        self.target_integral += target;
        let indicator = if keep { 1.0 } else { 0.0 } - target;
        let debt = self.kept as f64 - self.target_integral;
        self.bias += step * (indicator + (debt / 8.0).clamp(-1.0, 1.0));
        keep
    }

    /// Records a frame kept unconditionally (e.g. the first frame of a
    /// stream): it counts toward the keep debt but carries no score.
    pub fn note_forced_keep(&mut self) {
        self.observed += 1;
        self.kept += 1;
        self.target_integral += self.effective_target();
        self.stats.observed.inc();
        self.stats.kept.inc();
        self.stats.forced_keeps.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-uniform stream in [0, 1).
    fn uniform(seed: u64, i: u64) -> f64 {
        let mut z = seed
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x1234_5678);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn p2_matches_empirical_quantile_on_uniform() {
        for &p in &[0.1, 0.5, 0.9, 0.95] {
            let mut q = P2Quantile::new(p);
            for i in 0..20_000u64 {
                q.insert(uniform(7, i));
            }
            let est = q.estimate().unwrap();
            assert!(
                (est - p).abs() < 0.03,
                "P2({p}) on uniform gave {est}, expected ~{p}"
            );
        }
    }

    #[test]
    fn p2_small_sample_prefix_is_empirical() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), None);
        for &x in &[5.0, 1.0, 3.0] {
            q.insert(x);
        }
        assert_eq!(q.estimate(), Some(3.0), "median of {{1, 3, 5}}");
    }

    #[test]
    fn p2_handles_constant_stream() {
        let mut q = P2Quantile::new(0.9);
        for _ in 0..1000 {
            q.insert(42.0);
        }
        assert_eq!(q.estimate(), Some(42.0));
    }

    #[test]
    fn controller_rejects_bad_targets() {
        assert!(RateController::new(0.0).is_err());
        assert!(RateController::new(1.5).is_err());
        assert!(RateController::new(-0.1).is_err());
        assert!(RateController::new(1.0).is_ok());
    }

    #[test]
    fn controller_converges_on_stationary_streams() {
        // Exponential-ish and uniform stationary streams, several targets:
        // the tail keep rate must land within ±20% of the target.
        for &target in &[0.05, 0.1, 0.3] {
            for seed in 0..3u64 {
                let mut rc = RateController::new(target).unwrap();
                let n = 6000u64;
                let tail_from = n / 2;
                let mut tail_kept = 0u64;
                for i in 0..n {
                    let u = uniform(seed, i);
                    // Mixture: mostly small "background" scores, occasional
                    // heavy-tail spikes — the shape of real MSE streams.
                    let score = if u < 0.9 { u } else { 10.0 + 100.0 * (u - 0.9) };
                    let keep = rc.observe(score);
                    if keep && i >= tail_from {
                        tail_kept += 1;
                    }
                }
                let rate = tail_kept as f64 / (n - tail_from) as f64;
                assert!(
                    (rate - target).abs() <= 0.2 * target + 0.005,
                    "target {target} seed {seed}: tail rate {rate}"
                );
            }
        }
    }

    #[test]
    fn controller_adapts_to_drift() {
        // The score scale grows 10x halfway; the controller must re-center.
        let mut rc = RateController::new(0.1).unwrap();
        let n = 8000u64;
        let mut late_kept = 0u64;
        for i in 0..n {
            let scale = if i < n / 2 { 1.0 } else { 10.0 };
            let keep = rc.observe(scale * uniform(3, i));
            if keep && i >= 3 * n / 4 {
                late_kept += 1;
            }
        }
        let rate = late_kept as f64 / (n / 4) as f64;
        assert!(
            (rate - 0.1).abs() <= 0.03,
            "post-drift rate {rate} strayed from 0.1"
        );
    }

    #[test]
    fn controller_does_not_freeze_on_constant_scores() {
        // Zero spread must not zero out the control loop: on a perfectly
        // constant stream the threshold dithers around the tied value and
        // the cumulative rate still tracks the target (bang-bang control).
        for &c in &[42.0, 1e6] {
            let mut rc = RateController::new(0.1).unwrap();
            let n = 6000u64;
            let mut kept = 0u64;
            for _ in 0..n {
                if rc.observe(c) {
                    kept += 1;
                }
            }
            let rate = kept as f64 / n as f64;
            assert!(
                (rate - 0.1).abs() <= 0.05,
                "constant-score ({c}) stream achieved {rate}, want ~0.1"
            );
        }
    }

    #[test]
    fn forced_keeps_count_toward_achieved_rate() {
        let mut rc = RateController::with_wan_signal(0.5, Arc::new(WanSignal::new())).unwrap();
        rc.note_forced_keep();
        assert_eq!((rc.observed, rc.kept), (1, 1));
        assert!((rc.target_integral - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wan_signal_aimd_law() {
        let s = WanSignal::new();
        assert!((s.factor() - 1.0).abs() < 1e-9);
        // Unrecoverable loss: multiplicative decrease down to the floor.
        let bad = WanFeedback {
            unrecoverable: 3,
            lost: 10,
            ..WanFeedback::default()
        };
        s.apply(&bad);
        assert!((s.factor() - 0.7).abs() < 1e-6);
        // A second congested quantum inside the hold-off window must NOT
        // decrease again — the first decrease is still propagating.
        s.apply(&bad);
        assert!((s.factor() - 0.7).abs() < 1e-6, "held during MD hold-off");
        // Persistent congestion still walks the factor to the floor, one
        // decrease per hold-off window.
        for _ in 0..100 {
            s.apply(&bad);
        }
        assert!((s.factor() - MIN_WAN_FACTOR).abs() < 1e-6, "floored");
        // FEC coping (loss but fully recovered): slow upward creep.
        let coping = WanFeedback {
            lost: 5,
            recovered: 2,
            ..WanFeedback::default()
        };
        let before = s.factor();
        s.apply(&coping);
        assert!((s.factor() - before - 0.005).abs() < 1e-6);
        // Clean quanta: additive increase back to 1.0.
        for _ in 0..60 {
            s.apply(&WanFeedback::default());
        }
        assert!((s.factor() - 1.0).abs() < 1e-9, "recovered to 1.0");
        // Congestion drops back off even when FEC kept every block alive:
        // the queue is already overflowing, waiting for dead blocks would
        // react a whole FEC group too late.
        s.apply(&WanFeedback {
            congestion_dropped: 1,
            recovered: 1,
            ..WanFeedback::default()
        });
        assert!(
            (s.factor() - 0.7).abs() < 1e-6,
            "congestion is an MD signal"
        );
        s.apply(&bad);
        s.reset();
        assert!((s.factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn controller_effective_target_follows_its_signal() {
        let signal = Arc::new(WanSignal::new());
        let rc = RateController::with_wan_signal(0.3, signal.clone()).unwrap();
        assert!((rc.effective_target() - 0.3).abs() < 1e-12);
        signal.apply(&WanFeedback {
            unrecoverable: 1,
            ..WanFeedback::default()
        });
        assert!((rc.effective_target() - 0.3 * 0.7).abs() < 1e-6);
        assert!(
            (rc.target - 0.3).abs() < 1e-12,
            "requested target is unchanged"
        );
        // A second controller on the same signal sees the same pressure.
        let rc2 = RateController::with_wan_signal(0.1, signal).unwrap();
        assert!((rc2.effective_target() - 0.1 * 0.7).abs() < 1e-6);
    }

    mod properties {
        use super::super::P2Quantile;
        use proptest::prelude::*;

        /// Fraction of `sorted` at or below `x`: where the estimate lands
        /// in the *exact* empirical distribution.
        fn empirical_rank(sorted: &[f64], x: f64) -> f64 {
            sorted.partition_point(|&v| v <= x) as f64 / sorted.len() as f64
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// On any random score stream — flat or heavy-tailed, the two
            /// shapes real change-score streams take — the P² estimate of
            /// the p-quantile must sit within a few rank percent of the
            /// exact empirical quantile of the same stream.
            #[test]
            fn p2_tracks_exact_empirical_quantile(
                raw in proptest::collection::vec(0.0f64..1.0, 1500..3000),
                p in 0.05f64..0.9,
                heavy_tail in 0u8..2,
            ) {
                // `heavy_tail` stretches the top decile by ~1000x, the
                // spike shape of MSE scores at scene cuts.
                let scores: Vec<f64> = raw
                    .iter()
                    .map(|&u| {
                        if heavy_tail == 1 && u > 0.9 {
                            10.0 + 1000.0 * (u - 0.9)
                        } else {
                            u
                        }
                    })
                    .collect();
                let mut q = P2Quantile::new(p);
                for &s in &scores {
                    q.insert(s);
                }
                let est = q.estimate().expect("stream was non-empty");
                let mut sorted = scores;
                sorted.sort_by(f64::total_cmp);
                let rank = empirical_rank(&sorted, est);
                prop_assert!(
                    (rank - p).abs() <= 0.08,
                    "P2({p}) over {} samples (heavy_tail={heavy_tail}) \
                     estimated {est}, which sits at empirical rank {rank}",
                    sorted.len()
                );
            }
        }
    }
}
