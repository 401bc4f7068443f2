//! [`FrameSelector`] adapters for the image-similarity baselines.
//!
//! These plug the NoScope-style filters into `sieve-core`'s streaming
//! selection layer. Each adapter is a session factory:
//!
//! * [`UniformSelector`] decides every frame from its index alone — its
//!   session never touches pixels, though it still requires the full
//!   decode (P-frames chain, so *reaching* a sampled frame means decoding
//!   up to it);
//! * [`ChangeSelector`] (MSE, SIFT, any [`ChangeDetector`]) requests pixels
//!   per frame ([`Decision::NeedsDecode`]), scores against the previous
//!   frame — the only decoded state a session holds — and keeps frames
//!   whose change exceeds the budgeted threshold.
//!
//! Fraction budgets ([`Budget::Fraction`]) need the whole video's score
//! distribution; [`FrameSelector::prepare`] resolves them to an absolute
//! threshold in one streaming scoring pass (the paper's offline
//! calibration), after which sessions replay the resolved operating point
//! on-line. [`Budget::TargetRate`] is the *deployable* counterpart: an
//! [`AdaptiveChangeSession`] tracks the score distribution as it streams
//! (EWMA + P² quantile) and retargets its threshold continuously, so a
//! live edge hits a requested sampling rate with no offline pass at all.
//! [`ChangeSelector::calibrate_fractions`] scores once and sweeps every
//! requested fraction in memory — Fig 3's one-decode calibration. Adding a
//! baseline to the whole system is: implement the session factory here and
//! price it in `sieve_core::SelectorKind::per_frame_secs`.

use std::sync::Arc;

use sieve_core::{
    Decision, EncodedFrameMeta, FrameSelector, RateController, SelectorSession, SieveError,
};
use sieve_video::{Decoder, EncodedVideo, Frame};

use crate::detector::{calibrate_threshold, select_frames, ChangeDetector};
use crate::mse::MseDetector;
use crate::sift::SiftDetector;

/// How a threshold baseline picks its operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Use a fixed absolute change-score threshold (e.g. tuned offline on a
    /// training prefix, the paper's deployment setting). Streams fully
    /// on-line.
    Threshold(f64),
    /// Calibrate the threshold on this video so that approximately this
    /// fraction of frames is selected (the paper's matched-sampling
    /// comparison setting). Resolved by [`FrameSelector::prepare`].
    Fraction(f64),
    /// Continuously retarget the threshold *on-line* so the achieved
    /// sampling rate tracks this fraction, with no offline calibration pass
    /// at all: sessions maintain a streaming score distribution (EWMA + P²
    /// quantile, see [`sieve_core::RateController`]) and adapt as frames
    /// arrive — the budget shape a live edge that never sees the whole
    /// video can actually deploy. Sessions are [`AdaptiveChangeSession`]s.
    TargetRate(f64),
}

/// Uniform sampling as a frame selector: keep frames `0, interval,
/// 2*interval, ...`. This is the paper's "Uniform Sampling" end-to-end
/// baseline; it has no change score.
#[derive(Debug, Clone, Copy)]
pub struct UniformSelector {
    interval: usize,
}

impl UniformSelector {
    /// Selects every `interval`-th frame.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn new(interval: usize) -> Self {
        assert!(interval > 0, "interval must be positive");
        Self { interval }
    }

    /// An interval that yields approximately `count` samples out of
    /// `total_frames` (used to match SiEVE's I-frame count, as the paper
    /// does "for fair comparison").
    pub fn matching_count(total_frames: usize, count: usize) -> Self {
        let interval = (total_frames / count.max(1)).max(1);
        Self::new(interval)
    }
}

impl FrameSelector for UniformSelector {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn session(&self) -> Box<dyn SelectorSession> {
        Box::new(UniformSession {
            interval: self.interval,
        })
    }
}

/// The streaming side of [`UniformSelector`]: an index-only decision.
struct UniformSession {
    interval: usize,
}

impl SelectorSession for UniformSession {
    fn observe(
        &mut self,
        index: usize,
        _meta: &EncodedFrameMeta,
        _frame: Option<&Frame>,
    ) -> Decision {
        if index.is_multiple_of(self.interval) {
            Decision::Keep
        } else {
            Decision::Drop
        }
    }
}

/// A change-detector baseline (MSE, SIFT, or any [`ChangeDetector`]) as a
/// streaming frame selector: score each decoded frame against its
/// predecessor, keep frames whose change exceeds the budgeted threshold.
#[derive(Debug)]
pub struct ChangeSelector<D: ChangeDetector> {
    detector: D,
    budget: Budget,
    name: &'static str,
    resolved: Option<Resolved>,
}

/// The operating point [`FrameSelector::prepare`] resolved for one video:
/// an absolute threshold, plus the scoring pass that produced it (replayed
/// by sessions so the calibration decode is never repeated).
#[derive(Debug, Clone)]
struct Resolved {
    threshold: f64,
    scores: Option<Arc<Vec<f64>>>,
}

impl<D: ChangeDetector> ChangeSelector<D> {
    /// Wraps `detector` with a selection budget.
    pub fn new(detector: D, budget: Budget) -> Self {
        Self {
            detector,
            budget,
            name: "",
            resolved: None,
        }
    }

    fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// One streaming scoring pass: decode each frame, score it against its
    /// predecessor, hold only that predecessor. `scores[i]` describes the
    /// pair `(i, i+1)`, matching [`crate::detector::score_sequence`].
    fn scores(&mut self, video: &EncodedVideo) -> Result<Vec<f64>, SieveError> {
        let mut decoder = Decoder::new(video.resolution(), video.quality());
        self.detector.reset();
        let mut prev: Option<Frame> = None;
        let mut scores = Vec::with_capacity(video.frame_count().saturating_sub(1));
        for ef in video.frames() {
            let frame = decoder.decode_frame(ef)?;
            if let Some(p) = &prev {
                scores.push(self.detector.change_score(p, &frame));
            }
            prev = Some(frame);
        }
        Ok(scores)
    }

    fn validate_fraction(f: f64) -> Result<(), SieveError> {
        if !(0.0..=1.0).contains(&f) || f == 0.0 {
            return Err(SieveError::selector(format!(
                "target fraction {f} outside (0, 1]"
            )));
        }
        Ok(())
    }

    /// Sweeps a batch of target sampling fractions in one pass: score the
    /// video once, resolve each fraction to an absolute threshold and apply
    /// it in memory — Fig 3's one-decode calibration. The budget is not
    /// consulted. Points come back in the order the fractions were given.
    ///
    /// # Errors
    ///
    /// Returns a [`SieveError`] if the video fails to decode, or
    /// [`SieveError::Selector`] for a fraction outside `(0, 1]`.
    pub fn calibrate_fractions(
        &mut self,
        video: &EncodedVideo,
        fractions: &[f64],
    ) -> Result<Vec<CalibrationPoint>, SieveError> {
        let scores = self.scores(video)?;
        let n = video.frame_count();
        fractions
            .iter()
            .map(|&f| {
                Self::validate_fraction(f)?;
                let threshold = calibrate_threshold(&scores, n, f);
                Ok(CalibrationPoint {
                    fraction: f,
                    threshold,
                    selected: select_frames(&scores, threshold),
                })
            })
            .collect()
    }
}

/// One operating point of [`ChangeSelector::calibrate_fractions`].
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationPoint {
    /// The requested sampling fraction, exactly as passed in.
    pub fraction: f64,
    /// The absolute change-score threshold the fraction resolved to.
    pub threshold: f64,
    /// Frame indices selected at this operating point.
    pub selected: Vec<usize>,
}

impl<D: ChangeDetector + Clone + Send + 'static> FrameSelector for ChangeSelector<D> {
    fn name(&self) -> &'static str {
        if self.name.is_empty() {
            self.detector.name()
        } else {
            self.name
        }
    }

    fn target_rate(&self) -> Option<f64> {
        match self.budget {
            Budget::TargetRate(r) => Some(r),
            Budget::Threshold(_) | Budget::Fraction(_) => None,
        }
    }

    fn prepare(&mut self, video: &EncodedVideo) -> Result<(), SieveError> {
        self.resolved = match self.budget {
            Budget::Threshold(t) => Some(Resolved {
                threshold: t,
                scores: None,
            }),
            Budget::Fraction(f) => {
                Self::validate_fraction(f)?;
                let scores = self.scores(video)?;
                let threshold = calibrate_threshold(&scores, video.frame_count(), f);
                Some(Resolved {
                    threshold,
                    scores: Some(Arc::new(scores)),
                })
            }
            // On-line adaptation: nothing to resolve — sessions carry their
            // own streaming distribution. Validate the rate eagerly so batch
            // drivers fail before decoding anything.
            Budget::TargetRate(r) => {
                Self::validate_fraction(r)?;
                None
            }
        };
        Ok(())
    }

    fn session(&self) -> Box<dyn SelectorSession> {
        // On-line adaptation never depends on `prepare`: every session is a
        // fresh controller, so a fleet can open sessions for streams it
        // will never see in full.
        if let Budget::TargetRate(r) = self.budget {
            return match AdaptiveChangeSession::new(self.detector.clone(), r) {
                Ok(session) => Box::new(session),
                Err(e) => Box::new(UnresolvedSession {
                    reason: e.to_string(),
                }),
            };
        }
        match &self.resolved {
            // Calibrated on this video: replay the scoring pass, no decoded
            // state at all.
            Some(Resolved {
                threshold,
                scores: Some(scores),
            }) => Box::new(ReplaySession {
                threshold: *threshold,
                scores: scores.clone(),
            }),
            // Absolute threshold: fully on-line, previous frame as the only
            // state.
            Some(Resolved {
                threshold,
                scores: None,
            }) => Box::new(ChangeSession::new(self.detector.clone(), *threshold)),
            None => match self.budget {
                Budget::Threshold(t) => Box::new(ChangeSession::new(self.detector.clone(), t)),
                // A fraction budget streamed without `prepare` has no
                // operating point; the session surfaces that in `finish`.
                Budget::Fraction(_) => Box::new(UnresolvedSession {
                    reason: "fraction budget requires FrameSelector::prepare before streaming"
                        .to_string(),
                }),
                Budget::TargetRate(_) => {
                    unreachable!("TargetRate sessions are built before the resolved match")
                }
            },
        }
    }
}

/// The on-line streaming side of [`ChangeSelector`]: request pixels, score
/// against the previous frame (the only decoded frame a session ever
/// holds), keep on change above the threshold. The first observed frame is
/// always kept.
struct ChangeSession<D: ChangeDetector> {
    detector: D,
    threshold: f64,
    prev: Option<Frame>,
}

impl<D: ChangeDetector> ChangeSession<D> {
    fn new(mut detector: D, threshold: f64) -> Self {
        detector.reset();
        Self {
            detector,
            threshold,
            prev: None,
        }
    }
}

impl<D: ChangeDetector + Send> SelectorSession for ChangeSession<D> {
    fn observe(
        &mut self,
        _index: usize,
        _meta: &EncodedFrameMeta,
        frame: Option<&Frame>,
    ) -> Decision {
        let Some(frame) = frame else {
            return Decision::NeedsDecode;
        };
        let keep = match &mut self.prev {
            None => {
                self.prev = Some(frame.clone());
                true
            }
            Some(prev) => {
                let keep = self.detector.change_score(prev, frame) > self.threshold;
                prev.copy_from(frame);
                keep
            }
        };
        if keep {
            Decision::Keep
        } else {
            Decision::Drop
        }
    }
}

/// Replays a calibration scoring pass as per-frame decisions: no pixels,
/// no decoded state. Used after [`FrameSelector::prepare`] resolved a
/// fraction budget on the same video.
struct ReplaySession {
    threshold: f64,
    scores: Arc<Vec<f64>>,
}

impl SelectorSession for ReplaySession {
    fn observe(
        &mut self,
        index: usize,
        _meta: &EncodedFrameMeta,
        _frame: Option<&Frame>,
    ) -> Decision {
        let keep = match index.checked_sub(1) {
            None => true, // frame 0 is always selected
            // Frames past the calibrated stream (driver/preparation
            // mismatch) are kept: shipping an extra frame is recoverable,
            // silently losing an event is not.
            Some(pair) => self.scores.get(pair).is_none_or(|&s| s > self.threshold),
        };
        if keep {
            Decision::Keep
        } else {
            Decision::Drop
        }
    }
}

/// The session behind an unusable budget (an unprepared fraction, an
/// invalid target rate): selects nothing and reports the reason at end of
/// stream.
struct UnresolvedSession {
    reason: String,
}

impl SelectorSession for UnresolvedSession {
    fn observe(
        &mut self,
        _index: usize,
        _meta: &EncodedFrameMeta,
        _frame: Option<&Frame>,
    ) -> Decision {
        Decision::Drop
    }

    fn finish(&mut self) -> Result<(), SieveError> {
        Err(SieveError::selector(self.reason.clone()))
    }
}

/// The on-line *adaptive* streaming session behind [`Budget::TargetRate`]:
/// scores each decoded frame against its predecessor (the only decoded
/// state held) and thresholds at a continuously retargeted operating point
/// — a [`RateController`] tracking the score distribution with an EWMA and
/// a P² streaming quantile so the achieved sampling rate converges to the
/// target with *no* offline `prepare` pass. The first observed frame is
/// always kept (and counted toward the achieved rate).
pub struct AdaptiveChangeSession<D: ChangeDetector> {
    detector: D,
    controller: RateController,
    prev: Option<Frame>,
}

impl<D: ChangeDetector> AdaptiveChangeSession<D> {
    /// A fresh session targeting `rate` (fraction of frames kept) in
    /// `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::Selector`] for a rate outside `(0, 1]`.
    pub fn new(mut detector: D, rate: f64) -> Result<Self, SieveError> {
        detector.reset();
        Ok(Self {
            detector,
            controller: RateController::new(rate)?,
            prev: None,
        })
    }

    /// The controller's requested sampling rate.
    pub fn target_rate(&self) -> f64 {
        self.controller.target()
    }

    /// Fraction of observed frames kept so far.
    pub fn achieved_rate(&self) -> f64 {
        self.controller.achieved_rate()
    }

    /// The threshold the next score will be compared against.
    pub fn threshold(&self) -> f64 {
        self.controller.threshold()
    }
}

impl<D: ChangeDetector + Send> SelectorSession for AdaptiveChangeSession<D> {
    fn observe(
        &mut self,
        _index: usize,
        _meta: &EncodedFrameMeta,
        frame: Option<&Frame>,
    ) -> Decision {
        let Some(frame) = frame else {
            return Decision::NeedsDecode;
        };
        let keep = match &mut self.prev {
            None => {
                self.controller.note_forced_keep();
                self.prev = Some(frame.clone());
                true
            }
            Some(prev) => {
                let score = self.detector.change_score(prev, frame);
                prev.copy_from(frame);
                self.controller.observe(score)
            }
        };
        if keep {
            Decision::Keep
        } else {
            Decision::Drop
        }
    }
}

/// MSE differencing as a frame selector.
pub type MseSelector = ChangeSelector<MseDetector>;

impl MseSelector {
    /// MSE with the given budget.
    pub fn mse(budget: Budget) -> Self {
        ChangeSelector::new(MseDetector::new(), budget).with_name("mse")
    }
}

/// SIFT matching as a frame selector.
pub type SiftSelector = ChangeSelector<SiftDetector>;

impl SiftSelector {
    /// SIFT with the given budget.
    pub fn sift(budget: Budget) -> Self {
        ChangeSelector::new(SiftDetector::new(), budget).with_name("sift")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::score_sequence;
    use sieve_core::{analyze, OracleDetector};
    use sieve_video::{EncoderConfig, FrameType, Resolution};

    fn sample_video(frames: usize) -> EncodedVideo {
        let res = Resolution::new(48, 32);
        EncodedVideo::encode(
            res,
            30,
            EncoderConfig::new(8, 0),
            (0..frames).map(move |i| {
                let mut f = Frame::grey(res);
                for y in 0..32usize {
                    for x in 0..48usize {
                        f.y_mut().put(x, y, ((x * 3 + y * 7) % 200) as u8);
                    }
                }
                if i >= frames / 2 {
                    // A "scene change" halfway.
                    for y in 8..24usize {
                        for x in 8..40usize {
                            f.y_mut().put(x, y, 240);
                        }
                    }
                }
                f
            }),
        )
    }

    /// The indices a uniform session keeps out of `total_frames`.
    fn uniform_picks(sel: UniformSelector, total_frames: usize) -> Vec<usize> {
        let meta = EncodedFrameMeta {
            frame_type: FrameType::P,
            payload_len: 0,
        };
        let mut session = sel.session();
        (0..total_frames)
            .filter(|&i| session.observe(i, &meta, None) == Decision::Keep)
            .collect()
    }

    #[test]
    fn uniform_sampler_counts() {
        let sel = uniform_picks(UniformSelector::new(30), 300);
        assert_eq!(sel.len(), 10);
        assert_eq!(sel[0], 0);
        assert_eq!(sel[9], 270);
    }

    #[test]
    fn uniform_matching_count() {
        let n = uniform_picks(UniformSelector::matching_count(3000, 30), 3000).len();
        assert!((25..=35).contains(&n), "expected ~30 samples, got {n}");
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn uniform_rejects_zero() {
        let _ = UniformSelector::new(0);
    }

    #[test]
    fn uniform_selector_picks_every_kth() {
        let v = sample_video(20);
        let mut sel = UniformSelector::new(5);
        assert_eq!(sel.select_indices(&v).unwrap(), vec![0, 5, 10, 15]);
        let mut picked = 0;
        sel.select_with(&v, &mut |_, _| {
            picked += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(picked, 4);
        assert!(sel.requires_full_decode());
    }

    #[test]
    fn mse_selector_finds_the_cut() {
        let v = sample_video(20);
        let mut sel = MseSelector::mse(Budget::Fraction(0.1));
        let indices = sel.select_indices(&v).unwrap();
        assert!(indices.contains(&0), "frame 0 always selected");
        assert!(
            indices.contains(&10),
            "the scene change at frame 10 must be selected: {indices:?}"
        );
    }

    #[test]
    fn mse_selector_rejects_bad_fraction() {
        let v = sample_video(8);
        let mut sel = MseSelector::mse(Budget::Fraction(0.0));
        assert!(matches!(
            sel.select_with(&v, &mut |_, _| Ok(())),
            Err(SieveError::Selector(_))
        ));
    }

    #[test]
    fn unprepared_fraction_session_errors_in_finish() {
        let sel = MseSelector::mse(Budget::Fraction(0.1));
        let mut session = sel.session();
        assert!(matches!(session.finish(), Err(SieveError::Selector(_))));
    }

    #[test]
    fn threshold_budget_is_deployable() {
        let v = sample_video(20);
        // Calibrate on this video, then redeploy the absolute threshold.
        let frames = v.decode_all().unwrap();
        let scores = score_sequence(&mut MseDetector::new(), &frames);
        let t = calibrate_threshold(&scores, frames.len(), 0.1);
        let mut sel = MseSelector::mse(Budget::Threshold(t));
        let indices = sel.select_indices(&v).unwrap();
        assert_eq!(indices, select_frames(&scores, t));
    }

    #[test]
    fn streaming_session_matches_batch_selection() {
        let v = sample_video(24);
        for budget in [Budget::Threshold(30.0), Budget::Fraction(0.25)] {
            let mut sel = MseSelector::mse(budget);
            let batch = sel.select_indices(&v).unwrap();
            // Drive a session by hand with a stateful decoder, as a live
            // edge would.
            sel.prepare(&v).unwrap();
            let mut session = sel.session();
            let mut decoder = Decoder::new(v.resolution(), v.quality());
            let mut kept = Vec::new();
            for (i, ef) in v.frames().iter().enumerate() {
                let meta = EncodedFrameMeta::of(ef);
                let frame = decoder.decode_frame(ef).unwrap();
                let decision = match session.observe(i, &meta, None) {
                    Decision::NeedsDecode => session.observe(i, &meta, Some(&frame)),
                    d => d,
                };
                if decision == Decision::Keep {
                    kept.push(i);
                }
            }
            session.finish().unwrap();
            assert_eq!(kept, batch, "session/batch divergence under {budget:?}");
        }
    }

    #[test]
    fn calibrate_sweeps_many_thresholds_in_one_pass() {
        // The one-pass scorer behind the sweep equals `score_sequence`
        // over a full decode, at every resolved threshold.
        let v = sample_video(20);
        let frames = v.decode_all().unwrap();
        let scores = score_sequence(&mut MseDetector::new(), &frames);
        let fractions = [0.05, 0.1, 0.5, 1.0];
        let points = MseSelector::mse(Budget::Threshold(0.0))
            .calibrate_fractions(&v, &fractions)
            .unwrap();
        assert_eq!(points.len(), fractions.len());
        for (p, &f) in points.iter().zip(&fractions) {
            assert_eq!(p.fraction, f);
            assert_eq!(p.selected, select_frames(&scores, p.threshold));
        }
        // The smallest budget keeps little; the whole budget keeps all.
        assert!(points[0].selected.len() < points[3].selected.len());
        assert_eq!(points[3].selected.len(), 20);
    }

    #[test]
    fn calibrate_fractions_matches_fraction_budget() {
        let v = sample_video(20);
        let points = MseSelector::mse(Budget::Threshold(0.0))
            .calibrate_fractions(&v, &[0.1, 0.5])
            .unwrap();
        for p in &points {
            let mut sel = MseSelector::mse(Budget::Fraction(p.fraction));
            assert_eq!(sel.select_indices(&v).unwrap(), p.selected);
        }
    }

    #[test]
    fn target_rate_streams_without_prepare() {
        // The on-line budget needs no whole-video pass: a raw session
        // (opened without `prepare`, as a fleet does) tracks the target.
        let v = sample_video(60);
        let sel = MseSelector::mse(Budget::TargetRate(0.25));
        let mut session = sel.session();
        let mut decoder = Decoder::new(v.resolution(), v.quality());
        let mut kept = 0usize;
        for (i, ef) in v.frames().iter().enumerate() {
            let meta = EncodedFrameMeta::of(ef);
            let frame = decoder.decode_frame(ef).unwrap();
            let decision = match session.observe(i, &meta, None) {
                Decision::NeedsDecode => session.observe(i, &meta, Some(&frame)),
                d => d,
            };
            if decision == Decision::Keep {
                kept += 1;
            }
        }
        session.finish().expect("on-line budget finishes cleanly");
        assert!(kept > 0, "adaptive session kept nothing");
        assert!(kept < 60, "adaptive session kept everything");
    }

    #[test]
    fn target_rate_rejects_bad_rate() {
        let v = sample_video(8);
        let mut sel = MseSelector::mse(Budget::TargetRate(0.0));
        assert!(matches!(
            sel.select_with(&v, &mut |_, _| Ok(())),
            Err(SieveError::Selector(_))
        ));
        // Even without prepare, a raw session surfaces the bad rate.
        let session_err = MseSelector::mse(Budget::TargetRate(1.5)).session().finish();
        assert!(matches!(session_err, Err(SieveError::Selector(_))));
    }

    #[test]
    fn adaptive_session_reports_rates() {
        let mut s = AdaptiveChangeSession::new(MseDetector::new(), 0.5).unwrap();
        assert!((s.target_rate() - 0.5).abs() < 1e-12);
        let res = Resolution::new(32, 32);
        let meta = EncodedFrameMeta {
            frame_type: sieve_video::FrameType::I,
            payload_len: 0,
        };
        // First frame: always kept.
        assert_eq!(s.observe(0, &meta, None), Decision::NeedsDecode);
        assert_eq!(s.observe(0, &meta, Some(&Frame::grey(res))), Decision::Keep);
        assert!((s.achieved_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adapters_run_through_generic_driver() {
        let v = sample_video(24);
        let labels = vec![sieve_datasets_label(); 24];
        let mut oracle = OracleDetector::new(labels);
        let selectors: [Box<dyn FrameSelector>; 3] = [
            Box::new(sieve_core::IFrameSelector::new()),
            Box::new(UniformSelector::new(6)),
            Box::new(MseSelector::mse(Budget::Fraction(0.2))),
        ];
        for mut sel in selectors {
            let result = analyze(&v, sel.as_mut(), &mut oracle).expect("analysis");
            assert!(!result.selected.is_empty(), "{} selected none", sel.name());
            assert_eq!(result.predicted.len(), 24);
        }
    }

    fn sieve_datasets_label() -> sieve_datasets::LabelSet {
        sieve_datasets::LabelSet::empty()
    }
}
