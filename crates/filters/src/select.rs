//! [`FrameSelector`] adapters for the image-similarity baselines.
//!
//! These plug the NoScope-style filters into `sieve-core`'s streaming
//! selection layer. Each adapter is a session factory, and every session
//! runs on-line, driven by the edge's `EdgeSession` (live, or over a whole
//! video through `analyze` and `select_indices`):
//!
//! * [`UniformSelector`] decides every frame from its index alone — its
//!   session never touches pixels, though it still requires the full
//!   decode (P-frames chain, so *reaching* a sampled frame means decoding
//!   up to it);
//! * [`ChangeSelector`] (MSE, SIFT, any [`ChangeDetector`]) requests pixels
//!   per frame ([`Decision::NeedsDecode`]), scores against the previous
//!   frame — the only decoded state a session holds — and keeps frames
//!   whose change exceeds the [`Budget`]'s threshold: a fixed one, or one
//!   a [`RateController`] retargets as scores stream so the achieved
//!   sampling rate tracks a requested rate.
//!
//! The paper's matched-sampling comparison picks a threshold offline: the
//! caller scores the video once with [`calibrate_fractions`](crate::calibrate_fractions)
//! and deploys the resolved point as a [`Budget::Threshold`]. Adding a
//! baseline to the whole system is: implement the session factory here and
//! price it in `sieve_core::SelectorKind::per_frame_secs`.

use sieve_core::{
    Decision, EncodedFrameMeta, FrameSelector, RateController, SelectorSession, SieveError,
};
use sieve_video::Frame;

use crate::detector::ChangeDetector;
use crate::mse::MseDetector;
use crate::sift::SiftDetector;

/// How a threshold baseline picks its operating point. Both budgets stream
/// fully on-line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Use a fixed absolute change-score threshold: tuned offline on a
    /// training prefix (the paper's deployment setting), or resolved from a
    /// sampling fraction by [`calibrate_fractions`](crate::calibrate_fractions)
    /// (its matched-sampling comparison).
    Threshold(f64),
    /// Continuously retarget the threshold so the achieved sampling rate
    /// tracks this fraction, with no offline pass at all: a session keeps
    /// a [`sieve_core::RateController`], which thresholds each score at a
    /// streaming quantile estimate and adapts as frames arrive — the
    /// budget a live edge that never sees the whole video can deploy. A
    /// rate outside `(0, 1]` selects nothing and fails the session's
    /// `finish`.
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
}

impl<D: ChangeDetector> ChangeSelector<D> {
    /// Wraps `detector` with a selection budget.
    fn new(detector: D, budget: Budget) -> Self {
        Self {
            detector,
            budget,
            name: "",
        }
    }

    fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }
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
            Budget::Threshold(_) => None,
        }
    }

    fn session(&self) -> Box<dyn SelectorSession> {
        // Every session is fresh state, so a fleet can open sessions for
        // streams it will never see in full.
        let threshold = match self.budget {
            Budget::Threshold(t) => Threshold::Fixed(t),
            Budget::TargetRate(r) => match RateController::new(r) {
                Ok(controller) => Threshold::Adaptive(Box::new(controller)),
                Err(e) => return Box::new(UnresolvedSession { error: Some(e) }),
            },
        };
        Box::new(ChangeSession::new(self.detector.clone(), threshold))
    }
}

/// The operating point a [`ChangeSession`] compares scores against.
enum Threshold {
    /// An absolute change-score threshold ([`Budget::Threshold`]).
    Fixed(f64),
    /// A threshold retargeted per score to track a sampling rate
    /// ([`Budget::TargetRate`]).
    Adaptive(Box<RateController>),
}

/// The streaming side of [`ChangeSelector`]: request pixels, score against
/// the previous frame (the only decoded frame a session ever holds), keep
/// on change above the threshold. The first observed frame is always kept,
/// and an adaptive threshold counts it toward the achieved rate.
struct ChangeSession<D: ChangeDetector> {
    detector: D,
    threshold: Threshold,
    prev: Option<Frame>,
}

impl<D: ChangeDetector> ChangeSession<D> {
    fn new(mut detector: D, threshold: Threshold) -> Self {
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
                if let Threshold::Adaptive(controller) = &mut self.threshold {
                    controller.note_forced_keep();
                }
                self.prev = Some(frame.clone());
                true
            }
            Some(prev) => {
                let score = self.detector.change_score(prev, frame);
                prev.copy_from(frame);
                match &mut self.threshold {
                    Threshold::Fixed(t) => score > *t,
                    Threshold::Adaptive(controller) => controller.observe(score),
                }
            }
        };
        if keep {
            Decision::Keep
        } else {
            Decision::Drop
        }
    }
}

/// The session behind an invalid target rate: selects nothing and reports
/// the controller's own error at end of stream.
struct UnresolvedSession {
    error: Option<SieveError>,
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
        self.error.take().map_or(Ok(()), Err)
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
    use crate::detector::{calibrate_fractions, calibrate_threshold, select_frames};
    use sieve_core::{analyze, select_indices, OracleDetector};
    use sieve_video::{Decoder, EncodedVideo, EncoderConfig, FrameType, Resolution};

    /// The change score of every consecutive pair of `frames`, from a
    /// fresh `detector`: `scores[i]` compares frames `i` and `i+1`.
    fn score_sequence(detector: &mut impl ChangeDetector, frames: &[Frame]) -> Vec<f64> {
        detector.reset();
        frames
            .windows(2)
            .map(|w| detector.change_score(&w[0], &w[1]))
            .collect()
    }

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
        let sel = UniformSelector::new(5);
        assert_eq!(select_indices(&v, &sel).unwrap(), vec![0, 5, 10, 15]);
        assert!(sel.requires_full_decode());
    }

    #[test]
    fn mse_selector_finds_the_cut() {
        let v = sample_video(20);
        let sel = MseSelector::mse(Budget::TargetRate(0.1));
        let indices = select_indices(&v, &sel).unwrap();
        assert!(indices.contains(&0), "frame 0 always selected");
        assert!(
            indices.contains(&10),
            "the scene change at frame 10 must be selected: {indices:?}"
        );
    }

    #[test]
    fn mse_selector_rejects_bad_fraction() {
        let v = sample_video(8);
        for f in [0.0, 1.5] {
            assert!(matches!(
                calibrate_fractions(&mut MseDetector::new(), &v, &[0.5, f]),
                Err(SieveError::Selector(_))
            ));
        }
    }

    #[test]
    fn threshold_budget_is_deployable() {
        let v = sample_video(20);
        // Calibrate on this video, then redeploy the absolute threshold.
        let frames = v.decode_all().unwrap();
        let scores = score_sequence(&mut MseDetector::new(), &frames);
        let t = calibrate_threshold(&scores, frames.len(), 0.1);
        let sel = MseSelector::mse(Budget::Threshold(t));
        let indices = select_indices(&v, &sel).unwrap();
        assert_eq!(indices, select_frames(&scores, t));
    }

    #[test]
    fn streaming_session_matches_batch_selection() {
        let v = sample_video(24);
        for budget in [Budget::Threshold(30.0), Budget::TargetRate(0.25)] {
            let sel = MseSelector::mse(budget);
            let batch = select_indices(&v, &sel).unwrap();
            // Drive a session by hand with a stateful decoder, as a live
            // edge would.
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
        let points = calibrate_fractions(&mut MseDetector::new(), &v, &fractions).unwrap();
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
    fn calibrate_fractions_matches_threshold_budget() {
        // A calibrated point deploys as an absolute threshold and keeps
        // exactly the frames the sweep selected.
        let v = sample_video(20);
        let points = calibrate_fractions(&mut MseDetector::new(), &v, &[0.1, 0.5]).unwrap();
        for p in &points {
            let sel = MseSelector::mse(Budget::Threshold(p.threshold));
            assert_eq!(select_indices(&v, &sel).unwrap(), p.selected);
        }
    }

    #[test]
    fn target_rate_streams_without_prepare() {
        // The on-line budget needs no whole-video pass: a raw session, as a
        // fleet opens it, tracks the target.
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
        let sel = MseSelector::mse(Budget::TargetRate(0.0));
        let err = select_indices(&v, &sel).unwrap_err();
        assert_eq!(
            err.to_string(),
            "selector error: target sampling rate 0 outside (0, 1]"
        );
        // A raw session surfaces the bad rate too.
        let session_err = MseSelector::mse(Budget::TargetRate(1.5)).session().finish();
        assert!(matches!(session_err, Err(SieveError::Selector(_))));
    }

    #[test]
    fn adapters_run_through_generic_driver() {
        let v = sample_video(24);
        let labels = vec![sieve_datasets_label(); 24];
        let mut oracle = OracleDetector::new(labels);
        let selectors: [Box<dyn FrameSelector>; 3] = [
            Box::new(sieve_core::IFrameSelector::new()),
            Box::new(UniformSelector::new(6)),
            Box::new(MseSelector::mse(Budget::TargetRate(0.2))),
        ];
        for sel in selectors {
            let result = analyze(&v, sel.as_ref(), &mut oracle).expect("analysis");
            assert!(!result.selected.is_empty(), "{} selected none", sel.name());
            assert_eq!(result.predicted.len(), 24);
        }
    }

    fn sieve_datasets_label() -> sieve_datasets::LabelSet {
        sieve_datasets::LabelSet::empty()
    }
}
