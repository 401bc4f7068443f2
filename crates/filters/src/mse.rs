//! Mean-squared-error frame differencing — the cheapest NoScope-style
//! baseline.
//!
//! The score is the pixel-wise mean squared difference between consecutive
//! luma planes. It is fast per pair but (a) requires both frames to be fully
//! decoded, and (b) cannot distinguish coherent background motion (water,
//! foliage, exposure changes) from a new object — the failure mode that
//! makes it lose to motion-estimation-based scenecut detection on the
//! rippling datasets, exactly as the paper reports.

use sieve_video::Frame;

use crate::detector::ChangeDetector;

/// Pixel-wise mean squared error detector over the luma plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MseDetector;

impl MseDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        Self
    }
}

/// Mean squared error between the luma planes of two frames.
///
/// # Panics
///
/// Panics if the resolutions differ.
pub fn mse_luma(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(
        a.resolution(),
        b.resolution(),
        "MSE requires equal resolutions"
    );
    let pa = a.y().data();
    let pb = b.y().data();
    // The integer sum of squared differences is exact, and converting it to
    // f64 is too for any realistic plane (the sum stays far below 2^53), so
    // this matches the naive per-pixel f64 accumulation bit for bit.
    sieve_video::kernels::sse_u8(pa, pb) as f64 / pa.len() as f64
}

impl ChangeDetector for MseDetector {
    fn name(&self) -> &'static str {
        "MSE"
    }

    fn change_score(&mut self, prev: &Frame, cur: &Frame) -> f64 {
        mse_luma(prev, cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_video::{Frame, Resolution};

    /// A grey frame whose luma is `y` everywhere.
    fn flat(res: Resolution, y: u8) -> Frame {
        let mut f = Frame::grey(res);
        f.y_mut().data_mut().fill(y);
        f
    }

    #[test]
    fn identical_frames_score_zero() {
        let f = Frame::grey(Resolution::new(32, 32));
        let mut d = MseDetector::new();
        assert_eq!(d.change_score(&f, &f), 0.0);
    }

    #[test]
    fn score_grows_with_difference() {
        let res = Resolution::new(32, 32);
        let a = Frame::grey(res);
        let mut small = a.clone();
        for i in 0..64 {
            small.y_mut().data_mut()[i] = 140;
        }
        let mut big = a.clone();
        for v in big.y_mut().data_mut().iter_mut() {
            *v = 10;
        }
        let mut d = MseDetector::new();
        let s_small = d.change_score(&a, &small);
        let s_big = d.change_score(&a, &big);
        assert!(s_small > 0.0);
        assert!(s_big > s_small);
    }

    #[test]
    fn known_value() {
        let res = Resolution::new(16, 16);
        let a = flat(res, 100);
        let b = flat(res, 110);
        assert!((mse_luma(&a, &b) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "equal resolutions")]
    fn mismatched_resolutions_panic() {
        let a = Frame::grey(Resolution::new(16, 16));
        let b = Frame::grey(Resolution::new(32, 32));
        let _ = mse_luma(&a, &b);
    }

    #[test]
    fn symmetric() {
        let res = Resolution::new(16, 16);
        let a = flat(res, 90);
        let b = flat(res, 200);
        assert_eq!(mse_luma(&a, &b), mse_luma(&b, &a));
    }
}
