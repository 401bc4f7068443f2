//! The two-thread encode behind [`EncodedVideo::encode`]: decide on the
//! caller, code on one scoped thread.
//!
//! The [`Encoder`] is two halves. The decision half (the lookahead, the
//! distance from the last I-frame and [`frame_type`]) reads only the source
//! frames. The coding half is a closed loop over its own reconstruction.
//! `pipelined` runs the decision half over the frames in display order on
//! the calling thread, exactly as the one-thread encoder does, and streams
//! each decided frame with a recycled bitstream buffer through a bounded
//! channel to one scoped coding thread, which sends the finished bytes back.
//! So each frame gets the type the one-thread encoder gives it, is coded by
//! the same code from the same reference, and the output is
//! **byte-identical** to feeding the frames through
//! [`Encoder::encode_frame`] one by one. Pulling the next frame (often
//! rendering it) and measuring its lookahead ratio overlap the coding of
//! the frames before it. The caller copies each payload out at its exact
//! size: payloads outlive the encode, and made on a short-lived thread they
//! would sit in that thread's malloc arena and raise the process's peak
//! RSS.
//!
//! This crate sits below the fleet runtime (whose pool facade encodes via
//! this module), so a scoped thread is the base case here: it is joined
//! before the scope returns, and a panic on either side reaches the caller
//! with its own payload.
//!
//! [`Encoder`]: crate::Encoder
//! [`Encoder::encode_frame`]: crate::Encoder::encode_frame
//! [`frame_type`]: crate::encode::frame_type
//! [`EncodedVideo::encode`]: crate::EncodedVideo::encode

use std::panic;
use std::sync::mpsc::{self, Receiver};
use std::thread::ScopedJoinHandle;

use crate::encode::{Coder, Decider, EncodedFrame, EncoderConfig, FrameType};
use crate::frame::{Frame, Resolution};

/// Frames in flight between the caller and the coding thread of
/// `pipelined`: enough slack that neither side waits on the other's
/// per-frame jitter, and the number of bitstream buffers the pipeline
/// recycles.
const DEPTH: usize = 4;

/// Encodes `frames` with the decision half on the calling thread and the
/// coding half on one scoped thread, returning the encoded frames in display
/// order, byte-identical to [`Encoder::encode_frame`]'s (see the module
/// docs). `frames` is pulled on the calling thread only.
///
/// [`Encoder::encode_frame`]: crate::Encoder::encode_frame
///
/// # Panics
///
/// Panics if a frame's resolution differs from `resolution`, and re-raises
/// a panic of the input iterator, after the coding thread has exited.
pub(crate) fn pipelined<I>(
    resolution: Resolution,
    config: EncoderConfig,
    frames: I,
) -> Vec<EncodedFrame>
where
    I: IntoIterator<Item = Frame>,
{
    let frames = frames.into_iter();
    let mut encoded = Vec::with_capacity(frames.size_hint().0);
    let mut decider = Decider::new(resolution, config);
    // Both channels are made inside the scope, so if the caller unwinds,
    // dropping its ends stops the coding thread before the scope joins it.
    // lint:allow(no-raw-spawn): leaf crate below the pool facade; scoped + joined here
    std::thread::scope(|s| {
        let (to_coder, inbox) = mpsc::sync_channel::<(Frame, FrameType, Vec<u8>)>(DEPTH);
        let (outbox, from_coder) = mpsc::sync_channel::<(FrameType, Vec<u8>)>(DEPTH);
        // lint:allow(no-raw-spawn): one scoped coding thread, joined below
        let coder = s.spawn(move || {
            let mut coder = Coder::new(resolution, config);
            for (frame, frame_type, mut buf) in inbox {
                coder.code(&frame, frame_type, &mut buf);
                if outbox.send((frame_type, buf)).is_err() {
                    break;
                }
            }
        });
        // At most `DEPTH` frames are sent and not yet sealed, so neither
        // bounded channel ever blocks its sender: the caller waits only on
        // `from_coder`, for the oldest frame, once the pipeline is full.
        let mut in_flight = 0;
        for frame in frames {
            let frame_type = decider.decide(&frame);
            let buf = if in_flight < DEPTH {
                in_flight += 1;
                Vec::new()
            } else {
                match seal_next(&from_coder, &mut encoded) {
                    Some(buf) => buf,
                    None => break,
                }
            };
            if to_coder.send((frame, frame_type, buf)).is_err() {
                break;
            }
        }
        drop(to_coder);
        while seal_next(&from_coder, &mut encoded).is_some() {}
        join(coder);
    });
    encoded
}

/// Receives the coding thread's next finished bitstream, seals it into
/// `encoded` on the calling thread and returns the buffer for reuse; `None`
/// once the coding thread has stopped.
fn seal_next(
    from_coder: &Receiver<(FrameType, Vec<u8>)>,
    encoded: &mut Vec<EncodedFrame>,
) -> Option<Vec<u8>> {
    let (frame_type, buf) = from_coder.recv().ok()?;
    encoded.push(EncodedFrame::sealed(frame_type, &buf));
    Some(buf)
}

/// Joins a scoped thread, re-raising its panic with the original payload.
fn join(handle: ScopedJoinHandle<'_, ()>) {
    if let Err(payload) = handle.join() {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{Encoder, RatioTrace};

    fn moving_frames(res: Resolution, n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = Frame::grey(res);
                let w = res.width() as usize;
                let h = res.height() as usize;
                for y in 0..h {
                    for x in 0..w {
                        // A textured background plus a bright moving square.
                        let mut v = ((x * 7 + y * 13) % 160) as u8;
                        let sq = 4 * i % w.max(1);
                        if x >= sq && x < sq + 12 && (8..20).contains(&y) {
                            v = 230;
                        }
                        f.y_mut().put(x, y, v);
                    }
                }
                f
            })
            .collect()
    }

    #[test]
    fn plan_matches_sequential_encoder() {
        let res = Resolution::new(64, 48);
        let frames = moving_frames(res, 24);
        let config = EncoderConfig::new(8, 120);
        let plan = RatioTrace::measure(config.search_range, &frames).i_frames(&config);
        let mut enc = Encoder::new(res, config);
        let seq: Vec<usize> = (0..frames.len())
            .filter(|&i| enc.encode_frame(&frames[i]).frame_type == FrameType::I)
            .collect();
        assert_eq!(plan, seq);
        assert!(plan.len() > 2, "the plan has several GOPs: {plan:?}");
    }

    #[test]
    fn parallel_bitstream_is_byte_identical() {
        let res = Resolution::new(64, 48);
        let frames = moving_frames(res, 25);
        let config = EncoderConfig::new(7, 150);
        let mut enc = Encoder::new(res, config);
        let sequential: Vec<EncodedFrame> = frames.iter().map(|f| enc.encode_frame(f)).collect();
        assert_eq!(pipelined(res, config, frames), sequential);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let res = Resolution::new(32, 32);
        assert!(pipelined(res, EncoderConfig::new(4, 0), []).is_empty());
    }
}
