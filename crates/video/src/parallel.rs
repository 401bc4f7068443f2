//! Multi-threaded encoding: decide on the caller, code on workers.
//!
//! The [`Encoder`] is two halves. The decision half (the lookahead, the
//! distance from the last I-frame and [`frame_type`]) reads only the source
//! frames. The coding half is a closed loop over its own reconstruction,
//! and its state resets completely at every I-frame: GOPs in this codec are
//! *closed*, so a P-frame only references frames back through its GOP's
//! opening I-frame. Both encodes here run the decision half over the frames
//! in display order on the calling thread, exactly as the one-thread
//! encoder does, and hand the coding to other threads. So each frame gets
//! the type the one-thread encoder gives it, is coded by the same code from
//! the same reference, and the output is **byte-identical** to feeding the
//! frames through [`Encoder::encode_frame`] one by one:
//!
//! * `pipelined`, behind [`EncodedVideo::encode`], streams each decided
//!   frame with a recycled bitstream buffer through a bounded channel to one
//!   scoped coding thread, which sends the finished bytes back. Pulling the
//!   next frame (often rendering it) and measuring its lookahead ratio
//!   overlap the coding of the frames before it. The caller copies each
//!   payload out at its exact size: payloads outlive the encode, and made on
//!   a short-lived thread they would sit in that thread's malloc arena and
//!   raise the process's peak RSS.
//! * [`encode`], behind [`EncodedVideo::encode_parallel`], queues each GOP
//!   for scoped workers as soon as the next I-frame closes it, and once it
//!   has decided the last frame the caller codes beside them. Each coding
//!   thread owns one coding half, reused across GOPs, and writes a GOP's
//!   frames straight into that GOP's slot of the output (disjoint `&mut`
//!   slices), so display order holds by construction. They pull GOPs from
//!   one queue, which load-balances the GOP lengths scene content
//!   produces. No plan pass runs first: deciding the frames overlaps coding
//!   the GOPs already closed.
//!
//! This crate sits below the fleet runtime (whose pool facade encodes via
//! this module), so scoped threads are the base case here: every thread is
//! joined before the scope returns, and a panic on either side reaches the
//! caller with its own payload.
//!
//! [`frame_type`]: crate::encode::frame_type
//! [`EncodedVideo::encode`]: crate::EncodedVideo::encode
//! [`EncodedVideo::encode_parallel`]: crate::EncodedVideo::encode_parallel

use std::ops::Range;
use std::panic;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::ScopedJoinHandle;

use crate::encode::{Coder, Decider, EncodedFrame, Encoder, EncoderConfig, FrameType};
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

/// The GOPs of `frames` in display order, each range yielded as soon as the
/// next I-frame (or the end of the input) closes it: the decision half run
/// over the frames, cut at every I-frame it places.
fn gop_ranges<'a>(
    decider: &'a mut Decider,
    frames: &'a [Frame],
) -> impl Iterator<Item = Range<usize>> + 'a {
    let mut start = 0;
    let mut next = 0;
    std::iter::from_fn(move || {
        while next < frames.len() {
            let i = next;
            next += 1;
            if decider.decide(&frames[i]) == FrameType::I && i > start {
                let gop = start..i;
                start = i;
                return Some(gop);
            }
        }
        (start < frames.len()).then(|| {
            let gop = start..frames.len();
            start = frames.len();
            gop
        })
    })
}

/// Encodes `frames` on up to `workers` threads, the calling thread among
/// them, returning the encoded frames in display order.
///
/// The output is byte-identical to feeding the same frames through
/// [`Encoder::encode_frame`] one by one (see the module docs for why).
/// `workers` is clamped to `1..=`the number of frames; with one worker the
/// encode runs on the calling thread with no threads spawned.
///
/// # Panics
///
/// Panics if any frame's resolution differs from `resolution`.
pub fn encode(
    resolution: Resolution,
    config: EncoderConfig,
    frames: &[Frame],
    workers: usize,
) -> Vec<EncodedFrame> {
    let workers = workers.clamp(1, frames.len().max(1));
    if workers == 1 {
        let mut enc = Encoder::new(resolution, config);
        return frames.iter().map(|f| enc.encode_frame(f)).collect();
    }
    // Placeholders every worker overwrites; they share one empty payload.
    let placeholder = EncodedFrame {
        frame_type: FrameType::I,
        data: Arc::from([]),
    };
    let mut encoded = vec![placeholder; frames.len()];
    let mut decider = Decider::new(resolution, config);
    // The queue's items borrow `encoded`, so the queue ends in this block.
    {
        let (queue, gops) = mpsc::channel::<Gop<'_>>();
        let gops = Mutex::new(gops);
        let gops = &gops;
        let mut rest: &mut [EncodedFrame] = &mut encoded;
        // The scope owns the queue's sender, so if deciding panics, dropping
        // it releases the workers before the scope joins them.
        // lint:allow(no-raw-spawn): leaf crate below the pool facade; scoped + joined here
        std::thread::scope(move |s| {
            let handles: Vec<_> = (1..workers)
                // lint:allow(no-raw-spawn): bounded scoped workers, joined below
                .map(|_| s.spawn(move || code_gops(gops, resolution, config)))
                .collect();
            for gop in gop_ranges(&mut decider, frames) {
                let (out, tail) = std::mem::take(&mut rest).split_at_mut(gop.len());
                rest = tail;
                // The receiver outlives the scope, so the send cannot fail.
                let _ = queue.send((&frames[gop], out));
            }
            drop(queue);
            // Done deciding, the caller codes what is left beside the
            // workers, so no more threads run than `workers`.
            code_gops(gops, resolution, config);
            handles.into_iter().for_each(join);
        });
    }
    encoded
}

/// A closed GOP's frames and the output slots they are coded into.
type Gop<'a> = (&'a [Frame], &'a mut [EncodedFrame]);

/// Codes GOPs from `queue` until it is closed and empty, with one coding
/// half reused across them: each GOP's I-frame first, P-frames after,
/// exactly as the one-thread encoder would.
fn code_gops(queue: &Mutex<Receiver<Gop<'_>>>, resolution: Resolution, config: EncoderConfig) {
    let mut coder = Coder::new(resolution, config);
    let mut buf = Vec::new();
    loop {
        // Hold the lock only while waiting for the next GOP.
        let gop = queue.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok((frames, out)) = gop else { break };
        coder.reset();
        for (i, (frame, slot)) in frames.iter().zip(out).enumerate() {
            let frame_type = if i == 0 { FrameType::I } else { FrameType::P };
            coder.code(frame, frame_type, &mut buf);
            *slot = EncodedFrame::sealed(frame_type, &buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::RatioTrace;

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
    fn gop_ranges_cover_and_partition() {
        let res = Resolution::new(64, 48);
        let frames = moving_frames(res, 30);
        let config = EncoderConfig::new(6, 100);
        let plan = RatioTrace::measure(config.search_range, &frames).i_frames(&config);
        let gops: Vec<Range<usize>> = gop_ranges(&mut Decider::new(res, config), &frames).collect();
        assert_eq!(gops.first().map(|g| g.start), Some(0));
        assert_eq!(gops.last().map(|g| g.end), Some(frames.len()));
        for pair in gops.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "ranges must partition");
        }
        let starts: Vec<usize> = gops.iter().map(|g| g.start).collect();
        assert_eq!(starts, plan, "every range starts at a planned I-frame");
    }

    #[test]
    fn parallel_bitstream_is_byte_identical() {
        let res = Resolution::new(64, 48);
        let frames = moving_frames(res, 25);
        let config = EncoderConfig::new(7, 150);
        let mut enc = Encoder::new(res, config);
        let sequential: Vec<EncodedFrame> = frames.iter().map(|f| enc.encode_frame(f)).collect();
        for workers in [1, 2, 4] {
            let par = encode(res, config, &frames, workers);
            assert_eq!(par, sequential, "GOP-parallel, {workers} workers");
        }
        assert_eq!(pipelined(res, config, frames), sequential, "pipelined");
    }

    #[test]
    fn empty_input_is_empty_output() {
        let res = Resolution::new(32, 32);
        assert!(encode(res, EncoderConfig::new(4, 0), &[], 4).is_empty());
        assert!(pipelined(res, EncoderConfig::new(4, 0), []).is_empty());
    }
}
