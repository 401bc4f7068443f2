//! GOP-parallel encoding: split, encode, splice.
//!
//! The sequential [`Encoder`] is a closed-loop state machine, but its state
//! resets completely at every I-frame: GOPs in this codec are *closed* — a
//! P-frame only references frames back through its GOP's opening I-frame.
//! That makes the following two-pass pipeline produce a bitstream
//! **byte-identical** to the sequential encoder's:
//!
//! 1. **Plan.** Run the lookahead's ratio pass over the whole sequence and
//!    replay [`frame_type`] over the [`RatioTrace`]. That is the exact
//!    decision the sequential encoder makes, over the exact ratios it
//!    measures, so the I-frame plan cannot diverge. The ratio pass works
//!    on half-resolution source planes and costs about a quarter to a third
//!    of a one-thread encode, all of it serial.
//! 2. **Encode.** Split the sequence into GOP ranges at the planned I-frames
//!    and hand whole GOPs to worker threads. Each worker owns one [`Encoder`]
//!    and recycles it across GOPs via [`Encoder::reset`], so per-worker
//!    scratch (reconstruction frames, the bitstream buffer) is allocated
//!    once and each frame costs one exact-size payload allocation.
//!    GOPs are pulled from a shared queue, which load-balances the variable
//!    GOP lengths scene content produces.
//! 3. **Splice.** Workers write each GOP's frames directly into its slot of
//!    the output vector (disjoint `&mut` slices, one per GOP), so display
//!    order is preserved by construction and no re-sorting is needed.
//!
//! [`frame_type`]: crate::encode::frame_type

use std::ops::Range;
use std::sync::{Arc, Mutex};

use crate::encode::{EncodedFrame, Encoder, EncoderConfig, FrameType, RatioTrace};
use crate::frame::{Frame, Resolution};

/// Splits `0..len` into GOP ranges, one starting at each of `i_frames` (the
/// first of which is 0 for any non-empty sequence).
fn gop_ranges(i_frames: &[usize], len: usize) -> Vec<Range<usize>> {
    let ends = i_frames.iter().skip(1).copied().chain([len]);
    i_frames.iter().zip(ends).map(|(&s, e)| s..e).collect()
}

/// Encodes `frames` with up to `workers` threads, returning the encoded
/// frames in display order.
///
/// The output is byte-identical to feeding the same frames through
/// [`Encoder::encode_frame`] one by one (see the module docs for why).
/// `workers` is clamped to `1..=`the number of GOPs; with one worker the
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
    for f in frames {
        assert_eq!(
            f.resolution(),
            resolution,
            "frame resolution changed mid-stream"
        );
    }
    let i_frames = RatioTrace::measure(config.search_range, frames).i_frames(&config);
    let gops = gop_ranges(&i_frames, frames.len());
    // Placeholders every worker overwrites; they share one empty payload.
    let placeholder = EncodedFrame {
        frame_type: FrameType::I,
        data: Arc::from([]),
    };
    let mut encoded = vec![placeholder; frames.len()];
    let workers = workers.clamp(1, gops.len().max(1));

    if workers == 1 {
        let mut enc = Encoder::new(resolution, config);
        for gop in &gops {
            encode_gop(&mut enc, &frames[gop.clone()], &mut encoded[gop.clone()]);
        }
        return encoded;
    }

    // Carve the output into one disjoint mutable slice per GOP, then let
    // workers pull (frames, output) pairs from a shared queue.
    let mut work: Vec<(&[Frame], &mut [EncodedFrame])> = Vec::with_capacity(gops.len());
    let mut rest: &mut [EncodedFrame] = &mut encoded;
    for gop in &gops {
        let (head, tail) = rest.split_at_mut(gop.len());
        work.push((&frames[gop.clone()], head));
        rest = tail;
    }
    let queue = Mutex::new(work.into_iter());

    // The fleet runtime routes all spawning through its pool facade; this
    // crate sits *below* that runtime (the facade's pool encodes via this
    // module), so scoped threads are the base case here. The scope guarantees
    // every worker is joined before `encoded` is read.
    // lint:allow(no-raw-spawn): leaf crate below the pool facade; scoped + joined here
    std::thread::scope(|s| {
        for _ in 0..workers {
            // lint:allow(no-raw-spawn): bounded scoped workers, joined by the scope
            s.spawn(|| {
                let mut enc = Encoder::new(resolution, config);
                loop {
                    // Take the lock only to pull the next GOP.
                    let item = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
                    let Some((gop_frames, out)) = item else { break };
                    encode_gop(&mut enc, gop_frames, out);
                }
            });
        }
    });
    encoded
}

/// Encodes one closed GOP with a recycled encoder: I-frame first, P-frames
/// after, exactly as the sequential encoder would.
fn encode_gop(enc: &mut Encoder, frames: &[Frame], out: &mut [EncodedFrame]) {
    enc.reset();
    for (i, (frame, slot)) in frames.iter().zip(out.iter_mut()).enumerate() {
        let ft = if i == 0 { FrameType::I } else { FrameType::P };
        *slot = enc.encode_forced(frame, ft);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Resolution;

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
        let gops = gop_ranges(&plan, frames.len());
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
            assert_eq!(par.len(), sequential.len());
            for (i, (a, b)) in sequential.iter().zip(&par).enumerate() {
                assert_eq!(a.frame_type, b.frame_type, "frame {i} type (w={workers})");
                assert_eq!(a.data, b.data, "frame {i} payload (w={workers})");
            }
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        let res = Resolution::new(32, 32);
        assert!(encode(res, EncoderConfig::new(4, 0), &[], 4).is_empty());
    }
}
