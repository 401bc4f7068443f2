//! GOP-parallel encoding: split, encode, splice.
//!
//! The sequential [`Encoder`] is a closed-loop state machine, but its state
//! resets completely at every I-frame: GOPs in this codec are *closed* — a
//! P-frame only references frames back through its GOP's opening I-frame.
//! That makes the following two-pass pipeline produce a bitstream
//! **byte-identical** to the sequential encoder's:
//!
//! 1. **Plan.** Run the shared [`Lookahead`] over the whole sequence. This is
//!    the exact type (and therefore the exact arithmetic) the sequential
//!    encoder uses to place I-frames, so the frame-type plan cannot diverge.
//!    The lookahead works on half-resolution source planes and costs a small
//!    fraction of a full encode.
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
//! [`Lookahead`]: crate::encode::Lookahead

use std::ops::Range;
use std::sync::{Arc, Mutex};

use crate::encode::{EncodedFrame, Encoder, EncoderConfig, FrameDecision, FrameType, Lookahead};
use crate::frame::{Frame, Resolution};

/// Runs the lookahead pass alone: the frame-type plan for `frames`, one
/// decision per frame, identical to what the sequential encoder would decide.
pub fn plan_frame_types(config: EncoderConfig, frames: &[Frame]) -> Vec<FrameDecision> {
    let mut lookahead = Lookahead::new(config);
    frames.iter().map(|f| lookahead.observe(f)).collect()
}

/// Splits a frame-type plan into GOP ranges: each range starts at an I-frame
/// (the first frame is always planned as I) and runs up to the next one.
pub fn gop_ranges(decisions: &[FrameDecision]) -> Vec<Range<usize>> {
    let mut gops = Vec::new();
    let mut start = 0;
    for (i, d) in decisions.iter().enumerate().skip(1) {
        if d.frame_type == FrameType::I {
            gops.push(start..i);
            start = i;
        }
    }
    if !decisions.is_empty() {
        gops.push(start..decisions.len());
    }
    gops
}

/// Encodes `frames` with up to `workers` threads, returning the encoded
/// frames in display order plus the lookahead's per-frame decisions.
///
/// The output is byte-identical to feeding the same frames through
/// [`Encoder::encode_frame`] one by one (see the module docs for why).
/// `workers` is clamped to `1..=`the number of GOPs; with one worker the
/// encode runs on the calling thread with no threads spawned.
///
/// # Panics
///
/// Panics if any frame's resolution differs from `resolution`.
pub fn encode_parallel_with_decisions(
    resolution: Resolution,
    config: EncoderConfig,
    frames: &[Frame],
    workers: usize,
) -> (Vec<EncodedFrame>, Vec<FrameDecision>) {
    for f in frames {
        assert_eq!(
            f.resolution(),
            resolution,
            "frame resolution changed mid-stream"
        );
    }
    let decisions = plan_frame_types(config, frames);
    let gops = gop_ranges(&decisions);
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
        return (encoded, decisions);
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
    (encoded, decisions)
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
        let plan = plan_frame_types(config, &frames);
        let mut enc = Encoder::new(res, config);
        for f in &frames {
            enc.encode_frame(f);
        }
        let seq: Vec<FrameType> = enc.decisions().iter().map(|d| d.frame_type).collect();
        let planned: Vec<FrameType> = plan.iter().map(|d| d.frame_type).collect();
        assert_eq!(planned, seq);
    }

    #[test]
    fn gop_ranges_cover_and_partition() {
        let res = Resolution::new(64, 48);
        let frames = moving_frames(res, 30);
        let plan = plan_frame_types(EncoderConfig::new(6, 100), &frames);
        let gops = gop_ranges(&plan);
        assert_eq!(gops.first().map(|g| g.start), Some(0));
        assert_eq!(gops.last().map(|g| g.end), Some(frames.len()));
        for pair in gops.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "ranges must partition");
        }
        for g in &gops {
            assert_eq!(plan[g.start].frame_type, FrameType::I);
            for d in &plan[g.start + 1..g.end] {
                assert_eq!(d.frame_type, FrameType::P);
            }
        }
    }

    #[test]
    fn parallel_bitstream_is_byte_identical() {
        let res = Resolution::new(64, 48);
        let frames = moving_frames(res, 25);
        let config = EncoderConfig::new(7, 150);
        let mut enc = Encoder::new(res, config);
        let sequential: Vec<EncodedFrame> = frames.iter().map(|f| enc.encode_frame(f)).collect();
        for workers in [1, 2, 4] {
            let (par, decisions) = encode_parallel_with_decisions(res, config, &frames, workers);
            assert_eq!(par.len(), sequential.len());
            for (i, (a, b)) in sequential.iter().zip(&par).enumerate() {
                assert_eq!(a.frame_type, b.frame_type, "frame {i} type (w={workers})");
                assert_eq!(a.data, b.data, "frame {i} payload (w={workers})");
            }
            assert_eq!(decisions.len(), frames.len());
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        let res = Resolution::new(32, 32);
        let (frames, decisions) =
            encode_parallel_with_decisions(res, EncoderConfig::new(4, 0), &[], 4);
        assert!(frames.is_empty());
        assert!(decisions.is_empty());
    }
}
