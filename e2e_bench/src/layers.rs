//! The traced run's single-threaded replays: the workload's exact inputs
//! pushed through each layer's public functions, every call in a span, plus
//! the micro-loops for layers whose calls are too short to time one by one
//! (shard queue, stats instruments, rate controller).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sieve_core::adapt::RateController;
use sieve_core::{EdgeOutcome, EdgeSession, IFrameSelector};
use sieve_filters::{mse_luma, Budget, MseSelector};
use sieve_simnet::{GuardedPop, PushOutcome, ShardQueue, Steal};
use sieve_stats::{Collector, Counter, Histogram, Registry};
use sieve_video::{Decoder, FrameType};

use crate::fleet_run::{FleetPlan, Policy};
use crate::tapes::{cursor_of, frame_of, Tape};
use crate::trace::Tracer;

/// Frames per stream the decode/score pass covers (at least one long GOP).
pub const DECODE_PASS_FRAMES: usize = 180;

/// What the `EdgeSession` replay saw.
#[derive(Debug, Default)]
pub struct EdgeReplay {
    /// Kept frame indices per active stream, ascending.
    pub kept: Vec<Vec<u32>>,
    pub frames: u64,
    pub kept_frames: u64,
    /// Frames the policy had decoded: every frame for full-decode
    /// policies, the metadata survivors (I-frames) for seekers.
    pub decoded_i: u64,
    pub decoded_p: u64,
    /// Time inside `observe` for the frames that were kept.
    pub kept_observe_ns: u64,
    pub failed: u64,
}

/// Replays the first `counts[s]` frames of every active stream through a
/// fresh `EdgeSession`, one `core.edge_observe` span per frame.
pub fn edge_replay(
    tapes: &[Tape],
    plan: &FleetPlan,
    counts: &[u64],
    tracer: &mut Tracer,
) -> EdgeReplay {
    let mut out = EdgeReplay::default();
    for (s, &count) in counts.iter().enumerate().take(plan.active) {
        let cursor = cursor_of(tapes, s);
        let tape = &tapes[cursor.tape];
        let policy = plan.joined[s].policy;
        let mut session = match policy {
            Policy::Seek => {
                EdgeSession::open(&IFrameSelector::new(), tape.resolution(), tape.quality())
            }
            Policy::Mse(rate) => EdgeSession::open(
                &MseSelector::mse(Budget::TargetRate(rate)),
                tape.resolution(),
                tape.quality(),
            ),
        };
        let mut kept = Vec::new();
        for i in 0..count as usize {
            let ef = frame_of(tapes, cursor, i);
            // The copy the fleet's ingest makes is `fleet.packet_copy`'s,
            // not the edge's: keep it outside the span.
            let payload = ef.data.clone();
            let t0 = Instant::now();
            let outcome = session.observe(i, ef.frame_type, payload);
            let t1 = Instant::now();
            tracer.record("core.edge_observe", t0, t1, i as u64);
            let is_kept = matches!(outcome, EdgeOutcome::Kept(_));
            match outcome {
                EdgeOutcome::Kept(_) => {
                    kept.push(i as u32);
                    out.kept_observe_ns += (t1 - t0).as_nanos() as u64;
                }
                EdgeOutcome::Dropped => {}
                EdgeOutcome::Failed => out.failed += 1,
            }
            let decoded = match policy {
                Policy::Seek => is_kept,
                Policy::Mse(_) => true,
            };
            match (decoded, ef.frame_type) {
                (true, FrameType::I) => out.decoded_i += 1,
                (true, FrameType::P) => out.decoded_p += 1,
                (false, _) => {}
            }
        }
        if session.finish().is_err() {
            out.failed += 1;
        }
        out.frames += count;
        out.kept_frames += kept.len() as u64;
        out.kept.push(kept);
    }
    out
}

/// What the decode/score pass collected.
#[derive(Debug, Default)]
pub struct DecodePass {
    /// Mean encoded payload bytes of the frames decoded.
    pub payload_bytes_per_frame: f64,
    /// MSE change scores in stream order (full-decode streams only).
    pub scores: Vec<f64>,
}

/// Decodes what each policy decodes (`Decoder::decode_next`: every frame
/// for MSE streams, I-frames only for seekers) over the first
/// [`DECODE_PASS_FRAMES`] frames per stream, and scores consecutive frames
/// of MSE streams with `mse_luma`. Spans: `video.decode_i`,
/// `video.decode_p`, `filters.mse_score`.
pub fn decode_pass(tapes: &[Tape], plan: &FleetPlan, tracer: &mut Tracer) -> DecodePass {
    let mut out = DecodePass::default();
    let (mut bytes, mut frames) = (0u64, 0u64);
    for s in 0..plan.active {
        let cursor = cursor_of(tapes, s);
        let tape = &tapes[cursor.tape];
        let full = matches!(plan.joined[s].policy, Policy::Mse(_));
        let mut decoder = Decoder::new(tape.resolution(), tape.quality());
        let mut prev = None;
        for i in 0..DECODE_PASS_FRAMES {
            let ef = frame_of(tapes, cursor, i);
            if !full && ef.frame_type != FrameType::I {
                continue;
            }
            let name = match ef.frame_type {
                FrameType::I => "video.decode_i",
                FrameType::P => "video.decode_p",
            };
            let t0 = Instant::now();
            let frame = decoder.decode_next(ef).expect("a tape decodes");
            tracer.record(name, t0, Instant::now(), i as u64);
            bytes += ef.data.len() as u64;
            frames += 1;
            if full {
                if let Some(prev) = &prev {
                    let score =
                        tracer.time("filters.mse_score", i as u64, || mse_luma(prev, frame));
                    out.scores.push(score);
                }
                prev = Some(frame.clone());
            }
        }
    }
    out.payload_bytes_per_frame = bytes as f64 / frames.max(1) as f64;
    out
}

/// `RateController::observe` over `scores`, repeated to at least 100k
/// observations; one `core.rate_controller` span around the loop. Returns
/// the observation count (0 when the workload has no scored stream).
pub fn rate_controller_loop(scores: &[f64], target: f64, tracer: &mut Tracer) -> u64 {
    if scores.is_empty() {
        return 0;
    }
    let mut controller = RateController::new(target).expect("target in (0, 1]");
    let reps = 100_000usize.div_ceil(scores.len());
    tracer.time("core.rate_controller", 0, || {
        for _ in 0..reps {
            for &score in scores {
                black_box(controller.observe(black_box(score)));
            }
        }
    });
    (reps * scores.len()) as u64
}

/// Shard-queue micro-loops. Returns `(cycle_ns, steal_ns)`: the mean cost
/// of one `try_push` → `try_pop_guarded` → `complete` cycle with `lanes`
/// open lanes, and of one `try_steal` + `complete` of an eight-frame batch.
pub fn shard_queue_loops(lanes: u64, tracer: &mut Tracer) -> (f64, f64) {
    const CYCLES: u64 = 200_000;
    const STEALS: u64 = 2_000;
    let queue = ShardQueue::<u64>::new(32);
    for key in 0..lanes {
        assert!(queue.open_lane(key));
    }
    let name = if lanes == 64 {
        "simnet.shardqueue.cycle_64"
    } else {
        "simnet.shardqueue.cycle_256"
    };
    tracer.time(name, lanes, || {
        for j in 0..CYCLES {
            assert_eq!(queue.try_push(j % lanes, j), PushOutcome::Queued);
            match queue.try_pop_guarded() {
                GuardedPop::Item(key, item) => {
                    black_box(item);
                    queue.complete(key, None);
                }
                other => panic!("a queued frame must pop, got {other:?}"),
            }
        }
    });
    let cycle_ns = tracer.busy(name).self_ns as f64 / CYCLES as f64;
    for _ in 0..STEALS {
        for j in 0..16 {
            assert_eq!(queue.try_push(0, j), PushOutcome::Queued);
        }
        // One steal takes the front half (8 of 16); the rest is drained by
        // guarded pops outside the span.
        tracer.time("simnet.shardqueue.steal", 0, || match queue.try_steal(8) {
            Steal::Batch { key, items } => {
                black_box(items);
                queue.complete(key, None);
            }
            other => panic!("an uncontended deep lane must be stealable, got {other:?}"),
        });
        while let GuardedPop::Item(key, _) = queue.try_pop_guarded() {
            queue.complete(key, None);
        }
    }
    let steal = tracer.busy("simnet.shardqueue.steal");
    (cycle_ns, steal.self_per_span(1.0))
}

/// Stats-plane micro-loops. Returns `(counter_inc_ns, histogram_record_ns,
/// collector_tick_us)`; the collector ticks over `registry` (a fleet's).
pub fn stats_loops(registry: &Arc<Registry>, tracer: &mut Tracer) -> (f64, f64, f64) {
    const OPS: u64 = 1_000_000;
    const TICKS: u64 = 200;
    let counter = Counter::contended();
    tracer.time("stats.counter_inc", 0, || {
        for _ in 0..OPS {
            black_box(&counter).inc();
        }
    });
    let histogram = Histogram::new();
    tracer.time("stats.histogram_record", 0, || {
        for v in 0..OPS {
            black_box(&histogram).record(black_box(v & 0xFFFF));
        }
    });
    let collector = Collector::new(registry.clone());
    for t in 0..TICKS {
        tracer.time("stats.collector_tick", t, || {
            black_box(collector.tick_at(t));
        });
    }
    (
        tracer.busy("stats.counter_inc").self_ns as f64 / OPS as f64,
        tracer.busy("stats.histogram_record").self_ns as f64 / OPS as f64,
        tracer.busy("stats.collector_tick").self_per_span(1e3),
    )
}
