//! The hostile-WAN sweep: the whole fleet's kept frames funneled through
//! one bandwidth-capped, lossy edge→cloud uplink, swept over fragment
//! loss 0–10% with the FEC-on/off × feedback-on/off A/B grid at every
//! point.
//!
//! The link is deliberately provisioned *below* the fleet's unthrottled
//! offered load (a fixed fraction of `streams × fps × target_rate ×
//! mean_frame_bytes`), so an open-loop sender congests the queue and
//! loses blocks even at 0% random loss — the premise the feedback path
//! exists for. The grid then shows the two mechanisms doing their
//! separate jobs:
//!
//! * **FEC** turns recoverable fragment loss into delivered blocks:
//!   at 5% loss the FEC-on arms recover strictly more blocks than the
//!   FEC-off arms (which can recover none);
//! * **feedback** fits the offered load to what the channel can carry:
//!   the feedback-on arm tracks its *tightened* effective target
//!   (`target × mean WAN factor`) within ±20%, while the feedback-off
//!   arm keeps shipping at the raw target and misses by far more.
//!
//! Every run asserts the transport ledger: each kept frame ships as
//! exactly one block, and every block resolves to exactly one of
//! delivered / recovered / lost.
//!
//! Results land in `BENCH_wan.json` at the repository root,
//! schema-validated by [`sieve_bench::wan_artifact`] (which also encodes
//! the two inequalities above, so a transport regression fails the
//! committed artifact's unit test).
//!
//! Run with: `cargo run --release -p sieve-bench --bin fig4_fleet`
//! (`--frames N` to override frames/stream, `--quick` for the CI smoke's
//! reduced sweep, `--no-artifact` to skip the write).

use std::sync::Arc;

use sieve_bench::report::{pct, table};
use sieve_bench::scale_from_args;
use sieve_bench::wan_artifact::{
    validate, validate_with_rate_bound, WanArtifact, WanFecShape, WanPoint, WanRun, WanRuns,
    QUICK_RATE_ERR_BOUND,
};
use sieve_core::adapt::wan_signal;
use sieve_datasets::{DatasetId, DatasetSpec};
use sieve_filters::{Budget, MseSelector};
use sieve_fleet::{Fleet, FleetConfig, FramePacket, Ingest, StreamConfig};
use sieve_net::{FecConfig, SharedUplink, Uplink, UplinkConfig, WanConfig};
use sieve_stats::Registry;
use sieve_video::{EncodedVideo, EncoderConfig};

const WAN_SEED: u64 = 0x5EE7_EA51;
const TARGET_RATE: f64 = 0.3;
const STREAMS: usize = 8;
const SHARDS: usize = 4;
const MTU: usize = 1200;
/// Link capacity as a fraction of the fleet's unthrottled offered load
/// (payload bytes only — FEC parity and headers ride on top, which is
/// exactly why the open-loop FEC-on arm congests hardest).
const CAP_FRACTION: f64 = 0.7;
/// Queue depth in seconds of line rate. The ECN mark threshold sits at a
/// quarter of this, so the headroom between "marked" and "tail-dropped"
/// is three quarters of it — that band must absorb the burst of several
/// streams keeping their (large) I-frames at once, plus the scheduling
/// skew the channel clock clamps into near-simultaneous sends. Sustained
/// overdrive past the feedback's reach still tail-drops.
const QUEUE_SECS: f64 = 2.0;
const FEEDBACK_QUANTUM_SECS: f64 = 0.1;
const FEEDBACK_DELAY_SECS: f64 = 0.05;

fn usize_flag(name: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

fn bool_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// One pre-encoded synthetic camera. Every stream is adaptive (MSE at
/// [`TARGET_RATE`]) so the feedback factor acts on the whole fleet.
struct Camera {
    name: String,
    encoded: EncodedVideo,
    selector: MseSelector,
}

fn cameras(n: usize, scale: sieve_datasets::DatasetScale, frames: usize) -> Vec<Camera> {
    (0..n)
        .map(|i| {
            let dataset = DatasetId::ALL[i % DatasetId::ALL.len()];
            let spec = DatasetSpec::for_stream(dataset, WAN_SEED, i as u64);
            let video = spec.generate(scale);
            let gop = 60 + 30 * (i % 4); // staggered scenecut cadences
            let encoded = EncodedVideo::encode(
                video.resolution(),
                video.fps(),
                EncoderConfig::new(gop, 120),
                video.frames().take(frames),
            );
            Camera {
                name: format!("{dataset}#{i}"),
                encoded,
                selector: MseSelector::mse(Budget::TargetRate(TARGET_RATE)),
            }
        })
        .collect()
}

/// The fleet's unthrottled offered load in bits/second: every camera
/// keeping `TARGET_RATE` of its frames at its own fps and mean encoded
/// frame size. Deterministic (no serve needed), so the link capacity is
/// the same for every arm of the grid.
fn offered_load_bps(cams: &[Camera]) -> f64 {
    cams.iter()
        .map(|cam| {
            let frames = cam.encoded.frames();
            let total: usize = frames
                .iter()
                .map(sieve_video::EncodedFrame::size_bytes)
                .sum();
            let mean = total as f64 / frames.len().max(1) as f64;
            mean * 8.0 * f64::from(cam.encoded.fps()) * TARGET_RATE
        })
        .sum()
}

/// Longest stream duration in stream time — the denominator for goodput.
fn duration_secs(cams: &[Camera], frames: usize) -> f64 {
    cams.iter()
        .map(|cam| frames as f64 / f64::from(cam.encoded.fps()))
        .fold(0.0, f64::max)
}

/// Serves the whole fleet once through a fresh uplink and reduces the run
/// to one artifact row. Panics on any ledger violation.
fn serve(
    cams: &[Camera],
    loss: f64,
    fec: FecConfig,
    feedback: bool,
    capacity_bps: f64,
    duration: f64,
) -> WanRun {
    // Each arm starts from an untightened control factor; the uplink's
    // feedback (when enabled) is the only writer during the run.
    wan_signal().reset();
    let registry = Arc::new(Registry::new());
    let mut wan = WanConfig::paper_wan(
        WAN_SEED
            ^ (loss * 1e4) as u64
            ^ ((fec.group_parity as u64) << 20)
            ^ ((feedback as u64) << 21),
        loss,
    );
    wan.bandwidth_bps = capacity_bps;
    wan.queue_bytes = (capacity_bps / 8.0 * QUEUE_SECS) as usize;
    let mut cfg = UplinkConfig::over(wan);
    cfg.mtu = MTU;
    cfg.fec = fec;
    cfg.feedback = feedback;
    cfg.feedback_quantum_secs = FEEDBACK_QUANTUM_SECS;
    cfg.feedback_delay_secs = FEEDBACK_DELAY_SECS;
    // Explicit registry (fresh per arm), process-global signal: the
    // fleet's per-stream controllers couple to `wan_signal()`, so applied
    // feedback tightens every stream's effective target.
    let uplink = Uplink::with_registry(cfg, &registry).expect("uplink config");
    let shared = SharedUplink::new(uplink);

    let fleet = Fleet::new(FleetConfig {
        shards: SHARDS,
        queue_capacity: 16,
        global_frame_budget: 16 * SHARDS * 4,
        max_streams: cams.len().max(16),
        work_stealing: true,
        priority_lanes: true,
        stats: true,
    });
    let mut joined = Vec::new();
    for (idx, cam) in cams.iter().enumerate() {
        let cfg = StreamConfig::new(
            cam.name.clone(),
            cam.encoded.resolution(),
            cam.encoded.quality(),
        )
        .with_target_rate(TARGET_RATE);
        // Golden-ratio sub-frame phase: cameras are not frame-locked to
        // each other, so spread each round's sends across the frame
        // period instead of letting every stream's I-frames at GOP
        // multiples land on the same virtual instant.
        let fps = f64::from(cam.encoded.fps());
        let phase = (idx as f64 * 0.618_033_988_749_895).fract() / fps;
        let sink = shared.keep_sink(fps, phase);
        joined.push(
            fleet
                .join_with_sink(&cam.selector, cfg, sink)
                .expect("admission"),
        );
    }
    // Feed in lock-step rounds: frame `i` of *every* stream is offered
    // before frame `i+1` of any, so the streams' virtual clocks stay
    // aligned (within a lane's queue depth). Free-running per-stream
    // feeders would let one camera finish its whole tape first, and the
    // channel's monotone clock would then compress the laggards' sends
    // into bursts that overflow any queue regardless of keep rate.
    let mut backoff_us = 100u64;
    for i in 0.. {
        let mut any = false;
        for (cam, &id) in cams.iter().zip(&joined) {
            let Some(ef) = cam.encoded.frames().get(i) else {
                continue;
            };
            any = true;
            loop {
                match fleet.push(id, FramePacket::of(i, ef)).expect("push") {
                    Ingest::Queued => {
                        backoff_us = 100;
                        break;
                    }
                    Ingest::Shed(_) => {
                        std::thread::sleep(std::time::Duration::from_micros(backoff_us));
                        backoff_us = (backoff_us * 2).min(5_000);
                    }
                }
            }
        }
        if !any {
            break;
        }
    }
    for &id in &joined {
        fleet.leave(id).expect("leave");
    }
    let report = fleet.shutdown();
    shared.finish();
    let c = shared.counts();
    let agg = report.snapshot.aggregate;

    // The transport ledger, asserted on every run of every arm.
    assert_eq!(
        c.blocks_sent, agg.kept,
        "every kept frame must ship as exactly one block"
    );
    assert_eq!(
        c.blocks_sent,
        c.blocks_delivered + c.blocks_recovered + c.blocks_lost,
        "every block must resolve to exactly one outcome"
    );

    let achieved = c.blocks_usable() as f64 / agg.processed.max(1) as f64;
    let effective_target = TARGET_RATE * c.mean_factor();
    WanRun {
        frames_observed: agg.processed,
        frames_kept: agg.kept,
        blocks_sent: c.blocks_sent,
        blocks_delivered: c.blocks_delivered,
        blocks_recovered: c.blocks_recovered,
        blocks_lost: c.blocks_lost,
        packets_sent: c.packets_sent,
        packets_lost: c.packets_lost,
        packets_congestion_dropped: c.packets_congestion_dropped,
        packets_reordered: c.packets_reordered,
        delivered_bytes: c.delivered_bytes,
        goodput_bps: c.delivered_bytes as f64 * 8.0 / duration,
        achieved_cloud_rate: achieved,
        effective_target,
        rate_err: (achieved - effective_target).abs() / effective_target,
        mean_wan_factor: c.mean_factor(),
    }
}

fn main() {
    let scale = scale_from_args();
    let quick = bool_flag("--quick");
    let artifact_path = sieve_bench::artifact_path("BENCH_wan.json");
    // The full sweep runs long enough that the congestion-discovery
    // transient (the first ~2 s before AIMD finds the link) is amortized
    // out of the achieved-rate accounting.
    let frames = usize_flag("--frames").unwrap_or(if quick { 120 } else { 600 });
    // The quick sweep keeps the three points the schema asserts on: the
    // lossless anchor, the 5% headline and the 10% endpoint.
    let losses: &[f64] = if quick {
        &[0.0, 0.05, 0.10]
    } else {
        &[0.0, 0.01, 0.025, 0.05, 0.10]
    };

    let cams = cameras(STREAMS, scale, frames);
    let offered = offered_load_bps(&cams);
    let capacity = CAP_FRACTION * offered;
    let duration = duration_secs(&cams, frames);
    println!(
        "Hostile WAN sweep: {STREAMS} adaptive streams (target {TARGET_RATE}) × \
         {frames} frames at scale = {scale:?}\n\
         unthrottled offered load ≈ {:.2} Mbit/s, link capacity {:.2} Mbit/s \
         ({:.0}% — open-loop senders congest by construction)\n",
        offered / 1e6,
        capacity / 1e6,
        CAP_FRACTION * 100.0
    );

    let fec_on = FecConfig::default_on();
    let fec_off = FecConfig::off();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &loss in losses {
        let mut arm = |fec: FecConfig, feedback: bool, label: &str| {
            let run = serve(&cams, loss, fec, feedback, capacity, duration);
            rows.push(vec![
                pct(loss),
                label.to_string(),
                run.frames_kept.to_string(),
                run.blocks_delivered.to_string(),
                run.blocks_recovered.to_string(),
                run.blocks_lost.to_string(),
                run.packets_congestion_dropped.to_string(),
                format!("{:.2}", run.goodput_bps / 1e6),
                format!("{:.3}", run.achieved_cloud_rate),
                format!("{:.3}", run.effective_target),
                pct(run.rate_err),
            ]);
            run
        };
        let runs = WanRuns {
            fec_on_feedback_on: arm(fec_on, true, "fec+fb"),
            fec_on_feedback_off: arm(fec_on, false, "fec"),
            fec_off_feedback_on: arm(fec_off, true, "fb"),
            fec_off_feedback_off: arm(fec_off, false, "open"),
        };
        points.push(WanPoint { loss, runs });
    }
    wan_signal().reset(); // leave no tightened factor behind for later code
    println!(
        "{}",
        table(
            &[
                "loss",
                "arm",
                "kept",
                "delivered",
                "recovered",
                "lost",
                "cong drop",
                "goodput Mb/s",
                "achieved",
                "eff target",
                "|rate err|",
            ],
            &rows
        )
    );
    println!(
        "\n(FEC turns fragment loss into recovered blocks; feedback tightens \
         the fleet's effective target until the offered load fits the link. \
         The open-loop arms keep shipping at {TARGET_RATE} and pay in lost \
         blocks.)"
    );

    let artifact = WanArtifact {
        benchmark: "fig4_fleet".to_string(),
        scale: format!("{scale:?}"),
        streams: STREAMS,
        frames_per_stream: frames,
        target_rate: TARGET_RATE,
        mtu: MTU,
        fec: WanFecShape {
            group_data: fec_on.group_data,
            group_parity: fec_on.group_parity,
        },
        bandwidth_bps: capacity,
        points,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("artifact serializes") + "\n";
    // The quick smoke's 120-frame sweep is transient-dominated, so its
    // feedback-on rate error gets the looser CI bound; a written artifact
    // always meets the strict committed-artifact bound.
    if quick {
        validate_with_rate_bound(&json, QUICK_RATE_ERR_BOUND)
            .expect("generated artifact passes its own schema (quick bound)");
    } else {
        validate(&json).expect("generated artifact passes its own schema");
    }
    if bool_flag("--no-artifact") {
        println!("\n--no-artifact: skipping BENCH_wan.json write");
    } else {
        std::fs::write(artifact_path, json).expect("artifact written");
        println!("\nwrote BENCH_wan.json");
    }
}
