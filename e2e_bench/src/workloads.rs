//! The three fleet workloads: what they join, how fast they are paced, and
//! the run that turns them into metrics.
//!
//! Paced rates are absolute and fixed here — at most a third of the
//! saturate throughput measured once on the reference host (2 cores), and
//! low enough that the fleet's queues hold a quarter second of arrivals —
//! and never follow the code under test.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sieve_core::adapt::wan_signal;
use sieve_fleet::shard_of;

use crate::fleet_run::{
    build_rig, logging_sink, Feed, FleetPlan, PhaseOut, Policy, Rig, SharedLog, SinkLog,
    StreamPlan, SHARDS,
};
use crate::layers;
use crate::schedule::{lead_frames, Schedule};
use crate::spec::{Metrics, Spec};
use crate::summary::{median, percentile, sort};
use crate::tapes::{build_tapes, cursor_of, frame_of, is_i_frame, Tape};
use crate::trace::Tracer;

/// Rounds per untraced run; every end-to-end metric is the median over
/// them.
pub const ROUNDS: usize = 3;
/// Share of `--seconds` the saturate phase takes; the paced phase takes
/// the rest.
pub const SATURATE_SHARE: f64 = 0.4;

/// Streams that ever receive frames, in every fleet workload.
const ACTIVE: usize = 64;

/// One fleet workload.
pub struct FleetWorkload {
    pub name: &'static str,
    pub plan: fn() -> FleetPlan,
    /// Open-loop arrival rate of the paced phase, frames/s fleet-wide.
    pub paced_fps: f64,
}

fn uniform(policy: Policy) -> FleetPlan {
    FleetPlan {
        joined: vec![
            StreamPlan {
                policy,
                priority_hint: None,
            };
            ACTIVE
        ],
        active: ACTIVE,
    }
}

fn seek_uniform() -> FleetPlan {
    uniform(Policy::Seek)
}

fn decode_uniform() -> FleetPlan {
    uniform(Policy::Mse(0.1))
}

/// 256 streams joined, ids 0..63 fed. A fed stream whose home shard is 0
/// is hot (full-decode MSE keeping half its frames), the rest are cold
/// I-frame seekers; ids 64..255 are registered-but-idle lanes.
fn skew_idle() -> FleetPlan {
    let joined = (0..256u64)
        .map(|id| {
            if shard_of(id, SHARDS) == 0 {
                StreamPlan {
                    policy: Policy::Mse(0.5),
                    priority_hint: Some(0.6),
                }
            } else {
                StreamPlan {
                    policy: Policy::Seek,
                    priority_hint: Some(0.05),
                }
            }
        })
        .collect();
    FleetPlan {
        joined,
        active: ACTIVE,
    }
}

pub const FLEET_WORKLOADS: [FleetWorkload; 3] = [
    FleetWorkload {
        name: "seek_uniform",
        plan: seek_uniform,
        paced_fps: 30_000.0,
    },
    FleetWorkload {
        name: "decode_uniform",
        plan: decode_uniform,
        paced_fps: 3_000.0,
    },
    FleetWorkload {
        name: "skew_idle",
        plan: skew_idle,
        paced_fps: 6_000.0,
    },
];

/// What the command line fixes for one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    /// Operations offered: frames pushed at the fleet, blocks sent.
    pub attempted: u64,
    /// Operations that failed: frames shed in a paced phase, frames the
    /// fleet reports failed, blocks whose bytes differ, broken ledgers.
    pub failed: u64,
    /// Every verification check that did not hold.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// What one round contributes to the end-to-end metrics. A round is reduced
/// to this at once: three rounds of tapes and logs held together would
/// triple the peak RSS.
pub struct Slice {
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub throughput_samples: u64,
    pub latency_p50_us: f64,
    pub latency_samples: u64,
    /// Paced operations that produced a usable result, of those offered.
    pub usable: u64,
    pub offered: u64,
}

/// The end-to-end metrics of an untraced run: the median over its rounds
/// (shares pool their counts), and the process's peak RSS.
pub fn end_to_end(spec: &Spec, slices: &[Slice]) -> Metrics {
    let over = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&Slice) -> u64| slices.iter().map(f).sum::<u64>();
    let mut m = Metrics::end_to_end(spec);
    m.set("setup_s", over(|r| r.setup_s), "s", slices.len() as u64);
    m.set(
        "throughput_per_s",
        over(|r| r.throughput_per_s),
        "1/s",
        sum(|r| r.throughput_samples),
    );
    m.set(
        "latency_p50_us",
        over(|r| r.latency_p50_us),
        "us",
        sum(|r| r.latency_samples),
    );
    let offered = sum(|r| r.offered);
    m.set(
        "usable_share",
        sum(|r| r.usable) as f64 / offered.max(1) as f64,
        "share",
        offered,
    );
    m.set("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    m
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pre-roll length of every active stream.
pub fn leads_of(tapes: &[Tape], seed: u64, active: usize) -> Vec<usize> {
    (0..active)
        .map(|s| lead_frames(seed, s, tapes[cursor_of(tapes, s).tape].gop))
        .collect()
}

/// A rig whose active streams log into fresh per-stream sink logs.
fn logging_rig(
    tapes: &[Tape],
    plan: &FleetPlan,
    epoch: Instant,
    timed: bool,
) -> (Rig, Vec<SharedLog>) {
    let logs: Vec<SharedLog> = (0..plan.active)
        .map(|_| Arc::new(Mutex::new(SinkLog::default())))
        .collect();
    let rig = build_rig(tapes, plan, |s| logging_sink(logs[s].clone(), epoch, timed));
    (rig, logs)
}

pub fn take_logs(logs: Vec<SharedLog>) -> Vec<SinkLog> {
    logs.into_iter()
        .map(|log| std::mem::take(&mut *log.lock().expect("sink log lock")))
        .collect()
}

/// Which feeder discipline a phase ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Saturate,
    Paced,
}

/// Checks one phase's ledgers; appends what does not hold to `problems`
/// and returns the failed-operation count.
pub fn verify_phase(
    phase: Phase,
    tapes: &[Tape],
    plan: &FleetPlan,
    out: &PhaseOut,
    logs: &[SinkLog],
    problems: &mut Vec<String>,
) -> u64 {
    let snap = &out.report.snapshot;
    let tag = match phase {
        Phase::Saturate => "saturate",
        Phase::Paced => "paced",
    };
    let mut bad = |msg: String| problems.push(format!("{tag}: {msg}"));
    let mut failed = 0u64;
    if snap.streams.len() != plan.joined.len() {
        bad(format!("{} streams in the report", snap.streams.len()));
        return 1;
    }
    let (mut attempts, mut processed, mut shed) = (0u64, 0u64, 0u64);
    for (s, stream) in snap.streams.iter().enumerate() {
        if !stream.done || stream.finish_error.is_some() {
            bad(format!("stream {s} did not finish cleanly"));
        }
        if s >= plan.active {
            if stream.processed + stream.shed != 0 {
                bad(format!("idle stream {s} saw frames"));
            }
            continue;
        }
        let (offered, tried) = (out.ledger.offered[s], out.ledger.attempts[s]);
        attempts += tried;
        processed += stream.processed;
        shed += stream.shed;
        failed += stream.failed;
        if stream.processed + stream.shed != tried {
            bad(format!(
                "stream {s}: processed {} + shed {} != offered {tried}",
                stream.processed, stream.shed
            ));
        }
        if phase == Phase::Saturate && stream.processed != offered {
            bad(format!(
                "stream {s}: {} of {offered} frames processed",
                stream.processed
            ));
        }
        let log = &logs[s];
        if !log.kept.windows(2).all(|w| w[0].0 < w[1].0) {
            bad(format!("stream {s}: sink indices not strictly ascending"));
        }
        if log.kept.len() as u64 != stream.kept || log.payload_bytes != stream.kept_payload_bytes {
            bad(format!(
                "stream {s}: sink saw {} frames / {} bytes, fleet kept {} / {}",
                log.kept.len(),
                log.payload_bytes,
                stream.kept,
                stream.kept_payload_bytes
            ));
        }
        if plan.joined[s].policy == Policy::Seek && stream.shed == 0 {
            let cursor = cursor_of(tapes, s);
            let expected = (0..offered as usize).filter(|&i| is_i_frame(tapes, cursor, i));
            if !expected.eq(log.kept.iter().map(|&(i, _)| i as usize)) {
                bad(format!("stream {s}: kept set is not its I-frames"));
            }
        }
    }
    let agg = snap.aggregate;
    if agg.processed != processed || agg.shed != shed || processed + shed != attempts {
        bad(format!(
            "fleet-wide: processed {} + shed {} != offered {attempts}",
            agg.processed, agg.shed
        ));
    }
    match phase {
        Phase::Saturate if shed != out.ledger.refusals => {
            bad(format!("{shed} sheds for {} refusals", out.ledger.refusals));
        }
        Phase::Paced if shed != out.ledger.shed + out.ledger.refusals => {
            bad(format!("fleet shed {shed}, feeder saw {}", out.ledger.shed));
        }
        _ => {}
    }
    failed + out.ledger.shed
}

/// Due-time → sink latency of every frame kept in the timed part of a
/// paced phase, µs, ascending.
pub fn keep_latencies_us(
    schedule: &Schedule,
    leads: &[usize],
    out: &PhaseOut,
    logs: &[SinkLog],
) -> Vec<f64> {
    let mut lat = Vec::new();
    for (s, log) in logs.iter().enumerate() {
        for &(index, at_ns) in &log.kept {
            let Some(round) = (index as usize).checked_sub(leads[s]) else {
                continue; // pre-roll
            };
            let k = round as u64 * schedule.streams as u64 + s as u64;
            let due = out.t0_ns + schedule.due_ns(k);
            lat.push(at_ns.saturating_sub(due) as f64 / 1e3);
        }
    }
    sort(&mut lat);
    lat
}

fn saturate_fps(out: &PhaseOut) -> f64 {
    out.ledger.timed_frames as f64 / out.wall_s
}

/// One round of a fleet workload: a set-up, a saturate slice and a paced
/// slice, verified.
struct Round {
    setup_s: f64,
    tapes: Vec<Tape>,
    leads: Vec<usize>,
    /// Saturate throughput measured before the traced one (traced runs).
    untraced_fps: f64,
    sat: PhaseOut,
    sat_logs: Vec<SinkLog>,
    paced: PhaseOut,
    /// Paced keep latencies and feeder lateness, µs, ascending.
    latencies: Vec<f64>,
    lates: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn run_round(
    w: &FleetWorkload,
    plan: &FleetPlan,
    seed: u64,
    seconds: f64,
    epoch: Instant,
    mut tracer: Option<&mut Tracer>,
    problems: &mut Vec<String>,
) -> Round {
    let traced = tracer.is_some();
    wan_signal().reset();
    let t = Instant::now();
    let tapes = build_tapes(seed, tracer.as_deref_mut());
    let (rig, logs) = logging_rig(&tapes, plan, epoch, traced);
    let setup_s = t.elapsed().as_secs_f64();
    let leads = leads_of(&tapes, seed, plan.active);
    let sat_secs = seconds * SATURATE_SHARE;
    let feed = |rig| Feed {
        tapes: &tapes,
        rig,
        active: plan.active,
        leads: &leads,
    };

    // A traced run first measures an untraced saturate, so the tracing
    // overhead is a number and not a guess.
    let (rig, logs, untraced_fps) = if traced {
        let f = feed(rig);
        let ledger = f.pre_roll();
        let base = f.saturate(ledger, sat_secs / 2.0, None);
        drop(logs);
        let (rig, logs) = logging_rig(&tapes, plan, epoch, true);
        (rig, logs, saturate_fps(&base))
    } else {
        (rig, logs, 0.0)
    };

    let f = feed(rig);
    let ledger = f.pre_roll();
    let sat = f.saturate(ledger, sat_secs, tracer.as_deref_mut());
    let sat_logs = take_logs(logs);
    let mut failed = verify_phase(Phase::Saturate, &tapes, plan, &sat, &sat_logs, problems);

    wan_signal().reset();
    let (rig, logs) = logging_rig(&tapes, plan, epoch, traced);
    let f = feed(rig);
    let ledger = f.pre_roll();
    let schedule = Schedule::new(w.paced_fps, plan.active, seconds - sat_secs);
    let paced = f.paced(ledger, schedule, Instant::now(), epoch, tracer);
    let paced_logs = take_logs(logs);
    failed += verify_phase(Phase::Paced, &tapes, plan, &paced, &paced_logs, problems);

    let latencies = keep_latencies_us(&schedule, &leads, &paced, &paced_logs);
    let mut lates = paced.lates_us.clone();
    sort(&mut lates);
    let attempted =
        sat.ledger.offered.iter().sum::<u64>() + paced.ledger.offered.iter().sum::<u64>();
    Round {
        setup_s,
        tapes,
        leads,
        untraced_fps,
        sat,
        sat_logs,
        paced,
        latencies,
        lates,
        attempted,
        failed,
    }
}

/// Runs one fleet workload. Untraced: [`ROUNDS`] rounds of set-up, saturate
/// and paced, each metric the median over the rounds — the host's speed
/// drifts over seconds, and three windows spread over the run see more of
/// it than one. Traced: one round with spans, then the layer replays.
pub fn run_fleet_workload(w: &FleetWorkload, params: Params, spec: &Spec) -> Outcome {
    let epoch = Instant::now();
    let plan = (w.plan)();
    let mut tracer = params.trace.then(|| Tracer::new(epoch));
    let mut problems = Vec::new();

    let metrics;
    let (attempted, mut failed);
    match tracer.as_mut() {
        None => {
            let (mut a, mut f) = (0, 0);
            let slices: Vec<Slice> = (0..ROUNDS)
                .map(|_| {
                    let r = run_round(
                        w,
                        &plan,
                        params.seed,
                        params.seconds / ROUNDS as f64,
                        epoch,
                        None,
                        &mut problems,
                    );
                    a += r.attempted;
                    f += r.failed;
                    Slice {
                        setup_s: r.setup_s,
                        throughput_per_s: saturate_fps(&r.sat),
                        throughput_samples: r.sat.ledger.timed_frames,
                        latency_p50_us: percentile(&r.latencies, 50.0),
                        latency_samples: r.latencies.len() as u64,
                        usable: r.paced.ledger.timed_frames - r.paced.ledger.shed,
                        offered: r.paced.ledger.timed_frames,
                    }
                })
                .collect();
            (attempted, failed) = (a, f);
            let m = end_to_end(spec, &slices);
            metrics = m;
        }
        Some(tr) => {
            let Round {
                tapes,
                leads,
                untraced_fps,
                sat,
                sat_logs,
                paced,
                latencies,
                lates,
                attempted: a,
                failed: f,
                setup_s: _,
            } = run_round(
                w,
                &plan,
                params.seed,
                params.seconds,
                epoch,
                Some(tr),
                &mut problems,
            );
            attempted = a;
            failed = f;
            let mut m = Metrics::per_layer(spec);
            // The saturate phase's exact inputs, single-threaded.
            let replay = common_layers(
                &mut m,
                tr,
                &Traced {
                    tapes: &tapes,
                    plan: &plan,
                    replay_counts: &sat.ledger.offered,
                    fed_frames: sat.ledger.offered.iter().sum::<u64>()
                        - leads.iter().sum::<usize>() as u64
                        + paced.ledger.timed_frames,
                    paced: &paced,
                    latencies: &latencies,
                    lates: &lates,
                },
            );
            failed += replay.failed;
            for (s, kept) in replay.kept.iter().enumerate() {
                if !kept.iter().eq(sat_logs[s].kept.iter().map(|(i, _)| i)) {
                    problems.push(format!(
                        "saturate: stream {s} kept set differs from its EdgeSession replay"
                    ));
                }
            }
            let frames = sat.report.snapshot.aggregate.processed.max(1);
            let observe_us = tr.busy("core.edge_observe").self_per_span(1e3);
            let worker_us = SHARDS as f64 * sat.wall_s * 1e6 / sat.ledger.timed_frames as f64;
            let sink_us =
                sat_logs.iter().map(|l| l.sink_ns).sum::<u64>() as f64 / 1e3 / frames as f64;
            m.set(
                "fleet.worker_us_per_frame",
                worker_us,
                "us",
                sat.ledger.timed_frames,
            );
            m.set("fleet.sink_us_per_frame", sink_us, "us", frames);
            m.set(
                "fleet.unattributed_us_per_frame",
                worker_us - observe_us - sink_us,
                "us",
                frames,
            );
            m.set(
                "fleet.saturate_refusals",
                (sat.ledger.refusals - sat.ledger.pre_roll_refusals) as f64,
                "count",
                1,
            );
            let (sat_snap, paced_snap) = (&sat.report.snapshot, &paced.report.snapshot);
            m.set(
                "fleet.stolen",
                (sat_snap.stolen + paced_snap.stolen) as f64,
                "count",
                1,
            );
            m.set(
                "fleet.steal_fail",
                (sat_snap.steal_fail + paced_snap.steal_fail) as f64,
                "count",
                1,
            );
            m.set(
                "trace.overhead_share",
                1.0 - saturate_fps(&sat) / untraced_fps,
                "share",
                sat.ledger.timed_frames,
            );
            m.zero_unset(); // the `net.*` rows: no uplink in a fleet workload
            metrics = m;
        }
    }

    Outcome {
        workload: w.name,
        attempted,
        failed,
        problems,
        metrics,
        tracer,
    }
}

/// Mean over the rate-targeting streams of `|achieved − target| / target`
/// in a paced phase (0 when no stream has a target).
pub fn rate_err(plan: &FleetPlan, paced: &PhaseOut) -> f64 {
    let errs: Vec<f64> = paced.report.snapshot.streams[..plan.active]
        .iter()
        .filter_map(|s| s.target_rate.map(|t| (s.achieved_rate() - t).abs() / t))
        .collect();
    if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// What the layer replays of a traced run work from.
pub struct Traced<'a> {
    pub tapes: &'a [Tape],
    pub plan: &'a FleetPlan,
    /// Frames per active stream the `EdgeSession` replay covers.
    pub replay_counts: &'a [u64],
    /// Frames the traced feeder got queued (saturate + paced, no pre-roll).
    pub fed_frames: u64,
    pub paced: &'a PhaseOut,
    /// Paced keep latencies and feeder lateness, µs, ascending.
    pub latencies: &'a [f64],
    pub lates: &'a [f64],
}

/// Runs the replays and micro-loops every traced workload shares and sets
/// their metrics: `gen.*`, `datasets.*`, `video.*`, `filters.*`, `core.*`,
/// `simnet.*`, `stats.*` and the paced-phase `fleet.*` rows. Returns the
/// `EdgeSession` replay for the caller to verify against.
pub fn common_layers(m: &mut Metrics, tr: &mut Tracer, t: &Traced) -> layers::EdgeReplay {
    let replay = layers::edge_replay(t.tapes, t.plan, t.replay_counts, tr);
    let pass = layers::decode_pass(t.tapes, t.plan, tr);
    let target = t.plan.joined[..t.plan.active]
        .iter()
        .find_map(|p| match p.policy {
            Policy::Mse(rate) => Some(rate),
            Policy::Seek => None,
        })
        .unwrap_or(0.1);
    let observations = layers::rate_controller_loop(&pass.scores, target, tr);
    let (cycle_64, steal_ns) = layers::shard_queue_loops(64, tr);
    let (cycle_256, _) = layers::shard_queue_loops(256, tr);
    let (counter_ns, histogram_ns, tick_us) = layers::stats_loops(&t.paced.registry, tr);

    let samples = t.lates.len() as u64;
    let late_p50 = percentile(t.lates, 50.0);
    m.set("gen.late_p50_us", late_p50, "us", samples);
    m.set("gen.late_p99_us", percentile(t.lates, 99.0), "us", samples);
    m.set(
        "gen.offered_frames",
        t.paced.ledger.timed_frames as f64,
        "count",
        1,
    );
    let generate = tr.busy("datasets.generate");
    m.set(
        "datasets.generate.busy_s",
        generate.self_secs(),
        "s",
        generate.count,
    );
    let encode = tr.busy("video.encode");
    m.set("video.encode.busy_s", encode.self_secs(), "s", encode.count);
    let (dec_i, dec_p) = (tr.busy("video.decode_i"), tr.busy("video.decode_p"));
    m.set(
        "video.decode_i.busy_us_per_frame",
        dec_i.self_per_span(1e3),
        "us",
        dec_i.count,
    );
    m.set(
        "video.decode_p.busy_us_per_frame",
        dec_p.self_per_span(1e3),
        "us",
        dec_p.count,
    );
    m.set(
        "video.payload_bytes_per_frame",
        pass.payload_bytes_per_frame,
        "bytes",
        dec_i.count + dec_p.count,
    );
    let score = tr.busy("filters.mse_score");
    m.set(
        "filters.mse_score.busy_us_per_frame",
        score.self_per_span(1e3),
        "us",
        score.count,
    );
    let observe = tr.busy("core.edge_observe");
    let observe_us = observe.self_per_span(1e3);
    m.set(
        "core.edge_observe.busy_us_per_frame",
        observe_us,
        "us",
        observe.count,
    );
    // `observe` minus the decode it contains, priced by the decode pass.
    let decode_us = (replay.decoded_i as f64 * dec_i.self_per_span(1e3)
        + replay.decoded_p as f64 * dec_p.self_per_span(1e3))
        / replay.frames.max(1) as f64;
    m.set(
        "core.select_self.busy_us_per_frame",
        observe_us - decode_us,
        "us",
        observe.count,
    );
    m.set(
        "core.rate_controller.busy_ns_per_obs",
        tr.busy("core.rate_controller").self_ns as f64 / observations.max(1) as f64,
        "ns",
        observations,
    );
    let decoded = replay.decoded_i + replay.decoded_p;
    m.set(
        "core.decoded_share",
        decoded as f64 / replay.frames.max(1) as f64,
        "share",
        replay.frames,
    );
    m.set(
        "core.kept_per_decoded",
        replay.kept_frames as f64 / decoded.max(1) as f64,
        "ratio",
        decoded,
    );
    m.set("simnet.shardqueue.cycle_ns_64", cycle_64, "ns", 200_000);
    m.set("simnet.shardqueue.cycle_ns_256", cycle_256, "ns", 200_000);
    m.set("simnet.shardqueue.steal_ns", steal_ns, "ns", 2_000);
    let (push, copy) = (tr.busy("fleet.push"), tr.busy("fleet.packet_copy"));
    // Per frame queued: a refused push and its copy are paid again on the
    // re-offer, and that is the feeder's real cost per frame.
    m.set(
        "fleet.push.busy_ns_per_frame",
        push.self_ns as f64 / t.fed_frames.max(1) as f64,
        "ns",
        push.count,
    );
    m.set(
        "fleet.packet_copy.busy_ns_per_frame",
        copy.self_ns as f64 / t.fed_frames.max(1) as f64,
        "ns",
        copy.count,
    );
    let copied: u64 = (0..t.plan.active)
        .map(|s| {
            let cursor = cursor_of(t.tapes, s);
            (0..t.replay_counts[s] as usize)
                .map(|i| frame_of(t.tapes, cursor, i).data.len() as u64)
                .sum::<u64>()
        })
        .sum();
    m.set(
        "fleet.packet_copy.bytes_per_frame",
        copied as f64 / replay.frames.max(1) as f64,
        "bytes",
        replay.frames,
    );
    let kept_samples = t.latencies.len() as u64;
    let latency_p50 = percentile(t.latencies, 50.0);
    m.set(
        "fleet.keep_latency_p99_us",
        percentile(t.latencies, 99.0),
        "us",
        kept_samples,
    );
    // The median kept frame's wait: what is left of its latency after the
    // feeder's lateness and its own service.
    let kept_service_us = replay.kept_observe_ns as f64 / 1e3 / replay.kept_frames.max(1) as f64;
    m.set(
        "fleet.keep_wait_p50_us",
        latency_p50 - late_p50 - kept_service_us,
        "us",
        kept_samples,
    );
    m.set("fleet.shed", t.paced.ledger.shed as f64, "count", 1);
    m.set(
        "fleet.queue_depth_max",
        t.paced.ledger.queue_depth_max as f64,
        "count",
        1,
    );
    m.set(
        "core.rate_err",
        rate_err(t.plan, t.paced),
        "share",
        t.plan.active as u64,
    );
    m.set("stats.counter_inc_ns", counter_ns, "ns", 1_000_000);
    m.set("stats.histogram_record_ns", histogram_ns, "ns", 1_000_000);
    m.set("stats.collector_tick_us", tick_us, "us", 200);
    replay
}
