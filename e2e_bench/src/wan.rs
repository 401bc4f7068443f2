//! `wan_loop`: the whole camera → fleet → uplink → WAN → cloud → feedback
//! loop, and the only workload where `sieve-net` works.
//!
//! *saturate* drives the kept payloads of one `seek_uniform` lap straight
//! through `Uplink::send_block_at` as fast as wall-clock allows — transport
//! CPU capacity in blocks/s, over a lossy but uncapped link.
//!
//! *paced* runs eight rate-targeting MSE cameras through a live fleet
//! whose keep sink ships every kept frame over one shared uplink. The WAN
//! model runs on a clock [`COMPRESSION`]× faster than the wall, so the
//! simulated run is that much longer and FEC, reassembly, feedback quanta
//! and the AIMD factor all act inside a few wall seconds; every latency
//! is still taken on the wall clock, from the
//! frame's due time to the instant its block surfaced usable at the cloud.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sieve_core::adapt::wan_signal;
use sieve_fleet::KeepSink;
use sieve_net::uplink::UplinkCounts;
use sieve_net::{
    fec, BlockOutcome, BlockReport, Depacketizer, FecConfig, FeedbackCollector, LossModel,
    Packetizer, SharedUplink, Uplink, UplinkConfig, WanChannel, WanConfig, WanTaps,
};
use sieve_simnet::SimTime;
use sieve_stats::Registry;
use sieve_video::FrameType;

use crate::fleet_run::{
    build_rig, Feed, FleetPlan, PhaseOut, Policy, Rig, SharedLog, SinkLog, StreamPlan,
};
use crate::layers::DECODE_PASS_FRAMES;
use crate::schedule::Schedule;
use crate::spec::{Metrics, Spec};
use crate::summary::{percentile, sort};
use crate::tapes::{build_tapes, cursor_of, frame_of, Tape};
use crate::trace::Tracer;
use crate::workloads::{
    common_layers, end_to_end, keep_latencies_us, leads_of, take_logs, verify_phase, Outcome,
    Params, Phase, Slice, Traced, ROUNDS, SATURATE_SHARE,
};

pub const NAME: &str = "wan_loop";

const STREAMS: usize = 8;
const TARGET_RATE: f64 = 0.3;
const CAMERA_FPS: f64 = 30.0;
/// Simulated WAN seconds per wall second in the paced phase.
const COMPRESSION: f64 = 12.0;
const MTU: usize = 1200;
const MEAN_LOSS: f64 = 0.05;
/// Link capacity over the cameras' unthrottled offered payload load. FEC
/// parity and headers put ~1.28× that on the wire, so the link runs about
/// a third full: random loss, FEC recovery, feedback quanta and the AIMD
/// factor all act, but no queue stands. (A link capped below the offered
/// load was tried first: a congested AIMD loop's latency and loss swing
/// ±40% from seed to seed, and at 2× the median latency still moved 20%
/// between two runs of one seed — no regress bound holds on that.)
const CAP_FRACTION: f64 = 4.0;
const QUEUE_SECS: f64 = 2.0;
const FEEDBACK_QUANTUM_SECS: f64 = 0.1;
const FEEDBACK_DELAY_SECS: f64 = 0.05;
/// Simulated time between two saturate-phase blocks: long enough that the
/// (uncapped) link never queues, short enough that dozens are in flight.
const SATURATE_BLOCK_GAP_SECS: f64 = 0.002;
/// Size of a saturate-phase block: about the mean kept payload of a lap.
const SATURATE_BLOCK_BYTES: usize = 8 * 1024;
/// Seekers whose one-lap I-frames make the saturate phase's block list.
const LAP_STREAMS: usize = 64;
/// Blocks the piecewise transport replay of a traced run covers.
const NET_REPLAY_BLOCKS: usize = 1500;

fn plan() -> FleetPlan {
    FleetPlan {
        joined: vec![
            StreamPlan {
                policy: Policy::Mse(TARGET_RATE),
                priority_hint: None,
            };
            STREAMS
        ],
        active: STREAMS,
    }
}

/// Gilbert–Elliott burst loss with a 5% long-run mean: 6.25% of packets
/// see the bad state (half lost), the rest lose 2%.
fn burst_loss() -> LossModel {
    let model = LossModel::GilbertElliott {
        to_bad: 0.02,
        to_good: 0.3,
        loss_good: 0.02,
        loss_bad: 0.5,
    };
    debug_assert!((model.mean_loss() - MEAN_LOSS).abs() < 1e-9);
    model
}

/// An uplink over a private registry (the `wan.*` counters of one run must
/// not leak into the next) and the registry's taps. Feedback drives the
/// process-wide signal, which is what the fleet's rate controllers read.
fn uplink(cfg: UplinkConfig) -> (Uplink, WanTaps) {
    let registry = Arc::new(Registry::new());
    let up = Uplink::with_registry(cfg, &registry).expect("valid uplink config");
    (up, WanTaps::register(&registry))
}

/// Saturate: lossy, uncapped, default feedback shape.
fn saturate_config(seed: u64) -> UplinkConfig {
    let mut wan = WanConfig::paper_wan(seed, 0.0);
    wan.loss = burst_loss();
    wan.bandwidth_bps = 1e12;
    wan.queue_bytes = 1 << 30;
    let mut cfg = UplinkConfig::over(wan);
    cfg.mtu = MTU;
    cfg.fec = FecConfig::default_on();
    cfg
}

/// Paced: the paper's WAN at 5% loss over a link of [`CAP_FRACTION`].
fn paced_config(seed: u64, tapes: &[Tape]) -> UplinkConfig {
    let offered_bps: f64 = (0..STREAMS)
        .map(|s| {
            let frames = tapes[cursor_of(tapes, s).tape].frames();
            let bytes: usize = frames.iter().map(|f| f.data.len()).sum();
            bytes as f64 / frames.len() as f64 * 8.0 * CAMERA_FPS * TARGET_RATE
        })
        .sum();
    let mut wan = WanConfig::paper_wan(seed, MEAN_LOSS);
    wan.bandwidth_bps = CAP_FRACTION * offered_bps;
    wan.queue_bytes = (wan.bandwidth_bps / 8.0 * QUEUE_SECS) as usize;
    let mut cfg = UplinkConfig::over(wan);
    cfg.mtu = MTU;
    cfg.fec = FecConfig::default_on();
    cfg.feedback_quantum_secs = FEEDBACK_QUANTUM_SECS;
    cfg.feedback_delay_secs = FEEDBACK_DELAY_SECS;
    cfg
}

/// The saturate phase's blocks: the kept payloads of one `seek_uniform`
/// lap (every I-frame the 64 seekers meet in one pass over their tapes),
/// concatenated and cut into [`SATURATE_BLOCK_BYTES`] pieces. Real encoded
/// bytes, but a block size that does not move with the seed's scenecuts:
/// transport cost goes with bytes, and blocks/s must compare across seeds.
fn lap_blocks(tapes: &[Tape]) -> Vec<Vec<u8>> {
    let mut bytes = Vec::new();
    for s in 0..LAP_STREAMS {
        let cursor = cursor_of(tapes, s);
        for i in 0..tapes[cursor.tape].frames().len() {
            let ef = frame_of(tapes, cursor, i);
            if ef.frame_type == FrameType::I {
                bytes.extend_from_slice(&ef.data);
            }
        }
    }
    bytes
        .chunks_exact(SATURATE_BLOCK_BYTES)
        .map(<[u8]>::to_vec)
        .collect()
}

/// The block ledger of one phase, checked report by report.
#[derive(Debug, Default)]
struct BlockLedger {
    resolved: u64,
    usable: u64,
    lost: u64,
    /// Delivered or recovered blocks whose bytes differ from what was sent.
    mismatched: u64,
}

impl BlockLedger {
    fn absorb(&mut self, report: &BlockReport, sent: &[u8]) {
        self.resolved += 1;
        match report.outcome.payload() {
            Some(bytes) => {
                self.usable += 1;
                if bytes != sent {
                    self.mismatched += 1;
                }
            }
            None => self.lost += 1,
        }
    }

    /// Checks the ledger against the uplink's own; returns failed blocks.
    fn verify(&self, tag: &str, up: &Uplink, problems: &mut Vec<String>) -> u64 {
        let c = up.counts();
        if c.blocks_sent != c.blocks_delivered + c.blocks_recovered + c.blocks_lost
            || self.resolved != c.blocks_sent
            || self.usable != c.blocks_usable()
            || self.lost != c.blocks_lost
        {
            problems.push(format!(
                "{tag}: block ledger: sent {} = delivered {} + recovered {} + lost {}; saw {} reports ({} usable, {} lost)",
                c.blocks_sent, c.blocks_delivered, c.blocks_recovered, c.blocks_lost,
                self.resolved, self.usable, self.lost
            ));
        }
        if self.mismatched > 0 {
            problems.push(format!(
                "{tag}: {} blocks reassembled to other bytes",
                self.mismatched
            ));
        }
        self.mismatched
    }
}

struct SaturateOut {
    blocks: u64,
    wall_s: f64,
    failed: u64,
}

/// Sends the lap's payloads round and round for `seconds`, then resolves
/// what is still in flight.
fn saturate(
    seed: u64,
    payloads: &[Vec<u8>],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    problems: &mut Vec<String>,
) -> SaturateOut {
    wan_signal().reset();
    let (mut up, _) = uplink(saturate_config(seed));
    let mut ledger = BlockLedger::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut sent = 0usize;
    while Instant::now() < deadline {
        // Check the clock once per lap slice, not per block.
        for _ in 0..32 {
            let payload = &payloads[sent % payloads.len()];
            let now = SimTime::from_secs_f64(sent as f64 * SATURATE_BLOCK_GAP_SECS);
            let reports = match tracer.as_deref_mut() {
                None => up.send_block_at(now, payload),
                Some(tr) => tr.time("net.uplink_send", sent as u64, || {
                    up.send_block_at(now, payload)
                }),
            };
            sent += 1;
            for r in &reports {
                ledger.absorb(r, &payloads[r.block_id as usize % payloads.len()]);
            }
        }
    }
    for r in &up.finish() {
        ledger.absorb(r, &payloads[r.block_id as usize % payloads.len()]);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let failed = ledger.verify("saturate", &up, problems);
    if up.counts().blocks_sent != sent as u64 {
        problems.push(format!(
            "saturate: {sent} blocks sent, uplink counted {}",
            up.counts().blocks_sent
        ));
    }
    SaturateOut {
        blocks: sent as u64,
        wall_s,
        failed,
    }
}

/// What the uplink-shipping sinks record, all under the uplink's lock, so
/// `sent[id]` is block `id`.
#[derive(Debug, Default)]
struct WanLog {
    /// `(stream, frame index)` per block, by block id.
    sent: Vec<(u32, u32)>,
    /// `(block id, nanoseconds since epoch)` of usable blocks that
    /// surfaced while the loop ran.
    usable_at: Vec<(u64, u64)>,
    ledger: BlockLedger,
}

/// Everything the paced loop's sinks share.
struct WanShared {
    tapes: Arc<Vec<Tape>>,
    uplink: SharedUplink,
    taps: WanTaps,
    log: Mutex<WanLog>,
    /// The paced schedule's start; unset during the pre-roll, whose kept
    /// frames are not shipped.
    started: OnceLock<Instant>,
    epoch: Instant,
}

impl WanShared {
    fn absorb(&self, log: &mut WanLog, reports: &[BlockReport], live: bool) {
        let at = self.epoch.elapsed().as_nanos() as u64;
        for r in reports {
            let (s, index) = log.sent[r.block_id as usize];
            let cursor = cursor_of(&self.tapes, s as usize);
            let sent = &frame_of(&self.tapes, cursor, index as usize).data;
            log.ledger.absorb(r, sent);
            if live && !matches!(r.outcome, BlockOutcome::Lost) {
                log.usable_at.push((r.block_id, at));
            }
        }
    }
}

/// The sink of stream `s`: logs the kept frame like every workload's, then
/// ships its payload over the shared uplink at compressed wall time.
fn shipping_sink(shared: Arc<WanShared>, s: usize, kept: SharedLog, timed: bool) -> KeepSink {
    Box::new(move |index, _frame, payload| {
        let at = Instant::now();
        {
            let mut kept = kept.lock().expect("sink log lock");
            kept.kept.push((
                index as u32,
                at.duration_since(shared.epoch).as_nanos() as u64,
            ));
            kept.payload_bytes += payload.len() as u64;
        }
        if let Some(started) = shared.started.get() {
            let sim = COMPRESSION * at.saturating_duration_since(*started).as_secs_f64();
            shared.uplink.with(|up| {
                let mut log = shared.log.lock().expect("wan log lock");
                debug_assert_eq!(up.counts().blocks_sent as usize, log.sent.len());
                log.sent.push((s as u32, index as u32));
                let reports = up.send_block_at(SimTime::from_secs_f64(sim), payload);
                shared.absorb(&mut log, &reports, true);
            });
        }
        if timed {
            kept.lock().expect("sink log lock").sink_ns += at.elapsed().as_nanos() as u64;
        }
    })
}

fn shipping_rig(
    tapes: &Arc<Vec<Tape>>,
    seed: u64,
    epoch: Instant,
    timed: bool,
) -> (Rig, Vec<SharedLog>, Arc<WanShared>) {
    let (up, taps) = uplink(paced_config(seed, tapes));
    let shared = Arc::new(WanShared {
        tapes: tapes.clone(),
        uplink: SharedUplink::new(up),
        taps,
        log: Mutex::new(WanLog::default()),
        started: OnceLock::new(),
        epoch,
    });
    let logs: Vec<SharedLog> = (0..STREAMS)
        .map(|_| Arc::new(Mutex::new(SinkLog::default())))
        .collect();
    let rig = build_rig(tapes, &plan(), |s| {
        shipping_sink(shared.clone(), s, logs[s].clone(), timed)
    });
    (rig, logs, shared)
}

/// The transport layers one by one, outside `Uplink`: each block goes
/// through `Packetizer::packetize`, `WanChannel::send`/`poll`,
/// `Depacketizer::push` and `FeedbackCollector::poll`, each call in a span;
/// `fec::encode_group` and `fec::recover_group` are timed on the same
/// fragments. Returns `(packets, wire bytes, payload bytes)`.
fn net_replay(seed: u64, payloads: &[Vec<u8>], tracer: &mut Tracer) -> (u64, u64, u64) {
    let cfg = saturate_config(seed);
    let taps = WanTaps::register(&Arc::new(Registry::new()));
    let mut packetizer = Packetizer::new(cfg.mtu, cfg.fec, 0).expect("valid mtu");
    let mut channel = WanChannel::with_taps(cfg.wan.clone(), taps.clone()).expect("valid channel");
    let mut depacketizer =
        Depacketizer::with_taps(cfg.mtu, cfg.fec, taps.clone()).expect("valid mtu");
    let mut collector =
        FeedbackCollector::new(taps, cfg.feedback_quantum_secs, cfg.feedback_delay_secs);
    let (mut packets, mut wire, mut payload_bytes) = (0u64, 0u64, 0u64);
    for b in 0..NET_REPLAY_BLOCKS {
        let id = b as u64;
        let payload = &payloads[b % payloads.len()];
        let now = SimTime::from_secs_f64(b as f64 * SATURATE_BLOCK_GAP_SECS);
        let (_, fragments) = tracer.time("net.packetize", id, || packetizer.packetize(payload));
        packets += fragments.len() as u64;
        wire += fragments.iter().map(|p| p.wire_len() as u64).sum::<u64>();
        payload_bytes += payload.len() as u64;

        // The FEC work inside packetize, and its inverse, on this block's
        // own first group.
        let data: Vec<&[u8]> = fragments
            .iter()
            .filter(|p| p.header.frag_index < p.header.data_frags)
            .take(cfg.fec.group_data)
            .map(|p| p.payload.as_slice())
            .collect();
        let groups = fragments
            .iter()
            .filter(|p| p.header.frag_index < p.header.data_frags)
            .count()
            .div_ceil(cfg.fec.group_data);
        let parity = tracer.time("net.fec_encode", id, || {
            let mut parity = fec::encode_group(&data, cfg.fec.group_parity);
            // Price every group of the block, not just the first.
            for _ in 1..groups {
                parity = fec::encode_group(&data, cfg.fec.group_parity);
            }
            parity
        });
        if data.len() >= 2 {
            let frag_len = data.iter().map(|d| d.len()).max().unwrap_or(0);
            let mut slots: Vec<Option<Vec<u8>>> = data.iter().map(|d| Some(d.to_vec())).collect();
            slots[b % data.len()] = None;
            let parity: Vec<Option<Vec<u8>>> = parity.into_iter().map(Some).collect();
            let recovered = tracer.time("net.fec_recover", id, || {
                fec::recover_group(&mut slots, &parity, frag_len)
            });
            assert_eq!(
                recovered,
                Ok(1),
                "one erasure with two parity fragments recovers"
            );
        }

        let arrived = tracer.time("net.channel", id, || {
            for p in fragments {
                channel.send(now, p);
            }
            channel.poll(now)
        });
        tracer.time("net.reassemble", id, || {
            for p in arrived {
                std::hint::black_box(depacketizer.push(p));
            }
        });
        let quanta = tracer.time("net.feedback", id, || collector.poll(now));
        std::hint::black_box(quanta);
    }
    (packets, wire, payload_bytes)
}

/// One round of the WAN loop: a set-up, a saturate slice and a paced
/// slice, verified.
struct Round {
    setup_s: f64,
    tapes: Arc<Vec<Tape>>,
    blocks: Vec<Vec<u8>>,
    /// Blocks/s of the untraced saturate measured first (traced runs).
    untraced_bps: f64,
    sat: SaturateOut,
    paced: PhaseOut,
    paced_logs: Vec<SinkLog>,
    leads: Vec<usize>,
    schedule: Schedule,
    counts: UplinkCounts,
    ecn_marked: u64,
    /// Usable blocks that surfaced while the loop ran, by stream.
    usable_by_stream: Vec<u64>,
    /// Due time → usable at the cloud, wall µs, ascending.
    cloud_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn run_round(
    seed: u64,
    seconds: f64,
    epoch: Instant,
    mut tracer: Option<&mut Tracer>,
    problems: &mut Vec<String>,
) -> Round {
    let traced = tracer.is_some();
    wan_signal().reset();
    let t = Instant::now();
    let tapes = Arc::new(build_tapes(seed, tracer.as_deref_mut()));
    let (rig, logs, shared) = shipping_rig(&tapes, seed, epoch, traced);
    let setup_s = t.elapsed().as_secs_f64();
    let sat_secs = seconds * SATURATE_SHARE;

    // saturate: transport capacity.
    let blocks = lap_blocks(&tapes);
    let untraced_bps = if traced {
        let base = saturate(seed, &blocks, sat_secs / 2.0, None, problems);
        base.blocks as f64 / base.wall_s
    } else {
        0.0
    };
    let sat = saturate(seed, &blocks, sat_secs, tracer.as_deref_mut(), problems);
    let mut failed = sat.failed;

    // paced: the whole loop, live.
    wan_signal().reset();
    let plan = plan();
    let leads = leads_of(&tapes, seed, STREAMS);
    let feed = Feed {
        tapes: &tapes,
        rig,
        active: STREAMS,
        leads: &leads,
    };
    let ledger = feed.pre_roll();
    let schedule = Schedule::new(
        STREAMS as f64 * CAMERA_FPS * COMPRESSION,
        STREAMS,
        seconds - sat_secs,
    );
    let started = Instant::now();
    shared.started.set(started).expect("set once");
    let paced = feed.paced(ledger, schedule, started, epoch, tracer);
    let tail = shared.uplink.finish();
    let counts = shared.uplink.counts();
    wan_signal().reset();
    let paced_logs = take_logs(logs);
    let mut log = shared.log.lock().expect("wan log lock");
    shared.absorb(&mut log, &tail, false);

    failed += verify_phase(Phase::Paced, &tapes, &plan, &paced, &paced_logs, problems);
    failed += shared
        .uplink
        .with(|up| log.ledger.verify("paced", up, problems));
    let shipped: u64 = paced_logs
        .iter()
        .zip(&leads)
        .map(|(l, &lead)| l.kept.iter().filter(|&&(i, _)| i as usize >= lead).count() as u64)
        .sum();
    if counts.blocks_sent != shipped || log.sent.len() as u64 != shipped {
        problems.push(format!(
            "paced: {shipped} frames kept after the pre-roll, {} blocks sent",
            counts.blocks_sent
        ));
    }

    let mut usable_by_stream = vec![0u64; STREAMS];
    let mut cloud_us: Vec<f64> = log
        .usable_at
        .iter()
        .map(|&(block, at_ns)| {
            let (s, index) = log.sent[block as usize];
            usable_by_stream[s as usize] += 1;
            let round = index as usize - leads[s as usize];
            let k = round as u64 * STREAMS as u64 + u64::from(s);
            at_ns.saturating_sub(paced.t0_ns + schedule.due_ns(k)) as f64 / 1e3
        })
        .collect();
    sort(&mut cloud_us);
    let attempted = sat.blocks + paced.ledger.offered.iter().sum::<u64>();
    drop(log);
    Round {
        setup_s,
        ecn_marked: shared.taps.packets_marked.get(),
        tapes,
        blocks,
        untraced_bps,
        sat,
        paced,
        paced_logs,
        leads,
        schedule,
        counts,
        usable_by_stream,
        cloud_us,
        attempted,
        failed,
    }
}

/// Runs the WAN loop workload: [`ROUNDS`] untraced rounds with every
/// metric the median over them, or one traced round and the layer replays.
pub fn run(params: Params, spec: &Spec) -> Outcome {
    let epoch = Instant::now();
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
                        throughput_per_s: r.sat.blocks as f64 / r.sat.wall_s,
                        throughput_samples: r.sat.blocks,
                        latency_p50_us: percentile(&r.cloud_us, 50.0),
                        latency_samples: r.cloud_us.len() as u64,
                        usable: r.counts.blocks_usable(),
                        offered: r.counts.blocks_sent,
                    }
                })
                .collect();
            (attempted, failed) = (a, f);
            let m = end_to_end(spec, &slices);
            metrics = m;
        }
        Some(tr) => {
            let r = run_round(params.seed, params.seconds, epoch, Some(tr), &mut problems);
            attempted = r.attempted;
            failed = r.failed;
            let (counts, paced) = (r.counts, &r.paced);
            let mut m = Metrics::per_layer(spec);
            let latencies = keep_latencies_us(&r.schedule, &r.leads, paced, &r.paced_logs);
            let mut lates = paced.lates_us.clone();
            sort(&mut lates);
            // Feedback moves the keep decisions with the wall clock, so the
            // replay prices the layers; it cannot predict the kept sets.
            let replay_counts = vec![DECODE_PASS_FRAMES as u64; STREAMS];
            let replay = common_layers(
                &mut m,
                tr,
                &Traced {
                    tapes: &r.tapes,
                    plan: &plan(),
                    replay_counts: &replay_counts,
                    fed_frames: paced.ledger.timed_frames,
                    paced,
                    latencies: &latencies,
                    lates: &lates,
                },
            );
            failed += replay.failed;
            m.set(
                "fleet.stolen",
                paced.report.snapshot.stolen as f64,
                "count",
                1,
            );
            m.set(
                "fleet.steal_fail",
                paced.report.snapshot.steal_fail as f64,
                "count",
                1,
            );
            // `core.rate_err` against the tightened target the loop steered
            // to (target × mean WAN factor), counting what reached the cloud.
            let factor = counts.mean_factor();
            let errs: Vec<f64> = (0..STREAMS)
                .map(|s| {
                    let frames = (paced.ledger.offered[s] as usize - r.leads[s]).max(1) as f64;
                    let achieved = r.usable_by_stream[s] as f64 / frames;
                    (achieved - TARGET_RATE * factor).abs() / TARGET_RATE
                })
                .collect();
            m.set(
                "core.rate_err",
                errs.iter().sum::<f64>() / errs.len() as f64,
                "share",
                STREAMS as u64,
            );

            let (packets, wire, payload_bytes) = net_replay(params.seed, &r.blocks, tr);
            let blocks = NET_REPLAY_BLOCKS as f64;
            let per_block = |tr: &Tracer, name: &str| tr.busy(name).self_ns as f64 / 1e3 / blocks;
            let fec_encode = per_block(tr, "net.fec_encode");
            // packetize's span contains its FEC encode; report them apart.
            let packetize = per_block(tr, "net.packetize") - fec_encode;
            let channel = per_block(tr, "net.channel");
            let reassemble = per_block(tr, "net.reassemble");
            let feedback = per_block(tr, "net.feedback");
            let send = tr.busy("net.uplink_send");
            let send_us = send.self_per_span(1e3);
            let n = NET_REPLAY_BLOCKS as u64;
            m.set("net.packetize.busy_us_per_block", packetize, "us", n);
            m.set("net.fec_encode.busy_us_per_block", fec_encode, "us", n);
            m.set("net.channel.busy_us_per_block", channel, "us", n);
            m.set("net.reassemble.busy_us_per_block", reassemble, "us", n);
            let recover = tr.busy("net.fec_recover");
            m.set(
                "net.fec_recover.busy_us_per_recovered",
                recover.self_per_span(1e3),
                "us",
                recover.count,
            );
            let quantum_secs = saturate_config(params.seed).feedback_quantum_secs;
            let quanta = (blocks * SATURATE_BLOCK_GAP_SECS / quantum_secs).max(1.0);
            m.set(
                "net.feedback.busy_us_per_quantum",
                feedback * blocks / quanta,
                "us",
                quanta as u64,
            );
            m.set(
                "net.uplink_send.busy_us_per_block",
                send_us,
                "us",
                send.count,
            );
            m.set(
                "net.unattributed_us_per_block",
                send_us - packetize - fec_encode - channel - reassemble - feedback,
                "us",
                send.count,
            );
            m.set("net.packets_per_block", packets as f64 / blocks, "count", n);
            m.set(
                "net.wire_overhead_share",
                1.0 - payload_bytes as f64 / wire as f64,
                "share",
                n,
            );
            let sent_blocks = counts.blocks_sent.max(1) as f64;
            let sent_packets = counts.packets_sent.max(1) as f64;
            m.set(
                "net.recovered_share",
                counts.blocks_recovered as f64 / sent_blocks,
                "share",
                counts.blocks_sent,
            );
            m.set(
                "net.lost_share",
                counts.blocks_lost as f64 / sent_blocks,
                "share",
                counts.blocks_sent,
            );
            m.set(
                "net.congestion_drop_share",
                counts.packets_congestion_dropped as f64 / sent_packets,
                "share",
                counts.packets_sent,
            );
            m.set(
                "net.ecn_mark_share",
                r.ecn_marked as f64 / sent_packets,
                "share",
                counts.packets_sent,
            );
            m.set(
                "net.mean_wan_factor",
                factor,
                "ratio",
                counts.feedback_quanta,
            );
            m.set(
                "net.cloud_latency_p99_us",
                percentile(&r.cloud_us, 99.0),
                "us",
                r.cloud_us.len() as u64,
            );
            m.set(
                "trace.overhead_share",
                1.0 - (r.sat.blocks as f64 / r.sat.wall_s) / r.untraced_bps,
                "share",
                r.sat.blocks,
            );
            m.zero_unset(); // the saturate-phase fleet identity: no fleet there
            metrics = m;
        }
    }

    Outcome {
        workload: NAME,
        attempted,
        failed,
        problems,
        metrics,
        tracer,
    }
}
