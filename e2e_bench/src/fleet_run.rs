//! Driving a live [`Fleet`] from one feeder thread: the pre-roll, the
//! closed-loop *saturate* phase and the open-loop *paced* phase.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sieve_core::IFrameSelector;
use sieve_filters::{Budget, MseSelector};
use sieve_fleet::{
    Fleet, FleetConfig, FleetReport, FramePacket, Ingest, KeepSink, StreamConfig, StreamId,
};
use sieve_stats::Registry;

use crate::schedule::Schedule;
use crate::tapes::{cursor_of, frame_of, Cursor, Tape};
use crate::trace::Tracer;

/// Worker shards of every fleet the benchmark builds (the reference host
/// has two cores).
pub const SHARDS: usize = 2;
/// Feeder tick of the paced phase. A sleep this short wakes ~100 µs later
/// on Linux, which keeps the median lateness under a quarter of the
/// median keep latency on every workload (250 µs did not).
pub const TICK: Duration = Duration::from_micros(50);
/// Period of the traced run's `snapshot()` sampling (queue depth).
const SNAPSHOT_PERIOD: Duration = Duration::from_millis(100);

/// A stream's selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// `IFrameSelector`: decide from metadata, decode I-frames only.
    Seek,
    /// `MseSelector::mse(Budget::TargetRate(r))`: decode everything.
    Mse(f64),
}

/// One joined stream of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPlan {
    pub policy: Policy,
    pub priority_hint: Option<f64>,
}

/// The streams a workload joins (in id order) and how many of the first
/// ever receive frames; the rest are registered-but-idle lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    pub joined: Vec<StreamPlan>,
    pub active: usize,
}

/// What a keep sink saw for one stream.
#[derive(Debug, Default)]
pub struct SinkLog {
    /// `(frame index, nanoseconds since the run's epoch)` per kept frame,
    /// in invocation order.
    pub kept: Vec<(u32, u64)>,
    pub payload_bytes: u64,
    /// Nanoseconds spent inside the sink (traced runs only).
    pub sink_ns: u64,
}

impl SinkLog {
    /// Logs frame `index`, kept at `at`, with its encoded `payload`.
    pub fn note(&mut self, index: usize, at: Instant, epoch: Instant, payload: &[u8]) {
        self.kept
            .push((index as u32, at.duration_since(epoch).as_nanos() as u64));
        self.payload_bytes += payload.len() as u64;
    }
}

pub type SharedLog = Arc<Mutex<SinkLog>>;

/// The plain sink: logs the kept frame and when it surfaced.
pub fn logging_sink(log: SharedLog, epoch: Instant, timed: bool) -> KeepSink {
    Box::new(move |index, _frame, payload| {
        let at = Instant::now();
        let mut log = log.lock().expect("sink log lock");
        log.note(index, at, epoch, payload);
        if timed {
            log.sink_ns += at.elapsed().as_nanos() as u64;
        }
    })
}

/// A built fleet with its streams joined.
pub struct Rig {
    pub fleet: Fleet,
    pub ids: Vec<StreamId>,
    pub cursors: Vec<Cursor>,
}

/// Builds the workload's fleet and joins its streams. Active streams join
/// with the sink `sink_for(s)` returns (a deployed edge always has an
/// uplink, and the sink is the benchmark's only per-frame completion
/// signal); idle lanes join bare.
pub fn build_rig(
    tapes: &[Tape],
    plan: &FleetPlan,
    mut sink_for: impl FnMut(usize) -> KeepSink,
) -> Rig {
    // Queues deep enough that a 250 ms stall of the (shared, noisy) host
    // backs frames up instead of shedding them at every paced rate: a shed
    // frame is a failed operation, and the workloads are chosen to have
    // none.
    let fleet = Fleet::new(FleetConfig {
        shards: SHARDS,
        queue_capacity: 128,
        global_frame_budget: 8192,
        max_streams: plan.joined.len(),
        work_stealing: true,
        priority_lanes: true,
        stats: true,
    });
    let mut ids = Vec::with_capacity(plan.joined.len());
    let mut cursors = Vec::with_capacity(plan.joined.len());
    for (s, stream) in plan.joined.iter().enumerate() {
        let cursor = cursor_of(tapes, s);
        let tape = &tapes[cursor.tape];
        let mut cfg = StreamConfig::new(format!("cam-{s}"), tape.resolution(), tape.quality());
        if let Some(hint) = stream.priority_hint {
            cfg = cfg.with_priority_hint(hint);
        }
        let id = match (stream.policy, s < plan.active) {
            (Policy::Seek, true) => fleet.join_with_sink(&IFrameSelector::new(), cfg, sink_for(s)),
            (Policy::Seek, false) => fleet.join(&IFrameSelector::new(), cfg),
            (Policy::Mse(rate), active) => {
                let selector = MseSelector::mse(Budget::TargetRate(rate));
                let cfg = cfg.with_target_rate(rate);
                if active {
                    fleet.join_with_sink(&selector, cfg, sink_for(s))
                } else {
                    fleet.join(&selector, cfg)
                }
            }
        }
        .expect("admission: max_streams equals the plan size");
        // Workloads aim policies at shards through `shard_of(id)`, which
        // relies on a fresh fleet numbering streams from 0 in join order.
        assert_eq!(id.raw(), s as u64, "stream ids follow join order");
        ids.push(id);
        cursors.push(cursor);
    }
    Rig {
        fleet,
        ids,
        cursors,
    }
}

/// The feeder's account of one phase.
#[derive(Debug, Default)]
pub struct FeedLedger {
    /// Distinct frames offered per active stream (pre-roll included).
    pub offered: Vec<u64>,
    /// `Fleet::push` calls per active stream (re-offers included).
    pub attempts: Vec<u64>,
    /// Pushes refused and re-offered (back-pressure), pre-roll included.
    pub refusals: u64,
    /// The part of `refusals` that happened during the pre-roll.
    pub pre_roll_refusals: u64,
    /// Paced: frames shed (offered once, refused, gone).
    pub shed: u64,
    /// Saturate: frames processed inside the timed window. Paced: frames
    /// offered on the schedule.
    pub timed_frames: u64,
    /// Largest fleet-wide queue depth a 10 Hz `snapshot()` saw (traced).
    pub queue_depth_max: u64,
}

/// What one phase produced.
pub struct PhaseOut {
    pub ledger: FeedLedger,
    /// Length of the timed part.
    pub wall_s: f64,
    pub report: FleetReport,
    /// The fleet's stats registry (outlives the fleet).
    pub registry: Arc<Registry>,
    /// Paced: how late each frame was pushed after its due time, µs.
    pub lates_us: Vec<f64>,
    /// Paced: the schedule's start, nanoseconds since the run's epoch.
    pub t0_ns: u64,
}

/// Everything a phase needs to find a stream's next frame.
pub struct Feed<'a> {
    pub tapes: &'a [Tape],
    pub rig: Rig,
    pub active: usize,
    /// Pre-roll length per active stream.
    pub leads: &'a [usize],
}

impl Feed<'_> {
    /// Offers stream `s`'s frame `index` once.
    fn push(&self, s: usize, index: usize, tracer: &mut Option<&mut Tracer>) -> Ingest {
        let ef = frame_of(self.tapes, self.rig.cursors[s], index);
        let id = self.rig.ids[s];
        let outcome = match tracer.as_deref_mut() {
            None => self.rig.fleet.push(id, FramePacket::of(index, ef)),
            Some(tr) => {
                // `gen.offer`'s self time is the feeder's own loop cost.
                let offer = tr.begin("gen.offer", index as u64);
                let packet = tr.time("fleet.packet_copy", index as u64, || {
                    FramePacket::of(index, ef)
                });
                let outcome = tr.time("fleet.push", index as u64, || {
                    self.rig.fleet.push(id, packet)
                });
                tr.end(offer);
                outcome
            }
        };
        outcome.expect("push to a joined, open stream")
    }

    /// Offers the frame until the fleet takes it, yielding on refusal: a
    /// refusal here is back-pressure, not a failure.
    fn push_until_queued(
        &self,
        s: usize,
        index: usize,
        ledger: &mut FeedLedger,
        tracer: &mut Option<&mut Tracer>,
    ) {
        loop {
            ledger.attempts[s] += 1;
            match self.push(s, index, tracer) {
                Ingest::Queued => break,
                Ingest::Shed(_) => {
                    ledger.refusals += 1;
                    std::thread::yield_now();
                }
            }
        }
        ledger.offered[s] += 1;
    }

    /// Pre-rolls every stream by its lead and waits for the fleet to
    /// drain, so the timed part starts from idle with cameras de-phased.
    /// Returns the ledger the phase continues.
    pub fn pre_roll(&self) -> FeedLedger {
        let mut ledger = FeedLedger {
            offered: vec![0; self.active],
            attempts: vec![0; self.active],
            ..FeedLedger::default()
        };
        let longest = self.leads.iter().copied().max().unwrap_or(0);
        for r in 0..longest {
            for s in 0..self.active {
                if r < self.leads[s] {
                    self.push_until_queued(s, r, &mut ledger, &mut None);
                }
            }
        }
        let pushed: u64 = ledger.offered.iter().sum();
        while self.rig.fleet.snapshot().aggregate.processed < pushed {
            std::thread::sleep(Duration::from_micros(200));
        }
        ledger.pre_roll_refusals = ledger.refusals;
        ledger
    }

    fn sample_depth(&self, ledger: &mut FeedLedger) {
        let depth = self.rig.fleet.snapshot().aggregate.queue_depth;
        ledger.queue_depth_max = ledger.queue_depth_max.max(depth);
    }

    fn finish(self, ledger: FeedLedger, wall_s: f64, lates_us: Vec<f64>, t0_ns: u64) -> PhaseOut {
        for &id in &self.rig.ids[..self.active] {
            self.rig.fleet.leave(id).expect("leave an open stream");
        }
        let registry = self.rig.fleet.stats_registry().clone();
        let report = self.rig.fleet.shutdown();
        PhaseOut {
            ledger,
            registry,
            wall_s,
            report,
            lates_us,
            t0_ns,
        }
    }

    /// Closed loop: offers frames round-robin over the active streams,
    /// re-offering refused frames, for whole rounds until `seconds` have
    /// passed. The timed part counts the frames the fleet *processed* in
    /// that window — its queues are full at both ends of it — and the
    /// backlog left at the end (up to a second of work on the slow
    /// workloads) drains untimed.
    pub fn saturate(
        self,
        mut ledger: FeedLedger,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> PhaseOut {
        let pre_rolled = ledger.offered.iter().sum::<u64>();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut next_sample = started + SNAPSHOT_PERIOD;
        let mut round = 0usize;
        loop {
            for s in 0..self.active {
                self.push_until_queued(s, self.leads[s] + round, &mut ledger, &mut tracer);
            }
            round += 1;
            let now = Instant::now();
            if tracer.is_some() && now >= next_sample {
                self.sample_depth(&mut ledger);
                next_sample = now + SNAPSHOT_PERIOD;
            }
            if now >= deadline {
                break;
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        ledger.timed_frames = self.rig.fleet.snapshot().aggregate.processed - pre_rolled;
        self.finish(ledger, wall_s, Vec::new(), 0)
    }

    /// Open loop: every frame is pushed once, at or after its due time on
    /// `schedule` (counted from `started`); shed means shed.
    pub fn paced(
        self,
        mut ledger: FeedLedger,
        schedule: Schedule,
        started: Instant,
        epoch: Instant,
        mut tracer: Option<&mut Tracer>,
    ) -> PhaseOut {
        assert_eq!(schedule.streams, self.active);
        let mut lates_us = Vec::with_capacity(schedule.total as usize);
        let mut next_sample = started + SNAPSHOT_PERIOD;
        let mut next = 0u64;
        while next < schedule.total {
            let elapsed = started.elapsed().as_nanos() as u64;
            let due = schedule.due_count(elapsed);
            while next < due {
                let (s, r) = schedule.slot(next);
                ledger.attempts[s] += 1;
                ledger.offered[s] += 1;
                let pushed_at = started.elapsed().as_nanos() as u64;
                if let Ingest::Shed(_) = self.push(s, self.leads[s] + r, &mut tracer) {
                    ledger.shed += 1;
                }
                lates_us.push(pushed_at.saturating_sub(schedule.due_ns(next)) as f64 / 1e3);
                next += 1;
            }
            if tracer.is_some() && Instant::now() >= next_sample {
                self.sample_depth(&mut ledger);
                next_sample = Instant::now() + SNAPSHOT_PERIOD;
            }
            if next < schedule.total {
                std::thread::sleep(TICK);
            }
        }
        ledger.timed_frames = schedule.total;
        let t0_ns = started.duration_since(epoch).as_nanos() as u64;
        let wall_s = started.elapsed().as_secs_f64();
        self.finish(ledger, wall_s, lates_us, t0_ns)
    }
}
