//! Fleet observability: per-stream counters and aggregate snapshots, built
//! on the shared `sieve-stats` instruments.
//!
//! Per-stream counters are single-shard [`sieve_stats::Counter`]s (one
//! relaxed atomic — a stream is only ever touched by one shard worker at a
//! time), shared between the ingest path, the shard workers and snapshot
//! readers, so [`crate::Fleet::snapshot`] never stalls a decode. The four
//! terminal outcomes are accounted separately — in particular
//! [`StreamSnapshot::shed`] (admission refused a frame under load) is
//! *not* [`StreamSnapshot::dropped`] (the policy filtered a frame it saw):
//! conflating them would make an overloaded edge look like a
//! well-filtering one.
//!
//! Fleet-wide telemetry (steal traffic, the decision-latency histogram,
//! and — when [`crate::FleetConfig::stats`] is on — stage-level totals for
//! the time-series collector) lives in the fleet's
//! [`sieve_stats::Registry`] under the `"fleet"` stage, where a
//! [`sieve_stats::Collector`] or the `fleet_top` dashboard can sample it.

use std::sync::Arc;

use sieve_stats::sync::atomic::{AtomicBool, Ordering};
use sieve_stats::sync::Mutex;
use sieve_stats::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Stage};

use crate::registry::StreamId;

/// Shared per-stream counters (internal; read through [`StreamSnapshot`]).
#[derive(Debug, Default)]
pub(crate) struct StreamCounters {
    /// Frames the session decided on: kept + dropped + failed.
    pub processed: Counter,
    /// Frames the policy kept.
    pub kept: Counter,
    /// Frames the policy dropped (filtering).
    pub dropped: Counter,
    /// Frames the edge failed to process (decode errors).
    pub failed: Counter,
    /// Frames refused at admission (queue full or global budget exhausted).
    pub shed: Counter,
    /// Frames of this stream processed out of stolen batches (on a shard
    /// other than the stream's home).
    pub stolen: Counter,
    /// Encoded payload bytes of kept frames (transfer proxy).
    pub kept_payload_bytes: Counter,
    /// Frames currently queued for this stream.
    pub queue_depth: Gauge,
}

/// One stream's lock-free half: what the ingest path, whichever worker holds
/// the stream, and snapshot readers all touch without taking its state.
#[derive(Debug, Default)]
pub(crate) struct StreamCell {
    pub counters: StreamCounters,
    /// Set once the stream's session has been flushed.
    pub done: AtomicBool,
    /// The session's end-of-stream error, if it reported one.
    pub finish_error: Mutex<Option<String>>,
}

/// Stage-level totals mirrored into the stats registry on every decision,
/// present only when [`crate::FleetConfig::stats`] is on — the knob the
/// overhead benchmark flips to compare instrumented against
/// uninstrumented runs.
#[derive(Debug)]
pub(crate) struct StageEmit {
    pub processed: Arc<Counter>,
    pub kept: Arc<Counter>,
    pub dropped: Arc<Counter>,
    pub failed: Arc<Counter>,
    pub shed: Arc<Counter>,
    pub kept_payload_bytes: Arc<Counter>,
    pub queue_depth: Arc<Gauge>,
}

impl StageEmit {
    fn in_stage(stage: &Stage) -> Self {
        Self {
            processed: stage.contended_counter("processed"),
            kept: stage.contended_counter("kept"),
            dropped: stage.contended_counter("dropped"),
            failed: stage.contended_counter("failed"),
            shed: stage.contended_counter("shed"),
            kept_payload_bytes: stage.contended_counter("kept_payload_bytes"),
            queue_depth: stage.gauge("queue_depth"),
        }
    }
}

/// Fleet-wide scheduler telemetry: pre-resolved handles into the fleet's
/// stats registry (`"fleet"` stage). Steal traffic and the
/// decision-latency histogram are always live — [`FleetSnapshot`] is built
/// from them; the broader stage totals are optional (see [`StageEmit`]).
#[derive(Debug)]
pub(crate) struct FleetInstruments {
    /// The registry every handle below resolves into.
    pub registry: Arc<Registry>,
    /// Frames processed out of *stolen* batches (work that moved shards).
    pub stolen: Arc<Counter>,
    /// Steal attempts abandoned because the victim's queue lock was
    /// contended (the owner always wins; the thief moves on).
    pub steal_fail: Arc<Counter>,
    /// Push→decision latency across all streams, microseconds.
    pub latency: Arc<Histogram>,
    /// Stage-level totals, when [`crate::FleetConfig::stats`] is on.
    pub emit: Option<StageEmit>,
}

impl FleetInstruments {
    /// Resolves the fleet's instruments in `registry` under the `"fleet"`
    /// stage.
    pub(crate) fn in_registry(registry: Arc<Registry>, stats: bool) -> Self {
        let stage = registry.stage("fleet");
        Self {
            stolen: stage.contended_counter("stolen"),
            steal_fail: stage.contended_counter("steal_fail"),
            latency: stage.histogram("decision_latency_us"),
            emit: stats.then(|| StageEmit::in_stage(&stage)),
            registry,
        }
    }
}

/// Decision-latency quantiles over every processed frame: the time from
/// [`crate::Fleet::push`] accepting a frame to its keep/drop decision
/// completing on a shard. Values are bucket upper bounds (≤ 2× coarse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Decisions sampled.
    pub count: u64,
    /// Median decision latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile decision latency, microseconds.
    pub p99_us: u64,
}

impl LatencySnapshot {
    /// `None` until at least one sample was recorded — and always `None`
    /// in model-check builds, which forbid wall time.
    pub(crate) fn of(histogram: &HistogramSnapshot) -> Option<Self> {
        if histogram.is_empty() {
            return None;
        }
        Some(Self {
            count: histogram.count(),
            p50_us: histogram.p50(),
            p99_us: histogram.p99(),
        })
    }
}

/// Point-in-time view of one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// The stream's fleet-assigned id.
    pub id: StreamId,
    /// The caller's label (camera name, dataset, ...).
    pub label: String,
    /// The selection policy's [`sieve_core::FrameSelector::name`].
    pub selector: &'static str,
    /// The requested sampling rate, for policies that have one.
    pub target_rate: Option<f64>,
    /// Frames the session decided on (kept + dropped + failed).
    pub processed: u64,
    /// Frames kept by policy.
    pub kept: u64,
    /// Frames dropped by policy (filtering).
    pub dropped: u64,
    /// Frames that failed to process (decode errors).
    pub failed: u64,
    /// Frames shed at admission — never seen by the policy.
    pub shed: u64,
    /// Frames processed away from the stream's home shard (stolen work).
    pub stolen: u64,
    /// Encoded payload bytes of kept frames.
    pub kept_payload_bytes: u64,
    /// Frames currently queued.
    pub queue_depth: u64,
    /// Whether the stream has left and its session was flushed.
    pub done: bool,
    /// The end-of-stream error the session reported, if any.
    pub finish_error: Option<String>,
}

impl StreamSnapshot {
    /// Fraction of processed frames the policy kept — the achieved
    /// sampling rate, comparable against [`StreamSnapshot::target_rate`].
    pub fn achieved_rate(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.kept as f64 / self.processed as f64
        }
    }
}

/// Sums over every stream of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetAggregate {
    /// Number of streams (live and finished).
    pub streams: usize,
    /// Total frames decided on.
    pub processed: u64,
    /// Total frames kept.
    pub kept: u64,
    /// Total frames dropped by policy.
    pub dropped: u64,
    /// Total processing failures.
    pub failed: u64,
    /// Total frames shed at admission.
    pub shed: u64,
    /// Total encoded payload bytes of kept frames.
    pub kept_payload_bytes: u64,
    /// Frames currently queued fleet-wide.
    pub queue_depth: u64,
}

/// Point-in-time view of the whole fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// One entry per stream, in join order.
    pub streams: Vec<StreamSnapshot>,
    /// Sums over all streams.
    pub aggregate: FleetAggregate,
    /// Frames processed on a shard other than their home (stolen batches).
    pub stolen: u64,
    /// Steal attempts that lost the victim-lock race and moved on.
    pub steal_fail: u64,
    /// Push→decision latency quantiles; `None` until a frame is decided
    /// (and always `None` in model-check builds, which forbid wall time).
    pub decision_latency: Option<LatencySnapshot>,
}

impl FleetSnapshot {
    pub(crate) fn of(mut streams: Vec<StreamSnapshot>, instruments: &FleetInstruments) -> Self {
        streams.sort_by_key(|s| s.id);
        let mut aggregate = FleetAggregate {
            streams: streams.len(),
            ..FleetAggregate::default()
        };
        for s in &streams {
            aggregate.processed += s.processed;
            aggregate.kept += s.kept;
            aggregate.dropped += s.dropped;
            aggregate.failed += s.failed;
            aggregate.shed += s.shed;
            aggregate.kept_payload_bytes += s.kept_payload_bytes;
            aggregate.queue_depth += s.queue_depth;
        }
        Self {
            streams,
            aggregate,
            stolen: instruments.stolen.get(),
            steal_fail: instruments.steal_fail.get(),
            decision_latency: LatencySnapshot::of(&instruments.latency.snapshot()),
        }
    }
}

/// Final outcome of a fleet run, returned by [`crate::Fleet::shutdown`].
#[derive(Debug)]
pub struct FleetReport {
    /// The final per-stream and aggregate counters (all streams done).
    pub snapshot: FleetSnapshot,
    /// Wall-clock duration from fleet start to full drain.
    pub wall: std::time::Duration,
}

impl StreamCell {
    pub(crate) fn snapshot(
        &self,
        id: StreamId,
        label: &str,
        selector: &'static str,
        target_rate: Option<f64>,
    ) -> StreamSnapshot {
        let c = &self.counters;
        StreamSnapshot {
            id,
            label: label.to_string(),
            selector,
            target_rate,
            processed: c.processed.get(),
            kept: c.kept.get(),
            dropped: c.dropped.get(),
            failed: c.failed.get(),
            shed: c.shed.get(),
            stolen: c.stolen.get(),
            kept_payload_bytes: c.kept_payload_bytes.get(),
            queue_depth: c.queue_depth.get(),
            done: self.done.load(Ordering::Acquire),
            finish_error: self.finish_error.lock().clone(),
        }
    }
}
