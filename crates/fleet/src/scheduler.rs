//! The sharded scheduler: a work-stealing worker pool driving one
//! [`EdgeSession`] per stream over bounded per-stream queues.
//!
//! Streams are hashed to shards at admission; each shard is one OS thread
//! plus one [`ShardQueue`] whose lanes are that shard's streams. Ingest
//! ([`Fleet::push`]) never blocks: a frame that finds its lane full or the
//! global frame budget exhausted is **shed** — counted, visible in the
//! metrics, and never seen by the selection policy (distinct from a policy
//! *drop*). Memory is bounded by construction: at most
//! `global_frame_budget` frame *handles* are queued fleet-wide — a queued
//! or stolen [`FramePacket`] holds a reference to its payload, not a copy;
//! the bytes stay owned by whoever produced the [`EncodedFrame`] and are
//! freed when the last holder lets go — and per-stream decode state is one
//! pooled decoder (acquired on a stream's first frame, recycled into the
//! shared slab pool at finish) plus at most one previous frame, never a
//! whole-stream buffer.
//!
//! # Work stealing
//!
//! A shard that finds its own queue empty does not sleep immediately: it
//! sweeps its neighbours' queues with [`ShardQueue::try_steal`] —
//! owner-preferred (`try_lock`; contention means the owner is active, the
//! thief moves on and counts a `steal_fail`), steal-half batching, and the
//! lane-busy claim that makes theft invisible to correctness: a claimed
//! lane is skipped by its owner and its end-of-stream flush is deferred,
//! so no frame is lost, none is double-drained, and per-lane FIFO order is
//! preserved (the stolen batch is strictly older than anything the owner
//! can still pop). Stolen frames are processed with the victim stream's
//! own state and counters; only the CPU moves. Every queued frame carries
//! a handle to its stream's slot (`StreamSlot`), and the lane's busy mark
//! is what makes the holder of a popped or stolen frame the only thread
//! that can touch that slot's worker state — no shared map is consulted
//! per frame.
//!
//! # Priority
//!
//! With [`FleetConfig::priority_lanes`] on, every keep/drop decision
//! updates the stream's keep-rate EWMA and re-derives its lane weight
//! ([`crate::priority`]) in the same [`ShardQueue::complete`] call that
//! releases the lane — recently-keeping cameras outrank idle ones, and the
//! queue's aging term bounds any lane's wait regardless of weights.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sieve_core::{EdgeOutcome, EdgeSession, FrameSelector, SelectorSession};
use sieve_simnet::{GuardedPop, PushOutcome, ShardQueue, Steal};
use sieve_stats::sync::atomic::{AtomicUsize, Ordering};
use sieve_stats::sync::thread::{self, JoinHandle};
use sieve_stats::sync::{Mutex, MutexGuard, RwLock};
use sieve_video::{EncodedFrame, Frame, FrameType, Resolution};

use sieve_stats::Registry as StatsRegistry;

use crate::metrics::{FleetInstruments, FleetReport, FleetSnapshot, StreamCell};
use crate::pool::DecoderPool;
use crate::priority::{initial_ewma, update_ewma, weight_of};
use crate::registry::{FleetError, StreamConfig, StreamId};

/// One encoded frame in flight: what a camera pushes into the fleet.
#[derive(Debug, Clone)]
pub struct FramePacket {
    /// Ascending per-stream frame index.
    pub index: usize,
    /// Frame type from the container metadata.
    pub frame_type: FrameType,
    /// Encoded payload, shared with the frame it was packed from.
    pub payload: Arc<[u8]>,
}

impl FramePacket {
    /// Packs frame `index` of an in-memory encoded stream: a reference to
    /// the frame's payload, not a copy of it.
    pub fn of(index: usize, frame: &EncodedFrame) -> Self {
        Self {
            index,
            frame_type: frame.frame_type,
            payload: Arc::clone(&frame.data),
        }
    }
}

/// A queued frame, the stream it belongs to, and its admission timestamp
/// (the start of the decision-latency clock). Model-check builds carry no
/// timestamp: wall time is nondeterministic and must not influence
/// explored schedules.
struct QueuedFrame {
    packet: FramePacket,
    slot: Arc<StreamSlot>,
    #[cfg(not(feature = "model-check"))]
    enqueued: Instant,
}

/// Why a frame was shed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The stream's own bounded queue is full (slow consumer).
    QueueFull,
    /// The fleet-wide frame budget is exhausted (global overload).
    GlobalBudget,
}

/// Outcome of one non-blocking [`Fleet::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// The frame was queued for its stream's shard.
    Queued,
    /// The frame was refused under load and will never be processed; the
    /// stream's `shed` counter was incremented.
    Shed(ShedCause),
}

/// Sizing of the fleet runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker threads; streams are hashed across them.
    pub shards: usize,
    /// Per-stream bounded queue depth (frames).
    pub queue_capacity: usize,
    /// Max encoded frames queued fleet-wide; pushes beyond it shed.
    pub global_frame_budget: usize,
    /// Admission cap on concurrently *live* streams (left streams free
    /// their slot immediately).
    pub max_streams: usize,
    /// Idle shards drain hot neighbours' lanes (see the module docs).
    /// Off, each shard only ever touches its own queue — the thread-per-
    /// shard baseline the benchmarks compare against.
    pub work_stealing: bool,
    /// Lane weights follow per-stream keep rates ([`crate::priority`]).
    /// Off, all lanes stay at weight 1: plain round-robin.
    pub priority_lanes: bool,
    /// Mirror fleet-wide totals into the stats registry on every decision
    /// (the `"fleet"` stage a [`sieve_stats::Collector`] samples). Off,
    /// only the per-stream cells, steal counters and the decision-latency
    /// histogram are maintained — the uninstrumented baseline the overhead
    /// benchmark compares against.
    pub stats: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 16,
            global_frame_budget: 256,
            max_streams: 64,
            work_stealing: true,
            priority_lanes: true,
            stats: true,
        }
    }
}

/// Most frames one steal takes; `try_steal` additionally never takes more
/// than half the victim lane's queue.
const STEAL_BATCH_MAX: usize = 8;

/// A stream's edge machinery, materialised lazily: registered-but-idle
/// streams hold only their (small) policy session; the decoder — the
/// dominant allocation — is acquired from the shared pool on the first
/// frame and recycled at finish.
enum EdgeState {
    /// No frame seen yet; no decoder held.
    Idle {
        session: Box<dyn SelectorSession>,
        full_decode: bool,
        resolution: Resolution,
        quality: u8,
    },
    /// Frames flowing; a pooled decoder is in use. Boxed: the session
    /// (decoder + selector) dwarfs the other variants.
    Active(Box<EdgeSession>),
    /// Placeholder while ownership moves between the variants.
    Retired,
}

/// The per-stream worker-side state, touched by exactly one shard at a
/// time (its home, or for the duration of a stolen batch the claiming
/// thief).
struct StreamWorker {
    state: EdgeState,
    on_keep: Option<KeepSink>,
    /// EWMA of keep decisions, driving the lane weight.
    keep_ewma: f64,
}

impl StreamWorker {
    /// The live edge session, activating it (pool decoder acquisition) on
    /// the stream's first frame.
    fn session(&mut self, pool: &DecoderPool) -> &mut EdgeSession {
        if matches!(self.state, EdgeState::Idle { .. }) {
            let EdgeState::Idle {
                session,
                full_decode,
                resolution,
                quality,
            } = std::mem::replace(&mut self.state, EdgeState::Retired)
            else {
                unreachable!("just matched Idle");
            };
            let decoder = pool.acquire(resolution, quality);
            self.state = EdgeState::Active(Box::new(EdgeSession::from_parts(
                session,
                full_decode,
                decoder,
                resolution,
                quality,
            )));
        }
        match &mut self.state {
            EdgeState::Active(edge) => edge,
            // A stream is retired by its `LaneFinished`, after which its
            // lane is gone and no frame can be queued for it.
            EdgeState::Idle { .. } | EdgeState::Retired => {
                unreachable!("frame delivered to a retired stream")
            }
        }
    }
}

/// Callback invoked on the shard thread for every kept frame: the frame
/// index, the decoded pixels, and the encoded payload that produced them —
/// the bytes an uplink ships. The payload is lent, never copied: the slice
/// is the very allocation the pushed [`FramePacket`] referenced.
pub type KeepSink = Box<dyn FnMut(usize, &Frame, &[u8]) + Send>;

/// Everything the fleet holds for one stream, allocated once at join. The
/// registry keeps one handle and every queued frame carries another, so a
/// worker reaches the stream's state from the item it popped.
struct StreamSlot {
    /// Counters the ingest path, the workers and snapshots share lock-free.
    cell: StreamCell,
    /// Worker-side state. The mutex is never contended: a lane's busy mark
    /// admits one worker to the stream at a time, and `LaneFinished` is
    /// delivered only for a lane nobody holds.
    worker: Mutex<StreamWorker>,
}

impl StreamSlot {
    /// The stream's worker state, for the thread the lane protocol has
    /// made its only holder.
    fn claimed(&self) -> MutexGuard<'_, StreamWorker> {
        let guard = self.worker.try_lock();
        // lint:allow(no-unwrap): a second holder is a broken lane protocol, which the model-check suite explores for
        guard.expect("the lane's busy mark admits one worker per stream")
    }
}

/// The registry's view of one stream.
struct StreamEntry {
    shard: usize,
    slot: Arc<StreamSlot>,
    label: String,
    selector: &'static str,
    target_rate: Option<f64>,
    closed: bool,
}

/// Every stream ever admitted (left streams stay resolvable for metrics)
/// plus the count of those still live, which is what admission caps.
#[derive(Default)]
struct StreamTable {
    entries: BTreeMap<u64, StreamEntry>,
    live: usize,
}

/// A multi-stream edge runtime: stream admission, sharded scheduling with
/// bounded queues, work stealing, keep-rate-derived lane priorities and
/// explicit load shedding. See the crate docs for the full model.
pub struct Fleet {
    config: FleetConfig,
    queues: Vec<Arc<ShardQueue<QueuedFrame>>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<RwLock<StreamTable>>,
    inflight: Arc<AtomicUsize>,
    instruments: Arc<FleetInstruments>,
    pool: Arc<DecoderPool>,
    started: Instant,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("config", &self.config)
            .field("streams", &self.registry.read().entries.len())
            .finish()
    }
}

/// SplitMix64 finalizer (the same mixer `sieve_datasets::stream_seed`
/// uses for content seeds): spreads sequential stream ids across shards.
/// Public so load generators can *construct* skew — ids are assigned
/// sequentially from 0 in join order, so a bench can predict each future
/// stream's home shard and aim a hot workload at one of them.
pub fn shard_of(id: u64, shards: usize) -> usize {
    let mut z = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

impl Fleet {
    /// Starts the worker pool (idle until streams join) over a private
    /// stats registry — see [`Fleet::with_registry`] to share one.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards`, `queue_capacity`, `global_frame_budget`
    /// or `max_streams` is zero.
    pub fn new(config: FleetConfig) -> Self {
        Self::with_registry(config, Arc::new(StatsRegistry::new()))
    }

    /// [`Fleet::new`], emitting into `registry` (under the `"fleet"`
    /// stage) instead of a private one — the constructor a dashboard or
    /// collector uses to sample the fleet alongside other subsystems.
    ///
    /// # Panics
    ///
    /// Same sizing panics as [`Fleet::new`], plus the registry panics if a
    /// `fleet.*` instrument name is already registered as a different
    /// kind.
    pub fn with_registry(config: FleetConfig, stats_registry: Arc<StatsRegistry>) -> Self {
        assert!(config.shards > 0, "fleet needs at least one shard");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(
            config.global_frame_budget > 0,
            "frame budget must be positive"
        );
        assert!(config.max_streams > 0, "stream cap must be positive");
        let inflight = Arc::new(AtomicUsize::new(0));
        let instruments = Arc::new(FleetInstruments::in_registry(stats_registry, config.stats));
        let pool = Arc::new(DecoderPool::default());
        let queues: Vec<_> = (0..config.shards)
            .map(|_| Arc::new(ShardQueue::<QueuedFrame>::new(config.queue_capacity)))
            .collect();
        let registry = Arc::new(RwLock::new(StreamTable::default()));
        let workers = (0..config.shards)
            .map(|me| {
                let ctx = ShardCtx {
                    me,
                    queues: queues.clone(),
                    registry: registry.clone(),
                    inflight: inflight.clone(),
                    instruments: instruments.clone(),
                    pool: pool.clone(),
                    config,
                };
                thread::spawn(move || shard_loop(&ctx))
            })
            .collect();
        Self {
            config,
            queues,
            workers,
            registry,
            inflight,
            instruments,
            pool,
            started: Instant::now(),
        }
    }

    /// The runtime's sizing.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The stats registry this fleet emits into (`"fleet"` stage) — hand
    /// it to a [`sieve_stats::Collector`] for time series, or register
    /// further stages beside the fleet's.
    pub fn stats_registry(&self) -> &Arc<StatsRegistry> {
        &self.instruments.registry
    }

    /// Admits a stream driven by `selector`'s streaming session. The
    /// selector is consulted on the caller's thread (session factory +
    /// metadata); only the session moves to the owning shard. On-line
    /// policies need no `prepare`, which is the point: the fleet never
    /// sees a whole video. No decoder is allocated until the stream's
    /// first frame arrives.
    ///
    /// # Errors
    ///
    /// [`FleetError::FleetFull`] once `max_streams` streams are *live*
    /// (joined and not yet left). Left streams stop counting toward the
    /// cap immediately, so a fleet can churn streams indefinitely; their
    /// registry entries stay resolvable for metrics until shutdown.
    pub fn join<S: FrameSelector + ?Sized>(
        &self,
        selector: &S,
        config: StreamConfig,
    ) -> Result<StreamId, FleetError> {
        self.admit(selector, config, None)
    }

    /// [`Fleet::join`], plus a sink invoked on the shard thread for every
    /// kept frame `(index, pixels)` — the hook a cloud uplink or detector
    /// attaches to.
    ///
    /// # Errors
    ///
    /// Same admission failures as [`Fleet::join`].
    pub fn join_with_sink<S: FrameSelector + ?Sized>(
        &self,
        selector: &S,
        config: StreamConfig,
        on_keep: KeepSink,
    ) -> Result<StreamId, FleetError> {
        self.admit(selector, config, Some(on_keep))
    }

    fn admit<S: FrameSelector + ?Sized>(
        &self,
        selector: &S,
        config: StreamConfig,
        on_keep: Option<KeepSink>,
    ) -> Result<StreamId, FleetError> {
        let mut registry = self.registry.write();
        // The cap applies to *live* streams: entries of left streams stay
        // in the registry for metrics but free their admission slot.
        if registry.live >= self.config.max_streams {
            return Err(FleetError::FleetFull {
                max_streams: self.config.max_streams,
            });
        }
        // Entries are never removed, so their count is the next fresh id.
        let id = registry.entries.len() as u64;
        let shard = shard_of(id, self.config.shards);
        let target_rate = config.target_rate.or_else(|| selector.target_rate());
        let ewma = initial_ewma(config.priority_hint.or(target_rate));
        let worker = StreamWorker {
            state: EdgeState::Idle {
                session: selector.session(),
                full_decode: selector.requires_full_decode(),
                resolution: config.resolution,
                quality: config.quality,
            },
            on_keep,
            keep_ewma: ewma,
        };
        let slot = Arc::new(StreamSlot {
            cell: StreamCell::default(),
            worker: Mutex::new(worker),
        });
        assert!(self.queues[shard].open_lane(id), "fresh ids are unique");
        if self.config.priority_lanes {
            self.queues[shard].set_lane_weight(id, weight_of(ewma));
        }
        registry.live += 1;
        registry.entries.insert(
            id,
            StreamEntry {
                shard,
                slot,
                label: config.label,
                selector: selector.name(),
                // Prefer the caller's explicit target; fall back to the
                // policy's own on-line target so the metrics cannot
                // silently disagree with the deployed budget.
                target_rate,
                closed: false,
            },
        );
        Ok(StreamId(id))
    }

    /// Offers one frame, never blocking. Under load the frame is shed —
    /// see [`Ingest::Shed`] — and the stream's policy never observes it.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] / [`FleetError::StreamClosed`] for
    /// control-plane misuse; shedding is *not* an error.
    pub fn push(&self, id: StreamId, packet: FramePacket) -> Result<Ingest, FleetError> {
        // Held across the push: the entry lends its slot, so the frame's
        // handle is the only refcount the ingest path touches. Workers take
        // this lock at a stream's finish only, never while holding a queue.
        let registry = self.registry.read();
        let entry = registry
            .entries
            .get(&id.0)
            .ok_or(FleetError::UnknownStream(id))?;
        if entry.closed {
            return Err(FleetError::StreamClosed(id));
        }
        let (shard, cell) = (entry.shard, &entry.slot.cell);
        let emit = self.instruments.emit.as_ref();
        let shed = |cause| {
            cell.counters.shed.inc();
            if let Some(emit) = emit {
                emit.shed.inc();
            }
            Ok(Ingest::Shed(cause))
        };
        // Global budget first: one reservation per queued frame, released
        // by the worker after processing.
        let budget = self.config.global_frame_budget;
        let reserve = |n| (n < budget).then_some(n + 1);
        let reserved = self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, reserve);
        if reserved.is_err() {
            return shed(ShedCause::GlobalBudget);
        }
        // Count the frame as queued *before* publishing it: once try_push
        // succeeds the shard worker may pop (and decrement) immediately,
        // and a decrement racing ahead of the increment would wrap the
        // depth counter.
        cell.counters.queue_depth.inc();
        if let Some(emit) = emit {
            emit.queue_depth.inc();
        }
        let queued = QueuedFrame {
            packet,
            slot: entry.slot.clone(),
            #[cfg(not(feature = "model-check"))]
            enqueued: Instant::now(),
        };
        let pushed = self.queues[shard].try_push(id.0, queued);
        if pushed == PushOutcome::Queued {
            // A backlogged home shard means idle neighbours should come
            // stealing; the nudge is a hint (notify without state), so it
            // is level-triggered off every push while backlog lasts.
            // Model-check builds skip it to keep schedules small; the
            // checker's own steal models drive thieves explicitly.
            #[cfg(not(feature = "model-check"))]
            if self.config.work_stealing && self.queues[shard].backlogged() {
                for (i, queue) in self.queues.iter().enumerate() {
                    if i != shard {
                        queue.nudge();
                    }
                }
            }
            return Ok(Ingest::Queued);
        }
        // Refused: give back the depth count and the budget reservation.
        cell.counters.queue_depth.dec();
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        if let Some(emit) = emit {
            emit.queue_depth.dec();
        }
        match pushed {
            PushOutcome::Shed => shed(ShedCause::QueueFull),
            _ => Err(FleetError::StreamClosed(id)),
        }
    }

    /// Ends a stream: no further frames are accepted; queued frames still
    /// process, then the session is flushed on its shard and the stream
    /// reports [`StreamSnapshot::done`](crate::StreamSnapshot::done).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownStream`] / [`FleetError::StreamClosed`].
    pub fn leave(&self, id: StreamId) -> Result<(), FleetError> {
        let mut registry = self.registry.write();
        let entry = registry
            .entries
            .get_mut(&id.0)
            .ok_or(FleetError::UnknownStream(id))?;
        if entry.closed {
            return Err(FleetError::StreamClosed(id));
        }
        entry.closed = true;
        self.queues[entry.shard].close_lane(id.0);
        registry.live -= 1;
        Ok(())
    }

    /// A live, lock-light view of every stream and the fleet aggregate.
    pub fn snapshot(&self) -> FleetSnapshot {
        let registry = self.registry.read();
        let view = |(&id, e): (&u64, &StreamEntry)| {
            let cell = &e.slot.cell;
            cell.snapshot(StreamId(id), &e.label, e.selector, e.target_rate)
        };
        let streams = registry.entries.iter().map(view).collect();
        FleetSnapshot::of(streams, &self.instruments)
    }

    /// Frames currently queued fleet-wide (bounded by
    /// [`FleetConfig::global_frame_budget`]).
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Decoders currently parked in the shared slab pool — live decoders
    /// track *actively decoding* streams, not registered ones.
    pub fn pooled_decoders(&self) -> usize {
        self.pool.parked()
    }

    /// Decoder acquisitions served by recycling a parked decoder instead
    /// of constructing a fresh one (stream churn stops allocating).
    pub fn decoder_reuses(&self) -> u64 {
        self.pool.reuses()
    }

    /// Closes every stream, drains every queue, joins the workers and
    /// returns the final report.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked.
    pub fn shutdown(mut self) -> FleetReport {
        {
            let mut registry = self.registry.write();
            for (id, entry) in &mut registry.entries {
                if !entry.closed {
                    entry.closed = true;
                    self.queues[entry.shard].close_lane(*id);
                }
            }
            registry.live = 0;
        }
        for queue in &self.queues {
            queue.shutdown();
        }
        for worker in std::mem::take(&mut self.workers) {
            // lint:allow(no-unwrap): re-raising a shard worker panic is the documented contract of shutdown()
            worker.join().expect("shard worker panicked");
        }
        let snapshot = self.snapshot();
        FleetReport {
            snapshot,
            wall: self.started.elapsed(),
        }
    }
}

impl Drop for Fleet {
    /// A fleet dropped without [`Fleet::shutdown`] (early return, panic
    /// unwind) still stops and joins its workers instead of leaking
    /// threads blocked on empty shard queues. After an explicit
    /// `shutdown()` this is a no-op (queues already down, workers taken).
    fn drop(&mut self) {
        for queue in &self.queues {
            queue.shutdown();
        }
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
    }
}

/// Everything one shard worker needs: its own index plus shared handles to
/// *every* queue (victims included) and the stream registry.
struct ShardCtx {
    me: usize,
    queues: Vec<Arc<ShardQueue<QueuedFrame>>>,
    registry: Arc<RwLock<StreamTable>>,
    inflight: Arc<AtomicUsize>,
    instruments: Arc<FleetInstruments>,
    pool: Arc<DecoderPool>,
    config: FleetConfig,
}

/// Decides one frame with its stream's own session and counters — every
/// outcome is accounted in the stream's cell — and returns the weight to
/// install when releasing the lane (`None` leaves it alone, and keeps
/// round-robin exact when priority lanes are off).
fn process_frame(ctx: &ShardCtx, qf: QueuedFrame) -> Option<u32> {
    let counters = &qf.slot.cell.counters;
    counters.queue_depth.dec();
    let emit = ctx.instruments.emit.as_ref();
    if let Some(emit) = emit {
        emit.queue_depth.dec();
    }
    let packet = &qf.packet;
    let payload_len = packet.payload.len() as u64;
    let mut worker = qf.slot.claimed();
    let outcome =
        worker
            .session(&ctx.pool)
            .observe_bytes(packet.index, packet.frame_type, &packet.payload);
    let kept = matches!(outcome, EdgeOutcome::Kept(_));
    match outcome {
        EdgeOutcome::Kept(frame) => {
            counters.kept.inc();
            counters.kept_payload_bytes.add(payload_len);
            if let Some(emit) = emit {
                emit.kept.inc();
                emit.kept_payload_bytes.add(payload_len);
            }
            if let Some(sink) = &mut worker.on_keep {
                sink(packet.index, &frame, &packet.payload);
            }
        }
        EdgeOutcome::Dropped => {
            counters.dropped.inc();
            if let Some(emit) = emit {
                emit.dropped.inc();
            }
        }
        EdgeOutcome::Failed => {
            counters.failed.inc();
            if let Some(emit) = emit {
                emit.failed.inc();
            }
        }
    }
    counters.processed.inc();
    if let Some(emit) = emit {
        emit.processed.inc();
    }
    worker.keep_ewma = update_ewma(worker.keep_ewma, kept);
    ctx.inflight.fetch_sub(1, Ordering::AcqRel);
    #[cfg(not(feature = "model-check"))]
    ctx.instruments
        .latency
        .record(qf.enqueued.elapsed().as_micros() as u64);
    ctx.config
        .priority_lanes
        .then(|| weight_of(worker.keep_ewma))
}

/// Flushes a finished stream on whatever thread delivered its
/// `LaneFinished`, recycling its decoder into the pool. This is the one
/// place a worker consults the registry: a finished lane has no item to
/// carry the slot.
fn finish_stream(ctx: &ShardCtx, key: u64) {
    let registry = ctx.registry.read();
    let slot = registry.entries.get(&key).map(|e| e.slot.clone());
    drop(registry);
    // lint:allow(no-unwrap): only admit opens lanes, and it inserts the entry under the same write lock
    let slot = slot.expect("a finished lane belongs to an admitted stream");
    let mut worker = slot.claimed();
    let result = match std::mem::replace(&mut worker.state, EdgeState::Retired) {
        EdgeState::Active(mut edge) => {
            let r = edge.finish();
            ctx.pool.release(edge.into_decoder());
            r
        }
        // Never saw a frame: no decoder to recycle, still flush the
        // policy session (deferred policy failures surface here).
        EdgeState::Idle { mut session, .. } => session.finish(),
        EdgeState::Retired => Ok(()),
    };
    // The stream is over; release whatever its sink captured.
    worker.on_keep = None;
    *slot.cell.finish_error.lock() = result.err().map(|e| e.to_string());
    slot.cell.done.store(true, Ordering::Release);
}

/// One guarded-pop service of this worker's home queue.
fn serve_own(ctx: &ShardCtx) -> GuardedPop<()> {
    let queue = &ctx.queues[ctx.me];
    match queue.try_pop_guarded() {
        GuardedPop::Item(key, qf) => {
            let weight = process_frame(ctx, qf);
            queue.complete(key, weight);
            GuardedPop::Item(key, ())
        }
        GuardedPop::LaneFinished(key) => {
            finish_stream(ctx, key);
            GuardedPop::LaneFinished(key)
        }
        GuardedPop::Empty => GuardedPop::Empty,
        GuardedPop::Shutdown => GuardedPop::Shutdown,
    }
}

/// Sweeps every other shard once, stealing at most one batch. Returns
/// `true` if any work was transferred (caller should re-check its own
/// queue before sweeping again).
fn steal_round(ctx: &ShardCtx) -> bool {
    let n = ctx.queues.len();
    for step in 1..n {
        let victim = (ctx.me + step) % n;
        match ctx.queues[victim].try_steal(STEAL_BATCH_MAX) {
            Steal::Batch { key, items } => {
                let taken = items.len() as u64;
                let mut weight = None;
                for qf in items {
                    qf.slot.cell.counters.stolen.inc();
                    weight = process_frame(ctx, qf);
                    // Home arrivals are fresh; the stolen batch is the
                    // victim's old backlog. Serving the home queue dry
                    // between stolen frames keeps this shard's own decision
                    // latency flat however expensive the stolen work is.
                    while matches!(
                        serve_own(ctx),
                        GuardedPop::Item(..) | GuardedPop::LaneFinished(_)
                    ) {}
                }
                ctx.queues[victim].complete(key, weight);
                ctx.instruments.stolen.add(taken);
                return true;
            }
            Steal::Contended => {
                ctx.instruments.steal_fail.inc();
            }
            Steal::Empty => {}
        }
    }
    false
}

/// One shard's worker loop: drain the home queue by weighted priority;
/// when it runs dry, sweep the neighbours for a stolen batch; only then
/// sleep. Exits when the home queue reports shutdown-and-drained.
fn shard_loop(ctx: &ShardCtx) {
    loop {
        match serve_own(ctx) {
            GuardedPop::Item(..) | GuardedPop::LaneFinished(_) => {}
            GuardedPop::Shutdown => return,
            GuardedPop::Empty => {
                if ctx.config.work_stealing && steal_round(ctx) {
                    continue;
                }
                ctx.queues[ctx.me].wait_for_work();
            }
        }
    }
}
