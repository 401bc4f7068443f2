//! # sieve-fleet — a multi-stream edge runtime
//!
//! The paper evaluates SiEVE one video at a time; its premise — cheap
//! metadata-driven selection at the edge — pays off when one edge box
//! serves *many* cameras at once. This crate is that serving-shaped
//! runtime:
//!
//! * **Admission** ([`Fleet::join`] / [`Fleet::leave`]) registers streams
//!   at runtime, each with its own selection policy and a label for the
//!   metrics; a `max_streams` cap bounds the control plane.
//! * **Sharded scheduling with work stealing**: a fixed pool of worker
//!   threads (shards); streams are hashed to shards and drained from
//!   bounded per-stream queues ([`sieve_simnet::ShardQueue`]) by weighted
//!   round-robin, where each lane's weight is *derived* from the
//!   stream's on-line keep rate ([`priority`]) and an aging term bounds
//!   starvation. An idle shard steals the front half of a hot
//!   neighbour's deepest lane instead of sleeping (the owner always wins
//!   the lock race; a busy-marked lane preserves per-stream FIFO and
//!   exactly-once processing under theft — see [`scheduler`]). Ingest
//!   never blocks: under load a frame is **shed** — a first-class
//!   [`Ingest::Shed`] outcome counted separately from a policy drop, so an
//!   overloaded edge is distinguishable from a well-filtering one. A
//!   global frame budget bounds fleet-wide queued memory.
//! * **Per-stream streaming selection**: every stream drives a
//!   [`sieve_core::EdgeSession`], so any
//!   [`FrameSelector`](sieve_core::FrameSelector) policy deploys
//!   unchanged (the umbrella crate's single-camera `run_live_analysis` is
//!   a one-stream fleet). Pair it with `sieve_filters::Budget::TargetRate`
//!   and each stream self-tunes its threshold on-line (EWMA + P² streaming
//!   quantile) to hit a requested sampling rate with no offline
//!   calibration pass — fraction budgets on live edges that never see the
//!   whole video.
//! * **Metrics** ([`Fleet::snapshot`] / [`FleetReport`]): per-stream and
//!   aggregate kept / dropped / shed / failed counts, queue depths,
//!   achieved sampling rate vs. target, plus scheduler health — frames
//!   `stolen`, failed steal attempts, and a push→decision latency
//!   histogram ([`LatencySnapshot`]). All of it is built on `sieve-stats`
//!   instruments living in a [`sieve_stats::Registry`] (private by
//!   default; share one via [`Fleet::with_registry`]), so a
//!   [`sieve_stats::Collector`] — or the `fleet_top` terminal dashboard —
//!   can sample the fleet's `"fleet"` stage as a live time series.
//!
//! Memory stays bounded no matter how many frames flow: queued frame
//! *handles* ≤ `global_frame_budget` — [`FramePacket::of`] takes a
//! reference to the producer's payload (`Arc<[u8]>`), so a queued or stolen
//! frame owns no bytes, the worker decodes from and the [`KeepSink`] is lent
//! that same allocation, and it is freed by its last holder — and
//! per-stream decode state is one stateful decoder plus at most one previous
//! frame; no stream ever materialises a full decode buffer. Per-stream state
//! travels with the frame too: each queued item carries a handle to its
//! stream's slot, so a worker consults no shared map per frame.
//!
//! ```
//! use sieve_core::IFrameSelector;
//! use sieve_fleet::{Fleet, FleetConfig, FramePacket, StreamConfig};
//! use sieve_video::{EncodedVideo, EncoderConfig, Frame, Resolution};
//!
//! // Two tiny camera feeds.
//! let res = Resolution::new(32, 32);
//! let video = EncodedVideo::encode(res, 30, EncoderConfig::new(3, 0),
//!                                  (0..9).map(|_| Frame::grey(res)));
//!
//! let fleet = Fleet::new(FleetConfig { shards: 2, ..FleetConfig::default() });
//! let cams: Vec<_> = (0..2)
//!     .map(|i| {
//!         let cfg = StreamConfig::new(format!("cam-{i}"), res, video.quality());
//!         fleet.join(&IFrameSelector::new(), cfg).unwrap()
//!     })
//!     .collect();
//! for (i, ef) in video.frames().iter().enumerate() {
//!     for &cam in &cams {
//!         fleet.push(cam, FramePacket::of(i, ef)).unwrap();
//!     }
//! }
//! let report = fleet.shutdown();
//! assert_eq!(report.snapshot.aggregate.kept, 6); // 3 I-frames × 2 streams
//! assert_eq!(report.snapshot.aggregate.shed, 0);
//! ```

pub mod metrics;
mod pool;
pub mod priority;
pub mod registry;
pub mod scheduler;

pub use metrics::{FleetAggregate, FleetReport, FleetSnapshot, LatencySnapshot, StreamSnapshot};
pub use registry::{FleetError, StreamConfig, StreamId};
pub use scheduler::{shard_of, Fleet, FleetConfig, FramePacket, Ingest, KeepSink, ShedCause};
