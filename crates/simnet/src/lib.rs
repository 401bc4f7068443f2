//! # sieve-simnet — edge/cloud dataflow and network simulation
//!
//! The deployment substrate of the SiEVE reproduction, standing in for the
//! paper's Apache NiFi instances, Echo orchestration, and traffic-shaped
//! 30 Mbps WAN:
//!
//! * [`topology`] — nodes (camera/edge/cloud) and links with bandwidth and
//!   latency, including the paper's testbed shape;
//! * [`pipeline`] — an exact tandem-queue simulator for linear dataflows,
//!   cheap enough to replay millions of frames with calibrated costs;
//! * [`shard`] — the multi-stream mailbox: bounded per-lane queues with
//!   non-blocking shed, round-robin draining, runtime lane join/leave
//!   (the scheduler substrate of `sieve-fleet`);
//! * [`calibrate`] — measuring real per-operation costs to feed the
//!   simulators.
//!
//! Nothing here executes frames: live runs go through `sieve-fleet`, whose
//! scheduler is built on [`shard`].

pub mod calibrate;
pub mod pipeline;
pub mod shard;
pub mod time;
pub mod topology;

pub use calibrate::{measure, measure_secs, Estimate};
pub use pipeline::{ItemResult, Pipeline, PipelineReport, StageSpec, StepWork};
pub use shard::{GuardedPop, PushOutcome, ShardQueue, Steal, MAX_LANE_WEIGHT};
pub use time::SimTime;
pub use topology::{Link, Node, ThreeTier, WAN_STAGE};
