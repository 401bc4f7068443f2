//! # sieve-simnet — the shard queue and virtual time
//!
//! Two substrates the runtime is built on:
//!
//! * [`shard`] — the multi-stream mailbox: bounded per-lane queues with
//!   non-blocking shed, weighted round-robin draining, work stealing and
//!   runtime lane join/leave (the scheduler substrate of `sieve-fleet`);
//! * [`time`] — [`SimTime`], the virtual clock `sieve-net`'s channel,
//!   uplink and feedback run on, so no simulated path reads the wall clock.
//!
//! Nothing here executes frames: live runs go through `sieve-fleet`, whose
//! scheduler is built on [`shard`].

pub mod shard;
pub mod time;

pub use shard::{GuardedPop, PushOutcome, ShardQueue, Steal, MAX_LANE_WEIGHT};
pub use time::SimTime;
