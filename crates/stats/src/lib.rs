//! `sieve-stats` — the lock-free observability plane.
//!
//! SiEVE's pipelines (fleet scheduler shards, the WAN uplink, the
//! per-stream adaptive rate controllers) need to answer "what is the fleet
//! doing *right now*" without perturbing the decisions being measured.
//! This crate is that plane, in three layers:
//!
//! 1. **Instruments** — [`Counter`] (sharded relaxed atomics,
//!    aggregate-on-read), [`Gauge`] (levels), and [`Histogram`]
//!    (power-of-two buckets, mergeable [`HistogramSnapshot`]s with
//!    p50/p90/p99/max readout). Hot-path cost is one relaxed atomic op.
//! 2. **Registry** — [`Registry`] maps dotted names to shared instrument
//!    handles; [`Stage`] scopes a subsystem's names under one prefix.
//!    Registration is idempotent, so many emitters share one aggregate.
//! 3. **Collector** — [`Collector`] folds a registry into periodic
//!    [`SeriesPoint`]s (cumulative totals; consumers difference for
//!    rates), stamped by the wall clock ([`Collector::tick`]) or by
//!    explicit [`Collector::tick_at`] for deterministic runs, and exports the
//!    series as the `stats.json` artifact.
//!
//! Under the `model-check` feature every primitive routes through
//! `sieve-check`'s instrumented sync (see [`sync`]) and all wall-clock
//! state — `Collector::tick` — is compiled out, the
//! same gating the fleet applies to decision-latency timing.

pub mod sync;

mod collector;
mod counter;
mod histogram;
mod registry;

pub use collector::{Collector, SeriesExport, SeriesPoint};
pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot, QuantileSummary};
pub use registry::{Registry, RegistrySample, Stage};

use std::sync::Arc;
use std::sync::OnceLock;

/// The process-wide default registry.
///
/// Subsystems that cannot thread a registry handle through their public
/// constructors without breaking API (e.g. `sieve_core`'s
/// `RateController`) emit here; everything else should prefer an explicit
/// [`Registry`] passed in, which keeps tests isolated. The instance is
/// created on first use and lives for the process.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let name = "libtest.global_probe";
        global().counter(name).add(2);
        global().counter(name).inc();
        assert!(global().sample().counters.get(name).copied() >= Some(3));
    }
}
