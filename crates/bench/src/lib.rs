//! # sieve-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Section V), all
//! built on the shared [`harness`] module:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — the dataset registry |
//! | `fig3` | Fig 3 — accuracy vs % sampled frames (SiEVE / SIFT / MSE) |
//! | `table2` | Table II — semantic vs default encoder parameters |
//! | `table3` | Table III — event-detection speed (fps) |
//! | `fig4` | Fig 4 — end-to-end throughput of five baselines |
//! | `fig5` | Fig 5 — camera→edge and edge→cloud data transfer |
//! | `ablations` | scenecut/GOP sweeps, object-size↔scenecut, NN split |
//! | `codec_bench` | beyond the paper: raw codec speed — SIMD kernel tier and GOP-parallel encode vs the scalar tier, tracked in `BENCH_codec.json` |
//! | `fig4_fleet` | beyond the paper: the fleet's kept frames over a bandwidth-capped lossy WAN — FEC × feedback A/B over a loss sweep, tracked in `BENCH_wan.json` |
//!
//! Run any of them with `cargo run --release -p sieve-bench --bin <name>`.
//! Pass `--scale small` (default `tiny`) for longer, higher-resolution runs.
//!
//! The three committed artifacts (`BENCH_codec.json`, `BENCH_wan.json`,
//! `stats.json`) share one shape checker, [`schema`].

pub mod codec_artifact;
pub mod harness;
pub mod report;
pub mod schema;
pub mod stats_artifact;
pub mod wan_artifact;

use sieve_datasets::DatasetScale;

/// Parses the common `--scale tiny|small|full` CLI argument.
pub fn scale_from_args() -> DatasetScale {
    let args: Vec<String> = std::env::args().collect();
    match args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
    {
        Some("small") => DatasetScale::Small,
        Some("full") => DatasetScale::Full,
        _ => DatasetScale::Tiny,
    }
}
