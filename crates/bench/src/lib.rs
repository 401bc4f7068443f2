//! # sieve-bench — the experiment harness
//!
//! Three binaries, built on the shared [`harness`] module:
//!
//! | binary | reproduces |
//! |---|---|
//! | `paper_bench` | the paper's evaluation (Section V) in one run — Table I–III, Fig 3–5 and the ablations — tracked in `BENCH_paper.json` |
//! | `codec_bench` | beyond the paper: raw codec speed — the SIMD kernel tier vs the scalar tier, tracked in `BENCH_codec.json` |
//! | `fig4_fleet` | beyond the paper: the fleet's kept frames over a bandwidth-capped lossy WAN — FEC × feedback A/B over a loss sweep, tracked in `BENCH_wan.json` |
//!
//! Run any of them with `cargo run --release -p sieve-bench --bin <name>`.
//! Pass `--scale small` or `--scale full` (default `tiny`) for longer,
//! higher-resolution runs.
//!
//! The three committed artifacts (`BENCH_paper.json`, `BENCH_codec.json`,
//! `BENCH_wan.json`) and the `stats.json` series `fleet_top` exports share
//! one shape checker, [`schema`].
//!
//! [`calibrate`] times every per-operation cost the Fig 4/5 simulator
//! replays, and every `codec_bench` row. The NN enters the evaluation only
//! through its per-frame cost: a private module, `nn_probe`, holds the small
//! reference CNN whose forward pass [`harness::build_workload`] times for
//! `costs.nn_inference`.

pub mod calibrate;
pub mod codec_artifact;
pub mod harness;
mod nn_probe;
pub mod paper_artifact;
pub mod report;
pub mod schema;
pub mod stats_artifact;
pub mod wan_artifact;

use sieve_datasets::DatasetScale;

/// Parses the common `--scale tiny|small|full` CLI argument (default
/// `tiny`); a missing or unknown value exits with status 2, naming the
/// accepted ones.
pub fn scale_from_args() -> DatasetScale {
    parse_scale(std::env::args()).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2)
    })
}

fn parse_scale(mut args: impl Iterator<Item = String>) -> Result<DatasetScale, String> {
    if !args.any(|a| a == "--scale") {
        return Ok(DatasetScale::Tiny);
    }
    match args.next().as_deref() {
        Some("tiny") => Ok(DatasetScale::Tiny),
        Some("small") => Ok(DatasetScale::Small),
        Some("full") => Ok(DatasetScale::Full),
        other => Err(format!("--scale takes tiny, small or full, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_the_three_names_and_rejects_the_rest() {
        let parse = |args: &str| parse_scale(args.split_whitespace().map(String::from));
        assert_eq!(parse("bin"), Ok(DatasetScale::Tiny));
        assert_eq!(parse("bin --quick --scale small"), Ok(DatasetScale::Small));
        assert_eq!(parse("bin --scale full"), Ok(DatasetScale::Full));
        for bad in ["bin --scale smal", "bin --scale"] {
            assert!(
                parse(bad).is_err_and(|e| e.contains("tiny, small or full")),
                "{bad}"
            );
        }
    }
}
