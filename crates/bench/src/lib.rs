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

use std::path::{Path, PathBuf};

use sieve_datasets::DatasetScale;

/// The first of `start` and its ancestors whose `Cargo.toml` has a
/// `[workspace]` table, or `None` if none has. The bench binaries write
/// their `BENCH_*.json` there, found from the directory they run in, so a
/// copy of the repository writes its own artifacts.
fn workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// Where a bench binary writes the artifact `name`: the workspace root
/// above the current directory. Exits with status 2 when there is none.
pub fn artifact_path(name: &str) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    let Some(root) = workspace_root(&cwd) else {
        eprintln!("{name}: no Cargo.toml with a [workspace] table at or above {cwd:?}");
        std::process::exit(2)
    };
    root.join(name)
}

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
    fn workspace_root_is_the_nearest_workspace_ancestor() {
        let tmp = std::env::temp_dir().join(format!("sieve-bench-root-{}", std::process::id()));
        let nested = tmp.join("member/src/deep");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(
            tmp.join("Cargo.toml"),
            "[workspace]\nmembers = [\"member\"]\n",
        )
        .unwrap();
        std::fs::write(
            tmp.join("member/Cargo.toml"),
            "[package]\nname = \"member\"\n",
        )
        .unwrap();
        let found = workspace_root(&nested);
        let outside = workspace_root(Path::new("/"));
        std::fs::remove_dir_all(&tmp).unwrap();
        assert_eq!(found, Some(tmp));
        assert_eq!(outside, None);
    }

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
