//! Workspace automation driver (`cargo xtask <command>`).
//!
//! `cargo xtask lint` runs the token-level source lints, the `dead-pub`
//! cross-file rule and the `unused-dep` manifest rule described in
//! [`lint`] and the README's
//! "Correctness tooling" section, printing one
//! `path:line: [rule] message` per finding and exiting non-zero if any
//! survive their `lint:allow` waivers.

use std::path::PathBuf;
use std::process::ExitCode;

mod lexer;
mod lint;

fn workspace_root() -> PathBuf {
    // This crate lives at <root>/crates/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let findings = lint::run(&workspace_root());
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            } else {
                println!("xtask lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: cargo xtask <command>\n\n\
                 commands:\n  \
                 lint    run the workspace source lints (no-unwrap, \
                 no-std-sync, no-wall-clock, no-raw-spawn, no-unsafe, dead-pub, \
                 unused-dep)"
            );
            ExitCode::from(2)
        }
    }
}
