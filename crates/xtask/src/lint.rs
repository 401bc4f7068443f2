//! The lint rules and the workspace driver.
//!
//! Five token-level rules, each scoped to the paths where its invariant is
//! load-bearing (scopes are listed in the rule table below and in the
//! README). Test code (`tests/` directories and `#[cfg(test)]` items) and
//! `shims/` are exempt everywhere; individual sites are waived with
//! `// lint:allow(rule): reason` and whole files with
//! `// lint:allow-file(rule): reason` — a missing reason is itself a lint
//! error.
//!
//! One manifest rule, `unused-dep`: every `[dependencies]` /
//! `[dev-dependencies]` key of the root package and of each `crates/*`
//! package must be named as an identifier somewhere under that package's
//! `src tests benches examples` (test code included — dev-dependencies
//! live there). It has no waiver: an unnamed dependency is deleted.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Scanned};

/// One rule violation (or malformed marker) at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule name (or `lint-marker` for malformed markers).
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// How a rule recognises a violation in cleaned source text.
enum Matcher {
    /// `.name(` — a method call on some receiver (whitespace-tolerant).
    MethodCall(&'static [&'static str]),
    /// A literal path/identifier substring with identifier boundaries.
    Tokens(&'static [&'static str]),
}

struct Rule {
    name: &'static str,
    message: &'static str,
    matcher: Matcher,
    in_scope: fn(&str) -> bool,
}

/// The runtime crates whose synchronization must go through the facade,
/// `sieve_stats::sync`. The facade's std backend file is waived with
/// `lint:allow-file`.
fn runtime_crate(path: &str) -> bool {
    path.starts_with("crates/simnet/src/")
        || path.starts_with("crates/fleet/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/stats/src/")
        || path.starts_with("crates/net/src/")
}

const RULES: &[Rule] = &[
    Rule {
        // Hot paths of the concurrent runtime: the shard queue, the fleet
        // scheduler, and the two files of sieve-core they drive per frame —
        // plus the codec's bitstream parser, which reads hostile bytes and
        // must answer every one of them with a typed error.
        name: "no-unwrap",
        message: "panic in a runtime hot path — return a typed error \
                  (SieveError/FleetError) or justify with lint:allow",
        matcher: Matcher::MethodCall(&["unwrap", "expect"]),
        in_scope: |p| {
            p.starts_with("crates/simnet/src/")
                || p.starts_with("crates/fleet/src/")
                || p.starts_with("crates/stats/src/")
                || p.starts_with("crates/net/src/")
                || p == "crates/core/src/adapt.rs"
                || p == "crates/core/src/edge.rs"
                || p == "crates/video/src/bitio.rs"
                || p == "crates/video/src/entropy.rs"
        },
    },
    Rule {
        name: "no-std-sync",
        message: "raw std synchronization bypasses the sieve_stats::sync \
                  facade (and the model checker with it)",
        matcher: Matcher::Tokens(&[
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
            "std::sync::atomic",
        ]),
        in_scope: runtime_crate,
    },
    Rule {
        name: "no-wall-clock",
        message: "wall clock in a simulator path — simulations must run on \
                  virtual SimTime to stay deterministic (sieve-stats may \
                  only read time at its cfg-gated collector epoch)",
        matcher: Matcher::Tokens(&["Instant::now", "SystemTime"]),
        in_scope: |p| {
            p.starts_with("crates/simnet/src/")
                || p.starts_with("crates/stats/src/")
                || p.starts_with("crates/net/src/")
        },
    },
    Rule {
        // The codec crate sits below the fleet pool facade, so its one
        // scoped-thread site (GOP-parallel encode) carries a justified
        // allow; anything new must too.
        name: "no-raw-spawn",
        message: "raw thread spawn bypasses the sieve_stats::sync::thread \
                  facade — workers must be schedulable by the model checker",
        matcher: Matcher::Tokens(&["std::thread::spawn", "std::thread::scope"]),
        in_scope: |p| runtime_crate(p) || p.starts_with("crates/video/src/"),
    },
    Rule {
        // SIMD intrinsics are quarantined in the kernels module (which
        // carries a file-wide allow); the rest of the pixel-processing
        // crates — and the transport, whose FEC calls into that module —
        // stay safe Rust.
        name: "no-unsafe",
        message: "unsafe outside sieve_video::kernels — keep intrinsics \
                  behind the dispatcher and everything else in safe Rust",
        matcher: Matcher::Tokens(&["unsafe"]),
        in_scope: |p| {
            p.starts_with("crates/video/src/")
                || p.starts_with("crates/filters/src/")
                || p.starts_with("crates/net/src/")
        },
    },
];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of whole-token occurrences of `needle` in `text`.
fn token_occurrences(text: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = text[from..].find(needle) {
        let at = from + p;
        let before_ok = !text[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !text[at + needle.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// Occurrences of `.name(` method calls (whitespace-tolerant around the
/// dot and the open paren).
fn method_call_occurrences(text: &str, name: &str) -> Vec<usize> {
    token_occurrences(text, name)
        .into_iter()
        .filter(|&at| {
            let before = text[..at].trim_end();
            let after = text[at + name.len()..].trim_start();
            before.ends_with('.') && after.starts_with('(')
        })
        .collect()
}

/// Runs every in-scope rule over one scanned file.
fn check_file(path: &str, scanned: &Scanned) -> Vec<Finding> {
    let mut findings: Vec<Finding> = scanned
        .marker_errors
        .iter()
        .map(|(line, msg)| Finding {
            path: path.to_string(),
            line: *line,
            rule: "lint-marker",
            message: msg.clone(),
        })
        .collect();
    for rule in RULES {
        if !(rule.in_scope)(path) {
            continue;
        }
        let offsets: Vec<usize> = match &rule.matcher {
            Matcher::MethodCall(names) => names
                .iter()
                .flat_map(|n| method_call_occurrences(&scanned.cleaned, n))
                .collect(),
            Matcher::Tokens(tokens) => tokens
                .iter()
                .flat_map(|t| token_occurrences(&scanned.cleaned, t))
                .collect(),
        };
        for off in offsets {
            let line = lexer::line_of(&scanned.cleaned, off);
            if scanned.in_test_code(line) || scanned.is_allowed(rule.name, line) {
                continue;
            }
            findings.push(Finding {
                path: path.to_string(),
                line,
                rule: rule.name,
                message: rule.message.to_string(),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// What the token rules never descend into: build output, the shims and
/// integration-test `tests/` directories.
const SKIP_DIRS: &[&str] = &["target", "shims", "tests", ".git"];

/// Recursively collects `.rs` files under `dir`, skipping directories
/// named in `skip`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>, skip: &[&str]) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if skip.contains(&name) {
                continue;
            }
            collect_rs(&path, out, skip);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The `unused-dep` rule over one manifest: a finding for every
/// `[dependencies]` / `[dev-dependencies]` key that no file of `sources`
/// (the package's cleaned `.rs` text) names as an identifier.
fn unused_deps(manifest_path: &str, manifest: &str, sources: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_deps = false;
    for (i, line) in manifest.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = matches!(line, "[dependencies]" | "[dev-dependencies]");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line.split(['.', '=', ' ']).next().unwrap_or(line);
        let ident = key.replace('-', "_");
        if !sources
            .iter()
            .any(|s| !token_occurrences(s, &ident).is_empty())
        {
            findings.push(Finding {
                path: manifest_path.to_string(),
                line: i + 1,
                rule: "unused-dep",
                message: format!(
                    "dependency `{key}` is never named under this package's \
                     src/tests/benches/examples — delete the manifest entry"
                ),
            });
        }
    }
    findings
}

/// Runs `unused-dep` over the root package and every `crates/*` package.
fn check_manifests(root: &Path) -> Vec<Finding> {
    let mut packages = vec![root.to_path_buf()];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        packages.extend(entries.flatten().map(|e| e.path()));
    }
    packages.sort();
    let mut findings = Vec::new();
    for package in packages {
        let manifest_path = package.join("Cargo.toml");
        let Ok(manifest) = fs::read_to_string(&manifest_path) else {
            continue;
        };
        let mut files = Vec::new();
        for dir in ["src", "tests", "benches", "examples"] {
            collect_rs(&package.join(dir), &mut files, &[]);
        }
        let sources: Vec<String> = files
            .iter()
            .filter_map(|f| fs::read_to_string(f).ok())
            .map(|source| lexer::scan(&source).cleaned)
            .collect();
        findings.extend(unused_deps(
            &rel_path(root, &manifest_path),
            &manifest,
            &sources,
        ));
    }
    findings
}

/// `path` relative to `root`, with `/` separators.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints the whole workspace rooted at `root`; returns every finding.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for top in ["crates", "src", "examples"] {
        collect_rs(&root.join(top), &mut files, SKIP_DIRS);
    }
    let mut findings = check_manifests(root);
    for file in files {
        let Ok(source) = fs::read_to_string(&file) else {
            continue;
        };
        let scanned = lexer::scan(&source);
        findings.extend(check_file(&rel_path(root, &file), &scanned));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, &lexer::scan(src))
    }

    #[test]
    fn flags_unwrap_in_runtime_path() {
        let f = check(
            "crates/fleet/src/scheduler.rs",
            "fn f() { q.pop().unwrap(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unwrap");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn expect_flagged_whitespace_tolerant() {
        let f = check(
            "crates/simnet/src/shard.rs",
            "fn f() { q.pop()\n    .expect (\"boom\"); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let f = check(
            "crates/fleet/src/scheduler.rs",
            "fn f() { q.pop().unwrap_or(0); x.unwrap_or_else(|| 1); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_scope_paths_are_ignored() {
        let f = check("crates/video/src/lib.rs", "fn f() { x.unwrap(); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
";
        let f = check("crates/fleet/src/scheduler.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_marker_waives_next_line_only() {
        let src = "\
fn f() {
    // lint:allow(no-unwrap): join propagates a worker panic by contract
    h.join().expect(\"worker\");
    g.join().expect(\"worker\");
}
";
        let f = check("crates/fleet/src/scheduler.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "// lint:allow(no-unwrap)\nfn f() {}\n";
        let f = check("crates/fleet/src/scheduler.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lint-marker");
    }

    #[test]
    fn std_sync_flagged_outside_facade() {
        let src = "use std::sync::Mutex;\nuse std::sync::atomic::AtomicU64;\n";
        let f = check("crates/core/src/edge.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "no-std-sync"));
    }

    #[test]
    fn unused_dep_flags_keys_no_source_names() {
        let manifest = "\
[package]
name = \"demo\"

[dependencies]
sieve-video.workspace = true
serde = { path = \"../serde\" }
# a comment is not a key
rand.workspace = true

[dev-dependencies]
serde_json.workspace = true
proptest.workspace = true

[features]
unused = []
";
        let sources = [
            "use sieve_video::Frame;\nuse serde::Serialize;\n".to_string(),
            "fn t() { proptest::run(); my_rand(); }\n".to_string(),
        ];
        let f = unused_deps("crates/demo/Cargo.toml", manifest, &sources);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "unused-dep"));
        assert!(f[0].message.contains("`rand`") && f[0].line == 8, "{f:?}");
        assert!(
            f[1].message.contains("`serde_json`") && f[1].line == 11,
            "{f:?}"
        );
    }

    #[test]
    fn arc_is_not_std_sync_violation() {
        let f = check("crates/core/src/edge.rs", "use std::sync::Arc;\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn new_scheduler_files_are_in_no_std_sync_scope() {
        // The work-stealing scheduler's satellite modules must stay on
        // the sieve_stats::sync facade, or the model checker silently
        // loses sight of their locks.
        for path in [
            "crates/fleet/src/scheduler.rs",
            "crates/fleet/src/priority.rs",
            "crates/fleet/src/pool.rs",
            "crates/fleet/src/metrics.rs",
        ] {
            let f = check(path, "use std::sync::Mutex;\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-std-sync", "{path}");
        }
    }

    #[test]
    fn stats_plane_files_are_in_every_runtime_scope() {
        // The observability plane is wired into per-frame hot paths: its
        // sources must stay on the sync facade, panic-free, and (the
        // collector epoch aside) wall-clock-free, or instrumented code
        // silently drops out of the model checker and the sim guarantees.
        for path in [
            "crates/stats/src/counter.rs",
            "crates/stats/src/histogram.rs",
            "crates/stats/src/registry.rs",
            "crates/stats/src/collector.rs",
        ] {
            let f = check(path, "use std::sync::Mutex;\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-std-sync", "{path}");
            let f = check(path, "fn f() { x.unwrap(); }\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-unwrap", "{path}");
            let f = check(path, "fn f() { Instant::now(); }\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-wall-clock", "{path}");
            let f = check(path, "fn f() { std::thread::spawn(|| {}); }\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-raw-spawn", "{path}");
        }
    }

    #[test]
    fn net_transport_files_are_in_every_runtime_scope() {
        // The WAN transport runs inside the fleet's keep path and marches
        // on virtual SimTime: its sources must stay panic-free, on the
        // sync facade, and off the wall clock, or the channel model stops
        // being deterministic and the model checker loses its locks.
        for path in [
            "crates/net/src/fec.rs",
            "crates/net/src/packet.rs",
            "crates/net/src/channel.rs",
            "crates/net/src/feedback.rs",
            "crates/net/src/uplink.rs",
        ] {
            let f = check(path, "use std::sync::Mutex;\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-std-sync", "{path}");
            let f = check(path, "fn f() { x.unwrap(); }\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-unwrap", "{path}");
            let f = check(path, "fn f() { Instant::now(); }\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-wall-clock", "{path}");
            let f = check(path, "fn f() { std::thread::spawn(|| {}); }\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-raw-spawn", "{path}");
            // The FEC's vector loop lives behind sieve_video::kernels; the
            // transport itself never reaches for intrinsics.
            let f = check(
                path,
                "fn f() { unsafe { core::arch::x86_64::_mm_pause() } }\n",
            );
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-unsafe", "{path}");
        }
    }

    #[test]
    fn bitstream_parser_files_are_safe_and_panic_free() {
        // The bit reader and the entropy decoder walk attacker-controlled
        // bytes on every decoded frame. Their speed comes from one checked
        // 8-byte load, not from unchecked indexing: they must stay safe
        // Rust (only kernels.rs carries the no-unsafe allow) and must
        // report bad input as ReadBitsError, never by panicking.
        for path in ["crates/video/src/bitio.rs", "crates/video/src/entropy.rs"] {
            let f = check(
                path,
                "fn f(d: &[u8]) -> u8 { unsafe { *d.get_unchecked(0) } }\n",
            );
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-unsafe", "{path}");
            let f = check(path, "fn f(d: &[u8]) { d.get(0..8).unwrap(); }\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-unwrap", "{path}");
            let f = check(path, "fn f(d: &[u8]) { d.first().expect(\"byte\"); }\n");
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-unwrap", "{path}");
        }
        // The rest of the codec crate keeps its documented-invariant
        // `expect`s; only the parser is pinned.
        let f = check(
            "crates/video/src/decode.rs",
            "fn f() { x.expect(\"set\"); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wall_clock_flagged_in_simulator() {
        let f = check(
            "crates/simnet/src/pipeline.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-wall-clock");
    }

    #[test]
    fn allow_file_waives_whole_file() {
        let src = "\
// lint:allow-file(no-wall-clock): calibration measures real time by design
fn a() { Instant::now(); }
fn b() { Instant::now(); }
";
        let f = check("crates/simnet/src/calibrate.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn raw_spawn_flagged() {
        let f = check(
            "crates/fleet/src/scheduler.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-raw-spawn");
    }

    #[test]
    fn scoped_threads_in_codec_crate_need_a_marker() {
        let f = check(
            "crates/video/src/parallel.rs",
            "fn f() { std::thread::scope(|s| {}); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-raw-spawn");
    }

    #[test]
    fn unsafe_flagged_in_pixel_crates_outside_kernels() {
        for path in ["crates/video/src/motion.rs", "crates/filters/src/mse.rs"] {
            let f = check(
                path,
                "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
            );
            assert_eq!(f.len(), 1, "{path}: {f:?}");
            assert_eq!(f[0].rule, "no-unsafe", "{path}");
        }
    }

    #[test]
    fn kernels_allow_file_waives_no_unsafe() {
        let src = "\
// lint:allow-file(no-unsafe): intrinsics are confined to this module
fn f() { unsafe { core::arch::x86_64::_mm_pause() } }
";
        let f = check("crates/video/src/kernels.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn strings_and_comments_never_flag() {
        let src = "\
// Instant::now() is banned here; x.unwrap() too.
fn f() { let s = \"Instant::now() .unwrap()\"; }
";
        let f = check("crates/simnet/src/pipeline.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }
}
