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
//!
//! One cross-file rule, `dead-pub`: a `pub` item (function, method, type,
//! trait, constant or static) of a library crate's `src/` must have a
//! production caller in some other file: another library file's code
//! outside `#[cfg(test)]`, a binary, an example, another file's doc
//! examples (doctests run), or `e2e_bench/src`, the frozen benchmark that
//! calls the library from outside the workspace (its tests included, since
//! they must keep compiling). Files under a `tests/` directory,
//! `#[cfg(test)]` code and uses in the defining file do not count. Nor
//! does a `pub use` re-export of a function, constant or static; a type's
//! re-export does count, because a type reaches callers through signatures
//! without being named. A free function counts as used only where it is
//! called or named as a path: at `::name`, `name(` or `name::<`, or inside
//! a `use` item; a local, a field access `x.name` or a struct-literal key of
//! the same name does not count. A method of an `impl T` block counts only
//! where it is called as a method (`.name(`) or named as the path
//! `T::name`, `A::name` for an alias `type A = T<…>`, or `Self::name` inside
//! an `impl T`: another owner's `Q::name` does not count, and neither does a
//! `use` item, which cannot import a method. Method calls match by name
//! only, so a same-named method elsewhere can still hide a dead one; the
//! rule never flags a live item used in those shapes. Waive a site with
//! `// lint:allow(dead-pub): reason`, naming the integration test that
//! uses the item as an oracle or the ROADMAP item that will give it a
//! caller; a marker on an item the rule would not flag is itself a finding.

use std::collections::HashMap;
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
                || p == "crates/video/src/decode.rs"
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
                || p == "crates/core/src/pipeline.rs"
        },
    },
    Rule {
        // The codec crate sits below the fleet pool facade, so its one
        // scoped-thread site (the pipelined encode in `parallel.rs`) and
        // the spawn in it carry a justified allow; anything new must too.
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

/// Whether `path` is library source whose `pub` items `dead-pub` checks:
/// the umbrella's `src/` and each `crates/*/src/`, minus binaries and the
/// xtask tool itself.
fn defines_library_api(path: &str) -> bool {
    let lib_src = path.starts_with("src/")
        || path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
    lib_src && !path.starts_with("crates/xtask/") && !path.contains("/bin/")
}

/// The identifiers that directly follow `text`'s leading whitespace,
/// separated by whitespace only (`const fn name`, `static mut NAME`).
fn leading_idents(text: &str) -> Vec<&str> {
    let mut words = Vec::new();
    let mut rest = text.trim_start();
    while rest.starts_with(is_ident) {
        let end = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
        words.push(&rest[..end]);
        rest = rest[end..].trim_start();
    }
    words
}

/// The `pub` items `cleaned` defines, as `(offset, keyword, name)`, the
/// keyword being `fn`, `struct`, `enum`, `trait`, `type`, `static`, `union`
/// or `const`. Restricted visibility (`pub(crate)`), modules, re-exports
/// and fields are not items here.
fn pub_items(cleaned: &str) -> Vec<(usize, &str, &str)> {
    const KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "static", "union"];
    const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];
    let mut items = Vec::new();
    for at in token_occurrences(cleaned, "pub") {
        let words = leading_idents(&cleaned[at + 3..]);
        let item = match words.iter().position(|w| KEYWORDS.contains(w)) {
            Some(k) if words[..k].iter().all(|w| QUALIFIERS.contains(w)) => words[k + 1..]
                .iter()
                .find(|&&w| w != "mut")
                .map(|&name| (words[k], name)),
            None if words.first() == Some(&"const") => words.get(1).map(|&name| ("const", name)),
            _ => None,
        };
        if let Some((keyword, name)) = item.filter(|&(_, n)| n != "_") {
            items.push((at, keyword, name));
        }
    }
    items
}

/// The byte ranges of `cleaned`'s `use …;` items, each flagged when it is
/// a `pub use` re-export.
fn use_items(cleaned: &str) -> Vec<(usize, usize, bool)> {
    token_occurrences(cleaned, "use")
        .into_iter()
        .map(|at| {
            let end = cleaned[at..].find(';').map_or(cleaned.len(), |p| at + p);
            let reexport = cleaned[..at]
                .trim_end()
                .strip_suffix("pub")
                .is_some_and(|before| !before.ends_with(is_ident));
            (at, end, reexport)
        })
        .collect()
}

/// Whether the identifier at `text[start..end]` is called or named as a
/// path: `::name`, `name(` or `name::<`. A method call `.name(` counts by
/// its parenthesis; a bare `.name` can only be a field access, which is not
/// a use of a function, and `fn name(` defines a function of its own.
fn called_or_pathed(text: &str, start: usize, end: usize) -> bool {
    let before = text[..start].trim_end();
    let after = text[end..].trim_start();
    before.ends_with("::")
        || (trailing_ident(before) != Some("fn")
            && (after.starts_with('(') || after.starts_with("::<")))
}

/// Whether the identifier at `text[start..end]` is called as a method:
/// `.name(` or `.name::<`.
fn method_called(text: &str, start: usize, end: usize) -> bool {
    let after = text[end..].trim_start();
    text[..start].trim_end().ends_with('.') && (after.starts_with('(') || after.starts_with("::<"))
}

/// The identifier that ends `text`, if any.
fn trailing_ident(text: &str) -> Option<&str> {
    let start = text
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident(c))
        .last()?
        .0;
    Some(&text[start..])
}

/// A type's name once its generics, path and `&`/`dyn` are stripped
/// (`&'a fmt::Display<T>` → `Display`).
fn type_name(text: &str) -> Option<&str> {
    trailing_ident(text[..text.find('<').unwrap_or(text.len())].trim_end())
}

/// The offset just past the `>` that closes the `<` at `open`, skipping
/// the `>` of a `->`.
fn close_angle(text: &str, open: usize) -> usize {
    let mut depth = 0usize;
    let mut prev = ' ';
    for (p, c) in text[open..].char_indices() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => {
                depth -= 1;
                if depth == 0 {
                    return open + p + 1;
                }
            }
            _ => {}
        }
        prev = c;
    }
    text.len()
}

/// The `impl` blocks of `text`, as `(body start, body end, self type)`: the
/// type an inherent impl names, or the one after a trait impl's `for`. Only
/// an `impl` at item position opens one; `impl Trait` in a signature does
/// not.
fn impl_blocks(text: &str) -> Vec<(usize, usize, &str)> {
    let mut blocks = Vec::new();
    for at in token_occurrences(text, "impl") {
        let before = text[..at].trim_end();
        let item = before.is_empty()
            || before.ends_with(['}', ';', '{', ']'])
            || before.ends_with("unsafe");
        let Some(open) = text[at..].find('{').map(|p| at + p) else {
            continue;
        };
        if !item {
            continue;
        }
        let mut header = &text[at + 4..open];
        if header.trim_start().starts_with('<') {
            let lt = header.find('<').unwrap_or(0);
            header = &header[close_angle(header, lt)..];
        }
        if let Some(&w) = token_occurrences(header, "where").first() {
            header = &header[..w];
        }
        if let Some(&f) = token_occurrences(header, "for").first() {
            header = &header[f + 3..];
        }
        let mut depth = 0usize;
        let close = text[open..]
            .char_indices()
            .find(|&(_, c)| {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .map_or(text.len(), |(p, _)| open + p);
        // A macro's `impl $name` has no owner to match; its methods keep
        // the free-function rule.
        if let Some(owner) = type_name(header).filter(|o| !header.contains(&format!("${o}"))) {
            blocks.push((open, close, owner));
        }
    }
    blocks
}

/// The self type of the innermost `impl` block around offset `at`.
fn self_type_at<'a>(blocks: &[(usize, usize, &'a str)], at: usize) -> Option<&'a str> {
    blocks
        .iter()
        .filter(|&&(open, close, _)| open < at && at < close)
        .max_by_key(|&&(open, ..)| open)
        .map(|&(.., owner)| owner)
}

/// The owner `Q` of a path use `Q::name` whose `name` starts at `start`,
/// with `Self` read as the type of the `impl` block around it; a turbofish
/// `Q::<X>::name` is skipped.
fn path_owner<'a>(
    text: &'a str,
    blocks: &[(usize, usize, &'a str)],
    start: usize,
) -> Option<&'a str> {
    let mut before = text[..start].trim_end().strip_suffix("::")?.trim_end();
    if before.ends_with('>') {
        let mut depth = 0usize;
        let (open, _) = before.char_indices().rev().find(|&(p, c)| {
            match c {
                '>' if !before[..p].ends_with('-') => depth += 1,
                '<' => depth -= 1,
                _ => {}
            }
            depth == 0
        })?;
        before = before[..open].trim_end();
        before = before.strip_suffix("::").unwrap_or(before).trim_end();
    }
    match trailing_ident(before)? {
        "Self" => self_type_at(blocks, start),
        owner => Some(owner),
    }
}

/// The `type A = B<…>;` aliases `text` declares, as `(A, B)`.
fn type_aliases(text: &str) -> Vec<(&str, &str)> {
    let mut aliases = Vec::new();
    for at in token_occurrences(text, "type") {
        let rest = &text[at + 4..];
        let Some(&alias) = leading_idents(rest).first() else {
            continue;
        };
        let end = rest.find(';').unwrap_or(rest.len());
        let target = rest[..end]
            .split_once('=')
            .and_then(|(_, rhs)| type_name(rhs.trim()));
        if let Some(target) = target {
            aliases.push((alias, target));
        }
    }
    aliases
}

/// The Rust code of `source`'s doc examples: the lines between ``` fences
/// in `///` and `//!` comments. Doctests call the library like any other
/// file does, so another file's example is a use.
fn doc_example_code(source: &str) -> String {
    let mut code = String::new();
    let mut in_fence = false;
    for line in source.lines() {
        let line = line.trim_start();
        let Some(doc) = line
            .strip_prefix("///")
            .or_else(|| line.strip_prefix("//!"))
        else {
            in_fence = false;
            continue;
        };
        if doc.trim_start().starts_with("```") {
            in_fence = !in_fence;
        } else if in_fence {
            code.push_str(doc);
            code.push('\n');
        }
    }
    code
}

/// What `path` says in production code: its cleaned text with its
/// `#[cfg(test)]` items blanked, plus its doc examples. A file under a
/// `tests/` directory says nothing. The benchmark, `e2e_bench/src`, counts
/// whole, its tests included: it is frozen and must keep compiling.
fn production_code(path: &str, source: &str, scanned: &Scanned) -> String {
    if path.starts_with("e2e_bench/src/") {
        return format!("{}\n{}", scanned.cleaned, doc_example_code(source));
    }
    if path.split('/').any(|dir| dir == "tests") {
        return String::new();
    }
    let mut code = String::with_capacity(source.len());
    for (i, line) in scanned.cleaned.lines().enumerate() {
        if !scanned.in_test_code(i + 1) {
            code.push_str(line);
        }
        code.push('\n');
    }
    code + &doc_example_code(source)
}

/// Records that file `i` names `name` in `map`, once per file.
fn note<'a>(map: &mut HashMap<&'a str, Vec<usize>>, name: &'a str, i: usize) {
    let files_naming = map.entry(name).or_default();
    if files_naming.last() != Some(&i) {
        files_naming.push(i);
    }
}

/// The `dead-pub` rule over the workspace files `(path, source)`.
fn dead_pub(files: &[(String, String)]) -> Vec<Finding> {
    let scanned: Vec<Scanned> = files.iter().map(|(_, src)| lexer::scan(src)).collect();
    let code: Vec<String> = files
        .iter()
        .zip(&scanned)
        .map(|((path, src), s)| production_code(path, src, s))
        .collect();
    // identifier -> the files that name it in production code, outside and
    // inside their `pub use` statements, the files that call it or name it
    // as a path, a method or an import, and the files that call it as a
    // method; and the files and owners of its `Q::name` paths.
    let mut named_in: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut reexported_in: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut called_in: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut method_called_in: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut pathed_by: HashMap<&str, Vec<(usize, &str)>> = HashMap::new();
    let mut aliases: HashMap<&str, &str> = HashMap::new();
    for (i, text) in code.iter().enumerate() {
        let uses = use_items(text);
        let blocks = impl_blocks(text);
        aliases.extend(type_aliases(text));
        let mut from = 0;
        while let Some(p) = text[from..].find(is_ident) {
            let start = from + p;
            let end = text[start..]
                .find(|c: char| !is_ident(c))
                .map_or(text.len(), |p| start + p);
            let name = &text[start..end];
            match uses.iter().find(|&&(a, b, _)| a <= start && start < b) {
                Some(&(_, _, true)) => note(&mut reexported_in, name, i),
                in_use => {
                    note(&mut named_in, name, i);
                    if in_use.is_some() || called_or_pathed(text, start, end) {
                        note(&mut called_in, name, i);
                    }
                    if method_called(text, start, end) {
                        note(&mut method_called_in, name, i);
                    }
                    if let Some(owner) = path_owner(text, &blocks, start) {
                        pathed_by.entry(name).or_default().push((i, owner));
                    }
                }
            }
            from = end;
        }
    }
    let elsewhere = |map: &HashMap<&str, Vec<usize>>, name: &str, i: usize| {
        map.get(name)
            .is_some_and(|naming| naming.iter().any(|&f| f != i))
    };
    let mut findings = Vec::new();
    for (i, ((path, _), scanned)) in files.iter().zip(&scanned).enumerate() {
        if !defines_library_api(path) {
            continue;
        }
        let mut dead_lines = Vec::new();
        let blocks = impl_blocks(&scanned.cleaned);
        for (at, keyword, name) in pub_items(&scanned.cleaned) {
            let line = lexer::line_of(&scanned.cleaned, at);
            // A type reaches callers through signatures without being
            // named, so its re-exports count; a value's do not. A function
            // is used only where it is called or named as a path; a method
            // of `impl T` only where it is called as a method or named as
            // the path `T::name` (or through an alias of `T`). No `use`
            // item can import a method, so a `use` naming it is another
            // item's.
            let owner = self_type_at(&blocks, at).filter(|_| keyword == "fn");
            let used = match keyword {
                "fn" if owner.is_some() => {
                    let owned_by = |q: &str| Some(q) == owner || aliases.get(q).copied() == owner;
                    elsewhere(&method_called_in, name, i)
                        || pathed_by
                            .get(name)
                            .is_some_and(|paths| paths.iter().any(|&(f, q)| f != i && owned_by(q)))
                }
                "fn" => elsewhere(&called_in, name, i),
                "const" | "static" => elsewhere(&named_in, name, i),
                _ => elsewhere(&named_in, name, i) || elsewhere(&reexported_in, name, i),
            };
            if used || scanned.in_test_code(line) {
                continue;
            }
            dead_lines.push(line);
            if scanned.is_allowed("dead-pub", line) {
                continue;
            }
            findings.push(Finding {
                path: path.clone(),
                line,
                rule: "dead-pub",
                message: format!(
                    "`pub` item `{name}` has no production caller in another file \
                     (tests, #[cfg(test)] code and re-exports of functions, \
                     constants and statics do not count) — make it private or delete it"
                ),
            });
        }
        for allow in &scanned.allows {
            let waives = |line: &usize| *line == allow.line || *line == allow.line + 1;
            if allow.rule == "dead-pub" && !allow.file_wide && !dead_lines.iter().any(waives) {
                findings.push(Finding {
                    path: path.clone(),
                    line: allow.line,
                    rule: "dead-pub",
                    message: "stale lint:allow(dead-pub): the next item has a production \
                              caller or is not a `pub` item — delete the marker"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// Runs `dead-pub` over the workspace and the benchmark's sources.
fn check_dead_pub(root: &Path) -> Vec<Finding> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "examples", "tests", "e2e_bench/src"] {
        collect_rs(&root.join(top), &mut paths, &["target", ".git"]);
    }
    let files: Vec<(String, String)> = paths
        .iter()
        .filter_map(|p| Some((rel_path(root, p), fs::read_to_string(p).ok()?)))
        .collect();
    dead_pub(&files)
}

/// Lints the whole workspace rooted at `root`; returns every finding.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for top in ["crates", "src", "examples"] {
        collect_rs(&root.join(top), &mut files, SKIP_DIRS);
    }
    let mut findings = check_manifests(root);
    findings.extend(check_dead_pub(root));
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
        // The bit reader, the entropy decoder and the frame decoders that
        // drive them walk attacker-controlled bytes on every decoded frame.
        // Their speed comes from checked 8-byte loads into one bit window,
        // not from unchecked indexing: they must stay safe Rust (only
        // kernels.rs carries the no-unsafe allow) and must report bad input
        // as a typed error, never by panicking.
        for path in [
            "crates/video/src/bitio.rs",
            "crates/video/src/entropy.rs",
            "crates/video/src/decode.rs",
        ] {
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
            "crates/video/src/encode.rs",
            "fn f() { x.expect(\"set\"); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    fn dead_pub_over(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(path, src)| (path.to_string(), src.to_string()))
            .collect();
        dead_pub(&files)
    }

    const LIB_WITH_HELPER: &str = "\
pub fn helper() -> u32 { 1 }
pub fn other() -> u32 { helper() }
";

    #[test]
    fn dead_pub_passes_a_cross_file_use() {
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", LIB_WITH_HELPER),
            (
                "crates/demo/src/user.rs",
                "fn u() { crate::helper(); crate::other(); }\n",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    const LIB_WITH_METHOD: &str = "\
pub struct Queue;
impl Queue {
    pub fn depth(&self) -> usize { 0 }
}
";

    #[test]
    fn dead_pub_flags_a_method_whose_name_only_a_local_shares() {
        let user = "\
fn u(q: &demo::Queue) -> usize {
    let depth = 3;
    let s = Stats { depth };
    s.total + depth
}
";
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", LIB_WITH_METHOD),
            ("crates/demo/src/user.rs", user),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`depth`"), "{f:?}");
    }

    #[test]
    fn dead_pub_passes_a_method_call() {
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", LIB_WITH_METHOD),
            (
                "crates/demo/src/user.rs",
                "fn u(q: &demo::Queue) -> usize { q.depth() }\n",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_pub_flags_a_method_named_only_by_a_field_access() {
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", LIB_WITH_METHOD),
            (
                "crates/demo/src/user.rs",
                "fn u(_: &demo::Queue, s: &Stats) -> usize { s.depth + s . depth }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`depth`"), "{f:?}");
    }

    #[test]
    fn dead_pub_flags_a_method_named_only_by_another_owners_path() {
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", LIB_WITH_METHOD),
            (
                "crates/demo/src/user.rs",
                "fn u(_: &demo::Queue) -> usize { Other::depth() + other::Other::<u8>::depth() }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`depth`"), "{f:?}");
    }

    #[test]
    fn dead_pub_passes_a_method_named_by_its_owners_path() {
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", LIB_WITH_METHOD),
            (
                "crates/demo/src/user.rs",
                "fn u(q: &[demo::Queue]) -> usize { q.iter().map(demo::Queue::depth).sum() }\n",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_pub_passes_a_method_named_through_an_alias() {
        let lib = "\
pub struct Queue<T>(T);
impl<T: Copy> Queue<T> {
    pub fn depth(&self) -> usize { 0 }
}
pub type ByteQueue = Queue<u8>;
";
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", lib),
            (
                "crates/demo/src/user.rs",
                "fn u(q: &demo::Queue<u8>) -> usize { demo::ByteQueue::depth(q) }\n",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_pub_reads_self_as_the_enclosing_impls_type() {
        let user = |owner: &str| {
            format!("impl {owner} {{\n    fn twice(&self, _: &Queue) -> usize {{ 2 * Self::depth(self) }}\n}}\n")
        };
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", LIB_WITH_METHOD),
            ("crates/demo/src/user.rs", &user("crate::Queue")),
        ]);
        assert!(f.is_empty(), "{f:?}");
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", LIB_WITH_METHOD),
            ("crates/demo/src/user.rs", &user("Stack")),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`depth`"), "{f:?}");
    }

    #[test]
    fn dead_pub_flags_a_use_only_in_a_tests_directory() {
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", LIB_WITH_HELPER),
            (
                "crates/demo/tests/it.rs",
                "fn t() { demo::helper(); demo::other(); }\n",
            ),
        ]);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn dead_pub_flags_a_function_whose_name_only_another_definition_shares() {
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", "pub fn helper() {}\n"),
            ("crates/demo/src/other.rs", "fn helper() {}\n"),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`helper`"), "{f:?}");
    }

    #[test]
    fn dead_pub_flags_a_function_named_only_by_a_reexport() {
        let f = dead_pub_over(&[
            ("crates/demo/src/util.rs", "pub fn helper() {}\n"),
            (
                "crates/demo/src/lib.rs",
                "pub use util::{\n    helper,\n};\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`helper`"), "{f:?}");
    }

    #[test]
    fn dead_pub_passes_a_type_named_only_by_a_reexport() {
        // A type reaches callers through signatures without being named.
        let f = dead_pub_over(&[
            ("crates/demo/src/util.rs", "pub struct Thing;\n"),
            ("crates/demo/src/lib.rs", "pub use util::Thing;\n"),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_pub_flags_a_use_in_another_files_test_module() {
        let user = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { crate::helper(); }
}
";
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", "pub fn helper() {}\n"),
            ("crates/demo/src/user.rs", user),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`helper`"), "{f:?}");
    }

    #[test]
    fn dead_pub_counts_the_benchmarks_test_code() {
        let bench = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { demo::helper(); }
}
";
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", "pub fn helper() {}\n"),
            ("e2e_bench/src/spec.rs", bench),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_pub_flags_a_stale_allow_marker() {
        let src = "\
// lint:allow(dead-pub): once dead, now called from user.rs
pub fn helper() {}
";
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", src),
            ("crates/demo/src/user.rs", "fn u() { crate::helper(); }\n"),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("dead-pub", 1));
        assert!(f[0].message.contains("stale"), "{f:?}");
    }

    #[test]
    fn dead_pub_flags_a_use_only_in_its_own_test_module() {
        let src = "\
pub fn helper() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(super::helper(), 1); }
}
";
        let f = dead_pub_over(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("dead-pub", 1));
        assert!(f[0].message.contains("`helper`"), "{f:?}");
    }

    #[test]
    fn dead_pub_counts_the_benchmark_as_a_caller() {
        let files = [
            ("crates/demo/src/lib.rs", LIB_WITH_HELPER),
            ("e2e_bench/src/main.rs", "fn main() { demo::other(); }\n"),
        ];
        let f = dead_pub_over(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`helper`"), "{f:?}");
        // The benchmark defines no library API of its own.
        let f = dead_pub_over(&[("e2e_bench/src/main.rs", "pub fn unused() {}\n")]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_pub_counts_other_files_doc_examples_not_prose() {
        let lib = "\
/// ```
/// demo::helper();
/// ```
pub fn helper() {}
pub fn documented() {}
";
        let user = "\
//! Calls `documented` in prose only.
//!
//! ```
//! demo::helper();
//! ```
";
        let f = dead_pub_over(&[
            ("crates/demo/src/lib.rs", lib),
            ("crates/demo/src/user.rs", user),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`documented`"), "{f:?}");
        // Its own file's example is not a use.
        let f = dead_pub_over(&[("crates/demo/src/lib.rs", lib)]);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn dead_pub_allow_marker_waives_the_next_item() {
        let src = "\
// lint:allow(dead-pub): the return type of `level`, which a binary prints
pub enum Level { A }
pub struct Orphan;
pub fn level() -> Level { Level::A }
";
        let f = dead_pub_over(&[
            ("crates/demo/src/kernels.rs", src),
            ("crates/demo/src/bin/report.rs", "fn main() { level(); }\n"),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`Orphan`") && f[0].line == 3, "{f:?}");
    }

    #[test]
    fn dead_pub_reads_item_kinds_not_fields_or_restricted_items() {
        let src = "\
pub struct S {
    pub field: u32,
}
pub(crate) fn crate_only() {}
pub const fn konst_fn() {}
pub const LIMIT: u32 = 1;
pub static mut COUNTER: u32 = 0;
pub unsafe fn raw() {}
pub mod sub;
pub use other::Thing;
";
        let names: Vec<String> = dead_pub_over(&[("src/lib.rs", src)])
            .iter()
            .map(|f| f.message.split('`').nth(3).unwrap_or("").to_string())
            .collect();
        assert_eq!(names, ["S", "konst_fn", "LIMIT", "COUNTER", "raw"]);
    }

    #[test]
    fn wall_clock_flagged_in_simulator() {
        let f = check(
            "crates/core/src/pipeline.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-wall-clock");
    }

    #[test]
    fn allow_file_waives_whole_file() {
        let src = "\
// lint:allow-file(no-wall-clock): a waived file may read real time
fn a() { Instant::now(); }
fn b() { Instant::now(); }
";
        let f = check("crates/simnet/src/time.rs", src);
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
        let f = check("crates/simnet/src/shard.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }
}
