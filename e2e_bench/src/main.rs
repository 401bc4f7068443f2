//! `e2e_bench` — the repository's end-to-end benchmark.
//!
//! One feeder thread drives four named workloads against a two-shard
//! `Fleet` (and, for `wan_loop`, the `sieve-net` uplink), verifies what
//! came out, and prints every metric `BENCHMARK.json` declares. `--trace 1`
//! repeats the run with spans recorded by the benchmark around calls into
//! each layer's public functions and prints the per-layer metrics instead.
//! See `README.md` beside `Cargo.toml`.

mod fleet_run;
mod layers;
mod schedule;
mod spec;
mod summary;
mod tapes;
mod trace;
mod wan;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use spec::Spec;
use workloads::{Outcome, Params, FLEET_WORKLOADS};

const USAGE: &str = "usage: e2e_bench [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--trace-out <path>] [--aa]

  --workload   seek_uniform | decode_uniform | skew_idle | wan_loop (default: all four)
  --seed       drives dataset seeds, tape offsets and the channel seed (default 1)
  --seconds    measured seconds per workload (default: run_seconds of BENCHMARK.json)
  --trace 1    print the per-layer metrics from a traced run instead of the end-to-end ones
  --trace-out  where the span file goes (default: beside the executable)
  --aa         run every workload twice and compare the two sets against the bounds";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        trace_out: None,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a path")?)),
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, params: Params, spec: &Spec) -> Result<Outcome, String> {
    if name == wan::NAME {
        return Ok(wan::run(params, spec));
    }
    FLEET_WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|w| workloads::run_fleet_workload(w, params, spec))
        .ok_or_else(|| format!("unknown workload {name}"))
}

/// The human table of one run.
fn print_table(out: &Outcome, params: Params, spec: &Spec) {
    println!(
        "\n== {} (seed {}, {} s, {}) ==",
        out.workload,
        params.seed,
        params.seconds,
        if params.trace { "traced" } else { "untraced" }
    );
    if let Some(w) = spec.workloads.iter().find(|w| w.name == out.workload) {
        println!("  why: {}", w.why);
    }
    for (name, unit, sample) in out.metrics.iter() {
        println!(
            "  {name:<40} {:>16.4} {unit:<6} n={}",
            sample.value, sample.samples
        );
    }
    println!(
        "  attempted {}  failed {}  checks {}",
        out.attempted,
        out.failed,
        if out.problems.is_empty() {
            "ok"
        } else {
            "FAILED"
        }
    );
    for p in &out.problems {
        println!("  ! {p}");
    }
}

/// The contract's result object, one line.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                s.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn write_spans(out: &Outcome, path: Option<&PathBuf>) -> Result<(), String> {
    let Some(tracer) = &out.tracer else {
        return Ok(());
    };
    let path = match path {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name(format!("e2e_bench_spans_{}.json", out.workload)),
    };
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    tracer
        .write_json(&mut w)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "  spans: {} recorded, first {} written to {}",
        tracer.total_spans(),
        tracer.total_spans().min(trace::MAX_WRITTEN_SPANS as u64),
        path.display()
    );
    Ok(())
}

/// Runs one workload in a process of its own — exactly what the driver
/// does — and returns its end-to-end metrics by name. A fresh process per
/// run keeps `peak_rss_mb` (a process-wide high-water mark) comparable.
fn run_in_child(name: &str, params: Params) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name, "--trace", "0"])
        .args(["--seed", &params.seed.to_string()])
        .args(["--seconds", &params.seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    let last = stdout.lines().last().ok_or("no result line")?;
    let doc = serde_json::parse_value_str(last).map_err(|e| e.to_string())?;
    let metrics = doc
        .as_object()
        .and_then(|o| o.get("metrics"))
        .and_then(|m| m.as_object())
        .ok_or("result object has no metrics")?;
    metrics
        .iter()
        .map(
            |(name, m)| match m.as_object().and_then(|m| m.get("value")) {
                Some(serde_json::Value::Number(v)) => Ok((name.to_string(), v.as_f64())),
                _ => Err(format!("metric {name} has no value")),
            },
        )
        .collect()
}

/// Two full untraced sets of the same build, compared metric by metric
/// against the committed bounds. Returns whether every pair agrees.
fn aa(names: &[String], params: Params, spec: &Spec) -> Result<bool, String> {
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut outs = Vec::new();
        for name in names {
            outs.push(run_in_child(name, params)?);
        }
        sets.push(outs);
    }
    println!("\n== A/A: two sets of the same build ==");
    println!(
        "  {:<16} {:<20} {:<7} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "better", "first", "second", "diff", "bound"
    );
    let mut agree = true;
    for (name, (a, b)) in names.iter().zip(sets[0].iter().zip(&sets[1])) {
        for m in &spec.end_to_end {
            let value = |set: &[(String, f64)]| {
                set.iter()
                    .find(|(n, _)| *n == m.name)
                    .map(|&(_, v)| v)
                    .ok_or(format!("{name} did not report {}", m.name))
            };
            let (x, y) = (value(a)?, value(b)?);
            let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let ok = diff <= m.bound;
            agree &= ok;
            println!(
                "  {name:<16} {:<20} {:<7} {x:>14.4} {y:>14.4} {:>7.2}% {:>6.1}%{}",
                m.name,
                m.better,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  EXCEEDS" }
            );
        }
    }
    Ok(agree)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = Spec::load();
    let params = Params {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds as f64),
        trace: args.trace,
    };
    let names: Vec<String> = match &args.workload {
        Some(name) => vec![name.clone()],
        None => spec.workloads.iter().map(|w| w.name.clone()).collect(),
    };
    if args.aa {
        return aa(
            &names,
            Params {
                trace: false,
                ..params
            },
            &spec,
        );
    }
    let mut all_correct = true;
    let mut lines = Vec::new();
    for name in &names {
        let out = run_workload(name, params, &spec)?;
        print_table(&out, params, &spec);
        write_spans(&out, args.trace_out.as_ref())?;
        all_correct &= out.correct();
        lines.push((out.workload, result_json(&out)));
    }
    // Last line of stdout: the result object — of the workload asked for,
    // or one object holding all four.
    match lines.as_slice() {
        [(_, only)] => println!("{only}"),
        many => {
            let body: Vec<String> = many.iter().map(|(w, j)| format!("\"{w}\": {j}")).collect();
            println!("{{{}}}", body.join(", "));
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("e2e_bench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
