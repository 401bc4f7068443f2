//! The `stats.json` schema: a stability validator for the observability
//! plane's serialized time series.
//!
//! `sieve_stats::Collector::export` writes a [`SeriesExport`]: a cumulative
//! time series sampled from a [`Registry`], one point per tick. The
//! `fleet_top` example writes one (`--once --export stats.json`) for
//! downstream tooling to diff, so its *shape* is a contract: [`validate`]
//! asserts the exact key sets at every level (artifact, point, histogram
//! summary), that `seq` is strictly ascending and `elapsed_ms`
//! non-decreasing, and that every counter named in consecutive points is
//! monotone — counters are cumulative by construction, so a decrease means
//! an instrument was silently replaced mid-run. The `fleet_top` export and
//! a unit test over a real [`Collector`] export both go through this
//! module, so a schema regression fails `cargo test` before it lands.
//!
//! [`Collector`]: sieve_stats::Collector
//! [`SeriesExport`]: sieve_stats::SeriesExport
//! [`Registry`]: sieve_stats::Registry

use crate::schema::{self, Shape};

// Empty histograms are not exported, hence `Count`.
const SUMMARY: Shape = Shape::Obj(&[
    ("count", Shape::Count),
    ("p50", Shape::UInt),
    ("p90", Shape::UInt),
    ("p99", Shape::UInt),
    ("max", Shape::UInt),
]);

const POINT: Shape = Shape::Obj(&[
    ("seq", Shape::UInt),
    ("elapsed_ms", Shape::UInt),
    ("counters", Shape::Map(&Shape::UInt)),
    ("gauges", Shape::Map(&Shape::UInt)),
    ("histograms", Shape::Map(&SUMMARY)),
]);

/// The shape of `stats.json`.
pub const SHAPE: Shape = Shape::Obj(&[
    ("artifact", Shape::OneOf(&["sieve_stats"])),
    ("points", Shape::Arr(&POINT)),
]);

/// Asserts the series export's schema stability; see the module docs.
/// `json` is the full text of a `stats.json` file.
///
/// # Errors
///
/// A human-readable description of the first violated schema rule.
pub fn validate(json: &str) -> Result<(), String> {
    let root = schema::parse(json, &SHAPE)?;
    let mut prev_seq: Option<u64> = None;
    let mut prev_elapsed: u64 = 0;
    let mut prev_counters: Vec<(&str, u64)> = Vec::new();
    for (i, point) in schema::items_of(&root, "points").iter().enumerate() {
        let what = format!("points[{i}]");
        let seq = schema::uint_of(point, "seq");
        if prev_seq.is_some_and(|p| seq <= p) {
            return Err(format!("{what}.seq: {seq} not strictly ascending"));
        }
        prev_seq = Some(seq);
        let elapsed = schema::uint_of(point, "elapsed_ms");
        if elapsed < prev_elapsed {
            return Err(format!(
                "{what}.elapsed_ms: {elapsed} decreased from {prev_elapsed}"
            ));
        }
        prev_elapsed = elapsed;
        // Counters are cumulative: any name present in two consecutive
        // points must not have gone backwards.
        let counters: Vec<(&str, u64)> = schema::entries_of(point, "counters")
            .map(|(name, v)| (name, schema::uint(v)))
            .collect();
        for (name, value) in &counters {
            if let Some((_, prev)) = prev_counters.iter().find(|(n, _)| n == name) {
                if value < prev {
                    return Err(format!(
                        "{what}.counters.{name}: {value} decreased from {prev} (counters are cumulative)"
                    ));
                }
            }
        }
        prev_counters = counters;
        for (name, summary) in schema::entries_of(point, "histograms") {
            let [p50, p90, p99] = ["p50", "p90", "p99"].map(|q| schema::uint_of(summary, q));
            if !(p50 <= p90 && p90 <= p99) {
                return Err(format!(
                    "{what}.histograms.{name}: quantiles not monotone (p50 {p50}, p90 {p90}, p99 {p99})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_stats::{Collector, Registry};
    use std::sync::Arc;

    fn sample_json() -> String {
        let registry = Arc::new(Registry::new());
        let stage = registry.stage("t");
        let kept = stage.counter("kept");
        let lat = stage.histogram("lat_us");
        let collector = Collector::new(registry);
        for tick in 1..=3u64 {
            kept.add(10);
            lat.record(100 * tick);
            collector.tick_at(tick * 250);
        }
        serde_json::to_string_pretty(&collector.export()).expect("serializes")
    }

    #[test]
    fn generated_export_validates() {
        validate(&sample_json()).expect("schema-clean");
    }

    #[test]
    fn missing_and_extra_keys_are_rejected() {
        let json = sample_json().replace("\"p90\"", "\"p95\"");
        assert!(validate(&json).is_err(), "renamed summary key must fail");
        let json = sample_json().replace("sieve_stats", "sieve_stats_v2");
        assert!(validate(&json).is_err(), "artifact name is pinned");
    }

    #[test]
    fn wrong_typed_leaves_are_rejected_by_path() {
        for (path, json) in schema::wrong_typed_leaves(&sample_json()) {
            let err = validate(&json).expect_err(&path);
            assert!(err.starts_with(&path), "{path}: {err}");
        }
    }

    #[test]
    fn regressing_counters_are_rejected() {
        // Third tick's cumulative count (30) rewritten below the second's.
        let json = sample_json().replace("\"t.kept\": 30", "\"t.kept\": 5");
        let err = validate(&json).expect_err("regression must fail");
        assert!(err.contains("cumulative"), "{err}");
    }
}
