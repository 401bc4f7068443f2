//! The time-series collector: periodic folds of a [`Registry`] into
//! [`SeriesPoint`]s, plus the serde export behind `stats.json`.
//!
//! Two clock modes, mirroring the fleet's decision-latency gating:
//!
//! * **Wall clock** (normal builds): [`Collector::tick`] stamps the point
//!   with real elapsed milliseconds — the mode the terminal dashboard
//!   uses.
//! * **Explicit time** (always available, the *only* mode under the
//!   `model-check` feature, where wall-clock state is compiled out
//!   entirely): [`Collector::tick_at`] takes the timestamp from the
//!   caller — a simulation's virtual clock or a test's scripted instants —
//!   so deterministic runs produce deterministic series.
//!
//! Points carry *cumulative* instrument values (counter totals, the
//! histogram of everything recorded so far): consumers difference
//! consecutive points for rates, and a truncated series still reports
//! exact totals. The collector keeps a bounded ring (oldest points drop
//! first) so an unattended dashboard cannot grow without bound.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::Serialize;

use crate::registry::Registry;
use crate::sync::Mutex;
use crate::QuantileSummary;

/// Default bound on retained points (oldest dropped first).
const DEFAULT_MAX_POINTS: usize = 4096;

/// One periodic fold of the registry; see the module docs for cumulative
/// semantics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesPoint {
    /// Monotonic tick number (keeps counting when old points drop).
    pub seq: u64,
    /// Milliseconds since the collector's epoch (wall or virtual).
    pub elapsed_ms: u64,
    /// Cumulative counter totals by instrument name.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Gauge levels by instrument name.
    pub gauges: std::collections::BTreeMap<String, u64>,
    /// Cumulative histogram quantiles by instrument name.
    pub histograms: std::collections::BTreeMap<String, QuantileSummary>,
}

/// The serialized artifact (`stats.json`): a schema tag plus the series.
#[derive(Debug, Clone, Serialize)]
pub struct SeriesExport {
    /// Always `"sieve_stats"`.
    pub artifact: String,
    /// The retained points, oldest first.
    pub points: Vec<SeriesPoint>,
}

/// The retained series plus the monotonic tick counter.
#[derive(Debug, Default)]
struct SeriesBuf {
    next_seq: u64,
    last_elapsed_ms: u64,
    points: VecDeque<SeriesPoint>,
}

/// Folds a registry into a bounded time series; see the module docs.
#[derive(Debug)]
pub struct Collector {
    registry: Arc<Registry>,
    series: Mutex<SeriesBuf>,
    max_points: usize,
    #[cfg(not(feature = "model-check"))]
    started: std::time::Instant,
}

impl Collector {
    /// A collector over `registry` retaining `DEFAULT_MAX_POINTS`.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self::with_max_points(registry, DEFAULT_MAX_POINTS)
    }

    /// A collector retaining at most `max_points` (≥ 1) points.
    fn with_max_points(registry: Arc<Registry>, max_points: usize) -> Self {
        Self {
            registry,
            series: Mutex::new(SeriesBuf::default()),
            max_points: max_points.max(1),
            #[cfg(not(feature = "model-check"))]
            // lint:allow(no-wall-clock): the collector's epoch; compiled out of model-check/sim-deterministic builds
            started: std::time::Instant::now(),
        }
    }

    /// The registry this collector samples.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Folds the registry into a point stamped `elapsed_ms` on the
    /// caller's clock (clamped to be non-decreasing across ticks) and
    /// appends it to the series; returns the point. Deterministic given
    /// deterministic instrument values — the simulation/model-check path.
    pub fn tick_at(&self, elapsed_ms: u64) -> SeriesPoint {
        let sample = self.registry.sample();
        let mut series = self.series.lock();
        let elapsed_ms = elapsed_ms.max(series.last_elapsed_ms);
        let point = SeriesPoint {
            seq: series.next_seq,
            elapsed_ms,
            counters: sample.counters,
            gauges: sample.gauges,
            histograms: sample
                .histograms
                .into_iter()
                .map(|(name, snap)| (name, snap.summary()))
                .collect(),
        };
        series.next_seq += 1;
        series.last_elapsed_ms = elapsed_ms;
        series.points.push_back(point.clone());
        while series.points.len() > self.max_points {
            series.points.pop_front();
        }
        point
    }

    /// [`Collector::tick_at`] stamped with real elapsed time since the
    /// collector was created. Not compiled under `model-check` — wall
    /// time must not reach explored schedules.
    #[cfg(not(feature = "model-check"))]
    pub fn tick(&self) -> SeriesPoint {
        self.tick_at(self.started.elapsed().as_millis() as u64)
    }

    /// Points currently retained, oldest first.
    pub fn points(&self) -> Vec<SeriesPoint> {
        self.series.lock().points.iter().cloned().collect()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.series.lock().points.len()
    }

    /// Whether no tick has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The serializable artifact for `stats.json`.
    pub fn export(&self) -> SeriesExport {
        SeriesExport {
            artifact: "sieve_stats".to_string(),
            points: self.points(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_data() -> Arc<Registry> {
        let r = Arc::new(Registry::new());
        let s = r.stage("fleet");
        s.counter("kept").add(5);
        s.gauge("queue_depth").add(2);
        s.histogram("latency_us").record(900);
        r
    }

    #[test]
    fn tick_at_folds_the_registry() {
        let r = registry_with_data();
        let c = Collector::new(r.clone());
        let p = c.tick_at(10);
        assert_eq!(p.seq, 0);
        assert_eq!(p.elapsed_ms, 10);
        assert_eq!(p.counters.get("fleet.kept"), Some(&5));
        assert_eq!(p.gauges.get("fleet.queue_depth"), Some(&2));
        let h = p.histograms.get("fleet.latency_us").expect("sampled");
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 900);
        r.counter("fleet.kept").add(3);
        let p2 = c.tick_at(20);
        assert_eq!(p2.seq, 1);
        assert_eq!(p2.counters["fleet.kept"] - p.counters["fleet.kept"], 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn elapsed_never_goes_backwards() {
        let c = Collector::new(Arc::new(Registry::new()));
        c.tick_at(100);
        let p = c.tick_at(40);
        assert_eq!(p.elapsed_ms, 100, "clamped to the last tick's stamp");
    }

    #[test]
    fn ring_drops_oldest() {
        let c = Collector::with_max_points(Arc::new(Registry::new()), 2);
        for t in 0..5 {
            c.tick_at(t);
        }
        let points = c.points();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].seq, 3, "oldest retained is tick 3");
        assert_eq!(points[1].seq, 4);
    }

    #[test]
    fn export_serializes() {
        let c = Collector::new(registry_with_data());
        c.tick_at(5);
        let json = serde_json::to_string_pretty(&c.export()).expect("serializes");
        assert!(json.contains("\"artifact\": \"sieve_stats\""));
        assert!(json.contains("fleet.kept"));
        assert!(json.contains("\"p99\""));
    }
}
