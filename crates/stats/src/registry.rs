//! The instrument registry: named stages registering named instruments.
//!
//! A [`Registry`] maps dotted names (`"fleet.kept"`,
//! `"adapt.scores_observed"`) to shared instrument handles. Registration
//! is idempotent — asking for an existing name returns the *same*
//! instrument, so independent subsystems (or many instances of one, e.g.
//! every adaptive stream's `RateController`) emit into one aggregate
//! stream. The registry lock is only taken at registration and at
//! [`Registry::sample`] time; the hot path holds pre-resolved `Arc`
//! handles and never touches the map.
//!
//! [`Stage`] is a prefix-scoped view (`registry.stage("fleet")`), the
//! handle a subsystem threads through its constructors so its instrument
//! names stay grouped without string plumbing at every call site.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::sync::Mutex;

/// A registered instrument handle.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A named-instrument registry; see the module docs.
#[derive(Debug, Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.instruments.lock().len()
    }

    /// Whether no instrument is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register<T, F: FnOnce() -> Instrument, G: Fn(&Instrument) -> Option<T>>(
        &self,
        name: &str,
        make: F,
        cast: G,
    ) -> T {
        let mut map = self.instruments.lock();
        let entry = map
            .entry(name.to_string())
            .or_insert_with(make)
            // Shared map entries must stay cheap to clone: every variant
            // is an Arc.
            .clone();
        drop(map);
        match cast(&entry) {
            Some(handle) => handle,
            None => panic!(
                "instrument {name:?} already registered as a {}",
                entry.kind()
            ),
        }
    }

    /// The counter named `name` (single write shard), registering it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.register(
            name,
            || Instrument::Counter(Arc::new(Counter::new())),
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The counter named `name`, created sharded for the machine's
    /// parallelism if absent — use for counters every worker hits.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn contended_counter(&self, name: &str) -> Arc<Counter> {
        self.register(
            name,
            || Instrument::Counter(Arc::new(Counter::contended())),
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.register(
            name,
            || Instrument::Gauge(Arc::new(Gauge::new())),
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.register(
            name,
            || Instrument::Histogram(Arc::new(Histogram::new())),
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// A prefix-scoped view: instruments registered through it are named
    /// `"<prefix>.<name>"`.
    pub fn stage(self: &Arc<Self>, prefix: impl Into<String>) -> Stage {
        Stage {
            registry: self.clone(),
            prefix: prefix.into(),
        }
    }

    /// Reads every instrument once: counters and gauges as their current
    /// values, histograms as mergeable snapshots. One registry lock for
    /// the map walk; instrument reads are lock-free.
    pub fn sample(&self) -> RegistrySample {
        let map = self.instruments.lock();
        let mut sample = RegistrySample::default();
        for (name, instrument) in map.iter() {
            match instrument {
                Instrument::Counter(c) => {
                    sample.counters.insert(name.clone(), c.get());
                }
                Instrument::Gauge(g) => {
                    sample.gauges.insert(name.clone(), g.get());
                }
                Instrument::Histogram(h) => {
                    sample.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        sample
    }
}

/// A prefix-scoped registry view; see [`Registry::stage`].
#[derive(Debug, Clone)]
pub struct Stage {
    registry: Arc<Registry>,
    prefix: String,
}

impl Stage {
    fn scoped(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// A single-shard counter scoped to this stage.
    ///
    /// # Panics
    ///
    /// Panics if the scoped name is registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&self.scoped(name))
    }

    /// A parallelism-sharded counter scoped to this stage.
    ///
    /// # Panics
    ///
    /// Panics if the scoped name is registered as a different kind.
    pub fn contended_counter(&self, name: &str) -> Arc<Counter> {
        self.registry.contended_counter(&self.scoped(name))
    }

    /// A gauge scoped to this stage.
    ///
    /// # Panics
    ///
    /// Panics if the scoped name is registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(&self.scoped(name))
    }

    /// A histogram scoped to this stage.
    ///
    /// # Panics
    ///
    /// Panics if the scoped name is registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(&self.scoped(name))
    }
}

/// One lock-free read of every registered instrument.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySample {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Arc::new(Registry::new());
        let a = r.counter("fleet.kept");
        let b = r.counter("fleet.kept");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same instrument behind both handles");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn stages_scope_names() {
        let r = Arc::new(Registry::new());
        let fleet = r.stage("fleet");
        fleet.counter("kept").add(3);
        fleet.gauge("queue_depth").add(7);
        fleet.histogram("latency_us").record(100);
        let sample = r.sample();
        assert_eq!(sample.counters.get("fleet.kept"), Some(&3));
        assert_eq!(sample.gauges.get("fleet.queue_depth"), Some(&7));
        assert_eq!(
            sample.histograms.get("fleet.latency_us").map(|h| h.count()),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn contended_counter_reuses_existing() {
        let r = Registry::new();
        let a = r.contended_counter("hot");
        let b = r.counter("hot");
        a.inc();
        assert_eq!(b.get(), 1);
    }
}
