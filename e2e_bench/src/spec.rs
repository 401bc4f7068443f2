//! `BENCHMARK.json`, compiled in: the single list of workload and metric
//! names, units and regress bounds. The binary refuses to print a metric
//! the file does not declare, or to omit one it does.

use std::collections::BTreeMap;

use serde::Deserialize;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct LayerSpec {
    pub name: String,
    pub unit: String,
    #[allow(dead_code)] // the driver's; checked by the contract test
    pub better: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    // `command` and `paths` are the driver's; here only the contract test
    // reads them.
    #[allow(dead_code)]
    pub command: Vec<String>,
    #[allow(dead_code)]
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEndSpec>,
    pub per_layer: Vec<LayerSpec>,
}

impl Spec {
    pub fn load() -> Self {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json matches the benchmark's schema")
    }
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub samples: u64,
}

/// The metrics of one run: exactly the declared names, each set once.
#[derive(Debug, Clone)]
pub struct Metrics {
    values: BTreeMap<String, Option<Sample>>,
    units: BTreeMap<String, String>,
}

impl Metrics {
    fn declared<'a>(names: impl Iterator<Item = (&'a String, &'a String)>) -> Self {
        let mut values = BTreeMap::new();
        let mut units = BTreeMap::new();
        for (name, unit) in names {
            values.insert(name.clone(), None);
            units.insert(name.clone(), unit.clone());
        }
        Self { values, units }
    }

    pub fn end_to_end(spec: &Spec) -> Self {
        Self::declared(spec.end_to_end.iter().map(|m| (&m.name, &m.unit)))
    }

    pub fn per_layer(spec: &Spec) -> Self {
        Self::declared(spec.per_layer.iter().map(|m| (&m.name, &m.unit)))
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name `BENCHMARK.json` does not declare, a unit that
    /// differs from the declared one, or a non-finite value.
    pub fn set(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert_eq!(
            self.units.get(name).map(String::as_str),
            Some(unit),
            "metric {name} must be declared in BENCHMARK.json with unit {unit}"
        );
        let slot = self.values.get_mut(name).expect("declared above");
        *slot = Some(Sample { value, samples });
    }

    /// Sets every still-unset metric to zero: a layer the workload does
    /// not exercise reports 0, it does not vanish from the table.
    pub fn zero_unset(&mut self) {
        for slot in self.values.values_mut() {
            slot.get_or_insert(Sample {
                value: 0.0,
                samples: 0,
            });
        }
    }

    /// Every metric as `(name, unit, sample)`, in name order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was never set.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, Sample)> {
        self.values.iter().map(|(name, slot)| {
            (
                name.as_str(),
                self.units[name].as_str(),
                slot.unwrap_or_else(|| panic!("declared metric {name} was not measured")),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        let spec = Spec::load();
        assert_eq!(spec.paths, ["e2e_bench"]);
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&str> = Vec::new();
        names.extend(spec.workloads.iter().map(|w| w.name.as_str()));
        names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
        for name in &names {
            assert!(well_formed(name), "bad name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &spec.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(matches!(m.better.as_str(), "lower" | "higher"));
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(
            spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the largest bound"
        );
        for m in &spec.per_layer {
            assert!(matches!(m.better.as_str(), "lower" | "higher"));
        }
        assert!(spec.command.len() <= 32);
    }

    #[test]
    #[should_panic(expected = "must be declared")]
    fn undeclared_metric_is_refused() {
        Metrics::end_to_end(&Spec::load()).set("no_such_metric", 1.0, "s", 1);
    }
}
