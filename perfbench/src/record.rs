//! Accumulators a run fills: output checks and per-layer samples.

use std::collections::BTreeMap;

/// Output checks behind `failed` and `failed_share`.
#[derive(Default, Debug)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one checked operation; describe it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Failed operations as a share of checked ones.
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Per-layer samples by metric name; a metric reports the median of its
/// samples (one per traced build, refresh round or serving phase).
#[derive(Default, Debug)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Add one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median of a metric's samples, or `None` when it was never sampled.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| crate::stats::median(v))
    }

    /// Number of samples behind a metric.
    pub fn count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }
}
