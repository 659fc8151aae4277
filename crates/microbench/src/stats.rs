//! Repetition statistics.

use serde::{Deserialize, Serialize};

use crate::harness::Measurement;

/// Aggregated statistics of one benchmarked (algorithm, pattern) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunStats {
    /// Raw per-repetition measurements.
    pub reps: Vec<Measurement>,
}

impl RunStats {
    /// Wrap a set of repetitions.
    ///
    /// # Panics
    /// Panics on an empty set.
    pub fn new(reps: Vec<Measurement>) -> Self {
        assert!(!reps.is_empty(), "need at least one repetition");
        RunStats { reps }
    }

    fn lasts(&self) -> impl Iterator<Item = f64> + '_ {
        self.reps.iter().map(|m| m.last_delay)
    }

    /// Mean last delay `d̂` over repetitions (the paper's primary metric).
    pub fn mean_last(&self) -> f64 {
        self.lasts().sum::<f64>() / self.reps.len() as f64
    }

    /// Minimum last delay.
    pub fn min_last(&self) -> f64 {
        self.lasts().fold(f64::INFINITY, f64::min)
    }

    /// Maximum last delay.
    pub fn max_last(&self) -> f64 {
        self.lasts().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean total delay `d*`.
    pub fn mean_total(&self) -> f64 {
        self.reps.iter().map(|m| m.total_delay).sum::<f64>() / self.reps.len() as f64
    }

    /// Number of repetitions.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// Whether there are no repetitions (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(last: f64, total: f64) -> Measurement {
        Measurement { last_delay: last, total_delay: total }
    }

    #[test]
    fn aggregates() {
        let s = RunStats::new(vec![m(1.0, 2.0), m(3.0, 4.0), m(2.0, 3.0)]);
        assert!((s.mean_last() - 2.0).abs() < 1e-12);
        assert_eq!(s.min_last(), 1.0);
        assert_eq!(s.max_last(), 3.0);
        assert!((s.mean_total() - 3.0).abs() < 1e-12);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic]
    fn empty_rejected() {
        let _ = RunStats::new(vec![]);
    }
}
