//! Concrete arrival patterns and the paper's pattern file format.

use serde::{Deserialize, Serialize};

/// A concrete process arrival pattern: one delay (seconds) per rank.
///
/// Delays are relative to the pattern's epoch; the rank(s) with delay `0`
/// arrive first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalPattern {
    /// Human-readable provenance (a shape name, or e.g. `"ft_scenario"`).
    pub name: String,
    /// Per-rank delay in seconds; `delays.len()` is the process count.
    pub delays: Vec<f64>,
}

impl ArrivalPattern {
    /// Construct a pattern, validating that delays are finite and
    /// non-negative.
    ///
    /// # Panics
    /// Panics on empty, negative, or non-finite delays.
    pub fn new(name: impl Into<String>, delays: Vec<f64>) -> Self {
        assert!(!delays.is_empty(), "pattern needs at least one process");
        assert!(
            delays.iter().all(|d| d.is_finite() && *d >= 0.0),
            "delays must be finite and non-negative"
        );
        ArrivalPattern { name: name.into(), delays }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    /// Whether the pattern is empty (never true for validated patterns).
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// The maximum process skew `s`: the largest delay.
    pub fn max_skew(&self) -> f64 {
        self.delays.iter().copied().fold(0.0, f64::max)
    }

    /// Delay of one rank.
    ///
    /// This is the paper's `get_arrival_pattern_delay()` (Listing 1).
    pub fn delay_of(&self, rank: usize) -> f64 {
        self.delays[rank]
    }
}

/// Render a pattern in the paper's file format: one line per process, line
/// `i` holding the skew of process `P_i` in seconds.
pub fn render_pattern_file(pattern: &ArrivalPattern) -> String {
    let mut out = String::with_capacity(pattern.len() * 16);
    for d in &pattern.delays {
        out.push_str(&format!("{d:.9}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{generate, Shape};

    #[test]
    fn basic_stats() {
        let p = ArrivalPattern::new("t", vec![0.0, 1.0, 3.0]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.max_skew(), 3.0);
        assert_eq!(p.delay_of(1), 1.0);
    }

    #[test]
    fn file_format_round_trips() {
        let p = generate(Shape::Random, 40, 1.25e-3, 3);
        let text = render_pattern_file(&p);
        let back: Vec<f64> = text.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(back.len(), 40);
        for (a, b) in p.delays.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn negative_delay_rejected() {
        let _ = ArrivalPattern::new("bad", vec![-0.1]);
    }
}
