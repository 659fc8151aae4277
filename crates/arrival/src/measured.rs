//! Patterns measured from application traces (the paper's "FT-Scenario").
//!
//! §V-A of the paper: for each collective call, set the arrival time of the
//! first process to zero, express all other arrivals relative to it, and
//! average per process across all calls. The result (e.g. Fig. 1) is a
//! replayable pattern that captures the application's persistent imbalance.

use serde::{Deserialize, Serialize};

use crate::pattern::ArrivalPattern;
use crate::shapes::{generate, Shape};

/// A pattern derived from per-call arrival-time observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredPattern {
    /// Provenance label (e.g. `"ft_scenario@hydra"`).
    pub(crate) name: String,
    /// Average per-rank delay (seconds), relative to the first arriver.
    pub avg_delay: Vec<f64>,
    /// Largest single-call skew observed while tracing (the paper uses this
    /// to size artificial patterns in the Fig. 8 experiments).
    pub(crate) max_observed_skew: f64,
    /// Number of collective calls aggregated.
    pub(crate) calls: usize,
}

impl MeasuredPattern {
    /// Aggregate per-call arrival times into a measured pattern.
    ///
    /// `arrivals[k][i]` is the (global-clock) arrival time of rank `i` at
    /// call `k`. Each call is re-based to its own first arriver before
    /// averaging.
    ///
    /// # Panics
    /// Panics if `arrivals` is empty or ragged.
    pub fn from_call_arrivals(name: impl Into<String>, arrivals: &[Vec<f64>]) -> Self {
        assert!(!arrivals.is_empty(), "no calls recorded");
        let p = arrivals[0].len();
        assert!(p > 0, "no ranks recorded");
        let mut sum = vec![0.0; p];
        let mut max_skew: f64 = 0.0;
        for (k, call) in arrivals.iter().enumerate() {
            assert_eq!(call.len(), p, "ragged arrivals at call {k}");
            let first = call.iter().copied().fold(f64::INFINITY, f64::min);
            let mut call_max = 0.0f64;
            for (i, &a) in call.iter().enumerate() {
                let d = a - first;
                sum[i] += d;
                call_max = call_max.max(d);
            }
            max_skew = max_skew.max(call_max);
        }
        let n = arrivals.len() as f64;
        MeasuredPattern {
            name: name.into(),
            avg_delay: sum.iter().map(|s| s / n).collect(),
            max_observed_skew: max_skew,
            calls: arrivals.len(),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.avg_delay.len()
    }

    /// Whether no ranks were recorded (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.avg_delay.is_empty()
    }

    /// The measured pattern as a replayable [`ArrivalPattern`], re-based so
    /// the earliest average delay is zero.
    pub fn to_pattern(&self) -> ArrivalPattern {
        let lo = self.avg_delay.iter().copied().fold(f64::INFINITY, f64::min);
        ArrivalPattern::new(
            self.name.clone(),
            self.avg_delay.iter().map(|d| (d - lo).max(0.0)).collect(),
        )
    }

    /// Classify the measured pattern against the artificial shapes by cosine
    /// similarity of the (mean-centered) delay vectors; returns the best
    /// shape and its similarity in `[-1, 1]`.
    ///
    /// Used to answer "which of the Fig. 3 shapes does this application's
    /// pattern resemble?".
    pub fn classify(&self) -> (Shape, f64) {
        classify_delays(&self.avg_delay)
    }
}

/// Classify a per-rank delay (or raw arrival-time) vector against the known
/// pattern shapes: the nearest Fig. 3 shape by cosine similarity of the
/// mean-centered delay vectors, i.e. by the *relative imbalance profile*
/// (absolute offsets and the overall skew magnitude cancel out).
///
/// A vector with no spread at all (every rank equal, including the
/// single-rank case) is [`Shape::NoDelay`] with similarity `1.0`. The online
/// selection service uses this to map a query's observed arrival samples to
/// the benchmarked pattern suite.
///
/// # Panics
/// Panics if `delays` is empty.
pub fn classify_delays(delays: &[f64]) -> (Shape, f64) {
    assert!(!delays.is_empty(), "cannot classify an empty delay vector");
    let mine = center(delays);
    if delays.len() < 2 || mine.iter().all(|&d| d == 0.0) {
        return (Shape::NoDelay, 1.0);
    }
    let p = delays.len();
    let mut best = (Shape::Random, f64::NEG_INFINITY);
    for sh in Shape::ARTIFICIAL {
        let proto = generate(sh, p, 1.0, 0);
        let c = cosine(&mine, &center(&proto.delays));
        if c > best.1 {
            best = (sh, c);
        }
    }
    best
}

fn center(v: &[f64]) -> Vec<f64> {
    let m = v.iter().sum::<f64>() / v.len() as f64;
    v.iter().map(|x| x - m).collect()
}

fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_and_rebases_per_call() {
        // Two calls; rank 1 is consistently 2s late, epochs differ.
        let arrivals = vec![vec![10.0, 12.0], vec![100.0, 102.0]];
        let m = MeasuredPattern::from_call_arrivals("t", &arrivals);
        assert_eq!(m.calls, 2);
        assert_eq!(m.avg_delay, vec![0.0, 2.0]);
        assert_eq!(m.max_observed_skew, 2.0);
    }

    #[test]
    fn to_pattern_rebases_minimum() {
        let m = MeasuredPattern {
            name: "t".into(),
            avg_delay: vec![1.0, 3.0, 2.0],
            max_observed_skew: 3.0,
            calls: 1,
        };
        let p = m.to_pattern();
        assert_eq!(p.delays, vec![0.0, 2.0, 1.0]);
    }

    #[test]
    fn classify_recovers_generating_shape() {
        for sh in [Shape::Ascending, Shape::Descending, Shape::VShape, Shape::HalfStep] {
            let proto = generate(sh, 64, 1e-3, 0);
            // Build synthetic per-call arrivals following the prototype.
            let calls: Vec<Vec<f64>> = (0..5).map(|_| proto.delays.clone()).collect();
            let m = MeasuredPattern::from_call_arrivals("t", &calls);
            let (got, sim) = m.classify();
            assert_eq!(got, sh, "similarity {sim}");
            assert!(sim > 0.99);
        }
    }

    #[test]
    fn classify_delays_handles_flat_scaled_and_shifted_vectors() {
        // No spread (any magnitude) → NoDelay.
        assert_eq!(classify_delays(&[0.0; 8]), (Shape::NoDelay, 1.0));
        assert_eq!(classify_delays(&[3.5; 16]), (Shape::NoDelay, 1.0));
        assert_eq!(classify_delays(&[7.0]), (Shape::NoDelay, 1.0));
        // Scale and absolute offset are irrelevant: raw arrival timestamps
        // classify the same as re-based delays.
        let proto = generate(Shape::LastDelayed, 12, 1.0, 0);
        let shifted: Vec<f64> = proto.delays.iter().map(|d| 100.0 + 0.25 * d).collect();
        let (sh, sim) = classify_delays(&shifted);
        assert_eq!(sh, Shape::LastDelayed);
        assert!(sim > 0.99, "similarity {sim}");
    }

    #[test]
    fn max_observed_skew_tracks_worst_call() {
        let arrivals = vec![vec![0.0, 1.0], vec![0.0, 5.0], vec![0.0, 2.0]];
        let m = MeasuredPattern::from_call_arrivals("t", &arrivals);
        assert_eq!(m.max_observed_skew, 5.0);
        // Average is (1+5+2)/3.
        assert!((m.avg_delay[1] - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn ragged_input_rejected() {
        let _ = MeasuredPattern::from_call_arrivals("t", &[vec![0.0, 1.0], vec![0.0]]);
    }
}
