//! # pap-tracer — collective tracing (PMPI substitute)
//!
//! §V-A of the paper: a small tracing library that records, for every
//! collective call, each process's *arrival* and *exit* timestamp through a
//! synchronized clock, with optional **process sampling** and **call
//! sampling** (every k-th call) to bound trace size. The aggregated average
//! per-process delay is the application's replayable arrival pattern
//! ("FT-Scenario", Fig. 1).
//!
//! In the simulator, arrival/exit instants come from labelled segment
//! [`pap_sim::engine::PhaseRecord`]s; this crate filters and samples them, converts true
//! times to *observed* times through each node's calibrated clock, and
//! aggregates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pap_arrival::MeasuredPattern;
use pap_clocksync::{ClusterClocks, SyncedClock};
use pap_sim::engine::RunOutcome;
#[cfg(test)]
use pap_sim::engine::PhaseRecord;
use serde::{Deserialize, Serialize};

/// Sampling configuration (§V-A: "features for process and collective call
/// sampling").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TracerConfig {
    /// Record every `call_stride`-th call (1 = every call).
    pub call_stride: usize,
    /// Record every `rank_stride`-th rank (1 = every rank).
    pub rank_stride: usize,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig { call_stride: 1, rank_stride: 1 }
    }
}

/// One traced collective call: per-rank observed arrival and exit times.
/// Unsampled ranks hold `NaN`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CallRecord {
    /// Call sequence number (the label's `seq`).
    pub(crate) seq: u32,
    /// Observed arrival time per rank.
    pub(crate) arrivals: Vec<f64>,
    /// Observed exit time per rank.
    pub(crate) exits: Vec<f64>,
}

impl CallRecord {
    fn sampled(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.arrivals.iter().zip(&self.exits).filter(|(a, _)| !a.is_nan()).map(|(&a, &e)| (a, e))
    }

    /// Per-rank delay relative to the first sampled arriver; NaN for
    /// unsampled ranks.
    pub(crate) fn delays(&self) -> Vec<f64> {
        let min_a = self.sampled().map(|(a, _)| a).fold(f64::INFINITY, f64::min);
        self.arrivals.iter().map(|&a| a - min_a).collect()
    }
}

/// A trace of all sampled calls of one collective kind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectiveTrace {
    /// The label kind that was traced (e.g.
    /// `CollectiveKind::Alltoall.label_kind()`).
    pub(crate) kind: u32,
    /// Number of ranks in the job.
    pub(crate) ranks: usize,
    /// Sampled calls, in sequence order.
    pub(crate) calls: Vec<CallRecord>,
}

impl CollectiveTrace {
    /// Extract a trace from a finished run.
    ///
    /// `observer(rank, true_time)` converts a true simulation instant into
    /// the timestamp the rank would record (its calibrated clock); pass
    /// [`ideal_observer`] when clocks are perfect.
    pub fn from_outcome(
        outcome: &RunOutcome,
        ranks: usize,
        kind: u32,
        cfg: &TracerConfig,
        mut observer: impl FnMut(usize, f64) -> f64,
    ) -> Self {
        assert!(cfg.call_stride >= 1 && cfg.rank_stride >= 1, "strides must be >= 1");
        // One pass over the phase log: bucket matching phase indices by seq.
        // The BTreeMap iterates seqs in ascending order and each bucket keeps
        // log order, so the observer sees timestamps in the same order as the
        // old per-seq rescan did — just without the O(calls × phases) cost.
        let mut by_seq: std::collections::BTreeMap<u32, Vec<usize>> = std::collections::BTreeMap::new();
        for (idx, ph) in outcome.phases.iter().enumerate() {
            if ph.label.kind == kind {
                by_seq.entry(ph.label.seq).or_default().push(idx);
            }
        }
        let mut calls = Vec::new();
        for (i, (&seq, phase_idxs)) in by_seq.iter().enumerate() {
            if i % cfg.call_stride != 0 {
                continue;
            }
            let mut arrivals = vec![f64::NAN; ranks];
            let mut exits = vec![f64::NAN; ranks];
            for &idx in phase_idxs {
                let ph = &outcome.phases[idx];
                if ph.rank.is_multiple_of(cfg.rank_stride) {
                    arrivals[ph.rank] = observer(ph.rank, ph.enter);
                    exits[ph.rank] = observer(ph.rank, ph.exit);
                }
            }
            calls.push(CallRecord { seq, arrivals, exits });
        }
        CollectiveTrace { kind, ranks, calls }
    }

    /// Average per-rank delay across all sampled calls (the series of
    /// Fig. 1). NaN for unsampled ranks.
    pub fn avg_delays(&self) -> Vec<f64> {
        let mut sum = vec![0.0; self.ranks];
        let mut n = 0usize;
        for c in &self.calls {
            for (s, d) in sum.iter_mut().zip(c.delays()) {
                *s += d;
            }
            n += 1;
        }
        sum.iter().map(|s| s / n.max(1) as f64).collect()
    }

    /// Largest single-call skew observed (sizes the artificial patterns in
    /// the Fig. 8 experiments).
    pub fn max_observed_skew(&self) -> f64 {
        self.calls
            .iter()
            .flat_map(|c| {
                let min_a = c.sampled().map(|(a, _)| a).fold(f64::INFINITY, f64::min);
                let max_a = c.sampled().map(|(a, _)| a).fold(f64::NEG_INFINITY, f64::max);
                std::iter::once(max_a - min_a)
            })
            .fold(0.0, f64::max)
    }

    /// Export as a replayable measured pattern (the "FT-Scenario").
    /// Requires full rank sampling (stride 1).
    pub fn to_measured_pattern(&self, name: &str) -> MeasuredPattern {
        let arrivals: Vec<Vec<f64>> = self.calls.iter().map(|c| c.arrivals.clone()).collect();
        MeasuredPattern::from_call_arrivals(name, &arrivals)
    }

    /// Number of sampled calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether no calls were sampled.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

/// Observer for perfect clocks (the simulation setting).
pub fn ideal_observer(_rank: usize, t: f64) -> f64 {
    t
}

/// Observer that reads timestamps through each node's calibrated clock.
pub fn synced_observer<'a>(
    clocks: &'a ClusterClocks,
    calib: &'a [SyncedClock],
    node_of: impl Fn(usize) -> usize + 'a,
) -> impl FnMut(usize, f64) -> f64 + 'a {
    move |rank, t| pap_clocksync::observe(clocks, calib, node_of(rank), t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_sim::Label;

    /// Build a fake outcome with two calls of kind 3 on 4 ranks.
    fn fake_outcome() -> RunOutcome {
        let mut phases = Vec::new();
        for seq in 0..2u32 {
            for rank in 0..4usize {
                let enter = seq as f64 + rank as f64 * 0.1;
                phases.push(PhaseRecord {
                    rank,
                    label: Label { kind: 3, seq },
                    enter,
                    exit: enter + 0.5,
                });
            }
        }
        RunOutcome {
            finish: vec![0.0; 4],
            phases,
            slots: None,
            data_errors: vec![],
            events: 0,
            messages: 0,
            msg_events: None,
        }
    }

    #[test]
    fn trace_extracts_calls_and_delays() {
        let out = fake_outcome();
        let tr = CollectiveTrace::from_outcome(&out, 4, 3, &TracerConfig::default(), ideal_observer);
        assert_eq!(tr.len(), 2);
        let avg = tr.avg_delays();
        for (r, d) in avg.iter().enumerate() {
            assert!((d - r as f64 * 0.1).abs() < 1e-12);
        }
        assert!((tr.max_observed_skew() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn call_sampling_keeps_every_kth() {
        let out = fake_outcome();
        let cfg = TracerConfig { call_stride: 2, rank_stride: 1 };
        let tr = CollectiveTrace::from_outcome(&out, 4, 3, &cfg, ideal_observer);
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.calls[0].seq, 0);
    }

    #[test]
    fn rank_sampling_leaves_nan_holes() {
        let out = fake_outcome();
        let cfg = TracerConfig { call_stride: 1, rank_stride: 2 };
        let tr = CollectiveTrace::from_outcome(&out, 4, 3, &cfg, ideal_observer);
        let c = &tr.calls[0];
        assert!(!c.arrivals[0].is_nan() && !c.arrivals[2].is_nan());
        assert!(c.arrivals[1].is_nan() && c.arrivals[3].is_nan());
    }

    #[test]
    fn wrong_kind_is_ignored() {
        let out = fake_outcome();
        let tr = CollectiveTrace::from_outcome(&out, 4, 9, &TracerConfig::default(), ideal_observer);
        assert!(tr.is_empty());
    }

    #[test]
    fn measured_pattern_round_trip() {
        let out = fake_outcome();
        let tr = CollectiveTrace::from_outcome(&out, 4, 3, &TracerConfig::default(), ideal_observer);
        let mp = tr.to_measured_pattern("test");
        assert_eq!(mp.len(), 4);
        assert!((mp.avg_delay[3] - 0.3).abs() < 1e-12);
        let pat = mp.to_pattern();
        assert!((pat.max_skew() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let out = fake_outcome();
        let tr = CollectiveTrace::from_outcome(&out, 4, 3, &TracerConfig::default(), ideal_observer);
        let js = serde_json::to_string(&tr).unwrap();
        let back: CollectiveTrace = serde_json::from_str(&js).unwrap();
        assert_eq!(back.len(), tr.len());
        assert_eq!(back.ranks, 4);
    }
}
