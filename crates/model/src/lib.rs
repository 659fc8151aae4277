//! `pap-model`: closed-form LogGP-style cost models for every registered
//! collective algorithm, extended with per-pattern arrival terms.
//!
//! Where `pap-sim` resolves a schedule through a discrete event queue, this
//! crate evaluates the same schedule analytically: each algorithm model
//! replays the builder's communication structure (trees, rings, recursive
//! halving/doubling, Bruck rounds, …) through the closed-form point-to-point
//! timing of the `net` module, which is closed over the exact platform parameters the
//! simulator uses — latency, bandwidth (the LogGP `G`), send/recv overheads
//! (`o_s`/`o_r`), the eager/rendezvous threshold, per-byte reduction cost
//! (`γ`), and the per-node NIC serialization clocks.
//!
//! Because each rank's start time is an input, a model predicts the last
//! delay `d̂` for an arbitrary [`ArrivalPattern`], not just the no-delay
//! case. The prediction is *not* bit-identical to the simulator — messages
//! contending for a NIC are resolved in schedule order rather than global
//! timestamp order — but it tracks the simulator closely enough for
//! algorithm *selection*; the differential suite in the workspace root
//! asserts rank-order agreement (Spearman ≥ 0.8) and bounded relative error
//! on the paper's Fig. 4 grid.
//!
//! Entry point: [`predict`] (or `predict_exits` for per-rank exit times).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pap_arrival::ArrivalPattern;
use pap_collectives::registry::{algorithm, CollectiveKind};
use pap_collectives::{topo, CollSpec};
use pap_sim::Platform;

mod net;
mod plan;
mod rounds;
mod trees;

use std::rc::Rc;

use net::Net;
use plan::{tree_plan, TreeId, TreePlan};

/// A model prediction for one (platform, collective, pattern) cell.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Prediction {
    /// Completion of the last rank relative to the last *arrival* (the
    /// paper's `d̂`).
    pub last_delay: f64,
    /// Completion of the last rank relative to the first arrival (`d*`).
    pub total_delay: f64,
}

/// Why a prediction could not be made. Mirrors the validation performed by
/// `CollSpec::build`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// No model for this (collective, algorithm ID) pair.
    UnknownAlgorithm(CollectiveKind, u8),
    /// Invalid specification (root out of range, zero ranks, zero segment).
    Invalid(String),
    /// Pattern length does not match the platform's rank count.
    PatternMismatch {
        /// Number of delays in the arrival pattern.
        pattern: usize,
        /// Number of ranks on the platform.
        ranks: usize,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownAlgorithm(kind, id) => {
                write!(f, "no model for {kind} algorithm {id}")
            }
            ModelError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
            ModelError::PatternMismatch { pattern, ranks } => {
                write!(f, "pattern has {pattern} delays but platform has {ranks} ranks")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Predict the arrival-aware cost of one collective under `pattern`.
pub fn predict(
    platform: &Platform,
    spec: &CollSpec,
    pattern: &ArrivalPattern,
) -> Result<Prediction, ModelError> {
    if pattern.len() != platform.ranks {
        return Err(ModelError::PatternMismatch { pattern: pattern.len(), ranks: platform.ranks });
    }
    let arrivals: Vec<f64> = (0..platform.ranks).map(|r| pattern.delay_of(r)).collect();
    let exits = predict_exits(platform, spec, &arrivals)?;
    let first = arrivals.iter().cloned().fold(f64::INFINITY, f64::min);
    let last = arrivals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let end = exits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Ok(Prediction { last_delay: end - last, total_delay: end - first })
}

/// Per-rank exit times for one collective when rank `r` starts at
/// `arrivals[r]` (seconds). This is the raw quantity [`predict`] reduces to
/// the paper's delay metrics.
pub(crate) fn predict_exits(
    platform: &Platform,
    spec: &CollSpec,
    arrivals: &[f64],
) -> Result<Vec<f64>, ModelError> {
    let p = platform.ranks;
    if p == 0 {
        return Err(ModelError::Invalid("platform has zero ranks".into()));
    }
    if arrivals.len() != p {
        return Err(ModelError::PatternMismatch { pattern: arrivals.len(), ranks: p });
    }
    if spec.root >= p {
        return Err(ModelError::Invalid(format!("root {} out of range for p={p}", spec.root)));
    }
    if spec.seg_bytes == 0 {
        return Err(ModelError::Invalid("seg_bytes must be nonzero".into()));
    }
    if algorithm(spec.kind, spec.alg).is_none() {
        return Err(ModelError::UnknownAlgorithm(spec.kind, spec.alg));
    }
    let mut net = Net::new(platform);
    let exits = dispatch(platform, &mut net, spec, arrivals)?;
    // Exits can never precede arrivals; enforce the invariant so degenerate
    // schedules (p = 1, zero-byte payloads) stay well-formed.
    Ok(exits.iter().zip(arrivals).map(|(&e, &a)| e.max(a)).collect())
}

fn seg_plan(bytes: u64, seg_bytes: u64, segmented: bool) -> Vec<u64> {
    if segmented {
        topo::seg_sizes(bytes, seg_bytes)
    } else {
        vec![bytes]
    }
}

fn tree_for(kind_alg: u8, p: usize) -> Option<(Rc<TreePlan>, bool)> {
    // (cached tree plan over vranks, segmented) for the shared reduce/bcast
    // tree IDs.
    match kind_alg {
        1 => Some((tree_plan(TreeId::Flat, p), false)),
        2 => Some((tree_plan(TreeId::Chain4, p), true)),
        3 => Some((tree_plan(TreeId::Pipeline, p), true)),
        4 => Some((tree_plan(TreeId::Binary, p), true)),
        5 => Some((tree_plan(TreeId::Binomial, p), true)),
        _ => None,
    }
}

fn dispatch(
    pf: &Platform,
    net: &mut Net,
    spec: &CollSpec,
    starts: &[f64],
) -> Result<Vec<f64>, ModelError> {
    let p = pf.ranks;
    let unknown = || ModelError::UnknownAlgorithm(spec.kind, spec.alg);
    let exits = match spec.kind {
        CollectiveKind::Reduce => match spec.alg {
            1..=5 => {
                let (plan, seg) = tree_for(spec.alg, p).ok_or_else(unknown)?;
                // Reduce ID 5 (binomial) is unsegmented in the builder.
                let seg = seg && spec.alg != 5;
                let segs = seg_plan(spec.bytes, spec.seg_bytes, seg);
                trees::tree_reduce(pf, net, spec.root, &segs, &plan, starts).finish()
            }
            6 => {
                let plan = tree_plan(TreeId::InOrderBinary, p);
                trees::in_order_reduce(pf, net, spec.root, spec.bytes, &plan, starts)
            }
            7 => rounds::reduce_rabenseifner(pf, net, spec.root, spec.bytes, starts),
            _ => return Err(unknown()),
        },
        CollectiveKind::Bcast => {
            let (plan, seg) = tree_for(spec.alg, p).ok_or_else(unknown)?;
            let segs = seg_plan(spec.bytes, spec.seg_bytes, seg);
            trees::tree_bcast(pf, net, spec.root, &segs, &plan, starts).finish()
        }
        CollectiveKind::Allreduce => match spec.alg {
            1 | 2 => {
                // Reduce to root, then broadcast from it (IDs 1 and 2 use
                // the flat/flat and binomial/binomial substrates).
                let (plan, bseg) = tree_for(if spec.alg == 1 { 1 } else { 5 }, p).unwrap();
                let rsegs = vec![spec.bytes];
                let mid =
                    trees::tree_reduce(pf, net, spec.root, &rsegs, &plan, starts).finish();
                let bsegs = seg_plan(spec.bytes, spec.seg_bytes, bseg);
                trees::tree_bcast(pf, net, spec.root, &bsegs, &plan, &mid).finish()
            }
            3 => rounds::allreduce_recdbl(pf, net, spec.bytes, starts),
            4 => rounds::allreduce_ring(pf, net, spec.bytes, 1, starts),
            5 => {
                let phases = topo::ring_phases(spec.bytes, p, spec.seg_bytes);
                rounds::allreduce_ring(pf, net, spec.bytes, phases, starts)
            }
            6 => rounds::allreduce_rabenseifner(pf, net, spec.bytes, starts),
            _ => return Err(unknown()),
        },
        CollectiveKind::Alltoall => match spec.alg {
            1 => rounds::alltoall_linear(pf, net, spec.bytes, usize::MAX, starts),
            2 => rounds::alltoall_pairwise(pf, net, spec.bytes, starts),
            3 => rounds::alltoall_bruck(pf, net, spec.bytes, starts),
            4 => rounds::alltoall_linear(pf, net, spec.bytes, 2, starts),
            _ => return Err(unknown()),
        },
        CollectiveKind::Barrier => match spec.alg {
            1 => rounds::barrier_dissemination(pf, net, starts),
            _ => return Err(unknown()),
        },
        CollectiveKind::Allgather => match spec.alg {
            1 => {
                let m = spec.bytes;
                let plan = tree_plan(TreeId::Binomial, p);
                let mid = trees::binomial_gather(pf, net, spec.root, m, &plan, starts).finish();
                // Per-block size clamped to ≥ 1 byte, mirroring the
                // builder's propagate-mode grid (p segments even at m = 0).
                let block = m.max(1);
                let bsegs = topo::seg_sizes(block * p as u64, block);
                trees::tree_bcast(pf, net, spec.root, &bsegs, &plan, &mid).finish()
            }
            2 => rounds::allgather_bruck(pf, net, spec.bytes, starts),
            3 => {
                if p.is_power_of_two() {
                    rounds::allgather_recdbl(pf, net, spec.bytes, starts)
                } else {
                    rounds::allgather_bruck(pf, net, spec.bytes, starts)
                }
            }
            4 => rounds::allgather_ring(pf, net, spec.bytes, starts),
            5 => {
                if p.is_multiple_of(2) {
                    rounds::allgather_neighbor(pf, net, spec.bytes, starts)
                } else {
                    rounds::allgather_ring(pf, net, spec.bytes, starts)
                }
            }
            _ => return Err(unknown()),
        },
        CollectiveKind::Gather => match spec.alg {
            1 => trees::linear_gather(pf, net, spec.root, spec.bytes, starts),
            2 => {
                let plan = tree_plan(TreeId::Binomial, p);
                trees::binomial_gather(pf, net, spec.root, spec.bytes, &plan, starts).finish()
            }
            _ => return Err(unknown()),
        },
        CollectiveKind::Scatter => match spec.alg {
            1 => trees::linear_scatter(pf, net, spec.root, spec.bytes, starts),
            2 => {
                let plan = tree_plan(TreeId::Binomial, p);
                trees::binomial_scatter(pf, net, spec.root, spec.bytes, &plan, starts)
            }
            _ => return Err(unknown()),
        },
    };
    Ok(exits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_collectives::registry::algorithms;
    use pap_sim::MachineId;

    fn platform(p: usize) -> Platform {
        Platform::preset(MachineId::SimCluster, p)
    }

    #[test]
    fn every_registered_algorithm_has_a_model() {
        for kind in CollectiveKind::ALL {
            for alg in algorithms(kind) {
                for p in [1usize, 2, 3, 4, 5, 8, 13, 64] {
                    let pf = platform(p);
                    let spec = CollSpec::new(kind, alg.id, 4096);
                    let exits = predict_exits(&pf, &spec, &vec![0.0; p])
                        .unwrap_or_else(|e| panic!("{kind} alg {} p {p}: {e}", alg.id));
                    assert_eq!(exits.len(), p);
                    assert!(
                        exits.iter().all(|e| e.is_finite() && *e >= 0.0),
                        "{kind} alg {} p {p}: non-finite exit",
                        alg.id
                    );
                }
            }
        }
    }

    #[test]
    fn predictions_positive_and_ordered() {
        let pf = platform(16);
        let pattern = ArrivalPattern::new(
            "test",
            (0..16).map(|r| r as f64 * 1e-6).collect::<Vec<_>>(),
        );
        for kind in CollectiveKind::ALL {
            for alg in algorithms(kind) {
                let spec = CollSpec::new(kind, alg.id, 1024);
                let pred = predict(&pf, &spec, &pattern).unwrap();
                assert!(pred.last_delay > 0.0, "{kind} alg {}: d̂ not positive", alg.id);
                assert!(
                    pred.total_delay >= pred.last_delay,
                    "{kind} alg {}: d* < d̂",
                    alg.id
                );
            }
        }
    }

    #[test]
    fn later_arrivals_never_speed_up_completion() {
        // Delaying one rank can only delay (or leave unchanged) the final
        // exit time — a basic sanity property of any arrival-aware model.
        let pf = platform(8);
        for kind in CollectiveKind::ALL {
            for alg in algorithms(kind) {
                let spec = CollSpec::new(kind, alg.id, 2048);
                let base = predict_exits(&pf, &spec, &[0.0; 8]).unwrap();
                let end = base.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                for late in 0..8 {
                    let mut arrivals = vec![0.0; 8];
                    arrivals[late] = 5e-5;
                    let exits = predict_exits(&pf, &spec, &arrivals).unwrap();
                    let e = exits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    assert!(
                        e >= end - 1e-12,
                        "{kind} alg {}: delaying rank {late} sped completion up",
                        alg.id
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_algorithm_and_bad_pattern_are_rejected() {
        let pf = platform(4);
        let spec = CollSpec::new(CollectiveKind::Reduce, 99, 64);
        assert!(matches!(
            predict_exits(&pf, &spec, &[0.0; 4]),
            Err(ModelError::UnknownAlgorithm(CollectiveKind::Reduce, 99))
        ));
        let ok = CollSpec::new(CollectiveKind::Reduce, 1, 64);
        assert!(matches!(
            predict_exits(&pf, &ok, &[0.0; 3]),
            Err(ModelError::PatternMismatch { pattern: 3, ranks: 4 })
        ));
        let bad_root = CollSpec::new(CollectiveKind::Reduce, 1, 64).with_root(7);
        assert!(matches!(predict_exits(&pf, &bad_root, &[0.0; 4]), Err(ModelError::Invalid(_))));
    }
}
