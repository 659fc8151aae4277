//! `pap-model`: closed-form LogGP-style cost models for every registered
//! collective algorithm, extended with per-pattern arrival terms.
//!
//! Where `pap-sim` resolves a schedule through a discrete event queue, this
//! crate evaluates the same schedule analytically: each algorithm model
//! replays the builder's communication structure through the closed-form
//! point-to-point timing of the `net` module, which is closed over the exact
//! platform parameters the simulator uses — latency, bandwidth (the LogGP
//! `G`), send/recv overheads (`o_s`/`o_r`), the eager/rendezvous threshold,
//! per-byte reduction cost (`γ`), and the per-node NIC serialization clocks.
//!
//! Two kernels do most of the replaying. The round driver in `rounds`
//! replays every exchange-round algorithm (pairwise and Bruck Alltoall, the
//! dissemination barrier, the Bruck, recursive-doubling, ring and
//! neighbor-exchange Allgathers, and the exchange loops of the
//! recursive-doubling, ring and Rabenseifner reductions) from a per-round
//! rule: whom each rank sends to and receives from, and how many bytes it
//! sends and reduces. The up-walk in `trees` replays every gather-like tree
//! phase (tree reduce, the in-order binary reduce, binomial gather) from a
//! vrank → rank map, a child order and per-edge byte counts. The windowed
//! linear Alltoall, the down-walks (tree broadcast, scatter) and the linear
//! gather keep their own replays.
//!
//! Because each rank's start time is an input, a model predicts the last
//! delay `d̂` for an arbitrary [`ArrivalPattern`], not just the no-delay
//! case. Which tree, phases, fallback or request window an algorithm ID
//! uses comes from the builders' own `CollSpec` methods, so the two cannot
//! disagree on it.
//!
//! The prediction matches the simulator to 1e-9 relative wherever no NIC
//! is contended: on one node, and across nodes with NIC serialization off
//! (`single_node_model_is_exact` and `nic_free_model_is_exact` in the
//! workspace's differential suite). Messages contending for a NIC are
//! resolved in replay order rather than timestamp order (for the
//! algorithms above, the order the two kernels replay in), and under skew
//! that gap can change the pick: ROADMAP item 17 measured a 54% regret at
//! Hydra 64. The suite asserts only rank-order agreement (Spearman ≥ 0.8)
//! and bounded relative error on the paper's Fig. 4 grid.
//!
//! Entry point: [`predict`] (or `predict_exits` for per-rank exit times).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pap_arrival::ArrivalPattern;
use pap_collectives::registry::CollectiveKind;
use pap_collectives::topo::{self, Tree};
use pap_collectives::{BuildError, CollSpec};
use pap_sim::Platform;

mod net;
mod plan;
mod rounds;
mod trees;

use net::Net;
use plan::tree_plan;

/// A model prediction for one (platform, collective, pattern) cell.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Prediction {
    /// Completion of the last rank relative to the last *arrival* (the
    /// paper's `d̂`).
    pub last_delay: f64,
    /// Completion of the last rank relative to the first arrival (`d*`).
    pub total_delay: f64,
}

/// Why a prediction could not be made.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The spec fails [`CollSpec::validate`], the same check
    /// `pap_collectives::build` makes (zero ranks, root out of range, zero
    /// segment, unregistered algorithm ID).
    Spec(BuildError),
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
            ModelError::Spec(e) => e.fmt(f),
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
    spec.validate(p).map_err(ModelError::Spec)?;
    if arrivals.len() != p {
        return Err(ModelError::PatternMismatch { pattern: arrivals.len(), ranks: p });
    }
    let mut net = Net::new(platform);
    let exits = dispatch(platform, &mut net, spec, arrivals)?;
    // Exits can never precede arrivals; enforce the invariant so degenerate
    // schedules (p = 1, zero-byte payloads) stay well-formed.
    Ok(exits.iter().zip(arrivals).map(|(&e, &a)| e.max(a)).collect())
}

fn dispatch(
    pf: &Platform,
    net: &mut Net,
    spec: &CollSpec,
    starts: &[f64],
) -> Result<Vec<f64>, ModelError> {
    let p = pf.ranks;
    let unknown = || ModelError::Spec(BuildError::UnknownAlgorithm(spec.kind, spec.alg));
    // The builders' own per-ID decisions: composed algorithms run their
    // two phases back to back, tree IDs their table row.
    if let Some((first, bcast)) = spec.phases(p) {
        let mid = dispatch(pf, net, &first, starts)?;
        return dispatch(pf, net, &bcast, &mid);
    }
    if let Some((tree, segs)) = spec.tree() {
        let plan = tree_plan(tree, p);
        let ends = match spec.kind {
            CollectiveKind::Reduce => trees::tree_reduce(pf, net, spec.root, &segs, &plan, starts),
            _ => trees::tree_bcast(pf, net, spec.root, &segs, &plan, starts),
        };
        return Ok(ends.finish());
    }
    let exits = match spec.kind {
        CollectiveKind::Reduce => match spec.alg {
            6 => {
                let plan = tree_plan(Tree::InOrderBinary, p);
                trees::in_order_reduce(pf, net, spec.root, spec.bytes, &plan, starts)
            }
            7 => rounds::reduce_rabenseifner(pf, net, spec.root, spec.bytes, starts),
            _ => return Err(unknown()),
        },
        CollectiveKind::Allreduce => match spec.alg {
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
            2 => rounds::alltoall_pairwise(pf, net, spec.bytes, starts),
            3 => rounds::alltoall_bruck(pf, net, spec.bytes, starts),
            _ => {
                let window = spec.request_window().ok_or_else(unknown)?;
                rounds::alltoall_linear(pf, net, spec.bytes, window, starts)
            }
        },
        CollectiveKind::Barrier => match spec.alg {
            1 => rounds::barrier_dissemination(pf, net, starts),
            _ => return Err(unknown()),
        },
        CollectiveKind::Allgather => match spec.runs_as(p) {
            2 => rounds::allgather_bruck(pf, net, spec.bytes, starts),
            3 => rounds::allgather_recdbl(pf, net, spec.bytes, starts),
            4 => rounds::allgather_ring(pf, net, spec.bytes, starts),
            5 => rounds::allgather_neighbor(pf, net, spec.bytes, starts),
            _ => return Err(unknown()),
        },
        CollectiveKind::Gather => match spec.alg {
            1 => trees::linear_gather(pf, net, spec.root, spec.bytes, starts),
            2 => {
                let plan = tree_plan(Tree::Binomial, p);
                trees::binomial_gather(pf, net, spec.root, spec.bytes, &plan, starts).finish()
            }
            _ => return Err(unknown()),
        },
        CollectiveKind::Scatter => match spec.alg {
            1 => trees::linear_scatter(pf, net, spec.root, spec.bytes, starts),
            2 => {
                let plan = tree_plan(Tree::Binomial, p);
                trees::binomial_scatter(pf, net, spec.root, spec.bytes, &plan, starts)
            }
            _ => return Err(unknown()),
        },
        CollectiveKind::Bcast => return Err(unknown()),
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
            Err(ModelError::Spec(BuildError::UnknownAlgorithm(CollectiveKind::Reduce, 99)))
        ));
        let ok = CollSpec::new(CollectiveKind::Reduce, 1, 64);
        assert!(matches!(
            predict_exits(&pf, &ok, &[0.0; 3]),
            Err(ModelError::PatternMismatch { pattern: 3, ranks: 4 })
        ));
        let bad_root = CollSpec::new(CollectiveKind::Reduce, 1, 64).with_root(7);
        assert!(matches!(predict_exits(&pf, &bad_root, &[0.0; 4]), Err(ModelError::Spec(BuildError::Invalid(_)))));
    }
}
