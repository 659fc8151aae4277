//! Workload-imbalance models: the *source* of application arrival patterns.
//!
//! Real applications arrive at collectives unevenly because compute phases
//! take different times on different ranks — from OS noise (node-level),
//! data-dependent work (rank-level), and transient interference. We model a
//! persistent multiplicative slowdown per rank with a node-structured and a
//! rank-structured component; the engine's noise model adds per-iteration
//! jitter on top.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Persistent compute-imbalance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ImbalanceModel {
    /// Std-dev of the per-node slowdown component (fraction; e.g. 0.05).
    pub(crate) node_sigma: f64,
    /// Std-dev of the per-rank slowdown component.
    pub(crate) rank_sigma: f64,
}

impl ImbalanceModel {
    /// A production-like default: nodes differ by a few percent, ranks by a
    /// little on top.
    pub(crate) const DEFAULT: ImbalanceModel =
        ImbalanceModel { node_sigma: 0.04, rank_sigma: 0.015 };

    /// Per-rank multiplicative compute factors (≥ 0.5), deterministic in
    /// `seed`. `node_of` maps ranks to nodes so that co-located ranks share
    /// the node component.
    pub(crate) fn factors(
        &self,
        p: usize,
        node_of: impl Fn(usize) -> usize, seed: u64,
    ) -> Vec<f64> {
        let nodes = (0..p).map(&node_of).max().map_or(1, |m| m + 1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1B41_AACE);
        let node_f: Vec<f64> = (0..nodes).map(|_| 1.0 + self.node_sigma * gauss(&mut rng)).collect();
        (0..p)
            .map(|r| (node_f[node_of(r)] + self.rank_sigma * gauss(&mut rng)).max(0.5))
            .collect()
    }
}

fn gauss(rng: &mut ChaCha8Rng) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let f = ImbalanceModel { node_sigma: 0.0, rank_sigma: 0.0 }.factors(8, |r| r / 4, 1);
        assert!(f.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn node_component_is_shared_within_a_node() {
        let m = ImbalanceModel { node_sigma: 0.1, rank_sigma: 0.0 };
        let f = m.factors(8, |r| r / 4, 2);
        assert_eq!(f[0], f[3]);
        assert_ne!(f[0], f[4]);
    }

    #[test]
    fn deterministic_and_positive() {
        let m = ImbalanceModel::DEFAULT;
        let a = m.factors(64, |r| r / 8, 7);
        let b = m.factors(64, |r| r / 8, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x >= 0.5));
        let c = m.factors(64, |r| r / 8, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn rank_component_differentiates_within_node() {
        let m = ImbalanceModel { node_sigma: 0.0, rank_sigma: 0.05 };
        let f = m.factors(8, |r| r / 4, 3);
        assert_ne!(f[0], f[1]);
    }
}
