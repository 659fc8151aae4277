//! Per-node linear clock models: `local(g) = g·(1 + drift) + offset`.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One node's clock: a linear function of true (global) time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeClock {
    /// Offset at global time 0 (seconds). Realistic NTP-synchronized
    /// clusters sit in the 10 µs – 10 ms range.
    pub(crate) offset: f64,
    /// Relative drift (dimensionless); typical crystal oscillators drift a
    /// few ppm (1e-6).
    pub(crate) drift: f64,
}

impl NodeClock {
    /// The perfect clock (offset 0, no drift).
    pub(crate) const IDEAL: NodeClock = NodeClock { offset: 0.0, drift: 0.0 };

    /// Local reading at global time `g`.
    #[inline]
    pub fn local_of(&self, g: f64) -> f64 {
        g * (1.0 + self.drift) + self.offset
    }

    /// Global time at which the local clock reads `l` (exact inverse).
    #[inline]
    pub(crate) fn global_of(&self, l: f64) -> f64 {
        (l - self.offset) / (1.0 + self.drift)
    }
}

/// The clocks of a whole cluster, one per node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterClocks {
    /// Per-node clocks.
    pub nodes: Vec<NodeClock>,
}

impl ClusterClocks {
    /// Random realistic clocks: offsets uniform in `±max_offset`, drifts
    /// uniform in `±max_drift`. Node 0 is the reference (ideal) so that
    /// "global time" is well defined as its clock.
    pub(crate) fn generate(nodes: usize, max_offset: f64, max_drift: f64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut v = Vec::with_capacity(nodes);
        for i in 0..nodes {
            if i == 0 {
                v.push(NodeClock::IDEAL);
            } else {
                v.push(NodeClock {
                    offset: rng.gen_range(-max_offset..=max_offset),
                    drift: rng.gen_range(-max_drift..=max_drift),
                });
            }
        }
        ClusterClocks { nodes: v }
    }

    /// Defaults matching an NTP-disciplined production cluster: offsets up
    /// to ±500 µs, drifts up to ±5 ppm.
    pub fn realistic(nodes: usize, seed: u64) -> Self {
        Self::generate(nodes, 500e-6, 5e-6, seed)
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Largest pairwise clock disagreement at global time `g` — what an
    /// unsynchronized timestamp comparison would suffer.
    pub fn max_disagreement(&self, g: f64) -> f64 {
        let readings: Vec<f64> = self.nodes.iter().map(|c| c.local_of(g)).collect();
        let lo = readings.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = readings.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_global_round_trip() {
        let c = NodeClock { offset: 1e-3, drift: 3e-6 };
        for g in [0.0, 1.0, 123.456] {
            let l = c.local_of(g);
            assert!((c.global_of(l) - g).abs() < 1e-12);
        }
    }

    #[test]
    fn ideal_is_identity() {
        assert_eq!(NodeClock::IDEAL.local_of(5.0), 5.0);
        assert_eq!(NodeClock::IDEAL.global_of(5.0), 5.0);
    }

    #[test]
    fn node0_is_reference() {
        let c = ClusterClocks::realistic(8, 42);
        assert_eq!(c.nodes[0], NodeClock::IDEAL);
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let a = ClusterClocks::generate(16, 1e-3, 1e-5, 7);
        let b = ClusterClocks::generate(16, 1e-3, 1e-5, 7);
        assert_eq!(a.nodes, b.nodes);
        for c in &a.nodes {
            assert!(c.offset.abs() <= 1e-3);
            assert!(c.drift.abs() <= 1e-5);
        }
    }

    #[test]
    fn disagreement_grows_with_drift() {
        let c = ClusterClocks::generate(4, 0.0, 1e-5, 3);
        let d0 = c.max_disagreement(0.0);
        let d1 = c.max_disagreement(1000.0);
        assert!(d1 > d0, "drift should widen disagreement over time");
    }
}
