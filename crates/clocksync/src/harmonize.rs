//! Harmonized starts (`MPIX_Harmonize`) and observed timestamps.
//!
//! Listing 1 of the paper establishes an arrival pattern by synchronizing
//! processes *in time*: all ranks agree on a global start instant `T`, each
//! spins until its local clock estimate of `T`, and then waits its pattern
//! delay. Because calibrations are imperfect, rank `i` really starts at
//! `T + ε_i` where `ε_i` is its residual synchronization error — which this
//! module computes, so the simulator can replay harmonized starts with
//! realistic imperfection.

use crate::clock::ClusterClocks;
use crate::hca3::SyncedClock;

/// True global times at which each rank starts after harmonizing on target
/// `T`.
///
/// `node_of` maps a rank to its node (ranks on one node share the node
/// clock). A rank spins until its *estimated* global clock reads `T`; the
/// true instant is `T + ε` with `ε` its calibration's residual error — and
/// never earlier than `now` (a target already in the past fires
/// immediately).
pub fn harmonize_starts(
    clocks: &ClusterClocks,
    calib: &[SyncedClock],
    p: usize,
    node_of: impl Fn(usize) -> usize,
    target: f64,
    now: f64,
) -> Vec<f64> {
    assert_eq!(calib.len(), clocks.len(), "one calibration per node");
    (0..p)
        .map(|r| {
            let n = node_of(r);
            // The rank spins until local reading == calib.local_of(target);
            // invert through the true clock to get the true instant.
            let true_t = clocks.nodes[n].global_of(calib[n].local_of(target));
            true_t.max(now)
        })
        .collect()
}

/// The timestamp a rank *observes* (through its estimated global clock) for
/// an event that truly happens at global time `g`.
pub fn observe(clocks: &ClusterClocks, calib: &[SyncedClock], node: usize, g: f64) -> f64 {
    calib[node].global_of(clocks.nodes[node].local_of(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NodeClock;
    use crate::hca3::{sync_cluster, Hca3Config};

    #[test]
    fn ideal_clocks_start_exactly_on_target() {
        let clocks = ClusterClocks { nodes: vec![NodeClock::IDEAL; 4] };
        let calib = vec![SyncedClock::PERFECT; 4];
        let starts = harmonize_starts(&clocks, &calib, 8, |r| r / 2, 1.0, 0.0);
        assert!(starts.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn realistic_clocks_start_within_sync_error() {
        let clocks = ClusterClocks::realistic(8, 3);
        let calib = sync_cluster(&clocks, &Hca3Config::default(), 3);
        let starts = harmonize_starts(&clocks, &calib, 16, |r| r / 2, 2.0, 0.0);
        for (r, &s) in starts.iter().enumerate() {
            assert!((s - 2.0).abs() < 2e-6, "rank {r} starts at {s}");
        }
        // Ranks on the same node start at the same instant.
        assert_eq!(starts[0], starts[1]);
    }

    #[test]
    fn past_target_fires_immediately() {
        let clocks = ClusterClocks { nodes: vec![NodeClock::IDEAL; 2] };
        let calib = vec![SyncedClock::PERFECT; 2];
        let starts = harmonize_starts(&clocks, &calib, 2, |r| r, 1.0, 5.0);
        assert!(starts.iter().all(|&s| s == 5.0));
    }

    #[test]
    fn observation_error_matches_calibration_error() {
        let clocks = ClusterClocks::realistic(4, 9);
        let calib = sync_cluster(&clocks, &Hca3Config::default(), 9);
        for n in 0..4 {
            let obs = observe(&clocks, &calib, n, 3.0);
            let err = calib[n].error_at(&clocks.nodes[n], 3.0);
            assert!((obs - 3.0 - err).abs() < 1e-15);
        }
    }

    #[test]
    fn unsynchronized_observation_would_be_off_by_clock_offset() {
        let clocks = ClusterClocks::realistic(4, 1);
        // Pretend we never synchronized (identity calibrations).
        let naive = vec![SyncedClock::PERFECT; 4];
        let worst = (0..4)
            .map(|n| (observe(&clocks, &naive, n, 1.0) - 1.0).abs())
            .fold(0.0f64, f64::max);
        assert!(worst > 10e-6, "expected large error without sync, got {worst:.2e}");
    }
}
