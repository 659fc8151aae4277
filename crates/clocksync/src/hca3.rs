//! HCA3-style hierarchical clock synchronization.
//!
//! The estimator follows the structure of HCA3 (Hunold & Carpen-Amarie):
//!
//! * nodes are organized in a binomial hierarchy rooted at the reference
//!   node 0, so synchronization completes in `ceil(log2 n)` rounds;
//! * each parent/child pair runs `exchanges` NTP-style ping-pongs, keeping
//!   the estimate from the **minimum-RTT** exchange (network jitter is
//!   one-sided, so the fastest exchange is the most symmetric one);
//! * two passes separated by a settling window provide a linear *drift*
//!   regression, not just an offset;
//! * child estimates compose with the parent's estimate, so errors grow
//!   with hierarchy depth — logarithmically in the node count.
//!
//! The ping-pongs are *modelled* (timestamps drawn from the clock models
//! plus latency jitter) rather than scheduled through the DES; what matters
//! downstream is the estimator structure and its residual-error statistics,
//! both of which are preserved.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::clock::{ClusterClocks, NodeClock};

/// Tuning knobs of the synchronization procedure.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Hca3Config {
    /// Ping-pongs per parent/child link per pass.
    pub(crate) exchanges: usize,
    /// One-way link latency (seconds) of the sync network.
    pub(crate) link_latency: f64,
    /// Relative jitter of each one-way delay (fraction of latency, one-sided).
    pub(crate) jitter_frac: f64,
    /// Settling time between the two passes of the drift regression
    /// (seconds). Longer windows estimate drift better.
    pub(crate) drift_window: f64,
}

impl Default for Hca3Config {
    fn default() -> Self {
        Hca3Config { exchanges: 20, link_latency: 1.5e-6, jitter_frac: 0.1, drift_window: 1.0 }
    }
}

/// A rank's calibrated view of its node clock: estimated linear map from
/// local readings to global time.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SyncedClock {
    /// Estimated offset of the local clock at global 0.
    pub(crate) est_offset: f64,
    /// Estimated drift of the local clock.
    pub(crate) est_drift: f64,
}

impl SyncedClock {
    /// A perfect calibration (used for ideal clocks).
    pub const PERFECT: SyncedClock = SyncedClock { est_offset: 0.0, est_drift: 0.0 };

    /// Estimated global time for a local reading.
    #[inline]
    pub fn global_of(&self, local: f64) -> f64 {
        (local - self.est_offset) / (1.0 + self.est_drift)
    }

    /// Local reading this calibration expects at global time `g` (used to
    /// spin until a harmonized start).
    #[inline]
    pub(crate) fn local_of(&self, g: f64) -> f64 {
        g * (1.0 + self.est_drift) + self.est_offset
    }

    /// Signed error of the estimated global clock at true global time `g`,
    /// given the node's true clock: `ĝ(local(g)) − g`.
    pub fn error_at(&self, truth: &NodeClock, g: f64) -> f64 {
        self.global_of(truth.local_of(g)) - g
    }
}

/// Synchronize using a *single-pass, offset-only* estimator (no drift
/// regression) — the HCA/HCA2 baseline. Exists for the ablation comparison:
/// without the drift term, the residual error grows linearly with the time
/// since synchronization, which is why HCA3 regresses drift.
pub fn sync_cluster_offset_only(clocks: &ClusterClocks, cfg: &Hca3Config, seed: u64) -> Vec<SyncedClock> {
    let one_pass = Hca3Config { drift_window: 0.0, ..*cfg };
    let mut est = sync_cluster(clocks, &one_pass, seed);
    for e in &mut est {
        e.est_drift = 0.0;
    }
    est
}

/// Synchronize all node clocks of a cluster against node 0.
///
/// Returns one [`SyncedClock`] per node (node 0 is perfect by construction).
pub fn sync_cluster(clocks: &ClusterClocks, cfg: &Hca3Config, seed: u64) -> Vec<SyncedClock> {
    let n = clocks.len();
    let mut est = vec![SyncedClock::PERFECT; n];
    if n <= 1 {
        return est;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4843_4133); // "HCA3"
    // Binomial hierarchy: child c's parent clears the lowest set bit of c.
    // Rounds proceed parent-before-child, i.e. in increasing popcount order;
    // processing children in numeric order suffices because parent < child.
    for c in 1..n {
        let parent = c & (c - 1);
        // Relative estimate of child vs parent from two passes.
        let (off_rel, drift_rel) = sync_link(&clocks.nodes[parent], &clocks.nodes[c], cfg, &mut rng);
        // Compose with the parent's calibration: the parent's estimated
        // global clock acts as the child's reference.
        let par = est[parent];
        // Child local ≈ (parent local)·(1+drift_rel) + off_rel, and parent
        // local ≈ global·(1+par_drift) + par_offset ⇒ compose linear maps.
        let drift = (1.0 + par.est_drift) * (1.0 + drift_rel) - 1.0;
        let offset = off_rel + par.est_offset * (1.0 + drift_rel);
        est[c] = SyncedClock { est_offset: offset, est_drift: drift };
    }
    est
}

/// Estimate the child clock relative to the parent clock from two min-RTT
/// ping-pong passes separated by `drift_window`.
///
/// Returns `(offset_rel, drift_rel)` such that
/// `child_local ≈ parent_local·(1 + drift_rel) + offset_rel`.
fn sync_link(parent: &NodeClock, child: &NodeClock, cfg: &Hca3Config, rng: &mut ChaCha8Rng) -> (f64, f64) {
    let pass = |t_start: f64, rng: &mut ChaCha8Rng| -> (f64, f64) {
        // Returns (offset estimate at parent-local midpoint, parent-local midpoint).
        let mut best_rtt = f64::INFINITY;
        let mut best = (0.0, 0.0);
        let mut g = t_start;
        for _ in 0..cfg.exchanges {
            let d1 = cfg.link_latency * (1.0 + cfg.jitter_frac * rng.gen::<f64>());
            let d2 = cfg.link_latency * (1.0 + cfg.jitter_frac * rng.gen::<f64>());
            // NTP exchange: parent sends at g, child bounces, parent
            // receives at g + d1 + d2.
            let t1 = parent.local_of(g);
            let t2 = child.local_of(g + d1);
            let t3 = t2; // immediate bounce
            let t4 = parent.local_of(g + d1 + d2);
            let rtt = t4 - t1;
            if rtt < best_rtt {
                best_rtt = rtt;
                // Child-minus-parent offset estimate (NTP formula).
                let theta = ((t2 - t1) + (t3 - t4)) / 2.0;
                best = (theta, (t1 + t4) / 2.0);
            }
            g += d1 + d2 + 10e-6; // small inter-exchange gap
        }
        (best.0, best.1)
    };
    let (o1, m1) = pass(0.0, rng);
    let (o2, m2) = pass(cfg.drift_window, rng);
    let drift_rel = if m2 > m1 { (o2 - o1) / (m2 - m1) } else { 0.0 };
    // Offset at parent-local 0: o1 measured at parent-local m1.
    let offset_rel = o1 - drift_rel * m1;
    (offset_rel, drift_rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residuals(n: usize, seed: u64, cfg: &Hca3Config, at: f64) -> Vec<f64> {
        let clocks = ClusterClocks::realistic(n, seed);
        let est = sync_cluster(&clocks, cfg, seed);
        (0..n).map(|i| est[i].error_at(&clocks.nodes[i], at)).collect()
    }

    #[test]
    fn sub_microsecond_accuracy_like_the_paper_claims() {
        // §II-B: "The global clock's accuracy is less than one microsecond."
        let cfg = Hca3Config::default();
        for seed in [1, 2, 3] {
            for &n in &[4usize, 16, 36] {
                let errs = residuals(n, seed, &cfg, 2.0);
                let worst = errs.iter().fold(0.0f64, |a, e| a.max(e.abs()));
                assert!(worst < 1e-6, "n={n} seed={seed}: worst residual {worst:.2e}");
            }
        }
    }

    #[test]
    fn unsynchronized_clocks_would_be_hopeless() {
        // Without sync, clock disagreement is orders of magnitude above the
        // microbenchmark scale — motivating the whole apparatus.
        let clocks = ClusterClocks::realistic(16, 5);
        assert!(clocks.max_disagreement(0.0) > 50e-6);
    }

    #[test]
    fn drift_regression_keeps_error_bounded_over_time() {
        let cfg = Hca3Config::default();
        let errs_late = residuals(16, 9, &cfg, 60.0);
        let worst = errs_late.iter().fold(0.0f64, |a, e| a.max(e.abs()));
        // One minute after sync, still well under 5 µs thanks to the drift
        // estimate (raw drift alone would accumulate up to 300 µs).
        assert!(worst < 5e-6, "worst residual after 60 s: {worst:.2e}");
    }

    #[test]
    fn more_exchanges_do_not_hurt() {
        let few = Hca3Config { exchanges: 3, ..Default::default() };
        let many = Hca3Config { exchanges: 50, ..Default::default() };
        let worst = |cfg: &Hca3Config| {
            (0..5)
                .map(|s| residuals(16, 100 + s, cfg, 2.0).iter().fold(0.0f64, |a, e| a.max(e.abs())))
                .sum::<f64>()
        };
        assert!(worst(&many) <= worst(&few) * 1.5);
    }

    #[test]
    fn drift_regression_beats_offset_only_over_time() {
        // The ablation HCA3 exists for: offset-only calibration degrades
        // linearly with elapsed time; the drift regression does not.
        let clocks = ClusterClocks::realistic(16, 21);
        let cfg = Hca3Config::default();
        let full = sync_cluster(&clocks, &cfg, 21);
        let naive = sync_cluster_offset_only(&clocks, &cfg, 21);
        let worst = |est: &[SyncedClock], t: f64| {
            (0..16).map(|i| est[i].error_at(&clocks.nodes[i], t).abs()).fold(0.0f64, f64::max)
        };
        // Shortly after sync both are fine; a minute later only HCA3 is.
        assert!(worst(&naive, 60.0) > 10.0 * worst(&full, 60.0),
            "offset-only {:.2e} vs drift-regressed {:.2e}",
            worst(&naive, 60.0), worst(&full, 60.0));
    }

    #[test]
    fn reference_node_is_exact() {
        let clocks = ClusterClocks::realistic(8, 11);
        let est = sync_cluster(&clocks, &Hca3Config::default(), 11);
        assert_eq!(est[0].error_at(&clocks.nodes[0], 5.0), 0.0);
    }

    #[test]
    fn single_node_trivial() {
        let clocks = ClusterClocks { nodes: vec![NodeClock::IDEAL; 1] };
        let est = sync_cluster(&clocks, &Hca3Config::default(), 0);
        assert_eq!(est.len(), 1);
    }

    #[test]
    fn synced_clock_maps_invert() {
        let sc = SyncedClock { est_offset: 2e-4, est_drift: 3e-6 };
        for g in [0.0, 1.5, 77.0] {
            assert!((sc.global_of(sc.local_of(g)) - g).abs() < 1e-12);
        }
    }
}
